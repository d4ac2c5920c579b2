"""Acceptance suite: every criterion implemented at its stated tolerance.

Each criterion is a function returning (ok, detail).  ``run`` executes a
selection and prints one pass/fail line per criterion; the CLI ``selftest``
subcommand and tests/test_acceptance.py both drive this module, so there is a
single source of truth for the thresholds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import (
    EdgeSpec,
    Side,
    TridiagonalMatrix,
    TridiagonalResolvent,
    almost_toeplitz_decompose,
    build_F,
    chebyshev2,
    check_hypotheses,
    convergence_sweep,
    cumulant_bound_check,
    decay_profile,
    empirical_statistic,
    free_resolvent_entry,
    hermite,
    invert_dense_oracle,
    laguerre,
    parse_test_function,
    pi_squared_check,
    resolvent_norm_estimate,
    sample_statistic,
    second_cumulant_three_ways,
    sigma2_quadrature,
    sigma2_residue,
    tricomi_carlitz,
)
from .cumulants import cumulant
from .sampling import standardized_skewness
from .testfun import ResolventTestFunction

IM_G = parse_test_function("im:1/(x-i)")
RE_G = parse_test_function("re:1/(x-i)")


def criterion_1_free_resolvent() -> tuple[bool, str]:
    """Recursion inverse vs closed form, a=1/b=0, x0=2, eta=i, N=2000.

    The closed form is the semi-infinite resolvent, so entries are compared
    on the sub-block whose distance from the artificial truncation boundary
    makes the truncation's own reflection term (|u|^(2*distance)) smaller
    than the tolerance; with guard = 20 sqrt(n^alpha) that bias is < 4e-12.
    """
    N = 2000
    worst = 0.0
    for n_alpha in (25.0, 100.0):
        guard = math.ceil(20 * math.sqrt(n_alpha))
        J = TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1j / n_alpha)
        recursion = TridiagonalResolvent(J).dense()[: N - guard, : N - guard]
        idx = np.arange(1, N - guard + 1)
        closed = free_resolvent_entry(1j, n_alpha, Side.RIGHT, idx[:, None], idx)
        dev = np.max(np.abs(recursion - closed))
        worst = max(worst, float(dev))
    return worst <= 1e-10, f"max entry deviation {worst:.3e} (tol 1e-10)"


def criterion_2_variance_constants() -> tuple[bool, str]:
    """sigma^2 = 3/32 (Im g) and 1/32 (Re g): quadrature 1e-6, residue 1e-12."""
    errs = []
    for f, target in ((IM_G, 3 / 32), (RE_G, 1 / 32)):
        q = sigma2_quadrature(f, Side.RIGHT).value
        r = sigma2_residue(f, Side.RIGHT).value
        errs.append((abs(q - target), abs(r - target)))
    quad_err = max(e[0] for e in errs)
    res_err = max(e[1] for e in errs)
    ok = quad_err <= 1e-6 and res_err <= 1e-12
    return ok, f"quadrature err {quad_err:.3e} (tol 1e-6), residue err {res_err:.3e} (tol 1e-12)"


def criterion_3_pi_squared() -> tuple[bool, str]:
    err = abs(pi_squared_check() - math.pi ** 2)
    return err <= 1e-6, f"|value - pi^2| = {err:.3e} (tol 1e-6)"


@lru_cache(maxsize=1)
def _clt_sweep():
    edge = EdgeSpec(side=Side.RIGHT, alpha=0.5, x0=2.0, epsilon=0.1)
    return convergence_sweep(chebyshev2(), edge, IM_G, [500, 1000, 2000, 4000], m_max=4)


def criterion_4_clt_convergence() -> tuple[bool, str]:
    """Relative error of scaled C2 vs 3/32 decreases monotonically, <= 0.15 at n=4000."""
    reports = _clt_sweep()
    rel = [abs(r.scaled_cumulants[2] / (3 / 32) - 1) for r in reports]
    monotone = all(rel[i + 1] < rel[i] for i in range(len(rel) - 1))
    ok = monotone and rel[-1] <= 0.15
    detail = ", ".join(f"n={r.n}: {e:.5f}" for r, e in zip(reports, rel))
    return ok, f"rel errors [{detail}]; monotone={monotone}, final <= 0.15"


def criterion_5_higher_cumulants() -> tuple[bool, str]:
    """|scaled C3| and |scaled C4| shrink by >= 2x from n=500 to n=4000."""
    reports = _clt_sweep()
    first, last = reports[0], reports[-1]
    ratios = {}
    for m in (3, 4):
        hi = abs(first.scaled_cumulants[m])
        lo = abs(last.scaled_cumulants[m])
        ratios[m] = hi / lo if lo > 0 else math.inf
    ok = all(r >= 2.0 for r in ratios.values())
    return ok, f"shrink factors C3: {ratios[3]:.2f}, C4: {ratios[4]:.2f} (need >= 2)"


def _random_fixture(rng: np.random.Generator):
    specs = [
        chebyshev2(),
        hermite(),
        laguerre(float(rng.uniform(0, 2))),
        tricomi_carlitz(float(rng.uniform(1.5, 3))),
    ]
    spec = specs[int(rng.integers(len(specs)))]
    n = int(rng.integers(60, 301))
    alpha = float(rng.uniform(0.3, 0.7))
    side = Side.RIGHT if rng.random() < 0.5 else Side.LEFT
    edge = EdgeSpec(side=side, alpha=alpha, epsilon=0.1)
    m_poles = int(rng.integers(1, 3))
    poles = tuple(
        complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0)) for _ in range(m_poles)
    )
    weights = tuple(float(rng.uniform(-2, 2)) for _ in range(m_poles))
    f = ResolventTestFunction(poles, weights)
    return build_F(spec, n, edge, f), n


def criterion_6_c2_triangle() -> tuple[bool, str]:
    """Composition sum, off-diagonal trace, and commutator C2 agree to 1e-9 rel."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        F, n = _random_fixture(rng)
        vals = second_cumulant_three_ways(F, n)
        scale = max(abs(v) for v in vals)
        if scale == 0:
            continue
        spread = (max(vals) - min(vals)) / scale
        worst = max(worst, spread)
    return worst <= 1e-9, f"worst pairwise relative spread {worst:.3e} (tol 1e-9)"


def criterion_7_dominated_bound() -> tuple[bool, str]:
    """|C_m| bounded by the factorial-exponential multiple of C_2, m = 3, 4."""
    edge = EdgeSpec(side=Side.RIGHT, alpha=0.5, epsilon=0.1)
    details = []
    ok = True
    for spec, name in ((chebyshev2(), "chebyshev2"), (hermite(), "gue")):
        F = build_F(spec, 200, edge, IM_G)
        for m in (3, 4):
            rep = cumulant_bound_check(F, 200, m)
            ok = ok and rep.holds
            details.append(f"{name} m={m}: slack {rep.slack:.2e}")
    return ok, "; ".join(details)


def criterion_8_oracle_equivalence() -> tuple[bool, str]:
    """Recursion inverse vs dense LU on 200 random matrices; T+H vs oracle at N=300."""
    rng = np.random.default_rng(7321)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 65))
        diag = rng.uniform(-2, 2, size=N)
        off = rng.uniform(0.2, 2.0, size=N - 1) * rng.choice([-1, 1], size=N - 1)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
        J = TridiagonalMatrix(diag, off, z)
        oracle = invert_dense_oracle(J)
        dev = np.max(np.abs(TridiagonalResolvent(J).dense() - oracle))
        worst = max(worst, float(dev / np.max(np.abs(oracle))))
    # almost-Toeplitz reconstruction against the oracle
    N = 300
    diag = 2.0 + 0.1 * np.arange(N) / N
    off = 1.0 + 0.05 * np.arange(N - 1) / N
    J = TridiagonalMatrix(diag, off, 0.05 + 0.02j)
    dec = almost_toeplitz_decompose(J)
    trec = np.max(np.abs(dec.T + dec.H - invert_dense_oracle(J)))
    ok = worst <= 1e-10 and trec <= 1e-10
    return ok, f"max rel dev {worst:.3e} (tol 1e-10); |T+H - oracle| {trec:.3e} (tol 1e-10)"


def criterion_9_decay_rates() -> tuple[bool, str]:
    """Edge decay rate tracks n^(-alpha/2) within 20%; >= 5x the bulk rate."""
    N = 2000
    target = abs(np.sqrt(-1j).real)  # |Re sqrt(-eta)| for eta = i
    normalized = {}
    for n_alpha in (1e2, 1e3, 1e4):
        J = TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1j / n_alpha)
        fit = decay_profile(J, ref_row=N // 2)
        normalized[n_alpha] = fit.rate * math.sqrt(n_alpha)
    scale_ok = all(abs(v / target - 1) <= 0.20 for v in normalized.values())
    J_bulk = TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 0.0 + 1j / 1e2)
    bulk_rate = decay_profile(J_bulk, ref_row=N // 2).rate
    edge_rate = normalized[1e2] / math.sqrt(1e2)
    ratio = edge_rate / bulk_rate
    ok = scale_ok and ratio >= 5.0
    vals = ", ".join(f"{k:g}: {v:.4f}" for k, v in normalized.items())
    return ok, f"rate*n^(a/2) [{vals}] vs {target:.4f} (20%); edge/bulk = {ratio:.1f} (>= 5)"


def criterion_10_resolvent_norm() -> tuple[bool, str]:
    """Power-iteration norm of (J - z)^-1 never exceeds (1 + 1e-6)/|Im z|."""
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(5, 200))
        diag = rng.uniform(-3, 3, size=N)
        off = rng.uniform(0.1, 2.0, size=N - 1)
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
        J = TridiagonalMatrix(diag, off, z)
        ratio = resolvent_norm_estimate(J) * abs(z.imag)
        worst = max(worst, ratio)
    return worst <= 1 + 1e-6, f"max |Im z| * ||R|| = {worst:.9f} (tol 1 + 1e-6)"


def criterion_11_monte_carlo() -> tuple[bool, str]:
    """GUE n=200, 1e4 samples, alpha=0.4: empirical variance within 3 SE; |skew| <= 0.15."""
    edge = EdgeSpec(side=Side.RIGHT, alpha=0.4, epsilon=0.1)
    X = sample_statistic(hermite(), 200, 10000, 20240817, IM_G, edge)
    _, var, se = empirical_statistic(X)
    F = build_F(hermite(), 200, edge, IM_G)
    exact = cumulant(F, 200, 2) / 200 ** (2 * 0.4)
    zscore = abs(var - exact) / se
    skew = abs(standardized_skewness(X))
    ok = zscore <= 3.0 and skew <= 0.15
    return ok, f"|var - exact|/SE = {zscore:.2f} (<= 3); |skew| = {skew:.3f} (<= 0.15)"


def criterion_12_hypothesis_checker() -> tuple[bool, str]:
    """Laguerre gamma=0 cancellation exactly zero; Chebyshev2 all-zero differences."""
    # n = 2^10 keeps every Laguerre gamma=0 coefficient an exact dyadic, so the
    # identically-vanishing cross-difference evaluates to exactly 0.0
    edge_lag = EdgeSpec(side=Side.LEFT, alpha=1.0, x0=0.0, epsilon=0.1)
    rep_lag = check_hypotheses(laguerre(0.0), 1024, edge_lag)
    edge_cheb = EdgeSpec(side=Side.RIGHT, alpha=0.5, epsilon=0.1)
    rep_cheb = check_hypotheses(chebyshev2(), 500, edge_cheb)
    cheb_zero = (
        rep_cheb.max_da_scaled == 0.0
        and rep_cheb.max_db_scaled == 0.0
        and rep_cheb.rec1_raw == 0.0
        and rep_cheb.rec2_raw == 0.0
    )
    ok = rep_lag.rec2_raw == 0.0 and cheb_zero
    return ok, (
        f"laguerre rec2 raw max = {rep_lag.rec2_raw!r} (exact 0.0); "
        f"chebyshev all-zero = {cheb_zero}"
    )


@dataclass(frozen=True)
class CriterionResult:
    number: int
    description: str
    ok: bool
    detail: str
    seconds: float


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "free-resolvent exactness", criterion_1_free_resolvent),
    (2, "variance constants 3/32 and 1/32", criterion_2_variance_constants),
    (3, "pi^2 normalization integral", criterion_3_pi_squared),
    (4, "CLT convergence of scaled C2", criterion_4_clt_convergence),
    (5, "higher-cumulant decay", criterion_5_higher_cumulants),
    (6, "C2 identity triangle", criterion_6_c2_triangle),
    (7, "dominated cumulant bound", criterion_7_dominated_bound),
    (8, "oracle equivalence", criterion_8_oracle_equivalence),
    (9, "edge vs bulk decay rates", criterion_9_decay_rates),
    (10, "resolvent norm bound", criterion_10_resolvent_norm),
    (11, "Monte-Carlo cross-check", criterion_11_monte_carlo),
    (12, "hypothesis checker exact zeros", criterion_12_hypothesis_checker),
]


def run(only: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (all by default), one pass/fail line each.

    Raises ValueError when ``only`` names a number no criterion has.
    """
    unknown = sorted(set(only or ()) - {number for number, _, _ in CRITERIA})
    if unknown:
        names = ", ".join(map(str, unknown))
        raise ValueError(f"no criterion numbered {names}; they run from 1 to {len(CRITERIA)}")
    results = []
    for number, description, fn in CRITERIA:
        if only is not None and number not in only:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(number, description, ok, detail, elapsed))
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {number:2d} ({description}): {detail} [{elapsed:.1f}s]")
    return results

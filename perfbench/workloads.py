"""The benchmark's workloads: fixed operation lists built from a seed, each with a check.

An operation is one ``opemeso.cli.main([...])`` call or one public library
call.  The seed changes only values (Monte-Carlo seeds, pole positions,
tridiagonal fixtures); sizes, counts, n-lists and tolerances are constants, so
every seed asks for the same work.  Checks compare each output with a
reference that does not come from the code path being timed, and run outside
the timed section.  A failed check raises ``CheckFailed``.

Sizes are scaled so one pass takes a few seconds on a 2-core machine:

* edge-sweep: the dense (n+margin)^2 window and the O(n^3) power blocks do
  nearly all the work (the CLT acceptance sweep, cut at n = 2000 so a pass
  fits about 4 s and 330 MB), plus a Hermite order-6 sweep with an
  n-dependent recurrence and two banded solves;
* mc-batch: one tridiagonal eigensolve per sample dominates; the batch file
  is written, read back and resumed;
* variance-limit: the O(grid^2) weighted Lipschitz norm dominates; nothing
  tridiagonal or sampling runs;
* resolvent-decay: pivot recursions, log-space assembly and banded solves.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from opemeso import cli, tridiagonal
from opemeso.cumulants import build_F, cumulant, default_margin, second_cumulant_three_ways
from opemeso.ensembles import EdgeSpec, Side, hermite, laguerre
from opemeso.testfun import parse_test_function

IM_G = "im:1/(x-i)"
RE_G = "re:1/(x-i)"


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation.

    ``key`` describes the inputs (argv, or the fixture values) so that tests
    can compare seeds; ``prepare`` runs untimed before ``call``; ``check``
    receives ``call``'s result.  For a CLI operation a non-zero return code is
    a failure and the check is skipped.
    """

    label: str
    key: tuple
    call: Callable[[], Any]
    check: Callable[[Any], None]
    prepare: Callable[[], None] | None = None
    is_cli: bool = False


def cli_op(label: str, argv: list[str], check: Callable[[], None], prepare=None) -> Op:
    # cli.main is looked up at call time, so a tracer wrapper installed later sees it
    return Op(label, ("cli", *argv), lambda: cli.main(list(argv)), lambda _rc: check(),
              prepare, is_cli=True)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _scaled_cumulants(path: Path) -> dict[int, dict[int, float]]:
    """{n: {m: value}} from a ``cumulants`` CSV."""
    out: dict[int, dict[int, float]] = {}
    for n, _alpha, m, re_, _im in _csv_rows(path):
        out.setdefault(int(n), {})[int(m)] = float(re_)
    return out


# --------------------------------------------------------------------------
# edge-sweep

CHEB_N = (250, 500, 1000, 2000)
CHEB_M_MAX = 4
HERM_N = 1000
HERM_M_MAX = 6
EDGE_ALPHA = 0.5
EDGE_EPS = 0.1


def check_clt_sweep(path: Path, n_list=CHEB_N, m_max=CHEB_M_MAX) -> None:
    """Scaled C2 -> 3/32 with a relative error that falls monotonically in n."""
    table = _scaled_cumulants(path)
    expect(sorted(table) == list(n_list), f"n values {sorted(table)} != {list(n_list)}")
    for n in n_list:
        expect(sorted(table[n]) == list(range(1, m_max + 1)), f"orders at n={n}: {sorted(table[n])}")
        expect(all(math.isfinite(v) for v in table[n].values()), f"non-finite cumulant at n={n}")
    rel = [abs(table[n][2] / (3 / 32) - 1) for n in n_list]
    expect(all(b < a for a, b in zip(rel, rel[1:])), f"C2 errors not decreasing: {rel}")
    expect(rel[-1] <= 0.15, f"C2 error {rel[-1]:.4f} at n={n_list[-1]} above 0.15")


def check_hermite_hypotheses(path: Path, n: int, alpha: float, eps: float) -> None:
    """Window, edge and slow-variation maxima against Hermite's closed forms.

    a_j = sqrt(j/n), b_j = 0: the edge is 2 ((n-1)/n)^(1/4) and the largest
    scaled step of a over the window is at its lowest index.
    """
    rep = json.loads(path.read_text())
    half = n ** (alpha / 2 + eps)
    lo, hi = max(1, math.ceil(n - half)), math.floor(n + half)
    expect(rep["n"] == n and rep["window"] == [lo, hi], f"window {rep['window']} != {[lo, hi]}")
    x0 = 2 * ((n - 1) / n) ** 0.25
    expect(abs(rep["x0"] - x0) <= 1e-12 * x0, f"x0 {rep['x0']!r} != {x0!r}")
    da = (math.sqrt(lo) - math.sqrt(lo - 1)) * math.sqrt(n)
    expect(abs(rep["scaled"]["max_da"] - da) <= 1e-9 * da, f"max_da {rep['scaled']['max_da']!r} != {da!r}")
    expect(rep["scaled"]["max_db"] == 0.0, "Hermite has b = 0, max_db must be 0")
    expect(all(rep["flags"].values()), f"flags {rep['flags']}")


def edge_sweep(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    u = float(rng.uniform(0.3, 0.7))
    herm_f = f"{IM_G}+re:0.5/(x-{u:.6f}+2i)"
    cheb_csv, hyp_json, herm_csv = work / "cheb.csv", work / "hyp.json", work / "herm.csv"
    edge = ["--alpha", str(EDGE_ALPHA), "--epsilon", str(EDGE_EPS)]
    herm_ref: dict[str, float] = {}

    def check_hermite_c2():
        if not herm_ref:
            spec = hermite()
            e = EdgeSpec(side=Side.RIGHT, alpha=EDGE_ALPHA, epsilon=EDGE_EPS)
            window = (1, HERM_N + default_margin(HERM_N, e))
            F = build_F(spec, HERM_N, e, parse_test_function(herm_f), window=window)
            herm_ref["c2"] = second_cumulant_three_ways(F, HERM_N)[2] / HERM_N ** (2 * EDGE_ALPHA)
        table = _scaled_cumulants(herm_csv)
        expect(list(table) == [HERM_N], f"n values {list(table)}")
        expect(sorted(table[HERM_N]) == list(range(1, HERM_M_MAX + 1)), "missing orders")
        expect(all(math.isfinite(v) for v in table[HERM_N].values()), "non-finite cumulant")
        got, ref = table[HERM_N][2], herm_ref["c2"]
        expect(abs(got - ref) <= 1e-9 * abs(ref), f"Hermite C2 {got!r} vs commutator {ref!r}")

    return [
        cli_op("cumulants-chebyshev2",
               ["cumulants", "--ensemble", "chebyshev2", *edge, "--x0", "2",
                "--n", ",".join(map(str, CHEB_N)), "--m-max", str(CHEB_M_MAX),
                "--f", IM_G, "--output", str(cheb_csv)],
               lambda: check_clt_sweep(cheb_csv)),
        cli_op("hypotheses-hermite",
               ["hypotheses", "--ensemble", "hermite", *edge, "--n", str(HERM_N),
                "--output", str(hyp_json)],
               lambda: check_hermite_hypotheses(hyp_json, HERM_N, EDGE_ALPHA, EDGE_EPS)),
        cli_op("cumulants-hermite",
               ["cumulants", "--ensemble", "hermite", *edge, "--n", str(HERM_N),
                "--m-max", str(HERM_M_MAX), "--f", herm_f, "--output", str(herm_csv)],
               check_hermite_c2),
    ]


# --------------------------------------------------------------------------
# mc-batch

MC_N = 400
MC_FRESH = 250
MC_RESUMED = 400
MC_LAGUERRE = 250
MC_ALPHA = 0.4
MC_SE_LIMIT = 4.0
_BATCH_HEADER = struct.Struct("<8sIQQQ")  # the batch format's header, read independently


def read_batch_rows(path: Path) -> np.ndarray:
    """(count, n) float64 rows of a batch file, parsed without opemeso."""
    data = path.read_bytes()
    _magic, _version, n, count, _seed = _BATCH_HEADER.unpack_from(data)
    return np.frombuffer(data, dtype="<f8", offset=_BATCH_HEADER.size).reshape(count, n)


def check_resumed_prefix(resumed: np.ndarray, fresh: np.ndarray) -> None:
    expect(resumed.shape[1] == fresh.shape[1], "row length differs")
    expect(resumed.shape[0] > fresh.shape[0], "resume did not extend the batch")
    expect(resumed[: fresh.shape[0]].tobytes() == fresh.tobytes(),
           "resumed batch's first rows differ from the fresh batch")


def mc_batch(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    herm_seed, lag_seed = (int(s) for s in rng.integers(0, 2 ** 63, size=2))
    batch = work / "hermite.batch"
    outs = {k: work / f"{k}.json" for k in ("fresh", "resumed", "laguerre")}
    fresh_rows: dict[str, np.ndarray] = {}
    exact: dict[str, float] = {}

    def exact_c2(name: str) -> float:
        # C2 of the finite-n ensemble from the window operator, scaled like the statistic
        if name not in exact:
            spec = hermite() if name == "hermite" else laguerre(0.0)
            e = EdgeSpec(side=Side.RIGHT, alpha=MC_ALPHA, epsilon=EDGE_EPS)
            F = build_F(spec, MC_N, e, parse_test_function(IM_G))
            exact[name] = cumulant(F, MC_N, 2) / MC_N ** (2 * MC_ALPHA)
        return exact[name]

    def check_sample(out: Path, ensemble: str, count: int, sample_seed: int) -> None:
        rep = json.loads(out.read_text())
        expect((rep["n"], rep["count"], rep["seed"]) == (MC_N, count, sample_seed),
               f"n/count/seed {(rep['n'], rep['count'], rep['seed'])}")
        ref = exact_c2(ensemble)
        z = abs(rep["variance"] - ref) / rep["variance_std_error"]
        expect(z <= MC_SE_LIMIT, f"{ensemble} variance {rep['variance']!r} is {z:.2f} SE from {ref!r}")

    def check_fresh():
        check_sample(outs["fresh"], "hermite", MC_FRESH, herm_seed)
        fresh_rows["rows"] = read_batch_rows(batch).copy()
        expect(fresh_rows["rows"].shape == (MC_FRESH, MC_N), "fresh batch shape")

    def check_resumed():
        check_sample(outs["resumed"], "hermite", MC_RESUMED, herm_seed)
        expect("rows" in fresh_rows, "no fresh batch to compare against")
        resumed = read_batch_rows(batch)
        expect(resumed.shape == (MC_RESUMED, MC_N), "resumed batch shape")
        check_resumed_prefix(resumed, fresh_rows.pop("rows"))

    sample = ["sample", "--alpha", str(MC_ALPHA), "--epsilon", str(EDGE_EPS),
              "--n", str(MC_N), "--f", IM_G]
    herm = [*sample, "--ensemble", "hermite", "--seed", str(herm_seed), "--out-batch", str(batch)]
    return [
        cli_op("sample-hermite-fresh",
               [*herm, "--count", str(MC_FRESH), "--output", str(outs["fresh"])],
               check_fresh, prepare=lambda: batch.unlink(missing_ok=True)),
        cli_op("sample-hermite-resume",
               [*herm, "--count", str(MC_RESUMED), "--resume", "--output", str(outs["resumed"])],
               check_resumed),
        cli_op("sample-laguerre",
               [*sample, "--ensemble", "laguerre", "--params", '{"gamma": 0}',
                "--seed", str(lag_seed), "--count", str(MC_LAGUERRE),
                "--output", str(outs["laguerre"])],
               lambda: check_sample(outs["laguerre"], "laguerre", MC_LAGUERRE, lag_seed)),
    ]


# --------------------------------------------------------------------------
# variance-limit

VL_TOL = 1e-7
FIT_POLES = 20
FIT_SLACK = 1.05


def check_variance(path: Path, exact: float | None) -> None:
    """Quadrature and residue agree within their error estimates; residue hits exact."""
    rep = json.loads(path.read_text())
    q, r = rep["quadrature"], rep["residue"]
    gap = abs(q["value"] - r["value"])
    expect(gap <= q["est_error"] + r["est_error"] + VL_TOL,
           f"|quadrature - residue| = {gap:.3e} above est_error + tol")
    if exact is not None:
        expect(abs(r["value"] - exact) <= 1e-12, f"residue {r['value']!r} != {exact!r}")


def _bump(a: float, b: float):
    def f(x):
        t = 2 * (x - a) / (b - a) - 1
        out = np.zeros_like(x)
        inside = np.abs(t) < 1
        out[inside] = np.exp(-1.0 / (1 - t[inside] ** 2))
        return out

    return f


def _hat(a: float, b: float):
    mid = 0.5 * (a + b)
    return lambda x: np.maximum(0.0, np.minimum((x - a) / (mid - a), (b - x) / (b - mid)))


def check_fit(csv: Path, target) -> None:
    """The fitted poles reproduce the target to the reported weighted Lipschitz distance.

    That norm dominates sqrt(1+x^2)|f(x) - h(x)| (its pairs-at-infinity
    limit), which is evaluated here on a grid of its own.
    """
    rows = np.array([[float(v) for v in row] for row in _csv_rows(csv)])
    expect(rows.shape == (FIT_POLES, 4) and np.all(np.isfinite(rows)), f"fit rows {rows.shape}")
    achieved = json.loads(Path(str(csv) + ".fit.json").read_text())["achieved_lw_norm"]
    expect(math.isfinite(achieved) and achieved > 0, f"achieved norm {achieved!r}")
    poles = rows[:, 0] + 1j * rows[:, 1]
    weights = rows[:, 2] + 1j * rows[:, 3]
    xs = np.concatenate([np.linspace(-5, 5, 4001), np.geomspace(5, 1e4, 400), -np.geomspace(5, 1e4, 400)])
    h = np.imag(weights[None, :] / (xs[:, None] - poles[None, :])).sum(axis=1)
    worst = float(np.max(np.sqrt(1 + xs ** 2) * np.abs(target(xs) - h)))
    expect(worst <= FIT_SLACK * achieved, f"sup sqrt(1+x^2)|f-h| = {worst:.4g} above {achieved:.4g}")


def variance_limit(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(-1, 1, size=2)
    b, d = rng.uniform(0.8, 1.6, size=2)
    w1, w2 = rng.uniform(0.5, 1.5, size=2)
    two_pole = f"im:{w1:.6f}/(x-{a:.6f}{b:+.6f}i)+re:{w2:.6f}/(x-{c:.6f}{d:+.6f}i)"
    functions = (("im", IM_G, 3 / 32), ("re", RE_G, 1 / 32), ("two-pole", two_pole, None))
    ops = []
    for tag, spec, exact_right in functions:
        for side in ("left", "right"):
            out = work / f"vl-{tag}-{side}.json"
            exact = exact_right if side == "right" else None
            ops.append(cli_op(
                f"variance-limit-{tag}-{side}",
                ["variance-limit", "--f", spec, "--side", side, "--method", "both",
                 "--output", str(out)],
                lambda out=out, exact=exact: check_variance(out, exact)))
    for tag, target, ref in (("bump", "bump:-1,0", _bump(-1.0, 0.0)), ("hat", "hat:0,1", _hat(0.0, 1.0))):
        out = work / f"fit-{tag}.csv"
        ops.append(cli_op(f"fit-{tag}",
                          ["fit", "--target", target, "--poles", str(FIT_POLES), "--output", str(out)],
                          lambda out=out, ref=ref: check_fit(out, ref)))
    return ops


# --------------------------------------------------------------------------
# resolvent-decay

DECAY_SIZE = 100_000
DECAY_N_ALPHA = (1e2, 1e3, 1e4)
FIXTURE_N = 1000
NORM_SIZES = tuple(5 + 4 * k for k in range(50))


def check_decay(fit_json: Path, n_alpha: float) -> None:
    """Decay rate times sqrt(n^alpha) within 20% of |Re sqrt(-i)| = 1/sqrt(2)."""
    fit = json.loads(fit_json.read_text())
    scaled = fit["rate"] * math.sqrt(n_alpha)
    expect(abs(scaled * math.sqrt(2) - 1) <= 0.20, f"rate*sqrt(n^alpha) = {scaled:.4f}")
    expect(fit["n_points"] >= 10, f"only {fit['n_points']} fit points")


def _fixture(rng: np.random.Generator) -> tridiagonal.TridiagonalMatrix:
    """Slowly varying N = 1000 matrix near the left end of its spectrum."""
    k = np.arange(FIXTURE_N)
    diag = 2.0 + 0.1 * k / FIXTURE_N + 0.01 * rng.uniform(-1, 1, FIXTURE_N)
    off = 1.0 + 0.05 * k[:-1] / FIXTURE_N + 0.01 * rng.uniform(-1, 1, FIXTURE_N - 1)
    z = complex(0.05 + 0.01 * rng.uniform(-1, 1), 0.02 + 0.005 * rng.uniform(0, 1))
    return tridiagonal.TridiagonalMatrix(diag, off, z)


def _norm_fixture(rng: np.random.Generator, N: int) -> tridiagonal.TridiagonalMatrix:
    diag = rng.uniform(-3, 3, size=N)
    off = rng.uniform(0.1, 2.0, size=N - 1)
    z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
    return tridiagonal.TridiagonalMatrix(diag, off, z)


def _matrix_key(J: tridiagonal.TridiagonalMatrix) -> tuple:
    return (tuple(J.diag.tolist()), tuple(J.offdiag.tolist()), J.shift.real, J.shift.imag)


def resolvent_decay(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    J = _fixture(rng)
    oracle: dict[str, np.ndarray] = {}

    def dense_oracle() -> np.ndarray:
        if "inv" not in oracle:
            oracle["inv"] = tridiagonal.invert_dense_oracle(J)
        return oracle["inv"]

    def check_dense(D):
        ref = dense_oracle()
        dev = float(np.max(np.abs(D - ref)) / np.max(np.abs(ref)))
        expect(dev <= 1e-10, f"dense resolvent relative deviation {dev:.3e}")

    def check_split(dec):
        dev = float(np.max(np.abs(dec.T + dec.H - dense_oracle())))
        expect(dev <= 1e-10, f"|T + H - oracle| = {dev:.3e}")

    ops = []
    for n_alpha in DECAY_N_ALPHA:
        out = work / f"decay-{n_alpha:g}.csv"
        fit_json = Path(str(out) + ".fit.json")
        ops.append(cli_op(f"decay-{n_alpha:g}",
                          ["decay", "--n-alpha", f"{n_alpha:g}", "--size", str(DECAY_SIZE),
                           "--output", str(out)],
                          lambda fit_json=fit_json, n_alpha=n_alpha: check_decay(fit_json, n_alpha)))
    ops.append(Op("resolvent-dense", ("TridiagonalResolvent.dense", *_matrix_key(J)),
                  lambda: tridiagonal.TridiagonalResolvent(J).dense(), check_dense))
    ops.append(Op("almost-toeplitz", ("almost_toeplitz_decompose", *_matrix_key(J)),
                  lambda: tridiagonal.almost_toeplitz_decompose(J), check_split))
    for index, N in enumerate(NORM_SIZES):
        Jk = _norm_fixture(rng, N)
        bound = (1 + 1e-6) / abs(Jk.shift.imag)

        def check_norm(value, bound=bound):
            expect(value <= bound, f"norm {value!r} above (1 + 1e-6)/|Im z| = {bound!r}")

        ops.append(Op(f"resolvent-norm-{index}", ("resolvent_norm_estimate", *_matrix_key(Jk)),
                      lambda Jk=Jk: tridiagonal.resolvent_norm_estimate(Jk), check_norm))
    return ops


BUILDERS = {
    "edge-sweep": edge_sweep,
    "mc-batch": mc_batch,
    "variance-limit": variance_limit,
    "resolvent-decay": resolvent_decay,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operation list of ``workload`` for ``seed``, writing outputs under ``work``."""
    return BUILDERS[workload](seed, work)

"""Exact finite-n cumulants of mesoscopic linear statistics.

The other half of the pipeline: build the window operator
F = sum_r c_r (J_window - x0 - eta_r/n^alpha)^{-1} and evaluate its cumulant
functionals through trace formulas.  The m-th cumulant of the statistic is
n^{-m alpha} C_m(F) with

    C_m(F) = m! sum_{j=2}^m ((-1)^{j+1}/j) sum_{l_1+..+l_j=m}
             [Tr(F^{l_1} P_n ... F^{l_j} P_n) - Tr(F^m P_n)] / (l_1! ... l_j!).

The default evaluation path rewrites each bracket as a sum of traces with an
off-diagonal projector sandwiched inside (the same commutator expansion that
powers the dominated-convergence bound); those traces are built from the
small off-diagonal blocks of powers of F, so no large-trace cancellation ever
happens.  The literal composition sum is kept as ``method="raw"`` for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import solve_banded

from .ensembles import EdgeSpec, EnsembleSpec, jacobi_window
from .errors import InvalidParams, WindowTooSmall
from .testfun import ResolventTestFunction
from .tridiagonal import _DENSE_MAX_ROWS, _POWER_SEED, TridiagonalMatrix, _power_norm

__all__ = [
    "build_F",
    "cumulant",
    "second_cumulant_three_ways",
    "cumulant_bound_check",
    "convergence_sweep",
    "operator_norm_estimate",
    "default_margin",
    "BoundReport",
    "CumulantReport",
]


def default_margin(n: int, edge: EdgeSpec) -> int:
    """Default truncation margin 4 * ceil(n^(alpha/2 + eps))."""
    return 4 * math.ceil(n ** (edge.alpha / 2 + edge.epsilon))


def build_F(
    spec: EnsembleSpec,
    n: int,
    edge: EdgeSpec,
    f: ResolventTestFunction,
    window: tuple[int, int] | None = None,
    two_sided: bool = False,
) -> np.ndarray:
    """Dense window operator sum_r c_r (J_window - x0 - eta_r/n^alpha)^{-1}.

    ``window=(lo, hi)`` selects the truncation block; rows outside it are
    replaced by identity rows, whose resolvent contribution (a multiple of
    the identity) is written into the returned matrix so that every trace
    against P_n can be read off the dense array directly.  Defaults to
    (1, n + margin) with the one-sided margin of :func:`default_margin`;
    ``two_sided=True`` defaults the lower end to n - margin instead.

    The result has real symmetric entries (conjugate closure of the poles).
    Raises InvalidParams, before allocating anything, when ``hi`` exceeds
    the 5000-row cap of the dense oracle.
    """
    if window is None:
        margin = default_margin(n, edge)
        window = (max(1, n - margin) if two_sided else 1, n + margin)
    lo, hi = window
    if lo < 1 or hi <= n:
        raise InvalidParams(f"window {window} must satisfy 1 <= lo, hi > n")
    if hi > _DENSE_MAX_ROWS:
        raise InvalidParams(
            f"window end hi = {hi} exceeds the dense cap of {_DENSE_MAX_ROWS} rows"
        )
    if hi - n < n ** (edge.alpha / 2):
        raise WindowTooSmall(
            f"margin {hi - n} below n^(alpha/2) = {n ** (edge.alpha / 2):.1f}"
        )
    x0 = edge.center(spec, n)
    n_alpha = float(n) ** edge.alpha
    diag, off = jacobi_window(spec, n, lo, hi)

    c, eta = f.expanded()
    F = np.zeros((hi, hi))
    block = F[lo - 1 :, lo - 1 :]
    # conjugate pairs: sum over the upper-half-plane poles of 2 Re(c_r R(z_r));
    # each resolvent overwrites its own Fortran-ordered identity and is scaled
    # in place, so one complex block is alive at a time
    for r in range(len(c) // 2):
        ab = TridiagonalMatrix(diag, off, x0 + eta[r] / n_alpha).banded()
        resolvent = solve_banded(
            (1, 1), ab, np.eye(hi - lo + 1, dtype=complex, order="F"), overwrite_b=True
        )
        resolvent *= c[r]
        resolvent.real *= 2.0
        block += resolvent.real
        del resolvent
    if lo > 1:
        # identity block below the window inverts to itself
        sigma = float(np.real(np.sum(c)))
        F[np.arange(lo - 1), np.arange(lo - 1)] = sigma
    return F


# a row whose couplings to the rows >= n all sit below this fraction of the
# largest such coupling adds nothing representable to C_{m>=2}
_COUPLING_CUT = 2.0 ** -53
# rows are cut in whole panels, so a window with fewer negligible rows than
# one panel is not cut and keeps the full-window arithmetic bit for bit (the
# pinned n = 200 golden files have 7 such rows; any cut regroups their sums)
_CUT_PANEL = 64


def _first_coupled_row(F: np.ndarray, n: int) -> int:
    """First row of the panel that holds the first row coupled to n.

    Row i couples to n when max_{j>=n} |F_ij| exceeds _COUPLING_CUT of the
    largest such value over i < n.  The result is a multiple of _CUT_PANEL
    below n, and 0 when no row couples at all.

    C_{m>=2}(F, n) equals C_m(F[lo:, lo:], n - lo) to rounding only when F is
    a sum of resolvents whose entries decay with |i - j|, as build_F gives
    away from the bulk: a path i -> k -> j through a row k above lo then has
    a small F_ik as well as a small F_kj.  A general F may carry O(1) entries
    between the cut rows and the rows >= n and needs the full _PowerBlocks.
    """
    coupling = np.max(np.abs(F[:n, n:]), axis=1)
    first = int(np.argmax(coupling > _COUPLING_CUT * coupling.max()))
    return first - first % _CUT_PANEL


def _compositions(m: int):
    """All ordered compositions of m into j >= 2 positive parts."""
    for j in range(2, m + 1):
        for cuts in combinations(range(1, m), j - 1):
            parts = []
            prev = 0
            for cut in cuts:
                parts.append(cut - prev)
                prev = cut
            parts.append(m - prev)
            yield tuple(parts)


def _composition_sum(m: int, bracket) -> float:
    """m! sum over compositions of (-1)^(j+1)/j bracket(parts) / prod(parts!)."""
    terms = []
    for parts in _compositions(m):
        j = len(parts)
        weight = (-1.0) ** (j + 1) / j
        fact = math.prod(math.factorial(p) for p in parts)
        terms.append(weight * bracket(parts) / fact)
    return math.factorial(m) * math.fsum(terms)


def _trace_dot(A: np.ndarray, B: np.ndarray) -> float:
    """sum(A * B) with a compensated reduction over the row partial sums."""
    return math.fsum(np.sum(A * B, axis=1))


def _check_window(F: np.ndarray, n: int) -> None:
    """F must be a square window operator with at least n rows."""
    if F.shape[0] != F.shape[1]:
        raise InvalidParams("F must be square")
    if F.shape[0] < n:
        raise InvalidParams(f"window {F.shape[0]} smaller than n = {n}")


class _PowerBlocks:
    """Corner (P-side) and off-diagonal (Q-side) blocks of powers of F."""

    def __init__(self, F: np.ndarray, n: int, max_power: int):
        _check_window(F, n)
        slab = F[:, :n].copy()
        self.K = {1: slab[:n, :]}
        self.B = {1: slab[n:, :]}
        for power in range(2, max_power + 1):
            slab = F @ slab
            self.K[power] = slab[:n, :]
            self.B[power] = slab[n:, :]
        self._chain_cache: dict[tuple[int, ...], np.ndarray] = {}

    def chain(self, parts: tuple[int, ...]) -> np.ndarray:
        """B_{parts[0]} K_{parts[1]} ... K_{parts[-1]} with memoization."""
        if parts in self._chain_cache:
            return self._chain_cache[parts]
        if len(parts) == 1:
            mat = self.B[parts[0]]
        else:
            mat = self.chain(parts[:-1]) @ self.K[parts[-1]]
        self._chain_cache[parts] = mat
        return mat

    def connected(self, parts: tuple[int, ...]) -> float:
        """Tr(F^{l_1} P ... F^{l_j} P) - Tr(F^m P) via Q-sandwich traces."""
        j = len(parts)
        total = []
        for k in range(2, j + 1):
            s = sum(parts[: k - 1])
            total.append(-_trace_dot(self.B[s], self.chain(parts[k - 1 :])))
        return math.fsum(total)

    def cumulant(self, m: int) -> float:
        """C_m for 2 <= m <= max_power + 1: the composition sum of connected brackets."""
        return _composition_sum(m, self.connected)


def cumulant(F: np.ndarray, n: int, m: int, method: str = "connected") -> float:
    """m-th cumulant functional C_m^{(n)}(F) from the window operator.

    ``method="connected"`` (default) evaluates each composition bracket from
    off-diagonal blocks (no large-trace cancellation); ``method="raw"``
    evaluates the literal composition sum of whole-trace differences.  m = 1
    returns Tr(F P_n).  m is capped at 6.
    """
    if not 1 <= m <= 6:
        raise InvalidParams("cumulant order limited to 1..6")
    _check_window(F, n)
    if m == 1:
        return math.fsum(np.diagonal(F)[:n])
    if method == "connected":
        return _PowerBlocks(F, n, max_power=m - 1).cumulant(m)
    if method == "raw":
        return _cumulant_raw(F, n, m)
    raise InvalidParams(f"unknown method {method!r}")


def _cumulant_raw(F: np.ndarray, n: int, m: int) -> float:
    """Literal composition sum; kept as an independent cross-check path."""
    K = {1: F[:n, :n].copy()}
    slab = F[:, :n].copy()
    for power in range(2, m + 1):
        slab = F @ slab
        K[power] = slab[:n, :]
    tr_full = math.fsum(np.diagonal(K[m]))
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def product(parts: tuple[int, ...]) -> np.ndarray:
        if parts in cache:
            return cache[parts]
        mat = K[parts[0]] if len(parts) == 1 else product(parts[:-1]) @ K[parts[-1]]
        cache[parts] = mat
        return mat

    def bracket(parts: tuple[int, ...]) -> float:
        return _trace_dot(product(parts[:-1]), K[parts[-1]].T) - tr_full

    return _composition_sum(m, bracket)


def second_cumulant_three_ways(F: np.ndarray, n: int) -> tuple[float, float, float]:
    """C_2 by composition sum, by Tr(F Q_n F P_n), and by (1/2)||[F, P_n]||_HS^2.

    All three are algebraically equal (and nonnegative for real symmetric F);
    returning them separately lets tests pin the identity numerically.
    """
    comp = cumulant(F, n, 2, method="raw")
    qform = _trace_dot(F[:n, n:], F[n:, :n].T)
    comm = 0.5 * (
        math.fsum(np.sum(F[:n, n:] ** 2, axis=1))
        + math.fsum(np.sum(F[n:, :n] ** 2, axis=1))
    )
    return comp, qform, comm


def operator_norm_estimate(F: np.ndarray) -> float:
    """Power iteration on F^T F; reported, never asserted exact."""
    v = np.random.default_rng(_POWER_SEED).standard_normal(F.shape[0])
    return _power_norm(lambda x: F.T @ (F @ x), v)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the factorial-exponential domination of C_m by C_2."""

    m: int
    lhs: float              # |C_m|
    rhs: float              # sqrt(2/pi) m! m^(3/2) ||F||^(m-2) e^m C_2
    norm_estimate: float
    c2: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else math.inf


def cumulant_bound_check(F: np.ndarray, n: int, m: int) -> BoundReport:
    """Check |C_m| <= sqrt(2/pi) m! m^(3/2) ||F||^(m-2) e^m C_2 numerically."""
    if not 3 <= m <= 6:
        raise InvalidParams("bound check applies to 3 <= m <= 6")
    blocks = _PowerBlocks(F, n, max_power=m - 1)
    lhs = abs(blocks.cumulant(m))
    c2 = blocks.cumulant(2)
    norm = operator_norm_estimate(F)
    rhs = (
        math.sqrt(2 / math.pi)
        * math.factorial(m)
        * m ** 1.5
        * norm ** (m - 2)
        * math.exp(m)
        * c2
    )
    return BoundReport(m=m, lhs=lhs, rhs=rhs, norm_estimate=norm, c2=c2)


@dataclass(frozen=True)
class CumulantReport:
    """Scaled cumulants n^{-m alpha} C_m for one ensemble size."""

    n: int
    alpha: float
    x0: float
    scaled_cumulants: dict[int, float]
    window: tuple[int, int]
    op_norm_estimate: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "alpha": self.alpha,
            "x0": self.x0,
            "window": list(self.window),
            "op_norm_estimate": self.op_norm_estimate,
            "scaled_cumulants": {str(m): v for m, v in self.scaled_cumulants.items()},
        }

    def csv_rows(self):
        """(n, alpha, m, value_re, value_im) rows; values are real here."""
        for m in sorted(self.scaled_cumulants):
            yield self.n, self.alpha, m, self.scaled_cumulants[m], 0.0


def convergence_sweep(
    spec: EnsembleSpec,
    edge: EdgeSpec,
    f: ResolventTestFunction,
    n_list: list[int],
    m_max: int = 4,
) -> list[CumulantReport]:
    """One CumulantReport per n, sharing the power blocks across orders.

    C_1 and the norm estimate read the whole window operator.  The resolvent
    decays away from the diagonal, so C_{m>=2} are evaluated on the block of
    rows that couple to n (see _first_coupled_row), a small corner of F at
    large n.
    """
    if list(n_list) != sorted(n_list) or len(n_list) == 0:
        raise InvalidParams("n_list must be nonempty and ascending")
    if not 2 <= m_max <= 6:
        raise InvalidParams("m_max must lie in [2, 6]")
    reports = []
    for n in n_list:
        margin = default_margin(n, edge)
        window = (1, n + margin)
        F = build_F(spec, n, edge, f, window=window)
        n_alpha = float(n) ** edge.alpha
        scaled = {1: cumulant(F, n, 1) / n_alpha}
        lo = _first_coupled_row(F, n)
        blocks = _PowerBlocks(F[lo:, lo:], n - lo, max_power=m_max - 1)
        for m in range(2, m_max + 1):
            scaled[m] = blocks.cumulant(m) / n_alpha ** m
        reports.append(
            CumulantReport(
                n=n,
                alpha=edge.alpha,
                x0=edge.center(spec, n),
                scaled_cumulants=scaled,
                window=window,
                op_norm_estimate=operator_norm_estimate(F),
            )
        )
    return reports

"""Exact finite-n cumulants of mesoscopic linear statistics.

The other half of the pipeline: build the window operator
F = sum_r c_r (J_window - x0 - eta_r/n^alpha)^{-1} and evaluate its cumulant
functionals through trace formulas.  The m-th cumulant of the statistic is
n^{-m alpha} C_m(F) with

    C_m(F) = m! sum_{j=2}^m ((-1)^{j+1}/j) sum_{l_1+..+l_j=m}
             [Tr(F^{l_1} P_n ... F^{l_j} P_n) - Tr(F^m P_n)] / (l_1! ... l_j!).

The evaluation path rewrites each bracket as a sum of traces with an
off-diagonal projector sandwiched inside (the same commutator expansion that
powers the dominated-convergence bound); those traces are built from the
small off-diagonal blocks of powers of F, so no large-trace cancellation ever
happens.  The literal composition sum is kept as the oracle
``_cumulant_raw`` for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import solve_banded

from .ensembles import EdgeSpec, EnsembleSpec, _edge, _whole, jacobi_window
from .errors import InvalidParams, WindowTooSmall, refuse_overflow
from .testfun import ResolventTestFunction, _rational
from .tridiagonal import TridiagonalMatrix, _refuse_dense

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
    n = _whole(n, "margin needs an integer n >= 1")
    return 4 * math.ceil(n ** (_edge(edge).alpha / 2 + edge.epsilon))


# identity columns per banded solve in build_F; wider than the 66-row window
# at n = 50, so small windows still take one solve per pole pair
_F_PANEL = 128


def build_F(
    spec: EnsembleSpec,
    n: int,
    edge: EdgeSpec,
    f: ResolventTestFunction,
    window: tuple[int, int] | None = None,
    two_sided: bool = False,
) -> np.ndarray:
    """Dense window operator sum_r c_r (J_window - x0 - eta_r/n^alpha)^{-1}.

    ``window=(lo, hi)`` selects the truncation block, and F is the operator
    of those rows alone: an (hi - lo + 1)-square array whose row i is row
    lo + i of the truncated Jacobi matrix, so P_n is its first n - lo + 1
    rows and C_1 of a local window is its own trace over rows lo..n.
    Defaults to (1, n + margin) with the one-sided margin of
    :func:`default_margin`; ``two_sided=True`` defaults the lower end to
    n - margin instead.

    The result has real symmetric entries (conjugate closure of the poles).
    Raises InvalidParams, before allocating anything, when n or an end of
    the window is not an integer, n < 1, the window does not contain row n or
    its hi - lo + 1 rows exceed the dense cap of ``tridiagonal._refuse_dense``;
    Unsupported when f is not rational.
    """
    n = _whole(n, "cumulants need an integer n >= 1")
    edge = _edge(edge)
    _rational(f, "the window operator")
    if window is None:
        margin = default_margin(n, edge)
        window = (max(1, n - margin) if two_sided else 1, n + margin)
    if not (isinstance(window, (tuple, list)) and len(window) == 2):
        raise InvalidParams(f"window must be a pair (lo, hi), got {window!r}")
    lo, hi = window
    rule = f"window {window} must satisfy 1 <= lo <= n, hi > n"
    lo, hi = _whole(lo, rule, 1, n), _whole(hi, rule, n + 1)
    rows = hi - lo + 1
    _refuse_dense("window operator", rows)
    if hi - n < n ** (edge.alpha / 2):
        raise WindowTooSmall(
            f"margin {hi - n} below n^(alpha/2) = {n ** (edge.alpha / 2):.1f}"
        )
    x0 = edge.center(spec, n)
    n_alpha = float(n) ** edge.alpha
    diag, off = jacobi_window(spec, n, lo, hi)

    c, eta = f.expanded()
    F = np.zeros((rows, rows))
    # conjugate pairs: sum over the upper-half-plane poles of 2 Re(c_r R(z_r)).
    # Each resolvent is solved against one Fortran-ordered panel of identity
    # columns at a time, scaled in place and added into its columns of F, so
    # the memory is F plus one rows x _F_PANEL complex panel.  LAPACK's
    # tridiagonal solve (zgtsv) treats each right-hand side column on its own,
    # so F is bit-identical to one solve against the whole identity.
    with refuse_overflow(f"the window operator at n = {n}"):
        for r in range(len(c) // 2):
            ab = TridiagonalMatrix(diag, off, x0 + eta[r] / n_alpha).banded()
            for start in range(0, rows, _F_PANEL):
                stop = min(start + _F_PANEL, rows)
                panel = np.zeros((rows, stop - start), dtype=complex, order="F")
                panel[start:stop, :] = np.eye(stop - start)
                panel = solve_banded((1, 1), ab, panel, overwrite_b=True)
                panel *= c[r]
                panel.real *= 2.0
                F[:, start:stop] += panel.real
                del panel
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


def _check_window(F: np.ndarray, n: int) -> int:
    """n as a Python int: F must be a square 2-D array with at least n rows, and n >= 1."""
    n = _whole(n, "cumulants need an integer n >= 1")
    if not (isinstance(F, np.ndarray) and F.ndim == 2 and F.shape[0] == F.shape[1]):
        raise InvalidParams(f"F must be a square 2-D array, got shape {np.shape(F)}")
    if F.shape[0] < n:
        raise InvalidParams(f"window {F.shape[0]} smaller than n = {n}")
    return n


class _PowerBlocks:
    """Corner (P-side) and off-diagonal (Q-side) blocks of powers of F."""

    def __init__(self, F: np.ndarray, n: int, max_power: int):
        n = _check_window(F, n)
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


def cumulant(F: np.ndarray, n: int, m: int) -> float:
    """m-th cumulant functional C_m^{(n)}(F) from the window operator.

    Each composition bracket is evaluated from off-diagonal blocks, so no
    large-trace cancellation happens.  m = 1 returns Tr(F P_n).  m is capped
    at 6.
    """
    m = _whole(m, "cumulant order limited to 1..6", 1, 6)
    n = _check_window(F, n)
    if m == 1:
        return math.fsum(np.diagonal(F)[:n])
    return _PowerBlocks(F, n, max_power=m - 1).cumulant(m)


def _cumulant_raw(F: np.ndarray, n: int, m: int) -> float:
    """C_m for m >= 2 by the literal composition sum of whole-trace differences.

    An independent oracle for ``cumulant``; large traces cancel in each bracket.
    """
    n = _check_window(F, n)
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
    comp = _cumulant_raw(F, n, 2)
    qform = _trace_dot(F[:n, n:], F[n:, :n].T)
    comm = 0.5 * (
        math.fsum(np.sum(F[:n, n:] ** 2, axis=1))
        + math.fsum(np.sum(F[n:, :n] ** 2, axis=1))
    )
    return comp, qform, comm


def operator_norm_estimate(F: np.ndarray) -> float:
    """50 power steps on F^T F from a seed-0 start; reported, never asserted exact.

    The value is the square root of a Rayleigh quotient of F^T F, so it is a
    lower bound on ||F||_2 up to rounding.  Its 50 steps converge slowly where
    the top singular values cluster: at Chebyshev n = 200 with f = Im 1/(x-i)
    it reads 14.1221 against ||F||_2 = 14.1420 (0.14 % low), at n = 2000
    44.684 against 44.721 (0.08 % low).
    """
    v = np.random.default_rng(0).standard_normal(F.shape[0])
    v = v / np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(50):
        w = F.T @ (F @ v)
        sigma2 = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return math.sqrt(max(sigma2, 0.0))


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
    m = _whole(m, "bound check applies to 3 <= m <= 6", 3, 6)
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
    """Scaled cumulants n^{-m alpha} C_m for one ensemble size, the fields in JSON order."""

    n: int
    alpha: float
    x0: float
    window: tuple[int, int]
    op_norm_estimate: float
    scaled_cumulants: dict[int, float]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            **asdict(self),
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
    if not np.iterable(n_list):
        raise InvalidParams(f"n_list must be a list of integers, got {n_list!r}")
    n_list = [_whole(n, "cumulants need an integer n >= 1") for n in n_list]
    if n_list != sorted(n_list) or not n_list:
        raise InvalidParams("n_list must be nonempty and ascending")
    m_max = _whole(m_max, "m_max must lie in [2, 6]", 2, 6)
    reports = []
    for n in n_list:
        with refuse_overflow(f"the cumulant sweep at n = {n}"):
            F = build_F(spec, n, edge, f)
            n_alpha = float(n) ** edge.alpha
            scaled = {1: cumulant(F, n, 1) / n_alpha}
            lo = _first_coupled_row(F, n)
            blocks = _PowerBlocks(F[lo:, lo:], n - lo, max_power=m_max - 1)
            for m in range(2, m_max + 1):
                scaled[m] = blocks.cumulant(m) / n_alpha ** m
            norm = operator_norm_estimate(F)
        reports.append(
            CumulantReport(
                n=n,
                alpha=edge.alpha,
                x0=edge.center(spec, n),
                window=(1, F.shape[0]),
                op_norm_estimate=norm,
                scaled_cumulants=scaled,
            )
        )
    return reports

"""Exact finite tri-diagonal linear algebra; resolvents need Im z != 0.

A decay row costs one banded LU solve against a unit vector on its window:
(J - z)^-1 decays away from the diagonal, so only the rows around the
reference row where the entries clear the fit's floor are solved.  The norm
of (J - z)^-1 comes from the two eigenvalues of J around Re z, found by a
pivot count and bisection; neither builds an N x N matrix.
``TridiagonalResolvent`` is the entry oracle: from the backward and forward
continued-fraction pivots it builds each entry as a product of local ratios,
summed in log space.  On top of that sit the transfer-matrix spectral data, the
almost-Toeplitz split (T = R o top(lo) bottom(hi): the oracle's entries with
their boundary reflections scaled out), the closed-form resolvent of the free
(constant-coefficient) matrix, and a least-squares decay fit.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .ensembles import Side, _positive_real, _side, _whole
from .errors import InvalidParams, Singular, refuse_overflow

_EPS = np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)   # a Python float, so the pivot sweep overflows silently
_COND_LIMIT = 1.0 / _EPS
_DENSE_MAX_ROWS = 5000      # largest matrix any dense (N x N) routine will build
_DECAY_FLOOR = 1e-13       # decay fits ignore entries this far below the row maximum
_WINDOW_START = 512        # first half-width of a decay row's window, doubled until it closes
_WINDOW_EDGE = 16          # rows at each cut end that must lie below the window cut
_WINDOW_CUT = 2.0 ** -53 * _DECAY_FLOOR   # ... relative to the window's largest entry
_TURN = np.array([1, 1j, -1, -1j])   # _TURN[k] = i^k, exact in every component


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tri-diagonal matrix minus a complex shift.

    Represents tridiag(b_0..b_{N-1}; a_1..a_{N-1}) - z*Id with finite entries.
    Im z = 0 is allowed for plain storage and the dense oracle; every
    resolvent operation here refuses it.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    shift: complex = 0j

    def __post_init__(self):
        d = np.array(self.diag, dtype=float)
        e = np.array(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
            raise InvalidParams("need len(offdiag) == len(diag) - 1 >= 0")
        if not (np.isfinite(d).all() and np.isfinite(e).all() and cmath.isfinite(self.shift)):
            raise InvalidParams("diagonal, off-diagonal and shift must be finite")
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        object.__setattr__(self, "shift", complex(self.shift))

    @property
    def N(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        A = np.diag(self.diag.astype(complex))
        idx = np.arange(self.N - 1)
        A[idx, idx + 1] = self.offdiag
        A[idx + 1, idx] = self.offdiag
        A -= self.shift * np.eye(self.N)
        return A

    def banded(self) -> np.ndarray:
        """(3, N) banded storage for scipy.linalg.solve_banded((1, 1), ...)."""
        ab = np.zeros((3, self.N), dtype=complex)
        ab[0, 1:] = self.offdiag
        ab[1, :] = self.diag - self.shift
        ab[2, :-1] = self.offdiag
        return ab


def _check_shift(J: TridiagonalMatrix) -> None:
    """Refuse Im z = 0, where J - z of real symmetric data can be singular."""
    if J.shift.imag == 0.0:
        raise InvalidParams("resolvent operations need Im z != 0")


def _check_rows(N: int, *rows: int) -> list[int]:
    """The 1-based indices as Python ints, each an integer in [1, N]; J^-1 is symmetric, so
    columns are rows too."""
    return [_whole(j, f"row index must be an integer in [1, {N}]", 1, N) for j in rows]


def _semiseparable(u, v, U, V, j, k) -> np.ndarray:
    """Symmetric semiseparable entries u[lo] v[hi] exp(U[lo] + V[hi]).

    lo = min(j, k), hi = max(j, k), 0-based and broadcast; the log scales U, V
    are summed before exp, so long products neither overflow nor underflow."""
    lo = np.minimum(j, k)
    hi = np.maximum(j, k)
    return u[lo] * v[hi] * np.exp(U[lo] + V[hi])


def _refuse_dense(what: str, N: int) -> None:
    """Refuse an N x N result above the dense cap before anything is allocated."""
    if N > _DENSE_MAX_ROWS:
        raise InvalidParams(f"{what} capped at N = {_DENSE_MAX_ROWS}, got N = {N}")


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated cumulative sum; error stays O(eps * |partial|) at any length.

    Complex addition acts on each part alone, so complex input needs no split."""
    out = np.empty_like(values)
    total = comp = 0.0
    for i, v in enumerate(values.tolist()):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def invert_dense_oracle(J: TridiagonalMatrix) -> np.ndarray:
    """Full inverse by generic dense LU; the independent oracle for tests.

    Accepts real shifts too.  Raises Singular when the factorization fails or
    the 1-norm condition estimate exceeds 1/machine-eps.
    """
    _refuse_dense("dense oracle", J.N)
    A = J.to_dense()
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"dense factorization failed: {exc}") from None
    cond1 = np.linalg.norm(A, 1) * np.linalg.norm(inv, 1)
    if not np.isfinite(cond1) or cond1 > _COND_LIMIT:
        raise Singular(f"condition estimate {cond1:.3g} exceeds 1/eps")
    return inv


def _pivots(b, a2) -> list:
    """LDL^T (continued-fraction) pivots p_1 = b_1, p_i = b_i - a_{i-1}^2 / p_{i-1}; a2 = a^2.

    A zero pivot is replaced by -tiny, as LAPACK's dlaneg does, so the sweep
    never divides by zero; it cannot happen when Im b != 0.  The element types
    are the caller's: reversed inputs give the backward sweep in reverse order."""
    p, out = 1.0, []
    for bi, ai2 in zip(b, [0.0, *a2]):
        p = bi - ai2 / p
        if p == 0:
            p = -_TINY
        out.append(p)
    return out


class TridiagonalResolvent:
    """Entrywise inverse R = (J - z)^-1 of a shifted symmetric tri-diagonal matrix.

    From the backward (d_j) and forward (delta_j) continued-fraction pivots,
    any entry costs O(1).  With 1-based indices 1/R_jj = delta_j - a_j^2/d_{j+1}
    (1/R_NN = delta_N), and each step right along a row multiplies by the
    local ratio t_l = -a_{l-1}/d_l:

        R_jk = R_jj t_{j+1} ... t_k        for j <= k, extended by symmetry.

    Exact quarter turns i^-m_l put each t_l within pi/4 of the positive reals;
    V_k is one compensated cumulative sum of log(i^-m_l t_l), U_j = log R_jj -
    V_j, and an entry is conj(S_j) S_k exp(U_j + V_k), S_k = i^(m_2 + ... + m_k).
    Entries stay finite at any N, with exponent errors of order eps * |V|.

    Needs Im z != 0: for real symmetric data and Im z > 0, Im delta_j, Im d_j
    and Im 1/R_jj are all <= -Im z (mirrored for Im z < 0), so no pivot can
    vanish.  A decay row is cheaper from ``_resolvent_row``'s windowed solve.
    ``dense()`` evaluates each entry of the upper triangle once and mirrors
    it; it refuses N above the dense cap of 5000 rows.
    """

    def __init__(self, J: TridiagonalMatrix):
        _check_shift(J)
        self.J = J
        b = J.diag - J.shift
        a = J.offdiag
        if np.any(a == 0.0):
            raise InvalidParams("resolvent recursions require nonzero off-diagonals")
        a2 = a * a
        self._d = d = np.array(_pivots(b[::-1], a2[::-1])[::-1])   # d[j-1] = d_j
        self._delta = np.array(_pivots(b, a2))                     # delta[j-1] = delta_j
        inv_diag = self._delta - np.append(a2 / d[1:], 0)      # 1/R_jj
        t = -a / d[1:]                                         # t[l-2] = t_l, l = 2..N
        m = np.rint(np.angle(t) / (np.pi / 2)).astype(int) % 4
        self._V = np.concatenate([[0j], _kahan_cumsum(np.log(t * _TURN[-m]))])
        self._U = -np.log(inv_diag) - self._V
        self._S = _TURN[np.concatenate([[0], np.cumsum(m)]) % 4]

    def _assemble(self, j, k):
        """Entries (j, k), 1-based and broadcast."""
        return _semiseparable(self._S.conj(), self._S, self._U, self._V, j - 1, k - 1)

    def entry(self, j: int, k: int) -> complex:
        """(J^-1)_{j,k} with 1-based indices; symmetric by construction."""
        j, k = _check_rows(self.J.N, j, k)
        return self._assemble(j, k)

    def row(self, j: int) -> np.ndarray:
        """Full row (J^-1)_{j, 1..N} as a vector."""
        N = self.J.N
        [j] = _check_rows(N, j)
        return self._assemble(j, np.arange(1, N + 1))

    def dense(self) -> np.ndarray:
        """All N^2 entries, bit-identical to ``entry``: row j, k >= j, mirrored into column j."""
        N = self.J.N
        _refuse_dense("dense resolvent", N)
        S, U, V = self._S, self._U, self._V
        out = np.empty((N, N), dtype=complex)
        for j in range(N):
            row = S[j].conj() * S[j:] * np.exp(U[j] + V[j:])
            out[j, j:] = row
            out[j:, j] = row
        return out


@dataclass(frozen=True)
class TransferSpectrum:
    """Eigen-data of the 2x2 transfer matrices linearizing the recursions.

    Arrays are aligned with ``js``; step j needs coefficients a_{j-1}, a_j
    and b_{j-1}, so js runs over 2..N-1.  ``M_norms[i]`` is the max-row-sum
    norm of the eigenbasis mismatch between steps js[i] and js[i]+1 (defined
    up to js = N-2); ``E_norms[i]`` the mismatch toward js[i]-1 (defined from
    js = 3, i.e. E_norms[0] belongs to js[1]).
    """

    js: np.ndarray
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    M_norms: np.ndarray
    E_norms: np.ndarray


def _transfer_steps(J: TridiagonalMatrix):
    """(omega+, omega-, lambda+, lambda-) of the transfer steps l = 1..N, at index l-1.

    Step l takes b_{l-1} - z, a_{l-1} and a_l: omega+- = (b - z +- sqrt((b - z)^2
    - 4 a_{l-1} a_l)) / (2 a_{l-1}), lambda+- the same over 2 a_l.  The first and
    last steps reference a_0 and a_N, which the matrix does not carry; both are
    set to their nearest neighbours (a_0 := a_1, a_N := a_{N-1})."""
    bz = J.diag.astype(complex) - J.shift
    a_prev = np.concatenate([J.offdiag[:1], J.offdiag])
    a_curr = np.concatenate([J.offdiag, J.offdiag[-1:]])
    root = np.sqrt(bz ** 2 - 4 * a_curr * a_prev)
    plus, minus = bz + root, bz - root
    return plus / (2 * a_prev), minus / (2 * a_prev), plus / (2 * a_curr), minus / (2 * a_curr)


def _mismatch_norms(plus, minus):
    """Max-row-sum eigenbasis mismatch between consecutive steps over the local gap."""
    return (np.abs(plus[:-1] - plus[1:]) + np.abs(minus[:-1] - minus[1:])) / np.abs(
        minus[:-1] - plus[:-1]
    )


def transfer_spectrum(J: TridiagonalMatrix) -> TransferSpectrum:
    """Principal-branch transfer eigenvalues and basis-mismatch norms.

    Principal square roots put the larger-modulus eigenvalue in omega_plus
    whenever Re(b_{j-1} - z) > 0.
    """
    N = J.N
    if N < 3:
        raise InvalidParams("transfer spectrum needs N >= 3")
    if np.any(J.offdiag == 0.0):
        raise InvalidParams("transfer spectrum requires nonzero off-diagonals")
    omp, omm, lap, lam = (s[1 : N - 1] for s in _transfer_steps(J))   # steps 2..N-1
    return TransferSpectrum(
        js=np.arange(2, N),
        omega_plus=omp,
        omega_minus=omm,
        lambda_plus=lap,
        lambda_minus=lam,
        M_norms=_mismatch_norms(omp, omm),
        # toward the previous index: the same norm along the reversed steps
        E_norms=_mismatch_norms(lap[::-1], lam[::-1])[::-1],
    )


def _indices(idx):
    """idx as a Python int or int64 array when its values are whole numbers >= 1."""
    if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu":
        idx = idx.astype(np.int64)  # an unsigned value above the int64 range wraps below 1
        if (idx >= 1).all():
            return idx
    return _whole(idx, "indices are 1-based integers")


def free_resolvent_entry(
    eta: complex, n_alpha: float, side: Side, j: int | np.ndarray, k: int | np.ndarray
) -> complex | np.ndarray:
    """Closed-form resolvent entry of the constant-coefficient matrix (a=1, b=0).

    Entry (j, k), 1-based, of the semi-infinite free matrix shifted by
    x0 + eta/n^alpha, with x0 = -2 (left edge) or +2 (right edge):

        (u^{|j-k|} - u^{j+k}) / (u - 1/u),

    where u is the root of u + 1/u = x0 + eta/n^alpha with |u| < 1.  Finite
    truncations converge to this exponentially fast.  ``j`` and ``k`` may be
    integer arrays; they broadcast against each other.  InvalidParams when an
    index is not a whole number >= 1: a bool, a float or a float array.
    """
    eta = complex(eta)
    if eta.imag == 0:
        raise InvalidParams("free resolvent needs Im eta != 0")
    _positive_real(n_alpha, "n^alpha")
    x0 = -2.0 if _side(side) is Side.LEFT else 2.0
    j, k = _indices(j), _indices(k)
    zp = x0 + eta / n_alpha
    u = (zp - cmath.sqrt(zp * zp - 4)) / 2
    if abs(u) > 1:
        u = 1 / u
    return (u ** abs(j - k) - u ** (j + k)) / (u - 1 / u)


@dataclass(frozen=True)
class ToeplitzDiagnostics:
    """Smallness certificates governing the quality of the T/H split."""

    c0: float
    c1: float
    c2: float
    eps1: float
    eps2: float
    max_abs_C: float
    max_abs_D: float
    dtilde_abs: float
    bound_constant: float
    applicable: bool
    reason: str | None = None


@dataclass(frozen=True)
class AlmostToeplitzDecomposition:
    """Split J^-1 = T + H: T nearly constant along diagonals, H the remainder.

    T + H equals the recursion inverse by construction; the slow variation of
    T is certified only when ``diagnostics.applicable``.  With the paper's phi
    normalization H carries, besides the corner terms, a uniform multiple of R
    of order |dtilde|: |H/T| = 2.2e-7 mid-window at |dtilde| = 1.3e-4 for
    N = 200, diagonal 2.5 + 1e-4 k/N, off-diagonal 1 + 1e-4 k/N, z = 0.05i.
    """

    T: np.ndarray
    H: np.ndarray
    diagnostics: ToeplitzDiagnostics


def almost_toeplitz_decompose(J: TridiagonalMatrix) -> AlmostToeplitzDecomposition:
    """Almost-Toeplitz split of the inverse of a shifted tri-diagonal matrix.

    The boundary choice of ``_transfer_steps`` (a_0 := a_1, a_N := a_{N-1}) only
    rescales boundary bookkeeping and is absorbed by H.

    The entry oracle's pivots are the only recurrence solved: with alternating
    signs they give the bottom and top solutions of (J - z) u = 0, v_j / v_{j+1}
    = d_{j+1} / a_j and u_{j+1} / u_j = delta_j / a_j.  As (1, 1) V^-1 = (1, 0)
    for every eigenbasis V = [[1, 1], [w+, w-]], C, D and phi's normalization
    are cumulative log sums of these ratios over transfer eigenvalues.

    T is R with the boundary reflections scaled out of its two solutions:
    T_jk = R_jk top(lo) bottom(hi), lo = min(j, k), hi = max(j, k), top = kappa_T
    (1 + D) / U and bottom = (1 + C) / V, where U = 1 + D + r_gamma prefix and
    V = 1 + C + r_beta suffix, and one scalar kappa_T gives phi's normalization.
    So |T/R| and |H/T| = |1 / (top(lo) bottom(hi)) - 1| come from two N-vectors.

    Where Re(b - z) <= 0, C and D cancel terms growing like |omega-/omega+|^N
    (~1e76 at N = 200), so T is noise there by any route; ``applicable`` is
    False, T + H stays the oracle's inverse, and an overflow of any quantity
    (from N = 695 at diagonal -2, off-diagonal 1, z = 0.5i) raises InvalidParams.
    """
    N = J.N
    _refuse_dense("almost-Toeplitz split", N)
    res = TridiagonalResolvent(J)                # refuses Im z = 0 and zero off-diagonals
    if N < 4:
        raise InvalidParams("almost-Toeplitz split needs N >= 4")
    bz = J.diag.astype(complex) - J.shift        # b_{l-1} - z at python index l-1
    a = J.offdiag
    d = res._d
    omp, omm, lap, lam = _transfer_steps(J)   # index l-1 <-> step l

    opN1, omN1 = omp[N - 2], omm[N - 2]           # step N-1
    lpN1, lmN1 = lap[N - 2], lam[N - 2]
    lp2, lm2 = lap[1], lam[1]                     # step 2
    beta1 = omN1 * a[N - 2] - bz[N - 1]
    beta2 = -opN1 * a[N - 2] + bz[N - 1]
    gamma1 = lm2 * a[0] - bz[0]
    gamma2 = -lp2 * a[0] + bz[0]
    delta1 = bz[N - 1] * lpN1 - a[N - 2]
    delta2 = bz[N - 1] * lmN1 - a[N - 2]
    r_beta = beta2 / beta1
    r_gamma = gamma2 / gamma1
    r_delta = delta2 * gamma2 / (delta1 * gamma1)

    # Where Re(b - z) <= 0 the ratio products grow with N and can overflow
    with refuse_overflow(f"the almost-Toeplitz split at N = {N}"):
        # signed eigenvalue-ratio products (complex logs; moduli < 1 in regime)
        log_ratio = np.log(omm / omp)                 # index l-1 <-> step l
        # suffix[k] = prod_{l=k}^{N-1} ratio_l, k = 1..N (suffix[N] = 1)
        suffix = np.ones(N + 1, dtype=complex)
        suffix[1:N] = np.exp(np.cumsum(log_ratio[:N - 1][::-1])[::-1])
        # prefix[j] = prod_{l=2}^{j} ratio_l, j = 1..N (prefix[1] = 1)
        prefix = np.ones(N + 1, dtype=complex)
        prefix[2:] = np.exp(np.cumsum(log_ratio[1:]))

        # V(k) = 1 + C(k) + r_beta suffix[k] = (1 + r_beta) prod_{m=k}^{N-1} d_{m+1} / (a_m w+_m),
        # k = 1..N (C(N) = 0): the bottom solution from (v_N, v_{N-1}) = V_{N-1} (1, r_beta)
        log_v = np.cumsum(np.log(d[1:] / (a * omp[: N - 1]))[::-1])[::-1]
        V = (1 + r_beta) * np.append(np.exp(log_v), 1)
        C = np.zeros(N + 1, dtype=complex)
        C[1:N] = V[:-1] - 1 - r_beta * suffix[1:N]
        # U(j) = 1 + D(j) + r_gamma prefix[j] = (1 + r_gamma) prod_{m=1}^{j-1} delta_m /
        # (a_m lambda+_{m+1}), j = 1..N (D(1) = 0): the top solution from W_2 (1, r_gamma)
        U = (1 + r_gamma) * np.exp(np.cumsum(np.log(res._delta[:-1] / (a * lap[1:]))))  # j = 2..N
        D = np.zeros(N + 1, dtype=complex)
        D[2:] = U - 1 - r_gamma * prefix[2:]
        # phi's denominator 1 + r_delta prefix[N-1] + dtilde is the first component at
        # N-1 of the scaled solution from W_2 (1, r_delta) = u + r_shift s, with
        # r_shift = r_delta - r_gamma and s from (1, lambda-_2).  Write s = alpha u + beta v
        # with v_1 = 1 (v_2 = rho); beta_tilde = beta v_{N-1} / prod_{j=2}^{N-1} lambda+_j
        # is one term of the denominator, so its exponent overflows only where it does.
        u1, u2, rho = 1 + r_gamma, lp2 + r_gamma * lm2, a[0] / d[1]
        alpha = (rho - lm2) / (u1 * rho - u2)
        beta_tilde = (lm2 - lp2) / (u1 * rho - u2) * np.exp(
            -np.sum(np.log(d[1 : N - 1] * lap[1 : N - 1] / a[: N - 2]))
        )
        r_shift = r_delta - r_gamma
        phi_denom = U[N - 3] * (1 + r_shift * alpha) + r_shift * beta_tilde
        dtilde = phi_denom - 1 - r_delta * prefix[N - 1]

        # T_jk = R_jk top(lo) bottom(hi); kappa_T puts T_NN at phi's pref (1 + D(N)) /
        # (a_{N-1} omega-_N), with R_NN = 1 / delta_N and bottom(N) = 1 / (1 + r_beta)
        pref = omN1 / ((opN1 - omN1) * phi_denom)
        kappa_T = pref * U[-1] * (1 + r_beta) * res._delta[-1] / (a[-1] * omm[N - 1])
        top = kappa_T * (1 + D[1:]) / np.append(1 + r_gamma, U)   # U(1) = 1 + r_gamma
        bottom = (1 + C[1:]) / V
        H = res.dense()
        T = np.empty_like(H)
        for j in range(N):
            row = top[j] * bottom[j:] * H[j, j:]
            T[j, j:] = row
            T[j:, j] = row
        H -= T

    # smallness certificates
    c0 = float(np.min(np.abs(a)))
    c1 = float(max(np.max(np.abs(a)), np.max(np.abs(bz))))
    c2 = float(max(1.0, abs((-a[0] + lm2 * bz[0]) / (a[0] - lp2 * bz[0])), abs(r_beta)))
    # eigenbasis mismatch over the interior steps l = 2..N-2 (real data only)
    m_norms = _mismatch_norms(omp[1 : N - 1], omm[1 : N - 1])
    eps1 = float(N * np.max(m_norms)) if m_norms.size else 0.0
    eps2 = float(max(abs(suffix[2]), 5e-324))     # prod_{l=2}^{N-1} |ratio|
    kappa = ((1 + math.sqrt(5)) * c1 / (2 * c0)) ** 2
    eps1_tilde = 12 * (1 + kappa * c2 ** 2) * kappa * eps1
    denom = 1 - kappa * c2 * eps2 - eps1_tilde
    bound_constant = (
        2 * math.sqrt(kappa) * (1 + eps1_tilde) ** 2 / denom if denom > 0 else math.inf
    )
    reason = None
    if np.any(np.real(bz) <= 0):
        reason = "Re(b_j - z) > 0 fails on some row"
    elif not eps1 < 1 / (3 * kappa):
        # eps1 = 0 (exactly Toeplitz data) is the best case, not a failure
        reason = f"eps1 = {eps1:.3g} not below {1 / (3 * kappa):.3g}"
    elif 12 * (1 + kappa * c2 ** 2) * eps1 + c2 * eps2 >= 1 / kappa:
        reason = "combined smallness bound fails"
    diagnostics = ToeplitzDiagnostics(
        c0=c0,
        c1=c1,
        c2=c2,
        eps1=eps1,
        eps2=eps2,
        max_abs_C=float(np.max(np.abs(C))),
        max_abs_D=float(np.max(np.abs(D))),
        dtilde_abs=float(abs(dtilde)),
        bound_constant=bound_constant,
        applicable=reason is None,
        reason=reason,
    )
    return AlmostToeplitzDecomposition(T=T, H=H, diagnostics=diagnostics)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log|row entry| against distance from the diagonal."""

    rate: float        # decay exponent per index step (positive = decaying)
    intercept: float
    ref_row: int
    n_points: int
    distances: np.ndarray
    log_abs: np.ndarray

    def csv_rows(self):
        """(distance, log_abs) rows as Python int and float tuples."""
        return zip(self.distances.tolist(), self.log_abs.tolist())


def _resolvent_row(J: TridiagonalMatrix, ref_row: int) -> tuple[int, np.ndarray]:
    """(lo, x): row ``ref_row`` (1-based) of J^-1 on rows lo..lo + len(x) - 1.

    One banded LU solve against e_ref on the principal window [ref - h, ref + h]
    (clamped to [1, N]), h = 512, 1024, ... until the largest |entry| of the last
    16 rows at each cut end is at most 2^-53 times the decay floor times the
    window's maximum: the rows left out are then below half an ulp of every entry
    the decay fit keeps.  A window that reaches both ends is the N-row solve.
    The kept entries are the N-row solve's bits where the forward pivot
    recursion contracts (outside the spectrum, at the edge); in the bulk, where
    it barely does, they differ from it by rounding, about 50 ulp at z = 0.01i.
    J is complex symmetric, so its row equals its column J^-1 e_ref; Im z != 0
    keeps J - z nonsingular for real symmetric data.
    """
    _check_shift(J)
    N = J.N
    [ref_row] = _check_rows(N, ref_row)
    h = _WINDOW_START
    while True:
        lo, hi = max(ref_row - h, 1), min(ref_row + h, N)
        W = TridiagonalMatrix(J.diag[lo - 1 : hi], J.offdiag[lo - 1 : hi - 1], J.shift)
        e_ref = np.zeros(W.N, dtype=complex)
        e_ref[ref_row - lo] = 1.0
        # both arrays are temporaries, so LAPACK may factor and solve in them
        x = solve_banded((1, 1), W.banded(), e_ref, overwrite_ab=True, overwrite_b=True)
        mags = np.abs(x)
        cut = _WINDOW_CUT * mags.max()
        if ((lo == 1 or mags[:_WINDOW_EDGE].max() <= cut)
                and (hi == N or mags[-_WINDOW_EDGE:].max() <= cut)):
            return lo, x
        h *= 2


def decay_profile(J: TridiagonalMatrix, ref_row: int) -> DecayFit:
    """Fit log|(J^-1)_{ref_row, k}| ~ intercept - rate * |k - ref_row|.

    The row costs one banded solve on its window (``_resolvent_row``), which
    holds every entry above the floor.  Entries below 1e-13 times the row
    maximum are excluded so the noise floor does not bias the slope; a fit needs
    entries at two distinct distances above it.  The line is the exact
    least-squares fit of the kept doubles, rounded once, from integer sums: no
    BLAS call, so no byte depends on the BLAS kernel.
    """
    [ref_row] = _check_rows(J.N, ref_row)
    lo, row = _resolvent_row(J, ref_row)
    mags = np.abs(row)
    dist = np.abs(np.arange(lo, lo + len(row)) - ref_row)
    mask = (dist > 0) & (mags > _DECAY_FLOOR * mags.max())
    distinct = np.unique(dist[mask]).size
    if distinct < 2:
        raise InvalidParams(f"decay fit needs entries at two distinct distances above the "
                            f"{_DECAY_FLOOR:g} floor, found {distinct}")
    y = np.log(mags[mask])
    m, e = np.frexp(y)                      # y = m 2^e exactly, and m 2^53 is an integer
    mants, shifts = (m * 2.0 ** 53).astype(np.int64).tolist(), (e - e.min()).tolist()
    Y = list(map(operator.lshift, mants, shifts))       # y_i = Y_i / 2^(53 - min e)
    xs = dist[mask].tolist()
    n, sx, sxx = len(xs), sum(xs), sum(map(operator.mul, xs, xs))
    sy, sxy = sum(Y), sum(map(operator.mul, xs, Y))
    den = (n * sxx - sx * sx) << (53 - int(e.min()))      # > 0 at two distinct distances
    return DecayFit(
        rate=(sx * sy - n * sxy) / den,     # int / int: correctly rounded
        intercept=(sxx * sy - sx * sxy) / den,
        ref_row=ref_row,
        n_points=n,
        distances=dist[mask],
        log_abs=y,
    )


def _count_below(J: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of J below x: the negative pivots of the LDL^T sweep of J - x.

    An eigenvalue at exactly x gives a zero pivot, taken as -tiny, so it counts
    as below; the sweep runs in Python floats, which overflow silently."""
    return sum(p < 0 for p in _pivots((J.diag - x).tolist(), (J.offdiag * J.offdiag).tolist()))


def resolvent_norm_estimate(J: TridiagonalMatrix) -> float:
    """The l2 operator norm of J^-1, exact up to rounding, in O(N).

    J is real symmetric, so J - z is normal and ||(J - z)^-1||_2 is
    1 / min_k |lambda_k - z|.  The nearest eigenvalue is lambda_k or
    lambda_{k+1}, where k eigenvalues lie below Re z (``_count_below``); LAPACK
    dstebz finds those two (one at either end of the spectrum) by bisection.
    """
    _check_shift(J)
    k = _count_below(J, J.shift.real)
    lam = eigvalsh_tridiagonal(J.diag, J.offdiag, select="i", check_finite=False,
                               select_range=(max(k, 1) - 1, min(k + 1, J.N) - 1))
    return float(1.0 / np.min(np.abs(lam - J.shift)))

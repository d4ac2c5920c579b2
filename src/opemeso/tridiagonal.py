"""Exact finite tri-diagonal linear algebra.

Resolvent entries come from the two linearized continued-fraction recursions
(one running backward from the last row, one forward from the first); entries
are assembled in log-space so products of thousands of factors neither
overflow nor underflow.  On top of that sit the transfer-matrix spectral
data, the almost-Toeplitz split of the inverse, the closed-form resolvent of
the free (constant-coefficient) matrix, and a least-squares decay fit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .ensembles import Side
from .errors import InvalidParams, Singular

_EPS = np.finfo(float).eps
_COND_LIMIT = 1.0 / _EPS
_DENSE_MAX_ROWS = 5000      # largest matrix any dense (N x N) routine will build
_DENOM_TOL = 1e-300        # continued-fraction pivots below this count as zero
_DECAY_FLOOR = 1e-13       # decay fits ignore entries this far below the row maximum
_POWER_ITERS = 50
_POWER_SEED = 0


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tri-diagonal matrix minus a complex shift.

    Represents tridiag(b_0..b_{N-1}; a_1..a_{N-1}) - z*Id.  Im z = 0 is
    allowed for plain storage; resolvent operations then insist on a dense
    nonsingularity check before trusting the recursions.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    shift: complex = 0j

    def __post_init__(self):
        d = np.array(self.diag, dtype=float)
        e = np.array(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
            raise InvalidParams("need len(offdiag) == len(diag) - 1 >= 0")
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


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated cumulative sum; error stays O(eps * |partial|) at any length."""
    if np.iscomplexobj(values):
        return _kahan_cumsum(values.real) + 1j * _kahan_cumsum(values.imag)
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def invert_dense_oracle(J: TridiagonalMatrix) -> np.ndarray:
    """Full inverse by generic dense LU; the independent oracle for tests.

    Raises Singular when the factorization fails or the 1-norm condition
    estimate exceeds 1/machine-eps.
    """
    if J.N > _DENSE_MAX_ROWS:
        raise InvalidParams(f"dense oracle capped at N = {_DENSE_MAX_ROWS}")
    A = J.to_dense()
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"dense factorization failed: {exc}") from None
    cond1 = np.linalg.norm(A, 1) * np.linalg.norm(inv, 1)
    if not np.isfinite(cond1) or cond1 > _COND_LIMIT:
        raise Singular(f"condition estimate {cond1:.3g} exceeds 1/eps")
    return inv


def _pivot_sweep(b: np.ndarray, a: np.ndarray, backward: bool) -> np.ndarray:
    """Continued-fraction pivots p_1 = b_1, p_i = b_i - a_{i-1}^2 / p_{i-1}.

    ``backward=True`` runs the same sweep on the reversed arrays, from the
    last row up, and returns the pivots in row order.
    """
    N = len(b)
    if backward:
        b, a = b[::-1], a[::-1]
    p = np.empty(N, dtype=complex)
    p[0] = b[0]
    for i in range(1, N):
        if abs(p[i - 1]) < _DENOM_TOL:
            row, name = (N - i + 1, "backward") if backward else (i, "forward")
            raise Singular(f"{name} recursion denominator vanished at index {row}")
        p[i] = b[i] - a[i - 1] ** 2 / p[i - 1]
    return p[::-1] if backward else p


class TridiagonalResolvent:
    """Entrywise inverse of a shifted symmetric tri-diagonal matrix.

    Precomputes the backward (d_j) and forward (delta_j) continued-fraction
    sequences plus log-space prefix sums, after which any entry costs O(1):

        (J^-1)_{j,k} = (-1)^{k-j} a_j...a_{k-1} (d_{k+1}...d_N)/(delta_j...delta_N)

    for j <= k (1-based), extended by symmetry.
    """

    def __init__(self, J: TridiagonalMatrix):
        self.J = J
        N = J.N
        if J.shift.imag == 0.0:
            # only permitted when a dense factorization vouches for J
            invert_dense_oracle(J)
        b = J.diag.astype(complex) - J.shift
        a = J.offdiag.astype(float)
        if np.any(a == 0.0):
            raise InvalidParams("resolvent recursions require nonzero off-diagonals")

        d = _pivot_sweep(b, a, backward=True)        # d[j-1] = d_j
        delta = _pivot_sweep(b, a, backward=False)   # delta[j-1] = delta_j
        if abs(d[0]) < _DENOM_TOL or abs(delta[N - 1]) < _DENOM_TOL:
            raise Singular("matrix numerically singular")

        # Suffix sums of complex logs: _Ld[k] = sum_{l=k+1}^N log d_l (0-based
        # slot k = 0..N), same for delta; _La[i] = sum_{l<=i} log|a_l| with a
        # separate sign prefix since the a_l are real but may be negative.
        # Compensated cumulative sums keep the exponent error at O(eps) even
        # for N in the thousands.
        self._Ld = np.concatenate([_kahan_cumsum(np.log(d)[::-1])[::-1], [0.0]])
        self._Ldelta = np.concatenate([_kahan_cumsum(np.log(delta)[::-1])[::-1], [0.0]])
        self._La = np.concatenate([[0.0], _kahan_cumsum(np.log(np.abs(a)))])
        self._sgn_a = np.concatenate([[1.0], np.cumprod(np.sign(a))])
        self.d = d
        self.delta = delta

    def _assemble(self, j, k):
        """Entries (j, k), 1-based and broadcast, as sign * exp(log-modulus sum)."""
        lo = np.minimum(j, k)
        hi = np.maximum(j, k)
        logval = self._La[hi - 1] - self._La[lo - 1] + self._Ld[hi] - self._Ldelta[lo - 1]
        sign = (-1.0) ** (hi - lo) * self._sgn_a[hi - 1] * self._sgn_a[lo - 1]
        return sign * np.exp(logval)

    def entry(self, j: int, k: int) -> complex:
        """(J^-1)_{j,k} with 1-based indices; symmetric by construction."""
        N = self.J.N
        if not (1 <= j <= N and 1 <= k <= N):
            raise InvalidParams(f"indices must lie in [1, {N}]")
        return self._assemble(j, k)

    def row(self, j: int) -> np.ndarray:
        """Full row (J^-1)_{j, 1..N} as a vector."""
        N = self.J.N
        if not 1 <= j <= N:
            raise InvalidParams(f"row index must lie in [1, {N}]")
        return self._assemble(j, np.arange(1, N + 1))

    def dense(self) -> np.ndarray:
        """All N^2 entries, assembled from the prefix sums."""
        idx = np.arange(1, self.J.N + 1)
        return self._assemble(idx[:, None], idx)


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


def _transfer_eigenvalues(bz, a_prev, a_curr):
    """(omega+, omega-, lambda+, lambda-) of the steps with data b - z, a_{j-1}, a_j."""
    root = np.sqrt(bz ** 2 - 4 * a_curr * a_prev)
    return (
        (bz + root) / (2 * a_prev),
        (bz - root) / (2 * a_prev),
        (bz + root) / (2 * a_curr),
        (bz - root) / (2 * a_curr),
    )


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
    a = J.offdiag
    if np.any(a == 0.0):
        raise InvalidParams("transfer spectrum requires nonzero off-diagonals")
    bz = J.diag.astype(complex) - J.shift
    # steps j = 2..N-1 take b_{j-1}, a_{j-1} and a_j
    omp, omm, lap, lam = _transfer_eigenvalues(bz[1 : N - 1], a[: N - 2], a[1 : N - 1])
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


def free_resolvent_entry(
    eta: complex, n_alpha: float, side: Side, j: int | np.ndarray, k: int | np.ndarray
) -> complex | np.ndarray:
    """Closed-form resolvent entry of the constant-coefficient matrix (a=1, b=0).

    Entry (j, k), 1-based, of the semi-infinite free matrix shifted by
    x0 + eta/n^alpha, with x0 = -2 (left edge) or +2 (right edge):

        (u^{|j-k|} - u^{j+k}) / (u - 1/u),

    where u is the root of u + 1/u = x0 + eta/n^alpha with |u| < 1.  Finite
    truncations converge to this exponentially fast.  ``j`` and ``k`` may be
    integer arrays; they broadcast against each other.
    """
    eta = complex(eta)
    if eta.imag == 0:
        raise InvalidParams("free resolvent needs Im eta != 0")
    if n_alpha <= 0:
        raise InvalidParams("n^alpha must be positive")
    if np.any(np.asarray(j) < 1) or np.any(np.asarray(k) < 1):
        raise InvalidParams("indices are 1-based")
    x0 = -2.0 if side is Side.LEFT else 2.0
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
    """Split J^-1 = T + H: T nearly constant along diagonals, H corner-localized.

    T + H equals the recursion inverse by construction; the asymptotic
    quality of T (slow variation along diagonals, H exponentially small away
    from the corners) is certified only when ``diagnostics.applicable``.
    """

    T: np.ndarray
    H: np.ndarray
    diagnostics: ToeplitzDiagnostics


def _inv2x2(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def almost_toeplitz_decompose(J: TridiagonalMatrix) -> AlmostToeplitzDecomposition:
    """Almost-Toeplitz split of the inverse of a shifted tri-diagonal matrix.

    The first and last transfer steps reference a_0 and a_N, which the matrix
    does not carry; both are set to their nearest neighbours (a_0 := a_1,
    a_N := a_{N-1}).  The choice only rescales boundary bookkeeping and is
    absorbed by H.
    """
    N = J.N
    if N < 4:
        raise InvalidParams("almost-Toeplitz split needs N >= 4")
    bz = J.diag.astype(complex) - J.shift        # b_{l-1} - z at python index l-1
    a = J.offdiag.astype(float)
    if np.any(a == 0.0):
        raise InvalidParams("almost-Toeplitz split requires nonzero off-diagonals")

    # transfer eigenvalues for steps l = 1..N (boundary conventions above)
    a_prev = np.concatenate([[a[0]], a])          # a_{l-1}, l = 1..N
    a_curr = np.concatenate([a, [a[-1]]])         # a_l,     l = 1..N
    omp, omm, lap, lam = _transfer_eigenvalues(bz, a_prev, a_curr)  # index l-1 <-> step l

    opN1, omN1 = omp[N - 2], omm[N - 2]           # step N-1
    lpN1, lmN1 = lap[N - 2], lam[N - 2]
    lp2, lm2 = lap[1], lam[1]                     # step 2
    beta1 = omN1 * a[N - 2] - bz[N - 1]
    beta2 = -opN1 * a[N - 2] + bz[N - 1]
    gamma1 = lm2 * a[0] - bz[0]
    gamma2 = -lp2 * a[0] + bz[0]
    delta1 = bz[N - 1] * lpN1 - a[N - 2]
    delta2 = bz[N - 1] * lmN1 - a[N - 2]

    # signed eigenvalue-ratio products (complex logs; moduli < 1 in regime)
    log_ratio = np.log(omm / omp)                 # index l-1 <-> step l
    # suffix[k] = prod_{l=k}^{N-1} ratio_l, k = 1..N (suffix[N] = 1)
    suffix = np.ones(N + 1, dtype=complex)
    suffix[1:N] = np.exp(np.cumsum(log_ratio[:N - 1][::-1])[::-1])
    # prefix[j] = prod_{l=2}^{j} ratio_l, j = 1..N (prefix[1] = 1)
    prefix = np.ones(N + 1, dtype=complex)
    prefix[2:] = np.exp(np.cumsum(log_ratio[1:]))

    # C(k), k = 1..N-1 (C(N) = 0): scaled right-to-left transfer products
    VN1 = np.array([[1, 1], [opN1, omN1]], dtype=complex)
    VN1_inv = _inv2x2(VN1)
    C = np.zeros(N + 1, dtype=complex)
    P = np.eye(2, dtype=complex)
    for k in range(N - 1, 0, -1):
        A_scaled = np.array(
            [[0, 1], [-a_curr[k - 1] / a_prev[k - 1], bz[k - 1] / a_prev[k - 1]]],
            dtype=complex,
        ) / omp[k - 1]
        P = A_scaled @ P
        Vk = np.array([[1, 1], [omp[k - 1], omm[k - 1]]], dtype=complex)
        mid = Vk @ np.array([[1, 0], [0, suffix[k]]], dtype=complex) @ VN1_inv
        M = _inv2x2(Vk) @ (P - mid) @ VN1
        C[k] = (M[0, 0] + M[1, 0]) + (beta2 / beta1) * (M[0, 1] + M[1, 1])

    # D(j), j = 2..N (D(1) = 0): scaled left-to-right products
    W2 = np.array([[1, 1], [lp2, lm2]], dtype=complex)
    D = np.zeros(N + 1, dtype=complex)
    Q = np.eye(2, dtype=complex)
    dtilde = 0j
    for j in range(2, N + 1):
        B_scaled = np.array(
            [[0, 1], [-a_prev[j - 1] / a_curr[j - 1], bz[j - 1] / a_curr[j - 1]]],
            dtype=complex,
        ) / lap[j - 1]
        Q = B_scaled @ Q
        Wj = np.array([[1, 1], [lap[j - 1], lam[j - 1]]], dtype=complex)
        mid = Wj @ np.array([[1, 0], [0, prefix[j]]], dtype=complex) @ _inv2x2(W2)
        M = _inv2x2(Wj) @ (Q - mid) @ W2
        D[j] = (M[0, 0] + M[1, 0]) + (gamma2 / gamma1) * (M[0, 1] + M[1, 1])
        if j == N - 1:
            dtilde = (M[0, 0] + M[1, 0]) + (delta2 * gamma2 / (delta1 * gamma1)) * (
                M[0, 1] + M[1, 1]
            )
    phi_denom = 1.0 + (delta2 * gamma2 / (delta1 * gamma1)) * prefix[N - 1] + dtilde

    # T entries: for j <= k (1-based),
    #   T_jk = (-1)^{k-j} pref * exp(LW(k-1) - LW(j)) * (1+D(j)) (1+C(k)) / a_{k-1}
    # with LW(i) = sum_{l=2}^{i} log omega_l^-; the unified exponent covers
    # the diagonal (k = j gives the 1/omega_j^- of the exact formula).
    log_omm = np.log(omm)
    LW = np.zeros(N + 1, dtype=complex)           # LW[i], i = 0..N
    LW[2:] = np.cumsum(log_omm[1:])
    jdx = np.arange(1, N + 1)
    pref = omN1 / ((opN1 - omN1) * phi_denom)
    rowfac = (1.0 + D[jdx]) * np.exp(-LW[jdx])
    colfac = (1.0 + np.where(jdx < N, C[jdx], 0.0)) * np.exp(LW[jdx - 1]) / a_prev[jdx - 1]
    signs = (-1.0) ** np.abs(np.subtract.outer(jdx, jdx))
    T_upper = pref * signs * np.outer(rowfac, colfac)
    T = np.triu(T_upper)
    T = T + np.triu(T_upper, k=1).T

    Jinv = TridiagonalResolvent(J).dense()
    H = Jinv - T

    # smallness certificates
    c0 = float(np.min(np.abs(a)))
    c1 = float(max(np.max(np.abs(a)), np.max(np.abs(bz))))
    c2 = float(
        max(
            1.0,
            abs((-a[0] + lm2 * bz[0]) / (a[0] - lp2 * bz[0])),
            abs((-opN1 * a[N - 2] + bz[N - 1]) / (omN1 * a[N - 2] - bz[N - 1])),
        )
    )
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
        for dist, val in zip(self.distances, self.log_abs):
            yield int(dist), float(val)


def decay_profile(J: TridiagonalMatrix, ref_row: int) -> DecayFit:
    """Fit log|(J^-1)_{ref_row, k}| ~ intercept - rate * |k - ref_row|.

    Entries below 1e-13 times the row maximum are excluded so the noise
    floor does not bias the slope.
    """
    if J.shift.imag == 0:
        raise InvalidParams("decay profile needs Im z != 0")
    res = TridiagonalResolvent(J)
    row = res.row(ref_row)
    ks = np.arange(1, J.N + 1)
    dist = np.abs(ks - ref_row)
    mags = np.abs(row)
    mask = (dist > 0) & (mags > _DECAY_FLOOR * mags.max())
    x = dist[mask].astype(float)
    y = np.log(mags[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return DecayFit(
        rate=-float(slope),
        intercept=float(intercept),
        ref_row=ref_row,
        n_points=int(mask.sum()),
        distances=dist[mask],
        log_abs=y,
    )


def _power_norm(gram, v: np.ndarray) -> float:
    """Largest singular value of A by power iteration from v; gram(x) = A^H A x.

    Callers draw v from default_rng(_POWER_SEED), so estimates are reproducible.
    """
    v = v / np.linalg.norm(v)
    sigma2 = 0.0
    for _ in range(_POWER_ITERS):
        w = gram(v)
        sigma2 = float(np.real(np.conj(v) @ w))
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return math.sqrt(max(sigma2, 0.0))


def resolvent_norm_estimate(J: TridiagonalMatrix) -> float:
    """Power-iteration estimate of the l2 operator norm of J^-1.

    Iterates R^H R where each application of R is a banded solve; J is
    complex symmetric, so R^H amounts to solving the conjugated matrix.
    """
    ab = J.banded()
    ab_conj = np.conj(ab)
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(J.N) + 1j * rng.standard_normal(J.N)
    return _power_norm(
        lambda x: solve_banded((1, 1), ab_conj, solve_banded((1, 1), ab, x)), v
    )

"""Tridiagonal core: recursions vs dense oracle, transfer data, decompositions."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import opemeso as om
from opemeso import tridiagonal
from opemeso.errors import InvalidParams, Singular
from opemeso.tridiagonal import _resolvent_row


def _random_matrix(rng, n_max=64, im_lo=0.1, im_hi=2.0):
    N = int(rng.integers(2, n_max + 1))
    diag = rng.uniform(-2, 2, size=N)
    off = rng.uniform(0.2, 2.0, size=N - 1) * rng.choice([-1.0, 1.0], size=N - 1)
    z = complex(rng.uniform(-2, 2), rng.uniform(im_lo, im_hi))
    return om.TridiagonalMatrix(diag, off, z)


class TestInversion:
    def test_scalar(self):
        J = om.TridiagonalMatrix([3.0], [], 1j)
        res = om.TridiagonalResolvent(J)
        assert res.entry(1, 1) == pytest.approx(1 / (3 - 1j), rel=1e-14)

    def test_two_by_two(self):
        J = om.TridiagonalMatrix([0.0, 0.0], [1.0], 1j)
        res = om.TridiagonalResolvent(J)
        assert res.entry(1, 1) == pytest.approx(0.5j, abs=1e-14)
        assert res.entry(1, 2) == pytest.approx(0.5, abs=1e-14)
        assert res.entry(2, 1) == pytest.approx(0.5, abs=1e-14)
        assert res.entry(2, 2) == pytest.approx(0.5j, abs=1e-14)

    def test_free_case_matches_closed_form(self):
        # the truncated inverse differs from the semi-infinite closed form by
        # the second reflection |u|^(2N-j-k): ~1e-12..3e-11 across these
        # entries at N = 50, below 1e-13 at N = 80
        for N, tol in ((50, 5e-11), (80, 1e-13)):
            n_alpha = 50 ** 0.5
            J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1j / n_alpha)
            res = om.TridiagonalResolvent(J)
            for j, k in [(1, 1), (1, 5), (3, 3), (2, 9)]:
                target = om.free_resolvent_entry(1j, n_alpha, om.Side.RIGHT, j, k)
                assert abs(res.entry(j, k) - target) < tol

    def test_symmetry_same_code_path(self):
        rng = np.random.default_rng(3)
        res = om.TridiagonalResolvent(_random_matrix(rng))
        N = res.J.N
        for j, k in [(1, N), (2, 3), (N // 2 + 1, 1)]:
            assert res.entry(j, k) == res.entry(k, j)

    def test_row_and_dense_agree_with_entries(self):
        rng = np.random.default_rng(4)
        res = om.TridiagonalResolvent(_random_matrix(rng))
        N = res.J.N
        dense = res.dense()
        row = res.row(2)
        for k in range(1, N + 1):
            assert dense[1, k - 1] == row[k - 1] == res.entry(2, k)

    def test_index_bounds(self):
        J = om.TridiagonalMatrix([1.0, 2.0], [1.0], 1j)
        res = om.TridiagonalResolvent(J)
        with pytest.raises(InvalidParams):
            res.entry(0, 1)
        with pytest.raises(InvalidParams):
            res.entry(1, 3)

    def test_real_shift_refused_by_every_resolvent_operation(self):
        # Im z = 0 is outside the domain whether or not J - z is singular: the
        # free N = 5 matrix at z = 0 is, [[0, 1], [1, 0]] and the free N = 4
        # matrix are not.  The refusal comes before any arithmetic, so no
        # RuntimeWarning (an error under this suite's settings) and no raw
        # LinAlgError; the dense oracle stays the one route for real shifts.
        operations = (
            om.TridiagonalResolvent,
            lambda J: _resolvent_row(J, 1),
            om.resolvent_norm_estimate,
            om.almost_toeplitz_decompose,
        )
        for N in (5, 2, 4):
            J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 0.0)
            for op in operations:
                with pytest.raises(InvalidParams, match="Im z"):
                    op(J)
            if N != 5:
                assert np.allclose(om.invert_dense_oracle(J) @ J.to_dense(), np.eye(N))


class TestDenseOracle:
    def test_identity(self):
        J = om.TridiagonalMatrix(np.ones(5), np.zeros(4), 0.0)
        assert np.allclose(om.invert_dense_oracle(J), np.eye(5))

    def test_matches_recursions(self):
        rng = np.random.default_rng(11)
        J = _random_matrix(rng, n_max=20, im_lo=1.0, im_hi=1.0)
        oracle = om.invert_dense_oracle(J)
        rec = om.TridiagonalResolvent(J).dense()
        assert np.max(np.abs(oracle - rec)) < 1e-11 * np.max(np.abs(oracle))

    def test_singular_flagged(self):
        J = om.TridiagonalMatrix([1.0, 1.0], [1.0], 0.0)
        with pytest.raises(Singular):
            om.invert_dense_oracle(J)

    def test_size_cap(self):
        J = om.TridiagonalMatrix(np.zeros(5001), np.ones(5000), 1j)
        with pytest.raises(InvalidParams):
            om.invert_dense_oracle(J)


class TestTransferSpectrum:
    def test_zero_discriminant(self):
        # a = 1, b = 2, z = 0: (b-z)^2 = 4 a a, both eigenvalues equal 1
        J = om.TridiagonalMatrix(2.0 * np.ones(4), np.ones(3), 1e-30j)
        ts = om.transfer_spectrum(J)
        assert np.allclose(ts.omega_plus, 1.0, atol=1e-12)
        assert np.allclose(ts.omega_minus, 1.0, atol=1e-12)

    def test_free_edge_expansion(self):
        # omega_pm = 1 pm sqrt(-eta/n^alpha) + O(n^-alpha) at b - z = 2 - eta/n^alpha
        n_alpha = 100.0
        J = om.TridiagonalMatrix(2.0 * np.ones(5), np.ones(4), 1j / n_alpha)
        ts = om.transfer_spectrum(J)
        root = np.sqrt(-1j / n_alpha)
        assert abs(ts.omega_plus[0] - (1 + root)) < 2e-2
        assert abs(ts.omega_minus[0] - (1 - root)) < 2e-2

    def test_norm_arrays_alignment(self):
        J = om.TridiagonalMatrix(np.linspace(2, 3, 8), np.linspace(1, 1.2, 7), 0.5j)
        ts = om.transfer_spectrum(J)
        assert len(ts.js) == 6          # j = 2..7
        assert len(ts.M_norms) == 5     # up to j = N-2
        assert len(ts.E_norms) == 5     # from j = 3


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_transfer_identities_random(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 30))
    diag = rng.uniform(-3, 3, size=N)
    off = rng.uniform(0.3, 2.0, size=N - 1)
    z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 2.0))
    J = om.TridiagonalMatrix(diag, off, z)
    ts = om.transfer_spectrum(J)
    # lambda^- omega^+ = lambda^+ omega^- = 1
    assert np.max(np.abs(ts.lambda_minus * ts.omega_plus - 1)) < 1e-13
    assert np.max(np.abs(ts.lambda_plus * ts.omega_minus - 1)) < 1e-13
    # omega^+ omega^- = a_j / a_{j-1}
    ratio = off[1:] / off[:-1]
    assert np.max(np.abs(ts.omega_plus * ts.omega_minus - ratio)) < 1e-13


class TestFreeResolvent:
    def test_truncation_convergence_oracle(self):
        N = 2000
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), -2.0 + 1j)
        val = om.TridiagonalResolvent(J).entry(1, 1)
        target = om.free_resolvent_entry(1j, 1.0, om.Side.LEFT, 1, 1)
        assert abs(val - target) < 1e-10

    def test_symmetric_in_indices(self):
        a = om.free_resolvent_entry(1j, 30.0, om.Side.LEFT, 3, 11)
        b = om.free_resolvent_entry(1j, 30.0, om.Side.LEFT, 11, 3)
        assert a == b

    def test_edge_decay_envelope(self):
        # |entry| <= C n^(alpha/2) exp(-d n^(-alpha/2) |j-k|) with fitted d > 0
        n_alpha = 400.0
        ref = 200
        dists = np.arange(1, 150)
        vals = [
            abs(om.free_resolvent_entry(1j, n_alpha, om.Side.RIGHT, ref, ref + d))
            for d in dists
        ]
        slope = np.polyfit(dists, np.log(vals), 1)[0]
        d_fit = -slope * math.sqrt(n_alpha)
        assert d_fit > 0
        assert abs(d_fit - math.sqrt(0.5)) < 0.2  # |Re sqrt(-i)| = sqrt(1/2)

    def test_index_arrays_broadcast(self):
        idx = np.arange(1, 8)
        block = om.free_resolvent_entry(1j, 30.0, om.Side.RIGHT, idx[:, None], idx)
        assert block.shape == (7, 7)
        for j in (1, 4, 7):
            for k in (1, 2, 7):
                scalar = om.free_resolvent_entry(1j, 30.0, om.Side.RIGHT, j, k)
                assert block[j - 1, k - 1] == pytest.approx(scalar, rel=1e-14)

    def test_input_validation(self):
        with pytest.raises(InvalidParams):
            om.free_resolvent_entry(1.0, 10.0, om.Side.LEFT, 1, 1)
        with pytest.raises(InvalidParams):
            om.free_resolvent_entry(1j, -1.0, om.Side.LEFT, 1, 1)
        with pytest.raises(InvalidParams):
            om.free_resolvent_entry(1j, 10.0, om.Side.LEFT, np.arange(0, 3), 1)

    @pytest.mark.parametrize("n_alpha", [math.nan, math.inf])
    def test_non_finite_scale_refused(self, n_alpha):
        # nan once gave nan+nanj and inf a raw ZeroDivisionError
        with pytest.raises(InvalidParams, match="finite and positive"):
            om.free_resolvent_entry(1j, n_alpha, om.Side.LEFT, 1, 1)


def _split_T_by_matrix_products(J):
    """T of the almost-Toeplitz split with C, D and phi from explicit 2x2 products.

    C(k) = (1, 1) M_k (1, beta2/beta1) with M_k = V_k^-1 (P_k - V_k diag(1, suffix_k)
    V_{N-1}^-1) V_{N-1}, P_k = A_k ... A_{N-1}; D and dtilde likewise from W_j,
    Q_j = B_j ... B_2; entries are plain products of omega^-.
    """
    N = J.N
    bz = J.diag - J.shift
    a = J.offdiag
    a_prev, a_curr = np.r_[a[0], a], np.r_[a, a[-1]]
    root = np.sqrt(bz ** 2 - 4 * a_prev * a_curr)
    omp, omm = (bz + root) / (2 * a_prev), (bz - root) / (2 * a_prev)
    lap, lam = (bz + root) / (2 * a_curr), (bz - root) / (2 * a_curr)
    ratio = omm / omp

    def basis(i, plus, minus):
        return np.array([[1, 1], [plus[i], minus[i]]])

    def corrected(M, r):
        return M.sum(axis=0) @ [1, r]

    VN, W2 = basis(N - 2, omp, omm), basis(1, lap, lam)
    r_beta = (bz[N - 1] - omp[N - 2] * a[N - 2]) / (omm[N - 2] * a[N - 2] - bz[N - 1])
    r_gamma = (bz[0] - lap[1] * a[0]) / (lam[1] * a[0] - bz[0])
    r_delta = r_gamma * (bz[N - 1] * lam[N - 2] - a[N - 2]) / (bz[N - 1] * lap[N - 2] - a[N - 2])
    C, D = np.zeros(N + 1, complex), np.zeros(N + 1, complex)
    P = Q = np.eye(2)
    for k in range(N - 1, 0, -1):
        A = np.array([[0, 1], [-a_curr[k - 1] / a_prev[k - 1], bz[k - 1] / a_prev[k - 1]]])
        P = A / omp[k - 1] @ P
        M = np.linalg.solve(basis(k - 1, omp, omm), P @ VN)
        C[k] = corrected(M - np.diag([1, np.prod(ratio[k - 1 : N - 1])]), r_beta)
    for j in range(2, N + 1):
        B = np.array([[0, 1], [-a_prev[j - 1] / a_curr[j - 1], bz[j - 1] / a_curr[j - 1]]])
        Q = B / lap[j - 1] @ Q
        M = np.linalg.solve(basis(j - 1, lap, lam), Q @ W2) - np.diag([1, np.prod(ratio[1:j])])
        D[j] = corrected(M, r_gamma)
        if j == N - 1:
            phi = 1 + r_delta * np.prod(ratio[1:j]) + corrected(M, r_delta)
    pref = omm[N - 2] / ((omp[N - 2] - omm[N - 2]) * phi)
    T = np.zeros((N, N), complex)
    for j in range(1, N + 1):
        # k = j in prod_{l=j+1}^{k-1} omega^-_l is the reversed empty range, 1/omega^-_j,
        # for every j >= 1: T_jj = pref (1+D_j)(1+C_j) / (a_{j-1} omega^-_j)
        T[j - 1, j - 1] = pref * (1 + D[j]) * (1 + C[j]) / (a_prev[j - 1] * omm[j - 1])
        prods = np.cumprod(np.r_[1, omm[j : N - 1]])        # omega^-_{j+1} ... omega^-_{k-1}
        signs = (-1.0) ** np.arange(1, N - j + 1)
        T[j - 1, j:] = pref * (1 + D[j]) * signs * prods * (1 + C[j + 1 :]) / a_prev[j:]
    return T + np.triu(T, 1).T


class TestAlmostToeplitz:
    def test_toeplitz_reflection_structure(self):
        # constant coefficients: H equals the corner reflection term exactly
        N = 200
        J = om.TridiagonalMatrix(2.0 * np.ones(N), np.ones(N - 1), 0.1j)
        dec = om.almost_toeplitz_decompose(J)
        assert dec.diagnostics.applicable
        bz = 2.0 - 0.1j
        root = np.sqrt(bz ** 2 - 4)
        omp, omm = (bz + root) / 2, (bz - root) / 2
        for j, k in [(1, 1), (3, 5), (8, 8), (2, 10), (15, 15), (4, 20)]:
            pred = -((-omm) ** (j + k)) / (omp - omm)
            got = dec.H[j - 1, k - 1]
            assert abs(got - pred) < 1e-10 * abs(pred)

    def test_reconstruction_matches_oracle(self):
        N = 300
        diag = 2.0 + 0.1 * np.arange(N) / N
        off = 1.0 + 0.05 * np.arange(N - 1) / N
        J = om.TridiagonalMatrix(diag, off, 0.05 + 0.02j)
        dec = om.almost_toeplitz_decompose(J)
        oracle = om.invert_dense_oracle(J)
        assert np.max(np.abs(dec.T + dec.H - oracle)) < 1e-10

    def test_slowly_varying_diagonal_ratios(self):
        # scaled Laguerre hard-edge window: T nearly constant along diagonals
        n = 4000
        w = 2 * math.ceil(n ** 0.55)
        diag, off = om.jacobi_window(om.laguerre(0.0), n, n - w, n + w)
        J = om.TridiagonalMatrix(diag, off, 1j / n)
        dec = om.almost_toeplitz_decompose(J)
        T = dec.T
        mid = T.shape[0] // 2
        for offset in (1, 5, 20):
            ratio = T[mid + offset, mid + 5 + offset] / T[mid, mid + 5]
            assert abs(ratio - 1) < 5e-3
        # interior H is much smaller than T there
        assert abs(dec.H[mid, mid]) < 0.05 * abs(T[mid, mid])

    def test_not_applicable_flag_reports_not_raises(self):
        # negative diagonal rows violate the standing sign assumption
        N = 30
        J = om.TridiagonalMatrix(-2.0 * np.ones(N), np.ones(N - 1), 0.5j)
        dec = om.almost_toeplitz_decompose(J)
        assert not dec.diagnostics.applicable
        assert dec.diagnostics.reason is not None
        oracle = om.invert_dense_oracle(J)
        assert np.max(np.abs(dec.T + dec.H - oracle)) < 1e-10

    def test_long_toeplitz_window_stays_finite(self):
        # the product of omega- over all rows, |omega-|^1000 ~ 1e-461, leaves the
        # float range at this length; T and H must not
        N = 1000
        J = om.TridiagonalMatrix(2.0 * np.ones(N), np.ones(N - 1), 2j)
        dec = om.almost_toeplitz_decompose(J)
        assert np.all(np.isfinite(dec.T)) and np.all(np.isfinite(dec.H))
        assert dec.diagnostics.applicable
        bz = 2.0 - 2j
        root = np.sqrt(bz ** 2 - 4)
        omp, omm = (bz + root) / 2, (bz - root) / 2
        j = np.arange(1, 41)
        pred = -((-omm) ** (j[:, None] + j)) / (omp - omm)
        assert np.max(np.abs(dec.H[:40, :40] - pred)) <= 1e-12 * np.max(np.abs(dec.T))
        assert abs(dec.T[0, 0] - dec.T[1, 1]) <= 1e-12 * abs(dec.T[1, 1])
        oracle = om.invert_dense_oracle(J)
        assert np.max(np.abs(dec.T + dec.H - oracle)) <= 1e-10

    def test_overflowing_split_refused_without_warnings(self):
        # Re(b - z) < 0: C grows like |omega-/omega+|^N, ~4.5e252 at N = 600
        def J(N):
            return om.TridiagonalMatrix(-2.0 * np.ones(N), np.ones(N - 1), 0.5j)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = om.almost_toeplitz_decompose(J(600))
            assert np.max(np.abs(dec.T + dec.H - om.invert_dense_oracle(J(600)))) <= 1e-10
            with pytest.raises(InvalidParams, match="split at N = 700 overflows the float range"):
                om.almost_toeplitz_decompose(J(700))

    @pytest.mark.parametrize("fixture", ["toeplitz", "criterion8", "laguerre"])
    def test_T_matches_explicit_transfer_products(self, fixture):
        if fixture == "toeplitz":
            J = om.TridiagonalMatrix(2.0 * np.ones(200), np.ones(199), 0.1j)
        elif fixture == "criterion8":
            N = 300
            diag = 2.0 + 0.1 * np.arange(N) / N
            off = 1.0 + 0.05 * np.arange(N - 1) / N
            J = om.TridiagonalMatrix(diag, off, 0.05 + 0.02j)
        else:
            n = 4000
            w = 2 * math.ceil(n ** 0.55)
            J = om.TridiagonalMatrix(*om.jacobi_window(om.laguerre(0.0), n, n - w, n + w), 1j / n)
        T = om.almost_toeplitz_decompose(J).T
        assert np.max(np.abs(T - _split_T_by_matrix_products(J))) <= 1e-11 * np.max(np.abs(T))

    def test_diagnostics_fields(self):
        N = 50
        J = om.TridiagonalMatrix(2.0 * np.ones(N), np.ones(N - 1), 0.1j)
        d = om.almost_toeplitz_decompose(J).diagnostics
        assert d.c0 == 1.0
        assert d.c2 >= 1.0
        assert 0 <= d.eps2 < 1
        assert math.isfinite(d.bound_constant)

    @pytest.mark.parametrize("N, b, z, pinned", [
        (50, 2.0, 0.1j, 6.480221104520996),
        (200, 2.0, 0.1j, 6.480221074897702),
        (30, 2.5, 0.3j, 8.148210966506534),
    ], ids=["b2-N50", "b2-N200", "b2.5-N30"])
    def test_bound_constant_closed_form_on_toeplitz_data(self, N, b, z, pinned):
        # constant coefficients give c0 = c2 = 1 and eps1 = 0 exactly, so the bound is
        # (1 + sqrt 5)|b - z| / (1 - ((1 + sqrt 5)|b - z| / 2)^2 |omega-/omega+|^(N-2))
        J = om.TridiagonalMatrix(np.full(N, b), np.ones(N - 1), z)
        d = om.almost_toeplitz_decompose(J).diagnostics
        assert (d.c0, d.c2, d.eps1) == (1.0, 1.0, 0.0)
        root = np.sqrt((b - z) ** 2 - 4)
        s = (1 + math.sqrt(5)) * abs(b - z)
        closed = s / (1 - (s / 2) ** 2 * abs((b - z - root) / (b - z + root)) ** (N - 2))
        assert d.bound_constant == pytest.approx(closed, rel=1e-13)
        assert d.bound_constant == pytest.approx(pinned, rel=1e-13)


def _tri(diag, off, z=1j):
    return om.TridiagonalMatrix(diag, off, z)


@pytest.mark.parametrize(
    "call, error, match",
    [
        # eigenvalue 1 of [[0, 1], [1, 0]] one ulp from the shift: LU succeeds
        (lambda: om.invert_dense_oracle(_tri([0, 0], [1], 1 - 1e-16)), Singular, "condition"),
        (lambda: om.TridiagonalResolvent(_tri([1, 1, 1], [1, 0])), InvalidParams, "nonzero"),
        (lambda: om.TridiagonalResolvent(_tri([1, 1, 1], [1, 1])).row(4), InvalidParams, "row"),
        (lambda: om.TridiagonalResolvent(_tri([1, 1, 1], [1, 1])).row(True), InvalidParams,
         "must be an integer"),
        (lambda: om.TridiagonalResolvent(_tri([1, 1, 1], [1, 1])).entry(1.5, 2), InvalidParams,
         "must be an integer"),
        (lambda: om.decay_profile(_tri(np.zeros(10), np.ones(9)), 5.0), InvalidParams,
         "must be an integer"),
        (lambda: tridiagonal._resolvent_row(_tri([1, 1, 1], [1, 1]), True), InvalidParams,
         "must be an integer"),
        (lambda: om.transfer_spectrum(_tri([1, 1], [1])), InvalidParams, "N >= 3"),
        (lambda: om.transfer_spectrum(_tri([1, 1, 1], [0, 1])), InvalidParams, "nonzero"),
        (lambda: om.almost_toeplitz_decompose(_tri([2, 2, 2], [1, 1])), InvalidParams, "N >= 4"),
        (lambda: om.almost_toeplitz_decompose(_tri([2] * 4, [1, 0, 1])), InvalidParams, "nonzero"),
        # refused before the N x N result (160 GB of complex entries at N = 10^5) is allocated
        (lambda: om.TridiagonalResolvent(_tri(np.zeros(10 ** 5), np.ones(10 ** 5 - 1))).dense(),
         InvalidParams, "dense resolvent capped at N = 5000"),
        (lambda: om.almost_toeplitz_decompose(_tri(np.zeros(10 ** 5), np.ones(10 ** 5 - 1))),
         InvalidParams, "split capped at N = 5000"),
    ],
    ids=["ill-conditioned", "oracle-zero-off", "row-index", "row-bool", "entry-float",
         "decay-row-float", "resolvent-row-bool", "transfer-N", "transfer-zero-off",
         "split-N", "split-zero-off", "dense-cap", "split-cap"],
)
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


@functools.lru_cache(maxsize=None)
def _thomas_row(N, z, ref):
    """Row ``ref`` of (J - z)^-1 for diag 0, off-diagonals 1, by 40-digit Thomas elimination."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b = -mpmath.mpc(z.real, z.imag)
        c, d = [mpmath.mpc(0)] * N, [mpmath.mpc(0)] * N
        c[0], d[0] = 1 / b, mpmath.mpc(ref == 1) / b
        for i in range(1, N):
            m = b - c[i - 1]
            c[i] = 1 / m
            d[i] = (int(i == ref - 1) - d[i - 1]) / m
        x = [d[-1]]
        for i in range(N - 2, -1, -1):
            x.append(d[i] - c[i] * x[-1])
        return np.array([complex(v) for v in reversed(x)])


def _padded_row(J, ref):
    """The windowed row of ``_resolvent_row`` placed in an N-vector, zeros outside its window."""
    lo, x = _resolvent_row(J, ref)
    row = np.zeros(J.N, dtype=complex)
    row[lo - 1 : lo - 1 + len(x)] = x
    return row


def _varying(N):
    """Slowly varying coefficients, z = 2 + i/300 near the right edge."""
    return om.TridiagonalMatrix(
        0.1 * np.sin(np.arange(N)), 1.0 + 0.05 * np.arange(N - 1) / N, 2.0 + 1j / 300
    )


class TestDecayProfile:
    def test_edge_rate(self):
        N = 2000
        n_alpha = 1e4
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1j / n_alpha)
        fit = om.decay_profile(J, ref_row=N // 2)
        target = math.sqrt(0.5) / math.sqrt(n_alpha)
        assert abs(fit.rate / target - 1) < 0.2

    def test_bulk_much_slower(self):
        N = 2000
        n_alpha = 100.0
        edge = om.decay_profile(
            om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1j / n_alpha), N // 2
        )
        bulk = om.decay_profile(
            om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 0.0 + 1j / n_alpha), N // 2
        )
        assert edge.rate >= 5 * bulk.rate

    def test_diagonal_is_profile_maximum(self):
        N = 400
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 0.1j)
        row = om.TridiagonalResolvent(J).row(N // 2)
        assert np.argmax(np.abs(row)) == N // 2 - 1

    def test_csv_rows(self):
        N = 100
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 0.5j)
        fit = om.decay_profile(J, ref_row=50)
        rows = list(fit.csv_rows())
        assert len(rows) == fit.n_points
        assert all(isinstance(r[0], int) for r in rows)

    @pytest.mark.parametrize(
        "route",
        [_padded_row, lambda J, ref: om.TridiagonalResolvent(J).row(ref)],
        ids=["banded", "oracle"],
    )
    @pytest.mark.parametrize(
        "N, z, tol",
        # banded solve / local-ratio oracle read 2.0e-14 / 2.2e-14, 4.2e-14 /
        # 5.8e-14, 2.3e-13 / 2.3e-13 and 2.4e-14 / 2.4e-14 on these cases; the
        # oracle's former three-sum assembly read 1.3e-13, 7.5e-13, 6.0e-13 and
        # 3.0e-13, and sign flips alone in place of quarter turns 3.0e-13 in the bulk
        [(400, 2 + 0.01j, 1e-13), (2000, 2 + 0.01j, 1e-13), (2000, 2 + 1e-4j, 1e-12),
         (2000, 0.01j, 1e-13)],
    )
    def test_row_matches_mpmath_thomas_solve(self, route, N, z, tol):
        ref = N // 2
        exact = _thomas_row(N, z, ref)
        row = route(om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), z), ref)
        keep = np.abs(exact) > 1e-13 * np.max(np.abs(exact))
        assert np.max(np.abs(row[keep] / exact[keep] - 1)) <= tol

    def test_row_matches_pivot_oracle(self):
        J = _varying(2000)
        oracle = om.TridiagonalResolvent(J).row(700)
        keep = np.abs(oracle) > 1e-13 * np.max(np.abs(oracle))
        rel = np.abs(_padded_row(J, 700)[keep] / oracle[keep] - 1)
        assert np.max(rel) <= 1e-10

    def test_fit_builds_no_entry_oracle(self, monkeypatch):
        def refuse(self, J):
            raise AssertionError("decay_profile built a TridiagonalResolvent")

        monkeypatch.setattr(om.TridiagonalResolvent, "__init__", refuse)
        N = 400
        fit = om.decay_profile(om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2 + 0.01j), 200)
        assert fit.n_points == N - 1

    @pytest.mark.parametrize("N", [100, 400, 1000])
    def test_fit_is_the_exact_least_squares_line(self, N, monkeypatch):
        # N = 400 is the decay golden file's matrix; no BLAS solve may run
        mpmath = pytest.importorskip("mpmath")

        def refuse(*args, **kwargs):
            raise AssertionError("decay_profile called a least-squares solver")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2 + 0.01j)
        fit = om.decay_profile(J, N // 2)
        with mpmath.workdps(50):
            x = [mpmath.mpf(int(d)) for d in fit.distances]
            y = [mpmath.mpf(float(v)) for v in fit.log_abs]
            xbar, ybar = mpmath.fsum(x) / len(x), mpmath.fsum(y) / len(y)
            slope = mpmath.fsum((u - xbar) * (v - ybar) for u, v in zip(x, y)) / mpmath.fsum(
                (u - xbar) ** 2 for u in x)
            for got, exact in ((fit.rate, -slope), (fit.intercept, ybar - slope * xbar)):
                assert abs(got - exact) <= math.ulp(float(exact))

    def test_rejects_degenerate_fits(self):
        N = 400
        # at n^alpha = 1e-8 only the two neighbours of the row clear the floor:
        # one distance, so a slope would be meaningless
        tiny = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 1e8j)
        with pytest.raises(InvalidParams, match="two distinct distances"):
            om.decay_profile(tiny, ref_row=N // 2)
        with pytest.raises(InvalidParams, match="two distinct distances"):
            om.decay_profile(om.TridiagonalMatrix([0.0, 0.0], [1.0], 0.5j), ref_row=1)
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.0 + 0.1j)
        for ref in (0, N + 1):
            with pytest.raises(InvalidParams, match="row index"):
                om.decay_profile(J, ref_row=ref)
        with pytest.raises(InvalidParams, match="Im z"):
            om.decay_profile(om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 2.5), N // 2)


def _full_row(J, ref):
    """Row ``ref`` of J^-1 from one scipy banded solve on all N rows."""
    e_ref = np.zeros(J.N, dtype=complex)
    e_ref[ref - 1] = 1.0
    return solve_banded((1, 1), J.banded(), e_ref)


def _free(N, z):
    return om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), z)


_BIG = 10 ** 5
_WINDOW_CASES = {
    # (matrix, ref): each cut end, both ends, the bulk's bottom cut, and no cut at all
    "ref-1": (lambda: _free(_BIG, 2 + 1j / 1e3), 1),
    "ref-N": (lambda: _free(_BIG, 2 + 1j / 1e3), _BIG),
    "varying": (lambda: _varying(2000), 700),
    "varying-both-cuts": (lambda: _varying(_BIG), _BIG // 2),
    "bulk-ref-1": (lambda: _free(_BIG, 0.01j), 1),
    "never-cut": (lambda: _free(_BIG, 2 + 1e-8j), _BIG // 2),
}


class TestDecayWindow:
    """``_resolvent_row`` solves a window around the row, not all N rows."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        """Rows of each system that ``tridiagonal.solve_banded`` is asked to solve."""
        seen, real = [], tridiagonal.solve_banded

        def spy(l_and_u, ab, b, **kwargs):
            seen.append(len(b))
            return real(l_and_u, ab, b, **kwargs)

        monkeypatch.setattr(tridiagonal, "solve_banded", spy)
        return seen

    def test_benchmark_row_solves_no_system_above_4097_rows(self, sizes):
        om.decay_profile(_free(_BIG, 2 + 1j / 1e2), _BIG // 2)
        assert sizes and max(sizes) <= 4097

    def test_golden_row_never_reaches_the_cut(self, sizes):
        # decay_n400's matrix: the first window already holds all 400 rows
        om.decay_profile(_free(400, 2 + 1j / 1e2), 200)
        assert sizes == [400]

    @pytest.mark.parametrize("case", list(_WINDOW_CASES))
    def test_kept_entries_are_the_full_solve_bits(self, case):
        make, ref = _WINDOW_CASES[case]
        J = make()
        lo, x = _resolvent_row(J, ref)
        full = _full_row(J, ref)
        mags = np.abs(full)
        keep = np.flatnonzero(mags > tridiagonal._DECAY_FLOOR * mags.max())
        assert lo - 1 <= keep[0] and keep[-1] < lo - 1 + len(x)
        assert x[keep - (lo - 1)].tobytes() == full[keep].tobytes()
        if case == "never-cut":
            assert (lo, x.tobytes()) == (1, full.tobytes())

    def test_bulk_row_differs_from_the_full_solve_by_rounding_only(self):
        # in the bulk the forward pivot recursion barely contracts, so the rounding
        # of the rows above the window is never forgotten: at z = 0.01i the kept
        # entries of the two solves read 1.2e-14 apart, and both 3.9e-13 from a
        # 40-digit Thomas solve of the window (the rows left out are below 2^-53
        # of every kept entry)
        ref = _BIG // 2
        J = _free(_BIG, 0.01j)
        lo, x = _resolvent_row(J, ref)
        assert lo > 1 and lo - 1 + len(x) < _BIG
        full = _full_row(J, ref)[lo - 1 : lo - 1 + len(x)]
        exact = _thomas_row(len(x), 0.01j, ref - lo + 1)
        keep = np.abs(exact) > 1e-13 * np.max(np.abs(exact))
        assert np.max(np.abs(x[keep] / full[keep] - 1)) <= 5e-14
        for row in (x, full):
            assert np.max(np.abs(row[keep] / exact[keep] - 1)) <= 1e-12

    @pytest.mark.parametrize(
        "n_alpha, ref", [(1e2, _BIG // 2), (1e3, _BIG // 2), (1e4, _BIG // 2), (1e2, 1),
                         (1e3, _BIG)],
    )
    def test_fit_is_the_full_row_fit(self, n_alpha, ref, monkeypatch):
        # the benchmark's three decay matrices and both ends: the same bytes as a
        # fit of the N-row solve
        J = _free(_BIG, 2 + 1j / n_alpha)
        windowed = om.decay_profile(J, ref)
        mags = np.abs(_full_row(J, ref))
        dist = np.abs(np.arange(1, _BIG + 1) - ref)
        kept = (dist > 0) & (mags > tridiagonal._DECAY_FLOOR * mags.max())
        assert windowed.distances.tobytes() == dist[kept].tobytes()
        assert windowed.log_abs.tobytes() == np.log(mags[kept]).tobytes()
        monkeypatch.setattr(tridiagonal, "_resolvent_row", lambda J, ref: (1, _full_row(J, ref)))
        full = om.decay_profile(J, ref)
        assert (windowed.rate, windowed.intercept, windowed.n_points) == (
            full.rate, full.intercept, full.n_points)
        assert windowed.distances.tobytes() == full.distances.tobytes()
        assert windowed.log_abs.tobytes() == full.log_abs.tobytes()


def _plain_pivots(b, a2):
    """p_1 = b_1, p_i = b_i - a_{i-1}^2 / p_{i-1}: the recursion with no zero-pivot guard."""
    p = [b[0]]
    for i in range(1, len(b)):
        p.append(b[i] - a2[i - 1] / p[i - 1])
    return np.array(p)


class TestPivots:
    def test_match_a_plain_loop_bit_for_bit(self):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            J = _random_matrix(rng)
            b, a2 = J.diag - J.shift, J.offdiag * J.offdiag
            for bb, aa in ((b, a2), (b[::-1], a2[::-1])):
                got = np.array(tridiagonal._pivots(bb, aa))
                assert got.tobytes() == _plain_pivots(bb, aa).tobytes()
            res = om.TridiagonalResolvent(J)
            assert res._delta.tobytes() == _plain_pivots(b, a2).tobytes()
            assert res._d.tobytes() == _plain_pivots(b[::-1], a2[::-1])[::-1].tobytes()

    @given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1), st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_count_below_matches_dense_eigenvalues(self, N, seed, x):
        rng = np.random.default_rng(seed)
        J = om.TridiagonalMatrix(rng.uniform(-2, 2, size=N), rng.uniform(-2, 2, size=N - 1))
        lam = np.linalg.eigvalsh(J.to_dense())
        assume(np.min(np.abs(lam - x)) >= 1e-8)
        assert tridiagonal._count_below(J, x) == int(np.sum(lam < x))


def _broadcast_dense(u, v, U, V):
    """``_semiseparable`` over the full index grid: the one-triangle assembly's reference."""
    idx = np.arange(len(u))
    return tridiagonal._semiseparable(u, v, U, V, idx[:, None], idx)


def _split_fixture(N, regime):
    k = np.arange(N)
    if regime == "positive":      # Re(b - z) > 0 on every row
        return om.TridiagonalMatrix(2.5 + 1e-4 * k / N, 1 + 1e-4 * k[:-1] / N, 0.05j)
    rng = np.random.default_rng(N)  # Re(b - z) < 0: C and D grow to ~1e67 at N = 1000
    return om.TridiagonalMatrix(
        -2.0 + 0.01 * rng.uniform(-1, 1, N), 1 + 0.01 * rng.uniform(-1, 1, N - 1), 0.01j
    )


@pytest.mark.parametrize("regime", ["positive", "negative"])
class TestOneTriangle:
    @pytest.mark.parametrize("N", [1, 2, 4, 37, 1000])
    def test_dense_is_the_broadcast_formula(self, N, regime):
        res = om.TridiagonalResolvent(_split_fixture(N, regime))
        assert (res.dense() == _broadcast_dense(res._S.conj(), res._S, res._U, res._V)).all()

    @pytest.mark.parametrize("N", [4, 37, 1000])
    def test_split_is_the_broadcast_formula(self, N, regime):
        # T is built from the entry oracle's R, so H is that R minus T, to the bit
        J = _split_fixture(N, regime)
        dec = om.almost_toeplitz_decompose(J)
        assert (dec.H == om.TridiagonalResolvent(J).dense() - dec.T).all()
        sign_fails = dec.diagnostics.reason == "Re(b_j - z) > 0 fails on some row"
        assert sign_fails == (regime == "negative")


def _criterion_10_fixtures():
    """The same 50 draws as acceptance.criterion_10_resolvent_norm."""
    rng = np.random.default_rng(5150)
    for _ in range(50):
        N = int(rng.integers(5, 200))
        diag = rng.uniform(-3, 3, size=N)
        off = rng.uniform(0.1, 2.0, size=N - 1)
        z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
        yield om.TridiagonalMatrix(diag, off, z)


class TestResolventNorm:
    @pytest.mark.parametrize("N", [1, 2])
    def test_smallest_sizes(self, N):
        J = om.TridiagonalMatrix([0.5, -1.5][:N], [0.7][: N - 1], 0.2 + 0.3j)
        est = om.resolvent_norm_estimate(J)
        assert est == pytest.approx(np.linalg.norm(om.invert_dense_oracle(J), 2), rel=1e-12)

    def test_matches_dense_two_norm_on_criterion_10_fixtures(self):
        for J in _criterion_10_fixtures():
            est = om.resolvent_norm_estimate(J)
            assert est == pytest.approx(np.linalg.norm(om.invert_dense_oracle(J), 2), rel=1e-12)

    @pytest.mark.parametrize("x, k", [(0.0, 3), (-5.0, 0), (5.0, 5)],
                             ids=["on-eigenvalue", "below-spectrum", "above-spectrum"])
    def test_free_matrix_at_and_beyond_the_spectrum(self, x, k):
        # free N = 5 has eigenvalues 2 cos(j pi / 6): Re z = 0 is one of them, so
        # the pivot sweep meets an exact zero pivot, which must raise no
        # RuntimeWarning (an error under this suite's settings)
        J = om.TridiagonalMatrix(np.zeros(5), np.ones(4), complex(x, 0.1))
        assert tridiagonal._count_below(J, x) == k
        lam = 2 * np.cos(np.arange(1, 6) * np.pi / 6)
        assert om.resolvent_norm_estimate(J) == pytest.approx(
            1 / np.min(np.abs(lam - J.shift)), rel=1e-12)

    def test_free_matrix_above_the_dense_cap(self):
        N = 10 ** 5
        J = om.TridiagonalMatrix(np.zeros(N), np.ones(N - 1), 0.3 + 1e-3j)
        lam = 2 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
        assert om.resolvent_norm_estimate(J) == pytest.approx(
            1 / np.min(np.abs(lam - J.shift)), rel=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_imaginary_part(self, seed):
        rng = np.random.default_rng(seed)
        J = _random_matrix(rng, n_max=120, im_lo=0.05, im_hi=2.0)
        est = om.resolvent_norm_estimate(J)
        assert est * abs(J.shift.imag) <= 1 + 1e-12
        assert est == pytest.approx(np.linalg.norm(om.invert_dense_oracle(J), 2), rel=1e-12)


class TestSerialization:
    def test_shape_validation(self):
        with pytest.raises(InvalidParams):
            om.TridiagonalMatrix([1.0, 2.0], [1.0, 2.0], 0.0)

    def test_non_finite_entries_refused(self):
        for diag, off, z in (([math.nan, 0.0], [1.0], 1j), ([0.0, 0.0], [math.inf], 1j),
                             ([0.0, 0.0], [1.0], complex(0, math.nan))):
            with pytest.raises(InvalidParams, match="finite"):
                om.TridiagonalMatrix(diag, off, z)


def test_oracle_equivalence_bulk_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        J = _random_matrix(rng)
        oracle = om.invert_dense_oracle(J)
        rec = om.TridiagonalResolvent(J).dense()
        assert np.max(np.abs(rec - oracle)) <= 1e-10 * np.max(np.abs(oracle))

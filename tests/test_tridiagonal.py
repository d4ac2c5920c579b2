"""Tridiagonal core: recursions vs dense oracle, transfer data, decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opemeso as om
from opemeso.errors import InvalidParams, Singular


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

    def test_real_shift_needs_oracle_blessing(self):
        # singular at z = 0: [[1, 1], [1, 1]]
        J = om.TridiagonalMatrix([1.0, 1.0], [1.0], 0.0)
        with pytest.raises(Singular):
            om.TridiagonalResolvent(J)
        # well-conditioned real-shift matrices are allowed through
        J2 = om.TridiagonalMatrix([3.0, -2.0], [0.5], 0.0)
        dense = om.TridiagonalResolvent(J2).dense()
        assert np.allclose(dense @ J2.to_dense(), np.eye(2), atol=1e-12)


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
        for j, k in [(3, 5), (8, 8), (2, 10), (15, 15), (4, 20)]:
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

    def test_diagnostics_fields(self):
        N = 50
        J = om.TridiagonalMatrix(2.0 * np.ones(N), np.ones(N - 1), 0.1j)
        d = om.almost_toeplitz_decompose(J).diagnostics
        assert d.c0 == 1.0
        assert d.c2 >= 1.0
        assert 0 <= d.eps2 < 1
        assert math.isfinite(d.bound_constant)


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


class TestResolventNorm:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_imaginary_part(self, seed):
        rng = np.random.default_rng(seed)
        J = _random_matrix(rng, n_max=120, im_lo=0.05, im_hi=2.0)
        est = om.resolvent_norm_estimate(J)
        assert est * abs(J.shift.imag) <= 1 + 1e-6
        # and it finds the norm: the power iteration must reach most of it
        assert est >= 0.9 * np.linalg.norm(om.invert_dense_oracle(J), 2)


class TestSerialization:
    def test_shape_validation(self):
        with pytest.raises(InvalidParams):
            om.TridiagonalMatrix([1.0, 2.0], [1.0, 2.0], 0.0)


def test_oracle_equivalence_bulk_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        J = _random_matrix(rng)
        oracle = om.invert_dense_oracle(J)
        rec = om.TridiagonalResolvent(J).dense()
        assert np.max(np.abs(rec - oracle)) <= 1e-10 * np.max(np.abs(oracle))

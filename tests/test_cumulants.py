"""Cumulant engine: window operator, trace identities, convergence behaviour."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

import opemeso as om
from opemeso import cumulants
from opemeso.cumulants import (
    _F_PANEL,
    _compositions,
    _cumulant_raw,
    _first_coupled_row,
)
from opemeso.ensembles import hypothesis_window
from opemeso.errors import InvalidParams, WindowTooSmall
from opemeso.tridiagonal import TridiagonalMatrix

IM_G = om.parse_test_function("im:1/(x-i)")
EDGE_R = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
EDGE_X0 = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=2.0)
# finite weights whose window operator overflows, or only its power blocks
HUGE_NEAR_AXIS = om.parse_test_function("im:1e308/(x-0.01i)")
HUGE = om.parse_test_function("im:1e200/(x-i)")

# pinned after the first run of this fixture (chebyshev2, n=200, x0=2,
# f = Im 1/(x-i)); the independent dense-oracle path reproduces it below
GOLDEN_SCALED_C2_N200 = 0.0926364116279435


class TestBuildF:
    def test_real_symmetric(self):
        F = om.build_F(om.chebyshev2(), 100, EDGE_R, IM_G)
        assert F.dtype == np.float64
        assert np.max(np.abs(F - F.T)) < 1e-13

    def test_zero_weights_zero_matrix(self):
        f = om.ResolventTestFunction((1j,), (0.0,))
        F = om.build_F(om.chebyshev2(), 50, EDGE_R, f)
        assert np.all(F == 0.0)

    def test_operator_norm_bounded(self):
        n = 150
        F = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G)
        bound = n ** EDGE_R.alpha * sum(
            abs(c / e.imag) for c, e in zip(*IM_G.expanded())
        )
        assert om.operator_norm_estimate(F) <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("n, expected", [(200, 14.122103344360665), (2000, 44.684117)])
    def test_operator_norm_estimate_is_a_low_lower_bound(self, n, expected):
        # 50 power steps stop short of ||F||_2 where the top eigenvalues
        # cluster (14.1420, 14.1405, 14.1340 at n = 200): 0.14 % low at the
        # golden case, 0.08 % low at n = 2000
        F = om.build_F(om.chebyshev2(), n, EDGE_X0, IM_G)
        estimate = om.operator_norm_estimate(F)
        norm = np.max(np.abs(np.linalg.eigvalsh(F)))
        assert estimate == pytest.approx(expected, rel=1e-7)
        assert 0.99 * norm <= estimate <= (1 + 1e-12) * norm
        assert estimate < norm * (1 - 5e-4)

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            om.build_F(om.chebyshev2(), 100, EDGE_R, IM_G, window=(1, 103))

    def test_oversized_window_rejected_before_allocating(self):
        # the default window at n = 1e5 would need a dense 1e5 x 1e5 matrix
        with pytest.raises(InvalidParams, match="window operator capped at N = 5000"):
            om.build_F(om.chebyshev2(), 100_000, EDGE_R, IM_G)

    def test_two_sided_block(self):
        n = 120
        F1 = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G)
        F2 = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G, two_sided=True)
        lo = n - om.default_margin(n, EDGE_R)
        # the two truncation styles agree up to the exponentially small
        # truncation scale exp(-2 rate margin) ~ 2e-4 at this size
        c1 = om.cumulant(F1, n, 2)
        c2 = om.cumulant(F2, n - lo + 1, 2)
        assert c2 == pytest.approx(c1, rel=1e-3)

    def test_two_sided_identity_block_for_re_type(self):
        # a re-type test function has a nonzero mean, but the two-sided window
        # is its own 2 margin + 1 rows and the second cumulant stays invariant
        # (the mean does not: the local window's C_1 is its trace over lo..n)
        f = om.parse_test_function("re:1/(x-i)")
        n = 100
        m = om.default_margin(n, EDGE_R)
        F1 = om.build_F(om.chebyshev2(), n, EDGE_R, f)
        F2 = om.build_F(om.chebyshev2(), n, EDGE_R, f, two_sided=True)
        assert F2.shape == (2 * m + 1, 2 * m + 1)
        assert om.cumulant(F2, m + 1, 2) == pytest.approx(om.cumulant(F1, n, 2), rel=1e-3)

    @pytest.mark.parametrize("spec", [
        om.hermite(), om.laguerre(0.0), om.chebyshev2(), om.krawtchouk(0.3, 3.0),
    ], ids=["hermite", "laguerre", "chebyshev2", "krawtchouk"])
    @pytest.mark.parametrize("kind", ["im", "re"])
    def test_two_sided_matches_one_sided_c2(self, spec, kind):
        n = 1000
        f = om.parse_test_function(f"{kind}:1/(x-i)")
        m = om.default_margin(n, EDGE_R)
        F1 = om.build_F(spec, n, EDGE_R, f)
        F2 = om.build_F(spec, n, EDGE_R, f, two_sided=True)
        assert F2.shape == (2 * m + 1, 2 * m + 1)
        assert om.cumulant(F2, m + 1, 2) == pytest.approx(om.cumulant(F1, n, 2), rel=2e-4)

    @pytest.mark.parametrize("spec", [om.hermite(), om.chebyshev2()], ids=["hermite", "chebyshev2"])
    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_two_sided_at_large_n(self, spec, n):
        # the dense two-sided route past the one-sided cap: scaled C_2 of
        # Im 1/(x-i) at the soft edge tends to 3/32
        m = om.default_margin(n, EDGE_R)
        F = om.build_F(spec, n, EDGE_R, IM_G, two_sided=True)
        assert F.shape == (2 * m + 1, 2 * m + 1)
        assert om.cumulant(F, m + 1, 2) / n == pytest.approx(3 / 32, rel=1e-3)

    def test_wide_explicit_window_refused_before_allocating(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("the refused window was built")

        n = 10_000
        monkeypatch.setattr(cumulants, "jacobi_window", unreached)
        with pytest.raises(InvalidParams, match="window operator capped at N = 5000, got N = 6001"):
            om.build_F(om.hermite(), n, EDGE_R, IM_G, window=(n - 3000, n + 3000))

    def test_dense_oracle_route(self):
        # independent construction: dense solve on the same window
        n, margin = 60, 30
        W = n + margin
        diag, off = om.jacobi_window(om.chebyshev2(), n, 1, W)
        z = 2.0 + 1j / n ** 0.5
        A = np.diag(diag.astype(complex)) - z * np.eye(W)
        idx = np.arange(W - 1)
        A[idx, idx + 1] = off
        A[idx + 1, idx] = off
        expected = 2 * np.real(np.linalg.inv(A) / 2j)
        F = om.build_F(
            om.chebyshev2(),
            n,
            om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=2.0, epsilon=0.1),
            IM_G,
            window=(1, W),
        )
        assert np.max(np.abs(F - expected)) < 1e-11


def whole_identity_F(spec, n, edge, f, lo, hi):
    """build_F's arithmetic with one solve against the whole identity per pole pair."""
    diag, off = om.jacobi_window(spec, n, lo, hi)
    c, eta = f.expanded()
    x0, n_alpha = edge.center(spec, n), float(n) ** edge.alpha
    F = np.zeros((hi - lo + 1, hi - lo + 1))
    for r in range(len(c) // 2):
        ab = TridiagonalMatrix(diag, off, x0 + eta[r] / n_alpha).banded()
        eye = np.eye(hi - lo + 1, dtype=complex, order="F")
        resolvent = solve_banded((1, 1), ab, eye, overwrite_b=True)
        resolvent *= c[r]
        resolvent.real *= 2.0
        F += resolvent.real
    return F


class TestBuildFPanels:
    """build_F's column panels reproduce the whole-identity solve byte for byte."""

    TWO_PAIRS = om.parse_test_function("im:1/(x-i)+re:0.5/(x-0.4+2i)")

    @pytest.mark.parametrize("spec, n, f, window", [
        # one-sided: 332 rows, two full panels and a ragged 76-column one
        (om.chebyshev2(), 300, IM_G, (1, 332)),
        # two-sided: the 364 window rows alone
        (om.chebyshev2(), 300, IM_G, (37, 400)),
        # two pole pairs, each summed panel by panel
        (om.hermite(), 250, TWO_PAIRS, (1, 400)),
    ], ids=["one-sided-ragged", "two-sided", "two-pole-pairs"])
    def test_matches_whole_identity_solve(self, spec, n, f, window):
        lo, hi = window
        rows = hi - lo + 1
        assert rows > 2 * _F_PANEL and rows % _F_PANEL != 0
        F = om.build_F(spec, n, EDGE_R, f, window=window)
        expected = whole_identity_F(spec, n, EDGE_R, f, lo, hi)
        assert F.tobytes() == expected.tobytes()

    def test_peak_memory_stays_near_F(self):
        # solving against the whole complex identity peaked at 3.13 x F
        tracemalloc.start()
        try:
            F = om.build_F(om.chebyshev2(), 1000, EDGE_R, IM_G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * F.nbytes


class TestCumulantIdentities:
    def test_compositions_count(self):
        # number of compositions of m into >= 2 parts is 2^(m-1) - 1
        for m in (2, 3, 4, 5, 6):
            assert len(list(_compositions(m))) == 2 ** (m - 1) - 1

    def test_second_cumulant_three_ways(self):
        F = om.build_F(om.chebyshev2(), 200, EDGE_R, IM_G)
        comp, qform, comm = om.second_cumulant_three_ways(F, 200)
        scale = abs(comp)
        assert abs(comp - qform) < 1e-10 * scale
        assert abs(comp - comm) < 1e-10 * scale
        assert comp >= 0

    def test_connected_equals_raw(self):
        F = om.build_F(om.hermite(), 150, EDGE_R, IM_G)
        for m in (2, 3, 4):
            a = om.cumulant(F, 150, m)
            b = _cumulant_raw(F, 150, m)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_nonnegative_variance_any_symmetric(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 40))
        A = A + A.T
        assert om.cumulant(A, 25, 2) >= 0

    def test_golden_scaled_c2(self):
        F = om.build_F(om.chebyshev2(), 200, EDGE_R, IM_G)
        val = om.cumulant(F, 200, 2) / 200.0
        assert val == pytest.approx(GOLDEN_SCALED_C2_N200, rel=1e-12)

    def test_first_cumulant_is_projected_trace(self):
        n = 80
        F = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G)
        assert om.cumulant(F, n, 1) == pytest.approx(np.trace(F[:n, :n]), rel=1e-13)

    def test_order_cap(self):
        F = np.zeros((10, 10))
        with pytest.raises(InvalidParams):
            om.cumulant(F, 5, 7)
        # an F with fewer than n rows is refused at every order and by the
        # oracle, not summed as a partial trace
        for fn, m in ((om.cumulant, 1), (om.cumulant, 3), (_cumulant_raw, 2)):
            with pytest.raises(InvalidParams, match="smaller than n"):
                fn(np.eye(10), 20, m)
        # n < 1 is refused, not read through Python's negative slicing (at
        # n = -3 this F of 124 rows gave C_2 of n = 121)
        F = om.build_F(om.chebyshev2(), 100, EDGE_R, IM_G)
        for n in (-3, 0):
            for check in (lambda: om.cumulant(F, n, 2), lambda: om.cumulant(F, n, 1),
                          lambda: _cumulant_raw(F, n, 2),
                          lambda: om.second_cumulant_three_ways(F, n),
                          lambda: om.cumulant_bound_check(F, n, 3),
                          lambda: om.build_F(om.chebyshev2(), n, EDGE_R, IM_G),
                          lambda: om.build_F(om.chebyshev2(), n, EDGE_R, IM_G, window=(1, 50)),
                          lambda: om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [n, 100]),
                          lambda: om.default_margin(n, EDGE_R),
                          lambda: hypothesis_window(n, 0.5, 0.1)):
                with pytest.raises(InvalidParams, match="n >= 1"):
                    check()


class TestBoundCheck:
    def test_chebyshev_slack(self):
        F = om.build_F(om.chebyshev2(), 200, EDGE_R, IM_G)
        rep = om.cumulant_bound_check(F, 200, 3)
        assert rep.holds and rep.slack >= 1

    def test_zero_operator(self):
        rep = om.cumulant_bound_check(np.zeros((30, 30)), 20, 4)
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_gue_m4(self):
        F = om.build_F(om.hermite(), 200, EDGE_R, IM_G)
        assert om.cumulant_bound_check(F, 200, 4).holds

    def test_m2_rejected(self):
        with pytest.raises(InvalidParams):
            om.cumulant_bound_check(np.zeros((5, 5)), 3, 2)


class TestStability:
    def test_window_doubling_invariance(self):
        n = 200
        margin = om.default_margin(n, EDGE_R)
        F1 = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G, window=(1, n + margin))
        F2 = om.build_F(om.chebyshev2(), n, EDGE_R, IM_G, window=(1, n + 2 * margin))
        c1 = om.cumulant(F1, n, 2)
        c2 = om.cumulant(F2, n, 2)
        # truncation tail at the default margin sits at the few-1e-4 level here
        assert abs(c2 / c1 - 1) < 5e-4

    def test_x0_perturbation_window_clause(self):
        # shifting x0 by n^(-alpha-1/2) moves the scaled variance at the
        # n^(-1/2) scale (2.2% at n=1000, improving like n^(-1/2))
        f = IM_G
        n = 1000
        base = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=2.0, epsilon=0.1)
        moved = om.EdgeSpec(
            side=om.Side.RIGHT, alpha=0.5, x0=2.0 + n ** -1.0, epsilon=0.1
        )
        v1 = om.cumulant(om.build_F(om.chebyshev2(), n, base, f), n, 2)
        v2 = om.cumulant(om.build_F(om.chebyshev2(), n, moved, f), n, 2)
        assert abs(v2 / v1 - 1) < 0.03

    def test_left_right_reflection_symmetry(self):
        f = om.ResolventTestFunction((0.4 + 0.8j, -1 + 1.5j), (1.0, 0.7))
        n = 400
        edge_l = om.EdgeSpec(side=om.Side.LEFT, alpha=0.5, epsilon=0.1)
        edge_r = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        v_l = om.cumulant(om.build_F(om.chebyshev2(), n, edge_l, f), n, 2)
        v_r = om.cumulant(om.build_F(om.chebyshev2(), n, edge_r, f.reflected()), n, 2)
        assert v_l == pytest.approx(v_r, rel=1e-12)


class TestSweep:
    def test_report_fields_and_scaling(self):
        reports = om.convergence_sweep(
            om.chebyshev2(), EDGE_R, IM_G, [100, 200], m_max=3
        )
        assert [r.n for r in reports] == [100, 200]
        for rep in reports:
            assert set(rep.scaled_cumulants) == {1, 2, 3}
            F = om.build_F(om.chebyshev2(), rep.n, EDGE_R, IM_G, window=rep.window)
            expected_m1 = np.trace(F[: rep.n, : rep.n]) / rep.n ** 0.5
            assert rep.scaled_cumulants[1] == pytest.approx(expected_m1, rel=1e-12)
            assert rep.scaled_cumulants[2] >= -1e-12

    def test_windows_are_the_default_window(self):
        reports = om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [40, 100, 200], m_max=2)
        assert [r.window for r in reports] == [
            (1, n + om.default_margin(n, EDGE_R)) for n in (40, 100, 200)
        ]

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParams):
            om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [200, 100])
        with pytest.raises(InvalidParams):
            om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [100], m_max=7)

    def test_csv_and_json(self):
        rep = om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [100], m_max=2)[0]
        rows = list(rep.csv_rows())
        assert rows[0][0] == 100 and rows[0][2] == 1
        payload = rep.to_json()
        assert payload["schema"] == 1
        assert payload["scaled_cumulants"]["2"] == rep.scaled_cumulants[2]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the default margin biases C2 low")
    def test_default_margin_matches_eight_margins(self):
        # Laguerre gamma = 0 at the right edge: the sweep's 1x-margin C2 reads
        # 0.0280045, the 8x-margin window 0.0337533, 17 % apart
        spec, n = om.laguerre(0.0), 200
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5)
        f = om.parse_test_function("re:1/(x-i)")
        swept = om.convergence_sweep(spec, edge, f, [n], m_max=2)[0].scaled_cumulants[2]
        window = (1, n + 8 * om.default_margin(n, edge))
        wide = om.cumulant(om.build_F(spec, n, edge, f, window=window), n, 2) / n
        assert swept == pytest.approx(wide, rel=1e-3)

    CHEB_N200 = [
        "cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5",
        "--n", "200", "--m-max", "4", "--f", "im:1/(x-i)",
    ]
    GOLDEN_RUNS = {
        "chebyshev_n200_img.csv": CHEB_N200,
        # the JSON report also carries the window and the op-norm estimate
        "chebyshev_n200_img.json": [*CHEB_N200, "--format", "json"],
        "hermite_n100_sample.json": [
            "sample", "--ensemble", "hermite", "--alpha", "0.4", "--n", "100",
            "--count", "200", "--seed", "7", "--f", "im:1/(x-i)",
        ],
        # decay and fit also write a <output>.fit.json sidecar, pinned alongside
        "decay_n400.csv": ["decay", "--n-alpha", "100", "--x0", "2.0", "--size", "400"],
        "fit_hat_p8.csv": ["fit", "--target", "hat:0,1", "--poles", "8"],
        "variance_left_residue.json": [
            "variance-limit", "--f", "im:1/(x-i)", "--side", "left", "--method", "residue",
        ],
        # the quadrature's est_error holds the tail bound lw(f)^2, so this pins the norm
        "variance_right_both.json": [
            "variance-limit", "--f", "im:1/(x-i)", "--side", "right", "--method", "both",
        ],
        "hypotheses_hermite_n1000.json": [
            "hypotheses", "--ensemble", "hermite", "--alpha", "0.5", "--n", "1000",
        ],
    }

    @pytest.mark.parametrize("golden", list(GOLDEN_RUNS))
    def test_golden_file(self, tmp_path, golden):
        # byte-for-byte stability of the pinned fixtures and their sidecars
        from pathlib import Path

        from opemeso.cli import main

        assert main([*self.GOLDEN_RUNS[golden], "-o", str(tmp_path / golden)]) == 0
        golden_dir = Path(__file__).parent / "golden"
        written = sorted(
            p.name for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json")
        )
        assert written == sorted(p.name for p in golden_dir.glob(golden + "*"))
        for name in written:
            assert (tmp_path / name).read_bytes() == (golden_dir / name).read_bytes(), name


class TestSweepCut:
    """The sweep's C_{m>=2} on the coupled block against the full-window oracle."""

    RE_G = om.parse_test_function("re:1/(x-i)")
    TWO_POLE = om.parse_test_function("im:1/(x-i)+re:0.5/(x-0.4+2i)")

    @staticmethod
    def check_against_full_window(spec, edge, f, n, m_max):
        rep = om.convergence_sweep(spec, edge, f, [n], m_max=m_max)[0]
        F = om.build_F(spec, n, edge, f, window=rep.window)
        n_alpha = n ** edge.alpha
        assert rep.scaled_cumulants[1] == om.cumulant(F, n, 1) / n_alpha
        assert rep.op_norm_estimate == om.operator_norm_estimate(F)
        c2 = abs(rep.scaled_cumulants[2])
        for m in range(2, m_max + 1):
            full = om.cumulant(F, n, m) / n_alpha ** m
            assert abs(rep.scaled_cumulants[m] - full) <= 1e-12 * c2, m
        return F

    def test_chebyshev_large_n_block_is_small(self):
        n = 2000
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=2.0, epsilon=0.1)
        F = self.check_against_full_window(om.chebyshev2(), edge, IM_G, n, 4)
        assert F.shape[0] - _first_coupled_row(F, n) < F.shape[0] / 3

    def test_hermite_two_pole_order_six(self):
        n = 600
        F = self.check_against_full_window(om.hermite(), EDGE_R, self.TWO_POLE, n, 6)
        assert _first_coupled_row(F, n) > 0

    @pytest.mark.parametrize("side", [om.Side.LEFT, om.Side.RIGHT])
    def test_laguerre_both_edges_re(self, side):
        n = 300
        edge = om.EdgeSpec(side=side, alpha=0.5, epsilon=0.1)
        F = self.check_against_full_window(om.laguerre(0.0), edge, self.RE_G, n, 4)
        assert _first_coupled_row(F, n) > 0

    def test_chebyshev_left_edge(self):
        n = 500
        edge = om.EdgeSpec(side=om.Side.LEFT, alpha=0.5, epsilon=0.1)
        F = self.check_against_full_window(om.chebyshev2(), edge, IM_G, n, 4)
        assert _first_coupled_row(F, n) > 0

    def test_bulk_point_decays_slowly(self):
        # at x0 = 0 the resolvent decays slowly, so every row couples to n
        n = 400
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=0.0, epsilon=0.1)
        F = self.check_against_full_window(om.chebyshev2(), edge, IM_G, n, 4)
        assert _first_coupled_row(F, n) == 0

    def test_zero_operator_is_not_cut(self):
        assert _first_coupled_row(np.zeros((30, 30)), 20) == 0

    def test_cut_is_whole_panels_below_n(self):
        # a tridiagonal F couples only row n - 1 to the rows >= n
        F = np.eye(300) + np.diag(np.ones(299), 1) + np.diag(np.ones(299), -1)
        assert _first_coupled_row(F, 200) == 192


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: om.build_F(om.chebyshev2(), 100, EDGE_R, IM_G, window=(0, 120)), "1 <= lo"),
        (lambda: om.build_F(om.chebyshev2(), 100, EDGE_R, IM_G, window=(1, 100)), "hi > n"),
        # windows above row n once gave C_1 = C_2 = 0.0
        (lambda: om.build_F(om.chebyshev2(), 100, EDGE_X0, IM_G, window=(150, 200)), "1 <= lo <= n"),
        (lambda: om.build_F(om.chebyshev2(), 100, EDGE_X0, IM_G, window=(101, 200)), "1 <= lo <= n"),
        (lambda: om.cumulant(np.zeros((4, 5)), 2, 2), "square"),
        (lambda: om.build_F(om.chebyshev2(), 50, EDGE_X0, HUGE_NEAR_AXIS),
         "window operator at n = 50 overflows the float range"),
        (lambda: om.convergence_sweep(om.chebyshev2(), EDGE_X0, HUGE, [50]),
         "cumulant sweep at n = 50 overflows the float range"),
    ],
    ids=["window-lo", "window-hi", "window-above-n", "window-from-n+1", "non-square",
         "window-overflow", "sweep-overflow"],
)
def test_refusals(call, match):
    with pytest.raises(InvalidParams, match=match):
        call()

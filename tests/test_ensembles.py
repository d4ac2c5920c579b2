"""Catalog tests: closed forms, edges, hypothesis reports, JSON parsing."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opemeso as om
from opemeso.ensembles import (
    Family,
    hypothesis_window,
    laguerre_rec2_exact_fraction,
)
from opemeso.errors import InvalidParams, OutOfDomain


class TestRecurrence:
    def test_chebyshev_constant(self):
        for j in (1, 5, 117):
            assert om.recurrence(om.chebyshev2(), j, 1) == (1.0, 0.0)
            assert om.recurrence(om.chebyshev2(), j, 999) == (1.0, 0.0)

    def test_laguerre_direct_substitution(self):
        # a = sqrt(4*4)/2, b = (8+1)/2
        assert om.recurrence(om.laguerre(0.0), 4, 2) == (2.0, 4.5)

    def test_hermite_at_j_equals_n(self):
        for n in (3, 64, 1000):
            assert om.recurrence(om.hermite(), n, n) == (1.0, 0.0)

    def test_pure_and_deterministic(self):
        spec = om.laguerre(0.7)
        assert om.recurrence(spec, 13, 40) == om.recurrence(spec, 13, 40)

    def test_tricomi_carlitz(self):
        a, b = om.recurrence(om.tricomi_carlitz(2.0), 5, 20)
        assert a == pytest.approx(math.sqrt(5 * 20 / (6 * 7)))
        assert b == 0.0

    def test_krawtchouk_formula_and_domain(self):
        spec = om.krawtchouk(p=0.5, t=2.0)
        n = 10
        a, b = om.recurrence(spec, 4, n)  # K = 20
        assert a == pytest.approx(math.sqrt((20 - 4 + 1) * 4 * 0.25) / n)
        assert b == pytest.approx(((20 - 4) * 0.5 + 4 * 0.5) / n)
        with pytest.raises(OutOfDomain):
            om.recurrence(spec, 21, n)

    def test_hahn_domain(self):
        spec = om.hahn(0.5, 0.5, 1.0)
        om.recurrence(spec, 10, 10)
        with pytest.raises(OutOfDomain):
            om.recurrence(spec, 11, 10)

    def test_freud_leading_term(self):
        # gamma = 2 reduces to the Hermite shape up to the 1/sqrt(2) weight scale
        spec = om.freud(2.0)
        a, b = om.recurrence(spec, 50, 100)
        assert b == 0.0
        assert a == pytest.approx(math.sqrt(0.5) * math.sqrt(50 / 100))

    def test_log_singular_small_and_large_j(self):
        a1, b1 = om.recurrence(om.log_singular(), 1, 1)
        assert a1 == pytest.approx(0.5 - 1 / 16)
        assert b1 == pytest.approx(0.25)
        a, b = om.recurrence(om.log_singular(), 1000, 1)
        assert a == pytest.approx(0.5, abs=1e-6)
        assert b == pytest.approx(0.0, abs=1e-5)

    def test_custom_callback(self):
        spec = om.custom(lambda j, n: (1.0 + j / n, -0.5))
        assert om.recurrence(spec, 3, 6) == (1.5, -0.5)

    def test_custom_record(self):
        # a callback is a record like any catalog family, read one coefficient at a time
        calls = []

        def coeff(j, n):
            calls.append((j, n))
            return 2.0 * j + n, -j / n

        spec = om.custom(coeff)
        record = spec.record
        assert record.varying is True and spec.varying is True
        assert record.determinate(spec.params) is None and spec.moment_determinate is None
        assert (record.a(spec.params, 3, 4), record.b(spec.params, 3, 4)) == (10.0, -0.75)
        assert calls == [(3, 4), (3, 4)]
        diag, off = om.jacobi_window(spec, 4, 1, 3)
        assert diag.tolist() == [0.0, -0.25, -0.5]
        assert off.tolist() == [6.0, 8.0]

    def test_bad_indices(self):
        with pytest.raises(OutOfDomain):
            om.recurrence(om.chebyshev2(), 0, 5)
        with pytest.raises(OutOfDomain):
            om.recurrence(om.chebyshev2(), 1, 0)


class TestModifiedJacobi:
    def test_chebyshev_u_is_plus_half(self):
        # weight (2-x)^(1/2) (2+x)^(1/2): constant coefficients a=1, b=0
        spec = om.modified_jacobi(0.5, 0.5)
        for j in (1, 2, 9, 40):
            a, b = om.recurrence(spec, j, 1)
            assert a == pytest.approx(1.0, rel=1e-14)
            assert b == pytest.approx(0.0, abs=1e-15)

    def test_chebyshev_t_first_step_exception(self):
        # gamma1 = gamma2 = -1/2 carries the classic sqrt(2) first step
        spec = om.modified_jacobi(-0.5, -0.5)
        a1, _ = om.recurrence(spec, 1, 1)
        assert a1 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        a2, _ = om.recurrence(spec, 2, 1)
        assert a2 == pytest.approx(1.0, rel=1e-14)

    def test_expansion_matches_closed_form(self):
        spec = om.modified_jacobi(0.3, -0.2)
        errs = []
        for j in (50, 100, 200):
            a, b = om.recurrence(spec, j, 1)
            ae, be = om.modified_jacobi_expansion(spec, j)
            errs.append(max(abs(a - ae), abs(b - be)))
        # remainder is O(j^-3): halving j scales the error by ~8
        assert errs[0] <= 1e-5
        assert errs[0] / errs[1] > 5
        assert errs[1] / errs[2] > 5

    def test_expansion_rejects_other_families(self):
        with pytest.raises(InvalidParams):
            om.modified_jacobi_expansion(om.hermite(), 10)


class TestParamValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: om.laguerre(-1.0),
            lambda: om.modified_jacobi(-1.5, 0.0),
            lambda: om.freud(0.0),
            lambda: om.tricomi_carlitz(1.0),
            lambda: om.krawtchouk(0.0, 2.0),
            lambda: om.krawtchouk(0.5, 0.5),
            lambda: om.hahn(0.0, 1.0, 1.0),
            lambda: om.hahn(1.0, 1.0, 0.5),
        ],
    )
    def test_rejects_bad_params(self, build):
        with pytest.raises(InvalidParams):
            build()

    def test_unknown_and_missing_keys(self):
        with pytest.raises(InvalidParams):
            om.EnsembleSpec(Family.LAGUERRE, {"gamma": 0.0, "bogus": 1})
        with pytest.raises(InvalidParams):
            om.EnsembleSpec(Family.LAGUERRE, {})

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 10 ** 400], ids=["inf", "-inf", "nan", "int"]
    )
    def test_rejects_non_finite_params(self, value):
        for build in (
            lambda: om.laguerre(value),
            lambda: om.krawtchouk(0.5, value),
            lambda: om.hahn(1.0, value, 1.0),
        ):
            with pytest.raises(InvalidParams, match="must be a finite real number"):
                build()

    def test_custom_requires_callback(self):
        with pytest.raises(InvalidParams):
            om.EnsembleSpec(Family.CUSTOM)

    def test_spec_copies_its_params(self):
        # a shared dict let a caller change a checked spec after the fact
        params = {"gamma": 0.5}
        spec = om.EnsembleSpec(Family.LAGUERRE, params)
        params["gamma"] = -5.0
        assert spec.params == {"gamma": 0.5}


class TestJson:
    def test_round_trip(self):
        spec = om.krawtchouk(0.25, 2.0)
        again = om.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidParams):
            om.from_json({"family": "hermite", "params": {}, "extra": 1})
        with pytest.raises(InvalidParams):
            om.from_json({"family": "laguerre", "params": {"gamma": 0, "bad": 2}})

    @pytest.mark.parametrize("params", [[1], {"gamma": "a"}])
    def test_params_must_be_an_object_of_real_numbers(self, params):
        with pytest.raises(InvalidParams):
            om.from_json({"family": "laguerre", "params": params})
        with pytest.raises(InvalidParams):
            om.EnsembleSpec(Family.LAGUERRE, params)

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            om.from_json({"family": "wigner", "params": {}})

    def test_str(self):
        assert str(om.hermite()) == "hermite"
        assert str(om.krawtchouk(0.25, 2.0)) == "krawtchouk(p=0.25, t=2)"

    def test_custom_not_serializable(self):
        spec = om.custom(lambda j, n: (1.0, 0.0))
        with pytest.raises(InvalidParams):
            spec.to_json()
        with pytest.raises(InvalidParams):
            om.from_json({"family": "custom", "params": {}})


class TestEdgeLocation:
    def test_chebyshev_edges(self):
        assert om.edge_location(om.chebyshev2(), 100, om.Side.RIGHT) == 2.0
        assert om.edge_location(om.chebyshev2(), 100, om.Side.LEFT) == -2.0

    def test_laguerre_left_edge(self):
        # 1.9 - 2 sqrt(0.9), consistent with the (gamma^2+1)/(4n^2) expansion
        val = om.edge_location(om.laguerre(0.0), 10, om.Side.LEFT)
        assert val == pytest.approx(1.9 - 2 * math.sqrt(0.9), rel=1e-12)
        assert val == pytest.approx(0.0026334, abs=1e-7)
        assert abs(val - 1 / 400) < 2e-4

    def test_hermite_right_edge(self):
        val = om.edge_location(om.hermite(), 100, om.Side.RIGHT)
        assert val == pytest.approx(2 * (99 / 100) ** 0.25, rel=1e-14)

    def test_width_identity(self):
        # right - left = 4 sqrt(a_n a_{n-1}) exactly
        for spec in (om.laguerre(1.3), om.hermite(), om.tricomi_carlitz(2.5)):
            n = 37
            a_n, _ = om.recurrence(spec, n, n)
            a_m, _ = om.recurrence(spec, n - 1, n)
            width = om.edge_location(spec, n, om.Side.RIGHT) - om.edge_location(
                spec, n, om.Side.LEFT
            )
            assert width == pytest.approx(4 * math.sqrt(a_n * a_m), rel=1e-15)

    def test_needs_two_rows(self):
        with pytest.raises(OutOfDomain):
            om.edge_location(om.hermite(), 1, om.Side.LEFT)


class TestHypotheses:
    def test_chebyshev_all_zero(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        rep = om.check_hypotheses(om.chebyshev2(), 500, edge)
        assert rep.scaled["max_da"] == 0.0
        assert rep.scaled["max_db"] == 0.0
        assert rep.raw["rec1"] == 0.0
        assert rep.raw["rec2"] == 0.0
        assert all(rep.flags.values())

    def test_laguerre_hard_edge_cancellation_exact_zero(self):
        # n = 2^10 keeps every gamma = 0 coefficient an exact dyadic
        edge = om.EdgeSpec(side=om.Side.LEFT, alpha=1.0, x0=0.0, epsilon=0.1)
        rep = om.check_hypotheses(om.laguerre(0.0), 1024, edge)
        assert rep.raw["rec2"] == 0.0
        assert rep.scaled["rec2"] == 0.0

    def test_laguerre_cancellation_fraction_oracle(self):
        # independent exact-rational evaluation of the same cross-difference
        for j in range(900, 1101):
            assert laguerre_rec2_exact_fraction(j, 1000) == Fraction(0)

    def test_hermite_slow_variation_constant(self):
        n = 1000
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        rep = om.check_hypotheses(om.hermite(), n, edge)
        # brute-force oracle over the same window
        lo, hi = hypothesis_window(n, 0.5, rep.epsilon)
        brute = max(
            abs(math.sqrt(j / n) - math.sqrt((j - 1) / n)) for j in range(lo, hi + 1)
        )
        assert rep.scaled["max_da"] == pytest.approx(brute * n, rel=1e-12)
        assert 0.4 <= rep.scaled["max_da"] <= 0.6

    @pytest.mark.parametrize(
        "spec",
        [om.laguerre(0.5), om.modified_jacobi(0.3, -0.6), om.krawtchouk(0.3, 3.0),
         om.hahn(0.5, 0.7, 3.0), om.log_singular()],
    )
    @pytest.mark.parametrize("n", [3, 40, 333])
    def test_matches_per_index_loop(self, spec, n):
        # reference: the maxima accumulated index by index from recurrence()
        edge = om.EdgeSpec(side=om.Side.LEFT, alpha=1.3)
        x0 = edge.center(spec, n)
        lo, hi = hypothesis_window(n, edge.alpha, edge.epsilon)
        a, b = {}, {}
        for j in range(max(1, lo - 2), hi + 1):
            a[j], b[j] = om.recurrence(spec, j, n)
        da = db = rec1 = rec2 = 0.0
        for j in range(lo, hi + 1):
            if j - 1 in a:
                da = max(da, abs(a[j] - a[j - 1]))
                db = max(db, abs(b[j] - b[j - 1]))
            if j - 2 in a:
                rec1 = max(rec1, abs(a[j] * a[j - 2] - a[j - 1] ** 2))
                rec2 = max(rec2, abs((b[j - 1] - x0 - a[j]) * a[j - 2]
                                     - (b[j - 2] - x0 - a[j - 1]) * a[j - 1]))
        rep = om.check_hypotheses(spec, n, edge, thresholds={})
        window = range(lo, hi + 1)
        assert (rep.scaled["max_da"], rep.scaled["max_db"]) == (da * n, db * n)
        assert (rep.raw["rec1"], rep.raw["rec2"]) == (rec1, rec2)
        assert rep.bounds["a_abs_min"] == min(abs(a[j]) for j in window)
        assert rep.bounds["a_abs_max"] == max(abs(a[j]) for j in window)
        assert rep.bounds["b_abs_max"] == max(abs(b[j]) for j in window)

    def test_threshold_flags(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        rep = om.check_hypotheses(
            om.hermite(), 2000, edge, thresholds={"max_da_scaled": 1e-12}
        )
        assert rep.flags == {"max_da_scaled": False}

    def test_window_leaves_support(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        with pytest.raises(OutOfDomain):
            om.check_hypotheses(om.krawtchouk(0.5, 1.0), 1000, edge)

    def test_reference_n_doubles_until_its_window_fits(self):
        # at alpha = 1.5 the n = 1000 and 2000 windows run past K = t n; the
        # thresholds come from n = 4000, the first doubling whose window fits
        spec = om.krawtchouk(0.3, 1.3)
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=1.5)
        for ref_n in (1000, 2000):
            with pytest.raises(OutOfDomain):
                om.check_hypotheses(spec, ref_n, edge)
        ref = om.check_hypotheses(spec, 4000, edge, thresholds={})
        rep = om.check_hypotheses(spec, 100_000, edge)
        assert rep.window == (82218, 117782)
        keys = ("max_da_scaled", "max_db_scaled", "rec1_scaled", "rec2_scaled")
        assert rep.thresholds == {
            k: max(10.0 * ref.scaled[k.removesuffix("_scaled")], 1e-9) for k in keys
        }

    def test_reference_falls_back_to_requested_n(self):
        # 1000 and 2000 leave the support, and the doubling reaches n = 3500
        # before a reference window fits: n's own quantities set the thresholds
        spec = om.krawtchouk(0.3, 1.3)
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=1.5)
        rep = om.check_hypotheses(spec, 3500, edge)
        keys = ("max_da_scaled", "max_db_scaled", "rec1_scaled", "rec2_scaled")
        assert rep.thresholds == {
            k: max(10.0 * rep.scaled[k.removesuffix("_scaled")], 1e-9) for k in keys
        }
        assert all(rep.flags.values())

    def test_report_json(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        payload = om.check_hypotheses(om.chebyshev2(), 100, edge).to_json()
        assert payload["schema"] == 1
        assert set(payload["scaled"]) == {"max_da", "max_db", "rec1", "rec2"}


class TestEdgeSpec:
    def test_alpha_range(self):
        with pytest.raises(InvalidParams):
            om.EdgeSpec(side=om.Side.LEFT, alpha=2.0)

    def test_epsilon_range(self):
        with pytest.raises(InvalidParams):
            om.EdgeSpec(side=om.Side.LEFT, alpha=1.5, epsilon=0.3)

    def test_default_epsilon_valid_for_large_alpha(self):
        edge = om.EdgeSpec(side=om.Side.LEFT, alpha=1.9)
        assert 0 < edge.epsilon < 1 - 1.9 / 2

    def test_center_defaults_to_exact_edge(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5)
        assert edge.center(om.chebyshev2(), 50) == 2.0
        pinned = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=1.99)
        assert pinned.center(om.chebyshev2(), 50) == 1.99


class TestMomentDeterminacy:
    def test_freud_flag(self):
        assert om.freud(1.0).moment_determinate is True
        assert om.freud(2.5).moment_determinate is True
        assert om.freud(0.5).moment_determinate is False

    def test_others_determinate(self):
        assert om.hermite().moment_determinate is True
        assert om.chebyshev2().moment_determinate is True


class TestJacobiWindow:
    def test_window_matches_recurrence(self):
        spec = om.laguerre(0.5)
        n = 50
        diag, off = om.jacobi_window(spec, n, 3, 7)
        for i, j in enumerate(range(3, 7)):
            a, b = om.recurrence(spec, j, n)
            assert off[i] == a
            assert diag[i + 1] == b
        assert diag[0] == om.recurrence(spec, 2, n)[1]

    def test_b0_values(self):
        def b0(spec, n):
            return om.jacobi_window(spec, n, 1, 1)[0][0]

        assert b0(om.laguerre(0.0), 4) == 0.25
        assert b0(om.hermite(), 4) == 0.0
        assert b0(om.modified_jacobi(0.5, 0.5), 1) == 0.0
        # gamma1 + gamma2 = 0: the Gauss-Jacobi first moment gives -1.0
        assert b0(om.modified_jacobi(0.5, -0.5), 1) == -1.0
        assert b0(om.krawtchouk(0.25, 2.0), 10) == pytest.approx(0.5)

    def test_whole_support_end_to_rounding_is_that_site(self):
        # 2.3 * 100 = 229.99999999999997: the full window still ends at K = 230
        diag, off = om.jacobi_window(om.krawtchouk(0.5, 2.3), 100, 1, 231)
        sites = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) * 100
        np.testing.assert_allclose(sites, np.arange(231), rtol=0, atol=5e-13)
        with pytest.raises(OutOfDomain, match="support ends at j = K = t\\*n = 230$"):
            om.jacobi_window(om.krawtchouk(0.5, 2.3), 100, 1, 232)

    @pytest.mark.parametrize("spec, n, end, last", [
        (om.krawtchouk(0.25, 2.5), 9, "K = t\\*n = 22.5", 22),
        (om.hahn(0.5, 0.7, 1.5), 41, "N = t3\\*n = 61.5", 61),
    ], ids=["krawtchouk", "hahn"])
    def test_fractional_support_end_refuses_the_window_through_its_floor(self, spec, n, end, last):
        # a_{floor(K)+1} != 0, so the window through floor(K) is not the full matrix
        with pytest.raises(OutOfDomain, match=f"ends at the fractional j = {end}; "
                                              f"a window ending at j = {last} "):
            om.jacobi_window(spec, n, 1, last + 1)
        with pytest.raises(OutOfDomain, match=f"support ends at j = {end}$"):
            om.jacobi_window(spec, n, 1, last + 2)
        diag, off = om.jacobi_window(spec, n, 1, last)  # below it: unchanged
        assert diag.size == last and off.size == last - 1


def _stieltjes_from_weight(xs, ws, kmax):
    """Orthonormal recurrence coefficients of a discrete measure (test oracle)."""
    xs = np.asarray(xs, float)
    ws = np.asarray(ws, float)
    p_prev = np.zeros_like(xs)
    p = np.ones_like(xs) / math.sqrt(ws.sum())
    a_list, b_list = [], []
    for _ in range(kmax + 1):
        b = float(np.sum(ws * xs * p * p))
        b_list.append(b)
        r = xs * p - b * p - (a_list[-1] if a_list else 0.0) * p_prev
        a = float(math.sqrt(np.sum(ws * r * r)))
        a_list.append(a)
        p_prev, p = p, r / a
    return a_list[:-1], b_list  # a_1..a_kmax, b_0..b_kmax


class TestHahnWeightCrossCheck:
    """The catalog's Hahn coefficients against the Stieltjes oracle of its weight."""

    A, B, N = 2, 3, 12

    def _weight_coeffs(self):
        from math import comb

        xs = np.arange(self.N + 1)
        ws = np.array(
            [comb(self.A + x, x) * comb(self.B + self.N - x, self.N - x) for x in xs],
            dtype=float,
        )
        return _stieltjes_from_weight(xs, ws, 8)

    def _standard_ac(self, j):
        a, b, n_pts = self.A, self.B, self.N
        A_j = (j + a + b + 1) * (j + a + 1) * (n_pts - j) / (
            (2 * j + a + b + 1) * (2 * j + a + b + 2)
        )
        C_j = j * (j + a + b + n_pts + 1) * (j + b) / (
            (2 * j + a + b) * (2 * j + a + b + 1)
        )
        return A_j, C_j

    def test_oracle_against_standard_recurrence(self):
        # the weight-derived coefficients match the textbook A/C forms exactly,
        # validating the Stieltjes oracle itself
        a_true, b_true = self._weight_coeffs()
        for j in range(0, 7):
            A_j, C_j = self._standard_ac(j)
            assert A_j + C_j == pytest.approx(b_true[j], abs=1e-10)
        for j in range(1, 7):
            A_prev, _ = self._standard_ac(j - 1)
            _, C_j = self._standard_ac(j)
            assert math.sqrt(A_prev * C_j) == pytest.approx(a_true[j - 1], abs=1e-10)

    def _printed_ab(self, j):
        # the Hahn a_{j,n} and b_{j,n} as printed in the source material, at n = N
        aa, bb, big_n = self.A, self.B, self.N
        s = 2 * j + aa + bb
        a = (j * (j + aa + bb + big_n + 1) * (j + bb) / (big_n * s * (s + 1))) * math.sqrt(
            (big_n - j) * (j + aa + bb) * (aa + j) * (s + 1)
            / (j * (j + aa + bb + big_n + 1) * (bb + j) * (s - 1))
        )
        b = (big_n - j) * (j + aa + bb + 1) * (j + aa + 1) / (big_n * (s + big_n + 1) * (s + 2))
        return a, b

    def test_printed_offdiagonal_asymptotically_consistent(self):
        # the printed a_{j,n} differs from the weight-derived value only at
        # the O(1/(N-j)) level (index-shift slips), so it is close at small N;
        # the catalog takes the exact value, not the printed one
        a_true, _ = self._weight_coeffs()
        spec = om.hahn(self.A / self.N, self.B / self.N, 1.0)
        for j in range(1, 7):
            a_printed = self._printed_ab(j)[0] * self.N
            assert abs(a_printed / a_true[j - 1] - 1) < 0.15
            assert om.recurrence(spec, j, self.N)[0] * self.N == pytest.approx(
                a_true[j - 1], abs=1e-10)

    def test_printed_diagonal_flagged_mismatch(self):
        # the printed b_{j,n} carries a spurious (2j+a+b+N+1) factor and does
        # NOT reproduce the weight, which is why the catalog uses the textbook
        # recurrence; assert the mismatch so the departure stays backed by a number
        _, b_true = self._weight_coeffs()
        spec = om.hahn(self.A / self.N, self.B / self.N, 1.0)
        for j in range(1, 7):
            b_printed = self._printed_ab(j)[1] * self.N
            assert abs(b_printed / b_true[j] - 1) > 0.5
            assert om.recurrence(spec, j, self.N)[1] * self.N == pytest.approx(
                b_true[j], abs=1e-10)

    def test_catalog_matches_oracle(self):
        # at n = N the scale x/n is x/N: times N, the coefficients are the oracle's
        a_true, b_true = self._weight_coeffs()
        spec = om.hahn(self.A / self.N, self.B / self.N, 1.0)
        diag, offdiag = om.jacobi_window(spec, self.N, 1, 9)
        np.testing.assert_allclose(diag * self.N, b_true, rtol=0, atol=1e-10)
        np.testing.assert_allclose(offdiag * self.N, a_true, rtol=0, atol=1e-10)


def _log_choose(top, k):
    return math.lgamma(top + 1) - math.lgamma(k + 1) - math.lgamma(top - k + 1)


@pytest.mark.parametrize(
    "spec, n",
    [(om.krawtchouk(0.25, 2.0), 20), (om.krawtchouk(0.6, 1.0), 30),
     (om.krawtchouk(0.5, 1.5), 10), (om.hahn(0.5, 0.7, 1.5), 40),
     (om.hahn(1.0, 1.0, 1.0), 12), (om.hahn(0.25, 2.0, 2.0), 16)],
    ids=str,
)
def test_discrete_family_reproduces_its_weight(spec, n):
    # the whole Jacobi matrix, rows 0..N with N = t n or t3 n the support end,
    # has the sites 0..N over n as its eigenvalues and the normalised weight as
    # its squared first eigenvector components; the weight error is absolute,
    # because relative error means nothing in the tails
    from scipy.linalg import eigh_tridiagonal

    p = spec.params
    last = round((p["t"] if spec.family is Family.KRAWTCHOUK else p["t3"]) * n)
    sites = np.arange(last + 1)
    if spec.family is Family.KRAWTCHOUK:
        log_w = [_log_choose(last, x) + x * math.log(p["p"]) + (last - x) * math.log(1 - p["p"])
                 for x in sites]
    else:
        a, b = p["t1"] * n, p["t2"] * n
        log_w = [_log_choose(a + x, x) + _log_choose(b + last - x, last - x) for x in sites]
    weight = np.exp(np.array(log_w) - max(log_w))
    diag, offdiag = om.jacobi_window(spec, n, 1, last + 1)
    eigenvalues, vectors = eigh_tridiagonal(diag, offdiag)
    np.testing.assert_allclose(eigenvalues * n, sites, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vectors[0] ** 2, weight / weight.sum(), rtol=0, atol=1e-12)


@st.composite
def _family_specs(draw):
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return om.chebyshev2()
    if choice == 1:
        return om.hermite()
    if choice == 2:
        return om.laguerre(draw(st.floats(-0.9, 3.0)))
    if choice == 3:
        return om.freud(draw(st.floats(0.5, 4.0)))
    return om.tricomi_carlitz(draw(st.floats(1.1, 4.0)))


@given(_family_specs(), st.integers(1, 500), st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_recurrence_finite_and_positive_offdiag(spec, j, n):
    a, b = om.recurrence(spec, j, n)
    assert math.isfinite(a) and math.isfinite(b)
    assert a > 0


def _hermite_hypotheses(thresholds):
    edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5)
    return om.check_hypotheses(om.hermite(), 100, edge, thresholds=thresholds)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: om.from_json(["hermite"]), InvalidParams, "JSON object"),
        (lambda: om.jacobi_window(om.hermite(), 10, 5, 4), OutOfDomain, "1 <= lo <= hi"),
        (lambda: om.jacobi_window(om.hermite(), 10, 0, 4), OutOfDomain, "1 <= lo <= hi"),
        # a Python float * overflows to inf, ** raises OverflowError
        (lambda: om.jacobi_window(om.laguerre(1e308), 100, 1, 4), InvalidParams,
         "a laguerre coefficient overflows the float range"),
        (lambda: om.jacobi_window(om.freud(1e-3), 100, 1, 4), InvalidParams,
         "a freud coefficient overflows the float range"),
        # thresholds= names a scaled quantity by its "<name>_scaled" key
        (lambda: _hermite_hypotheses({"max_da": 1.0}), InvalidParams,
         "unknown threshold 'max_da'"),
        (lambda: _hermite_hypotheses({"window": 1.0}), InvalidParams,
         "unknown threshold 'window'"),
        (lambda: _hermite_hypotheses({"a_abs_min": 1.0}), InvalidParams,
         "unknown threshold 'a_abs_min'"),
        (lambda: _hermite_hypotheses({"rec1_scaled": math.nan}), InvalidParams,
         "threshold rec1_scaled must be a finite real number, got nan"),
        (lambda: _hermite_hypotheses([1.0]), InvalidParams, "thresholds must be a dict, got list"),
    ],
    ids=["spec-not-object", "window-reversed", "window-lo", "laguerre-overflow",
         "freud-overflow", "threshold-unscaled-name", "threshold-window",
         "threshold-bound", "threshold-nan", "thresholds-not-dict"],
)
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()

"""Limit theory: quadrature vs residue, norms, rational approximation."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opemeso as om
from opemeso import limits
from opemeso.cli import _make_target
from opemeso.errors import IllConditioned, InvalidParams, NoConvergence

IM_G = om.parse_test_function("im:1/(x-i)")
RE_G = om.parse_test_function("re:1/(x-i)")
TWO_POLE = om.ResolventTestFunction((0.3 + 0.5j, -1.0 + 1.5j), (0.7, -0.4))


def smooth_bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = np.exp(-1.0 / np.clip(1 - x ** 2, 1e-300, None))
    out[inside] = vals[inside]
    return out


def triangle_hat(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, np.minimum(x / 0.5, (1 - x) / 0.5))


class TestResidue:
    def test_imaginary_part_constant(self):
        val = om.sigma2_residue(IM_G, om.Side.RIGHT)
        assert abs(val.value - 3 / 32) < 1e-12
        assert om.sigma2_residue(IM_G, om.Side.LEFT).value == pytest.approx(3 / 32)

    def test_real_part_constant(self):
        assert abs(om.sigma2_residue(RE_G, om.Side.RIGHT).value - 1 / 32) < 1e-12

    def test_matches_quadrature_random_poles(self):
        # 25 random conjugate-closed pole sets, both edges: 50 comparisons
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            poles = tuple(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0)) for _ in range(m)
            )
            weights = tuple(float(rng.uniform(-1, 1)) for _ in range(m))
            f = om.ResolventTestFunction(poles, weights)
            for side in (om.Side.LEFT, om.Side.RIGHT):
                r = om.sigma2_residue(f, side)
                q = om.sigma2_quadrature(f, side)
                assert abs(r.value - q.value) < 1e-6

    @staticmethod
    def exact_residue_sum(f, side):
        """The same residue sum in 40-digit arithmetic, from the same expanded poles."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            c, eta = f.expanded()
            sign = -1 if side is om.Side.LEFT else 1
            rho = [mpmath.sqrt(sign * mpmath.mpc(e)) for e in eta]
            cs = [mpmath.mpc(x) for x in c]
            total = mpmath.fsum(
                a * b / (4 * p * q * (p + q) ** 2) for a, p in zip(cs, rho) for b, q in zip(cs, rho)
            )
            return mpmath.mpf(total.real)

    # the second draw of default_rng(0) as in test_matches_quadrature_random_poles,
    # whose terms cancel, and two nearly coincident poles just above the real axis
    CANCELLING = om.ResolventTestFunction(
        (0.9475606623645962 + 0.40438160027223696j, 1.0722128297627078 + 0.453736920488743j),
        (0.45931089285988813, -0.648688758794882),
    )
    NEAR_COINCIDENT = om.ResolventTestFunction(
        (1.599543334129152 + 0.00014150860643657816j, 1.5996473947435075 + 0.00022705169425912106j),
        (0.31481829744770673, 0.2332953088123968),
    )

    @pytest.mark.parametrize("side", [om.Side.LEFT, om.Side.RIGHT])
    @pytest.mark.parametrize(
        "f", [IM_G, RE_G, CANCELLING, NEAR_COINCIDENT], ids=["im", "re", "cancelling", "near"]
    )
    def test_budget_covers_rounding(self, f, side):
        r = om.sigma2_residue(f, side)
        assert abs(r.value - self.exact_residue_sum(f, side)) <= r.est_error

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            f = om.ResolventTestFunction(
                (complex(rng.uniform(-1, 1), rng.uniform(0.3, 2)),),
                (float(rng.uniform(-2, 2)),),
            )
            assert om.sigma2_residue(f, om.Side.LEFT).value >= -1e-14


class TestQuadrature:
    def test_known_edge_constants(self):
        for f, target in ((IM_G, 3 / 32), (RE_G, 1 / 32)):
            res = om.sigma2_quadrature(f, om.Side.RIGHT)
            assert abs(res.value - target) < 1e-6
            assert res.est_error < 1e-6

    def test_scaling_invariance(self):
        base = om.sigma2_quadrature(IM_G, om.Side.RIGHT).value
        for a in (0.5, 2.0, 3.0):
            scaled = IM_G.scaled_argument(a * a)
            val = om.sigma2_quadrature(scaled, om.Side.RIGHT).value
            assert abs(val - base) < 1e-8

    def test_cauchy_schwarz_norm_bound(self):
        for f in (IM_G, RE_G):
            norm = om.weighted_lipschitz_norm(f)
            for side in (om.Side.LEFT, om.Side.RIGHT):
                val = om.sigma2_quadrature(f, side).value
                assert val <= norm ** 2 / 8 + 1e-9

    def test_no_convergence_raises(self):
        # impossible tolerance on a kinked integrand stalls the refinement;
        # the message speaks in the variance's units, not the raw integral's
        with pytest.raises(NoConvergence, match=r"> tol/2 = 5e-14$"):
            om.sigma2_quadrature(triangle_hat, om.Side.LEFT, tol=1e-13)

    def test_gauss_legendre_rule_computed_once_and_read_only(self):
        # every panel and refinement level shares one rule, so no caller may write to it
        x0, w0 = limits._gl_rule()
        assert limits._gl_rule()[0] is x0
        expected = np.polynomial.legendre.leggauss(limits._GL_DEGREE)
        assert np.array_equal(x0, expected[0]) and np.array_equal(w0, expected[1])
        assert not x0.flags.writeable and not w0.flags.writeable
        nodes, weights = limits._gl_panels(-1.0, 1.0, 1)
        assert np.array_equal(nodes, x0) and np.array_equal(weights, w0)
        with pytest.raises(ValueError, match="read-only"):
            x0[0] = 0.0


@pytest.mark.parametrize("route", [om.sigma2_residue, om.sigma2_quadrature])
@pytest.mark.parametrize("side", [om.Side.LEFT, om.Side.RIGHT])
def test_pole_near_axis_refused_without_warnings(route, side):
    # (1e-300)^2 underflows to 0: the residue sum and f' would divide by zero
    f = om.ResolventTestFunction((1e-300j, 0.5 + 1j), (1.0, 1.0))
    with pytest.raises(InvalidParams, match="too close to the real axis"):
        route(f, side)


@pytest.mark.parametrize("pole, side", [(-1e30 + 1e-150j, om.Side.RIGHT),
                                        (1e30 + 1e-150j, om.Side.LEFT)])
def test_residue_denominator_underflow_refused(pole, side):
    # the height clears the cap, but Re rho = Im / (2 |rho|) = 5e-166 squares to 0
    f = om.ResolventTestFunction((pole,), (1.0,))
    with pytest.raises(InvalidParams, match="residue denominator underflows"):
        om.sigma2_residue(f, side)


class TestPiSquared:
    def test_value(self):
        assert abs(om.pi_squared_check() - math.pi ** 2) < 1e-6

    def test_truncation_guard(self):
        # a deliberately small domain, then halved: the change must exceed
        # the tolerance, proving the check is sensitive to silent truncation
        v_small, _ = limits._double_integral_tan(limits._dominating_integrand, 50.0, 1.0, 1e-7)
        v_half, _ = limits._double_integral_tan(limits._dominating_integrand, 25.0, 1.0, 1e-7)
        assert abs(v_small - v_half) > 1e-6

    def test_integrand_zero_at_origin(self):
        # the (x+y)^2 factor vanishes at the origin and on the anti-diagonal
        g = limits._dominating_integrand
        assert g(0.0, 0.0) == 0.0
        assert g(1.5, -1.5) == 0.0
        assert g(1.0, 1.0) == 1.0
        assert g(2.0, -1.0) == g(-1.0, 2.0) > 0


class TestQuadratureBudget:
    # 3/32 and 1/32 are exact in binary; sigma2_residue reproduces them within its budget
    @pytest.mark.parametrize("tol", [1e-14, 1e-16, 1e-30])
    @pytest.mark.parametrize("side", [om.Side.LEFT, om.Side.RIGHT])
    @pytest.mark.parametrize("f, exact", [(IM_G, 3 / 32), (RE_G, 1 / 32)], ids=["im", "re"])
    def test_budget_covers_exact_value_or_raises(self, f, exact, side, tol):
        residue = om.sigma2_residue(f, side)
        assert abs(residue.value - exact) <= residue.est_error
        try:
            q = om.sigma2_quadrature(f, side, tol=tol)
        except NoConvergence as exc:
            # refused only when the rounding floor sqrt(n) eps |value| exceeds 2 tol/5
            assert "rounding floor" in str(exc)
            assert tol < 2.5 * math.sqrt(12 * 2 ** 9) * np.finfo(float).eps * exact
            return
        assert abs(q.value - exact) <= q.est_error <= tol
        assert q.est_error >= np.finfo(float).eps * abs(q.value)


class TestWeightedLipschitzNorm:
    def test_zero_function(self):
        assert om.weighted_lipschitz_norm(lambda x: np.zeros_like(np.asarray(x, float))) == 0.0

    def test_imaginary_g_golden(self):
        # refined to 3 significant digits and pinned: the sup is attained on
        # the diagonal of 1/(1+x^2) at |x| = 1 and equals 1
        coarse = om.weighted_lipschitz_norm(IM_G, 1001)
        fine = om.weighted_lipschitz_norm(IM_G, 4001)
        assert fine >= coarse - 1e-12  # nondecreasing under refinement
        assert fine == pytest.approx(1.000, abs=1e-3)

    def test_grid_below_two_points_refused(self):
        for grid in (0, 1):
            with pytest.raises(InvalidParams, match="at least 2 points"):
                om.weighted_lipschitz_norm(IM_G, grid)

    @pytest.mark.parametrize("grid", [2.5, 33.0, "3", None, True, False], ids=repr)
    def test_grid_that_is_not_an_integer_refused(self, grid):
        with pytest.raises(InvalidParams, match="must be an integer"):
            om.weighted_lipschitz_norm(IM_G, grid)

    @pytest.mark.parametrize("M", [2.5, 3.0, "3", None, True], ids=repr)
    def test_pole_count_that_is_not_an_integer_refused(self, M):
        with pytest.raises(InvalidParams, match="pole count must be an integer"):
            om.fit_resolvent_approximation(IM_G, M)

    def test_numpy_integer_grid_accepted(self):
        assert om.weighted_lipschitz_norm(IM_G, np.int64(33)) == om.weighted_lipschitz_norm(IM_G, 33)

    def test_grid_above_the_cap_refused_before_allocating(self):
        # O(grid^2) pairs; the refusal must come before the grid or f is touched
        def f(x):
            raise AssertionError("f evaluated on a refused grid")

        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match=f"at most {limits._MAX_LIPSCHITZ_GRID}"):
                om.weighted_lipschitz_norm(f, limits._MAX_LIPSCHITZ_GRID + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 10

    def test_not_scale_invariant(self):
        base = om.weighted_lipschitz_norm(IM_G)
        scaled = om.weighted_lipschitz_norm(IM_G.scaled_argument(4.0))
        assert abs(scaled - base) > 0.1

    @staticmethod
    def dense_pairs(f, grid):
        """The dense grid x grid quotients, diagonal 0, and the diagonal's sup."""
        xs = np.tan(np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, grid))
        fx = np.asarray(f(xs), dtype=float)
        w = np.sqrt(1 + xs ** 2)
        diff = np.abs(fx[:, None] - fx[None, :])
        dist = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(dist, 1.0)
        quot = diff / dist * w[:, None] * w[None, :]
        np.fill_diagonal(quot, 0.0)
        diag_sup = float(np.max((1 + xs ** 2) * np.abs(limits._derivative(f, xs))))
        return quot, diag_sup

    @classmethod
    def dense_norm(cls, f, grid):
        """The dense grid x grid formula the streamed norm replaced."""
        quot, diag_sup = cls.dense_pairs(f, grid)
        return max(float(quot.max()), diag_sup)

    @pytest.mark.parametrize(
        "f",
        [IM_G, RE_G, TWO_POLE, lambda x: TWO_POLE(-x * x), _make_target("bump:-1,2"),
         _make_target("hat:0,1")],
        ids=["im", "re", "two-pole", "two-pole-edge-form", "bump", "hat"],
    )
    def test_streamed_sup_is_the_dense_sup_bit_for_bit(self, f, monkeypatch):
        # grids below, at and beyond the 32-row panel edges; the second pass
        # zeroes f' so the pairwise sup is compared also where the diagonal wins
        for pass_ in ("norm", "pairs only"):
            for grid in (2, 3, 31, 32, 33, 1001, 2001, 4001):
                assert om.weighted_lipschitz_norm(f, grid) == self.dense_norm(f, grid), (pass_, grid)
            monkeypatch.setattr(limits, "_derivative", lambda f, x: np.zeros_like(x))

    @given(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.2, 3), st.floats(-2, 2), st.floats(-2, 2)),
            min_size=1, max_size=3,
        ),
        st.integers(2, 700),
    )
    @settings(max_examples=40, deadline=None)
    # with f' zeroed the sup is a pair's (q w_j) w_i, one ulp above its (q w_i) w_j
    @example([(0.74, 1.86, -0.64, -0.79)], 272)
    def test_half_pair_panels_are_the_dense_sup_for_random_pole_sums(self, poles, grid):
        # the second comparison zeroes f' so the pairwise sup is compared
        # also where the diagonal would win
        f = om.ResolventTestFunction(
            tuple(complex(re, im) for re, im, _, _ in poles),
            tuple(complex(a, b) for _, _, a, b in poles),
        )
        assert om.weighted_lipschitz_norm(f, grid) == self.dense_norm(f, grid)
        with mock.patch.object(limits, "_derivative", lambda f, x: np.zeros_like(x)):
            assert om.weighted_lipschitz_norm(f, grid) == self.dense_norm(f, grid)

    def test_memory_is_linear_in_the_grid(self):
        # the dense formula peaked at 489 MB at this grid; two 32 x 4001 panels take 2 MB
        tracemalloc.start()
        try:
            om.weighted_lipschitz_norm(IM_G, 4001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize(
        "index, value", [(1000, math.nan), (3, math.nan), (3, math.inf)],
        ids=["nan-mid-grid", "nan-first-panel", "inf-first-panel"],
    )
    def test_non_finite_values_refused(self, index, value):
        def f(x):
            out = np.array(IM_G(x), dtype=float)
            out[index] = value
            return out

        with pytest.raises(InvalidParams, match="NaN or infinite"):
            om.weighted_lipschitz_norm(f)

    def test_far_apart_blocks_hold_the_sup(self, monkeypatch):
        # with f' zeroed the sup of re:1/(x-i) is its pairs-at-infinity limit,
        # reached by a pair whose 32-point blocks are neither equal nor adjacent
        monkeypatch.setattr(limits, "_derivative", lambda f, x: np.zeros_like(x))
        quot, _ = self.dense_pairs(RE_G, 2001)
        i, j = np.unravel_index(np.argmax(quot), quot.shape)
        assert abs(i // 32 - j // 32) >= 2
        assert om.weighted_lipschitz_norm(RE_G, 2001) == self.dense_norm(RE_G, 2001)

    @pytest.mark.parametrize("split", [1983, 1990, 1999])
    def test_ragged_last_block(self, split, monkeypatch):
        # 2001 = 62 * 32 + 17: a step after grid point ``split`` puts the sup
        # on a pair with a point in the 17-point last block
        monkeypatch.setattr(limits, "_derivative", lambda f, x: np.zeros_like(x))
        xs = np.tan(np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 2001))
        edge = 0.5 * (xs[split] + xs[split + 1])

        def step(x):
            return np.where(np.asarray(x) > edge, 1.0, 0.0) + 0.1 * IM_G(x)

        quot, _ = self.dense_pairs(step, 2001)
        assert max(np.unravel_index(np.argmax(quot), quot.shape)) >= 62 * 32
        assert om.weighted_lipschitz_norm(step, 2001) == self.dense_norm(step, 2001)

    @pytest.mark.parametrize("value", [0.0, 3.7, -1e300])
    def test_constant_f_has_every_gap_zero(self, value):
        # the pairs all give 0, and so does the difference stencil's f' on the diagonal
        def const(x):
            return np.full_like(np.asarray(x, dtype=float), value)

        for grid in (2, 33, 2001):
            assert om.weighted_lipschitz_norm(const, grid) == self.dense_norm(const, grid)
            assert om.weighted_lipschitz_norm(const, grid) == 0.0

    def test_quotients_below_the_normal_range_are_not_skipped(self, monkeypatch):
        # f = 5e-324 left of grid point 31: the pair (31, 32) rounds 29 % above
        # its exact quotient, and the diagonal's sup lies between the two; the
        # sup is still the dense formula's rounded quotient
        xs = np.tan(np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 2001))
        edge = 0.5 * (xs[31] + xs[32])

        def tiny(x):
            return np.where(np.asarray(x) < edge, 5e-324, 0.0)

        w = np.sqrt(1 + xs ** 2)
        exact = 5e-324 * (w[31] * w[32] / (xs[32] - xs[31]))
        monkeypatch.setattr(limits, "_derivative", lambda f, x: np.zeros_like(x))
        rounded = self.dense_norm(tiny, 2001)
        assert rounded > 1.2 * exact
        diag = 0.5 * (exact + rounded)
        monkeypatch.setattr(
            limits, "_derivative", lambda f, x: np.where(np.arange(x.size) == x.size // 2, diag, 0.0)
        )
        assert om.weighted_lipschitz_norm(tiny, 2001) == self.dense_norm(tiny, 2001) == rounded

    def test_nan_derivative_refused(self):
        # finite on the grid, NaN beyond its last node, where the 5-point
        # difference of f' reaches
        xs = np.tan(np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 2001))

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= xs[-1], 1 / (1 + x * x), np.nan)

        with pytest.raises(InvalidParams, match="f' has a NaN value"):
            om.weighted_lipschitz_norm(f)

    @pytest.mark.parametrize(
        "f, got",
        [
            (lambda x: 1.0, "shape ()"),
            (lambda x: np.zeros(len(x) - 1), r"shape \(2000,\)"),
            (lambda x: 1 / (np.asarray(x) - 1j), "complex128"),
            (lambda x: np.array(["0"] * len(x)), "<U1"),
        ],
        ids=["scalar", "wrong-length", "complex", "strings"],
    )
    @pytest.mark.parametrize("route", ["norm", "quadrature"])
    def test_values_that_are_not_one_real_number_per_point_refused(self, f, got, route):
        with pytest.raises(InvalidParams, match=f"one real number per point.*{got}"):
            if route == "norm":
                om.weighted_lipschitz_norm(f)
            else:
                om.sigma2_quadrature(f, om.Side.LEFT)


class TestPoleSumNorm:
    """The closed form sum_r |d_r| G_r^2, an upper bound on the weighted Lipschitz norm."""

    def test_unit_pole_is_one(self):
        # the sup of (1+x^2) / |x - i|^2 is 1, and the margin adds 2^-40
        assert 1.0 <= limits._pole_sum_norm(IM_G) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "pole, closed",
        [(0.3 + 0.1j, 109.08), (0.3 + 1e-3j, 1.09e6), (0.37 + 1e-4j, 1.137e8),
         (0.37 + 1e-5j, 1.137e10)],
    )
    def test_bounds_the_diagonal_near_a_low_pole(self, pole, closed):
        # the 2001-point grid misses the peak of (1+x^2)|f'| at x = Re lambda,
        # by up to 1e5x at height 1e-5; 2e6 points within 50 heights resolve it
        f = om.ResolventTestFunction((pole,), (1.0,))
        norm = limits._pole_sum_norm(f)
        assert norm == pytest.approx(closed, rel=1e-3)
        xs = pole.real + pole.imag * np.linspace(-50, 50, 2_000_001)
        assert norm >= float(np.max((1 + xs ** 2) * np.abs(f.derivative(xs))))
        assert norm > om.weighted_lipschitz_norm(f)

    @pytest.mark.parametrize(
        "pole, weight",
        [(1.00000001j, 1.0), (1e-8 + 1j, 1.0), (1e-9 + 1.00000001j, 1.0),
         (1 + 1j, 5 * 2.0 ** -1074)],
        ids=["above-i", "right-of-i", "near-i", "subnormal-weight"],
    )
    def test_at_least_the_exact_bound(self, pole, weight):
        # (1 + |lambda|^2)^2 - 4 (Im lambda)^2 cancels near i: taken as that
        # difference, G^2 reads 1e-8 low there, far below the 2^-40 margin; and
        # 5 * 2^-1074 G^2 = 13.09 subnormal ulps rounds down to 13
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b = mpmath.mpf(pole.real), mpmath.mpf(pole.imag)
            m2 = a * a + b * b
            exact = weight * (1 + m2 + mpmath.sqrt((1 + m2) ** 2 - 4 * b * b)) / (2 * b * b)
        assert limits._pole_sum_norm(om.ResolventTestFunction((pole,), (weight,))) >= exact

    # below |d| ~ 1e-300 the values of f underflow, and the grid norm of the rounded
    # values is no reference: for d = 5e-324 at i it reads 3.1e-321, the true sup 5e-324
    WEIGHT = st.floats(-2, 2).map(lambda v: v if abs(v) >= 1e-300 else 0.0)

    @given(
        st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, 3), WEIGHT, WEIGHT),
                 min_size=1, max_size=3),
        st.integers(2, 2001),
    )
    @settings(max_examples=60, deadline=None)
    # re:1/(x-i): the grid reads 1.0000000000000004, above the unrounded closed form 1.0
    @example([(0.0, 1.0, 0.0, 1.0)], 2001)
    def test_at_least_the_grid_norm(self, poles, grid):
        f = om.ResolventTestFunction(
            tuple(complex(re, im) for re, im, _, _ in poles),
            tuple(complex(a, b) for _, _, a, b in poles),
        )
        assert limits._pole_sum_norm(f) >= om.weighted_lipschitz_norm(f, grid)

    @pytest.mark.parametrize("side", [om.Side.LEFT, om.Side.RIGHT])
    def test_quadrature_of_a_pole_sum_takes_no_grid_norm(self, side, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid norm called for a pole sum")

        monkeypatch.setattr(limits, "weighted_lipschitz_norm", refuse)
        q = om.sigma2_quadrature(TWO_POLE, side)
        assert abs(q.value - om.sigma2_residue(TWO_POLE, side).value) <= q.est_error


class TestVarianceApproximationChain:
    def test_varapprox_inequality_for_fitted_h(self):
        # |sigma_f^2 - sigma_h^2| <= (1/16) |f-h|^2 |f+h|^2
        fitted, achieved = om.fit_resolvent_approximation(
            smooth_bump, 20, 0.25, support=(-1.0, 1.0)
        )
        sum_norm = om.weighted_lipschitz_norm(lambda x: smooth_bump(x) + fitted(x))
        for side in (om.Side.LEFT, om.Side.RIGHT):
            sf = om.sigma2_quadrature(smooth_bump, side, tol=1e-6)
            sh = om.sigma2_residue(fitted, side)
            bound = achieved ** 2 * sum_norm ** 2 / 16
            assert abs(sf.value - sh.value) <= bound + sf.est_error


class TestFit:
    def test_exact_representability_on_grid(self):
        # target poles coincide with the fitted pole grid -> near-zero residual
        M, height, support = 6, 0.25, (-1.0, 1.0)
        grid = np.linspace(-1.5, 1.5, M)
        target = om.ResolventTestFunction(
            tuple(grid + 1j * height), (0.5, -0.2, 1.0, 0.3, -0.7, 0.1)
        )
        fitted, achieved = om.fit_resolvent_approximation(
            target, M, height, support=support
        )
        assert achieved <= 1e-8

    def test_bump_quality(self):
        norm = om.weighted_lipschitz_norm(smooth_bump)
        _, achieved = om.fit_resolvent_approximation(
            smooth_bump, 20, 0.25, support=(-1.0, 1.0)
        )
        # pinned after the first run: ratio 0.102 at M=20
        assert achieved <= 0.11 * norm

    def test_achieved_norm_nonincreasing_in_M(self):
        results = [
            om.fit_resolvent_approximation(smooth_bump, M, 0.25, support=(-1.0, 1.0))[1]
            for M in (10, 20, 40)
        ]
        assert results[0] > results[1] > results[2]

    def test_ill_conditioned(self):
        # pole lobes much wider than their spacing make the basis collinear
        with pytest.raises(IllConditioned):
            om.fit_resolvent_approximation(
                smooth_bump, 50, 10.0, support=(-1.0, 1.0)
            )
        # at this height the smallest singular value is 0: the condition is infinite
        with pytest.raises(IllConditioned, match="condition inf exceeds"):
            om.fit_resolvent_approximation(smooth_bump, 10, 1e308, support=(-1.0, 1.0))

    def test_validation(self):
        with pytest.raises(InvalidParams):
            om.fit_resolvent_approximation(smooth_bump, 0, 0.25)
        with pytest.raises(InvalidParams):
            om.fit_resolvent_approximation(smooth_bump, 5, -1.0)

    def test_single_pole_sits_at_the_support_centre(self):
        fitted, achieved = om.fit_resolvent_approximation(smooth_bump, 1, 0.25, support=(-1.0, 3.0))
        assert fitted.poles == (1 + 0.25j,)
        assert len(fitted.weights) == 1 and math.isfinite(achieved)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: np.zeros_like(x),
            lambda x: smooth_bump(np.asarray(x) - 200.0),  # support beyond the scan grid
        ],
        ids=["zero", "support-off-grid"],
    )
    def test_refuses_targets_without_detectable_support(self, f):
        with pytest.raises(InvalidParams, match="cannot detect support"):
            om.fit_resolvent_approximation(f, 5, 0.25)

    @pytest.mark.parametrize(
        "support, where", [(None, "support scan grid"), ((-1.0, 1.0), "fit grid")]
    )
    def test_nan_target_refused_before_the_solve(self, support, where):
        def nan_target(x):
            return np.full_like(np.asarray(x, dtype=float), np.nan)

        with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("solved")):
            with pytest.raises(InvalidParams, match=f"target f has a NaN or infinite value on the {where}"):
                om.fit_resolvent_approximation(nan_target, 5, 0.25, support=support)

    def test_support_detection(self):
        fitted, achieved = om.fit_resolvent_approximation(smooth_bump, 20, 0.25)
        norm = om.weighted_lipschitz_norm(smooth_bump)
        assert achieved <= 0.2 * norm


class TestC1Variance:
    def test_triangle_hat_golden(self):
        # pinned after the first run (value 0.129432 +- 3e-6)
        res = om.sigma2_quadrature(triangle_hat, om.Side.LEFT, tol=1e-5)
        assert res.value == pytest.approx(0.129432, abs=5e-5)

    def test_no_translation_invariance(self):
        base = om.sigma2_quadrature(triangle_hat, om.Side.LEFT, tol=1e-5).value
        shifted = om.sigma2_quadrature(
            lambda x: triangle_hat(np.asarray(x, float) - 0.35), om.Side.LEFT, tol=1e-4
        ).value
        assert abs(base - shifted) > 1e-3

    def test_positive_for_nonzero(self):
        assert om.sigma2_quadrature(triangle_hat, om.Side.LEFT, tol=1e-5).value > 0

    def test_json(self):
        payload = om.sigma2_residue(IM_G, om.Side.RIGHT).to_json()
        assert payload["method"] == "residue"
        assert payload["side"] == "right"

"""Test-function storage, conjugate closure, and the CLI mini-grammar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opemeso as om
from opemeso.errors import InvalidParams


class TestResolventTestFunction:
    def test_imaginary_combination(self):
        f = om.ResolventTestFunction((1j,), (1.0,))
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(f(xs), 1 / (xs ** 2 + 1))

    def test_real_part_via_complex_weight(self):
        f = om.ResolventTestFunction((1j,), (1j,))
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(f(xs), np.real(1 / (xs - 1j)))

    def test_expanded_conjugate_closure(self):
        f = om.ResolventTestFunction((0.5 + 1j, -1 + 2j), (1.0, -0.3))
        c, eta = f.expanded()
        m = len(f.poles)
        assert np.allclose(c[m:], np.conj(c[:m]))
        assert np.allclose(eta[m:], np.conj(eta[:m]))
        # evaluation through the expansion is real
        xs = np.linspace(-3, 3, 17)
        via_pairs = sum(ci / (xs - ei) for ci, ei in zip(c, eta))
        assert np.max(np.abs(via_pairs.imag)) < 1e-14
        assert np.allclose(via_pairs.real, f(xs))

    def test_reflection(self):
        f = om.ResolventTestFunction((0.4 + 0.8j, -1 + 1.5j), (1.0, 0.7))
        xs = np.linspace(-4, 4, 23)
        assert np.allclose(f.reflected()(xs), f(-xs))

    def test_scaled_argument(self):
        f = om.ResolventTestFunction((1j,), (1.0,))
        g = f.scaled_argument(4.0)
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(g(xs), f(4.0 * xs))

    def test_derivative(self):
        f = om.ResolventTestFunction((0.3 + 0.9j,), (1.2,))
        xs = np.linspace(-2, 2, 9)
        h = 1e-6
        numeric = (f(xs + h) - f(xs - h)) / (2 * h)
        assert np.allclose(f.derivative(xs), numeric, atol=1e-7)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            om.ResolventTestFunction((1j,), (1.0, 2.0))
        with pytest.raises(InvalidParams):
            om.ResolventTestFunction((), ())
        with pytest.raises(InvalidParams):
            om.ResolventTestFunction((1.0 - 0.5j,), (1.0,))


class TestGrammar:
    def test_basic_im(self):
        f = om.parse_test_function("im:1/(x-i)")
        assert f.poles == (1j,)
        assert f.weights == (1.0 + 0j,)

    def test_re_term(self):
        f = om.parse_test_function("re:0.5/(x-2+0.5i)")
        assert f.poles == (2 + 0.5j,)
        assert f.weights == (0.5j,)

    def test_sum_of_terms(self):
        f = om.parse_test_function("im:1/(x-i)+im:-2/(x-0.3+2i)")
        assert f.poles == (1j, 0.3 + 2j)
        assert f.weights == (1.0 + 0j, -2.0 + 0j)

    def test_whitespace_tolerated(self):
        f = om.parse_test_function(" im:1/(x-i) + re:1/(x-i) ")
        assert len(f.poles) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "1/(x-i)",          # missing kind
            "im:1/(x+i)",       # wrong sign template
            "im:1/(x-1)",       # pole on the real axis
            "im:1/(x-1-2i)",    # pole in the lower half plane
            "im:q/(x-i)",       # bad coefficient
            "im:1/(x-zebra)",   # bad complex literal
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InvalidParams):
            om.parse_test_function(bad)


@given(
    st.lists(
        st.tuples(
            st.floats(-2, 2), st.floats(0.1, 3), st.floats(-3, 3), st.floats(-3, 3)
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(-10, 10),
)
@settings(max_examples=50, deadline=None)
def test_always_real_on_real_axis(pole_data, x):
    poles = tuple(complex(a, b) for a, b, _, _ in pole_data)
    weights = tuple(complex(c, d) for _, _, c, d in pole_data)
    f = om.ResolventTestFunction(poles, weights)
    c, eta = f.expanded()
    val = sum(ci / (x - ei) for ci, ei in zip(c, eta))
    assert abs(val.imag) < 1e-12 * max(1.0, abs(val.real))

"""The three argument rules of ``ensembles``, at every public site that applies them.

A whole number (``_whole``) is an int or numpy integer, not a bool, in a closed
range, handed on as a Python int; an edge side (``_side``) is a ``Side``; a
positive real (``_positive_real``) is a finite real number above 0, not a bool.
Each bad input raises its site's ``OpemesoError`` class before any coefficient
is read, any resolvent is solved, any power block is formed or any sample is
drawn: the stand-ins below raise ``AssertionError`` when reached.  So does an
argument of the wrong container or class: a window that is not a pair, an
edge that is not an ``EdgeSpec``, an index that is not a whole number.
"""

import json
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import opemeso as om
from opemeso import cli, cumulants, sampling, tridiagonal
from opemeso.ensembles import hypothesis_window
from opemeso.errors import InvalidParams, OutOfDomain

IM_G = om.parse_test_function("im:1/(x-i)")
EDGE_R = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
EDGE_X0 = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=2.0, epsilon=0.1)
F_ROWS = 40
F = om.build_F(om.chebyshev2(), 20, EDGE_R, IM_G, window=(1, F_ROWS))
J = om.TridiagonalMatrix(np.zeros(5), np.ones(4), 2.0 + 0.1j)
RESOLVENT = om.TridiagonalResolvent(J)


def _reached(*args, **kwargs):
    raise AssertionError("a refused argument reached the work it guards")


# a spec and an f that raise when a coefficient or a value is read
BOOM_SPEC = om.custom(_reached)
BOOM_F = _reached


@pytest.fixture(autouse=True)
def guarded(monkeypatch):
    for module, name in ((cumulants, "jacobi_window"), (cumulants, "solve_banded"),
                         (cumulants, "_PowerBlocks"), (tridiagonal, "solve_banded"),
                         (sampling, "_model"), (sampling, "eigh_tridiagonal")):
        monkeypatch.setattr(module, name, _reached)


def _decay(n_alpha):
    args = SimpleNamespace(eta="1i", n_alpha=n_alpha, size=300, x0=2.0, ref_row=None, output=None)
    return cli.cmd_decay(args)


# (site, call, error, least, most): call(v) passes v as the argument under test
WHOLE = [
    ("default_margin-n", lambda v: om.default_margin(v, EDGE_R), InvalidParams, 1, math.inf),
    ("check_window-n", lambda v: om.cumulant(F, v, 2), InvalidParams, 1, F_ROWS),
    ("build_F-n", lambda v: om.build_F(BOOM_SPEC, v, EDGE_X0, IM_G), InvalidParams, 1, math.inf),
    ("build_F-lo", lambda v: om.build_F(BOOM_SPEC, 20, EDGE_X0, IM_G, window=(v, 40)),
     InvalidParams, 1, 20),
    ("build_F-hi", lambda v: om.build_F(BOOM_SPEC, 20, EDGE_X0, IM_G, window=(1, v)),
     InvalidParams, 21, math.inf),
    ("cumulant-m", lambda v: om.cumulant(F, 20, v), InvalidParams, 1, 6),
    ("bound_check-m", lambda v: om.cumulant_bound_check(F, 20, v), InvalidParams, 3, 6),
    ("sweep-m_max", lambda v: om.convergence_sweep(BOOM_SPEC, EDGE_X0, IM_G, [20], m_max=v),
     InvalidParams, 2, 6),
    ("sweep-n", lambda v: om.convergence_sweep(BOOM_SPEC, EDGE_X0, IM_G, [20, v]),
     InvalidParams, 1, math.inf),
    ("jacobi_window-n", lambda v: om.jacobi_window(BOOM_SPEC, v, 1, 4), OutOfDomain, 1, math.inf),
    ("jacobi_window-lo", lambda v: om.jacobi_window(BOOM_SPEC, 10, v, 4), OutOfDomain, 1, 4),
    ("jacobi_window-hi", lambda v: om.jacobi_window(BOOM_SPEC, 10, 3, v), OutOfDomain, 3,
     math.inf),
    ("recurrence-j", lambda v: om.recurrence(BOOM_SPEC, v, 10), OutOfDomain, 1, math.inf),
    ("recurrence-n", lambda v: om.recurrence(BOOM_SPEC, 3, v), OutOfDomain, 1, math.inf),
    ("edge_location-n", lambda v: om.edge_location(BOOM_SPEC, v, om.Side.RIGHT), OutOfDomain,
     2, math.inf),
    ("expansion-j", lambda v: om.modified_jacobi_expansion(om.modified_jacobi(0.5, 0.3), v),
     InvalidParams, 1, math.inf),
    ("hypothesis_window-n", lambda v: hypothesis_window(v, 0.5, 0.1), InvalidParams, 1,
     math.inf),
    ("check_hypotheses-n", lambda v: om.check_hypotheses(BOOM_SPEC, v, EDGE_X0), InvalidParams,
     1, math.inf),
    ("spectra-n", lambda v: om.sample_spectra(om.hermite(), v, 5, 1), InvalidParams, 1,
     sampling._MAX_SPECTRUM),
    ("statistic-n", lambda v: om.sample_statistic(om.hermite(), v, 1, 1, IM_G, EDGE_X0),
     InvalidParams, 1, sampling._MAX_ENTRIES),
    ("spectra-count", lambda v: om.sample_spectra(om.hermite(), 100, v, 1), InvalidParams, 1,
     sampling._MAX_ENTRIES // 100),
    ("spectra-seed", lambda v: om.sample_spectra(om.hermite(), 10, 5, v), InvalidParams, 0,
     2 ** 64 - 1),
    ("spectra-start_index", lambda v: om.sample_spectra(om.hermite(), 10, 5, 1, start_index=v),
     InvalidParams, 0, 2 ** 64 - 5),
    ("resolvent-row", lambda v: RESOLVENT.row(v), InvalidParams, 1, 5),
    ("resolvent-entry", lambda v: RESOLVENT.entry(2, v), InvalidParams, 1, 5),
    ("decay_profile-ref_row", lambda v: om.decay_profile(J, v), InvalidParams, 1, 5),
    ("lipschitz-grid", lambda v: om.weighted_lipschitz_norm(BOOM_F, v), InvalidParams, 2,
     20001),
    ("fit-M", lambda v: om.fit_resolvent_approximation(BOOM_F, v), InvalidParams, 1, 1000),
]

SIDES = [
    ("EdgeSpec", lambda v: om.EdgeSpec(side=v, alpha=0.5)),
    ("edge_location", lambda v: om.edge_location(BOOM_SPEC, 10, v)),
    ("sigma2_quadrature", lambda v: om.sigma2_quadrature(BOOM_F, v)),
    ("sigma2_residue", lambda v: om.sigma2_residue(IM_G, v)),
    ("free_resolvent_entry", lambda v: om.free_resolvent_entry(1j, 10.0, v, 1, 1)),
]

# (site, call, positive): a positive real must also lie above 0
REALS = [
    ("quadrature-tol", lambda v: om.sigma2_quadrature(BOOM_F, om.Side.RIGHT, tol=v), True),
    ("fit-pole_height", lambda v: om.fit_resolvent_approximation(BOOM_F, 5, pole_height=v),
     True),
    ("free_resolvent-n_alpha", lambda v: om.free_resolvent_entry(1j, v, om.Side.LEFT, 1, 1),
     True),
    ("decay-n_alpha", _decay, True),
    ("scaled_argument-factor", lambda v: IM_G.scaled_argument(v), True),
    ("EdgeSpec-alpha", lambda v: om.EdgeSpec(side=om.Side.RIGHT, alpha=v), False),
    ("EdgeSpec-epsilon", lambda v: om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=v), False),
    ("EdgeSpec-x0", lambda v: om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, x0=v), False),
]


def _whole_cases():
    for site, call, error, least, most in WHOLE:
        bad = [2.5, 2.0, True, -1, least - 1] + ([most + 1] if most < math.inf else [])
        for value in bad:
            yield pytest.param(call, error, value, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, error, value", _whole_cases())
def test_whole_number_refused(call, error, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call", [call for _, call in SIDES], ids=[site for site, _ in SIDES])
@pytest.mark.parametrize("side", ["left", "right", None, 0])
def test_side_refused(call, side):
    with pytest.raises(InvalidParams, match="side must be Side.LEFT or Side.RIGHT"):
        call(side)


def _real_cases():
    for site, call, positive in REALS:
        for value in ["1e-7", True, math.nan, math.inf, 1j] + ([0.0, -1.0] if positive else []):
            yield pytest.param(call, value, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, value", _real_cases())
def test_real_refused(call, value):
    with pytest.raises(InvalidParams):
        call(value)


# (site, call): each call passes an argument of the wrong container or class
CONTAINERS = [
    ("sweep-n_list-None", lambda: om.convergence_sweep(BOOM_SPEC, EDGE_X0, IM_G, None)),
    ("build_F-window-int", lambda: om.build_F(BOOM_SPEC, 20, EDGE_X0, IM_G, window=5)),
    ("build_F-window-triple", lambda: om.build_F(BOOM_SPEC, 20, EDGE_X0, IM_G, window=(1, 2, 3))),
    ("build_F-edge-str", lambda: om.build_F(BOOM_SPEC, 100, "right", IM_G)),
    ("build_F-edge-str-window", lambda: om.build_F(BOOM_SPEC, 20, "right", IM_G, window=(1, 40))),
    ("check_hypotheses-edge-str", lambda: om.check_hypotheses(BOOM_SPEC, 20, "right")),
    ("default_margin-edge-str", lambda: om.default_margin(100, "right")),
    ("sample_statistic-edge-str",
     lambda: om.sample_statistic(om.hermite(), 10, 2, 1, IM_G, "right")),
    ("spectra_statistic-edge-str", lambda: om.spectra_statistic(
        SimpleNamespace(n=10, ensemble=BOOM_SPEC, spectra=None), IM_G, "right")),
]


@pytest.mark.parametrize("call", [call for _, call in CONTAINERS],
                         ids=[site for site, _ in CONTAINERS])
def test_wrong_container_refused(call):
    with pytest.raises(InvalidParams):
        call()


@pytest.mark.parametrize("where", ["j", "k"])
@pytest.mark.parametrize(
    "index",
    [1.5, 2.0, True, 0, -1, None, "1", [1, 2], np.array([1.0, 2.5]), np.array([1.0, 2.0]),
     np.array([1, 0]), np.array([True, True]), np.array([2 ** 63], dtype=np.uint64)],
    ids=repr,
)
def test_free_resolvent_index_refused(where, index):
    # 1.5 once answered 0.234 - 0.675i from u^0.5 terms
    j, k = (index, 1) if where == "j" else (1, index)
    with pytest.raises(InvalidParams, match="indices are 1-based integers"):
        om.free_resolvent_entry(1j, 10.0, om.Side.LEFT, j, k)


def test_left_edge_residue_differs_from_the_right():
    # "left" once gave the right edge's value
    f = om.parse_test_function("re:1/(x-i)+im:0.5/(x-0.3+2i)")
    assert om.sigma2_residue(f, om.Side.LEFT).value == pytest.approx(0.050684, abs=1e-6)
    assert om.sigma2_residue(f, om.Side.RIGHT).value == pytest.approx(0.029337, abs=1e-6)


# (site, call): call(to) passes every integer argument through to(), Python int or numpy
SAME_BYTES = [
    ("default_margin", lambda to: om.default_margin(to(100), EDGE_R)),
    ("build_F", lambda to: om.build_F(om.chebyshev2(), to(20), EDGE_R, IM_G,
                                       window=(to(3), to(40)))),
    ("cumulant", lambda to: [om.cumulant(F, to(20), to(m)) for m in range(1, 7)]),
    ("bound_check", lambda to: om.cumulant_bound_check(F, to(20), to(4))),
    ("sweep", lambda to: [r.to_json() for r in om.convergence_sweep(
        om.chebyshev2(), EDGE_R, IM_G, [to(20), to(30)], m_max=to(3))]),
    ("jacobi_window", lambda to: om.jacobi_window(om.krawtchouk(0.3, 2.0), to(10), to(2), to(21))),
    ("recurrence", lambda to: om.recurrence(om.laguerre(0.5), to(4), to(9))),
    ("edge_location", lambda to: om.edge_location(om.hermite(), to(100), om.Side.LEFT)),
    ("expansion", lambda to: om.modified_jacobi_expansion(om.modified_jacobi(0.5, 0.3), to(7))),
    ("hypothesis_window", lambda to: hypothesis_window(to(300), 0.5, 0.1)),
    ("check_hypotheses", lambda to: om.check_hypotheses(om.hermite(), to(300), EDGE_R).to_json()),
    ("sample_spectra", lambda to: om.sample_spectra(om.hermite(), to(12), to(3), to(5),
                                                     start_index=to(7))),
    ("sample_statistic", lambda to: om.sample_statistic(om.laguerre(0.5), to(12), to(3), to(5),
                                                         IM_G, EDGE_R)),
    ("resolvent", lambda to: (RESOLVENT.row(to(2)), RESOLVENT.entry(to(2), to(4)))),
    ("decay_profile", lambda to: om.decay_profile(
        om.TridiagonalMatrix(np.zeros(400), np.ones(399), 2.0 + 0.01j), to(200))),
    ("lipschitz", lambda to: om.weighted_lipschitz_norm(IM_G, to(65))),
    ("fit", lambda to: om.fit_resolvent_approximation(cli._make_target("hat:0,1"), to(6))),
    ("free_resolvent_entry", lambda to: (
        om.free_resolvent_entry(1j, 30.0, om.Side.RIGHT, to(3), to(5)),
        om.free_resolvent_entry(1j, 30.0, om.Side.RIGHT, np.array([to(1), to(7)]), to(3)))),
]


@pytest.mark.parametrize("call", [call for _, call in SAME_BYTES],
                         ids=[site for site, _ in SAME_BYTES])
def test_numpy_integers_give_the_bytes_of_python_ints(monkeypatch, call):
    monkeypatch.undo()  # the real work runs here
    expected = pickle.dumps(call(int))
    for to in (np.int64, np.uint64):
        assert pickle.dumps(call(to)) == expected


def test_reports_built_from_numpy_sizes_serialise(monkeypatch):
    monkeypatch.undo()
    [report] = om.convergence_sweep(om.chebyshev2(), EDGE_R, IM_G, [np.int64(20)])
    assert json.loads(json.dumps(report.to_json()))["n"] == 20
    report = om.check_hypotheses(om.hermite(), np.int64(300), EDGE_R)
    assert json.loads(json.dumps(report.to_json()))["n"] == 300

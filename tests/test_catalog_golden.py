"""Golden pin of the ensemble catalog: coefficients, windows, hypothesis reports.

``tests/golden/catalog.json`` holds, for every catalog family and one custom
callback, the recurrence coefficients on a (j, n) grid, the Jacobi window
rows 1..8 (which start with b_0), the family flags, the finite-n edges and
``check_hypotheses(...).to_json()`` on a small grid.  Errors are pinned as
(type name, message).  Comparison is exact.  Krawtchouk b_0 comes from the
general diagonal formula ((K - 0) p + 0 (1 - p)) / n, which may differ from
the shortcut t p by at most 2 ulp (``test_krawtchouk_b0_ulp_bound``).

Regenerate with ``python tests/test_catalog_golden.py --write``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import opemeso as om

GOLDEN = Path(__file__).parent / "golden" / "catalog.json"

B0_ULPS = 2  # Krawtchouk b_0 against t p, see the module docstring


def _custom(j, n):
    return math.sqrt((j + 0.5) / n), 0.3 / (j + 1) - 0.1 * j / n


SPECS = {
    "chebyshev2": om.chebyshev2(),
    "modified_jacobi(0.3,-0.6)": om.modified_jacobi(0.3, -0.6),
    "modified_jacobi(0.5,0.5)": om.modified_jacobi(0.5, 0.5),
    "modified_jacobi(0.5,-0.5)": om.modified_jacobi(0.5, -0.5),
    "modified_jacobi(-0.5,-0.5)": om.modified_jacobi(-0.5, -0.5),
    "modified_jacobi(-0.7,0.2)": om.modified_jacobi(-0.7, 0.2),
    "laguerre(0)": om.laguerre(0.0),
    "laguerre(0.5)": om.laguerre(0.5),
    "hermite": om.hermite(),
    "freud(0.5)": om.freud(0.5),
    "freud(4)": om.freud(4.0),
    "tricomi_carlitz(1.5)": om.tricomi_carlitz(1.5),
    "krawtchouk(0.25,2)": om.krawtchouk(0.25, 2.0),
    "krawtchouk(0.6,1)": om.krawtchouk(0.6, 1.0),
    "hahn(0.5,0.7,1.5)": om.hahn(0.5, 0.7, 1.5),
    "hahn(1,1,1)": om.hahn(1.0, 1.0, 1.0),
    "log_singular": om.log_singular(),
    "custom": om.custom(_custom),
}

J_GRID = (0, 1, 2, 3, 7, 20, 64, 150)
N_GRID = (1, 2, 10, 100)
WINDOW_N = (2, 10, 100)
EDGE_N = (2, 10, 100)
HYPOTHESIS_GRID = [
    (n, alpha, side) for n in (12, 300) for alpha in (0.5, 1.5) for side in om.Side
]


def _attempt(fn):
    try:
        return fn()
    except om.OpemesoError as exc:
        return [type(exc).__name__, str(exc)]


def _window(spec, n):
    diag, off = om.jacobi_window(spec, n, 1, 8)
    return {"diag": diag.tolist(), "offdiag": off.tolist()}


def catalog_records() -> dict:
    records = {}
    for label, spec in SPECS.items():
        records[label] = {
            "varying": spec.varying,
            "moment_determinate": spec.moment_determinate,
            "recurrence": {
                f"{j},{n}": _attempt(lambda: list(om.recurrence(spec, j, n)))
                for j in J_GRID
                for n in N_GRID
            },
            "window": {str(n): _attempt(lambda: _window(spec, n)) for n in WINDOW_N},
            "edge": {
                f"{n},{side.value}": _attempt(lambda: om.edge_location(spec, n, side))
                for n in EDGE_N
                for side in om.Side
            },
            "hypotheses": {
                f"{n},{alpha},{side.value}": _attempt(
                    lambda: om.check_hypotheses(
                        spec, n, om.EdgeSpec(side=side, alpha=alpha)
                    ).to_json()
                )
                for n, alpha, side in HYPOTHESIS_GRID
            },
        }
    return records


def test_catalog_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(catalog_records()))
    for label in SPECS:
        assert actual[label] == expected[label], label


@pytest.mark.parametrize("label", list(SPECS))
@pytest.mark.parametrize("n", [0, -2])
def test_size_below_one_is_out_of_domain(label, n):
    spec = SPECS[label]
    message = f"ensemble size must be >= 1, got {n}"
    for lo, hi in ((1, 1), (1, 8), (3, 5)):
        with pytest.raises(om.OutOfDomain, match=message):
            om.jacobi_window(spec, n, lo, hi)
    for j in (1, 4):
        with pytest.raises(om.OutOfDomain, match=message):
            om.recurrence(spec, j, n)


def test_krawtchouk_b0_ulp_bound():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        p = float(rng.uniform(0.01, 0.99))
        t = float(rng.uniform(1.0, 5.0))
        n = int(rng.integers(1, 10_000))
        b0 = om.jacobi_window(om.krawtchouk(p, t), n, 1, 1)[0][0]
        assert abs(b0 - t * p) <= B0_ULPS * np.spacing(t * p)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_catalog_golden.py --write")
    GOLDEN.write_text(json.dumps(catalog_records(), indent=1, sort_keys=True) + "\n")

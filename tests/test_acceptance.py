"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines; the same checks back the ``opemeso selftest`` subcommand.
"""

import pytest

from opemeso import acceptance
from opemeso.acceptance import CRITERIA


@pytest.mark.parametrize(
    "number,description,fn", CRITERIA, ids=[f"criterion_{c[0]:02d}" for c in CRITERIA]
)
def test_criterion(number, description, fn):
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({description}): {detail}")
    assert ok, f"criterion {number} ({description}): {detail}"


def test_a_raising_criterion_fails_and_the_run_goes_on(monkeypatch, capsys):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(
        acceptance, "CRITERIA", [(1, "crashes", crash), (2, "passes", lambda: (True, "fine"))]
    )
    results = acceptance.run()
    assert [(r.number, r.ok) for r in results] == [(1, False), (2, True)]
    assert results[0].detail == "raised RuntimeError: boom"
    assert "[FAIL] criterion  1 (crashes): raised RuntimeError: boom" in capsys.readouterr().out

"""Self-tests of the benchmark: seeding, output checks, failure counting, tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the repository root.
They run no workload end to end; each takes well under a second.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from workloads import CheckFailed, Op

ROOT = Path(__file__).resolve().parent.parent


def _keys(ops):
    return [op.key for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_same_inputs_and_every_seed_same_count(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path)
    again = workloads.build(workload, 7, tmp_path)
    assert _keys(first) == _keys(again)
    counts = {len(workloads.build(workload, seed, tmp_path)) for seed in range(5)}
    assert counts == {len(first)}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_seed_changes_values_not_sizes(workload, tmp_path):
    a = workloads.build(workload, 1, tmp_path)
    b = workloads.build(workload, 2, tmp_path)
    assert _keys(a) != _keys(b)
    # argv differ only in values: same flags in the same places
    for op_a, op_b in zip(a, b):
        assert op_a.label == op_b.label
        assert len(op_a.key) == len(op_b.key)
        flags_a = [t for t in op_a.key if isinstance(t, str) and t.startswith("--")]
        flags_b = [t for t in op_b.key if isinstance(t, str) and t.startswith("--")]
        assert flags_a == flags_b


# Scaled cumulants of the Chebyshev2 sweep as the CLI writes them at this commit.
_CHEB = {250: 0.092775990512199993, 500: 0.093054880389182706,
         1000: 0.093248141465368167, 2000: 0.093394989652562571}


def _write_cheb_csv(path: Path, c2_factor: float = 1.0) -> None:
    lines = ["n,alpha,m,value_re,value_im"]
    for n, c2 in _CHEB.items():
        for m, v in ((1, 1.0), (2, c2 * (c2_factor if n == 2000 else 1.0)), (3, 1e-5), (4, 1e-5)):
            lines.append(f"{n},0.5,{m},{v!r},0")
    path.write_text("\n".join(lines) + "\n")


def test_clt_check_passes_then_fails_on_perturbed_c2(tmp_path):
    csv = tmp_path / "cheb.csv"
    _write_cheb_csv(csv)
    workloads.check_clt_sweep(csv)
    _write_cheb_csv(csv, c2_factor=1.2)
    with pytest.raises(CheckFailed):
        workloads.check_clt_sweep(csv)


def test_resumed_batch_with_changed_first_rows_fails():
    rng = np.random.default_rng(0)
    fresh = rng.standard_normal((5, 8))
    resumed = np.vstack([fresh, rng.standard_normal((3, 8))])
    workloads.check_resumed_prefix(resumed, fresh)
    changed = resumed.copy()
    changed[0, 0] = np.nextafter(changed[0, 0], 1.0)
    with pytest.raises(CheckFailed):
        workloads.check_resumed_prefix(changed, fresh)


def test_variance_check_catches_wrong_residue(tmp_path):
    out = tmp_path / "vl.json"

    def write(residue):
        out.write_text(json.dumps({
            "quadrature": {"value": 3 / 32 + 1e-9, "est_error": 1e-8},
            "residue": {"value": residue, "est_error": 1e-17},
        }))

    write(3 / 32)
    workloads.check_variance(out, 3 / 32)
    write(3 / 32 * 1.2)
    with pytest.raises(CheckFailed):
        workloads.check_variance(out, 3 / 32)


def test_failed_operations_are_counted_and_do_not_stop_the_pass():
    def boom():
        raise ValueError("boom")

    def bad_check(_):
        raise CheckFailed("wrong output")

    ran = []
    ops = [
        Op("ok", ("ok",), lambda: ran.append("ok") or 0, lambda _: None, is_cli=True),
        Op("raises", ("raises",), boom, lambda _: None),
        Op("exit-1", ("exit",), lambda: 1, lambda _: None, is_cli=True),
        Op("exit-2", ("exit",), lambda: (_ for _ in ()).throw(SystemExit(2)), lambda _: None, is_cli=True),
        Op("bad-output", ("bad",), lambda: 3.0, bad_check),
        Op("last", ("last",), lambda: ran.append("last"), lambda _: None),
    ]
    res = worker.run_pass(ops)
    assert (res.attempted, res.failed) == (6, 4)
    assert ran == ["ok", "last"]
    assert [e.split(":")[0] for e in res.errors] == ["raises", "exit-1", "exit-2", "bad-output"]


def test_self_time_subtracts_children_and_coverage_adds_up():
    t = tracing.Tracer()
    # spans: [name, start, end, parent, op]
    t.spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["cumulants.convergence_sweep", 1.0, 9.0, 0, 0],
        ["cumulants.build_F", 2.0, 5.0, 1, 0],
        ["kernel.cumulants.solve_banded", 3.0, 4.0, 2, 0],
    ]
    m = t.pass_metrics(0, wall_s=12.0)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["cumulants.convergence_sweep.self_s"] == pytest.approx(5.0)
    assert m["cumulants.build_F.self_s"] == pytest.approx(2.0)
    assert m["kernel.cumulants.solve_banded.self_s"] == pytest.approx(1.0)
    assert m["cli.main.calls"] == 1
    assert m["trace.coverage"] == pytest.approx(10.0 / 12.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)


def test_wrappers_record_nested_spans_counters_and_uninstall(tmp_path):
    import opemeso.cli
    import opemeso.cumulants

    original = opemeso.cli.main
    t = tracing.Tracer()
    assert t.install() == []
    try:
        t.enabled = True
        t.op_id = 42
        out = tmp_path / "c.csv"
        rc = opemeso.cli.main(["cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5",
                               "--x0", "2", "--n", "50", "--m-max", "3", "--f", "im:1/(x-i)",
                               "--output", str(out)])
        t.enabled = False
        assert rc == 0
        m = t.pass_metrics(0, wall_s=sum(s[2] - s[1] for s in t.spans if s[3] == -1))
    finally:
        t.uninstall()
    assert opemeso.cli.main is original
    assert not hasattr(opemeso.cumulants._PowerBlocks.__init__, "__wrapped__")
    assert {s[4] for s in t.spans} == {42}
    assert m["cli.main.calls"] == 1 and m["cli.main.failed"] == 0
    assert m["cumulants.convergence_sweep.calls"] == 1
    assert m["cumulants.build_F.calls"] == 1
    assert m["kernel.cumulants.solve_banded.calls"] == 1
    margin = opemeso.cumulants.default_margin(50, opemeso.EdgeSpec(
        side=opemeso.Side.RIGHT, alpha=0.5, epsilon=0.1))
    assert m["cumulants.window_rows"] == 50 + margin
    assert m["ensembles.jacobi_window.rows"] == 50 + margin
    assert m["cumulants.window_useful_ratio"] == pytest.approx((2 * margin + 1) / (50 + margin))
    assert m["cumulants.dense_flops_computed"] == 2 * (50 + margin) ** 2 * 50 * 1
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = tracing.per_layer_metric_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])
    assert len(names) == len(set(names)) <= 128


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "mc-batch", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_machine_record_names_blas_threads_and_cpu():
    record = worker.machine_record()
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model", "caches", "blas_threads"):
        assert key in record
    assert record["nproc"] >= 1
    assert all(entry["threads"] >= 1 for entry in record["blas_threads"])

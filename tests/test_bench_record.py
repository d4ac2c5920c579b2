"""tools/bench_record.py runs seeds 1-10 of every workload alternated, writes the records its
label names, and refuses bad input, bad checkouts and failed runs with a message, not a
traceback."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def record(tmp_path, *args):
    """Run the tool with git unable to find a repository above tmp_path."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path)}
    return subprocess.run(
        [sys.executable, str(TOOL), "--label", "x", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize("flags", [
    ["--root", "{missing}", "--commit", "abc1234"],
    ["--root", "{tmp}", "--parent", "{missing}"],
], ids=["root", "parent"])
def test_missing_checkout_is_named(tmp_path, flags):
    missing = tmp_path / "no-such-checkout"
    done = record(tmp_path, *(f.format(missing=missing, tmp=tmp_path) for f in flags))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"checkout {missing} is not a directory" in done.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_root_outside_git_needs_a_commit(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("raise SystemExit('must not run')\n")
    done = record(tmp_path, "--root", str(checkout))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"checkout {checkout} is not a git checkout" in done.stderr
    assert "must not run" not in done.stderr
    assert not (checkout / "BENCH_x.json").exists()


def test_failed_run_shows_its_stderr(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('benchmark run failed: worker exited with 1', file=sys.stderr)\n"
        "sys.exit(1)\n"
    )
    done = record(tmp_path, "--root", str(checkout), "--commit", "abc1234")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "workload edge-sweep, seed 1" in done.stderr
    assert f"checkout {checkout}" in done.stderr
    assert "benchmark run failed: worker exited with 1" in done.stderr
    assert not (checkout / "BENCH_x.json").exists()


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture
def tool(monkeypatch):
    """The tool in process, with a perfbench stand-in and a git stand-in.

    The perfbench stand-in logs "<checkout> <workload> <seed> <trace>" in ``tool.runs`` and
    returns a passing result: wall_s is the seed on the parent and half a unit below it
    elsewhere, except half a unit above on seeds 4 and 8; peak_rss_mb is 1 on both.
    ``tool.failing`` holds the (checkout, workload, seed) runs that report one failed
    operation.  The git stand-in gives each checkout the HEAD "<checkout>-head", and the
    checkouts named in ``tool.dirty`` a modified tracked file."""
    tool = load_tool()
    tool.runs = []
    tool.failing = set()
    tool.dirty = set()

    def bench(root, workload, seed, seconds, trace):
        tool.runs.append(f"{root.name} {workload} {seed} {trace}")
        wall = float(seed) if root.name == "parent" else seed + (0.5 if seed in (4, 8) else -0.5)
        failed = int((root.name, workload, seed) in tool.failing)
        return {"attempted": 2, "failed": failed, "correct": not failed, "machine": {"cpus": 1},
                "absent": [], "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 1.0}}}

    def git(root, *args):
        out = {("rev-parse", "--short", "HEAD"): f"{root.name}-head\n",
               ("status", "--porcelain", "--untracked-files=no"):
                   " M src/opemeso/tridiagonal.py\n" if root.name in tool.dirty else ""}[args]
        return subprocess.CompletedProcess(["git", *args], 0, out, "")

    monkeypatch.setattr(tool, "bench", bench)
    monkeypatch.setattr(tool, "git", git)
    return tool


def record_pairs(tool, tmp_path, *flags):
    """Run the tool in process on change and parent checkouts under tmp_path."""
    root, parent = tmp_path / "change", tmp_path / "parent"
    root.mkdir()
    parent.mkdir()
    return tool.main(["--root", str(root), "--parent", str(parent), *flags])


def test_requested_seeds_and_workloads_run_alternated(tool, tmp_path):
    assert record_pairs(tool, tmp_path, "--label", "x") == 0
    # WORKLOADS order, seeds 1-10 of each, each (workload, seed) pair alternating which
    # side runs first, then one traced run per workload on seed 1, still alternating
    assert tool.runs[:4] == ["parent edge-sweep 1 0", "change edge-sweep 1 0",
                             "change edge-sweep 2 0", "parent edge-sweep 2 0"]
    def in_turn(pair):
        return ("parent", "change") if pair % 2 == 0 else ("change", "parent")

    assert tool.runs == [
        f"{side} {workload} {seed} 0" for workload in tool.WORKLOADS for seed in range(1, 11)
        for side in in_turn(seed - 1)
    ] + [
        f"{side} {workload} 1 1" for k, workload in enumerate(tool.WORKLOADS)
        for side in in_turn(k)
    ]
    for name, label, walls in (
        ("BENCH_x.json", "x", [0.5, 1.5, 2.5, 4.5, 4.5, 5.5, 6.5, 8.5, 8.5, 9.5]),
        ("BENCH_before_x.json", "before_x", [float(seed) for seed in range(1, 11)]),
    ):
        written = json.loads((tmp_path / "change" / name).read_text())
        assert written["label"] == label
        assert written["seeds"] == list(range(1, 11))
        assert list(written["workloads"]) == list(written["traced"]) == list(tool.WORKLOADS)
        assert written["workloads"]["mc-batch"]["metrics"]["wall_s"]["values"] == walls
    assert sorted(p.name for p in tmp_path.rglob("BENCH_*.json")) == [
        "BENCH_before_x.json", "BENCH_x.json"]


def test_pairs_counted_by_seed_in_the_root_record(tool, tmp_path, capsys):
    assert record_pairs(tool, tmp_path, "--label", "x") == 0
    # eight seeds read lower on the change, seeds 4 and 8 higher, whichever side ran first;
    # medians 5.0 and 5.5, the parent's inclusive quartiles 3.25 and 7.75
    assert capsys.readouterr().out.splitlines() == [
        line for workload in tool.WORKLOADS for line in (
            f"{workload} wall_s: x lower in 8, higher in 2, equal in 0 of 10 pairs; "
            "median 5 against 5.5, before_x IQR 4.5",
            f"{workload} peak_rss_mb: x lower in 0, higher in 0, equal in 10 of 10 pairs; "
            "median 1 against 1, before_x IQR 0",
        )
    ]
    root = json.loads((tmp_path / "change" / "BENCH_x.json").read_text())
    parent = json.loads((tmp_path / "change" / "BENCH_before_x.json").read_text())
    assert root["alternated_with"] == {"label": "before_x", "commit": "parent-head"}
    assert parent["alternated_with"] == {"label": "x", "commit": "change-head"}
    for workload in tool.WORKLOADS:
        assert root["workloads"][workload]["pairs"] == {
            "wall_s": {"lower": 8, "higher": 2, "equal": 0},
            "peak_rss_mb": {"lower": 0, "higher": 0, "equal": 10},
        }
        assert "pairs" not in parent["workloads"][workload]


def test_failed_operations_are_printed_per_workload_and_side(tool, tmp_path, capsys):
    # one run of each side fails an operation on mc-batch, and the change fails one more
    # on resolvent-decay seeds 3 and 7: each (workload, side) gets one line with its sum
    tool.failing = {("parent", "mc-batch", 5), ("change", "mc-batch", 2),
                    ("change", "resolvent-decay", 3), ("change", "resolvent-decay", 7)}
    assert record_pairs(tool, tmp_path, "--label", "x") == 0
    failures = [line for line in capsys.readouterr().out.splitlines() if "failed" in line]
    assert failures == [
        "mc-batch before_x: 1 of 20 operations failed; this record backs no claim",
        "mc-batch x: 1 of 20 operations failed; this record backs no claim",
        "resolvent-decay x: 2 of 20 operations failed; this record backs no claim",
    ]
    root = json.loads((tmp_path / "change" / "BENCH_x.json").read_text())
    assert root["workloads"]["resolvent-decay"]["failed"] == 2
    assert root["workloads"]["edge-sweep"]["failed"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--label", "x", "--commit", "abc1234"], "--commit and --parent do not go together"),
    (["--label", ""], "must be non-empty with no path separator"),
    (["--label", "sub/x"], "must be non-empty with no path separator"),
], ids=["commit-with-parent", "empty-label", "label-with-separator"])
def test_commit_with_parent_or_bad_label_refused_before_any_run(tool, tmp_path, capsys, flags,
                                                                message):
    with pytest.raises(SystemExit) as refused:
        record_pairs(tool, tmp_path, *flags)
    assert refused.value.code == 2
    assert message in capsys.readouterr().err
    assert tool.runs == []
    assert not list(tmp_path.rglob("BENCH_*.json"))


def test_parent_that_is_the_root_refused_before_any_run(tool, tmp_path, capsys):
    root = tmp_path / "change"
    root.mkdir()
    (tmp_path / "link").symlink_to(root)
    for parent in (root, tmp_path / "change" / ".." / "change", tmp_path / "link"):
        with pytest.raises(SystemExit) as refused:
            tool.main(["--label", "x", "--root", str(root), "--parent", str(parent)])
        assert refused.value.code == 2
        assert f"--parent {parent} is the --root checkout" in capsys.readouterr().err
    assert tool.runs == []
    assert not list(tmp_path.rglob("BENCH_*.json"))


@pytest.mark.parametrize("dirty", ["change", "parent"], ids=["root", "parent"])
def test_dirty_checkout_refused_before_any_run(tool, tmp_path, dirty):
    # a record names its checkout's HEAD, which is not the tree that runs while a tracked
    # file differs from it
    tool.dirty = {dirty}
    with pytest.raises(SystemExit) as refused:
        record_pairs(tool, tmp_path, "--label", "x")
    # a message, not a number: exit status 1
    assert f"checkout {tmp_path / dirty} has uncommitted changes to tracked files" in (
        refused.value.code)
    assert "M src/opemeso/tridiagonal.py" in refused.value.code
    assert tool.runs == []
    assert not list(tmp_path.rglob("BENCH_*.json"))


def test_dirty_git_root_refused_but_untracked_files_are_not(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    run_py = checkout / "perfbench" / "run.py"
    run_py.write_text("raise SystemExit('must not run')\n")
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "stand-in"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=checkout, check=True, capture_output=True)
    (checkout / "notes.txt").write_text("untracked\n")
    done = record(tmp_path, "--root", str(checkout))
    assert "must not run" in done.stderr       # past the check, into the first run
    run_py.write_text("raise SystemExit('must not run, edited')\n")
    done = record(tmp_path, "--root", str(checkout))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"checkout {checkout} has uncommitted changes to tracked files" in done.stderr
    assert "must not run" not in done.stderr
    assert not (checkout / "BENCH_x.json").exists()

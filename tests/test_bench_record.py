"""tools/bench_record.py runs the requested seeds and workloads alternated, and refuses bad
input, bad checkouts and failed runs with a message, not a traceback."""

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
        [sys.executable, str(TOOL), "--label", "x", "--output", str(tmp_path / "BENCH_x.json"),
         *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize("flags", [
    ["--root", "{missing}", "--commit", "abc1234"],
    ["--parent", "{missing}", "--parent-output", "{tmp}/BENCH_before_x.json"],
], ids=["root", "parent"])
def test_missing_checkout_is_named(tmp_path, flags):
    missing = tmp_path / "no-such-checkout"
    done = record(tmp_path, *(f.format(missing=missing, tmp=tmp_path) for f in flags))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"checkout {missing} is not a directory" in done.stderr
    assert not (tmp_path / "BENCH_x.json").exists()


def test_root_outside_git_needs_a_commit(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("raise SystemExit('must not run')\n")
    done = record(tmp_path, "--root", str(checkout))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"checkout {checkout} is not a git checkout" in done.stderr
    assert "must not run" not in done.stderr
    assert not (tmp_path / "BENCH_x.json").exists()


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
    assert not (tmp_path / "BENCH_x.json").exists()


# a perfbench stand-in: logs "<checkout> <workload> <seed> <trace>" and prints a passing
# result; wall_s is the seed on the parent and half a unit below it on odd seeds and
# above it on even seeds elsewhere, peak_rss_mb is 1 on both
FAKE_RUN = """\
import json, sys
from pathlib import Path
opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(Path.cwd().parent / "runs.log", "a") as log:
    log.write(f"{Path.cwd().name} {opts['--workload']} {opts['--seed']} {opts['--trace']}\\n")
seed = int(opts["--seed"])
wall = float(seed) if Path.cwd().name == "parent" else seed + (0.5 if seed % 2 == 0 else -0.5)
print("machine " + json.dumps({"cpus": 1}))
print(json.dumps({"attempted": 2, "failed": 0, "correct": True,
                  "metrics": {"wall_s": {"value": wall}, "peak_rss_mb": {"value": 1.0}}}))
"""


def fake_checkout(tmp_path, name):
    checkout = tmp_path / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    return checkout


def record_pairs(tmp_path, seeds, workloads):
    """Run the tool on fake change and parent checkouts, the parent a git checkout."""
    root, parent = fake_checkout(tmp_path, "change"), fake_checkout(tmp_path, "parent")
    subprocess.run(["git", "init", "-q"], cwd=parent, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", "commit",
                    "-q", "--allow-empty", "-m", "parent"], cwd=parent, check=True)
    return record(tmp_path, "--root", str(root), "--commit", "abc1234", "--parent", str(parent),
                  "--parent-output", str(tmp_path / "BENCH_before_x.json"),
                  "--seeds", seeds, "--workloads", workloads)


def test_requested_seeds_and_workloads_run_alternated(tmp_path):
    done = record_pairs(tmp_path, "11,12", "variance-limit,edge-sweep")
    assert done.returncode == 0, done.stderr
    # WORKLOADS order, each (workload, seed) pair alternating which side runs
    # first, then one traced run per workload on the first seed
    assert (tmp_path / "runs.log").read_text().splitlines() == [
        "parent edge-sweep 11 0", "change edge-sweep 11 0",
        "change edge-sweep 12 0", "parent edge-sweep 12 0",
        "parent variance-limit 11 0", "change variance-limit 11 0",
        "change variance-limit 12 0", "parent variance-limit 12 0",
        "parent edge-sweep 11 1", "change edge-sweep 11 1",
        "change variance-limit 11 1", "parent variance-limit 11 1",
    ]
    for name, walls in (("BENCH_x.json", [10.5, 12.5]), ("BENCH_before_x.json", [11.0, 12.0])):
        written = json.loads((tmp_path / name).read_text())
        assert written["seeds"] == [11, 12]
        assert list(written["workloads"]) == list(written["traced"]) == [
            "edge-sweep", "variance-limit"]
        assert written["workloads"]["edge-sweep"]["metrics"]["wall_s"]["values"] == walls


def test_pairs_counted_by_seed_in_the_root_record(tmp_path):
    done = record_pairs(tmp_path, "11,12,13", "resolvent-decay")
    assert done.returncode == 0, done.stderr
    # seeds 11 and 13 read lower on the change, 12 higher, whichever side ran first
    assert done.stdout.splitlines() == [
        "resolvent-decay wall_s: x lower in 2, higher in 1, equal in 0 of 3 pairs",
        "resolvent-decay peak_rss_mb: x lower in 0, higher in 0, equal in 3 of 3 pairs",
    ]
    root = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert root["workloads"]["resolvent-decay"]["pairs"] == {
        "wall_s": {"lower": 2, "higher": 1, "equal": 0},
        "peak_rss_mb": {"lower": 0, "higher": 0, "equal": 3},
    }
    parent = json.loads((tmp_path / "BENCH_before_x.json").read_text())
    assert "pairs" not in parent["workloads"]["resolvent-decay"]


@pytest.mark.parametrize("flags, message", [
    (["--workloads", "edge-sweep,warp-drive"], "unknown workload warp-drive"),
    (["--seeds", "4"], "--seeds must be at least two distinct"),
    (["--seeds", "4,x"], "--seeds must be at least two distinct"),
    (["--seeds", "4,4"], "--seeds must be at least two distinct"),
], ids=["unknown-workload", "one-seed", "not-an-integer", "repeated-seed"])
def test_bad_workloads_or_seeds_refused_before_any_run(tmp_path, flags, message):
    checkout = fake_checkout(tmp_path, "change")
    done = record(tmp_path, "--root", str(checkout), "--commit", "abc1234", *flags)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert message in done.stderr
    assert not (tmp_path / "runs.log").exists()
    assert not (tmp_path / "BENCH_x.json").exists()

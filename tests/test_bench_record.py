"""tools/bench_record.py refuses bad checkouts and failed runs with a message, not a traceback."""

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

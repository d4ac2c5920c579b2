"""tools/bench_record.py reports a failed perfbench run instead of a traceback."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def test_failed_run_shows_its_stderr(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('benchmark run failed: worker exited with 1', file=sys.stderr)\n"
        "sys.exit(1)\n"
    )
    output = tmp_path / "BENCH_x.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--label", "x", "--output", str(output),
         "--root", str(checkout), "--commit", "abc1234"],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "workload edge-sweep, seed 1" in done.stderr
    assert f"checkout {checkout}" in done.stderr
    assert "benchmark run failed: worker exited with 1" in done.stderr
    assert not output.exists()

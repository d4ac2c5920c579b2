"""opemeso benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload edge-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measured run happens in a fresh
Python process (``worker.py``) that imports opemeso from the checkout's
``src/``; a few more processes only set up, so that ``setup_s`` is a median.
The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it give the machine
record and a readable summary, ``failed_ratio`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edge-sweep", "mc-batch", "variance-limit", "resolvent-decay")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
# BLAS keeps its default thread count and the CLI its default worker count
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "OPE_MESO_THREADS", "PYTHONPATH")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    # `git describe` inside cli.main must not look above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(args, result: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    result.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    proc = subprocess.run([*cmd, "--spawned-at", repr(spawned_at)], cwd=ROOT, env=child_env(),
                          stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} max={max(values):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="opemeso benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "opemeso" / "__init__.py").is_file():
        print(f"no opemeso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    result = work / f"result-{os.getpid()}.json"
    try:
        setups = [spawn(args, result, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
        run = spawn(args, result, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        result.unlink(missing_ok=True)
    setups.append(run["setup_s"])

    attempted, failed = run["attempted"], run["failed"]
    print("machine " + json.dumps(run["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {run['operations']} operations per pass, "
          f"{len(run['wall_s'])} untraced passes after one warm-up")
    for error in run["errors"]:
        print(f"failed: {error}")
    print(f"failed_ratio {failed / attempted:.6g} ratio (attempted {attempted}, failed {failed})")
    if args.trace:
        layers = run["layers"]
        metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        metrics["trace.untraced_wall_s"] = statistics.median(run["wall_s"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = run["layer_units"]
        if run.get("missing_sites"):
            print("not wrapped (absent): " + ", ".join(run["missing_sites"]))
        print(f"traced passes {len(layers)}; spans in {run['spans_file']}")
    else:
        metrics = {
            "wall_s": statistics.median(run["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "cpu_s": statistics.median(run["cpu_s"]),
        }
        units = END_TO_END
        spread = {"wall_s": run["wall_s"], "cpu_s": run["cpu_s"], "setup_s": setups}
    for name, unit in units.items():
        detail = "" if args.trace else f"  ({quartiles(spread.get(name, [metrics[name]]))})"
        print(f"{name} {metrics[name]:.6g} {unit}{detail}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

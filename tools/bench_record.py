"""Record one BENCH_<label>.json: end-to-end medians and spreads, plus a traced run.

    python3 tools/bench_record.py --label baseline --output BENCH_baseline.json
    python3 tools/bench_record.py --root ../other-checkout --commit abc1234 ...
    python3 tools/bench_record.py --label NAME --output BENCH_NAME.json \
        --parent ../parent-checkout --parent-output BENCH_before_NAME.json
    python3 tools/bench_record.py ... --seeds 11,12,13,14,15 --workloads variance-limit

Runs ``perfbench/run.py --trace 0`` of the checkout at ``--root`` for each
of ``--workloads`` (default all four, run in WORKLOADS order) and each of
``--seeds`` (default 1,2,3), SECONDS each, one after another, then one
``--trace 1`` run of each of those workloads on the first seed.  Each metric
gets its per-seed values, median and quartiles (inclusive method); the
machine record is the one the first run printed.  A record shows where one
checkout stands; it does not back a claim against another record.  On a
shared machine two records made half an hour apart drifted by 8-35 % on
workloads neither change touched, while alternated runs of the two checkouts
did not, so a speed claim needs alternated parent/change pairs run back to
back.

``--parent`` makes those pairs: for each (workload, seed) it runs the parent
checkout and ``--root`` back to back, the parent first in every other pair,
likewise for the traced runs, and writes the parent's record (label
``before_<label>``) to ``--parent-output``.  Each record names the other in
``alternated_with``.  For each workload and metric the root's record also
counts, in ``pairs``, the seeds on which the root read lower, higher or equal
than the parent, and the tool prints one line per count, so a verdict needs no
hand count.  Further pairs on unused seeds come from the same flags with
``--seeds`` and ``--workloads``.

A ``--root`` or ``--parent`` that is not a directory, or that is not a git
checkout when its commit is read from git (always for the parent, for the
root without ``--commit``), ends the tool with exit status 1 before any run,
as do an unknown workload and a seed list that is not two or more distinct
comma-separated integers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("edge-sweep", "mc-batch", "variance-limit", "resolvent-decay")
SEEDS = "1,2,3"
SECONDS = 20.0


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its machine record, JSON result and any absent sites.

    A failed run ends the tool with exit status 1 and the run's stderr, and no record is written."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"perfbench run failed (exit {run.returncode}): workload {workload}, seed {seed}, "
                 f"trace {trace}, checkout {root}\n{run.stderr.rstrip()}")
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(next(x for x in lines if x.startswith("machine "))[len("machine "):])
    result["absent"] = [x for x in lines if x.startswith("not wrapped (absent)")]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def git_head(root: Path) -> str:
    """The root's short HEAD commit; a root that is not a git checkout ends the tool with exit status 1."""
    run = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True, text=True
    )
    if run.returncode != 0:
        sys.exit(f"checkout {root} is not a git checkout, so its commit cannot be read\n"
                 f"{run.stderr.rstrip()}")
    return run.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--commit", help="recorded as is; defaults to the root's git HEAD")
    parser.add_argument("--parent", type=Path, help="checkout whose runs alternate with the root's")
    parser.add_argument("--parent-output", type=Path, help="where the parent's record goes")
    parser.add_argument("--seeds", default=SEEDS, help=f"comma-separated (default {SEEDS})")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ", ".join(WORKLOADS))
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.parent_output is None):
        parser.error("--parent and --parent-output go together")
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        seeds = []
    if len(set(seeds)) != len(seeds) or len(seeds) < 2:  # quartiles need two values
        sys.exit(f"--seeds must be at least two distinct comma-separated integers, "
                 f"got {args.seeds!r}")
    asked = args.workloads.split(",")
    unknown = [name for name in asked if name not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")
    workloads = [name for name in WORKLOADS if name in asked]
    for root in (args.root, args.parent):
        if root is not None and not root.is_dir():
            sys.exit(f"checkout {root} is not a directory")

    # (root, record, output); with --parent the parent comes first
    sides = [(args.root, args.label, args.commit or git_head(args.root), args.output)]
    if args.parent is not None:
        sides.insert(0, (args.parent, f"before_{args.label}", git_head(args.parent),
                         args.parent_output))
    records = [{"schema": 1, "label": label, "commit": commit, "seeds": seeds,
                "seconds": SECONDS, "command": "python3 perfbench/run.py --trace 0",
                "machine": None, "workloads": {}, "traced": {}}
               for _, label, commit, _ in sides]
    if len(sides) == 2:
        for record, other in zip(records, records[::-1]):
            record["alternated_with"] = {"label": other["label"], "commit": other["commit"]}

    def in_turn(pair: int) -> list[int]:
        """Side indices in run order: the parent first on pairs 0, 2, 4, ..."""
        order = list(range(len(sides)))
        return order if pair % 2 == 0 else order[::-1]

    pair = 0
    for workload in workloads:
        runs = [[] for _ in sides]
        for seed in seeds:
            for i in in_turn(pair):
                runs[i].append(bench(sides[i][0], workload, seed, SECONDS, 0))
            pair += 1
        for record, side_runs in zip(records, runs):
            record["machine"] = record["machine"] or side_runs[0]["machine"]
            record["workloads"][workload] = {
                "attempted": sum(r["attempted"] for r in side_runs),
                "failed": sum(r["failed"] for r in side_runs),
                "metrics": {name: summary([r["metrics"][name]["value"] for r in side_runs])
                            for name in side_runs[0]["metrics"]},
            }
    for workload in workloads:
        for i in in_turn(pair):
            run = bench(sides[i][0], workload, seeds[0], SECONDS, 1)
            records[i]["traced"][workload] = {
                "seed": seeds[0], "correct": run["correct"], "absent": run["absent"],
                "metrics": {name: m["value"] for name, m in run["metrics"].items()},
            }
        pair += 1
    if len(sides) == 2:
        parent, root = records
        for workload in workloads:
            pairs = root["workloads"][workload]["pairs"] = {}
            for name, metric in root["workloads"][workload]["metrics"].items():
                # both value lists are in seed order, so zip pairs the runs of one seed
                by_seed = list(zip(metric["values"],
                                   parent["workloads"][workload]["metrics"][name]["values"]))
                count = pairs[name] = {"lower": sum(r < p for r, p in by_seed),
                                       "higher": sum(r > p for r, p in by_seed),
                                       "equal": sum(r == p for r, p in by_seed)}
                print(f"{workload} {name}: {root['label']} lower in {count['lower']}, "
                      f"higher in {count['higher']}, equal in {count['equal']} "
                      f"of {len(by_seed)} pairs")
    for (_, _, _, output), record in zip(sides, records):
        output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

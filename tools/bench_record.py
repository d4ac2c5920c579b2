"""Record BENCH_<label>.json: ten seeds on every workload, medians, spreads and a traced run.

    python3 tools/bench_record.py --label NAME --parent ../parent-checkout
    python3 tools/bench_record.py --label NAME
    python3 tools/bench_record.py --label NAME --root ../other-checkout --commit abc1234

Runs ``perfbench/run.py --trace 0`` of the checkout at ``--root`` for each
workload in WORKLOADS order and each of SEEDS (1 to 10), SECONDS each, one
after another, then one ``--trace 1`` run of each workload on seed 1.  Each
metric gets its per-seed values, median and quartiles (inclusive method); the
machine record is the one the first run printed.  The record goes to
``<root>/BENCH_<label>.json``.  A record shows where one checkout stands; it
does not back a claim against another record.  On a shared machine two
records made half an hour apart drifted by 8-35 % on workloads neither change
touched, while alternated runs of the two checkouts did not, so a speed claim
needs alternated parent/change pairs run back to back.

``--parent`` makes those pairs: for each (workload, seed) it runs the parent
checkout and ``--root`` back to back, the parent first in every other pair,
likewise for the traced runs, and writes the parent's record (label
``before_<label>``) to ``<root>/BENCH_before_<label>.json``.  Each record names
the other in ``alternated_with``.  For each workload and metric the root's
record also counts, in ``pairs``, the seeds on which the root read lower,
higher or equal than the parent.  The tool prints one line per count with the
two medians and the parent's interquartile range, the inputs of the claim
rule: at least 9 of 10 pairs, and a median gap wider than the parent's IQR.

A run whose operations fail still exits 0 and only counts them in ``failed``,
so for each workload and side whose summed ``failed`` is not 0 the tool
prints one line with the count, as soon as that workload's runs are done.
Such a record backs no claim: its timings are of passes that did not give
correct outputs.

The parent's commit is read from git, and both trees of a pair must be the
same kind of checkout, so ``--commit`` (for a root outside git) and
``--parent`` do not go together.  An empty ``--label``, or one with a path
separator, is refused, since it names the files, and so is a ``--parent``
that resolves to the ``--root`` checkout, whose pairs would time one tree
against itself.  Those three end the tool with exit status 2.  A ``--root`` or
``--parent`` that is not a directory ends it with exit status 1, and so does
one whose commit is read from git when it is not a git checkout or has
uncommitted changes to tracked files (``git status --porcelain
--untracked-files=no`` is not empty), since its record would name a commit
that is not the tree that ran.  All of these come before any run, and no
record is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("edge-sweep", "mc-batch", "variance-limit", "resolvent-decay")
SEEDS = tuple(range(1, 11))
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


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def git_head(root: Path) -> str:
    """The root's short HEAD commit.

    A root that is not a git checkout, or whose tracked files differ from HEAD (so the
    commit would not name the tree that runs), ends the tool with exit status 1."""
    run = git(root, "rev-parse", "--short", "HEAD")
    if run.returncode != 0:
        sys.exit(f"checkout {root} is not a git checkout, so its commit cannot be read\n"
                 f"{run.stderr.rstrip()}")
    head = run.stdout.strip()
    changed = git(root, "status", "--porcelain", "--untracked-files=no").stdout.rstrip()
    if changed:
        sys.exit(f"checkout {root} has uncommitted changes to tracked files, so {head} does "
                 f"not name the tree that would run; commit them first\n{changed}")
    return head


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the record <root>/BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--commit", help="recorded as is; defaults to the root's git HEAD")
    parser.add_argument("--parent", type=Path, help="checkout whose runs alternate with the root's")
    args = parser.parse_args(argv)
    if not args.label or os.sep in args.label or "/" in args.label:
        parser.error(f"--label names a file, so it must be non-empty with no path separator, "
                     f"got {args.label!r}")
    if args.commit is not None and args.parent is not None:
        parser.error("--commit and --parent do not go together: both commits come from git")
    if args.parent is not None and args.parent.resolve() == args.root.resolve():
        parser.error(f"--parent {args.parent} is the --root checkout, so no pair would compare "
                     "two trees")
    for root in (args.root, args.parent):
        if root is not None and not root.is_dir():
            sys.exit(f"checkout {root} is not a directory")

    # (checkout, label, commit); with --parent the parent comes first
    sides = [(args.root, args.label, args.commit or git_head(args.root))]
    if args.parent is not None:
        sides.insert(0, (args.parent, f"before_{args.label}", git_head(args.parent)))
    records = [{"schema": 1, "label": label, "commit": commit, "seeds": list(SEEDS),
                "seconds": SECONDS, "command": "python3 perfbench/run.py --trace 0",
                "machine": None, "workloads": {}, "traced": {}}
               for _, label, commit in sides]
    if len(sides) == 2:
        for record, other in zip(records, records[::-1]):
            record["alternated_with"] = {"label": other["label"], "commit": other["commit"]}

    def in_turn(pair: int) -> list[int]:
        """Side indices in run order: the parent first on pairs 0, 2, 4, ..."""
        order = list(range(len(sides)))
        return order if pair % 2 == 0 else order[::-1]

    pair = 0
    for workload in WORKLOADS:
        runs = [[] for _ in sides]
        for seed in SEEDS:
            for i in in_turn(pair):
                runs[i].append(bench(sides[i][0], workload, seed, SECONDS, 0))
            pair += 1
        for record, side_runs in zip(records, runs):
            record["machine"] = record["machine"] or side_runs[0]["machine"]
            done = record["workloads"][workload] = {
                "attempted": sum(r["attempted"] for r in side_runs),
                "failed": sum(r["failed"] for r in side_runs),
                "metrics": {name: summary([r["metrics"][name]["value"] for r in side_runs])
                            for name in side_runs[0]["metrics"]},
            }
            if done["failed"]:
                print(f"{workload} {record['label']}: {done['failed']} of {done['attempted']} "
                      "operations failed; this record backs no claim", flush=True)
    for workload in WORKLOADS:
        for i in in_turn(pair):
            run = bench(sides[i][0], workload, SEEDS[0], SECONDS, 1)
            records[i]["traced"][workload] = {
                "seed": SEEDS[0], "correct": run["correct"], "absent": run["absent"],
                "metrics": {name: m["value"] for name, m in run["metrics"].items()},
            }
        pair += 1
    if len(sides) == 2:
        parent, root = records
        for workload in WORKLOADS:
            pairs = root["workloads"][workload]["pairs"] = {}
            for name, metric in root["workloads"][workload]["metrics"].items():
                before = parent["workloads"][workload]["metrics"][name]
                # both value lists are in seed order, so zip pairs the runs of one seed
                by_seed = list(zip(metric["values"], before["values"]))
                count = pairs[name] = {"lower": sum(r < p for r, p in by_seed),
                                       "higher": sum(r > p for r, p in by_seed),
                                       "equal": sum(r == p for r, p in by_seed)}
                print(f"{workload} {name}: {root['label']} lower in {count['lower']}, "
                      f"higher in {count['higher']}, equal in {count['equal']} "
                      f"of {len(by_seed)} pairs; median {metric['median']:.4g} against "
                      f"{before['median']:.4g}, {parent['label']} IQR {before['iqr']:.4g}")
    for record in records:
        (args.root / f"BENCH_{record['label']}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())

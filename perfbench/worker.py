"""One benchmark process: import opemeso from the checkout's src/, build a workload, time it.

``run.py`` starts this script once per measured run and a few more times with
``--setup-only`` to sample set-up time.  Set-up is measured from the moment
the parent starts the process (``--spawned-at``, a CLOCK_MONOTONIC reading) to
the moment the workload's inputs are ready.  The result goes to ``--result``
as JSON; the process prints nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
MAX_ERRORS_KEPT = 10


def import_opemeso() -> None:
    """Import opemeso from ROOT/src and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import opemeso

    if Path(opemeso.__file__).resolve().parent != (src / "opemeso").resolve():
        raise SystemExit(f"imported opemeso from {opemeso.__file__}, not from {src}")


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def run_pass(ops, tracer=None, traced: bool = False, first_op_id: int = 0) -> PassResult:
    """Run every operation once; time only the calls, check each output after it.

    A raised exception, a non-zero CLI return code or a failed check counts
    the operation as failed; the pass goes on with the next operation.
    """
    res = PassResult()
    for index, op in enumerate(ops):
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.op_id = first_op_id + index
            tracer.enabled = traced
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except (Exception, SystemExit) as exc:  # the benchmark must outlive a failing operation
            error = f"{type(exc).__name__}: {exc}"
        res.wall_s += time.perf_counter() - t0
        res.cpu_s += time.process_time() - c0
        if tracer is not None:
            tracer.enabled = False
        if error is None and op.is_cli and result != 0:
            error = f"exit code {result}"
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        res.attempted += 1
        if error is not None:
            res.failed += 1
            res.errors.append(f"{op.label}: {error}")
    return res


def blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS loaded in this process, asked through ctypes."""
    import ctypes

    libs = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and path not in libs:
                    libs.append(path)
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out.append({"library": Path(path).name, "threads": fn()})
                break
    return out


def machine_record() -> dict:
    """Python, numpy, scipy, BLAS and thread count, cores, CPU model and caches."""
    import platform

    import numpy
    import scipy

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    for name, module in (("numpy_blas", numpy), ("scipy_blas", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            record[name] = f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            record[name] = "unknown"
    record["blas_threads"] = blas_threads()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        record["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        record["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    record["caches"] = caches
    return record


def measure(ops, seconds: float, tracer=None) -> dict:
    """A warm-up pass, then passes until ``seconds`` have gone by (at least MIN_PASSES).

    With a tracer, untraced and traced passes alternate so that both see the
    same machine state; the untraced ones give the tracing overhead.
    """
    warm = run_pass(ops)
    attempted, failed, errors = warm.attempted, warm.failed, list(warm.errors)
    untraced, traced, layer_passes = [], [], []
    start = time.perf_counter()
    op_id = len(ops)
    while True:
        is_traced = tracer is not None and len(traced) < len(untraced)
        first_span = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.counts.clear()
        res = run_pass(ops, tracer, is_traced, op_id)
        op_id += len(ops)
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        if is_traced:
            traced.append(res)
            layer_passes.append(tracer.pass_metrics(first_span, res.wall_s))
        else:
            untraced.append(res)
        if tracer is None:
            enough = len(untraced) >= MIN_PASSES
        else:
            enough = len(traced) >= 2 and len(traced) == len(untraced)
        if enough and time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:MAX_ERRORS_KEPT],
        "wall_s": [p.wall_s for p in untraced],
        "cpu_s": [p.cpu_s for p in untraced],
        "layers": layer_passes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_opemeso()
    import workloads  # this script's directory is first on sys.path

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "operations": len(ops)}
        if not args.setup_only:
            tracer = None
            if args.trace:
                import tracing

                tracer = tracing.Tracer()
                result["missing_sites"] = tracer.install()
                result["layer_units"] = {name: tracing.metric_unit(name)
                                         for name in tracing.per_layer_metric_names()}
            result.update(measure(ops, args.seconds, tracer))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["machine"] = machine_record()
            if tracer is not None:
                spans = ROOT / ".perfbench-work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tracer.write_spans(spans)
                result["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

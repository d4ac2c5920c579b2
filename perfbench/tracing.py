"""Spans and counters around opemeso's layers, installed from outside the package.

Each layer is wrapped under the names its callers look it up by: a module
global (``opemeso.cli.convergence_sweep`` is the name ``cli.main`` calls) or a
class attribute (``TridiagonalResolvent.__init__``).  A wrapper records a span
(name, start, end, parent span, operation id) while the tracer is enabled and
adds the layer's work counters; disabled, it calls straight through.  Hot inner
calls such as ``recurrence`` get no span of their own: their work shows as a
counter on the layer that drives them (``.rows``, ``.points``).

``LAYERS`` is also the per-layer -> end-to-end map: ``moves`` names the
end-to-end metric each layer's numbers should move, and on which workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _window_counts(a, F) -> dict:
    """Rows built, rows within +-default_margin of n, and bytes build_F allocates."""
    from opemeso.cumulants import default_margin

    n, edge = a["n"], a["edge"]
    margin = default_margin(n, edge)
    lo, hi = a["window"] or ((max(1, n - margin) if a["two_sided"] else 1), n + margin)
    rows = hi - lo + 1
    useful = min(hi, n + margin) - max(lo, n - margin) + 1
    pole_pairs = len(a["f"].poles)
    # dense F, the complex identity right-hand side, one complex resolvent per pair
    computed = F.nbytes + (1 + pole_pairs) * rows * rows * 16
    return {
        "cumulants.window_rows": rows,
        "cumulants.window_useful_rows": useful,
        "cumulants.build_F.bytes_computed": computed,
    }


def _grid_points(a, _result) -> dict:
    grid = a["grid"]
    points = int(grid) if isinstance(grid, int) else len(grid)
    return {"limits.weighted_lipschitz_norm.grid_points": points}


def _power_flops(a, _result) -> dict:
    W = a["F"].shape[0]
    steps = max(a["max_power"] - 1, 0)
    return {"cumulants.dense_flops_computed": 2 * W * W * a["n"] * steps}


@dataclass(frozen=True)
class Layer:
    """One wrapped function: metric prefix, lookup sites, counters, and what it moves.

    ``sites`` are (module, attribute) pairs, or (module, "Class.method") for a
    method.  ``span=False`` wraps for counting only, so the time stays in the
    caller's self time.  ``count`` maps (bound arguments, result) to counter
    increments.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    moves: str
    count: Callable[[dict, object], dict] | None = None
    counters: tuple[str, ...] = ()
    span: bool = True
    failed_when: Callable[[object], bool] | None = None


LAYERS: tuple[Layer, ...] = (
    Layer(
        "cli.main",
        (("opemeso.cli", "main"),),
        "wall_s on all four workloads: argv parsing, CSV/JSON formatting, manifest, git describe",
        counters=("cli.main.failed",),
        failed_when=lambda rc: rc != 0,
    ),
    Layer(
        "ensembles.jacobi_window",
        (("opemeso.cumulants", "jacobi_window"),),
        "wall_s on edge-sweep (grows once the dense window shrinks)",
        count=lambda a, _: {"ensembles.jacobi_window.rows": a["hi"] - a["lo"] + 1},
        counters=("ensembles.jacobi_window.rows",),
    ),
    Layer(
        "ensembles.check_hypotheses",
        (("opemeso.cli", "check_hypotheses"),),
        "wall_s on edge-sweep",
    ),
    Layer(
        "cumulants.convergence_sweep",
        (("opemeso.cli", "convergence_sweep"),),
        "wall_s and cpu_s on edge-sweep (self time: power blocks and composition sum)",
    ),
    Layer(
        "cumulants.build_F",
        (("opemeso.cumulants", "build_F"),),
        "wall_s on edge-sweep; its bytes and window rows move peak_rss_mb on edge-sweep",
        count=_window_counts,
        counters=(
            "cumulants.build_F.bytes_computed",
            "cumulants.window_rows",
            "cumulants.window_useful_rows",
        ),
    ),
    Layer(
        "cumulants.operator_norm_estimate",
        (("opemeso.cumulants", "operator_norm_estimate"),),
        "wall_s on edge-sweep",
    ),
    Layer(
        "cumulants.power_blocks",
        (("opemeso.cumulants", "_PowerBlocks.__init__"),),
        "cpu_s on edge-sweep (2 W^2 n flops per power step)",
        count=_power_flops,
        counters=("cumulants.dense_flops_computed",),
        span=False,
    ),
    Layer(
        "kernel.cumulants.solve_banded",
        (("opemeso.cumulants", "solve_banded"),),
        "wall_s on edge-sweep",
    ),
    Layer(
        "kernel.tridiagonal.solve_banded",
        (("opemeso.tridiagonal", "solve_banded"),),
        "wall_s on resolvent-decay",
    ),
    Layer(
        "kernel.sampling.eigh_tridiagonal",
        (("opemeso.sampling", "eigh_tridiagonal"),),
        "wall_s and cpu_s on mc-batch",
    ),
    Layer(
        "sampling.sample_spectra",
        (("opemeso.cli", "sample_spectra"),),
        "wall_s on mc-batch (model build and Philox streams)",
        count=lambda a, _: {"sampling.samples": a["count"]},
        counters=("sampling.samples",),
    ),
    Layer(
        "sampling.empirical_statistic",
        (("opemeso.cli", "empirical_statistic"),),
        "wall_s on mc-batch",
    ),
    Layer(
        "sampling.standardized_skewness",
        (("opemeso.cli", "standardized_skewness"),),
        "wall_s on mc-batch",
    ),
    Layer(
        "sampling.save_batch",
        (("opemeso.cli", "save_batch"),),
        "wall_s on mc-batch",
        count=lambda a, _: {"sampling.save_batch.bytes": os.path.getsize(a["path"])},
        counters=("sampling.save_batch.bytes",),
    ),
    Layer(
        "sampling.load_batch",
        (("opemeso.cli", "load_batch"),),
        "wall_s on mc-batch",
        count=lambda a, _: {"sampling.load_batch.bytes": os.path.getsize(a["path"])},
        counters=("sampling.load_batch.bytes",),
    ),
    Layer(
        "limits.weighted_lipschitz_norm",
        (("opemeso.limits", "weighted_lipschitz_norm"),),
        "wall_s and peak_rss_mb on variance-limit",
        count=_grid_points,
        counters=("limits.weighted_lipschitz_norm.grid_points",),
    ),
    Layer(
        "limits.sigma2_quadrature",
        (("opemeso.cli", "sigma2_quadrature"),),
        "wall_s on variance-limit",
    ),
    Layer(
        "limits.sigma2_residue",
        (("opemeso.cli", "sigma2_residue"),),
        "wall_s on variance-limit",
    ),
    Layer(
        "limits.fit_resolvent_approximation",
        (("opemeso.cli", "fit_resolvent_approximation"),),
        "wall_s on variance-limit",
    ),
    Layer(
        "tridiagonal.TridiagonalResolvent.init",
        (("opemeso.tridiagonal", "TridiagonalResolvent.__init__"),),
        "wall_s on resolvent-decay (pivot recursions)",
        count=lambda a, _: {"tridiagonal.TridiagonalResolvent.init.rows": a["J"].N},
        counters=("tridiagonal.TridiagonalResolvent.init.rows",),
    ),
    Layer(
        "tridiagonal.TridiagonalResolvent.dense",
        (("opemeso.tridiagonal", "TridiagonalResolvent.dense"),),
        "wall_s on resolvent-decay (log-space assembly)",
        count=lambda a, _: {"tridiagonal.TridiagonalResolvent.dense.entries": a["self"].J.N ** 2},
        counters=("tridiagonal.TridiagonalResolvent.dense.entries",),
    ),
    Layer(
        "tridiagonal.TridiagonalResolvent.row",
        (("opemeso.tridiagonal", "TridiagonalResolvent.row"),),
        "wall_s on resolvent-decay",
    ),
    Layer(
        "tridiagonal.decay_profile",
        (("opemeso.cli", "decay_profile"),),
        "wall_s on resolvent-decay",
    ),
    Layer(
        "tridiagonal.almost_toeplitz_decompose",
        (("opemeso.tridiagonal", "almost_toeplitz_decompose"),),
        "wall_s on resolvent-decay",
    ),
    Layer(
        "tridiagonal.resolvent_norm_estimate",
        (("opemeso.tridiagonal", "resolvent_norm_estimate"),),
        "wall_s on resolvent-decay",
    ),
    Layer(
        "testfun.ResolventTestFunction.call",
        (("opemeso.testfun", "ResolventTestFunction.__call__"),),
        "wall_s on mc-batch and variance-limit",
        count=lambda a, _: {"testfun.ResolventTestFunction.call.points": int(np.size(a["x"]))},
        counters=("testfun.ResolventTestFunction.call.points",),
    ),
)

# Derived from the layers' counters and spans when a traced run reports.
RATIOS = {"cumulants.window_useful_ratio": ("cumulants.window_useful_rows", "cumulants.window_rows")}
TRACE_METRICS = (
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.coverage",
    "trace.unattributed_s",
)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run reports, in a stable order."""
    names = []
    for layer in LAYERS:
        if layer.span:
            names += [f"{layer.name}.calls", f"{layer.name}.self_s"]
        names += list(layer.counters)
    return names + list(RATIOS) + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


class Tracer:
    """In-memory spans and per-pass counters; ``enabled`` gates recording."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if layer.count else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if layer.span:
                stack = tracer._stack()
                index = len(tracer.spans)
                span = [layer.name, time.perf_counter(), None, stack[-1] if stack else -1, tracer.op_id]
                tracer.spans.append(span)
                stack.append(index)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                if layer.span:
                    span[2] = time.perf_counter()
                    stack.pop()
                if layer.failed_when is not None:
                    failed = not ok or layer.failed_when(result)
                    tracer.add(f"{layer.name}.failed", int(failed))
            if layer.count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in layer.count(bound.arguments, result).items():
                    tracer.add(key, amount)
            return result

        return wrapper

    def install(self, layers=LAYERS) -> list[str]:
        """Wrap every site that exists; return the sites that were not found."""
        missing = []
        for layer in layers:
            for module_name, attr in layer.sites:
                owner = importlib.import_module(module_name)
                cls_name, _, leaf = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                    original = vars(owner).get(leaf) if owner is not None else None
                else:
                    original = getattr(owner, leaf, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(layer, original))
        return missing

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def pass_metrics(self, first_span: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans from ``first_span`` on and the current counts."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        spans = self.spans[first_span:]
        for name, start, end, parent, _ in spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration
            if parent >= first_span:
                parent_name = self.spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
        out = {}
        for layer in LAYERS:
            if layer.span:
                out[f"{layer.name}.calls"] = calls.get(layer.name, 0)
                out[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)
            for counter in layer.counters:
                out[counter] = self.counts.get(counter, 0)
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        attributed = math.fsum(self_s.values())
        out["trace.wall_s"] = wall_s
        out["trace.coverage"] = attributed / wall_s if wall_s > 0 else 0.0
        out["trace.unattributed_s"] = wall_s - attributed
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent index, operation id."""
        import json

        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

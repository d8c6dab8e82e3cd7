"""Outside-in layer tracing for the traced benchmark mode.

The program is not instrumented: :func:`install` replaces the public
entry points of each layer -- wherever a ``repro`` module (or the
benchmark's own ``workloads`` module) holds a reference to them -- with
wrappers that record a span (layer, start, end, parent) in memory.  A
layer's self time is its spans' durations minus the time their child
spans cover; the root spans are the benchmark's own timed regions, so
their self time is the work no listed layer owns (``unattributed``).

The only private method wrapped is the executor's per-transfer DMA
accounting (``_ExecState._dma_cost``): it has no public entry point and
is where the executor spends most of its time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: spans written to the Perfetto file at most; beyond it the shortest
#: spans are dropped (ancestors are never shorter than their children,
#: so the kept spans still nest).
MAX_TRACE_EVENTS = 100_000


class Tracer:
    """Spans and per-layer self time / call counts, kept in memory."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        # one entry per span: layer id, start, end, parent span (-1: root)
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # open spans: [span index, time covered by finished children]
        self._stack: List[list] = []

    def layer_id(self, layer: str) -> int:
        lid = self._ids.get(layer)
        if lid is None:
            lid = self._ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return lid

    # --- spans -----------------------------------------------------------
    def begin(self, layer: str, start: Optional[float] = None) -> None:
        """Open a span; ``start`` back-dates it (the set-up region starts
        before the tracer can be installed)."""
        self._open(self.layer_id(layer), start)

    def _open(self, lid: int, start: Optional[float] = None) -> None:
        self._stack.append([len(self.span_layer), 0.0])
        self.span_layer.append(lid)
        self.span_parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter() if start is None else start)

    def end(self) -> None:
        """Close the innermost span."""
        t1 = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        lid = self.span_layer[idx]
        self.self_s[lid] += dur - covered
        self.calls[lid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""
        lid = self.layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def count(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (for entry points
        called too often and too briefly to time)."""
        lid = self.layer_id(layer)
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[lid] += 1
            return fn(*args, **kwargs)

        return counted

    # --- results -----------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": .., "calls": ..}}``."""
        return {
            layer: {"self_s": self.self_s[i], "calls": self.calls[i]}
            for i, layer in enumerate(self.layers)
        }

    def write_perfetto(self, path: Path) -> int:
        """Write the spans as Chrome trace-event JSON (loads in Perfetto
        and chrome://tracing); returns the number of spans written."""
        n = len(self.span_layer)
        keep = range(n)
        if n > MAX_TRACE_EVENTS:
            durs = sorted(
                (self.span_end[i] - self.span_start[i] for i in range(n)),
                reverse=True,
            )
            floor = durs[MAX_TRACE_EVENTS - 1]
            keep = [
                i for i in range(n)
                if self.span_end[i] - self.span_start[i] >= floor
            ][:MAX_TRACE_EVENTS]
        base = min(self.span_start) if n else 0.0
        events = [
            {
                "name": self.layers[self.span_layer[i]],
                "cat": self.layers[self.span_layer[i]].split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((self.span_start[i] - base) * 1e6, 3),
                "dur": round((self.span_end[i] - self.span_start[i]) * 1e6, 3),
                "args": {"span": i, "parent": self.span_parent[i]},
            }
            for i in keep
        ]
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_recorded": n, "spans_written": len(events)},
        }))
        return len(events)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level reference to ``original`` -- including
    values of module-level dicts such as the runner registry -- in the
    program's modules and the benchmark's workload module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.") or name == "workloads"
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points (see the module docstring)."""
    from repro.autotuner import calibrate, model_tuner
    from repro.codegen import executor
    from repro.engine import bounds, evaluators, parallel, search
    from repro.harness import runner
    from repro.ir import visitors
    from repro.machine import config
    from repro.passes import manager, verifier
    from repro.runtime import cache, library

    functions = [
        ("autotuner.tuner", model_tuner, "tune_with_model"),
        ("autotuner.calibrate", calibrate, "default_coeffs"),
        ("engine.search", search, "search_candidates"),
        ("engine.parallel", parallel, "evaluate_batch"),
        ("engine.bounds", bounds, "strategy_bound"),
        ("engine.bounds", bounds, "definitely_infeasible"),
        ("passes.verifier", verifier, "check_kernel"),
        ("passes.count_nodes", visitors, "count_nodes"),
        ("harness.runner", runner, "run_gemm"),
        ("harness.runner", runner, "run_conv_implicit"),
        ("harness.runner", runner, "run_conv_explicit"),
        ("harness.runner", runner, "run_conv_winograd"),
        ("harness.runner", runner, "run_conv_strided"),
    ]
    methods = [
        ("engine.analytic", evaluators.AnalyticEvaluator, "evaluate"),
        ("engine.simulator", evaluators.SimulatorEvaluator, "evaluate"),
        ("passes.manager", manager.PassManager, "run"),
        ("codegen.executor", executor.CompiledKernel, "run"),
        ("codegen.executor.dma_cost", executor._ExecState, "_dma_cost"),
        ("runtime.library", library.AtopLibrary, "conv2d"),
        ("runtime.library", library.AtopLibrary, "gemm"),
        ("runtime.cache.save", cache.KernelCache, "save"),
        ("runtime.cache.load", cache.KernelCache, "load"),
    ]
    for layer, module, attr in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(layer, original))
    for layer, cls, attr in methods:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(layer, raw))
    original = config.config_signature
    _replace_everywhere(
        original, tracer.count("machine.config_signature", original)
    )

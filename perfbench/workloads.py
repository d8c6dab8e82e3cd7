"""The benchmark's workloads: which operators each one tunes and serves.

Each sample of a workload runs these timed regions, in this order, in
one fresh interpreter (see ``worker.py``):

* ``tune``   -- tune the workload's operator set (``tune_s``);
* ``reload`` -- only on ``serve-yolo``: a second library reloads the
  kernel-cache file the cold pass wrote;
* ``warm``   -- warm passes: every operator is served once per pass by
  ``AtopLibrary`` from its kernel cache (``warm_pass_s`` and the
  per-call latencies).

Inputs come from the seed and are generated outside the timed regions,
as are the NumPy references every output is checked against.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autotuner import tune_with_model
from repro.autotuner.calibrate import default_coeffs
from repro.engine.validate import compare_tensors
from repro.errors import ValidationError
from repro.ops import applicable_methods, conv2d_reference
from repro.ops import conv_implicit
from repro.ops.conv_common import ConvParams
from repro.ops.conv_implicit import MIN_NI
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.runtime.cache import TunedEntry
from repro.runtime.library import (
    CONV_ATOL,
    CONV_RTOL,
    GEMM_ATOL,
    GEMM_RTOL,
    AtopLibrary,
)
from repro.workloads.networks import network

#: the four BENCH_prune GEMM shapes (M, N, K)
PRUNE_GEMMS = ((512, 512, 512), (256, 384, 128), (128, 128, 640), (96, 2048, 96))
#: VGG16 layers tuned as implicit conv on the model-tuner workload
VGG_LAYERS = ("conv4_1", "conv5")
#: the self-test's two GEMMs (quick spaces)
SELFTEST_GEMMS = ((128, 128, 128), (96, 256, 64))
VGG_BATCH, VGG_SCALE = 32, 8
YOLO_BATCH, YOLO_SCALE = 1, 8


def strategy_digest(strategy) -> str:
    """Short stable name of a winning strategy for the parity digest."""
    text = repr(sorted(strategy.decisions.items()))
    return hashlib.sha1(text.encode()).hexdigest()[:12]


@dataclass
class Operator:
    """One operator of a workload: how to tune it, serve it and check it."""

    name: str
    make_inputs: Callable[[np.random.Generator], Tuple[np.ndarray, np.ndarray]]
    serve: Callable[[AtopLibrary, Tuple[np.ndarray, np.ndarray]], object]
    reference: Callable[[Tuple[np.ndarray, np.ndarray]], np.ndarray]
    rtol: float
    atol: float
    compute: object = None
    space: object = None
    cache_key: Optional[str] = None


def gemm_operator(m: int, n: int, k: int, *, quick: bool) -> Operator:
    compute = gemm_compute(m, n, k)

    def make_inputs(rng):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        return a, b

    return Operator(
        name=f"gemm_{m}x{n}x{k}",
        make_inputs=make_inputs,
        serve=lambda lib, xs: lib.gemm(*xs),
        reference=lambda xs: np.asarray(xs[0], np.float64) @ xs[1],
        rtol=GEMM_RTOL,
        atol=GEMM_ATOL,
        compute=compute,
        space=gemm_space(compute, quick=quick),
        cache_key=AtopLibrary.gemm_key(m, n, k),
    )


def conv_operator(
    name: str, params: ConvParams, *, method: Optional[str] = None,
    tunable: bool = False, quick: bool = True,
) -> Operator:
    """A conv layer.  ``tunable`` ones are tuned directly as implicit
    conv over the pre-padded input (the model-tuner workload); the
    others are tuned by the library on their first call."""
    def make_inputs(rng):
        x = (rng.standard_normal(params.input_shape) * 0.1).astype(np.float32)
        w = (rng.standard_normal(params.weight_shape) * 0.05).astype(np.float32)
        return x, w

    op = Operator(
        name=name,
        make_inputs=make_inputs,
        serve=lambda lib, xs: lib.conv2d(xs[0], xs[1], params, method=method),
        reference=lambda xs: conv2d_reference(xs[0], xs[1], params),
        rtol=CONV_RTOL,
        atol=CONV_ATOL,
    )
    if tunable:
        op.compute = conv_implicit.make_compute(params)
        op.space = conv_implicit.make_space(params, quick=quick)
        op.cache_key = AtopLibrary.conv_key("implicit", params)
    return op


def vgg_operators(names: Sequence[str], *, quick: bool) -> List[Operator]:
    specs = {s.name: s for s in network("vgg16")}
    ops = []
    for name in names:
        p = specs[name].params(VGG_BATCH, scale=VGG_SCALE)
        folded = replace(p, ri=p.padded_ri, ci=p.padded_ci, pad=0)
        ops.append(conv_operator(
            f"vgg16_{name}", folded, method="implicit",
            tunable=True, quick=quick,
        ))
    return ops


def yolo_operators(limit: Optional[int] = None) -> List[Operator]:
    """The YOLO conv layers ``run_network`` routes to the library (the
    Ni=3 first layer goes to the MPE fallback there)."""
    ops = []
    for spec in network("yolo"):
        p = spec.params(YOLO_BATCH, scale=YOLO_SCALE)
        if applicable_methods(p) or (p.stride > 1 and p.ni >= MIN_NI):
            ops.append(conv_operator(f"yolo_{spec.name}", p))
    return ops[:limit]


class Workload:
    """Base: set-up, the timed regions, and failure accounting.

    Every tuner call and every library call is one operation.  An
    operation fails if it raises, is served by the library's fallback,
    or returns output that differs from the NumPy reference.
    """

    #: timed regions in execution order
    regions: Tuple[str, ...] = ("tune", "warm")

    def __init__(self, name: str, ops: List[Operator]) -> None:
        self.name = name
        self.ops = ops
        self.lib: Optional[AtopLibrary] = None
        #: per-operator parity record (winner strategy, cycles, counts)
        self.records: Dict[str, dict] = {op.name: {} for op in ops}
        #: every TuningResult the tuned operators produced
        self.tunings: List[object] = []
        #: (operator, run) of calls made inside ``tune``, checked after it
        self.tune_runs: List[tuple] = []
        self.attempted = 0
        self.failures: List[str] = []

    def setup(self, workdir: Path) -> None:
        default_coeffs()
        self.lib = AtopLibrary()

    def tune(self, inputs: Dict[str, tuple]) -> None:
        raise NotImplementedError

    def call(self, op: Operator, what: str, fn):
        """One operation; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - counted, then reported
            self.fail(op, f"{what}: {traceback.format_exc(limit=-2)}")
            return None

    def fail(self, op: Operator, reason: str) -> None:
        self.failures.append(f"{op.name}: {reason}")

    def check(self, op: Operator, run, reference: np.ndarray) -> None:
        """Outside timing: a served call fails if it fell back or its
        output differs from the NumPy reference."""
        if run.fallback_reason is not None:
            self.fail(op, f"fallback: {run.fallback_reason}")
            return
        try:
            compare_tensors(
                run.output, reference, rtol=op.rtol, atol=op.atol,
                op=op.name, tensor="output",
            )
        except ValidationError as exc:
            self.fail(op, str(exc))

    def record(self, op: Operator, result, cycles: float) -> None:
        self.tunings.append(result)
        self.records[op.name] = {
            "strategy": strategy_digest(result.best.candidate.strategy),
            "cycles": cycles,
            "evaluated": result.evaluated,
            "bound_pruned": result.metrics.bound_pruned,
            "spm_pruned": result.metrics.spm_pruned,
        }

    def sim_cycles(self, warm_cycles: float) -> float:
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


class TunerWorkload(Workload):
    """Tune each operator with one tuner at its defaults (the model
    tuner prunes and runs its best prediction), then serve the winners
    from the library's kernel cache -- what a user does with tuned
    kernels.  ``sim_cycles`` is the sum of the winners' measured
    cycles."""

    def __init__(self, name: str, ops: List[Operator], tuner) -> None:
        super().__init__(name, ops)
        self.tuner = tuner

    def tune(self, inputs: Dict[str, tuple]) -> None:
        for op in self.ops:
            result = self.call(
                op, "tune", lambda: self.tuner(op.compute, op.space)
            )
            if result is None:
                continue
            best = result.best
            self.record(op, result, best.measured_cycles)
            self.lib.cache.put(op.cache_key, TunedEntry(
                strategy=best.candidate.strategy,
                predicted_cycles=best.predicted_cycles,
                measured_cycles=best.measured_cycles,
            ))

    def sim_cycles(self, warm_cycles: float) -> float:
        return sum(r.get("cycles", 0.0) for r in self.records.values())


class ServeWorkload(Workload):
    """``AtopLibrary.conv2d`` over network layers: a cold pass tunes
    every layer on its first call and autosaves the kernel cache; a
    second library reloads that file and serves the warm passes, so
    reads come after writes on the same cache.  ``sim_cycles`` is the
    cycles of one warm pass."""

    regions = ("tune", "reload", "warm")

    def __init__(self, name: str, ops: List[Operator]) -> None:
        super().__init__(name, ops)
        self.cache_path: Optional[Path] = None

    def setup(self, workdir: Path) -> None:
        default_coeffs()
        self.cache_path = workdir / "kernel-cache.json"
        self.cache_path.unlink(missing_ok=True)
        self.lib = AtopLibrary(cache_path=self.cache_path)

    def tune(self, inputs: Dict[str, tuple]) -> None:
        for op in self.ops:
            run = self.call(
                op, "cold call", lambda: op.serve(self.lib, inputs[op.name])
            )
            if run is None:
                continue
            self.tune_runs.append((op, run))
            if run.tuning is not None:
                self.record(op, run.tuning, run.cycles)
            else:  # a layer of the same shape was tuned earlier in the pass
                self.records[op.name] = {"cycles": run.cycles}

    def reload(self) -> None:
        self.cold_lib = self.lib
        self.lib = AtopLibrary(cache_path=self.cache_path)

    def sim_cycles(self, warm_cycles: float) -> float:
        return warm_cycles

    def cleanup(self) -> None:
        if self.cache_path is not None:
            self.cache_path.unlink(missing_ok=True)


def make_workload(name: str) -> Workload:
    """The named workload.  ``selftest-*`` are tiny variants on quick
    spaces, run only by ``selftest.py``."""
    if name == "tune-model":
        ops = [gemm_operator(*s, quick=False) for s in PRUNE_GEMMS]
        ops += vgg_operators(VGG_LAYERS, quick=False)
        return TunerWorkload(name, ops, tune_with_model)
    if name == "serve-yolo":
        return ServeWorkload(name, yolo_operators())
    if name == "selftest-tune":
        ops = [gemm_operator(*s, quick=True) for s in SELFTEST_GEMMS]
        return TunerWorkload(name, ops, tune_with_model)
    if name == "selftest-serve":
        return ServeWorkload(name, yolo_operators(limit=2))
    raise KeyError(name)

"""One instance of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per sample, so process-global memos
(micro-kernel schedules, shared evaluation memo, calibration fits)
start cold every time and no sample depends on what ran before it.
Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload tune-model --seed 1 \\
        --workdir .perfbench/w [--warm-passes 2] [--trace-out T.json] \\
        [--setup-only] [--probe]

Timed regions are reported as ``(wall, corrected)`` seconds; with
``--probe`` the corrected time accounts for the host's speed during the
region (see ``hostspeed.py``), without it the two are equal.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _region(tracer, probe, name: str, fn) -> tuple:
    """Run ``fn`` as one timed region (a root span when tracing); its
    ``(wall, corrected)`` seconds, equal when no probe runs."""
    gc.collect()
    if tracer is not None:
        tracer.begin(f"region.{name}")
    since = len(probe.times) if probe is not None else 0
    t0 = time.perf_counter()
    try:
        fn()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
    return probe.region(since, wall) if probe is not None else (wall, wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--warm-passes", type=int, default=1)
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="trace the layers; write the spans here as Perfetto JSON",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--probe", action="store_true",
        help="sample the host's speed inside the timed regions",
    )
    args = parser.parse_args(argv)

    import numpy as np

    probe = None
    if args.probe:
        import hostspeed

        probe = hostspeed.Probe()
        probe.start()
    # set-up: from the first import of the program until it is ready
    t0 = time.perf_counter()
    import workloads
    from repro.engine import shared_memo_size
    from repro.primitives.microkernel import schedule_memo_stats

    tracer = None
    if args.trace_out is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.begin("region.setup", start=t0)
    wl = workloads.make_workload(args.workload)
    args.workdir.mkdir(parents=True, exist_ok=True)
    wl.setup(args.workdir)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    setup = probe.region(0, setup_s) if probe is not None else (setup_s,) * 2
    out = {"workload": args.workload, "seed": args.seed, "setup": setup}
    if args.setup_only:
        wl.cleanup()
        if probe is not None:
            probe.stop()
        print(json.dumps(out))
        return 0

    # inputs and references come from the seed, outside timing
    rng = np.random.default_rng(args.seed)
    inputs = {op.name: op.make_inputs(rng) for op in wl.ops}
    refs = {op.name: op.reference(inputs[op.name]) for op in wl.ops}

    regions = {"setup": setup_s}
    tune = _region(tracer, probe, "tune", lambda: wl.tune(inputs))
    regions["tune"] = tune[0]
    for op, run in wl.tune_runs:
        wl.check(op, run, refs[op.name])
    memo_hits_tune = schedule_memo_stats().hits
    if "reload" in wl.regions:
        regions["reload"] = _region(tracer, probe, "reload", wl.reload)[0]

    warm_passes, warm_calls_ms, warm_cycles = [], [], None
    for _ in range(args.warm_passes):
        served = []

        def warm_pass():
            for op in wl.ops:
                tc = time.perf_counter()
                run = wl.call(
                    op, "warm call", lambda: op.serve(wl.lib, inputs[op.name])
                )
                served.append((op, run, time.perf_counter() - tc))

        warm_passes.append(_region(tracer, probe, "warm", warm_pass))
        for op, run, dt in served:
            if run is not None:
                wl.check(op, run, refs[op.name])
                warm_calls_ms.append(dt * 1e3)
        if warm_cycles is None:
            warm_cycles = sum(r.cycles for _, r, _ in served if r is not None)
    regions["warm"] = sum(wall for wall, _ in warm_passes)
    wl.cleanup()
    if probe is not None:
        probe.stop()

    counts = {
        "sim_cycles": wl.sim_cycles(warm_cycles or 0.0),
        "schedule_memo_hits_tune": memo_hits_tune,
    }
    for name, record in wl.records.items():
        for key, value in record.items():
            counts[f"{name}.{key}"] = value
    out.update(
        regions=regions,
        tune=tune,
        warm_passes=warm_passes,
        warm_calls_ms=warm_calls_ms,
        probes=len(probe.times) if probe is not None else 0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=wl.attempted,
        failed=len(wl.failures),
        failures=wl.failures[:20],
        counts=counts,
        ops=wl.records,
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {
                k: os.environ.get(k, "")
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")
            },
        },
    )
    if tracer is not None:
        layers = layer_metrics(wl, tracer, shared_memo_size(), schedule_memo_stats())
        for count, metric in (
            ("config_signature.calls", "machine.config_signature.calls"),
            ("executor.runs", "codegen.executor.runs"),
            ("executor.dma_calls", "codegen.executor.dma_calls"),
        ):
            counts[count] = layers[metric]
        counts["schedule_memo_hits_total"] = schedule_memo_stats().hits
        table = tracer.table()
        out.update(
            layers=layers,
            layer_table=table,
            # every span lies inside a region, so the self times add up
            # to the regions' traced wall time
            traced_total_s=sum(d["self_s"] for d in table.values()),
            trace_spans=tracer.write_perfetto(args.trace_out),
            trace_file=str(args.trace_out),
        )
    print(json.dumps(out))
    return 0


def layer_metrics(wl, tracer, memo_size: int, memo) -> dict:
    """The per-layer metrics of one traced run (names as in
    BENCHMARK.json ``per_layer``)."""
    table = tracer.table()

    def self_s(layer):
        return table.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return table.get(layer, {}).get("calls", 0)

    metrics = [t.metrics for t in wl.tunings]
    declared = sum(t.space_size for t in wl.tunings)
    lowered = sum(m.lowering.count for m in metrics)
    errors = [
        abs(t.best.measured_cycles / t.best.predicted_cycles - 1.0)
        for t in wl.tunings
        if t.best.measured_cycles and t.best.predicted_cycles
    ]
    stats = [wl.lib.stats] + (
        [wl.cold_lib.stats] if getattr(wl, "cold_lib", None) else []
    )
    region_s = sum(
        d["self_s"] for layer, d in table.items() if layer.startswith("region.")
    )
    return {
        "passes.manager.self_s": self_s("passes.manager"),
        "passes.manager.calls": calls("passes.manager"),
        "passes.verifier.self_s": self_s("passes.verifier"),
        "passes.verifier.calls": calls("passes.verifier"),
        "passes.count_nodes.self_s": self_s("passes.count_nodes"),
        "engine.search.self_s": self_s("engine.search"),
        "engine.search.lowered_frac": lowered / declared if declared else 0.0,
        "engine.search.bound_pruned": sum(m.bound_pruned for m in metrics),
        "engine.bounds.self_s": self_s("engine.bounds"),
        "engine.bounds.calls": calls("engine.bounds"),
        "engine.analytic.self_s": self_s("engine.analytic"),
        "engine.analytic.calls": calls("engine.analytic"),
        "engine.simulator.self_s": self_s("engine.simulator"),
        "engine.simulator.calls": calls("engine.simulator"),
        "engine.parallel.self_s": self_s("engine.parallel"),
        "engine.parallel.retries": sum(m.retries for m in metrics),
        "engine.parallel.quarantined": sum(m.quarantined for m in metrics),
        "engine.parallel.degraded": sum(m.degraded_batches for m in metrics),
        "engine.shared_memo_size": memo_size,
        "codegen.executor.self_s": self_s("codegen.executor"),
        "codegen.executor.runs": calls("codegen.executor"),
        "codegen.executor.dma_cost_s": self_s("codegen.executor.dma_cost"),
        "codegen.executor.dma_calls": calls("codegen.executor.dma_cost"),
        "machine.config_signature.calls": calls("machine.config_signature"),
        "primitives.microkernel.memo_hit_ratio": (
            memo.hits / (memo.hits + memo.misses)
            if memo.hits + memo.misses else 0.0
        ),
        "harness.runner.self_s": self_s("harness.runner"),
        "runtime.library.self_s": self_s("runtime.library"),
        "runtime.library.calls": calls("runtime.library"),
        "runtime.library.cache_hits": sum(s.cache_hits for s in stats),
        "runtime.library.tuned": sum(s.tuned for s in stats),
        "runtime.library.validations": sum(s.validations for s in stats),
        "runtime.library.fallbacks": sum(s.fallbacks for s in stats),
        "runtime.cache.save_s": self_s("runtime.cache.save"),
        "runtime.cache.save_calls": calls("runtime.cache.save"),
        "runtime.cache.load_s": self_s("runtime.cache.load"),
        "autotuner.tuner.self_s": self_s("autotuner.tuner"),
        "autotuner.calibrate.s": self_s("autotuner.calibrate"),
        "autotuner.model_error": sum(errors) / len(errors) if errors else 0.0,
        "unattributed.self_s": region_s,
    }


if __name__ == "__main__":
    sys.exit(main())

"""Engine parallelism: black-box evaluation fanned out over workers.

Not a paper table -- an engineering property of the reproduction: the
evaluation engine can execute candidate batches on worker processes,
and the outcome (rankings, best candidate, measured cycles) is
bit-identical to a serial run.  The wall-clock benefit scales with the
host's core count; the comparison below records the measured times on
whatever this machine is, alongside the identity check that actually
matters.
"""

from repro.autotuner import tune_blackbox
from repro.engine import RunConfig
from repro.harness.report import Table
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space
from repro.workloads import listing2_shapes

#: first Listing-2 shape (200^3, unaligned) -- small enough that a
#: >=50-candidate brute force stays in benchmark time.
CANDIDATES = 64


def test_engine_workers(benchmark, scale, show):
    shape = listing2_shapes()[0]
    compute = gemm_compute(shape.m, shape.n, shape.k)
    space = gemm_space(compute)

    def run_both():
        serial = tune_blackbox(
            compute, space, limit=CANDIDATES, keep_scores=True,
            run=RunConfig.from_env(workers=1),
        )
        parallel = tune_blackbox(
            compute, space, limit=CANDIDATES, keep_scores=True,
            run=RunConfig.from_env(workers=2),
        )
        return serial, parallel

    serial, parallel = benchmark.pedantic(run_both, rounds=1, iterations=1)

    t = Table(
        f"engine workers: black-box GEMM {shape.m}x{shape.n}x{shape.k} "
        f"({serial.evaluated} candidates)",
        ["workers", "evaluated", "wall", "best cycles"],
    )
    for r in (serial, parallel):
        t.add(
            r.metrics.workers if r.metrics else 1, r.evaluated,
            f"{r.wall_seconds:.2f}s", f"{r.best.measured_cycles:.0f}",
        )
    same_best = (
        parallel.best.candidate.strategy.decisions
        == serial.best.candidate.strategy.decisions
    )
    t.note(f"identical best candidate: {same_best}")
    t.note(
        "speedup tracks physical cores; order and scores are "
        "bit-identical by construction"
    )
    show(t)

    assert serial.evaluated >= 50
    assert same_best
    assert [s.measured_cycles for s in parallel.scores] == [
        s.measured_cycles for s in serial.scores
    ]

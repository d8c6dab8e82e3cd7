"""The black-box autotuner: brute-force baseline (Sec. 4.6, Tab. 3).

"Generates code for all schedule IRs and picks the best one by
collecting real execution time."  Every legal candidate is compiled and
executed on the simulated machine; the wall-clock cost of doing so is
exactly the tuning-time penalty Tab. 3 quantifies against the
model-based tuner.

Preparation and execution route through :mod:`repro.engine`;
``workers > 1`` fans candidate executions out over worker processes
with order-stable, bit-identical results.  Memoization defaults *off*
here: the black-box tuner exists to measure the true cost of brute
force, and answering from a warm memo would corrupt that measurement
(pass ``memoize=True`` to opt in when the cost is not the point).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from ..dsl.compute import ComputeDef
from ..dsl.schedule import ScheduleSpace
from ..errors import (
    NoValidCandidateError,
    SanitizerError,
    TuningError,
    ValidationError,
)
from ..machine.config import MachineConfig, default_config
from ..scheduler.lower import LoweringOptions
from ..engine import (
    CandidatePipeline,
    RunConfig,
    search_candidates,
    synthetic_feeds,
)
from .model_tuner import _rejection, _simulator
from .result import CandidateScore, TuningResult


def tune_blackbox(
    compute: ComputeDef,
    space: ScheduleSpace,
    *,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
    prefetch: bool = True,
    feeds: Optional[Dict[str, np.ndarray]] = None,
    keep_scores: bool = False,
    limit: Optional[int] = None,
    memoize: bool = False,
    run: Optional[RunConfig] = None,
) -> TuningResult:
    """Execute every legal candidate; return the measured best.

    ``limit`` caps the number of executed candidates (used by smoke
    benches; the paper's black-box numbers use the full space).
    ``run`` (default :meth:`RunConfig.from_env`) gives the workers,
    sanitizer, fault plan and eval cache exactly as in
    ``tune_with_model`` -- except ``run.prune``, which is ignored for
    the same reason ``memoize`` defaults off: this tuner exists to
    measure the true cost of brute force, so it never prunes (and the
    exhaustive path is a single batch with nothing to checkpoint).
    Quarantined candidates (see DESIGN.md "Failure model & recovery")
    are excluded from the winner; tuning only fails when *every*
    candidate was quarantined.

    ``run.validate`` selects differential validation exactly as in
    ``tune_with_model``: ``"winner"`` checks the measured best against
    the NumPy reference before returning (falling through to the next
    score on failure), ``"all"`` validates every execution.
    """
    cfg = config or default_config()
    run = replace(run or RunConfig.from_env(), prune=False)
    mode = run.validate
    data = feeds if feeds is not None else synthetic_feeds(compute)
    t0 = time.perf_counter()

    pipeline = CandidatePipeline(
        compute, space, options=options, config=cfg, prefetch=prefetch,
        run=run,
    )
    simulator = _simulator(data, cfg, options, prefetch, memoize, run)
    pairs = search_candidates(pipeline, simulator, limit=limit)
    if not pairs:
        raise TuningError(
            f"schedule space of {compute.name!r} has no legal candidates"
        )
    usable = [(c, e) for c, e in pairs if not e.failed]
    if not usable:
        raise _rejection([e for _, e in pairs])(
            f"every candidate of {compute.name!r} was quarantined "
            f"({len(pairs)} failures); see the engine events for the "
            f"failure chain"
        )

    scores = [
        CandidateScore(
            candidate=c,
            measured_cycles=e.measured_cycles,
            report=e.report,
        )
        for c, e in usable
    ]
    # min() keeps the first of equals -- same tie-break as the seed's
    # strict-less scan, so results are stable across worker counts.
    best = min(scores, key=lambda s: s.measured_cycles or float("inf"))

    if mode == "winner":
        # mode "all" already validated every execution via the wrapper;
        # here only the returned winner needs the differential check,
        # falling through to the next measured score on failure.
        ordered = sorted(
            scores, key=lambda s: s.measured_cycles or float("inf")
        )
        chosen = None
        for score in ordered:
            try:
                pipeline.validate(score.candidate)
            except (ValidationError, SanitizerError):
                continue
            chosen = score
            break
        if chosen is None:
            raise NoValidCandidateError(
                f"every candidate of {compute.name!r} failed "
                f"differential validation; see the engine events for "
                f"the failure chain"
            )
        best = chosen

    wall = time.perf_counter() - t0
    return TuningResult(
        best=best,
        space_size=pipeline.stats.declared,
        legal_count=pipeline.stats.legal,
        evaluated=len(scores),
        wall_seconds=wall,
        method="blackbox",
        scores=scores if keep_scores else [],
        report=best.report,
        metrics=pipeline.metrics,
    )

"""The performance-model-based autotuner (Sec. 4.6).

For every legal candidate the engine runs the optimizer pipeline (cheap
IR rewrites) and the static cost model; only the predicted-best
candidate(s) are executed -- this is what collapses tuning time from
hours (black-box) to seconds/minutes while staying within a few percent
of the true optimum (Fig. 9, Tab. 3).

Candidate preparation and scoring route through :mod:`repro.engine`:
the :class:`~repro.engine.CandidatePipeline` owns the
enumerate -> optimize loop, evaluators own prediction/execution, and
``evaluate_batch`` fans the work out over ``workers`` processes.
"""

from __future__ import annotations

import time
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
    AnalyticEvaluator,
    CandidatePipeline,
    Evaluator,
    MemoizingEvaluator,
    RunConfig,
    SimulatorEvaluator,
    ValidatingEvaluator,
    evaluate_batch,
    search_candidates,
    synthetic_feeds,
)
from ..primitives.microkernel import schedule_memo_stats
from .cost_model import GemmCoeffs
from .result import CandidateScore, TuningResult

__all__ = ["synthetic_feeds", "tune_with_model"]


def _memo_salt(options: Optional[LoweringOptions], prefetch: bool):
    """Context that changes the lowered kernel without changing the
    (compute, strategy) pair -- must split memo entries."""
    opts = (
        None
        if options is None
        else (options.double_buffer, options.min_vec_extent)
    )
    return (opts, bool(prefetch))


def _simulator(
    feeds: Dict[str, np.ndarray],
    config: MachineConfig,
    options: Optional[LoweringOptions],
    prefetch: bool,
    memoize: bool,
    run: RunConfig,
) -> Evaluator:
    """The measuring evaluator both tuners use: simulate (sanitized as
    the run says), validate every execution under ``validate="all"``,
    memoize into the shared memo and the run's eval cache."""
    simulator: Evaluator = SimulatorEvaluator(
        feeds, config, sanitize=run.sanitize
    )
    if run.validate == "all":
        simulator = ValidatingEvaluator(simulator, config, faults=run.faults)
    if memoize:
        simulator = MemoizingEvaluator(
            simulator, salt=_memo_salt(options, prefetch), disk=run.eval_cache
        )
    return simulator


def _rejection(failures) -> type:
    """The error class for a tuning call whose candidates all failed:
    :class:`NoValidCandidateError` when every failure was a validation
    or sanitizer rejection, plain :class:`TuningError` otherwise."""
    unsafe = all(
        f.site == "validation" or f.error_type == SanitizerError.__name__
        for f in failures
    )
    return NoValidCandidateError if unsafe else TuningError


def tune_with_model(
    compute: ComputeDef,
    space: ScheduleSpace,
    *,
    coeffs: Optional[GemmCoeffs] = None,
    config: Optional[MachineConfig] = None,
    options: Optional[LoweringOptions] = None,
    prefetch: bool = True,
    run_best: bool = True,
    feeds: Optional[Dict[str, np.ndarray]] = None,
    keep_scores: bool = False,
    top_k: int = 1,
    memoize: bool = True,
    run: Optional[RunConfig] = None,
) -> TuningResult:
    """Rank all candidates analytically; execute the best.

    ``top_k > 1`` re-measures the k best predictions and keeps the
    fastest -- the paper's "pick best (or top k)" refinement.
    ``memoize`` reuses measured runs of strategies already executed
    anywhere in this process (and, with ``run.eval_cache``, in earlier
    processes).

    ``run`` (default :meth:`RunConfig.from_env`) configures the rest:
    ``workers`` parallelizes evaluation; ``prune`` enables
    branch-and-bound pruning -- candidates whose admissible cost bound
    exceeds the ``top_k``-th best prediction so far are never lowered
    or scored, while the winner and the re-measured top-K stay
    bit-identical (only ``evaluated`` and the stage counters change);
    ``checkpoint``/``resume`` checkpoint the search at every batch
    boundary so an interrupted ``tune_with_model`` finishes with a
    bit-identical result.  Candidates quarantined by supervision (see
    DESIGN.md "Failure model & recovery") are excluded from ranking;
    tuning only fails if *every* candidate was quarantined.

    ``run.validate`` selects differential validation: ``"winner"``
    validates the selected winner against the NumPy reference before
    returning (falling through to the next finalist on failure),
    ``"all"`` validates every measured candidate.  On a fault-free
    space validation never changes the winner -- it is a check, not a
    perturbation.
    """
    cfg = config or default_config()
    run = run or RunConfig.from_env()
    mode = run.validate
    t0 = time.perf_counter()
    ukernel_before = schedule_memo_stats().hits

    pipeline = CandidatePipeline(
        compute, space, options=options, config=cfg, prefetch=prefetch,
        run=run,
    )
    analytic = AnalyticEvaluator(coeffs, cfg)
    pairs = search_candidates(pipeline, analytic, top_k=max(1, top_k))
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

    scored = [
        CandidateScore(candidate=c, predicted_cycles=e.predicted_cycles)
        for c, e in usable
    ]
    scored.sort(key=lambda s: s.predicted_cycles or float("inf"))

    finalists = scored[: max(1, top_k)]
    best = finalists[0]
    report = None
    if run_best:
        data = feeds if feeds is not None else synthetic_feeds(compute)
        simulator = _simulator(data, cfg, options, prefetch, memoize, run)
        measured = evaluate_batch(
            [s.candidate for s in finalists],
            simulator,
            run=run,
            metrics=pipeline.metrics,
        )
        if all(evaluation.failed for evaluation in measured):
            raise _rejection(measured)(
                f"every finalist of {compute.name!r} was quarantined "
                f"during measurement; see the engine events for the "
                f"failure chain"
            )
        for score, evaluation in zip(finalists, measured):
            if evaluation.failed:
                continue  # keeps measured_cycles None -> sorts last
            score.measured_cycles = evaluation.measured_cycles
            score.report = evaluation.report
        finalists.sort(key=lambda s: s.measured_cycles or float("inf"))
        best = finalists[0]
        report = best.report

    if mode != "off":
        # winner validation: take the best candidate that passes the
        # differential check; with mode "all" + run_best the evaluator
        # wrapper already validated every measured finalist.
        pool = (
            [s for s in finalists if s.measured_cycles is not None]
            if run_best
            else scored
        )
        chosen = None
        for score in pool:
            if run_best and mode == "all":
                chosen = score
                break
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
        report = best.report

    wall = time.perf_counter() - t0
    pipeline.metrics.ukernel_memo_hits += (
        schedule_memo_stats().hits - ukernel_before
    )
    return TuningResult(
        best=best,
        space_size=pipeline.stats.declared,
        legal_count=pipeline.stats.legal,
        evaluated=len(scored),
        wall_seconds=wall,
        method="model",
        scores=scored if keep_scores else [],
        report=report,
        metrics=pipeline.metrics,
    )

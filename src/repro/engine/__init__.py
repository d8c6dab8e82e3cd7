"""The candidate-evaluation engine.

Single owner of candidate preparation (enumerate -> optimize -> lower)
and evaluation (cost model or simulated execution, optionally memoized
and fanned out over worker processes).  Both autotuners, the operator
runners and the runtime library route through this package; see
DESIGN.md Sec. 2 ("Evaluation engine").

The branch-and-bound layer (:mod:`~repro.engine.bounds` +
:mod:`~repro.engine.search`) sits between the two halves: strategies
are given an admissible pre-IR cost bound and only the ones that could
still beat the incumbent are lowered and scored; the rest are pruned
without ever existing as IR.

Evaluation is supervised (:mod:`~repro.engine.parallel`): worker
failures are retried, bisected to the failing candidate and quarantined
as :class:`FailedEvaluation` records instead of aborting the sweep, and
the branch-and-bound driver checkpoints its state at batch boundaries
(:mod:`~repro.engine.checkpoint`) so an interrupted sweep resumes to a
bit-identical result.  See DESIGN.md "Failure model & recovery".

Every entry point takes an optional frozen :class:`RunConfig`
(:mod:`~repro.engine.runconfig`); no run setting is process-wide.
"""

from .bounds import (
    BOUND_SAFETY,
    StrategyBound,
    definitely_infeasible,
    strategy_bound,
)
from .checkpoint import SearchCheckpoint, checkpoint_path, search_digest
from .evalcache import (
    PersistentEvalStore,
    atomic_write_json,
    quarantine_corrupt,
    recover_truncated_json,
)
from .evaluators import (
    AnalyticEvaluator,
    Evaluation,
    Evaluator,
    FailedEvaluation,
    MemoizingEvaluator,
    SimulatorEvaluator,
    clear_feeds_cache,
    clear_shared_memo,
    compute_signature,
    shared_memo_size,
    strategy_key,
    synthetic_feeds,
)
from .metrics import EngineEvent, EngineMetrics, PruneBatch, StageStats
from .parallel import evaluate_batch, reset_degradation_warnings
from .pipeline import CandidatePipeline, clip_strategy, compile_strategy
from .runconfig import RunConfig
from .search import search_candidates
from .validate import (
    VALIDATE_MODES,
    ValidatingEvaluator,
    ValidationReport,
    compare_tensors,
    reference_outputs,
    tolerance_for,
    validate_candidate,
    validate_kernel,
    validation_digest,
)

__all__ = [
    "AnalyticEvaluator",
    "BOUND_SAFETY",
    "CandidatePipeline",
    "EngineEvent",
    "EngineMetrics",
    "Evaluation",
    "Evaluator",
    "FailedEvaluation",
    "MemoizingEvaluator",
    "PersistentEvalStore",
    "PruneBatch",
    "RunConfig",
    "SearchCheckpoint",
    "SimulatorEvaluator",
    "StageStats",
    "StrategyBound",
    "VALIDATE_MODES",
    "ValidatingEvaluator",
    "ValidationReport",
    "atomic_write_json",
    "checkpoint_path",
    "compare_tensors",
    "clear_feeds_cache",
    "clear_shared_memo",
    "clip_strategy",
    "compile_strategy",
    "compute_signature",
    "definitely_infeasible",
    "evaluate_batch",
    "quarantine_corrupt",
    "recover_truncated_json",
    "reference_outputs",
    "reset_degradation_warnings",
    "search_candidates",
    "search_digest",
    "shared_memo_size",
    "strategy_key",
    "strategy_bound",
    "synthetic_feeds",
    "tolerance_for",
    "validate_candidate",
    "validate_kernel",
    "validation_digest",
]

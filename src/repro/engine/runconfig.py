"""One frozen configuration object per run.

Everything that configures a run -- worker count, pruning, validation
mode, sanitizer, checkpoint directory, eval cache, fault plan, IR
dumping -- is a field of :class:`RunConfig`; nothing is process-wide.
The CLI builds one per invocation;
:class:`~repro.runtime.library.AtopLibrary` keeps one per library
session; every entry point (the tuners, ``CandidatePipeline`` -- whose
``run`` its ``search_candidates`` uses -- ``evaluate_batch``, the
runners and experiments) takes an optional ``run`` and resolves it
*once*, so two library sessions in one process never see each other's
flags.  Components below the entry points take single fields as plain
arguments and never read the environment.

An entry point called without a config uses :meth:`RunConfig.from_env`,
the only reader of ``REPRO_SANITIZE``: set, it turns on the sanitizer
and ``validate="all"`` (what the CI sanitize job relies on).

Worker processes never receive the config itself: the evaluator they
are sent carries what they need (the sanitize flag on
:class:`~repro.engine.evaluators.SimulatorEvaluator`, the fault plan on
:class:`~repro.faults.FaultyEvaluator`); the eval store stays in the
parent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan
    from ..passes.manager import IRDump
    from .evalcache import PersistentEvalStore

__all__ = ["ENV_SANITIZE", "RunConfig", "VALIDATE_MODES"]

ENV_SANITIZE = "REPRO_SANITIZE"

VALIDATE_MODES = ("off", "winner", "all")


@dataclass(frozen=True)
class RunConfig:
    """How one run tunes and executes kernels.

    ``workers`` evaluation processes; ``prune`` branch-and-bound
    pruning (the winner is identical either way); ``validate`` the
    differential-validation mode (``off``/``winner``/``all``);
    ``sanitize`` runs every simulated kernel under the machine
    sanitizer; ``checkpoint`` is a directory receiving one
    ``search-<digest>.json`` per branch-and-bound search, restored
    first when ``resume`` is set; ``eval_cache`` persists candidate
    scores across processes; ``faults`` injects deterministic faults
    (a no-op plan is stored as ``None``); ``dump_ir`` prints IR around
    matching passes.
    """

    workers: int = 1
    prune: bool = True
    validate: str = "off"
    sanitize: bool = False
    checkpoint: Optional[Path] = None
    resume: bool = False
    eval_cache: Optional["PersistentEvalStore"] = None
    faults: Optional["FaultPlan"] = None
    dump_ir: Optional["IRDump"] = None

    def __post_init__(self) -> None:
        if self.validate not in VALIDATE_MODES:
            raise ValueError(
                f"validate mode must be one of {VALIDATE_MODES}, "
                f"got {self.validate!r}"
            )
        object.__setattr__(self, "workers", max(1, int(self.workers)))
        if self.checkpoint is not None:
            object.__setattr__(self, "checkpoint", Path(self.checkpoint))
        if self.faults is not None and self.faults.is_noop():
            object.__setattr__(self, "faults", None)

    @classmethod
    def from_env(
        cls,
        *,
        sanitize: Optional[bool] = None,
        validate: Optional[str] = None,
        **fields,
    ) -> "RunConfig":
        """A config whose unset ``sanitize`` follows ``REPRO_SANITIZE``
        and whose unset ``validate`` is ``"all"`` when sanitizing, else
        ``"off"``; every other field is taken as given."""
        if sanitize is None:
            sanitize = os.environ.get(ENV_SANITIZE, "").strip() not in ("", "0")
        if validate is None:
            validate = "all" if sanitize else "off"
        return cls(sanitize=sanitize, validate=validate, **fields)

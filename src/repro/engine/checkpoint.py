"""Checkpoint/resume for the branch-and-bound search.

An interrupted sweep used to lose everything: thousands of lowered and
scored candidates, the incumbent top-K, the prune counters.  The
search driver (:func:`repro.engine.search.search_candidates`) now
writes a versioned JSON sidecar at every batch boundary -- atomically,
via temp-file-then-rename -- holding the incumbent heap, the
evaluated-position cursor, every scored outcome (including quarantined
failures) and the prune counters.  Resuming restores that state and
continues the sweep; because strategy enumeration, bound computation
and the bound-sorted order are all deterministic, the resumed run's
final winner and top-K are bit-identical to an uninterrupted one
(tested in ``tests/engine/test_checkpoint.py``).

A checkpoint is only trusted when its ``version``, code ``salt`` and
``space`` digest (compute signature + strategy count + search
parameters + evaluator fingerprint + lowering options and prefetch)
all match the running search; a
mismatch starts fresh, and an unparseable file is quarantined to a
``*.corrupt`` sidecar like every other persistence file.

Checkpointing is configured per run: the ``checkpoint`` directory and
``resume`` flag of a :class:`~repro.engine.runconfig.RunConfig` (the
CLI's ``--checkpoint DIR`` / ``--resume``).  Experiment sweeps run many
searches, so each search writes its own file named after its digest
(:func:`checkpoint_path`) inside that directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .evalcache import (
    CODE_SALT,
    atomic_write_json,
    quarantine_corrupt,
    report_from_dict,
    report_to_dict,
)
from .evaluators import Evaluation, FailedEvaluation
from .metrics import PruneBatch

__all__ = [
    "CHECKPOINT_VERSION",
    "SearchCheckpoint",
    "checkpoint_path",
    "search_digest",
]

logger = logging.getLogger(__name__)

#: bump on incompatible changes to the sidecar layout.
CHECKPOINT_VERSION = 1


def search_digest(
    compute_sig: Tuple,
    n_strategies: int,
    top_k: int,
    batch: int,
    evaluator,
    lowering: Tuple,
) -> str:
    """Identity of one search problem: only a checkpoint written by a
    bit-identical search (same space, same parameters, same evaluator
    family and fitted parameters, same ``lowering`` context -- options
    and prefetch, which change every kernel without changing the
    strategies) may be resumed."""
    params = None
    params_key = getattr(evaluator, "params_key", None)
    if callable(params_key):
        params = params_key()
    fingerprint = (
        compute_sig,
        int(n_strategies),
        int(top_k),
        int(batch),
        getattr(evaluator, "kind", "?"),
        repr(params),
        repr(lowering),
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def _eval_to_dict(evaluation: Evaluation) -> Dict:
    if evaluation.failed:
        assert isinstance(evaluation, FailedEvaluation)
        return {
            "failed": True,
            "site": evaluation.site,
            "error_type": evaluation.error_type,
            "error_message": evaluation.error_message,
            "error_chain": list(evaluation.error_chain),
            "attempts": evaluation.attempts,
        }
    return {
        "predicted": evaluation.predicted_cycles,
        "measured": evaluation.measured_cycles,
        "report": report_to_dict(evaluation.report),
    }


def _eval_from_dict(raw: Dict, config) -> Evaluation:
    if raw.get("failed"):
        return FailedEvaluation(
            site=str(raw.get("site", "exception")),
            error_type=str(raw.get("error_type", "")),
            error_message=str(raw.get("error_message", "")),
            error_chain=tuple(raw.get("error_chain", ())),
            attempts=int(raw.get("attempts", 0)),
        )
    return Evaluation(
        predicted_cycles=raw.get("predicted"),
        measured_cycles=raw.get("measured"),
        report=report_from_dict(raw.get("report"), config),
    )


@dataclass
class SearchCheckpoint:
    """Resumable state of one branch-and-bound sweep.

    ``pos`` is the cursor into the bound-sorted order (the evaluated
    set is exactly the positions below it -- the driver consumes the
    order as a contiguous prefix).  ``scored`` maps enumeration index
    -> serialized evaluation for every candidate that was realized and
    scored (quarantined failures included, so a resumed sweep reports
    them identically).  ``worst_k`` is the incumbent max-heap (negated
    scores) that prunes the remaining space; the counters and batch
    trace reproduce the run's accounting.
    """

    space: str
    pos: int = 0
    worst_k: List[float] = field(default_factory=list)
    scored: List[Tuple[int, Dict]] = field(default_factory=list)
    bound_pruned: int = 0
    spm_pruned: int = 0
    quarantined: int = 0
    prune_batches: List[PruneBatch] = field(default_factory=list)
    complete: bool = False

    # --- (de)serialization --------------------------------------------
    def payload(self) -> Dict:
        return {
            "version": CHECKPOINT_VERSION,
            "salt": CODE_SALT,
            "space": self.space,
            "pos": self.pos,
            "worst_k": list(self.worst_k),
            "scored": [[idx, raw] for idx, raw in self.scored],
            "counters": {
                "bound_pruned": self.bound_pruned,
                "spm_pruned": self.spm_pruned,
                "quarantined": self.quarantined,
            },
            "prune_batches": [
                [b.considered, b.pruned, b.lowered]
                for b in self.prune_batches
            ],
            "complete": self.complete,
        }

    def save(self, path: Union[str, Path]) -> None:
        atomic_write_json(path, self.payload())

    @classmethod
    def load(
        cls, path: Union[str, Path], *, expect_space: str
    ) -> Optional["SearchCheckpoint"]:
        """Read a checkpoint; ``None`` when absent, stale or untrusted.

        A file that fails to parse or validate is quarantined to a
        ``*.corrupt`` sidecar; a version/salt/space mismatch is left in
        place (it may belong to another code version or search) and
        simply ignored.
        """
        path = Path(path)
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            quarantine_corrupt(path, f"unparseable checkpoint ({exc})")
            return None
        if not isinstance(raw, dict):
            quarantine_corrupt(path, "checkpoint is not a JSON object")
            return None
        if (
            raw.get("version") != CHECKPOINT_VERSION
            or raw.get("salt") != CODE_SALT
            or raw.get("space") != expect_space
        ):
            logger.warning(
                "checkpoint %s does not match this search "
                "(version/salt/space); starting fresh",
                path,
            )
            return None
        try:
            counters = raw.get("counters", {})
            state = cls(
                space=raw["space"],
                pos=int(raw["pos"]),
                worst_k=[float(v) for v in raw.get("worst_k", [])],
                scored=[
                    (int(idx), dict(entry))
                    for idx, entry in raw.get("scored", [])
                ],
                bound_pruned=int(counters.get("bound_pruned", 0)),
                spm_pruned=int(counters.get("spm_pruned", 0)),
                quarantined=int(counters.get("quarantined", 0)),
                prune_batches=[
                    PruneBatch(int(c), int(p), int(lw))
                    for c, p, lw in raw.get("prune_batches", [])
                ],
                complete=bool(raw.get("complete", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            quarantine_corrupt(path, f"malformed checkpoint fields ({exc})")
            return None
        if state.pos < 0 or len(state.scored) > max(state.pos, 0):
            quarantine_corrupt(
                path, "inconsistent checkpoint (scored beyond cursor)"
            )
            return None
        return state

    # --- evaluation payload helpers -----------------------------------
    @staticmethod
    def pack_eval(evaluation: Evaluation) -> Dict:
        return _eval_to_dict(evaluation)

    @staticmethod
    def unpack_eval(raw: Dict, config) -> Evaluation:
        return _eval_from_dict(raw, config)


def checkpoint_path(directory: Union[str, Path], digest: str) -> Path:
    """The file one search (identified by :func:`search_digest`)
    checkpoints to inside a run's checkpoint directory."""
    return Path(directory) / f"search-{digest[:16]}.json"

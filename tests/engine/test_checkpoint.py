"""Checkpoint/resume of the branch-and-bound search.

The contract: a sweep interrupted at any batch boundary and resumed
from its checkpoint finishes with results bit-identical to an
uninterrupted run; corrupt or mismatched checkpoints never poison a
search -- they are quarantined or ignored and the sweep starts fresh.
"""

import json

import pytest

from repro.autotuner.model_tuner import tune_with_model
from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    RunConfig,
    SearchCheckpoint,
    search_candidates,
)
from repro.engine.checkpoint import CHECKPOINT_VERSION
from repro.engine.evalcache import CODE_SALT

from ..scheduler.test_lower import gemm_cd


def make_space():
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("M", [16, 32, 64, 128])
    sp.split("N", [16, 32, 64, 128])
    sp.split("K", [16, 32, 64, 128])
    return cd, sp


def make_pipeline(checkpoint=None, resume=False, **kw):
    cd, sp = make_space()
    run = RunConfig(checkpoint=checkpoint, resume=resume)
    return CandidatePipeline(cd, sp, run=run, **kw)


def run_search(pipeline, evaluator=None):
    evaluator = evaluator or AnalyticEvaluator(config=pipeline.config)
    # batch_size=4 gives the space several branch-and-bound batches
    # (i.e. several checkpoint writes) before the tail is pruned
    return search_candidates(pipeline, evaluator, batch_size=4)


def checkpoint_file(directory):
    """The one digest-named file the searches of one space write."""
    (path,) = directory.glob("search-*.json")
    return path


def signature(pairs):
    return [
        (tuple(sorted(c.strategy.decisions.items())), e.cycles)
        for c, e in pairs
    ]


class InterruptingEvaluator(AnalyticEvaluator):
    """Raises KeyboardInterrupt after ``budget`` evaluations -- the
    same kind/params as AnalyticEvaluator, so the search digest (and
    with it the checkpoint identity) is unchanged."""

    def __init__(self, budget, config=None):
        super().__init__(config=config)
        self.budget = budget
        self.done = 0

    def evaluate(self, candidate):
        if self.done >= self.budget:
            raise KeyboardInterrupt
        self.done += 1
        return super().evaluate(candidate)


class TestCheckpointFile:
    def test_written_and_complete(self, tmp_path):
        pipeline = make_pipeline(checkpoint=tmp_path)
        results = run_search(pipeline)
        assert results
        raw = json.loads(checkpoint_file(tmp_path).read_text())
        assert raw["version"] == CHECKPOINT_VERSION
        assert raw["salt"] == CODE_SALT
        assert raw["complete"] is True
        assert len(raw["scored"]) == len(results)

    def test_resume_complete_checkpoint_skips_evaluation(self, tmp_path):
        first_pipe = make_pipeline(checkpoint=tmp_path)
        first = run_search(first_pipe)

        second_pipe = make_pipeline(checkpoint=tmp_path, resume=True)
        second = run_search(second_pipe)
        assert signature(second) == signature(first)
        # everything came from the checkpoint, nothing was re-scored
        assert second_pipe.metrics.prediction.count == 0
        assert second_pipe.metrics.event_counts().get("checkpoint-resume") == 1

    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        clean_pipe = make_pipeline()
        clean = run_search(clean_pipe)

        interrupted_pipe = make_pipeline(checkpoint=tmp_path)
        interrupting = InterruptingEvaluator(
            budget=5, config=interrupted_pipe.config
        )
        with pytest.raises(KeyboardInterrupt):
            run_search(interrupted_pipe, interrupting)
        partial = json.loads(checkpoint_file(tmp_path).read_text())
        assert partial["complete"] is False
        # it really stopped mid-sweep with at least one batch banked
        assert 0 < len(partial["scored"]) < len(clean)

        resumed_pipe = make_pipeline(checkpoint=tmp_path, resume=True)
        resumed = run_search(resumed_pipe)
        assert signature(resumed) == signature(clean)
        # the resumed run scored strictly less than the whole sweep
        assert 0 < resumed_pipe.metrics.prediction.count < len(clean)

    def test_without_resume_checkpoint_is_ignored(self, tmp_path):
        first_pipe = make_pipeline(checkpoint=tmp_path)
        first = run_search(first_pipe)

        again_pipe = make_pipeline(checkpoint=tmp_path)
        again = run_search(again_pipe)  # no resume
        assert signature(again) == signature(first)
        assert again_pipe.metrics.prediction.count > 0  # re-evaluated


class TestCheckpointValidation:
    def test_corrupt_checkpoint_quarantined_and_fresh(self, tmp_path):
        run_search(make_pipeline(checkpoint=tmp_path))
        path = checkpoint_file(tmp_path)
        path.write_text("{definitely not json")
        pipeline = make_pipeline(checkpoint=tmp_path, resume=True)
        results = run_search(pipeline)
        assert results
        assert path.with_name(path.name + ".corrupt").exists()
        assert json.loads(path.read_text())["complete"] is True

    def test_mismatched_space_ignored_in_place(self, tmp_path):
        clean = run_search(make_pipeline(checkpoint=tmp_path))
        path = checkpoint_file(tmp_path)
        SearchCheckpoint(space="0" * 64, pos=4).save(path)
        pipeline = make_pipeline(checkpoint=tmp_path, resume=True)
        results = run_search(pipeline)
        assert signature(results) == signature(clean)
        assert pipeline.metrics.prediction.count > 0  # not resumed
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_lowering_context_gets_its_own_checkpoint(self, tmp_path):
        """Same space, different lowering (the Fig. 10 baseline arm):
        resuming must not hand one search the other's scores."""
        from repro.scheduler.lower import LoweringOptions

        def baseline_pipeline(**kw):
            return make_pipeline(
                options=LoweringOptions(double_buffer=False),
                prefetch=False, **kw,
            )

        clean = run_search(baseline_pipeline())
        run_search(make_pipeline(checkpoint=tmp_path))
        resumed = run_search(
            baseline_pipeline(checkpoint=tmp_path, resume=True)
        )
        assert signature(resumed) == signature(clean)
        assert len(list(tmp_path.glob("search-*.json"))) == 2

    def test_inconsistent_cursor_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.json"
        state = SearchCheckpoint(space="x", pos=1)
        state.scored = [(0, {"predicted": 1.0}), (1, {"predicted": 2.0})]
        state.save(path)
        assert SearchCheckpoint.load(path, expect_space="x") is None
        assert (tmp_path / "ckpt.json.corrupt").exists()

    def test_failed_evaluation_round_trips(self):
        from repro.engine import FailedEvaluation

        failure = FailedEvaluation(
            site="crash",
            error_type="InjectedCrash",
            error_message="boom",
            error_chain=("InjectedCrash: boom",),
            attempts=3,
        )
        raw = SearchCheckpoint.pack_eval(failure)
        back = SearchCheckpoint.unpack_eval(raw, None)
        assert back == failure


class TestDefaultPolicy:
    def test_directory_policy_resumes_per_search(self, tmp_path):
        first_pipe = make_pipeline(checkpoint=tmp_path, resume=True)
        first = run_search(first_pipe)
        files = list(tmp_path.glob("search-*.json"))
        assert len(files) == 1

        second_pipe = make_pipeline(checkpoint=tmp_path, resume=True)
        second = run_search(second_pipe)
        assert signature(second) == signature(first)
        assert second_pipe.metrics.prediction.count == 0  # resumed


class TestTunerResume:
    def test_tune_with_model_resume_from(self, tmp_path):
        cd, sp = make_space()
        first = tune_with_model(
            cd, sp, run_best=False,
            run=RunConfig.from_env(checkpoint=tmp_path),
        )
        cd2, sp2 = make_space()
        resumed = tune_with_model(
            cd2, sp2, run_best=False,
            run=RunConfig.from_env(checkpoint=tmp_path, resume=True),
        )
        assert (
            resumed.best.candidate.strategy.decisions
            == first.best.candidate.strategy.decisions
        )
        assert resumed.best.predicted_cycles == first.best.predicted_cycles
        assert resumed.metrics.prediction.count == 0  # answered by resume

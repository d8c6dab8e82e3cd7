"""Resilience of the supervised evaluation engine under injected faults.

The contract mirrors the pruning one: faults change how much work a
sweep does (retries, bisections, pool rebuilds), never what it returns.
Transient failures must recover to bit-identical results; persistent
(poison) failures must quarantine exactly the poisoned candidate.
"""

import warnings

import pytest

from repro.dsl import ScheduleSpace
from repro.engine import (
    AnalyticEvaluator,
    CandidatePipeline,
    EngineMetrics,
    FailedEvaluation,
    MemoizingEvaluator,
    PersistentEvalStore,
    RunConfig,
    evaluate_batch,
    search_candidates,
)
from repro.engine import parallel as par
from repro.engine.evalcache import EVAL_CACHE_VERSION
from repro.faults import (
    FaultPlan,
    InjectedCrash,
    InjectedEvaluatorError,
    InjectedHang,
    candidate_digest,
)

from ..scheduler.test_lower import gemm_cd

SERIAL = RunConfig(workers=1)


@pytest.fixture(autouse=True)
def clean_engine_state():
    par.reset_degradation_warnings()
    yield
    par.reset_degradation_warnings()


def make_pipeline(splits=(32, 64, 128), run=None):
    cd = gemm_cd(128, 128, 128)
    sp = ScheduleSpace(cd)
    sp.split("M", list(splits))
    sp.split("N", list(splits))
    sp.split("K", list(splits))
    return CandidatePipeline(cd, sp, run=run)


def eval_signature(pairs):
    """Comparable (strategy, cycles) list for bit-identity checks."""
    return [
        (tuple(sorted(c.strategy.decisions.items())), e.cycles)
        for c, e in pairs
        if not e.failed
    ]


class TestFaultPlan:
    def test_draws_are_deterministic(self):
        plan = FaultPlan(seed=7, exception=0.5)
        first = [plan.should_fire("exception", f"k{i}") for i in range(64)]
        again = [plan.should_fire("exception", f"k{i}") for i in range(64)]
        assert first == again
        assert any(first) and not all(first)

    def test_attempt_redraws(self):
        plan = FaultPlan(seed=3, crash=0.5)
        keys = [f"k{i}" for i in range(128)]
        fired0 = {k for k in keys if plan.should_fire("crash", k, 0)}
        fired1 = {k for k in keys if plan.should_fire("crash", k, 1)}
        assert fired0 and fired0 != fired1  # a retry really re-draws

    def test_seed_changes_schedule(self):
        keys = [f"k{i}" for i in range(128)]
        a = {k for k in keys if FaultPlan(seed=1, hang=0.3).should_fire("hang", k)}
        b = {k for k in keys if FaultPlan(seed=2, hang=0.3).should_fire("hang", k)}
        assert a != b

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("seed=42,crash=0.1,corrupt=0.5,poison=ab12")
        assert plan == FaultPlan(seed=42, crash=0.1, corrupt=0.5, poison="ab12")
        assert FaultPlan.parse(plan.describe()) == plan

    @pytest.mark.parametrize(
        "spec",
        ["crash", "crash=2.0", "bogus=0.1", "crash=-0.5", "seed=x"],
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_noop_plan_not_installed(self):
        assert RunConfig(faults=FaultPlan(seed=9)).faults is None
        plan = FaultPlan(seed=9, crash=0.1)
        assert RunConfig(faults=plan).faults is plan

    def test_evaluator_raises_planned_sites(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        digest = candidate_digest(cands[0])
        from repro.faults import FaultyEvaluator

        inner = AnalyticEvaluator(config=pipeline.config)
        for rate_name, exc_type in [
            ("crash", InjectedCrash),
            ("hang", InjectedHang),
            ("exception", InjectedEvaluatorError),
        ]:
            plan = FaultPlan(seed=0, **{rate_name: 1.0})
            with pytest.raises(exc_type):
                FaultyEvaluator(inner, plan).evaluate(cands[0])
        poisoned = FaultyEvaluator(
            inner, FaultPlan(poison=digest[:12])
        )
        with pytest.raises(InjectedEvaluatorError):
            poisoned.evaluate(cands[0])


class TestSupervisedSerial:
    def test_transient_exceptions_recover_bit_identical(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config), run=SERIAL
        )

        # seed chosen so the plan fires on several candidates but never
        # three attempts in a row (which would be a quarantine)
        metrics = EngineMetrics()
        faulty = evaluate_batch(
            cands,
            AnalyticEvaluator(config=pipeline.config),
            run=RunConfig(faults=FaultPlan(seed=2, exception=0.3)),
            metrics=metrics,
        )
        assert metrics.retries > 0  # the plan really fired
        assert metrics.quarantined == 0  # transient: retries recovered all
        assert [e.cycles for e in faulty] == [e.cycles for e in clean]

    def test_poison_quarantined_exactly(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config), run=SERIAL
        )
        victim = 3
        plan = FaultPlan(poison=candidate_digest(cands[victim])[:12])
        metrics = EngineMetrics()
        faulty = evaluate_batch(
            cands,
            AnalyticEvaluator(config=pipeline.config),
            run=RunConfig(faults=plan),
            metrics=metrics,
        )
        assert metrics.quarantined == 1
        assert isinstance(faulty[victim], FailedEvaluation)
        assert faulty[victim].site == "exception"
        assert faulty[victim].attempts == 3  # initial try + 2 retries
        assert "poison" in faulty[victim].error_message
        assert faulty[victim].error_chain  # the chain survived
        for i, (a, b) in enumerate(zip(faulty, clean)):
            if i != victim:
                assert a.cycles == b.cycles

    def test_quarantined_never_reaches_memo(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        plan = FaultPlan(poison=candidate_digest(cands[0])[:12])
        store = {}
        memo = MemoizingEvaluator(
            AnalyticEvaluator(config=pipeline.config), store=store, disk=None
        )
        out = evaluate_batch(cands, memo, run=RunConfig(faults=plan))
        assert out[0].failed
        assert len(store) == len(cands) - 1

    def test_hang_site_classified(self):
        assert par._classify(InjectedHang("x")) == "hang"
        assert par._classify(InjectedCrash("x")) == "crash"
        assert par._classify(TimeoutError()) == "hang"
        assert par._classify(ValueError("x")) == "exception"

    def test_events_recorded(self):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())
        plan = FaultPlan(poison=candidate_digest(cands[0])[:12])
        metrics = EngineMetrics()
        evaluate_batch(
            cands,
            AnalyticEvaluator(config=pipeline.config),
            run=RunConfig(faults=plan),
            metrics=metrics,
        )
        counts = metrics.event_counts()
        assert counts.get("retry") == 2
        assert counts.get("quarantine") == 1
        assert "quarantine 1" in metrics.describe_events()


class TestSupervisedParallel:
    def test_crash_recovery_bit_identical(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        clean = evaluate_batch(
            cands, AnalyticEvaluator(config=pipeline.config), run=SERIAL
        )
        metrics = EngineMetrics()
        faulty = evaluate_batch(
            cands,
            AnalyticEvaluator(config=pipeline.config),
            run=RunConfig(workers=2, faults=FaultPlan(seed=5, crash=0.08)),
            metrics=metrics,
        )
        # the pool really broke and was rebuilt, and no candidate was
        # quarantined by a neighbour's crash
        assert metrics.event_counts().get("pool-rebuild", 0) > 0
        assert metrics.quarantined == 0
        assert metrics.degraded_batches == 0
        assert [e.cycles for e in faulty] == [e.cycles for e in clean]

    def test_parallel_poison_quarantined_exactly(self):
        pipeline = make_pipeline()
        cands = list(pipeline.candidates())
        victim = 5
        plan = FaultPlan(poison=candidate_digest(cands[victim])[:12])
        metrics = EngineMetrics()
        out = evaluate_batch(
            cands,
            AnalyticEvaluator(config=pipeline.config),
            run=RunConfig(workers=2, faults=plan),
            metrics=metrics,
        )
        assert metrics.quarantined == 1
        assert isinstance(out[victim], FailedEvaluation)
        assert sum(1 for e in out if e.failed) == 1
        assert metrics.event_counts().get("bisect", 0) > 0

    def test_degradation_is_loud(self, monkeypatch):
        pipeline = make_pipeline((64, 128))
        cands = list(pipeline.candidates())

        def broken_pool(workers, evaluator):
            raise OSError("no process support here")

        monkeypatch.setattr(par, "_make_pool", broken_pool)
        metrics = EngineMetrics()
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            out = evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                run=RunConfig(workers=2),
                metrics=metrics,
            )
        assert metrics.degraded_batches == 1
        assert metrics.event_counts().get("degraded") == 1
        assert len(out) == len(cands) and not any(e.failed for e in out)
        # second degradation: counted again, but warned only once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_batch(
                cands,
                AnalyticEvaluator(config=pipeline.config),
                run=RunConfig(workers=2),
                metrics=metrics,
            )
        assert metrics.degraded_batches == 2


class TestAcceptanceScenario:
    """The issue's acceptance criterion: crashes + a poison candidate +
    a corrupted eval-cache file, in one seeded sweep."""

    def test_chaos_sweep_matches_fault_free(self, tmp_path):
        # fault-free exhaustive reference
        ref_pipe = make_pipeline(run=RunConfig(prune=False))
        reference = search_candidates(
            ref_pipe, AnalyticEvaluator(config=ref_pipe.config)
        )
        ref_best = min(
            reference, key=lambda p: (p[1].cycles,)
        )

        # pick a mid-ranking candidate the pruned sweep will evaluate
        pruned_pipe = make_pipeline(run=RunConfig())
        pruned = search_candidates(
            pruned_pipe,
            AnalyticEvaluator(config=pruned_pipe.config),
            batch_size=8,
        )
        by_cycles = sorted(pruned, key=lambda p: p[1].cycles)
        poison_cand = by_cycles[len(by_cycles) // 2][0]
        poison = candidate_digest(poison_cand)[:16]

        # a corrupted eval-cache file the sweep must survive
        cache_path = tmp_path / "evals.json"
        cache_path.write_text(
            '{"version": %d, "salt": "x", "entries": {"trunc' % EVAL_CACHE_VERSION
        )
        store = PersistentEvalStore(cache_path)
        assert len(store) == 0

        plan = FaultPlan(seed=13, crash=0.05, poison=poison)
        chaos_pipe = make_pipeline(run=RunConfig(workers=2, faults=plan))
        memo = MemoizingEvaluator(
            AnalyticEvaluator(config=chaos_pipe.config), store={}, disk=store
        )
        chaos = search_candidates(chaos_pipe, memo, batch_size=8)

        # the sweep completed, quarantining exactly the poison candidate
        failed = [(c, e) for c, e in chaos if e.failed]
        assert len(failed) == 1
        assert candidate_digest(failed[0][0]).startswith(poison)
        assert chaos_pipe.metrics.quarantined == 1

        # and the winner matches the fault-free exhaustive run
        chaos_best = min(chaos, key=lambda p: (p[1].cycles,))
        assert (
            chaos_best[0].strategy.decisions == ref_best[0].strategy.decisions
        )
        assert chaos_best[1].cycles == ref_best[1].cycles

        # the store only holds healthy entries and flushes cleanly
        store.flush()
        reloaded = PersistentEvalStore(cache_path)
        assert len(reloaded) == len(store)

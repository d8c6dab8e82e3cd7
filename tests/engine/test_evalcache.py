"""The persistent evaluation cache and its MemoizingEvaluator tier."""

import json

import pytest

from repro.dsl import ScheduleSpace
from repro.engine import (
    CandidatePipeline,
    MemoizingEvaluator,
    PersistentEvalStore,
    RunConfig,
    SimulatorEvaluator,
    evaluate_batch,
)
from repro.engine.evalcache import EVAL_CACHE_VERSION

from ..scheduler.test_lower import gemm_cd

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


@pytest.fixture
def candidate():
    cd = gemm_cd(64, 64, 64)
    sp = ScheduleSpace(cd)
    sp.split("M", [32])
    sp.split("N", [32])
    sp.split("K", [32])
    return next(CandidatePipeline(cd, sp).candidates())


class TestPersistentEvalStore:
    def test_roundtrip_across_reload(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}, disk=store
        )
        first = memo.evaluate(candidate)
        store.flush()
        assert path.exists()

        reloaded = PersistentEvalStore(path)
        assert len(reloaded) == 1
        sim = SimulatorEvaluator(sanitize=SANITIZE)
        memo2 = MemoizingEvaluator(sim, store={}, disk=reloaded)
        second = memo2.evaluate(candidate)
        assert sim.executions == 0  # answered from disk, not re-simulated
        assert second.memoized
        assert second.measured_cycles == first.measured_cycles
        assert reloaded.hits == 1 and memo2.disk_hits == 1

    def test_salt_mismatch_discards_store(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path, salt="code-v1")
        MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}, disk=store
        ).evaluate(candidate)
        store.flush()

        stale = PersistentEvalStore(path, salt="code-v2")
        assert len(stale) == 0

    def test_version_mismatch_discards_store(self, tmp_path):
        path = tmp_path / "scores.json"
        payload = {
            "version": EVAL_CACHE_VERSION + 1,
            "salt": PersistentEvalStore(tmp_path / "x.json").salt,
            "entries": {"deadbeef": [1.0, 2.0]},
        }
        path.write_text(json.dumps(payload))
        assert len(PersistentEvalStore(path)) == 0

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text("{not json")
        store = PersistentEvalStore(path)
        assert len(store) == 0

    def test_unsalvageable_file_quarantined(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text("{not json")
        store = PersistentEvalStore(path)
        sidecar = tmp_path / "scores.json.corrupt"
        assert store.quarantined_path == sidecar
        assert sidecar.read_text() == "{not json"  # evidence preserved
        assert not path.exists()
        assert "corrupt original" in store.describe()

    def test_truncated_file_recovers_valid_prefix(
        self, tmp_path, candidate
    ):
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}, disk=store
        )
        evaluation = memo.evaluate(candidate)
        # pad with synthetic entries so a truncation point falls
        # between entries, then tear the tail off the file
        for i in range(20):
            store.put(("synthetic", i), evaluation)
        store.flush()
        data = path.read_text()
        path.write_text(data[: int(len(data) * 0.6)])

        recovered = PersistentEvalStore(path)
        assert recovered.recovered
        assert 0 < len(recovered) < 21
        assert "recovered" in recovered.describe()
        # the real entry survives: it was written first
        sim = SimulatorEvaluator(sanitize=SANITIZE)
        MemoizingEvaluator(sim, store={}, disk=recovered).evaluate(candidate)
        assert sim.executions == 0  # answered from the recovered prefix
        # recovery marks the store dirty so the next flush rewrites a
        # clean file
        recovered.flush()
        clean = PersistentEvalStore(path)
        assert not clean.recovered
        assert len(clean) == len(recovered)

    def test_malformed_entries_skipped_individually(
        self, tmp_path
    ):
        path = tmp_path / "scores.json"
        probe = PersistentEvalStore(tmp_path / "probe.json")
        payload = {
            "version": EVAL_CACHE_VERSION,
            "salt": probe.salt,
            "entries": {
                "good": [1.0, 2.0, None],
                "bad-shape": [1.0],
                "bad-types": ["x", "y", "z"],
                "bad-report": [1.0, 2.0, "not a dict"],
            },
        }
        path.write_text(json.dumps(payload))
        store = PersistentEvalStore(path)
        assert len(store) == 1
        assert store.invalid_entries == 3
        assert "3 malformed" in store.describe()
        store.flush()  # rewrites without the bad entries
        assert len(PersistentEvalStore(path)) == 1

    def test_flush_is_atomic_and_idempotent(self, tmp_path, candidate):
        path = tmp_path / "nested" / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}, disk=store
        )
        memo.evaluate(candidate)
        store.flush()
        mtime = path.stat().st_mtime_ns
        store.flush()  # clean: must not rewrite
        assert path.stat().st_mtime_ns == mtime
        assert not list(path.parent.glob("*.tmp"))  # no temp litter

    def test_reports_survive_the_disk_roundtrip(
        self, tmp_path, candidate
    ):
        """Harness drivers read ``result.report.cycles`` (and .seconds,
        .gflops) off warm runs, so the numeric report summary must come
        back from disk with the requesting evaluator's config."""
        path = tmp_path / "scores.json"
        store = PersistentEvalStore(path)
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}, disk=store
        )
        original = memo.evaluate(candidate).report
        assert original is not None
        store.flush()

        sim = SimulatorEvaluator(sanitize=SANITIZE)
        hit = MemoizingEvaluator(
            sim, store={}, disk=PersistentEvalStore(path)
        ).evaluate(candidate)
        assert hit.report is not None
        assert hit.report.cycles == original.cycles
        assert hit.report.dma_cycles == original.dma_cycles
        assert hit.report.compute_cycles == original.compute_cycles
        assert hit.report.bytes_moved == original.bytes_moved
        assert hit.report.flops == original.flops
        assert hit.report.config is sim.config  # rebuilt, clock intact
        assert hit.report.seconds == original.seconds


class TestProcessWideDefault:
    """The store belongs to a run (``RunConfig.eval_cache``), never to
    the process."""

    def test_memoizer_picks_up_installed_cache(self, tmp_path):
        from repro.autotuner import tune_with_model
        from repro.engine import clear_shared_memo

        clear_shared_memo()  # in-process hits would never reach the disk
        cd = gemm_cd(96, 64, 32)
        sp = ScheduleSpace(cd)
        sp.split("M", [32, 96])
        sp.split("N", [32, 64])
        sp.split("K", [32])
        store = PersistentEvalStore(tmp_path / "scores.json")
        tune_with_model(cd, sp, top_k=2, run=RunConfig(eval_cache=store))
        assert len(store) == 2  # the tuner's measurements landed there
        assert (tmp_path / "scores.json").exists()

    def test_explicit_none_disables_disk(self, tmp_path, candidate):
        # another store existing in the process is never picked up
        PersistentEvalStore(tmp_path / "scores.json")
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={}
        )
        assert memo.disk is None
        memo.evaluate(candidate)
        memo.flush()
        assert not (tmp_path / "scores.json").exists()

    def test_batch_flushes_at_boundary(self, tmp_path, candidate):
        path = tmp_path / "scores.json"
        memo = MemoizingEvaluator(
            SimulatorEvaluator(sanitize=SANITIZE), store={},
            disk=PersistentEvalStore(path),
        )
        evaluate_batch([candidate], memo)
        assert path.exists()  # no explicit flush() needed


class TestQuarantineSidecars:
    def test_repeated_corruption_never_clobbers_evidence(self, tmp_path):
        """Each quarantine gets its own sidecar: ``.corrupt``,
        ``.corrupt.1``, ... -- a second corruption must not overwrite
        the first post-mortem."""
        from repro.engine.evalcache import quarantine_corrupt

        path = tmp_path / "store.json"
        path.write_text("first corruption")
        s1 = quarantine_corrupt(path, "test")
        assert s1 == tmp_path / "store.json.corrupt"
        path.write_text("second corruption")
        s2 = quarantine_corrupt(path, "test")
        assert s2 == tmp_path / "store.json.corrupt.1"
        path.write_text("third corruption")
        s3 = quarantine_corrupt(path, "test")
        assert s3 == tmp_path / "store.json.corrupt.2"
        assert s1.read_text() == "first corruption"
        assert s2.read_text() == "second corruption"
        assert s3.read_text() == "third corruption"
        assert not path.exists()

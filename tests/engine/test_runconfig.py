"""One frozen RunConfig per run: library sessions in one process never
see each other's settings, and a call without a config follows the
environment exactly once."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.autotuner import tune_with_model
from repro.codegen.executor import CompiledKernel
from repro.dsl import ScheduleSpace
from repro.engine import (
    PersistentEvalStore,
    RunConfig,
    SimulatorEvaluator,
    clear_shared_memo,
)
from repro.engine import validate as validate_mod
from repro.faults import FaultPlan
from repro.runtime import AtopLibrary

from ..scheduler.test_lower import gemm_cd


@pytest.fixture
def kernel_runs(monkeypatch):
    """The ``sanitize`` flag of every kernel run, in order."""
    seen = []
    run = CompiledKernel.run

    def spy(self, feeds):
        seen.append(self.sanitize)
        return run(self, feeds)

    monkeypatch.setattr(CompiledKernel, "run", spy)
    return seen


def gemm_inputs(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((m, k)).astype(np.float32),
        rng.standard_normal((k, n)).astype(np.float32),
    )


class TestRunConfig:
    def test_frozen_and_normalized(self, tmp_path):
        run = RunConfig(
            workers=0, checkpoint=str(tmp_path), faults=FaultPlan(seed=3)
        )
        assert run.workers == 1
        assert run.checkpoint == tmp_path
        assert run.faults is None  # a no-op plan is no plan
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.sanitize = True

    def test_sanitize_flag_travels_with_the_evaluator(self):
        # workers receive the evaluator, never the config
        sim = pickle.loads(pickle.dumps(SimulatorEvaluator(sanitize=True)))
        assert sim.sanitize is True


class TestLibraryIsolation:
    def test_sanitize_does_not_leak_to_another_library(
        self, monkeypatch, kernel_runs
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitized = AtopLibrary(quick=True, run=RunConfig(sanitize=True))
        plain = AtopLibrary(quick=True)
        sanitized.gemm(*gemm_inputs(64, 32, 32))
        assert kernel_runs and all(kernel_runs)
        kernel_runs.clear()
        plain.gemm(*gemm_inputs(64, 32, 32))
        assert kernel_runs and not any(kernel_runs)

    def test_sanitized_library_after_a_plain_one_runs_its_kernels(
        self, monkeypatch, kernel_runs
    ):
        # the shared memo must not answer a sanitized session with the
        # scores of kernels that ran unsanitized
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        clear_shared_memo()
        plain = AtopLibrary(quick=True)
        sanitized = AtopLibrary(quick=True, run=RunConfig(sanitize=True))
        plain.gemm(*gemm_inputs(48, 32, 64))
        ran_plain = len(kernel_runs)
        kernel_runs.clear()
        sanitized.gemm(*gemm_inputs(48, 32, 64))
        assert len(kernel_runs) == ran_plain > 1
        assert all(kernel_runs)

    def test_eval_caches_stay_with_their_library(self, tmp_path):
        clear_shared_memo()  # in-process hits would never reach a disk
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        lib_a = AtopLibrary(
            quick=True, run=RunConfig(eval_cache=PersistentEvalStore(path_a))
        )
        lib_b = AtopLibrary(
            quick=True, run=RunConfig(eval_cache=PersistentEvalStore(path_b))
        )
        lib_a.gemm(*gemm_inputs(96, 32, 64))
        assert path_a.exists() and not path_b.exists()
        written_a = path_a.read_bytes()

        lib_b.gemm(*gemm_inputs(64, 96, 32))
        assert path_b.exists()
        assert path_a.read_bytes() == written_a
        assert len(PersistentEvalStore(path_a)) > 0
        assert len(PersistentEvalStore(path_b)) > 0


class TestEnvironmentDefault:
    def test_tuner_without_config_sanitizes_and_validates_all(
        self, monkeypatch, kernel_runs
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        validated = []
        validate_candidate = validate_mod.validate_candidate

        def spy(candidate, *args, **kw):
            validated.append(candidate)
            return validate_candidate(candidate, *args, **kw)

        monkeypatch.setattr(validate_mod, "validate_candidate", spy)
        cd = gemm_cd(64, 64, 64)
        sp = ScheduleSpace(cd)
        sp.split("M", [16, 32, 64])
        sp.split("N", [32, 64])
        sp.split("K", [64])
        result = tune_with_model(cd, sp, top_k=2, memoize=False)
        assert result.report is not None
        assert len(validated) == 2  # every measured finalist
        assert kernel_runs and all(kernel_runs)

"""Tests for differential kernel validation (repro.engine.validate)."""

import numpy as np
import pytest

from repro.engine import (
    CandidatePipeline,
    RunConfig,
    SimulatorEvaluator,
    ValidatingEvaluator,
    compare_tensors,
    reference_outputs,
    synthetic_feeds,
    tolerance_for,
    validate_candidate,
    validation_digest,
)
from repro.errors import ValidationError
from repro.faults import FaultPlan, compute_digest
from repro.ops.conv_common import ConvParams
from repro.ops import conv_implicit, conv_winograd, conv2d_reference
from repro.ops.gemm import make_compute as gemm_compute
from repro.ops.gemm import make_space as gemm_space

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def first_candidate(compute, space, run=None):
    pipeline = CandidatePipeline(compute, space, run=run)
    return pipeline, next(pipeline.candidates(limit=1))


def poison_plan(compute):
    return FaultPlan(poison=compute_digest(compute)[:12])


class TestModes:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert RunConfig.from_env().validate == "off"
        assert RunConfig().validate == "off"

    def test_sanitize_forces_all(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert RunConfig.from_env().validate == "all"
        # --sanitize without --validate means the same
        monkeypatch.delenv("REPRO_SANITIZE")
        assert RunConfig.from_env(sanitize=True).validate == "all"

    def test_explicit_mode_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert RunConfig.from_env(validate="winner").validate == "winner"
        assert RunConfig(validate="off").validate == "off"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(validate="sometimes")
        with pytest.raises(ValueError):
            RunConfig.from_env(validate="maybe")


class TestReference:
    def test_gemm_reference_is_matmul(self):
        compute = gemm_compute(24, 20, 28)
        feeds = synthetic_feeds(compute)
        refs = reference_outputs(compute, feeds)
        a64 = np.asarray(feeds["A"], np.float64)
        b64 = np.asarray(feeds["B"], np.float64)
        np.testing.assert_allclose(refs["C"], a64 @ b64, rtol=1e-12)

    def test_conv_reference_matches_direct(self):
        params = ConvParams(batch=2, ni=8, no=8, ri=10, ci=10)
        compute = conv_implicit.make_compute(params)
        feeds = synthetic_feeds(compute)
        refs = reference_outputs(compute, feeds)
        direct = conv2d_reference(feeds["input"], feeds["weight"], params)
        (out_name,) = refs
        np.testing.assert_allclose(
            refs[out_name], direct, rtol=1e-4, atol=1e-4
        )

    def test_tolerance_grows_with_reduction_length(self):
        small = gemm_compute(16, 16, 16)
        large = gemm_compute(16, 16, 4096)
        assert tolerance_for(large)[0] > tolerance_for(small)[0]
        assert tolerance_for(small)[0] >= 1e-5

    def test_compare_tensors_structured_error(self):
        ref = np.zeros((4, 4))
        bad = ref.copy()
        bad[1, 2] = 5.0
        with pytest.raises(ValidationError) as exc:
            compare_tensors(
                bad, ref, rtol=1e-5, atol=1e-5, op="gemm", tensor="C"
            )
        err = exc.value
        assert err.op == "gemm"
        assert err.tensor == "C"
        assert err.mismatches == 1
        assert err.max_abs_err == pytest.approx(5.0)

    def test_compare_tensors_shape_mismatch(self):
        with pytest.raises(ValidationError):
            compare_tensors(
                np.zeros((2, 2)), np.zeros((2, 3)),
                rtol=1e-5, atol=1e-5,
            )


class TestValidateCandidate:
    def test_honest_gemm_passes(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        report = validate_candidate(cand, sanitize=SANITIZE)
        assert report.op == compute.name
        assert report.max_abs_err <= report.atol + report.rtol
        assert report.cycles > 0

    def test_honest_winograd_passes(self):
        params = ConvParams(batch=1, ni=8, no=8, ri=10, ci=10)
        compute = conv_winograd.make_compute(params)
        space = conv_winograd.make_space(params, quick=True)
        _, cand = first_candidate(compute, space)
        report = validate_candidate(cand, sanitize=SANITIZE)
        assert report.tensors

    def test_poisoned_kernel_fails(self):
        """A fault-plan poison silently corrupting kernel outputs is
        exactly what differential validation exists to catch."""
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        with pytest.raises(ValidationError):
            validate_candidate(
                cand, faults=poison_plan(compute), sanitize=SANITIZE
            )

    def test_pipeline_validate_counts_failures(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        pipeline, cand = first_candidate(compute, space)
        pipeline.validate(cand)
        assert pipeline.metrics.validation.count == 1
        assert pipeline.metrics.validation_failures == 0
        poisoned, cand = first_candidate(
            compute, space, RunConfig(faults=poison_plan(compute))
        )
        with pytest.raises(ValidationError):
            poisoned.validate(cand)
        assert poisoned.metrics.validation_failures == 1
        assert poisoned.metrics.event_counts().get("validation") == 1


class TestValidatingEvaluator:
    def test_wraps_and_delegates(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        inner = SimulatorEvaluator(synthetic_feeds(compute), sanitize=SANITIZE)
        ev = ValidatingEvaluator(inner)
        assert ev.kind == inner.kind + "+validate"
        assert ev.params_key()[0] == inner.params_key()
        result = ev.evaluate(cand)
        assert not result.failed
        assert result.measured_cycles > 0
        assert ev.validations == 1 and ev.failures == 0

    def test_poison_becomes_failed_evaluation(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        _, cand = first_candidate(compute, space)
        inner = SimulatorEvaluator(synthetic_feeds(compute), sanitize=SANITIZE)
        ev = ValidatingEvaluator(inner, faults=poison_plan(compute))
        result = ev.evaluate(cand)
        assert result.failed
        assert result.site == "validation"
        assert ev.failures == 1


class TestDigest:
    def test_digest_depends_on_key_and_strategy(self):
        compute = gemm_compute(48, 48, 48)
        space = gemm_space(compute, quick=True)
        pipeline = CandidatePipeline(compute, space)
        cands = list(pipeline.candidates(limit=2))
        d1 = validation_digest("gemm:48x48x48", cands[0].strategy)
        assert d1 == validation_digest("gemm:48x48x48", cands[0].strategy)
        assert d1 != validation_digest("gemm:64x48x48", cands[0].strategy)
        if len(cands) > 1:
            assert d1 != validation_digest(
                "gemm:48x48x48", cands[1].strategy
            )

"""Integration tests: full tune -> compile -> execute -> verify flows
for every operator, cross-checked against independent references."""

import numpy as np
import pytest

from repro.autotuner import tune_blackbox, tune_with_model
from repro.codegen import compile_candidate, emit_c
from repro.codegen.executor import CompiledKernel
from repro.engine import RunConfig
from repro.harness.runner import (
    run_conv_explicit,
    run_conv_implicit,
    run_conv_winograd,
    run_gemm,
)
from repro.ops import conv_implicit
from repro.ops.conv_common import ConvParams
from repro.ops.direct import conv2d_reference
from repro.ops.gemm import make_compute, make_space

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


class TestGemmEndToEnd:
    def test_tune_compile_run_verify(self):
        m, n, k = 160, 112, 96
        compute = make_compute(m, n, k)
        space = make_space(compute, quick=True)
        result = tune_with_model(compute, space)
        ck = CompiledKernel(
            result.best.candidate.kernel, compute, sanitize=SANITIZE
        )
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        out = ck.run({"A": a, "B": b}).outputs["C"]
        np.testing.assert_allclose(out, a @ b, rtol=1e-3, atol=1e-2)

    def test_emitted_c_for_tuned_kernel(self):
        compute = make_compute(128, 128, 128)
        space = make_space(compute, quick=True)
        result = tune_with_model(compute, space, run_best=False)
        src = emit_c(result.best.candidate.kernel)
        assert "spm_gemm_" in src
        assert src.count("{") == src.count("}")

    def test_model_and_blackbox_agree_on_ranking_shape(self):
        compute = make_compute(192, 192, 192)
        space = make_space(compute, quick=True)
        mm = tune_with_model(compute, space)
        bb = tune_blackbox(compute, space)
        assert mm.report.cycles <= 1.15 * bb.report.cycles


class TestConvEndToEnd:
    @pytest.mark.parametrize(
        "runner",
        [run_conv_implicit, run_conv_winograd, run_conv_explicit],
        ids=["implicit", "winograd", "explicit"],
    )
    def test_every_method_matches_direct_reference(self, runner):
        params = ConvParams(batch=4, ni=16, no=16, ri=10, ci=10,
                            kr=3, kc=3, pad=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        ref = conv2d_reference(x, w, params)
        run = runner(params, x, w, library="swatop", quick=True)
        np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)

    def test_methods_agree_with_each_other(self):
        params = ConvParams(batch=2, ni=8, no=8, ri=8, ci=8,
                            kr=3, kc=3, pad=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        outs = [
            runner(params, x, w, library="swatop", quick=True).output
            for runner in (run_conv_implicit, run_conv_winograd,
                           run_conv_explicit)
        ]
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-3, atol=1e-2)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-3, atol=1e-2)

    def test_awkward_shapes_stay_exact(self):
        """Ragged channels/spatial: boundary machinery end to end."""
        params = ConvParams(batch=3, ni=10, no=13, ri=9, ci=11,
                            kr=3, kc=3, pad=1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        ref = conv2d_reference(x, w, params)
        for runner in (run_conv_implicit, run_conv_explicit):
            run = runner(params, x, w, library="swatop", quick=True)
            np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)

    def test_one_by_one_kernel_implicit(self):
        params = ConvParams(batch=4, ni=16, no=16, ri=8, ci=8,
                            kr=1, kc=1, pad=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        ref = conv2d_reference(x, w, params)
        run = run_conv_implicit(params, x, w, library="swatop", quick=True)
        np.testing.assert_allclose(run.output, ref, rtol=1e-3, atol=1e-2)


class TestComparisonSanity:
    def test_swatop_never_catastrophically_loses_gemm(self):
        """Across a mixed bag of shapes, swATOP stays within 25% of
        xMath everywhere (and usually wins)."""
        rng = np.random.default_rng(5)
        for m, n, k in [(256, 256, 256), (100, 300, 50), (512, 128, 256)]:
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            rs = run_gemm(a, b, library="swatop", quick=True)
            rx = run_gemm(a, b, library="xmath")
            assert rs.cycles <= 1.25 * rx.cycles

    def test_tuned_beats_median_candidate(self):
        """Tuning must actually help: the chosen schedule beats the
        median of the space by a clear margin."""
        params = ConvParams(batch=8, ni=32, no=32, ri=8, ci=8,
                            kr=3, kc=3, pad=1)
        compute = conv_implicit.make_compute(params)
        space = conv_implicit.make_space(params, quick=True)
        bb = tune_blackbox(compute, space, keep_scores=True)
        cycles = sorted(s.measured_cycles for s in bb.scores)
        median = cycles[len(cycles) // 2]
        assert bb.best.measured_cycles < 0.8 * median

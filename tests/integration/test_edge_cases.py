"""Edge-case integration tests: degenerate shapes, extreme tiles,
machine-config what-ifs."""

import numpy as np
import pytest

from repro.codegen import compile_candidate
from repro.codegen.executor import CompiledKernel
from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.harness.runner import run_conv_implicit, run_gemm
from repro.machine.config import default_config
from repro.ops.conv_common import ConvParams
from repro.ops.direct import conv2d_reference
from repro.ops.gemm import make_compute
from repro.scheduler import Candidate, lower_strategy

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def gemm_run(m, n, k, tm=None, tn=None, tk=None, **overrides):
    compute = make_compute(m, n, k)
    sp = ScheduleSpace(compute)
    sp.split("M", [tm or m])
    sp.split("N", [tn or n])
    sp.split("K", [tk or k])
    sp.vectorize()
    strat = sp.strategy(**overrides)
    ck = compile_candidate(
        Candidate(strat, lower_strategy(compute, strat), compute),
        sanitize=SANITIZE,
    )
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    res = ck.run({"A": a, "B": b})
    np.testing.assert_allclose(res.outputs["C"], a @ b, rtol=1e-3, atol=1e-2)
    return res.report


class TestDegenerateShapes:
    def test_single_row_gemm(self):
        """M = 1: the vectorized dim pads to a whole vector."""
        gemm_run(1, 64, 32)

    def test_single_col_gemm(self):
        gemm_run(64, 1, 32, **{"vec_dim": "M"})

    def test_k_equals_one(self):
        gemm_run(32, 32, 1)

    def test_all_tiny(self):
        gemm_run(3, 5, 2)

    def test_prime_extents(self):
        gemm_run(97, 89, 83, tm=32, tn=32, tk=32)

    def test_tile_one(self):
        """Degenerate tile factor 1 on a non-vectorized dim."""
        gemm_run(16, 64, 24, tm=16, tn=64, tk=1)


class TestConvEdges:
    def test_conv_minimum_channels(self):
        params = ConvParams(batch=2, ni=8, no=8, ri=4, ci=4, kr=3, kc=3, pad=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        run = run_conv_implicit(params, x, w, quick=True)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )

    def test_conv_output_1x1(self):
        """Valid conv shrinking to a single output pixel."""
        params = ConvParams(batch=2, ni=8, no=8, ri=3, ci=3, kr=3, kc=3, pad=0)
        assert params.ro == 1
        rng = np.random.default_rng(2)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        run = run_conv_implicit(params, x, w, quick=True)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )

    def test_wide_5x5_kernel(self):
        """Winograd does not apply to 5x5; implicit does."""
        params = ConvParams(batch=2, ni=8, no=8, ri=8, ci=8, kr=5, kc=5, pad=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        run = run_conv_implicit(params, x, w, quick=True)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )

    def test_asymmetric_kernel(self):
        params = ConvParams(batch=2, ni=8, no=8, ri=8, ci=8, kr=1, kc=3,
                            pad=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(params.input_shape).astype(np.float32)
        w = rng.standard_normal(params.weight_shape).astype(np.float32)
        run = run_conv_implicit(params, x, w, quick=True)
        np.testing.assert_allclose(
            run.output, conv2d_reference(x, w, params), rtol=1e-3, atol=1e-2
        )


class TestConfigWhatIfs:
    def test_infinite_bandwidth_makes_everything_compute_bound(self):
        cfg = default_config().with_overrides(dram_peak_bw=1e15)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((256, 256)).astype(np.float32)
        b = rng.standard_normal((256, 256)).astype(np.float32)
        fast = run_gemm(a, b, quick=True, config=cfg)
        slow = run_gemm(a, b, quick=True)
        assert fast.cycles < slow.cycles
        assert fast.report.dma_cycles < slow.report.dma_cycles

    def test_faster_clock_speeds_compute(self):
        """Doubling the clock doubles flop rate but leaves the byte/s of
        DRAM unchanged -- kernels shift toward DMA-bound."""
        cfg = default_config().with_overrides(clock_hz=3.0e9)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((512, 512)).astype(np.float32)
        b = rng.standard_normal((512, 512)).astype(np.float32)
        base = run_gemm(a, b, quick=True)
        fast = run_gemm(a, b, quick=True, config=cfg)
        assert fast.report.seconds < base.report.seconds

    def test_tiny_spm_prunes_large_tiles(self):
        from repro.errors import IllegalCandidateError

        cfg = default_config().with_overrides(spm_bytes=4 * 1024)
        compute = make_compute(512, 512, 512)
        sp = ScheduleSpace(compute)
        sp.split("M", [256]); sp.split("N", [256]); sp.split("K", [256])
        with pytest.raises(IllegalCandidateError):
            lower_strategy(compute, sp.strategy(), config=cfg)

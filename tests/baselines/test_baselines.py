"""Tests for the swDNN and xMath manual baselines."""

import numpy as np
import pytest

from repro.baselines import swdnn, xmath
from repro.engine import RunConfig
from repro.errors import WorkloadError
from repro.ops.conv_common import ConvParams

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


class TestXmath:
    def test_functional_correctness_aligned(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 256)).astype(np.float32)
        b = rng.standard_normal((256, 128)).astype(np.float32)
        res = xmath.xmath_gemm(a, b, sanitize=SANITIZE)
        np.testing.assert_allclose(res.output, a @ b, rtol=1e-4, atol=1e-3)
        assert not res.padded

    def test_functional_correctness_unaligned(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((100, 70)).astype(np.float32)
        b = rng.standard_normal((70, 90)).astype(np.float32)
        res = xmath.xmath_gemm(a, b, sanitize=SANITIZE)
        np.testing.assert_allclose(res.output, a @ b, rtol=1e-4, atol=1e-3)
        assert res.padded

    def test_padding_costs_cycles(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((250, 250)).astype(np.float32)
        b = rng.standard_normal((250, 250)).astype(np.float32)
        unaligned = xmath.xmath_gemm(a, b, sanitize=SANITIZE)
        a2 = rng.standard_normal((256, 256)).astype(np.float32)
        b2 = rng.standard_normal((256, 256)).astype(np.float32)
        aligned = xmath.xmath_gemm(a2, b2, sanitize=SANITIZE)
        # less useful work but more cycles: the padding overhead
        assert unaligned.report.cycles > aligned.report.cycles

    def test_sweet_spot_detection(self):
        assert xmath.is_square_sweet_spot(512, 512, 512)
        assert xmath.is_square_sweet_spot(1024, 512, 512)
        assert not xmath.is_square_sweet_spot(4096, 512, 512)  # ratio 8
        assert not xmath.is_square_sweet_spot(500, 500, 500)  # unaligned

    def test_sweet_spot_beats_generic_blocking(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((512, 512)).astype(np.float32)
        b = rng.standard_normal((512, 512)).astype(np.float32)
        sweet = xmath.xmath_gemm(a, b, sanitize=SANITIZE)
        # a skinny aligned shape outside the niche, same flops
        a2 = rng.standard_normal((128, 2048)).astype(np.float32)
        b2 = rng.standard_normal((2048, 512)).astype(np.float32)
        generic = xmath.xmath_gemm(a2, b2, sanitize=SANITIZE)
        assert sweet.report.cycles < generic.report.cycles

    def test_operand_validation(self):
        with pytest.raises(WorkloadError):
            xmath.xmath_gemm(
                np.zeros((4, 4)), np.zeros((5, 4)), sanitize=SANITIZE
            )


class TestSwdnn:
    def _params(self, **kw):
        d = dict(batch=32, ni=64, no=64, ri=16, ci=16, kr=3, kc=3, pad=1)
        d.update(kw)
        return ConvParams(**d)

    def test_supported_gate(self):
        assert swdnn.supported(self._params())
        assert not swdnn.supported(self._params(batch=1))
        assert not swdnn.supported(self._params(batch=8))
        assert not swdnn.supported(self._params(ni=4))
        assert not swdnn.supported(self._params(stride=2))

    def test_fixed_strategy_builds(self):
        s = swdnn.fixed_strategy(self._params())
        assert s.tile("Kr") == 1
        assert s["vec_dim"] == "M"
        assert s["layout:input"] == (1, 2, 3, 0)

    def test_unsupported_raises(self):
        with pytest.raises(WorkloadError):
            swdnn.fixed_strategy(self._params(batch=4))

    def test_check_support_bypass_for_shards(self):
        s = swdnn.fixed_strategy(self._params(batch=8), check_support=False)
        assert s.tile("B") == 8

    def test_menu_fallback_fits_spm(self):
        """Large layers fall down the kernel menu instead of failing."""
        p = self._params(ni=512, no=512, ri=28, ci=28)
        s = swdnn.fixed_strategy(p)
        assert s.tile("Ro") <= 16
        # the chosen configuration actually lowers
        from repro.ops.conv_implicit import make_compute
        from repro.scheduler.lower import lower_strategy

        lower_strategy(make_compute(p), s)

    def test_strategy_is_deterministic(self):
        p = self._params()
        assert swdnn.fixed_strategy(p).decisions == swdnn.fixed_strategy(p).decisions

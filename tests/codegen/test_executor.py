"""Tests for the simulation executor: functional exactness and timing
semantics (overlap, phases, costs)."""

import numpy as np
import pytest

from repro.codegen import compile_candidate
from repro.codegen.executor import CompiledKernel
from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.errors import CodegenError
from repro.scheduler import Candidate, LoweringOptions, lower_strategy

from ..scheduler.test_lower import conv_cd, gemm_cd

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def gemm_candidate(M=128, N=96, K=80, tm=64, tn=48, tk=32, **overrides):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm]); sp.split("N", [tn]); sp.split("K", [tk])
    sp.vectorize(); sp.spm_layout("a"); sp.spm_layout("b")
    strat = sp.strategy(**overrides)
    return Candidate(strat, lower_strategy(cd, strat), cd)


def run_gemm(cand, M, N, K, seed=0):
    ck = compile_candidate(cand, sanitize=SANITIZE)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((M, K)).astype(np.float32)
    b = rng.standard_normal((K, N)).astype(np.float32)
    res = ck.run({"A": a, "B": b})
    return res, a, b


class TestFunctional:
    @pytest.mark.parametrize("vec", ["M", "N"])
    def test_gemm_exact(self, vec):
        cand = gemm_candidate(vec_dim=vec)
        res, a, b = run_gemm(cand, 128, 96, 80)
        np.testing.assert_allclose(
            res.outputs["C"], a @ b, rtol=1e-4, atol=1e-3
        )

    def test_ragged_gemm_exact(self):
        """Boundary switching + lightweight padding keep results exact."""
        cand = gemm_candidate(M=67, N=50, K=33, tm=64, tn=48, tk=32)
        res, a, b = run_gemm(cand, 67, 50, 33)
        np.testing.assert_allclose(
            res.outputs["C"], a @ b, rtol=1e-4, atol=1e-3
        )

    def test_conv_matches_direct_reference(self):
        cd = conv_cd()
        sp = ScheduleSpace(cd)
        for ax, f in [("B", 2), ("No", 16), ("Ro", 4), ("Co", 8), ("Ni", 8)]:
            sp.split(ax, [f])
        sp.split("Kr", [1]); sp.split("Kc", [1])
        cand = Candidate(sp.strategy(), lower_strategy(cd, sp.strategy()), cd)
        ck = compile_candidate(cand, sanitize=SANITIZE)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 10, 10)).astype(np.float32)
        w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        out = ck.run({"input": x, "weight": w}).outputs["out"]
        ref = np.zeros((2, 16, 8, 8), dtype=np.float32)
        for kr in range(3):
            for kc in range(3):
                patch = x[:, :, kr:kr + 8, kc:kc + 8]
                ref += np.einsum("bihw,oi->bohw", patch, w[:, :, kr, kc])
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-3)

    def test_layout_permutation_roundtrip(self):
        """Kernel-chosen tensor layouts are invisible to the caller."""
        cd = gemm_cd(64, 64, 64)
        sp = ScheduleSpace(cd)
        sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
        sp.layout("A", [(1, 0)])  # store A transposed
        strat = sp.strategy()
        cand = Candidate(strat, lower_strategy(cd, strat), cd)
        res, a, b = run_gemm(cand, 64, 64, 64)
        np.testing.assert_allclose(res.outputs["C"], a @ b, rtol=1e-4, atol=1e-3)

    def test_missing_feed_rejected(self):
        cand = gemm_candidate()
        ck = compile_candidate(cand, sanitize=SANITIZE)
        with pytest.raises(CodegenError):
            ck.run({"A": np.zeros((128, 80), np.float32)})

    def test_wrong_shape_rejected(self):
        cand = gemm_candidate()
        ck = compile_candidate(cand, sanitize=SANITIZE)
        with pytest.raises(CodegenError):
            ck.run({
                "A": np.zeros((128, 81), np.float32),
                "B": np.zeros((80, 96), np.float32),
            })

    def test_uninferred_kernel_rejected(self):
        cand = gemm_candidate()
        with pytest.raises(CodegenError):
            # raw IR, no geometry
            CompiledKernel(cand.kernel, cand.compute, sanitize=SANITIZE)


class TestTiming:
    def test_report_fields_populated(self):
        cand = gemm_candidate()
        res, _, _ = run_gemm(cand, 128, 96, 80)
        r = res.report
        assert r.cycles > 0
        assert r.dma_cycles > 0
        assert r.compute_cycles > 0
        assert r.bytes_moved > 0
        assert r.flops >= 2 * 128 * 96 * 80

    def test_prefetch_overlaps_dma(self):
        """The same schedule with and without double buffering: the
        pipelined version is faster and reports overlap (Fig. 10)."""
        cd = gemm_cd(512, 512, 512)
        sp = ScheduleSpace(cd)
        sp.split("M", [128]); sp.split("N", [128]); sp.split("K", [64])
        strat = sp.strategy()

        base_kernel = lower_strategy(
            cd, strat, options=LoweringOptions(double_buffer=False)
        )
        base = compile_candidate(
            Candidate(strat, base_kernel, cd), prefetch=False,
            sanitize=SANITIZE,
        )
        fast_kernel = lower_strategy(cd, strat)
        fast = compile_candidate(
            Candidate(strat, fast_kernel, cd), sanitize=SANITIZE
        )

        rng = np.random.default_rng(0)
        feeds = {
            "A": rng.standard_normal((512, 512)).astype(np.float32),
            "B": rng.standard_normal((512, 512)).astype(np.float32),
        }
        r_base = base.run(feeds).report
        r_fast = fast.run(feeds).report
        assert r_fast.cycles < r_base.cycles
        assert r_fast.overlap_fraction > 0.1
        assert r_base.overlap_fraction == 0.0
        # functional results identical
        np.testing.assert_allclose(
            base.run(feeds).outputs["C"], fast.run(feeds).outputs["C"],
            rtol=1e-5,
        )

    def test_dma_cost_sensitive_to_layout(self):
        """Transposed A storage changes DMA traffic shape and cost."""
        cd = gemm_cd(256, 64, 256)
        def build(perm):
            sp = ScheduleSpace(cd)
            sp.split("M", [128]); sp.split("N", [64]); sp.split("K", [32])
            sp.layout("A", [perm])
            strat = sp.strategy()
            return compile_candidate(
                Candidate(strat, lower_strategy(cd, strat), cd),
                sanitize=SANITIZE,
            )
        rng = np.random.default_rng(0)
        feeds = {
            "A": rng.standard_normal((256, 256)).astype(np.float32),
            "B": rng.standard_normal((256, 64)).astype(np.float32),
        }
        r_mk = build((0, 1)).run(feeds)
        r_km = build((1, 0)).run(feeds)
        np.testing.assert_allclose(
            r_mk.outputs["C"], r_km.outputs["C"], rtol=1e-4, atol=1e-3
        )
        assert r_mk.report.dma_cycles != r_km.report.dma_cycles

    def test_waste_bytes_on_misaligned_tiles(self):
        """Tiles not aligned to 128 B rows pay transaction waste."""
        cand = gemm_candidate(M=128, N=96, K=80, tm=64, tn=48, tk=40)
        res, _, _ = run_gemm(cand, 128, 96, 80)
        assert res.report.waste_bytes > 0

    def test_deterministic(self):
        cand = gemm_candidate()
        r1, _, _ = run_gemm(cand, 128, 96, 80)
        r2, _, _ = run_gemm(cand, 128, 96, 80)
        assert r1.report.cycles == r2.report.cycles

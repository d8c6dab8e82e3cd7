"""Tests for the C source emitter."""

import pytest

from repro.codegen import compile_candidate, emit_c
from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.errors import CodegenError
from repro.scheduler import Candidate, lower_strategy

from ..scheduler.test_lower import gemm_cd

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def build(M=128, N=96, K=80, tm=64, tn=48, tk=32):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm]); sp.split("N", [tn]); sp.split("K", [tk])
    strat = sp.strategy()
    cand = Candidate(strat, lower_strategy(cd, strat), cd)
    ck = compile_candidate(cand, sanitize=SANITIZE)
    return ck.kernel, emit_c(ck.kernel)


class TestEmission:
    def test_compiles_structurally(self):
        _, src = build()
        assert src.count("{") == src.count("}")
        assert "#include <slave.h>" in src
        assert "void gemm__" in src

    def test_coalesced_spm_region(self):
        _, src = build()
        assert "spm_pool" in src
        assert "#define SPM_A(phase)" in src
        assert "double buffered" in src

    def test_gemm_variant_call(self):
        _, src = build()
        assert "spm_gemm_" in src
        assert "SW_VEC_M" in src or "SW_VEC_N" in src

    def test_dma_primitives_used(self):
        _, src = build()
        assert "swDMA(" in src
        assert "swDMAWait(" in src
        assert "cpe_tile_offset(rid, cid" in src  # per-CPE derivation

    def test_pipelined_loop_emits_double_buffer_dance(self):
        _, src = build()
        assert "software prefetching" in src
        assert "phase ^= 1" in src
        assert "infer next iteration index" in src

    def test_loop_structure(self):
        _, src = build(tm=64)
        assert "for (int cM = 0; cM < 2; ++cM)" in src

    def test_raw_kernel_rejected(self):
        cd = gemm_cd()
        sp = ScheduleSpace(cd)
        sp.split("M", [64]); sp.split("N", [64]); sp.split("K", [64])
        raw = lower_strategy(cd, sp.strategy())
        with pytest.raises(CodegenError):
            emit_c(raw)

    def test_deterministic(self):
        _, a = build()
        _, b = build()
        assert a == b

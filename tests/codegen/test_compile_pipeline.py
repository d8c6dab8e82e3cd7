"""Tests for the compile pipeline wrapper and its failure modes."""

import numpy as np
import pytest

from repro.codegen import compile_candidate
from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.errors import IrError
from repro.ir import ForNode, walk
from repro.optimizer.prefetch import pipelined_loops
from repro.scheduler import Candidate, LoweringOptions, lower_strategy

from ..scheduler.test_lower import gemm_cd

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def candidate(double_buffer=True, M=128, N=128, K=128):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [64]); sp.split("N", [64]); sp.split("K", [32])
    strat = sp.strategy()
    kernel = lower_strategy(
        cd, strat, options=LoweringOptions(double_buffer=double_buffer)
    )
    return Candidate(strat, kernel, cd)


class TestCompilePipeline:
    def test_default_pipeline_prefetches(self):
        ck = compile_candidate(candidate(), sanitize=SANITIZE)
        assert pipelined_loops(ck.kernel)

    def test_prefetch_disabled(self):
        ck = compile_candidate(
            candidate(double_buffer=False), prefetch=False, sanitize=SANITIZE
        )
        assert not pipelined_loops(ck.kernel)
        # still runs correctly
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 128)).astype(np.float32)
        b = rng.standard_normal((128, 128)).astype(np.float32)
        res = ck.run({"A": a, "B": b})
        np.testing.assert_allclose(res.outputs["C"], a @ b, rtol=1e-4, atol=1e-3)

    def test_prefetch_without_reservation_rejected(self):
        """Asking for prefetch on a single-buffered lowering must fail
        loudly, not silently under-reserve the scratch pad."""
        with pytest.raises(IrError):
            compile_candidate(
                candidate(double_buffer=False), prefetch=True,
                sanitize=SANITIZE,
            )

    def test_compiled_kernel_exposes_plan(self):
        ck = compile_candidate(candidate(), sanitize=SANITIZE)
        assert ck.spm_plan.total_bytes > 0
        assert set(ck.storage_shapes) == {"A", "B", "C"}

    def test_original_candidate_untouched(self):
        cand = candidate()
        before = sum(1 for n in walk(cand.kernel)
                     if isinstance(n, ForNode) and n.pipelined)
        compile_candidate(cand, sanitize=SANITIZE)
        after = sum(1 for n in walk(cand.kernel)
                    if isinstance(n, ForNode) and n.pipelined)
        assert before == after == 0  # passes rebuild, never mutate

"""Tests for trace export (Chrome JSON + text timeline)."""

import json

import numpy as np

from repro.engine import RunConfig
from repro.machine.trace import Trace
from repro.machine.trace_export import render_timeline, to_chrome_trace

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def sample_trace():
    tr = Trace()
    tr.add("dma", 0, 100, detail="A->spm_a", bytes_moved=1024, waste_bytes=16)
    tr.add("gemm", 100, 300, detail="ac_bc_vecm", flops=4096)
    tr.add("dma", 150, 250, detail="B->spm_b", bytes_moved=2048)
    return tr


class TestChromeTrace:
    def test_valid_json_with_events(self):
        payload = json.loads(to_chrome_trace(sample_trace()))
        events = payload["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        assert all(e["dur"] > 0 for e in xs)

    def test_lanes_and_metadata(self):
        payload = json.loads(to_chrome_trace(sample_trace()))
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "DMA engine" for e in meta)
        gemm = next(e for e in events if e.get("cat") == "gemm")
        assert gemm["args"]["flops"] == 4096
        dma = next(e for e in events if e.get("cat") == "dma")
        assert dma["tid"] != gemm["tid"]

    def test_timestamps_in_microseconds(self):
        payload = json.loads(to_chrome_trace(sample_trace()))
        gemm = next(
            e for e in payload["traceEvents"] if e.get("cat") == "gemm"
        )
        # 200 cycles at 1.5 GHz = 0.1333 us
        assert abs(gemm["dur"] - 200 / 1.5e9 * 1e6) < 1e-6


class TestTimeline:
    def test_lanes_rendered(self):
        text = render_timeline(sample_trace(), width=40)
        lines = text.splitlines()
        assert lines[1].startswith("DMA")
        assert lines[2].startswith("compute")
        assert "#" in lines[1]
        assert "=" in lines[2]

    def test_overlap_visible(self):
        """The second DMA overlaps the gemm: both lanes are busy in the
        same column range."""
        text = render_timeline(sample_trace(), width=60)
        dma_line = text.splitlines()[1]
        comp_line = text.splitlines()[2]
        both = [
            i
            for i, (d, c) in enumerate(zip(dma_line, comp_line))
            if d == "#" and c == "="
        ]
        assert both

    def test_empty_trace(self):
        assert "empty" in render_timeline(Trace())

    def test_real_kernel_trace_exports(self):
        """End-to-end: a compiled kernel's trace exports cleanly."""
        from repro.codegen import compile_candidate
        from repro.codegen.executor import _ExecState
        from repro.dsl import ScheduleSpace
        from repro.ops.gemm import make_compute
        from repro.scheduler import Candidate, lower_strategy

        compute = make_compute(128, 128, 128)
        sp = ScheduleSpace(compute)
        sp.split("M", [64]); sp.split("N", [64]); sp.split("K", [32])
        strat = sp.strategy()
        ck = compile_candidate(
            Candidate(strat, lower_strategy(compute, strat), compute),
            sanitize=SANITIZE,
        )
        rng = np.random.default_rng(0)
        state = _ExecState(
            ck,
            {
                "A": rng.standard_normal((128, 128)).astype(np.float32),
                "B": rng.standard_normal((128, 128)).astype(np.float32),
            },
        )
        state.execute(ck.kernel.body, {})
        payload = json.loads(to_chrome_trace(state.trace))
        assert len(payload["traceEvents"]) > 10
        text = render_timeline(state.trace)
        assert "#" in text and "=" in text

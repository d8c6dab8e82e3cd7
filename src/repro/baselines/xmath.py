"""The xMath GEMM baseline (Jiang et al., ICPP'17).

xMath is the platform's hand-optimised linear-algebra library.  Its
reproduction here captures the behaviours the paper's comparison hinges
on:

* **one expert blocking, tuned for large square matrices**: fixed
  128x128x256 tiles, column-major SPM layouts, vec-M -- excellent in
  its design regime, indifferent elsewhere;
* **a customised special-case kernel** for its sweet spot (square,
  block-aligned shapes): a fused assembly path with lower call/switch
  overhead than the generic template, registered as a *manual-only*
  primitive that swATOP's scheduler cannot use (Sec. 5.1.2: "these
  cases ... just perfectly match the customized optimizations of
  manual version");
* **traditional zero-padding** for unaligned shapes: operands are
  padded to whole blocks in main memory (a full copy through the DMA
  engine) before the aligned kernel runs (the Fig. 11 baseline
  behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..codegen import compile_candidate
from ..dsl.schedule import ScheduleStrategy
from ..errors import WorkloadError
from ..machine.config import MachineConfig, default_config
from ..machine.trace import SimReport
from ..ops.gemm import make_compute
from ..optimizer.boundary import (
    pad_tensor,
    pad_up,
    traditional_pad_cost,
    unpad_tensor,
)
from ..primitives.microkernel import COL_MAJOR
from ..scheduler.enumerate import Candidate
from ..scheduler.lower import lower_strategy

#: xMath's fixed blocking (its DGEMM paper tunes for large square
#: matrices on one CG).
BLOCK_M = 128
BLOCK_N = 128
BLOCK_K = 256

#: cycle advantage of the hand-fused square kernel inside its niche.
SQUARE_KERNEL_SCALE = 0.93


@dataclass
class XmathResult:
    output: np.ndarray
    report: SimReport
    padded: bool


def is_square_sweet_spot(m: int, n: int, k: int) -> bool:
    """Shapes the customised kernel covers: square-ish and whole-block."""
    if m % BLOCK_M or n % BLOCK_N or k % BLOCK_K:
        return False
    ratio = max(m, n, k) / min(m, n, k)
    return ratio <= 2.0


def is_aligned(m: int, n: int, k: int) -> bool:
    return m % BLOCK_M == 0 and n % BLOCK_N == 0 and k % BLOCK_K == 0


#: the customised square kernel uses a larger blocking, hand-scheduled
#: for its exact geometry.
SQUARE_BLOCK = 256


def _fixed_strategy(m: int, n: int, k: int) -> Dict[str, object]:
    if is_square_sweet_spot(m, n, k):
        return {
            "tile:M": min(SQUARE_BLOCK, m),
            "tile:N": min(SQUARE_BLOCK, n),
            "tile:K": min(SQUARE_BLOCK, k),
            "order": ("M", "N", "K"),
            "vec_dim": "M",
            "spm_layout:a": COL_MAJOR,
            "spm_layout:b": COL_MAJOR,
        }
    return {
        "tile:M": min(BLOCK_M, m),
        "tile:N": min(BLOCK_N, n),
        "tile:K": min(BLOCK_K, k),
        "order": ("M", "N", "K"),
        "vec_dim": "M",
        "spm_layout:a": COL_MAJOR,
        "spm_layout:b": COL_MAJOR,
    }


def xmath_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    config: Optional[MachineConfig] = None,
    sanitize: bool = False,
) -> XmathResult:
    """``C = A @ B`` the way the manual library does it on one CG
    (``sanitize`` as on :class:`~repro.codegen.executor.CompiledKernel`)."""
    cfg = config or default_config()
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise WorkloadError(f"bad GEMM operands {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]

    if is_aligned(m, n, k):
        return XmathResult(*_run_aligned(a, b, cfg, sanitize), padded=False)

    # traditional padding path: pad all three dims to whole blocks
    mp, np_, kp = pad_up(m, BLOCK_M), pad_up(n, BLOCK_N), pad_up(k, BLOCK_K)
    ap = pad_tensor(np.asarray(a, np.float32), (mp, kp))
    bp = pad_tensor(np.asarray(b, np.float32), (kp, np_))
    out_p, rep = _run_aligned(ap, bp, cfg, sanitize)
    pad_cycles = (
        traditional_pad_cost((m, k), (mp, kp), cfg).cycles
        + traditional_pad_cost((k, n), (kp, np_), cfg).cycles
        + traditional_pad_cost((m, n), (mp, np_), cfg, round_trip=False).cycles
    )
    rep = SimReport(
        cycles=rep.cycles + pad_cycles,
        dma_cycles=rep.dma_cycles + pad_cycles,
        compute_cycles=rep.compute_cycles,
        bytes_moved=rep.bytes_moved,
        waste_bytes=rep.waste_bytes,
        flops=rep.flops,
        num_cgs_used=rep.num_cgs_used,
        config=cfg,
        detail="xmath_gemm(padded)",
    )
    return XmathResult(unpad_tensor(out_p, (m, n)), rep, padded=True)


def _run_aligned(
    a: np.ndarray, b: np.ndarray, cfg: MachineConfig, sanitize: bool
) -> Tuple[np.ndarray, SimReport]:
    m, k = a.shape
    n = b.shape[1]
    compute = make_compute(m, n, k)
    strategy = ScheduleStrategy(_fixed_strategy(m, n, k))
    kernel = lower_strategy(compute, strategy, config=cfg)
    ck = compile_candidate(
        Candidate(strategy, kernel, compute), config=cfg, sanitize=sanitize
    )
    res = ck.run({"A": np.asarray(a, np.float32), "B": np.asarray(b, np.float32)})
    report = res.report
    if is_square_sweet_spot(m, n, k):
        # the fused hand-written kernel replaces the generic template's
        # GEMM time inside the niche
        saved = report.compute_cycles * (1.0 - SQUARE_KERNEL_SCALE)
        total = max(report.cycles - saved, report.dma_cycles * 0.5)
        report = SimReport(
            cycles=total,
            dma_cycles=report.dma_cycles,
            compute_cycles=report.compute_cycles * SQUARE_KERNEL_SCALE,
            bytes_moved=report.bytes_moved,
            waste_bytes=report.waste_bytes,
            flops=report.flops,
            num_cgs_used=report.num_cgs_used,
            config=cfg,
            detail="xmath_gemm(square-fused)",
        )
    return res.outputs["C"], report

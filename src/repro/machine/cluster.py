"""The 8x8 CPE cluster of one core group.

Bundles the 64 :class:`~.cpe.Cpe` cores, the register-communication
mesh, and the DMA engine into one object.  Two execution styles use it:

* the **faithful** per-CPE mode (tests): data is genuinely distributed
  over the 64 scratch pads via per-CPE DMA descriptors, GEMM operands
  are exchanged through the register mesh, and results are asserted
  against NumPy -- validating the distribution/offset arithmetic of the
  DMA-inference pass end to end;
* the **fast** CG-level mode (executor, benchmarks): tiles are stored
  as whole arrays, while timing still uses the per-CPE descriptor
  geometry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import DmaError
from .config import MachineConfig, default_config
from .cpe import Cpe
from .dma import MEM_TO_SPM, SPM_TO_MEM, DmaDescriptor, DmaEngine
from .memory import MainMemory
from .regcomm import RegCommMesh
from .sanitizer import RegCommChecker
from .spm import partition_extent
from .trace import Trace


class CpeCluster:
    """8x8 CPEs + register mesh + DMA engine of one core group
    (``sanitize`` attaches the register-communication checker)."""

    def __init__(
        self,
        memory: Optional[MainMemory] = None,
        config: Optional[MachineConfig] = None,
        *,
        sanitize: bool = False,
    ) -> None:
        self.config = config or default_config()
        self.memory = memory or MainMemory(config=self.config)
        self.dma = DmaEngine(self.memory, self.config)
        self.mesh = RegCommMesh(self.config)
        if sanitize:
            self.mesh.attach_checker(RegCommChecker())
        self.cpes: List[Cpe] = [
            Cpe(r, c, self.config)
            for r in range(self.config.cluster_rows)
            for c in range(self.config.cluster_cols)
        ]
        self.trace = Trace()

    def cpe(self, rid: int, cid: int) -> Cpe:
        return self.cpes[rid * self.config.cluster_cols + cid]

    # --- faithful per-CPE DMA execution ------------------------------------
    def dma_in(self, descriptors: Sequence[DmaDescriptor], spm_offset: int) -> None:
        """Execute mem->SPM descriptors, landing each CPE's payload at
        ``spm_offset`` (in elements) in that CPE's scratch pad."""
        eb = self.config.dtype_bytes
        for desc in descriptors:
            if desc.direction != MEM_TO_SPM:
                raise DmaError("dma_in needs mem_to_spm descriptors")
            payload = self.dma.gather(desc)
            if payload.nbytes % eb:
                raise DmaError("payload not element aligned")
            self.cpes[desc.cpe_id].spm_write(
                spm_offset, payload.view(np.float32)
            )

    def dma_out(self, descriptors: Sequence[DmaDescriptor], spm_offset: int) -> None:
        """Execute SPM->mem descriptors from each CPE's scratch pad."""
        eb = self.config.dtype_bytes
        for desc in descriptors:
            if desc.direction != SPM_TO_MEM:
                raise DmaError("dma_out needs spm_to_mem descriptors")
            count = desc.size // eb
            data = self.cpes[desc.cpe_id].spm_read(spm_offset, count)
            self.dma.scatter(desc, data.view(np.uint8))

    # --- faithful distributed GEMM reference --------------------------------
    def distributed_gemm(
        self,
        a_tiles: Dict[int, np.ndarray],
        b_tiles: Dict[int, np.ndarray],
        m: int,
        n: int,
        k: int,
    ) -> np.ndarray:
        """Reference cluster GEMM over register communication.

        ``a_tiles[cpe_id]`` holds CPE (rid, cid)'s block of A
        (rows ``rid``-partition of M x cols ``cid``-partition of K);
        ``b_tiles`` likewise blocks of B over (K by rid, N by cid).
        Each k-panel is broadcast: A blocks along rows (producer column
        advances round-robin) and B blocks along columns, after which
        every CPE accumulates its (rid, cid) block of C -- the Fig. 12
        scheme.  Returns the assembled M x N product for comparison
        against ``a @ b``.
        """
        cfg = self.config
        rows, cols = cfg.cluster_rows, cfg.cluster_cols
        m_parts = partition_extent(m, rows)
        n_parts = partition_extent(n, cols)
        k_parts_a = partition_extent(k, cols)  # A's K split over columns
        k_parts_b = partition_extent(k, rows)  # B's K split over rows
        c_blocks = [
            [np.zeros((m_parts[r][1], n_parts[c][1]), dtype=np.float32)
             for c in range(cols)]
            for r in range(rows)
        ]
        # One broadcast round per producer lane: column `p` broadcasts its
        # A panel on the row buses while row `p` broadcasts its B panel on
        # the column buses; the shared K range is their intersection-free
        # pairing because both partitions enumerate K in lane order.
        if rows != cols:
            raise DmaError("distributed_gemm assumes a square mesh")
        for p in range(cols):
            a_grid = [
                [a_tiles[r * cols + c] if c == p else None for c in range(cols)]
                for r in range(rows)
            ]
            a_recv = self.mesh.broadcast(a_grid, pattern=_row_pattern(p))
            b_grid = [
                [b_tiles[r * cols + c] if r == p else None for c in range(cols)]
                for r in range(rows)
            ]
            b_recv = self.mesh.broadcast(b_grid, pattern=_col_pattern(p))
            for r in range(rows):
                for c in range(cols):
                    a_blk = a_recv[r][c]  # (m_r, k_p) slice
                    b_blk = b_recv[r][c]  # (k_p, n_c) slice
                    if a_blk.size and b_blk.size:
                        c_blocks[r][c] += a_blk.astype(np.float32) @ b_blk.astype(
                            np.float32
                        )
        return np.block(c_blocks) if m and n else np.zeros((m, n), np.float32)


def _row_pattern(producer: int):
    from .regcomm import CommPattern

    return CommPattern("row", producer)


def _col_pattern(producer: int):
    from .regcomm import CommPattern

    return CommPattern("col", producer)


def split_tiles(
    mat: np.ndarray,
    grid_rows: int,
    grid_cols: int,
) -> Dict[int, np.ndarray]:
    """Partition a 2-D array into the cluster's (rid, cid) blocks,
    keyed by ``cpe_id`` -- the functional counterpart of
    :func:`~.dma.cg_tile_descriptors`."""
    r_parts = partition_extent(mat.shape[0], grid_rows)
    c_parts = partition_extent(mat.shape[1], grid_cols)
    tiles: Dict[int, np.ndarray] = {}
    for rid, (r0, rl) in enumerate(r_parts):
        for cid, (c0, cl) in enumerate(c_parts):
            tiles[rid * grid_cols + cid] = mat[r0 : r0 + rl, c0 : c0 + cl].copy()
    return tiles

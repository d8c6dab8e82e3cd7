"""Cross-check the executor's CG-level data movement against the
faithful per-CPE path: expanding an inferred DMA node into 64 per-CPE
descriptors and executing them on the cluster must land exactly the
data the executor's tile slicing produces."""

import numpy as np
import pytest

from repro.dsl import ScheduleSpace
from repro.engine import RunConfig
from repro.ir import DmaCgNode, find_all
from repro.machine.cluster import CpeCluster, split_tiles
from repro.machine.dma import MEM_TO_SPM, cg_tile_descriptors
from repro.machine.memory import MainMemory
from repro.optimizer.dma_inference import flatten_access, infer_dma, storage_shapes
from repro.scheduler.lower import lower_strategy

from ..scheduler.test_lower import gemm_cd

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


def build_kernel(M=64, N=48, K=32, tm=32, tn=24, tk=16):
    cd = gemm_cd(M, N, K)
    sp = ScheduleSpace(cd)
    sp.split("M", [tm])
    sp.split("N", [tn])
    sp.split("K", [tk])
    kernel = infer_dma(lower_strategy(cd, sp.strategy()), cd)
    return cd, kernel


class TestFaithfulDma:
    def test_per_cpe_descriptors_reassemble_executor_tile(self):
        """For each 2-D-flattenable DMA access in a real kernel: gather
        through 64 per-CPE descriptors on the cluster, reassemble, and
        compare against direct NumPy slicing of the tensor."""
        cd, kernel = build_kernel()
        shapes = storage_shapes(kernel, cd)
        rng = np.random.default_rng(0)
        mem = MainMemory(1 << 22)
        cluster = CpeCluster(mem, sanitize=SANITIZE)
        data = {}
        for name, shape in shapes.items():
            buf = mem.alloc(name, shape)
            arr = rng.standard_normal(shape).astype(np.float32)
            mem.write(buf, arr)
            data[name] = (buf, arr)

        env = {"cM": 1, "cN": 0, "cK": 1}
        checked = 0
        for dma in find_all(kernel, DmaCgNode):
            if dma.direction != MEM_TO_SPM:
                continue
            buf, arr = data[dma.access.buffer]
            offs = [off.evaluate(env) for off, _ in dma.access.dims]
            lens = list(dma.access.lengths)
            flat = flatten_access(tuple(lens), arr.shape)
            if flat.outer_lengths and len(flat.outer_lengths) > 1:
                continue  # multi-level strides are issued as N descriptors
            rows = flat.outer_lengths[0] if flat.outer_lengths else 1
            cols = flat.chunk_elems
            row_stride = flat.outer_strides[0] if flat.outer_strides else cols
            base = buf.elem_addr(tuple(offs))
            descs = cg_tile_descriptors(
                base, rows, cols, row_stride * 4, 4, MEM_TO_SPM,
                grid_rows=8, grid_cols=8,
            )
            cluster.dma_in(descs, spm_offset=0)
            # reassemble the 8x8 distributed tile from the scratch pads
            expect2d = arr[
                tuple(slice(o, o + l) for o, l in zip(offs, lens))
            ].reshape(rows, cols)
            tiles = {}
            from repro.machine.spm import partition_extent

            rparts = partition_extent(rows, 8)
            cparts = partition_extent(cols, 8)
            for rid, (r0, rl) in enumerate(rparts):
                for cid, (c0, cl) in enumerate(cparts):
                    if rl == 0 or cl == 0:
                        continue
                    got = cluster.cpe(rid, cid).spm_read(0, rl * cl)
                    np.testing.assert_array_equal(
                        got.reshape(rl, cl),
                        expect2d[r0 : r0 + rl, c0 : c0 + cl],
                        err_msg=f"{dma.access.buffer} CPE ({rid},{cid})",
                    )
            checked += 1
        assert checked >= 2  # at least A and B were cross-checked

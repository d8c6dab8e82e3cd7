"""Tests for the CPE, the cluster, and the faithful distributed GEMM."""

import numpy as np
import pytest

from repro.engine import RunConfig
from repro.errors import SpmCapacityError
from repro.machine.cluster import CpeCluster, split_tiles
from repro.machine.config import default_config
from repro.machine.cpe import Cpe
from repro.machine.dma import MEM_TO_SPM, SPM_TO_MEM, cg_tile_descriptors
from repro.machine.memory import MainMemory

# the sanitize CI job (REPRO_SANITIZE=1) runs these under the checker
SANITIZE = RunConfig.from_env().sanitize


class TestCpe:
    def test_spm_roundtrip(self):
        cpe = Cpe(2, 3)
        cpe.spm_write(100, np.arange(8, dtype=np.float32))
        np.testing.assert_array_equal(
            cpe.spm_read(100, 8), np.arange(8, dtype=np.float32)
        )

    def test_spm_capacity_is_64kb(self):
        cpe = Cpe(0, 0)
        assert cpe.spm_elems == 64 * 1024 // 4

    def test_out_of_spm_rejected(self):
        cpe = Cpe(0, 0)
        with pytest.raises(SpmCapacityError):
            cpe.spm_write(cpe.spm_elems - 2, np.zeros(4, np.float32))
        with pytest.raises(SpmCapacityError):
            cpe.spm_read(-1, 2)

    def test_cpe_id(self):
        assert Cpe(0, 0).cpe_id == 0
        assert Cpe(1, 0).cpe_id == 8
        assert Cpe(7, 7).cpe_id == 63

    def test_position_validated(self):
        with pytest.raises(ValueError):
            Cpe(8, 0)
        with pytest.raises(ValueError):
            Cpe(0, -1)

    def test_spm_view_aliases(self):
        cpe = Cpe(0, 0)
        view = cpe.spm_view(0, 4)
        view[0] = 7.0
        assert cpe.spm_read(0, 1)[0] == 7.0

    def test_spm_clear(self):
        cpe = Cpe(0, 0)
        cpe.spm_write(0, np.ones(4, np.float32))
        cpe.spm_clear()
        assert (cpe.spm_read(0, 4) == 0).all()


class TestClusterDma:
    def test_dma_in_distributes_tiles(self):
        """A 16x16 matrix DMA'd 8x8: CPE (r,c) receives its 2x2 block."""
        mem = MainMemory(1 << 20)
        cluster = CpeCluster(mem, sanitize=SANITIZE)
        buf = mem.alloc("a", (16, 16))
        data = np.arange(256, dtype=np.float32).reshape(16, 16)
        mem.write(buf, data)
        descs = cg_tile_descriptors(
            buf.addr, 16, 16, 16 * 4, 4, MEM_TO_SPM, grid_rows=8, grid_cols=8
        )
        cluster.dma_in(descs, spm_offset=0)
        for rid in range(8):
            for cid in range(8):
                got = cluster.cpe(rid, cid).spm_read(0, 4).reshape(2, 2)
                np.testing.assert_array_equal(
                    got, data[2 * rid : 2 * rid + 2, 2 * cid : 2 * cid + 2]
                )

    def test_dma_roundtrip_through_spm(self):
        mem = MainMemory(1 << 20)
        cluster = CpeCluster(mem, sanitize=SANITIZE)
        src = mem.alloc("src", (16, 16))
        dst = mem.alloc("dst", (16, 16))
        data = np.random.default_rng(0).random((16, 16)).astype(np.float32)
        mem.write(src, data)
        in_descs = cg_tile_descriptors(
            src.addr, 16, 16, 64, 4, MEM_TO_SPM, grid_rows=8, grid_cols=8
        )
        out_descs = cg_tile_descriptors(
            dst.addr, 16, 16, 64, 4, SPM_TO_MEM, grid_rows=8, grid_cols=8
        )
        cluster.dma_in(in_descs, spm_offset=0)
        cluster.dma_out(out_descs, spm_offset=0)
        np.testing.assert_array_equal(mem.read(dst), data)


class TestSplitTiles:
    def test_split_matches_partition(self):
        mat = np.arange(64 * 32, dtype=np.float32).reshape(64, 32)
        tiles = split_tiles(mat, 8, 8)
        assert len(tiles) == 64
        np.testing.assert_array_equal(tiles[0], mat[:8, :4])
        np.testing.assert_array_equal(tiles[63], mat[56:, 28:])

    def test_reassembly(self):
        mat = np.random.default_rng(1).random((20, 12)).astype(np.float32)
        tiles = split_tiles(mat, 8, 8)
        rows = []
        for r in range(8):
            row = [tiles[r * 8 + c] for c in range(8) if tiles[r * 8 + c].size]
            if row and row[0].shape[0]:
                rows.append(np.concatenate(row, axis=1))
        np.testing.assert_array_equal(np.concatenate(rows, axis=0), mat)


class TestDistributedGemm:
    @pytest.mark.parametrize("m,n,k", [(16, 16, 16), (8, 24, 32), (64, 64, 64)])
    def test_matches_numpy(self, m, n, k):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        cluster = CpeCluster(sanitize=SANITIZE)
        c = cluster.distributed_gemm(
            split_tiles(a, 8, 8), split_tiles(b, 8, 8), m, n, k
        )
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-4)

    def test_ragged_shapes(self):
        """Extents not divisible by 8 still assemble correctly."""
        rng = np.random.default_rng(7)
        m, n, k = 13, 21, 17
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        cluster = CpeCluster(sanitize=SANITIZE)
        c = cluster.distributed_gemm(
            split_tiles(a, 8, 8), split_tiles(b, 8, 8), m, n, k
        )
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-4)

    def test_mesh_pattern_switches_recorded(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        cluster = CpeCluster(sanitize=SANITIZE)
        cluster.distributed_gemm(split_tiles(a, 8, 8), split_tiles(b, 8, 8), 16, 16, 16)
        # broadcast() is functional-only; pattern accounting is exercised
        # through burst_cycles in the timing path -- here we just confirm
        # the mesh object is wired into the cluster.
        assert cluster.mesh is not None

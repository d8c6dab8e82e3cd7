"""Unit tests for the machine sanitizer: the opt-in knobs, the
register-communication protocol checker and the SPM plan introspection
the error messages rely on."""

import numpy as np
import pytest

from repro.errors import RegCommError, SanitizerError
from repro.machine.config import default_config
from repro.machine.regcomm import CommPattern, RegCommMesh
from repro.engine import RunConfig
from repro.machine.sanitizer import RegCommChecker


def full_grid(value_fn):
    cfg = default_config()
    return [
        [
            np.array([value_fn(r, c)], dtype=np.float32)
            for c in range(cfg.cluster_cols)
        ]
        for r in range(cfg.cluster_rows)
    ]


class TestKnobs:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert RunConfig.from_env().sanitize is False
        assert RunConfig().sanitize is False

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert RunConfig.from_env().sanitize is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert RunConfig.from_env().sanitize is False

    def test_set_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert RunConfig.from_env(sanitize=False).sanitize is False
        monkeypatch.delenv("REPRO_SANITIZE")
        assert RunConfig.from_env(sanitize=True).sanitize is True

    def test_explicit_argument_wins(self, monkeypatch):
        """An explicit config never consults the environment."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert RunConfig().sanitize is False
        assert RunConfig(sanitize=True).sanitize is True


class TestRegCommChecker:
    def test_double_put_is_deadlock(self):
        chk = RegCommChecker()
        chk.record_put(CommPattern("row", 0))
        with pytest.raises(SanitizerError) as exc:
            chk.record_put(CommPattern("row", 1))
        assert exc.value.check == "regcomm-deadlock"

    def test_get_without_put_is_deadlock(self):
        chk = RegCommChecker()
        with pytest.raises(SanitizerError) as exc:
            chk.record_get(CommPattern("col", 2))
        assert exc.value.check == "regcomm-deadlock"

    def test_mismatched_get_pattern(self):
        chk = RegCommChecker()
        chk.record_put(CommPattern("row", 0))
        with pytest.raises(SanitizerError) as exc:
            chk.record_get(CommPattern("col", 0))
        assert exc.value.check == "regcomm-mismatch"

    def test_matched_put_get_drains(self):
        chk = RegCommChecker()
        p = CommPattern("row", 3)
        chk.record_put(p)
        chk.record_get(p)
        assert chk.outstanding is None
        assert chk.transactions == 2

    def test_mesh_protocol_with_checker(self):
        """The mesh's async put/get drives the checker: a correct
        round-trip works, a protocol violation raises the structured
        sanitizer error before the mesh's own RegCommError."""
        mesh = RegCommMesh(checker=RegCommChecker())
        grid = full_grid(lambda r, c: 10 * r + c)
        p = CommPattern("row", 3)
        mesh.put(grid, p)
        out = mesh.get(p)
        assert out[0][5][0] == 3.0
        mesh.put(grid, p)
        with pytest.raises(SanitizerError):
            mesh.put(grid, p)

    def test_mesh_protocol_without_checker_still_errors(self):
        """Without the sanitizer attached the mesh still refuses the
        deadlock -- as a plain RegCommError."""
        mesh = RegCommMesh()
        grid = full_grid(lambda r, c: 0.0)
        p = CommPattern("row", 0)
        mesh.put(grid, p)
        with pytest.raises(RegCommError):
            mesh.put(grid, p)
        mesh.reset()
        with pytest.raises(RegCommError):
            mesh.get(p)

    def test_broadcast_missing_producer_lane(self):
        chk = RegCommChecker()
        grid = full_grid(lambda r, c: 0.0)
        grid[2][3] = None
        with pytest.raises(SanitizerError) as exc:
            chk.record_broadcast(grid, CommPattern("row", 3), default_config())
        assert exc.value.check == "regcomm-mismatch"

    def test_mesh_broadcast_reports_structured_error_first(self):
        mesh = RegCommMesh(checker=RegCommChecker())
        grid = full_grid(lambda r, c: 0.0)
        grid[2][3] = None
        with pytest.raises(SanitizerError):
            mesh.broadcast(grid, CommPattern("row", 3))


class TestSpmPlanIntrospection:
    def test_buffer_at_maps_offsets_to_names(self):
        from repro.scheduler import lower_strategy, Candidate
        from repro.codegen import compile_candidate
        from repro.dsl import ScheduleSpace
        from ..scheduler.test_lower import gemm_cd

        cd = gemm_cd(64, 64, 64)
        sp = ScheduleSpace(cd)
        sp.split("M", [32]); sp.split("N", [32]); sp.split("K", [32])
        strat = sp.strategy()
        ck = compile_candidate(Candidate(strat, lower_strategy(cd, strat), cd))
        plan = ck.spm_plan
        for name, buf in plan.buffers.items():
            assert plan.buffer_at(buf.offset) == name
            assert plan.buffer_at(buf.offset + buf.reserved_bytes - 1) == name
        end = max(b.offset + b.reserved_bytes for b in plan.buffers.values())
        assert plan.buffer_at(end) is None
        assert plan.buffer_at(-1) is None

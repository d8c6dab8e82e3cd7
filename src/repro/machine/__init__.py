"""Simulated SW26010 many-core processor (the substrate).

The hardware the paper measures on is inaccessible; this subpackage is
the deterministic, transaction- and pipeline-accurate stand-in (see
DESIGN.md Sec. 1 for the substitution argument).
"""

from .chip import Noc, Shard, run_sharded, shard_extent
from .cluster import CpeCluster, split_tiles
from .config import SW26010, MachineConfig, default_config
from .cpe import Cpe
from .dma import (
    MEM_TO_SPM,
    SPM_TO_MEM,
    DmaCost,
    DmaDescriptor,
    DmaEngine,
    ReplyWord,
    cg_tile_descriptors,
)
from .memory import Buffer, MainMemory, transaction_bytes
from .pipeline import Instr, ScheduleResult, schedule, steady_state_cycles
from .regcomm import CommPattern, RegCommMesh, gemm_broadcast_plan
from .sanitizer import MachineSanitizer, RegCommChecker
from .spm import SpmAllocator, SpmBuffer, SpmPlan, partition_extent, tile_bytes_per_cpe
from .trace import SimReport, Trace, TraceEvent
from .trace_export import render_timeline, to_chrome_trace

__all__ = [
    "SW26010",
    "MachineConfig",
    "default_config",
    "MainMemory",
    "Buffer",
    "transaction_bytes",
    "SpmAllocator",
    "SpmBuffer",
    "SpmPlan",
    "partition_extent",
    "tile_bytes_per_cpe",
    "Instr",
    "ScheduleResult",
    "schedule",
    "steady_state_cycles",
    "CommPattern",
    "RegCommMesh",
    "MachineSanitizer",
    "RegCommChecker",
    "gemm_broadcast_plan",
    "DmaDescriptor",
    "DmaEngine",
    "DmaCost",
    "ReplyWord",
    "MEM_TO_SPM",
    "SPM_TO_MEM",
    "cg_tile_descriptors",
    "Cpe",
    "CpeCluster",
    "split_tiles",
    "Noc",
    "Shard",
    "shard_extent",
    "run_sharded",
    "SimReport",
    "Trace",
    "TraceEvent",
    "to_chrome_trace",
    "render_timeline",
]

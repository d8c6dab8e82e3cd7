"""config_signature: built once per MachineConfig instance, and still a
full identity -- latency-table copies get their own, pickling keeps it."""

import pickle
from dataclasses import fields
from typing import Mapping

from repro.machine.config import config_signature, default_config
from repro.primitives.microkernel import (
    COL_MAJOR,
    KernelVariant,
    clear_schedule_memo,
    cycles_per_k_step,
)


def fresh_signature(cfg) -> tuple:
    """The signature rebuilt from the fields, bypassing the cache."""
    out = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        out.append((f.name, value))
    return tuple(out)


def slower_vmad(cfg):
    return cfg.with_overrides(
        latencies={**cfg.latencies, "vmad": cfg.latencies["vmad"] + 32}
    )


class TestConfigSignature:
    def test_cached_value_equals_fresh_tuple(self):
        cfg = default_config().with_overrides(clock_hz=2.0e9)
        first = config_signature(cfg)
        assert first == fresh_signature(cfg)
        assert config_signature(cfg) is first  # built once, then kept
        assert first != config_signature(default_config())

    def test_latency_copy_gets_its_own_signature(self):
        base = default_config()
        config_signature(base)  # cached on the original before copying
        slow = slower_vmad(base)
        assert slow == base  # dataclass equality is latency-blind...
        assert config_signature(slow) != config_signature(base)
        assert config_signature(slow) == fresh_signature(slow)

    def test_microkernel_memo_tells_latency_copies_apart(self):
        v = KernelVariant(COL_MAJOR, COL_MAJOR, "M")
        base = default_config()
        slow = slower_vmad(base)
        fast_cycles = cycles_per_k_step(v, base)  # warms the memo
        slow_cycles = cycles_per_k_step(v, slow)
        assert slow_cycles > fast_cycles
        clear_schedule_memo()
        assert cycles_per_k_step(v, slow) == slow_cycles
        assert cycles_per_k_step(v, base) == fast_cycles

    def test_pickle_round_trip_keeps_signature(self):
        for cfg in (default_config(), slower_vmad(default_config())):
            cached = config_signature(cfg)
            copy = pickle.loads(pickle.dumps(cfg))
            assert config_signature(copy) == cached
            assert config_signature(copy) == fresh_signature(copy)
        # a config shipped before its signature was ever built
        unsigned = pickle.loads(pickle.dumps(slower_vmad(default_config())))
        assert config_signature(unsigned) == fresh_signature(unsigned)

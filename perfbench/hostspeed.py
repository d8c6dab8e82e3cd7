"""Host-speed probe: corrects region timings for other tenants' load.

The benchmark runs on a shared host whose speed changes from moment to
moment: a fixed pure-Python loop, timed back to back for five minutes
on a 2-vCPU x86-64 container, took 0.062 s at best and had its 30 s
window medians range from 0.070 to 0.130 s, and that swing covers CPU
time as well as wall time.  A slow stretch can last longer than a
whole run, so no statistic over a run's own timings removes it.

So the worker samples the host's speed *inside* each timed region: a
``SIGALRM`` timer interrupts the running code every ``INTERVAL_S`` and
its handler times a fixed ``kernel`` of four parts -- interpreter work,
a streaming NumPy add, dict lookups scattered over 8 MB of objects and
a NumPy gather -- each slowed by a different kind of contention.  A
region's corrected time is its wall time minus the probes' own time,
times the mean of ``REFERENCE_S / probe time`` over the probes taken
inside it: the seconds the region would take at the host speed at
which the kernel runs in ``REFERENCE_S``.

The parts were chosen by timing each of them inside every probe of
fresh samples taken back to back on that container (6 samples of
``tune-model``, 5 of ``serve-yolo``, 3 warm passes each) and correcting
the regions with each mix.  The coefficient of variation of the
corrected times was:

    ======================  =====  ===========  ==========  ==========
    region                  wall   Python loop  loop + add  four parts
    ======================  =====  ===========  ==========  ==========
    tune-model tune          7.9%   3.3%         4.3%        2.3%
    tune-model warm pass    20.7%   8.2%         7.5%        5.3%
    serve-yolo tune         12.5%   6.6%         2.5%        1.5%
    serve-yolo warm pass    13.0%   5.4%         3.1%        2.5%
    ======================  =====  ===========  ==========  ==========

The kernel here does about half of that experiment's work in each part,
over smaller tables, to keep the probes near 3% of a region.  Wall
times are reported next to the corrected ones.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

#: seconds between probes
INTERVAL_S = 0.05
#: the speed corrected times scale to: with it they read close to the
#: wall times of a quiet 2-vCPU Xeon container
REFERENCE_S = 1e-3
#: probes a region needs; a shorter region also uses the probes just
#: before it
MIN_PROBES = 4

_rng = np.random.default_rng(0)
#: interpreter work on a small working set
_LOOP_STEPS = 1000
#: streaming through memory: three 1 MiB arrays
_A, _B, _C = (np.ones(1 << 17) for _ in range(3))
#: scattered reads: dict lookups over 100,000 int keys (about 8 MB of
#: table and key objects) and a NumPy gather from a 4 MiB array
_TABLE = {int(k): i for i, k in enumerate(_rng.permutation(1 << 20)[:100_000])}
_LOOKUPS = [int(k) for k in _rng.choice(list(_TABLE), 750)]
_GATHER_FROM = np.ones(1 << 19)
_GATHER_AT = _rng.integers(0, 1 << 19, 10_000)
_GATHERED = np.empty(10_000)


def kernel() -> int:
    """Fixed work of four kinds, each slowed by a different kind of
    contention: interpreter work, streaming memory traffic, and
    scattered reads from Python objects and from an array."""
    d: dict = {}
    for i in range(_LOOP_STEPS):
        d[i & 63] = d.get(i & 63, 0) + len(str(i))
    np.add(_A, _B, out=_C)
    total = 0
    for k in _LOOKUPS:
        total += _TABLE[k]
    np.take(_GATHER_FROM, _GATHER_AT, out=_GATHERED)
    return total + len(d)


class Probe:
    """Times ``kernel`` every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def region(self, since: int, wall: float) -> Tuple[float, float]:
        """``(wall time, corrected time)`` of a region of ``wall``
        seconds during which the probes from index ``since`` on ran."""
        inside = self.times[since:]
        probes = inside if len(inside) >= MIN_PROBES else self.times[-MIN_PROBES:]
        if not probes:
            return wall, wall
        speed = sum(REFERENCE_S / t for t in probes) / len(probes)
        return wall, (wall - sum(inside)) * speed

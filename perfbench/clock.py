"""Wall-clock timing normalised by the machine's speed at the time.

On a shared host the same code runs up to twice as slow when neighbours
are busy, in spells of seconds to minutes, which no median within one
run can remove.  So every timed sample is bracketed by a fixed
calibration kernel (interpreted Python, numpy calls on tiny and on large
arrays, JSON parsing: the kinds of work the program does), the kernel also runs from a timer
signal every TICK_S while the sample runs (its time is subtracted from
the sample), and the sample is scaled by how fast the kernel ran:

    normalised = wall × REF_UNIT_S / (measured seconds per kernel unit)

A change to the program does not change the kernel, so program speed-ups
and slow-downs still show in full; what cancels is the host's speed.
The kernel runs with the garbage collector off: the ticks run in the
program's process, and a collection there would walk the program's heap
and charge that to the host's speed.
The kernel and ``REF_UNIT_S`` are part of the benchmark's definition and
must not change between the runs that are compared.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from contextlib import contextmanager

import numpy as np

# seconds per kernel unit on an idle 2-core host of the reference
# machine; only sets the scale, so normalised seconds read like seconds
REF_UNIT_S = 1.6e-3
CAL_S = 0.03          # calibration before a sample, and at least that after
CAL_SHARE = 0.03      # after a long sample, calibrate for this share of it
TICK_S = 0.1          # one kernel unit from SIGALRM this often during a sample


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((5, 1, 9))
        self._b = rng.random((1, 2000, 9))
        self._small = rng.random(16)
        self._idx = np.arange(16)
        self._json = json.dumps([{"a": i, "b": [1.5, 2.5, "xxxxx"]} for i in range(500)])
        self.raw_total = 0.0  # sums over every timed block so far
        self.s_total = 0.0
        self.tick_s = 0.0  # time spent in ticks so far, to subtract from samples

    def _unit(self) -> None:
        """About 0.4 ms each of: an interpreted dict loop, many numpy
        calls on tiny arrays, one large array expression, JSON parsing."""
        d: dict[int, int] = {}
        for i in range(4500):
            k = i & 255
            d[k] = d.get(k, 0) + i
        for _ in range(300):
            self._idx[self._small[self._idx] <= 0.5]
        ((self._a - self._b) ** 2).sum(axis=2)
        json.loads(self._json)

    def _calibrate(self, budget: float) -> tuple[int, float]:
        gc_on = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        units = 0
        while units < 3 or time.perf_counter() - start < budget:
            self._unit()
            units += 1
        elapsed = time.perf_counter() - start
        if gc_on:
            gc.enable()
        return units, elapsed

    def meter(self) -> "Meter":
        return Meter(self)

    @contextmanager
    def timed(self, ticks: bool = True):
        """Time the body; the yielded dict then holds ``raw`` (wall
        seconds less the ticks' own time), ``factor`` and ``s``
        (normalised seconds).  Pass ``ticks=False`` when the body only
        waits for a child process, which the ticks would compete with."""
        sample: dict[str, float] = {}
        units, seconds = self._calibrate(CAL_S)
        tick_s_before = self.tick_s

        def on_tick(signum, frame):
            nonlocal units
            gc_on = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            self._unit()
            self.tick_s += time.perf_counter() - t0
            if gc_on:
                gc.enable()
            units += 1

        previous = signal.signal(signal.SIGALRM, on_tick) if ticks else None
        start = time.perf_counter()
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield sample
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        tick_s = self.tick_s - tick_s_before
        raw = time.perf_counter() - start - tick_s
        u, s = self._calibrate(max(CAL_S, CAL_SHARE * raw))
        sample["raw"] = raw
        sample["factor"] = REF_UNIT_S * (units + u) / (seconds + s + tick_s)
        sample["s"] = raw * sample["factor"]
        self.raw_total += raw
        self.s_total += sample["s"]


class Meter:
    """Sums wall and normalised time over many timed blocks, so a long
    measurement is normalised piece by piece as the host's speed moves."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.raw = 0.0
        self.s = 0.0

    @contextmanager
    def block(self):
        with self.clock.timed() as t:
            yield t
        self.raw += t["raw"]
        self.s += t["s"]

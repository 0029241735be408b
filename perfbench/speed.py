"""Host-speed calibration for the benchmark's wall-clock figures.

The shared two-core host runs the same Python code anywhere between its
full speed and about 60% slower, in phases of seconds to minutes, so the
raw wall time of a 20-second run says as much about the neighbours as
about the program.  A :class:`SpeedProbe` samples the host's speed while a
run is being timed: an interval timer interrupts the run every
``PERIOD_S`` seconds and times one fixed unit of interpreter work (a small
discrete-event loop: a heap of events, generator processes, a dict table
and a seeded RNG, the same kinds of work the simulator does).  The unit
uses only the standard library and this file, so a change to the program
cannot change it.

:meth:`SpeedProbe.calibrated_s` turns the wall time between two
:class:`Mark` readings into *reference seconds*: the wall time minus the
probe's own time, scaled by how much slower than ``NOMINAL_UNIT_S`` the
unit ran on average over the same interval.  One reference second is the
time in which a host at reference speed runs ``1 / NOMINAL_UNIT_S`` units.
Program work and probe units share the core, so a slow phase stretches
both and the ratio stays put; a faster program is still faster by the same
factor.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from dataclasses import dataclass

PERIOD_S = 0.04
"""Interval between two probe units (wall clock)."""

UNIT_EVENTS = 500
"""Events one probe unit processes."""

NOMINAL_UNIT_S = 0.002
"""Time of one probe unit at reference speed (a typical reading inside the
handler on the two-core Xeon container the benchmark was written on, so a
reference second there is close to a wall second)."""


class _Event:
    __slots__ = ("time", "seq", "process")

    def __init__(self, time_: int, seq: int, process) -> None:
        self.time = time_
        self.seq = seq
        self.process = process

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def unit() -> int:
    """One fixed unit of interpreter work; returns a checksum of it."""
    rng = random.Random(1)
    table = {}

    def process(key: int):
        while True:
            slot = rng.randrange(200_000)
            table[slot] = table.get(slot, 0) + key
            yield rng.randrange(1, 100)

    heap = [_Event(0, key, process(key)) for key in range(32)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(UNIT_EVENTS):
        event = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, _Event(event.time + next(event.process), seq, event.process))
    return len(table) + heap[0].time


@dataclass(frozen=True)
class Mark:
    """Clock and probe totals at one instant."""

    wall_ns: int
    units: int
    probe_ns: int


class SpeedProbe:
    """Times one probe unit every ``period_s`` while it is active.

    Use as a context manager around the code being timed, and take
    :meth:`mark` readings inside it.  The handler runs in the main thread
    between two bytecodes of the program; it switches the cyclic garbage
    collector off for its own unit so that a collection of the program's
    heap is never charged to the host's speed.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.units = 0
        self.probe_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter_ns()
        unit()
        self.probe_ns += time.perf_counter_ns() - start
        self.units += 1
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter_ns(), self.units, self.probe_ns)

    @staticmethod
    def calibrated_s(start: Mark, end: Mark) -> float:
        """Reference seconds of program work between two marks."""
        units = end.units - start.units
        probe_ns = end.probe_ns - start.probe_ns
        if units == 0:
            raise ValueError("no probe unit ran between the marks; time a longer span")
        work_ns = end.wall_ns - start.wall_ns - probe_ns
        return work_ns / 1e9 * NOMINAL_UNIT_S * units / (probe_ns / 1e9)

    @staticmethod
    def slowdown(start: Mark, end: Mark) -> float:
        """Mean probe-unit time over ``NOMINAL_UNIT_S`` between two marks."""
        units = end.units - start.units
        return (end.probe_ns - start.probe_ns) / 1e9 / max(units, 1) / NOMINAL_UNIT_S

"""A clock that takes the host's speed out of the benchmark's timings.

On a shared host the same code runs at speeds up to 2x apart, switching
within a second and drifting over minutes, and a CPU-time clock inflates
the same way. :class:`HostClock` measures that speed while a workload
runs: a ``SIGALRM`` timer interrupts the main thread every ``TICK_S``
seconds to time :func:`probe`, a fixed piece of interpreter work that
resembles the program's own (the benchmark's code, not the program's,
so a change to the program never changes it). Afterwards
:meth:`HostClock.seconds` converts an interval of the workload into
*reference seconds*: each stretch of program time between two probes is
scaled by ``REFERENCE_PROBE_S`` over the probe time measured around it,
and the probes' own time is left out. A program that does less work
reads faster; a host that runs everything slower does not.

A reference second is a second on a host where :func:`probe` takes
``REFERENCE_PROBE_S``; the constant fixes the scale, not the comparison,
so it must stay the same between the commits being compared.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from typing import Any

#: Seconds between probes.
TICK_S = 0.05
#: Rounds of the probe's two halves.
PROBE_LOOKUPS = 1250
PROBE_ENCODES = 110
#: Probe time at the reference speed (about this probe's time on the
#: 2-vCPU shared VM the benchmark was built on, in its faster state).
REFERENCE_PROBE_S = 6.5e-4
#: Probes whose median estimates the speed around each probe.
SMOOTHING = 5

_TABLE = {i: i * 31 % 97 for i in range(97)}
_EVENT = {"type": "step", "run": 3, "step": 1234, "vertex": [12, -4, 7],
          "blocks": [[1, 2], [3, 4]], "fault": False}


def _lookup(key: int) -> int:
    return _TABLE[key % 97]


def probe() -> int:
    """The work whose time measures the host's speed: calls, dictionary
    lookups and integer arithmetic (the engine's kind of work), then
    JSON encoding (the trace sink's). The same host state slows these
    by different factors, and the mix tracks the four workloads better
    than either half alone (README.md). The collector is off so that the
    probe never pays for the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(PROBE_LOOKUPS):
            total += _lookup(i + total)
        for _ in range(PROBE_ENCODES):
            total += len(json.dumps(_EVENT, separators=(",", ":")))
        return total
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times :func:`probe` every ``TICK_S`` seconds while the ``with``
    block runs; :meth:`seconds` is usable once the block has exited.

    Only the main thread can use it (signal handlers run there). Other
    threads keep running while a probe runs unless they need the GIL,
    which the probe holds; either way the probe's time is left out of
    every interval.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous: Any = None
        self._marks: list[float] = []
        self._rates: list[float] = []

    def _tick(self, signum: int | None = None, frame: Any = None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._fold()

    def _fold(self) -> None:
        """Reference seconds elapsed at each probe (``_marks``) and the
        rate, reference seconds per second, of the stretch after it."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        half = SMOOTHING // 2
        smoothed = [
            statistics.median(durations[max(0, i - half): i + half + 1])
            for i in range(len(durations))
        ]
        self._rates = [
            REFERENCE_PROBE_S / ((smoothed[i] + smoothed[min(i + 1, len(smoothed) - 1)]) / 2)
            for i in range(len(smoothed))
        ]
        self._marks = [0.0]
        for i in range(1, len(self.starts)):
            stretch = self.starts[i] - self.ends[i - 1]
            self._marks.append(self._marks[-1] + stretch * self._rates[i - 1])

    def _reference_time(self, t: float) -> float:
        """Reference seconds of program time from the first probe to the
        ``perf_counter`` instant ``t``; extrapolated at the first and
        last probe's rate outside the clock's span."""
        if not self._marks:
            raise RuntimeError("HostClock.seconds needs the with block to have exited")
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self._rates[0]
        return self._marks[i] + max(0.0, t - self.ends[i]) * self._rates[i]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time between two ``perf_counter``
        instants."""
        return self._reference_time(end) - self._reference_time(start)

    def speed(self) -> float:
        """Median host speed over the clock's span, as a multiple of the
        reference speed."""
        return statistics.median(self._rates)

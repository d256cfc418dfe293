"""A speed probe that runs beside the measured command on the same CPU.

On a shared host the other tenants slow a core by up to a factor of two,
for seconds to minutes at a time, and CPU time slows with wall time (the
time is not stolen; the core runs slower).  Medians over a run cannot
remove that: a whole run can fall in a slow spell.  So the runner pins
itself, its children and this probe to one CPU, and the probe times a
fixed piece of pure-Python work every PERIOD_S, by its own thread CPU
time.  The mean probe time while a command ran, over REFERENCE_S, is how
much slower than a reference core that CPU ran; dividing the command's
times by it gives reference seconds.

The probe takes 3% to 5% of the CPU from the command.  It measures the
core, not ellgenus: a change to the program does not change the probe.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02
# Undisturbed time of one probe_work() call on the reference host, a 2.0 GHz
# Intel Xeon running CPython 3.11; it sets the scale of reference seconds.
REFERENCE_S = 0.0005


def probe_work():
    """Fixed Fraction arithmetic, the kind of work ellgenus does."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 97 + 1, i)
    return total


def pin_to_one_cpu():
    """Pin this process (and the threads and children it starts) to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples (end time, thread CPU time) of probe_work() in a thread."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.ends = []
        self.durations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:  # at least one sample, however short the run
            start = time.thread_time()
            probe_work()
            self.add(time.perf_counter(), time.thread_time() - start)
            if self._stop.wait(self.period):
                return

    def add(self, end, duration):
        self.ends.append(end)
        self.durations.append(duration)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, start, end):
        """Mean probe time over [start, end], relative to REFERENCE_S.

        A probe that ends up to one period after `end` still ran mostly
        inside the interval; with no sample in it the nearest one is used.
        """
        ends, durations = list(self.ends), self.durations
        if not ends:
            raise RuntimeError("the speed probe took no sample")
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(ends, end + self.period)
        if lo >= hi:
            lo = min(lo, len(ends) - 1)
            if lo > 0 and start - ends[lo - 1] < ends[lo] - end:
                lo -= 1
            hi = lo + 1
        window = durations[lo:hi]
        return sum(window) / len(window) / REFERENCE_S

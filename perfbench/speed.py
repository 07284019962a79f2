"""Host speed, sampled inside every timed operation.

On the shared two-CPU virtual machine this benchmark was built on, other
tenants slow each CPU by up to half, in stretches from tens of
milliseconds to minutes: ten back-to-back cold x86 discoveries took 5.1
to 7.2 s.  A sample taken between operations misses most of that, so
while a run is untraced a profiling timer interrupts the process every
:data:`PERIOD_S` of CPU time and times a fixed reference loop, which no
change to the product can touch.  Each operation's CPU seconds, less the
samples taken inside it, are multiplied by the mean of nominal over
measured reference time across those samples: seconds at the nominal
host speed, where the reference loop takes :data:`NOMINAL_S`.  Waiting
(simulated network latency) is not rescaled.  Raw seconds stay in the
run's record.  On those ten discoveries this cut the coefficient of
variation from 0.12 to 0.02 (3.9 to 4.25 s).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: iterations of the reference loop per sample
CHUNK = 2000
#: seconds one sample takes at the nominal host speed
NOMINAL_S = 0.25e-3
#: process CPU seconds between two samples
PERIOD_S = 0.01


def reference(iterations=CHUNK):
    """A tiny register-machine interpreter: tuple dispatch, dict loads
    and stores and word arithmetic, like the product's executor."""
    code = (("add", "a", "b"), ("xor", "b", "a"), ("and", "a", "m"), ("add", "c", "a"), ("jmp",))
    regs = {"a": 1, "b": 7, "c": 0, "m": 0xFFFF}
    pc = 0
    for _ in range(iterations):
        op = code[pc]
        kind = op[0]
        if kind == "add":
            regs[op[1]] = (regs[op[1]] + regs[op[2]]) & 0xFFFFFFFF
        elif kind == "xor":
            regs[op[1]] ^= regs[op[2]]
        elif kind == "and":
            regs[op[1]] &= regs[op[2]]
        pc = 0 if kind == "jmp" else pc + 1
    return regs["c"]


class Clock:
    """Start, wall and process CPU seconds of one timed interval."""

    __slots__ = ("start", "wall", "cpu", "_cpu0")

    def __enter__(self):
        self.start, self._cpu0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.start
        self.cpu = min(time.process_time() - self._cpu0, self.wall)
        return False


class Sampler:
    """Reference-loop samples, ``(start, seconds)`` in time order, taken
    on a profiling timer while the sampler is entered.  The timer's
    signal handler runs in the main thread between two bytecodes, so a
    sample that starts inside an operation's clock also ends inside it."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def within(self, clock):
        """The samples taken during *clock*'s interval."""
        lo = bisect.bisect_left(self.samples, (clock.start,))
        hi = bisect.bisect_left(self.samples, (clock.start + clock.wall,))
        return self.samples[lo:hi]

    def raw(self, clock):
        """*clock*'s wall seconds less the samples taken in it."""
        return clock.wall - sum(seconds for _, seconds in self.within(clock))

    def normalised(self, clock):
        """*clock*'s seconds at the nominal host speed: its waiting, plus
        its CPU seconds less the samples in it times the mean of nominal
        over sampled reference time (the two nearest samples' for an
        operation too short to hold one)."""
        inside = self.within(clock)
        if inside:
            rates = inside
        else:
            at = bisect.bisect_left(self.samples, (clock.start,))
            rates = self.samples[max(at - 1, 0):at + 1]
        factor = statistics.fmean(NOMINAL_S / seconds for _, seconds in rates)
        cpu = max(clock.cpu - sum(seconds for _, seconds in inside), 0.0)
        return clock.wall - clock.cpu + cpu * factor

"""Machine-speed probe: the benchmark's timings in reference seconds.

The measuring machine is a virtual machine on a shared host, and the host
slows it by up to 1.7x in stretches of seconds to minutes, with CPU time equal
to wall time: the same work simply runs slower. A wall-clock throughput over
one run then measures the host as much as the program.

So while an analysis runs, a fixed kernel that does not call the program is
timed every ``period`` seconds from a ``SIGALRM`` handler, and the analysis
time, less the probes' own time, is scaled by ``REFERENCE_S`` over the
kernel's mean time during that analysis. A host that slows the machine slows
the kernel alike and cancels out; a program that does more work does not. The
handler runs between the program's bytecodes and changes none of its values.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Roughly the kernel's time on an idle core of the machine the benchmark was
#: written on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4). Only ratios of
#: timings matter; this fixes their scale near that machine's wall seconds.
REFERENCE_S = 4.5e-4

#: Kernel timings a scale rests on at least.
MIN_SAMPLES = 3

_A = np.random.default_rng(0).standard_normal((6, 6))


def kernel() -> float:
    """A fixed bit of work of the program's kind: a scalar Python loop and
    products of small numpy matrices."""
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 3.0
    m = _A
    for _ in range(40):
        m = (m @ _A) * 0.1 + _A
    return s + float(m[0, 0])


def kernel_seconds(times: int = 1) -> list[float]:
    out = []
    for _ in range(times):
        t = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t)
    return out


class Probe:
    """Times ``kernel`` every ``period`` seconds of wall time while entered.

    At least ``MIN_SAMPLES`` timings are taken: those the timer missed are
    taken right after the block ends. ``probe_s`` is the wall time the
    timings inside the block took.
    """

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples += kernel_seconds()

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)
        missing = MIN_SAMPLES - len(self.samples)
        if missing > 0:
            self.samples += kernel_seconds(missing)
        return False

    def scale(self) -> float:
        """Reference seconds per wall second during the block."""
        return REFERENCE_S / statistics.fmean(self.samples)

"""Host speed: converts wall time to the time it takes at nominal speed.

A shared host's cores flip between a fast and a contended state, for a
second or for minutes at a time, and a repetition's wall time moves by up
to 40% with them.  ``HostSpeed`` samples that speed while a block runs:
every PROBE_PERIOD_S a timer signal runs a short pure-Python kernel (about
2% of the time) and records how long it took, which holds for the stretch
since the previous sample.  The kernel does not touch stratmc, so a faster
program leaves it unchanged.

The module imports nothing but the standard library, so that the set-up
probe can use it before it times ``import stratmc``.
"""
from __future__ import annotations

import signal
from time import perf_counter, perf_counter_ns

PROBE_PERIOD_S = 0.05          # interval between samples
PROBE_LOOPS = 10_000           # iterations of the kernel
PROBE_NOMINAL_NS = 750_000     # kernel time taken as the host's nominal speed


def probe_kernel_ns() -> int:
    t0 = perf_counter_ns()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return perf_counter_ns() - t0


class HostSpeed:
    """Samples the host's speed while a ``with`` block runs (main thread)."""

    def __enter__(self):
        self.samples: list[tuple[float, float, int]] = []  # (from, to, kernel ns)
        self._last = perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()  # the stretch after the last timer sample

    def _tick(self, *_):
        now = perf_counter()
        self.samples.append((self._last, now, probe_kernel_ns()))
        self._last = perf_counter()

    def nominal_s(self, a: float, b: float) -> float:
        """Seconds the span [a, b] of perf_counter would take at nominal speed.

        The kernel's own time is taken off, and the rest is divided by the
        time-weighted mean slowdown (kernel time over PROBE_NOMINAL_NS) of
        the sampled stretches that overlap [a, b].
        """
        weighted = span = busy = 0.0
        for lo, hi, ns in self.samples:
            w = min(hi, b) - max(lo, a)
            if w > 0.0:
                weighted += w * ns
                span += w
            busy += max(0.0, min(hi + ns * 1e-9, b) - max(hi, a))
        if weighted == 0.0:  # [a, b] lies within one run of the kernel
            return b - a
        return (b - a - busy) * PROBE_NOMINAL_NS * span / weighted

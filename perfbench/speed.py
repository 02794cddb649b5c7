"""Reference-speed seconds: wall time scaled by how fast the host ran meanwhile.

On the shared 2-core reference box the same code runs up to 2x slower for
stretches of one to tens of seconds (CPU time equals wall time and no steal
time is recorded, so the host runs each instruction slower; the share of
slow time changes over minutes). No statistic of wall times inside a
25-second run removes that. So while a measurement runs, a SIGALRM timer
interrupts it every SLICE_INTERVAL_S and times one calibration slice: fixed
pure-Python work that calls nothing of the program. The slices' time is
taken off the measured wall time, and the rest is scaled by the host's speed
in that stretch:

    ref_seconds = (wall - slices inside) * mean(REF_SLICE_S / slice time)

One reference second is the time in which the host runs 1 / REF_SLICE_S
slices. Run from the handler, a slice takes about 1.2 ms in the reference
box's fast phase, so reference seconds read about 0.8x that phase's wall
seconds. A change to the program moves its wall time and leaves the slices alone, so
it moves reference seconds by the same share.
"""

from __future__ import annotations

import bisect
import signal
import time

SLICE_INTERVAL_S = 0.025
REF_SLICE_S = 1e-3
# A measurement shorter than this many slice intervals is scaled by the
# speed of the nearest slices around it.
MIN_SLICES = 8


class _Point:
    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = v

    def step(self, w: int) -> "_Point":
        return _Point(self.v * 0.999 + w)


def calibration_slice(n: int = 2000) -> float:
    """Interpreter work of the program's kind: dicts, lists, floats, small objects."""
    counts: dict[int, int] = {}
    acc = 0.0
    trail = []
    p = _Point(0.0)
    for i in range(n):
        k = i & 63
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) % 7.0
        trail.append(acc)
        p = p.step(k)
    return acc + p.v + len(trail)


class SpeedProbe:
    """Times a calibration slice every SLICE_INTERVAL_S while the block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_slice()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, start: float, seconds: float) -> float:
        """Wall `seconds` measured from perf_counter() `start`, in reference seconds.

        Slices run in the measured code's own thread, so every slice that
        began inside the interval also ended inside it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        busy = seconds - sum(self.durations[lo:hi])
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SLICES and hi < len(self.starts):
                hi += 1
        if hi == lo:
            raise RuntimeError("no calibration slices were timed")
        speed = sum(REF_SLICE_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return busy * speed

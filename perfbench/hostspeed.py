"""Host speed, sampled in the process being measured.

On the shared 2-vCPU host the benchmark was defined on, each vCPU runs at
one of two speeds, about 1.8 times apart, and switches every few seconds;
CPU time follows wall time, and the two vCPUs switch independently of each
other.  How much of a 20-second run falls in the slow state then moves its
wall times by far more than the 0.25 of the median a later change is judged
by.  So every reported time is scaled to a fixed host speed: a fixed
pure-Python probe is timed around each measured interval, in the same
process, and

    scaled time = (wall time - probes run inside it) * REF_PROBE_S / mean probe time around it

is the time the interval would have taken on a host where the probe takes
REF_PROBE_S, about its time on that host in its fast state.  A program
change moves the wall time but not the probe, so it moves the scaled time
by the same share.  Each sample is the fastest of three probes, so that
one probe cut short by the scheduler does not count as a slow host.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_STEPS = 2000
REF_PROBE_S = 0.0002
INTERVAL_S = 0.1   # timer samples take about 0.6 % of the measured time
WINDOW_S = 0.3     # samples this close to an interval describe its speed


def probe() -> float:
    """Wall seconds of a fixed piece of integer and dict work.  It creates
    no tracked objects, so the garbage collector, whose cost grows with the
    heap of the process it runs in, never runs inside it."""
    clock = time.perf_counter
    start = clock()
    counts = dict.fromkeys(range(61), 0)
    for i in range(PROBE_STEPS):
        k = i % 61
        counts[k] = counts[k] + (i & 7)
    return clock() - start


class Sampler:
    """Samples in the order taken: when each began and ended, and the
    probe time it measured."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def to_dict(self) -> dict:
        return {"starts": self.starts, "ends": self.ends, "durations": self.durations}

    @classmethod
    def from_dict(cls, doc: dict) -> "Sampler":
        """Samples taken in another process: perf_counter is the system's
        monotonic clock, so they share this process's time line."""
        sampler = cls()
        sampler.starts, sampler.ends, sampler.durations = (
            doc["starts"], doc["ends"], doc["durations"])
        return sampler

    def sample(self, *_signal) -> None:
        if not self.ends:
            probe()  # the first run of the probe pays for specialising its bytecode
        start = time.perf_counter()
        d = min(probe(), probe(), probe())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.durations.append(d)

    def start_timer(self) -> None:
        """Sample every INTERVAL_S from a SIGALRM handler, so that a long
        interval is sampled while it runs, on the CPU it runs on."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        around = self.durations[lo:hi]
        inside = sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])
                     if t0 <= s and e <= t1)
        return (t1 - t0 - inside) * REF_PROBE_S * len(around) / sum(around)

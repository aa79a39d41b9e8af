"""Machine-speed sampling, for times that do not move with the host's load.

On a shared host the same pass can take up to twice as long in one minute
as in the next.  The cores themselves slow down: CPU time moves with wall time,
and steal time stays under 1 %.  Longer runs do not average this out,
because the slow phases last minutes.  So every worker interpreter times a
speed sample alongside the program: every INTERVAL_S a SIGALRM handler runs
a small fixed pure-Python kernel and records when it started and ended.
The program's time between two samples is rescaled by REF_S / (duration of
the sample that ends it), which is its length at the reference speed.  Summed
over a window this gives the window's *work time*: its wall time with the
machine's speed held fixed.  A change to the program moves it as it moves
wall time; a change of the host's load mostly does not.

The handler runs in the main thread between bytecodes.  During a long C call
(a SuperLU factorization) the pending sample waits until the call returns,
and that sample then rates the whole call.  Sampling costs about 1 % of the
wall time, the same for every version of the program.
"""

from __future__ import annotations

import array
import bisect
import signal
import time

INTERVAL_S = 0.05
# About the kernel's time inside a pass on the 2-vCPU Xeon VM the benchmark
# was tuned on, when the host was quiet (Python 3.11).  It sets the scale of
# work times only; on a quiet host they come out close to wall times.
REF_S = 3.5e-4


def kernel():
    """Everyday interpreter work: calls, strings, dicts, sorting, sets.

    A broad mix that builds containers of a few thousand entries, rather
    than a tight loop: under load a tight arithmetic loop slowed less than
    the program did, and of the kernels compared (README.md) this one
    tracked the program best.  Its containers are freed before it returns.
    """
    words, sizes = [], {}
    for i in range(800):
        s = str(i)
        sizes[s] = len(s)
        words.append(s.upper())
    sorted(sizes.items(), key=lambda kv: kv[1])
    "-".join(words)
    list(map(abs, range(-500, 500)))
    return {x % 7 for x in range(1000)}


class Sampler:
    """Runs the kernel on a timer; keeps (start, end) of every run.

    The times go into an array allocated once: a list growing by
    reallocation between the program's large arrays kept freed memory from
    being reused and raised the `diagnose` pass's peak memory by 40 MB.
    """

    CAPACITY = 16384  # samples; a pass of 180 s needs 3,600

    def __init__(self):
        self._times = array.array("d", bytes(16 * self.CAPACITY))
        self._n = 0

    @property
    def samples(self) -> list[tuple[float, float]]:
        t = self._times
        return [(t[2 * i], t[2 * i + 1]) for i in range(self._n)]

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        i = self._n
        if i < self.CAPACITY:
            self._times[2 * i] = t
            self._times[2 * i + 1] = time.perf_counter()
            self._n = i + 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class WorkClock:
    """Maps a perf_counter time to work seconds since ``origin``.

    Each stretch of program time is rated by the first sample that starts
    after it began, or by the last sample if none does; the samples' own time
    is left out.  Without samples it is the wall clock.  Differences of the
    clock are work times, so they add up as wall times do.
    """

    def __init__(self, samples, origin):
        self.origin = origin
        self.samples = [(s, e) for s, e in samples if s >= origin]
        self.starts = [s for s, _ in self.samples]
        self.done = []  # work seconds at the end of each sample
        total, prev = 0.0, origin
        for s, e in self.samples:
            total += (s - prev) * REF_S / (e - s)
            self.done.append(total)
            prev = e

    def __call__(self, t):
        i = bisect.bisect_right(self.starts, t)  # samples started by t
        if i and t < self.samples[i - 1][1]:
            t = self.samples[i - 1][0]  # inside a sample: where it began
            i -= 1
        base, prev = (self.done[i - 1], self.samples[i - 1][1]) if i else (0.0, self.origin)
        if not self.samples:
            return t - prev
        s, e = self.samples[min(i, len(self.samples) - 1)]
        return base + (t - prev) * REF_S / (e - s)


def work_seconds(samples, start, end):
    """Work time of the window [start, end] (perf_counter seconds)."""
    return WorkClock(samples, start)(end)

"""Host speed, sampled while the benchmark measures.

The benchmark shares a few cores of a host whose speed changes in phases: a
fixed pure-Python kernel takes about 1.5 times as long in a slow phase as in
a fast one, and a phase lasts from a second to over a minute. A run's raw
wall times therefore measure the phase as much as the package.

A Sampler times a fixed kernel every PERIOD seconds of wall time, from a
SIGALRM handler, so that samples land inside long ops as well as between
them, and once more by hand before and after each op and each set-up. An
op's scaled time is its wall time, less the time the handler took inside it,
times REFERENCE_S / (median kernel time near the op): the op's time at the
host speed at which the kernel takes REFERENCE_S. Long ops are scaled
stretch by stretch (Sampler.scaled).

The kernel mixes the two kinds of work the package does: small-integer
arithmetic in a Python loop (gf2n) and a generator of list lookups and xors
counted into a Counter (the derivative histograms of boolfunc and vflats).
Either part alone follows the phases of one workload well and of another
less well.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
import random
import signal
import statistics
import time

PERIOD = 0.03        # seconds of wall time between timed kernel samples
WINDOW = 0.05        # samples this close to an op count towards its speed
NEAREST = 4          # an op with fewer samples than this uses the nearest ones
CHUNK = 9            # a long op is scaled stretch by stretch of this many samples
ARITH_LOOP = 6_000   # iterations of the arithmetic part of the kernel
TABLE = [random.Random(0).randrange(1024) for _ in range(1024)]
SHIFTS = (3, 5, 7, 9)
# A round figure between the kernel's time in a fast phase (about 0.8 ms) and
# in a slow one (about 1.2 ms) of a 2-core Intel Xeon at 2.1 GHz under
# CPython 3.11; scaled times are seconds at the speed where it takes this.
REFERENCE_S = 0.0010


def kernel():
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(ARITH_LOOP):
        acc = (acc + i * i) & 0xFFFF
    t = TABLE
    for a in SHIFTS:
        Counter(t[x ^ a] ^ t[x] for x in range(len(t)))
    return time.perf_counter() - start


class Sampler:
    """Kernel samples as (start, seconds), in time order."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._old = None
        self._busy = False

    def sample(self, *_):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        took = kernel()
        self.starts.append(start)
        self.seconds.append(took)
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old if self._old is not None else signal.SIG_DFL)
        self._old = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def inside(self, t0, t1):
        """Seconds the sampler itself ran within [t0, t1]."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        return sum(self.seconds[lo:hi])

    def speed(self, t0, t1):
        """Median kernel time over the samples within WINDOW of [t0, t1], or
        over the NEAREST samples to the middle of it if that finds fewer."""
        lo = bisect_left(self.starts, t0 - WINDOW)
        hi = bisect_right(self.starts, t1 + WINDOW)
        if hi - lo < NEAREST:
            mid = bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return statistics.median(self.seconds[lo:hi])

    def rescale(self, seconds, t0, t1):
        """A duration measured from t0 to t1, at the reference host speed."""
        return seconds * REFERENCE_S / self.speed(t0, t1)

    def scaled(self, t0, t1):
        """The wall time from t0 to t1, less the sampler's own time in it,
        at the reference host speed. An op long enough to hold two CHUNKs of
        samples can span a change of phase, so each stretch of CHUNK samples
        is scaled by its own median: the samples are evenly spaced in time,
        and the stretches are weighted by their number of samples."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        inside = self.seconds[lo:hi]
        work = t1 - t0 - sum(inside)
        if len(inside) < 2 * CHUNK:
            return self.rescale(work, t0, t1)
        stretches = [inside[i:i + CHUNK] for i in range(0, len(inside), CHUNK)]
        return work * sum(len(s) * REFERENCE_S / statistics.median(s)
                          for s in stretches) / len(inside)

    def around(self, measure):
        """Call measure(), which returns a duration it measured elsewhere (in
        a child process, say), with the host speed sampled just before and
        after; return that duration at the reference host speed."""
        for _ in range(NEAREST // 2):
            self.sample()
        t0 = time.perf_counter()
        seconds = measure()
        t1 = time.perf_counter()
        for _ in range(NEAREST // 2):
            self.sample()
        return self.rescale(seconds, t0, t1)

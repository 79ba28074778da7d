"""A fixed piece of pure-Python arithmetic that gauges the machine's speed.

The benchmark runs on shared machines whose speed moves by 10% from one
quarter second to the next and by 20% and more over minutes, alike for any
program on them.  The timed phase runs ``sample`` between operations every
CALIBRATION_INTERVAL_S, and ``adjust`` rescales each operation's time to
the reference speed by the samples taken around it.  That takes most of
the machine's drift out of the time metrics and leaves any change in
pfhaf's own speed in full.  The work is of the same kind as pfhaf's:
big-integer fraction-free elimination and ``Fraction`` arithmetic.  It
never touches pfhaf, and its inputs are fixed, whatever the seed.
"""

import bisect
import gc
import random
import statistics
import time
from fractions import Fraction

# Median of ``sample`` on the machine where the README's reference figures
# were taken (CPython 3.11.7, 2-CPU Xeon VM), so that scaled and measured
# values agree there on average.
REFERENCE_S = 0.015
CALIBRATION_INTERVAL_S = 0.25
# Samples from this long before an operation starts to this long after it
# ends gauge the speed it ran at.
WINDOW_S = 1.0

_rng = random.Random(20040817)
_INTS = [[_rng.randint(-2**30, 2**30) for _ in range(30)] for _ in range(30)]
_RATS = [Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(400)]


def _bareiss(rows):
    a = [list(row) for row in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * ak[k] - aik * ak[j]) // prev
        prev = ak[k]
    return a[-1][-1]


def _fractions(values):
    total = Fraction(0)
    for i in range(0, len(values), 2):
        total += values[i] * values[i + 1] / (values[i] * values[i] + 1)
    return total


def sample() -> float:
    """Seconds taken by one pass of the fixed work.  The cyclic garbage
    collector is held off, so that garbage left by pfhaf is not collected
    on the calibration's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _bareiss(_INTS)
        _fractions(_RATS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def adjust(ops, samples):
    """Operation times at the reference speed.

    ``ops`` holds (round, start, elapsed) and ``samples`` (time, seconds),
    both in time order.  Each elapsed time is multiplied by REFERENCE_S over
    the median of the samples within WINDOW_S of the operation, or of all
    samples when none is that close.  Returns (round, adjusted elapsed).
    """
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    overall = statistics.median(values)
    out = []
    for rnd, start, elapsed in ops:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + elapsed + WINDOW_S)
        local = statistics.median(values[lo:hi]) if hi > lo else overall
        out.append((rnd, elapsed * REFERENCE_S / local))
    return out

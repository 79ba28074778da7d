"""Time the program's set-up for one workload in a fresh interpreter:
import pfhaf, make the workload's instances, run one warm-up operation.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds, then the median of three calibration samples
taken right after, which gauge the machine's speed at that moment.
run.py starts this several times per run.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (importing it imports pfhaf)

workloads.set_up(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - start

import statistics  # noqa: E402  (after the timing: it imports fractions)

import calibration  # noqa: E402

print(elapsed, statistics.median(calibration.sample() for _ in range(3)))

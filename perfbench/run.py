"""pfhaf benchmark: one workload, timed end to end (or traced per layer),
every result checked against arithmetic done apart from the program.

    python3 perfbench/run.py --workload hafnian_fast --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import reference
import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hafnian_fast", "perm_fast", "verify_suite", "crossover")
SETUP_SAMPLES = 5


def measure_setup(workload: str, seed: int):
    """Set-up time over fresh interpreters, each importing pfhaf, making the
    instances and running one warm-up operation: (median measured, median
    of the same times at the reference speed, by each probe's own
    calibration)."""
    measured, adjusted = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, calibration_s = map(float, proc.stdout.split()[-2:])
        measured.append(elapsed)
        adjusted.append(elapsed * calibration.REFERENCE_S / calibration_s)
    return statistics.median(measured), statistics.median(adjusted)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB: ``VmHWM`` from
    /proc.  ``ru_maxrss`` is not used because Linux carries into it the
    resident size of the parent that started this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_phase(instances, run_op, seconds: float, calibrate=calibration.sample):
    """Closed loop, one call at a time, whole rounds over ``instances`` until
    ``seconds`` have passed; between operations, a calibration sample every
    CALIBRATION_INTERVAL_S.  Each round starts with a full garbage
    collection, outside any operation's time: cyclic garbage (the memo
    tables of ``hf_recursive``) then piles up for at most one round, instead
    of until wherever the collector's allocation counters happen to fall,
    which made the peak memory of the same code swing by a third.

    Returns ((round, start, elapsed) of each completed operation,
    (time, seconds) of each calibration sample, per-instance
    {value: count}, per-instance raise count).
    """
    outcomes = [{} for _ in instances]
    raised = [0] * len(instances)
    ops, samples = [], []
    clock = time.perf_counter
    start, last_sample = clock(), float("-inf")
    rnd = 0
    while True:
        gc.collect()
        for idx, inst in enumerate(instances):
            if clock() - last_sample >= calibration.CALIBRATION_INTERVAL_S:
                last_sample = clock()
                samples.append((last_sample, calibrate()))
            t0 = clock()
            try:
                value = run_op(inst)
            except Exception:  # a raising operation is a failed one, not a crash
                raised[idx] += 1
                continue
            ops.append((rnd, t0, clock() - t0))
            seen = outcomes[idx]
            seen[value] = seen.get(value, 0) + 1
        rnd += 1
        if clock() - start >= seconds:
            return ops, samples, outcomes, raised


def time_metrics(times):
    """(ops_per_s, op_p50_ms) from (round, elapsed) pairs: completed
    operations per second of their own time in each round, median over the
    rounds; and the median operation time."""
    per_round = {}
    for rnd, elapsed in times:
        count_busy = per_round.setdefault(rnd, [0, 0.0])
        count_busy[0] += 1
        count_busy[1] += elapsed
    ops_per_s = statistics.median(n / busy for n, busy in per_round.values())
    return ops_per_s, statistics.median(e for _, e in times) * 1e3


def check_outcomes(instances, outcomes):
    """Check each distinct value an instance returned; returns the number of
    operations whose value was wrong."""
    wrong = 0
    for inst, seen in zip(instances, outcomes):
        for value, count in seen.items():
            try:
                ok = check_value(inst, value)
            except Exception:  # output the check cannot even read is wrong
                ok = False
            if not ok:
                wrong += count
    return wrong


def check_value(inst, value) -> bool:
    """Check one result of ``inst`` with the reference arithmetic."""
    if inst.kind == "hafnian":
        pc, g = inst.args
        return reference.hafnian_identity_holds(
            pc.xs, {"a": g.a, "b": g.b, "c": g.c}, value)
    if inst.kind == "perm":
        pc, f = inst.args
        return reference.permanent_identity_holds(
            pc.xs, pc.ys, {"a": f.a, "b": f.b, "c": f.c, "d": f.d}, value)
    if inst.kind in ("cell", "witness"):
        return reference.report_line_is_correct(value)
    if inst.kind in ("hafnian both", "perm both"):
        fast, slow = value
        return type(fast) is type(slow) and fast == slow
    raise ValueError(f"no check for {inst.kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import pfhaf from this checkout: {exc}", file=sys.stderr)
        return 2
    if not workloads.program_is_from_checkout():
        print("pfhaf was imported from outside this checkout", file=sys.stderr)
        return 2

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        with tracer.root(spans.SETUP):
            instances = workloads.set_up(args.workload, args.seed)
        with tracer.root(spans.TIMED):
            ops, _, outcomes, raised = timed_phase(
                instances, workloads.run_op, args.seconds,
                tracer.wrap(spans.CALIBRATION, calibration.sample, False))
        tracer.write(HERE / "out" / f"trace-{args.workload}.jsonl")
        metrics = tracer.metrics()
    else:
        setup_s, setup_adjusted = measure_setup(args.workload, args.seed)
        instances = workloads.set_up(args.workload, args.seed)
        ops, samples, outcomes, raised = timed_phase(
            instances, workloads.run_op, args.seconds)
        peak_mb = peak_rss_mb()
        if not ops:
            print("every operation failed", file=sys.stderr)
            return 1
        calibration_s = statistics.median(v for _, v in samples)
        ops_per_s, op_p50_ms = time_metrics([(rnd, e) for rnd, _, e in ops])
        print(json.dumps({"measured": {
            "setup_s": setup_s, "ops_per_s": ops_per_s, "op_p50_ms": op_p50_ms,
            "calibration_s": calibration_s,
        }}), file=sys.stderr)
        ops_per_s, op_p50_ms = time_metrics(calibration.adjust(ops, samples))
        metrics = {
            "setup_s": {"value": setup_adjusted, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    wrong = check_outcomes(instances, outcomes)
    attempted = len(ops) + sum(raised)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": sum(raised) + wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

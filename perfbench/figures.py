"""Regenerate the benchmark's reference figures.

    python3 perfbench/figures.py [--workloads hafnian_fast,crossover] [--no-trace]

For each workload: ten untraced runs of run.py, seeds 1..10, each as long
as ``run_seconds`` in BENCHMARK.json, then one traced run with seed 1 and
a measurement of the cost of tracing.  Prints, per workload, the median
and quartiles of every end-to-end metric with its spread (interquartile
range over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) next to its bound, the per-layer self times and shares of the
traced timed phase (read from the traced run's span file), and the cost of
tracing.  The raw results go to perfbench/out/figures.json.
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
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACING_COST_S = 40.0
CHUNK_S = 0.25


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:  # run.py reports the unscaled times on stderr
        result["measured"] = json.loads(proc.stderr.strip().splitlines()[-1])["measured"]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def tracing_cost(workload, seed):
    """Time per operation traced over untraced, minus 1, and the number of
    rounds it is the median of.

    The instances are cut into groups of consecutive instances (chunks) of at
    least CHUNK_S of work, timed in one untraced round first.  Each round,
    in this one process, runs every chunk twice in a row, once untraced and
    once traced, in alternating order, so the machine's drift falls alike on
    both; the ratio of a round is the sum of the traced operations' own
    times over that of the untraced ones, as ``ops_per_s`` counts them.
    Chunks rather than single operations, because switching the wrappers
    on and off costs the sub-millisecond operations of verify_suite more
    than tracing does."""
    instances = workloads.set_up(workload, seed)
    tracer = spans.Tracer()

    def work_s(chunk, traced):
        if traced:
            tracer.install()
        try:
            total = 0.0
            for inst in chunk:
                t0 = time.perf_counter()
                workloads.run_op(inst)
                total += time.perf_counter() - t0
            return total
        finally:
            tracer.uninstall()

    chunks, chunk, chunk_s = [], [], 0.0
    for inst in instances:
        chunk.append(inst)
        chunk_s += work_s([inst], False)
        if chunk_s >= CHUNK_S:
            chunks.append(chunk)
            chunk, chunk_s = [], 0.0
    if chunk:
        chunks.append(chunk)
    ratios = []
    start = time.perf_counter()
    while len(ratios) < 4 or time.perf_counter() - start < TRACING_COST_S:
        gc.collect()
        took = {False: 0.0, True: 0.0}
        for idx, chunk in enumerate(chunks):
            for traced in (False, True) if (idx + len(ratios)) % 2 else (True, False):
                took[traced] += work_s(chunk, traced)
        ratios.append(took[True] / took[False])
    return statistics.median(ratios) - 1, len(ratios)


def summarize(workload, runs, traced, seed, spec):
    print(f"\n### {workload}\n")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
          f"failed share {sorted(shares)}, all correct: {all(r['correct'] for r in runs)}\n")
    print("| metric | unit | median | q1 | q3 | spread | bound | spread, one scale per run | spread unscaled |")
    print("|---|---|---|---|---|---|---|---|---|")
    cal = [r["measured"]["calibration_s"] for r in runs]
    for m in spec["end_to_end"]:
        name = m["name"]
        q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
        row = [name, m["unit"], f"{med:.4g}", f"{q1:.4g}", f"{q3:.4g}",
               f"{(q3 - q1) / med:.3f}", str(m["bound"])]
        if name in ("ops_per_s", "op_p50_ms"):
            # The same times divided once by the run's median calibration
            # sample, instead of by the samples around each operation.
            power = 1 if name == "ops_per_s" else -1
            measured = [r["measured"][name] for r in runs]
            one_scale = [v * (c / calibration.REFERENCE_S) ** power
                         for v, c in zip(measured, cal)]
            row += [f"{spread(one_scale):.3f}", f"{spread(measured):.3f}"]
        elif name == "setup_s":
            row += ["", f"{spread([r['measured'][name] for r in runs]):.3f}"]
        else:
            row += ["", ""]
        print("| " + " | ".join(row) + " |")
    print(f"\nCalibration sample, median per run: {min(cal) * 1e3:.2f}-{max(cal) * 1e3:.2f} ms.")
    if traced is None:
        return
    with open(HERE / "out" / f"trace-{workload}.jsonl") as fh:
        totals = spans.layer_totals([json.loads(line) for line in fh], root=spans.TIMED)
    wall_ns = totals[spans.TIMED][2]
    print(f"\nTraced run (seed {seed}), timed phase only: {wall_ns / 1e6:.0f} ms, "
          f"{traced['attempted']} operations.\n")
    print("| layer | self ms | share | calls |")
    print("|---|---|---|---|")
    for layer, (self_ns, calls, _) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"| {layer} | {self_ns / 1e6:.1f} | {self_ns / wall_ns:.1%} | {calls} |")
    self_sum = sum(t[0] for t in totals.values())
    cost, rounds = traced["tracing_cost"]
    print(f"\nSelf times sum to {self_sum} ns; the timed phase took {wall_ns} ns.  "
          f"Tracing costs {cost:+.1%} time per operation (median over {rounds} "
          f"rounds of paired untraced and traced operations, seed {seed}).")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)

    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
        traced = None
        if not args.no_trace:
            traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
            traced["tracing_cost"] = tracing_cost(workload, SEEDS[0])
        raw[workload] = {"runs": runs, "traced": traced}
        summarize(workload, runs, traced, SEEDS[0], spec)
        sys.stdout.flush()
    out = HERE / "out" / "figures.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own checks: each accepts the true result and
rejects a deliberately wrong one.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from pfhaf import kernels, matrix, structured, verify

HERE = Path(__file__).resolve().parent
P = reference.PRIMES[0]


def _random_rows(rng, n, skew):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if skew and j <= i:
                continue
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j] = v
            if skew:
                rows[j][i] = -v
    return rows


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pf_mod_matches_matching_sum(n):
    rng = random.Random(n)
    for _ in range(20):
        rows = _random_rows(rng, n, skew=True)
        rows[0][1] = rows[1][0] = 0  # forces a pivot swap
        mod = [[reference.rat_mod(v, P) for v in row] for row in rows]
        assert reference.pf_mod(mod, P) == reference.rat_mod(reference.pf_matchings(rows), P)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_det_mod_matches_leibniz(n):
    rng = random.Random(n)
    for _ in range(20):
        rows = _random_rows(rng, n, skew=False)
        rows[0][0] = 0
        mod = [[reference.rat_mod(v, P) for v in row] for row in rows]
        assert reference.det_mod(mod, P) == reference.rat_mod(reference.det_leibniz(rows), P)


def test_matching_sums_match_the_program_oracles():
    rng = random.Random(7)
    skew = _random_rows(rng, 6, skew=True)
    assert reference.pf_matchings(skew) == kernels.pf_oracle(kernels.SquareMatrix(skew))
    sym = _random_rows(rng, 6, skew=False)
    sym = [[sym[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    assert reference.hf_matchings(sym) == kernels.hf_oracle(kernels.SquareMatrix(sym))
    assert reference.perm_leibniz(sym) == kernels.perm_oracle(kernels.SquareMatrix(sym))


def _hafnian_instance(seed):
    return workloads.build_hafnian_fast(seed)[0]


def test_hafnian_check_accepts_truth_and_rejects_plus_one():
    inst = _hafnian_instance(3)
    value = workloads.run_op(inst)
    assert run.check_value(inst, value)
    assert not run.check_value(inst, value + 1)
    assert not run.check_value(inst, -value)


def test_hafnian_identity_against_brute_force():
    g = {"a": Fraction(1, 2), "b": Fraction(-1, 3), "c": Fraction(2)}
    xs = [Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(3), Fraction(-4), Fraction(9, 2)]
    haf = reference.hf_matchings(reference._hafnian_mat(xs, g))
    assert reference.hafnian_identity_holds(xs, g, haf)
    assert not reference.hafnian_identity_holds(xs, g, haf + 1)


def test_permanent_check_accepts_truth_and_rejects_plus_one():
    inst = workloads.build_perm_fast(5)[0]
    value = workloads.run_op(inst)
    assert run.check_value(inst, value)
    assert not run.check_value(inst, value + 1)
    pc, f = inst.args
    small = structured.PointConfig(pc.xs[:4], pc.ys[:4])
    truth = reference.perm_leibniz([[1 / f(x, y) for y in small.ys] for x in small.xs])
    form = {"a": f.a, "b": f.b, "c": f.c, "d": f.d}
    assert reference.permanent_identity_holds(small.xs, small.ys, form, truth)
    assert not reference.permanent_identity_holds(small.xs, small.ys, form, truth + 1)


def _corrupt(line, key):
    obj = json.loads(line)
    obj[key] = str(Fraction(obj[key]) + 1)
    return json.dumps(obj)


@pytest.mark.parametrize("identity", [i.value for i in verify.IdentityId])
def test_report_check_accepts_truth_and_rejects_corruption(identity):
    for inst in workloads.build_verify_suite(11):
        if inst.kind == "cell" and inst.args[1].value == identity and inst.args[2] <= 3:
            line = workloads.run_op(inst)
            assert reference.report_line_is_correct(line), inst.label
            assert not reference.report_line_is_correct(_corrupt(line, "lhs"))
            assert not reference.report_line_is_correct(_corrupt(line, "rhs"))
            obj = json.loads(line)
            obj["pass"] = False
            assert not reference.report_line_is_correct(json.dumps(obj))


def test_witness_check_accepts_truth_and_rejects_corruption():
    witnesses = [i for i in workloads.build_verify_suite(4) if i.kind == "witness"]
    fields = set()
    for inst in witnesses[:3] + witnesses[-1:]:
        line = workloads.run_op(inst)
        fields.add(json.loads(line)["params"]["field"] == "rational")
        assert reference.report_line_is_correct(line), inst.label
        assert not reference.report_line_is_correct(_corrupt(line, "lhs"))
        obj = json.loads(line)
        next_check = next(iter(obj["params"]["checks"]))
        obj["params"]["checks"][next_check] = False
        assert not reference.report_line_is_correct(json.dumps(obj))
    assert fields == {True, False}


def test_crossover_check_needs_equal_values():
    inst = workloads.Instance("x", "hafnian both", ())
    v = Fraction(7, 3)
    assert run.check_value(inst, (v, Fraction(7, 3)))
    assert not run.check_value(inst, (v, v + 1))


def test_wrong_and_raising_operations_count_as_failed():
    instances = workloads.build_perm_fast(2)[:2]

    def wrong_op(inst):
        return workloads.run_op(inst) + 1

    ops, samples, outcomes, raised = run.timed_phase(instances, wrong_op, 0)
    assert len(ops) == 2 and raised == [0, 0] and len(samples) == 1
    assert run.check_outcomes(instances, outcomes) == 2

    def unreadable_op(inst):
        return "not a number"

    _, _, outcomes, _ = run.timed_phase(instances, unreadable_op, 0)
    assert run.check_outcomes(instances, outcomes) == 2

    def raising_op(inst):
        raise ZeroDivisionError

    ops, _, outcomes, raised = run.timed_phase(instances, raising_op, 0)
    assert ops == [] and raised == [1, 1]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_traced_self_times_add_up_to_the_wall_time():
    proc = _run(HERE.parent, "--workload", "verify_suite", "--seed", "2",
                "--seconds", "0.3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["matrix.SquareMatrix.calls"] > 0
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    wall = metrics["bench.setup.wall_ms"] + metrics["bench.timed.wall_ms"]
    assert self_total == pytest.approx(wall, abs=1e-3)
    # Within the timed phase alone the sum is exact, in nanoseconds.
    with open(HERE / "out" / "trace-verify_suite.jsonl") as fh:
        recorded = [json.loads(line) for line in fh]
    timed = spans.layer_totals(recorded, root=spans.TIMED)
    assert sum(t[0] for t in timed.values()) == timed[spans.TIMED][2]


def test_uninstall_puts_back_every_wrapped_function():
    originals = (kernels.pf_fraction_free, structured.pf_fraction_free,
                 matrix.SquareMatrix.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert structured.pf_fraction_free is not originals[1]
        structured.fast_cauchy_hafnian(*workloads.build_hafnian_fast(1)[0].args)
    finally:
        tracer.uninstall()
    assert (kernels.pf_fraction_free, structured.pf_fraction_free,
            matrix.SquareMatrix.__init__) == originals
    names = {rec[0] for rec in tracer.spans()}
    assert {"structured.fast_cauchy_hafnian", "kernels.pf_fraction_free"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "perm_fast", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

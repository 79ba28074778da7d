import ast
import hashlib
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pfhaf.cli import build_parser, main
from pfhaf.kernels import det_oracle, hf_oracle, perm_oracle, pf_oracle
from pfhaf.scalar import parse_rat, render_scalar
from pfhaf import cli, verify
from pfhaf.verify import IdentityId
from pfhaf.structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ------------------------------------------------------------------


def test_eval_pf_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n-1,0\n")
    code, out, _ = run(capsys, "eval", "--csv", str(path), "--fn", "pf")
    assert code == 0
    assert out.strip() == "1"


def test_eval_hf_csv_all_ones(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,1,1,1\n1,1,1,1\n1,1,1,1\n1,1,1,1\n")
    code, out, _ = run(capsys, "eval", "--csv", str(path), "--fn", "hf")
    assert code == 0
    assert out.strip() == "3"


def test_eval_oracle_and_fast_agree(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1/2,2/3,3\n-1,0,5/7\n2,2,1/5\n")
    results = {}
    for algo in ("oracle", "fast"):
        code, out, _ = run(
            capsys, "eval", "--csv", str(path), "--fn", "det", "--algorithm", algo
        )
        assert code == 0
        results[algo] = out.strip()
    assert results["oracle"] == results["fast"]


def test_eval_decimal_annotation(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    code, out, _ = run(
        capsys, "eval", "--csv", str(path), "--fn", "det", "--decimal", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "-2"
    assert lines[1].startswith("~ -2.000")


def test_eval_prints_values_past_the_int_str_digit_limit(tmp_path, capsys):
    big = "1" + "0" * 3000
    path = tmp_path / "m.csv"
    path.write_text(f"{big},0\n0,{big}\n")
    limit = sys.get_int_max_str_digits()
    try:
        code, out, _ = run(capsys, "eval", "--csv", str(path), "--fn", "det")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out.strip() == "1" + "0" * 6000


def test_eval_bad_functional_input_is_error(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")  # not skew
    code, _, err = run(capsys, "eval", "--csv", str(path), "--fn", "pf")
    assert code == 1
    assert "error:" in err


# -- structured ------------------------------------------------------------


def test_structured_perm_example(capsys):
    code, out, _ = run(
        capsys, "structured", "--xs", "1,2", "--ys", "3,4", "--target", "perm"
    )
    assert code == 0
    assert out.strip() == "49/600"


def test_structured_hafnian_example(capsys):
    code, out, _ = run(
        capsys, "structured", "--xs", "1,2", "--target", "hafnian", "--crosscheck"
    )
    assert code == 0
    assert out.strip() == "1/3"


def test_structured_det_crosscheck(capsys):
    code, out, _ = run(
        capsys,
        "structured",
        "--xs",
        "1,2,3",
        "--ys",
        "4,5,6",
        "--target",
        "det",
        "--crosscheck",
    )
    assert code == 0
    parse_rat(out.strip())  # printed value round-trips


def test_structured_crosscheck_mismatch_fails(capsys, monkeypatch):
    cls, fast, kernel, build = cli._TARGETS["det"]
    monkeypatch.setitem(cli._TARGETS, "det", (cls, fast, lambda m: kernel(m) + 1, build))
    code, out, err = run(
        capsys, "structured", "--xs", "1,2", "--ys", "3,4", "--target", "det", "--crosscheck"
    )
    assert code == 1
    assert out == ""
    assert err == "crosscheck FAILED: fast=1/600 kernel=601/600\n"


def test_structured_large_hafnian_completes_but_refuses_crosscheck(capsys):
    xs = ",".join(str(i) for i in range(1, 41))
    code, out, _ = run(capsys, "structured", "--xs", xs, "--target", "hafnian")
    assert code == 0
    parse_rat(out.strip())
    code, _, err = run(
        capsys, "structured", "--xs", xs, "--target", "hafnian", "--crosscheck"
    )
    assert code == 1
    assert "error:" in err


def test_structured_pole_is_error(capsys):
    code, _, err = run(
        capsys,
        "structured",
        "--xs",
        "1,2",
        "--ys",
        "1/2,1/3",
        "--form",
        "1-xy",
        "--target",
        "perm",
    )
    assert code == 1
    assert "error:" in err


def test_structured_degenerate_form_suggests_fallback(capsys):
    code, _, err = run(
        capsys,
        "structured",
        "--xs",
        "1,2",
        "--form",
        "1,2,4",
        "--target",
        "hafnian",
    )
    assert code == 1
    assert "hf_recursive" in err
    assert "--algorithm" not in err  # structured has no such flag


@pytest.mark.parametrize(
    "argv",
    [
        ("--xs", "", "--target", "hafnian"),
        ("--xs", " , ", "--target", "pf", "--crosscheck"),
        ("--xs", "", "--ys", "", "--target", "perm"),
    ],
    ids=["hafnian", "pf-crosscheck", "perm"],
)
def test_structured_empty_points_refused(capsys, argv):
    # the empty point set has value 1, but an empty --xs is a mistyped input
    code, out, err = run(capsys, "structured", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--xs has no points" in err


XY = PointConfig([1, 2, 3], [4, 5, 6])
XS = PointConfig([1, 2, 3, 4])
# target -> (points, form class, oracle, the matrix the oracle reads)
TARGETS = {
    "det": (XY, BilinearForm, det_oracle, build_cauchy),
    "perm": (XY, BilinearForm, perm_oracle, build_cauchy),
    "pf": (XS, SymmetricForm, pf_oracle, build_schur),
    "hafnian": (XS, SymmetricForm, hf_oracle, build_hafnian_mat),
}


@pytest.mark.parametrize("target", TARGETS)
def test_structured_target_table(capsys, target):
    pc, cls, oracle, build = TARGETS[target]
    bilinear = cls is BilinearForm
    xs = ["structured", "--target", target, "--xs", ",".join(map(str, pc.xs))]
    ys = ["--ys", ",".join(map(str, pc.ys)) if bilinear else "5,6,7,8"]
    argv = xs + ys if bilinear else xs
    coeffs = (2, 1, 3, -1) if bilinear else (1, 2, -3)
    for text, form in (
        ("1-xy", cls.from_name("1-xy")),
        (",".join(map(str, coeffs)), cls(*coeffs)),
    ):
        code, out, _ = run(capsys, *argv, "--form", text, "--crosscheck")
        assert code == 0
        assert out.strip() == render_scalar(oracle(build(pc, form)))
    # a coefficient count of the other form class names this one's
    wrong, expected = (
        ("1,2,3", "4 coefficients a,b,c,d of a BilinearForm")
        if bilinear
        else ("1,2,3,4", "3 coefficients a,b,c of a SymmetricForm")
    )
    code, out, err = run(capsys, *argv, "--form", wrong)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and expected in err
    # the bilinear targets need the y points, the symmetric ones refuse them
    code, out, err = run(capsys, *(xs if bilinear else xs + ys))
    assert (code, out) == (1, "")
    refused = "need equally many x and y points" if bilinear else "got y points"
    assert err.startswith("error:") and refused in err


# the "Command line" examples of README.md, each run through main; a file
# a line names is this skew matrix, in a temporary directory.
README = Path(__file__).resolve().parent.parent / "README.md"
SKEW_CSV = "0,1,2,3\n-1,0,4,5\n-2,-4,0,6\n-3,-5,-6,0\n"


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pfhaf ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys, line):
    command, _, value = line.partition("#")
    argv = shlex.split(command)[1:]
    if "--csv" in argv:
        monkeypatch.chdir(tmp_path)
        (tmp_path / argv[argv.index("--csv") + 1]).write_text(SKEW_CSV)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if value.strip():
        assert out.splitlines()[0] == value.strip()


def test_readme_library_quick_start_runs():
    # runs the "Library quick start" block, keeping each bare call's value
    # under the name of the function it calls
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[stmt.value.func.id] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values["fast_cauchy_perm"] == Fraction(49, 600)
    assert values["summarize"]["failed"] == 0


# -- verify ----------------------------------------------------------------


def test_verify_only_filter_json_lines(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--seed",
        "7",
        "--sizes",
        "1,2",
        "--trials",
        "2",
        "--only",
        "SCHUR1,MAIN1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert "summary" in records[-1]
    body = records[:-1]
    assert len(body) == 8
    assert {r["identity"] for r in body} == {"SCHUR1", "MAIN1"}
    assert all(r["pass"] for r in body)
    assert all("elapsed" not in r for r in body)


def test_verify_size_beyond_a_kernel_guard_is_refused_first(capsys):
    # size 9 is within hf_recursive's guard and size 12 is not: the sweep is
    # refused before size 9 is computed, so no report line is printed
    code, out, err = run(
        capsys, "verify", "--sizes", "9,12", "--only", "MAIN1", "--trials", "1"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: MAIN1 at size 12 is beyond the hf_recursive guard: "
        "MAIN1 supports sizes up to 11\n"
    )


def test_verify_deterministic_output(capsys):
    a = run(capsys, "verify", "--seed", "3", "--sizes", "1", "--trials", "2")
    b = run(capsys, "verify", "--seed", "3", "--sizes", "1", "--trials", "2")
    assert a == b
    assert a[0] == 0


def test_verify_timings_flag(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--sizes",
        "1",
        "--trials",
        "1",
        "--only",
        "SCHUR1",
        "--timings",
    )
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert "elapsed" in first


# sha256 of `pfhaf verify --seed 42 --sizes 1..4 --trials 5` stdout (321 lines)
VERIFY_GOLDEN = "d41b350bc2222c597a2c072eb0a2b7f1794ecb7290c94790a9e4a230dc6090de"


def test_verify_output_matches_golden_digest(capsys):
    code, out, _ = run(
        capsys, "verify", "--seed", "42", "--sizes", "1..4", "--trials", "5"
    )
    assert code == 0
    assert len(out.splitlines()) == 321
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN


# -- malformed input -------------------------------------------------------


def refused(capsys, *argv):
    """Exit status and stderr of a command line that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_bench_subcommand_is_gone(capsys):
    code, err = refused(capsys, "bench")
    assert code == 2
    assert "invalid choice: 'bench'" in err


def test_eval_algorithm_is_fast_or_oracle(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    code, err = refused(
        capsys, "eval", "--csv", str(path), "--fn", "det", "--algorithm", "auto"
    )
    assert code == 2
    assert "choose from 'fast', 'oracle'" in err


@pytest.mark.parametrize("sizes", ["1..x", "1.."])
def test_verify_malformed_sizes_refused(capsys, sizes):
    code, err = refused(capsys, "verify", "--sizes", sizes)
    assert code == 2
    assert "argument --sizes: not a size list" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--trials", "0"), "argument --trials: must be >= 1, got 0"),
        (("--trials", "-2"), "argument --trials: must be >= 1, got -2"),
        (("--sizes", ","), "argument --sizes: no sizes in ','"),
        (("--sizes", "0"), "argument --sizes: sizes must be >= 1, got 0"),
        (("--sizes", "-1"), "argument --sizes: sizes must be >= 1, got -1"),
    ],
)
def test_verify_empty_sweep_refused(capsys, argv, message):
    code, err = refused(capsys, "verify", *argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--trials", "x"), "argument --trials: must be an integer >= 1, got 'x'"),
        (
            ("eval", "--csv", "m.csv", "--fn", "det", "--decimal", "x"),
            "argument --decimal: digits must be an integer >= 0, got 'x'",
        ),
        (
            ("structured", "--xs", "1,2", "--target", "hafnian", "--decimal", "1.5"),
            "argument --decimal: digits must be an integer >= 0, got '1.5'",
        ),
    ],
    ids=["verify-trials", "eval-decimal", "structured-decimal"],
)
def test_non_integer_count_names_the_valid_range(capsys, argv, message):
    code, err = refused(capsys, *argv)
    assert code == 2
    assert message in err
    assert "_positive" not in err and "_digits" not in err and "invalid" not in err


def test_verify_unknown_identity_lists_valid_ids(capsys):
    code, err = refused(capsys, "verify", "--only", "FOO")
    assert code == 2
    assert "unknown identity id in 'FOO'" in err
    assert "CAUCHY1" in err and "DEGENERATE_PF" in err


def test_verify_only_without_an_id_is_refused(capsys):
    code, err = refused(capsys, "verify", "--only", ",")
    assert code == 2
    assert "argument --only: no identity ids in ','" in err


def test_eval_negative_decimal_refused(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    code, err = refused(
        capsys, "eval", "--csv", str(path), "--fn", "det", "--decimal", "-1"
    )
    assert code == 2
    assert "argument --decimal: digits must be >= 0" in err


def test_structured_negative_decimal_refused(capsys):
    code, err = refused(
        capsys, "structured", "--xs", "1,2", "--target", "hafnian", "--decimal", "-2"
    )
    assert code == 2
    assert "argument --decimal: digits must be >= 0" in err


@pytest.mark.parametrize("subcommand", ["eval", "structured"])
@pytest.mark.parametrize("digits", [200_001, 10**9])
def test_decimal_above_the_cap_refused_at_once(tmp_path, capsys, subcommand, digits):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    argv = {
        "eval": ("eval", "--csv", str(path), "--fn", "det"),
        "structured": ("structured", "--xs", "1,2", "--target", "hafnian"),
    }[subcommand]
    start = time.perf_counter()
    code, err = refused(capsys, *argv, "--decimal", str(digits))
    # Rendering 10**9 digits would take days; the refusal reads only argv.
    assert time.perf_counter() - start < 5
    assert code == 2
    assert f"argument --decimal: digits must be <= 200000, got {digits}" in err


def test_counts_past_the_int_string_limit(tmp_path, capsys):
    # More than CPython's 4,300 digits is still an integer: it gets the
    # refusal its value earns, and the message shows 20 of its characters.
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    nines = "9" * 5000
    code, err = refused(
        capsys, "eval", "--csv", str(path), "--fn", "det", "--decimal", nines
    )
    assert code == 2
    assert err.endswith(
        "argument --decimal: digits must be <= 200000, got "
        f"{nines[:20]}... (5000 characters)\n"
    )
    assert len(err) < 1000
    code, err = refused(capsys, "verify", "--trials", "-" + nines)
    assert code == 2
    assert err.endswith(
        f"argument --trials: must be >= 1, got -{nines[:19]}... (5001 characters)\n"
    )
    code, err = refused(capsys, "verify", "--trials", nines + "x")
    assert code == 2
    assert err.endswith(
        f"argument --trials: must be an integer >= 1, got '{nines[:20]}'... "
        "(5001 characters)\n"
    )
    # 5,000 zeros and a one is one trial
    one = "0" * 5000 + "1"
    code, out, _ = run(
        capsys, "verify", "--trials", one, "--sizes", "1", "--only", "SCHUR1"
    )
    assert code == 0
    assert len(out.splitlines()) == 2


def test_verify_seed_past_the_int_string_limit(capsys):
    # A seed of 5,000 digits is a seed like any other; junk is refused
    # with a short echo, naming the option.
    sevens = "7" * 5000
    code, out, _ = run(
        capsys, "verify", "--seed", sevens, "--sizes", "1", "--trials", "1",
        "--only", "MAIN1",
    )
    assert code == 0
    report, summary = map(json.loads, out.splitlines())
    assert report["pass"] and summary["summary"]["passed"] == 1
    code, err = refused(capsys, "verify", "--seed", "x")
    assert code == 2
    assert err.endswith("argument --seed: must be an integer, got 'x'\n")
    code, err = refused(capsys, "verify", "--seed", sevens + "x")
    assert code == 2
    assert err.endswith(
        f"argument --seed: must be an integer, got '{sevens[:20]}'... "
        "(5001 characters)\n"
    )


def test_verify_size_range_beyond_the_guards_refused_at_once(capsys):
    # The range is read lazily, and run_suite refuses its first size beyond
    # the sweep's limit, the smallest guard, as it reads it.
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--sizes", "1..3000000")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == ""
    assert err == (
        "error: GEN_MAIN at size 12 is beyond the hf_recursive guard: "
        "GEN_MAIN supports sizes up to 11\n"
    )


def test_verify_polynomial_identities_capped_at_once(capsys, monkeypatch):
    # SCHUR1 has no kernel guard; the suite's cap refuses the range at its
    # size 26, as it reads it, before any cell runs.
    monkeypatch.setattr(verify, "check_identity", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--only", "SCHUR1", "--sizes", "1..3000000")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == (
        "error: SCHUR1 at size 26 is beyond the suite's largest size: "
        "SCHUR1 supports sizes up to 25\n"
    )


def test_verify_size_list_is_sorted_and_each_size_once():
    sizes = build_parser().parse_args(["verify", "--sizes", "4,1..3,2..5,9..8"]).sizes
    assert list(sizes) == [1, 2, 3, 4, 5]


def test_decimal_at_the_cap_is_rendered(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    code, out, _ = run(
        capsys, "eval", "--csv", str(path), "--fn", "det", "--decimal", "200000"
    )
    assert code == 0
    assert out.splitlines()[1] == f"~ -2.{'0' * 200_000} (approximate)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n-1\n", "not square"),
        ("0,1\n-1,x\n", "not a rational: 'x'"),
        ("", "has no rows"),
        ("\n\n\n", "has no rows"),
    ],
    ids=["ragged", "not-rational", "empty", "blank-lines"],
)
def test_malformed_csv_is_error(tmp_path, capsys, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code, _, err = run(capsys, "eval", "--fn", "det", "--csv", str(path))
    assert code == 1
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("cell", ["1e1000000", "1e-1000000", "2E3"])
def test_exponent_cell_is_refused_at_once(tmp_path, capsys, cell):
    # Nine characters of exponent would be a million-digit integer, and
    # rendering it would take minutes.
    path = tmp_path / "m.csv"
    path.write_text(f"{cell},0\n0,1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--fn", "det", "--csv", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == f"error: not a rational: {cell!r} (write it as p/q or p, with no exponent)\n"


def test_exponent_point_is_refused(capsys):
    code, out, err = run(capsys, "structured", "--xs=1e1000000,2", "--target", "pf")
    assert code == 1
    assert out == ""
    assert err.startswith("error: not a rational: '1e1000000'")


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "eval", "--csv", "/nonexistent.csv", "--fn", "det")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe1,2\n3,4\n", "'utf-8' codec can't decode byte 0xff"),
        (b"1," + b"1" * 131_073 + b"\n", "field larger than field limit"),
    ],
    ids=["not-utf8", "field-over-the-limit"],
)
def test_unreadable_csv_is_error(tmp_path, capsys, data, message):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    code, _, err = run(capsys, "eval", "--fn", "det", "--csv", str(path))
    assert code == 1
    assert err.startswith(f"error: --csv {path} cannot be read as CSV: ") and message in err
    assert "Traceback" not in err


# -- every subcommand, argv drawn from its grammar ---------------------------
#
# Each run returns 0, 1 or 2 (argparse's usage errors) and raises nothing
# else, so it prints no traceback; sizes stay below the helper thresholds and
# the exponential kernels' guards, and each run has a time budget (deadline).

CLI_SETTINGS = settings(max_examples=100, deadline=5000)
RATIONALS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).map(str)
CELLS = st.one_of(
    RATIONALS, RATIONALS, RATIONALS,
    st.sampled_from(["", " ", "x", "1/0", "\u22122", "1.5", "\x00", "1e9", "1e-9", "2E3"]),
)
DECIMAL = st.one_of(st.none(), st.none(), st.integers(0, 30).map(str),
                    st.sampled_from(["-1", "x", "1e3"]))


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def with_decimal(argv, decimal):
    return argv if decimal is None else [*argv, "--decimal", decimal]


@st.composite
def csv_bytes(draw):
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=n, max_size=n))
    grid = "\n".join(",".join(row) for row in rows).encode()
    return draw(st.sampled_from([
        grid,
        grid,
        b"\xff\xfe" + grid,
        grid.replace(b",", b",\x00", 1),
        b"1," + b"1" * 131_073 + b"\n" + grid,
        draw(st.binary(max_size=48)),
    ]))


@CLI_SETTINGS
@given(data=csv_bytes(), fn=st.sampled_from(["det", "perm", "pf", "hf"] * 3 + ["trace"]),
       algorithm=st.sampled_from([None, "fast", "oracle"] * 2 + ["auto"]), decimal=DECIMAL)
def test_eval_grammar_ends_in_an_exit_code(tmp_path_factory, data, fn, algorithm, decimal):
    path = tmp_path_factory.mktemp("eval") / "m.csv"
    path.write_bytes(data)
    argv = ["eval", "--csv", str(path), "--fn", fn]
    if algorithm is not None:
        argv += ["--algorithm", algorithm]
    cli_run(with_decimal(argv, decimal))


@st.composite
def structured_argv(draw):
    target = draw(st.sampled_from(["det", "perm", "pf", "hafnian"] * 3 + ["hf"]))
    n = draw(st.integers(0, 4))
    exponents = st.sampled_from(["-1e-9", "1e1000000"])
    points = st.lists(st.one_of(RATIONALS, RATIONALS, RATIONALS, CELLS, exponents),
                      min_size=n, max_size=n)
    # --xs=...: a list that starts with a minus sign is a value, not an option
    argv = ["structured", "--target", target, "--xs=" + ",".join(draw(points))]
    if draw(st.booleans()) if target in ("pf", "hafnian") else draw(st.integers(0, 5)):
        argv.append("--ys=" + ",".join(draw(points)))
    if draw(st.booleans()):
        argv.append("--form=" + draw(st.one_of(
            st.sampled_from(["x+y", "1-xy", "x y", "0,0,0", "1,2", "a,b,c", ""]),
            st.lists(st.integers(-3, 3).map(str), min_size=3, max_size=4).map(",".join),
        )))
    if draw(st.booleans()):
        argv.append("--crosscheck")
    return with_decimal(argv, draw(DECIMAL))


@CLI_SETTINGS
@given(argv=structured_argv())
def test_structured_grammar_ends_in_an_exit_code(argv):
    cli_run(argv)


IDS = [i.value for i in IdentityId]


@st.composite
def verify_argv(draw):
    argv = ["verify", "--seed", str(draw(st.integers(0, 10**6)))]
    only = draw(st.lists(st.sampled_from(IDS), max_size=3, unique=True))
    kind = draw(st.sampled_from(["small"] * 3 + ["beyond", "malformed"]))
    if kind == "small":
        lo = draw(st.integers(1, 4))
        hi = draw(st.integers(lo, 4))
        sizes = draw(st.sampled_from([f"{lo}..{hi}", f"{hi},{lo}", str(lo)]))
    elif kind == "beyond":
        lo = draw(st.integers(26, 10**12))
        sizes = draw(st.sampled_from([str(lo), f"{lo}..{lo + 10**6}"]))
        only.append(draw(st.sampled_from(IDS)))
    else:
        sizes = draw(st.sampled_from(["0", "4..1", "x", "1..", "", "-3..2"]))
    argv += ["--sizes", sizes, "--trials", draw(st.sampled_from(["1", "1", "2", "0", "x"]))]
    if only:
        argv += ["--only", ",".join(only)]
    if draw(st.booleans()):
        argv.append("--timings")
    return argv


@settings(max_examples=50, deadline=5000)
@given(argv=verify_argv())
def test_verify_grammar_ends_in_an_exit_code(argv):
    cli_run(argv)

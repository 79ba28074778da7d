import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

from pfhaf.cli import main
from pfhaf.kernels import det_oracle, hf_oracle, perm_oracle, pf_oracle
from pfhaf.scalar import parse_rat, render_scalar
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\n-1\n", "not square"),
        ("0,1\n-1,x\n", "not a rational: 'x'"),
    ],
    ids=["ragged", "not-rational"],
)
def test_malformed_csv_is_error(tmp_path, capsys, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code, _, err = run(capsys, "eval", "--fn", "det", "--csv", str(path))
    assert code == 1
    assert err.startswith("error:") and message in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "eval", "--csv", "/nonexistent.csv", "--fn", "det")
    assert code == 1
    assert "error:" in err

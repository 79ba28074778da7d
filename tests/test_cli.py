import hashlib
import json
import sys

import pytest

from pfhaf.cli import main
from pfhaf.scalar import parse_rat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ------------------------------------------------------------------


def test_eval_pf_json(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"n": 2, "kind": "skew", "entries": [["0", "1"], ["-1", "0"]]})
    )
    code, out, _ = run(capsys, "eval", "--input", str(path), "--fn", "pf")
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
        "--f",
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
        "--g",
        "1,2,4",
        "--target",
        "hafnian",
    )
    assert code == 1
    assert "hf_recursive" in err
    assert "--algorithm" not in err  # structured has no such flag


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
    "argv, text, message",
    [
        (["eval", "--fn", "det", "--input"], '{"n": 2}', '"entries"'),
        (["eval", "--fn", "det", "--input"], '{"entries": [["1"]', "not valid JSON"),
        (["eval", "--fn", "det", "--input"], '{"entries": [[1, 2], [3, 4]]}', "not a rational: 1"),
        (["eval", "--fn", "det", "--input"], '{"entries": [1, 2]}', '"entries"'),
        (["structured", "--target", "pf", "--points"], '{"ys": ["1", "2"]}', '"xs"'),
        (["structured", "--target", "pf", "--points"], '{"xs": 5}', '"xs"'),
    ],
)
def test_malformed_json_is_error(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("error:") and message in err


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "eval", "--input", "/nonexistent.json", "--fn", "det")
    assert code == 1
    assert "error:" in err

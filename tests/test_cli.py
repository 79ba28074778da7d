import csv
import io
import json
import sys

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


# -- bench -----------------------------------------------------------------


def test_bench_csv_stdout(capsys):
    code, out, _ = run(
        capsys, "bench", "--sizes", "4,6", "--repeats", "1", "--seed", "5"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert set(rows[0]) == {"functional", "algorithm", "n", "median_ns", "digest"}
    # both algorithms computed the same value at each size
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], set()).add(r["digest"])
    assert all(len(digests) == 1 for digests in by_n.values())


def test_bench_to_file_and_perm(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys,
        "bench",
        "--functional",
        "perm",
        "--sizes",
        "3,4",
        "--repeats",
        "1",
        "--output",
        str(path),
    )
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert {r["functional"] for r in rows} == {"perm"}
    assert {r["algorithm"] for r in rows} == {"fast", "exponential"}


def test_bench_empty_sizes_header_only(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "", "--repeats", "1")
    assert code == 0
    assert out.strip() == "functional,algorithm,n,median_ns,digest"


def test_missing_file_is_error(capsys):
    code, _, err = run(capsys, "eval", "--input", "/nonexistent.json", "--fn", "det")
    assert code == 1
    assert "error:" in err

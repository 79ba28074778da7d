"""Command-line surface: eval, structured, verify, bench.

All output values are exact rational text by default; --decimal renders an
approximation for human skimming and is clearly marked as such.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction

from .errors import PfhafError, SizeError
from .kernels import (
    HF_RECURSIVE_MAX,
    evaluate,
    hf_recursive,
    perm_ryser,
    pf_elimination,
    det_bareiss,
)
from .matrix import SquareMatrix
from .scalar import parse_rat, render_scalar
from .structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    cauchy_det_closed,
    fast_cauchy_hafnian,
    fast_cauchy_perm,
    schur_pf_closed,
)
from .verify import IdentityId, gen_points, run_suite, summarize

PERM_CROSSCHECK_MAX = 25


def _decimal_str(value: Fraction, digits: int) -> str:
    neg = value < 0
    v = -value if neg else value
    scaled = v * 10**digits
    whole = scaled.numerator // scaled.denominator
    text = str(whole).rjust(digits + 1, "0")
    out = f"{text[:-digits]}.{text[-digits:]}" if digits else text
    return ("-" if neg else "") + out


def _print_value(value, decimal: int | None):
    print(render_scalar(value))
    if decimal is not None:
        print(f"~ {_decimal_str(Fraction(value), decimal)} (approximate)")


def _load_matrix(args) -> SquareMatrix:
    if args.csv:
        with open(args.csv, newline="") as fh:
            rows = [
                [parse_rat(cell) for cell in row]
                for row in csv.reader(fh)
                if row
            ]
        return SquareMatrix(rows)
    with open(args.input) as fh:
        return SquareMatrix.from_json(json.load(fh))


def _parse_scalar_list(text: str):
    return [parse_rat(part) for part in text.split(",") if part.strip()]


def _parse_sizes(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return sorted(set(out))


def _parse_bilinear(text: str) -> BilinearForm:
    try:
        return BilinearForm.from_name(text)
    except PfhafError:
        coeffs = _parse_scalar_list(text)
        if len(coeffs) != 4:
            raise
        return BilinearForm(*coeffs)


def _parse_symmetric(text: str) -> SymmetricForm:
    try:
        return SymmetricForm.from_name(text)
    except PfhafError:
        coeffs = _parse_scalar_list(text)
        if len(coeffs) != 3:
            raise
        return SymmetricForm(*coeffs)


def _digest(value) -> str:
    return hashlib.sha256(render_scalar(value).encode()).hexdigest()[:12]


# -- subcommands -----------------------------------------------------------


def cmd_eval(args) -> int:
    m = _load_matrix(args)
    result = evaluate(m, args.fn, args.algorithm)
    _print_value(result.value, args.decimal)
    return 0


def cmd_structured(args) -> int:
    if args.points:
        with open(args.points) as fh:
            pc = PointConfig.from_json(json.load(fh))
    else:
        xs = _parse_scalar_list(args.xs)
        ys = _parse_scalar_list(args.ys) if args.ys else None
        pc = PointConfig(xs, ys)

    if args.target in ("det", "perm"):
        form = _parse_bilinear(args.f or "x+y")
        if args.target == "det":
            value = cauchy_det_closed(pc, form)
            check = lambda: det_bareiss(build_cauchy(pc, form, power=1))
        else:
            value = fast_cauchy_perm(pc, form)

            def check():
                if len(pc.xs) > PERM_CROSSCHECK_MAX:
                    raise SizeError(
                        f"perm crosscheck guard is n <= {PERM_CROSSCHECK_MAX}"
                    )
                return perm_ryser(build_cauchy(pc, form, power=1))

    else:
        form = _parse_symmetric(args.g or "x+y")
        if args.target == "pf":
            value = schur_pf_closed(pc, form)
            check = lambda: pf_elimination(
                build_schur(pc, form, power=1, orientation="ji")
            )
        else:
            value = fast_cauchy_hafnian(pc, form)
            check = lambda: hf_recursive(build_hafnian_mat(pc, form))

    if args.crosscheck:
        reference = check()
        if reference != value:
            print(
                f"crosscheck FAILED: fast={render_scalar(value)} "
                f"kernel={render_scalar(reference)}",
                file=sys.stderr,
            )
            return 1
    _print_value(value, args.decimal)
    return 0


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = {IdentityId(name.strip()) for name in args.only.split(",")}
    reports = run_suite(args.seed, _parse_sizes(args.sizes), args.trials, only=only)
    for report in reports:
        obj = report.to_json()
        if not args.timings:
            obj.pop("elapsed")
        print(json.dumps(obj))
    summary = summarize(reports)
    print(json.dumps({"summary": summary}))
    return 0 if summary["failed"] == 0 else 1


def _bench_cases(functional: str, n: int, seed: int):
    """(label, callable) pairs for one functional at dimension n."""
    if functional == "hafnian":
        if n % 2:
            return []
        pc = gen_points(seed + n, n, max_den=1)
        g = SymmetricForm.from_name("x+y")
        b = build_hafnian_mat(pc, g)
        return [
            ("fast", lambda: fast_cauchy_hafnian(pc, g)),
            ("exponential", lambda: hf_recursive(b)),
        ]
    if functional == "perm":
        pc = gen_points(seed + n, n, ys=n, max_den=1)
        f = BilinearForm.from_name("x+y")
        c = build_cauchy(pc, f, power=1)
        return [
            ("fast", lambda: fast_cauchy_perm(pc, f)),
            ("exponential", lambda: perm_ryser(c)),
        ]
    raise PfhafError(f"no benchmark for functional {functional!r}")


def cmd_bench(args) -> int:
    rows = []
    for functional in args.functional:
        for n in _parse_sizes(args.sizes):
            for label, fn in _bench_cases(functional, n, args.seed):
                if label == "exponential" and functional == "hafnian" and n > HF_RECURSIVE_MAX:
                    continue
                if label == "exponential" and functional == "perm" and n > PERM_CROSSCHECK_MAX:
                    continue
                times = []
                value = None
                for _ in range(args.repeats):
                    t0 = time.perf_counter_ns()
                    value = fn()
                    times.append(time.perf_counter_ns() - t0)
                rows.append(
                    {
                        "functional": functional,
                        "algorithm": label,
                        "n": n,
                        "median_ns": int(statistics.median(times)),
                        "digest": _digest(value),
                    }
                )

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        writer = csv.DictWriter(
            out, fieldnames=["functional", "algorithm", "n", "median_ns", "digest"]
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfhaf",
        description="Exact determinants, permanents, Pfaffians and Hafnians, "
        "with polynomial-time fast paths for Cauchy-type matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a functional on a matrix file")
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="matrix JSON file")
    src.add_argument("--csv", help="plain numeric grid, entries parsed as rationals")
    p_eval.add_argument("--fn", required=True, choices=["det", "perm", "pf", "hf"])
    p_eval.add_argument(
        "--algorithm", default="auto", choices=["oracle", "fast", "auto"]
    )
    p_eval.add_argument("--decimal", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_st = sub.add_parser(
        "structured", help="fast paths for Cauchy-type structured matrices"
    )
    pts = p_st.add_mutually_exclusive_group(required=True)
    pts.add_argument("--xs", help="comma-separated rational x points")
    pts.add_argument("--points", help="PointConfig JSON file")
    p_st.add_argument("--ys", help="comma-separated rational y points")
    p_st.add_argument("--f", help='bilinear form: "x+y", "1-xy" or "a,b,c,d"')
    p_st.add_argument("--g", help='symmetric form: "x+y", "1-xy" or "a,b,c"')
    p_st.add_argument(
        "--target", required=True, choices=["det", "perm", "pf", "hafnian"]
    )
    p_st.add_argument("--crosscheck", action="store_true")
    p_st.add_argument("--decimal", type=int, default=None)
    p_st.set_defaults(func=cmd_structured)

    p_ver = sub.add_parser("verify", help="run the exact identity suite")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--sizes", default="1..3", help='e.g. "1..3" or "1,2,4"')
    p_ver.add_argument("--trials", type=int, default=5)
    p_ver.add_argument("--only", help="comma-separated identity ids")
    p_ver.add_argument(
        "--timings", action="store_true", help="keep elapsed fields in the output"
    )
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="time fast paths against exponential kernels"
    )
    p_bench.add_argument(
        "--functional",
        nargs="+",
        default=["hafnian"],
        choices=["hafnian", "perm"],
    )
    p_bench.add_argument("--sizes", default="4..12")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--output", default="-", help="CSV path or - for stdout")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    # Exact values outgrow CPython's default 4300-digit limit on int <-> str
    # conversion (3.10.7+); lift it so such values parse and print.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PfhafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

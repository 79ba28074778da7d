"""Command-line surface: eval, structured, verify.

All output values are exact rational text by default; --decimal renders an
approximation for human skimming and is clearly marked as such.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from fractions import Fraction

from .errors import DomainError, PfhafError
from .kernels import det_bareiss, evaluate, hf_recursive, perm_ryser, pf_elimination
from .matrix import SquareMatrix
from .scalar import parse_rat, render_scalar, unlimited_digits
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
from .verify import IdentityId, run_suite, summarize


def _decimal_str(value: Fraction, digits: int) -> str:
    neg = value < 0
    v = -value if neg else value
    scaled = v * 10**digits
    whole = scaled.numerator // scaled.denominator
    text = unlimited_digits(str, whole).rjust(digits + 1, "0")
    out = f"{text[:-digits]}.{text[-digits:]}" if digits else text
    return ("-" if neg else "") + out


def _print_value(value, decimal: int | None):
    print(render_scalar(value))
    if decimal is not None:
        print(f"~ {_decimal_str(Fraction(value), decimal)} (approximate)")


def _parse_scalar_list(text: str):
    return [parse_rat(part) for part in text.split(",") if part.strip()]


def _parse_sizes(text: str):
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'not a size list: {text!r} (e.g. "1..3" or "1,2,4")'
        ) from None
    if not out:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    if min(out) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {min(out)}")
    return sorted(set(out))


def _parse_identities(text: str):
    try:
        return {IdentityId(n.strip()) for n in text.split(",") if n.strip()} or None
    except ValueError:
        valid = ", ".join(i.value for i in IdentityId)
        raise argparse.ArgumentTypeError(
            f"unknown identity id in {text!r}; valid ids: {valid}"
        ) from None


def _integer(text: str, valid: str) -> int:
    """int(text), or an argparse error saying what a valid value is (left
    to argparse, a ValueError would name the type function instead)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{valid}, got {text!r}") from None


def _digits(text: str) -> int:
    value = _integer(text, "digits must be an integer >= 0")
    if value < 0:
        raise argparse.ArgumentTypeError(f"digits must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = _integer(text, "must be an integer >= 1")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_form(cls, text: str):
    """A named form ("x+y", "1-xy") or its comma-separated coefficients."""
    try:
        return cls.from_name(text)
    except DomainError:
        coeffs = text.split(",")
    names = [f.name for f in fields(cls)]
    if len(coeffs) != len(names):
        raise DomainError(
            f"--form takes a named form ({', '.join(cls._NAMED)}) or the "
            f"{len(names)} coefficients {','.join(names)} of a {cls.__name__}, "
            f"got {text!r}"
        )
    return cls(*(parse_rat(c) for c in coeffs))


# target -> (form class, value, --crosscheck kernel, the matrix it reads);
# the value is fast(pc, form) and the crosscheck kernel(build(pc, form)).
_TARGETS = {
    "det": (BilinearForm, cauchy_det_closed, det_bareiss, build_cauchy),
    "perm": (BilinearForm, fast_cauchy_perm, perm_ryser, build_cauchy),
    "pf": (SymmetricForm, schur_pf_closed, pf_elimination, build_schur),
    "hafnian": (SymmetricForm, fast_cauchy_hafnian, hf_recursive, build_hafnian_mat),
}


# -- subcommands -----------------------------------------------------------


def cmd_eval(args) -> int:
    with open(args.csv, newline="") as fh:
        rows = [[parse_rat(cell) for cell in row] for row in csv.reader(fh) if row]
    _print_value(evaluate(SquareMatrix(rows), args.fn, args.algorithm), args.decimal)
    return 0


def cmd_structured(args) -> int:
    cls, fast, kernel, build = _TARGETS[args.target]
    ys = _parse_scalar_list(args.ys) if args.ys is not None else None
    pc = PointConfig(_parse_scalar_list(args.xs), ys)
    form = _parse_form(cls, args.form)
    value = fast(pc, form)
    if args.crosscheck:
        reference = kernel(build(pc, form))
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
    reports = run_suite(args.seed, args.sizes, args.trials, only=args.only)
    for report in reports:
        obj = report.to_json()
        if not args.timings:
            obj.pop("elapsed")
        print(json.dumps(obj))
    summary = summarize(reports)
    print(json.dumps({"summary": summary}))
    return 0 if summary["failed"] == 0 else 1


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfhaf",
        description="Exact determinants, permanents, Pfaffians and Hafnians, "
        "with polynomial-time fast paths for Cauchy-type matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a functional on a matrix file")
    p_eval.add_argument("--csv", required=True, help="CSV grid of rationals, e.g. 3/4")
    p_eval.add_argument("--fn", required=True, choices=["det", "perm", "pf", "hf"])
    p_eval.add_argument("--algorithm", default="fast", choices=["fast", "oracle"])
    p_eval.add_argument("--decimal", type=_digits, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_st = sub.add_parser(
        "structured", help="fast paths for Cauchy-type structured matrices"
    )
    p_st.add_argument("--xs", required=True, help="comma-separated rational x points")
    p_st.add_argument("--ys", help="comma-separated rational y points (det, perm)")
    form_help = '"x+y" (default), "1-xy", "a,b,c,d" of f (det, perm) or "a,b,c" of g'
    p_st.add_argument("--form", default="x+y", help=form_help)
    p_st.add_argument("--target", required=True, choices=list(_TARGETS))
    p_st.add_argument("--crosscheck", action="store_true")
    p_st.add_argument("--decimal", type=_digits, default=None)
    p_st.set_defaults(func=cmd_structured)

    p_ver = sub.add_parser("verify", help="run the exact identity suite")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument(
        "--sizes", type=_parse_sizes, default="1..3", help='e.g. "1..3" or "1,2,4"'
    )
    p_ver.add_argument("--trials", type=_positive, default=5)
    p_ver.add_argument(
        "--only", type=_parse_identities, help="comma-separated identity ids"
    )
    p_ver.add_argument(
        "--timings", action="store_true", help="keep elapsed fields in the output"
    )
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PfhafError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

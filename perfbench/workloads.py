"""The benchmark's workloads: inputs made from a seed with pfhaf's own
generators, and the one operation each workload times.

Importing this module imports pfhaf from the checkout's ``src`` directory;
that import is part of the set-up the benchmark times.  Every pfhaf
function is looked up through its module at call time (``structured.X``),
so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import pfhaf  # noqa: E402
from pfhaf import kernels, structured, verify  # noqa: E402


def program_is_from_checkout() -> bool:
    """True when the imported pfhaf is the one under this checkout's src."""
    return Path(pfhaf.__file__).resolve().is_relative_to(SRC)


@dataclass(frozen=True)
class Instance:
    """One input of a workload; ``kind`` selects what the operation does."""

    label: str
    kind: str
    args: tuple


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_symmetric_form(rng: random.Random) -> structured.SymmetricForm:
    """g = a xy + b(x+y) + c with a != 0, rational coefficients (denominators
    <= 3) and a nonzero discriminant."""
    while True:
        a, b, c = _rat(rng), _rat(rng), _rat(rng)
        if a != 0 and b * b - a * c != 0:
            return structured.SymmetricForm(a, b, c)


def random_bilinear_form(rng: random.Random) -> structured.BilinearForm:
    """f = a xy + bx + cy + d with a != 0, rational coefficients and
    ad - bc != 0."""
    while True:
        a, b, c, d = _rat(rng), _rat(rng), _rat(rng), _rat(rng)
        if a != 0 and a * d - b * c != 0:
            return structured.BilinearForm(a, b, c, d)


# -- hafnian_fast -----------------------------------------------------------

# (form, 2n, copies), cheapest first.  Each copy is its own seeded instance.
# Run-to-run spread comes mostly from how the random inputs fall: one random
# form's time varies by about 30% (standard deviation over mean) between
# seeds, an x+y instance's by about 7%.  So the random forms come as many
# mid-sized instances rather than a few large ones, and the median
# operation falls in the middle of a block of nine x+y 2n=40 instances, with
# six instances below the block and six above.
HAFNIAN_MIX = (
    ("general", 24, 2), ("general", 28, 4), ("x+y", 40, 9), ("general", 32, 4),
    ("x+y", 56, 2),
)


def _expand(mix):
    return [row[:-1] for row in mix for _ in range(row[-1])]


def build_hafnian_fast(seed: int) -> list[Instance]:
    out = []
    for idx, (kind, m) in enumerate(_expand(HAFNIAN_MIX)):
        rng = _rng(seed, "hafnian_fast", idx)
        if kind == "x+y":
            g = structured.SymmetricForm.from_name("x+y")
            pc = verify.gen_points(rng.randrange(2**31), m, max_den=1)
        else:
            g = random_symmetric_form(rng)
            pc = verify.gen_points(
                rng.randrange(2**31), m, positive=False, lo=-100, hi=100,
                max_den=10, no_pole=g,
            )
        out.append(Instance(f"{kind} 2n={m}", "hafnian", (pc, g)))
    return out


# -- perm_fast --------------------------------------------------------------

# (form, n, copies); the median falls among nine x+y n=20 instances.
PERM_MIX = (
    ("x+y", 12, 2), ("1-xy", 12, 2), ("general", 12, 2), ("x+y", 20, 9),
    ("general", 24, 3), ("1-xy", 28, 2), ("x+y", 32, 1),
)


def _named_or_random_bilinear(kind, rng):
    if kind == "general":
        return random_bilinear_form(rng)
    return structured.BilinearForm.from_name(kind)


def build_perm_fast(seed: int) -> list[Instance]:
    out = []
    for idx, (kind, n) in enumerate(_expand(PERM_MIX)):
        rng = _rng(seed, "perm_fast", idx)
        f = _named_or_random_bilinear(kind, rng)
        pc = verify.gen_points(rng.randrange(2**31), n, ys=n, no_pole=f)
        out.append(Instance(f"{kind} n={n}", "perm", (pc, f)))
    return out


# -- verify_suite -----------------------------------------------------------

SUITE_SIZES = (1, 2, 3, 4)

# (discriminant kind, 2n) for the substitution witnesses.
WITNESS_MIX = (
    ("square", 4), ("square", 6), ("positive non-square", 4),
    ("positive non-square", 6), ("negative", 6),
)


def _is_square(r: Fraction) -> bool:
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _witness_form(rng: random.Random, kind: str) -> structured.SymmetricForm:
    while True:
        g = random_symmetric_form(rng)
        disc = g.disc
        if kind == "square" and _is_square(disc):
            return g
        if kind == "positive non-square" and disc > 0 and not _is_square(disc):
            return g
        if kind == "negative" and disc < 0:
            return g


def _moebius_pole(g: structured.SymmetricForm):
    """The point x where the substitution's denominator a x + b - sqrt(disc)
    vanishes, when that point is rational; else None."""
    if not _is_square(g.disc):
        return None
    s = Fraction(math.isqrt(g.disc.numerator), math.isqrt(g.disc.denominator))
    return (s - g.b) / g.a


def build_verify_suite(seed: int) -> list[Instance]:
    out = [
        Instance(f"{ident.value} size={size}", "cell", (seed, ident, size))
        for ident in verify.IdentityId
        for size in SUITE_SIZES
    ]
    for idx, (kind, m) in enumerate(WITNESS_MIX):
        rng = _rng(seed, "verify_suite", idx)
        g = _witness_form(rng, kind)
        pole = _moebius_pole(g)
        while True:
            pc = verify.gen_points(rng.randrange(2**31), m, no_pole=g)
            if pole not in pc.xs:
                break
        out.append(Instance(f"witness {kind} 2n={m}", "witness", (pc, g)))
    return out


# -- crossover --------------------------------------------------------------

# (functional, form, size, largest point denominator, copies); the median
# falls among the three x+y 2n=20 Hafnians.
CROSSOVER_MIX = (
    ("perm", "general", 12, 10, 2), ("hafnian", "x+y", 20, 1, 3),
    ("perm", "general", 14, 10, 1), ("hafnian", "x+y", 22, 10, 1),
)


def build_crossover(seed: int) -> list[Instance]:
    out = []
    for idx, (target, kind, size, den) in enumerate(_expand(CROSSOVER_MIX)):
        rng = _rng(seed, "crossover", idx)
        if target == "perm":
            f = _named_or_random_bilinear(kind, rng)
            pc = verify.gen_points(rng.randrange(2**31), size, ys=size, max_den=den, no_pole=f)
            out.append(Instance(f"perm {kind} n={size}", "perm both", (pc, f)))
        else:
            g = structured.SymmetricForm.from_name(kind)
            pc = verify.gen_points(rng.randrange(2**31), size, max_den=den)
            out.append(Instance(f"hafnian {kind} 2n={size}", "hafnian both", (pc, g)))
    return out


# -- the operation ----------------------------------------------------------


def _report_line(report) -> str:
    """The JSON line ``pfhaf verify`` prints for a report."""
    obj = report.to_json()
    obj.pop("elapsed")
    return json.dumps(obj)


def run_op(inst: Instance):
    """One operation: a call of the workload's entry point on one instance."""
    kind = inst.kind
    if kind == "hafnian":
        return structured.fast_cauchy_hafnian(*inst.args)
    if kind == "perm":
        return structured.fast_cauchy_perm(*inst.args)
    if kind == "cell":
        seed, ident, size = inst.args
        pc, form, z = verify.make_instance(seed, ident, size, 0)
        report = verify.check_identity(ident, pc, form=form, z=z)
        report.params["size"] = size
        report.params["trial"] = 0
        return _report_line(report)
    if kind == "witness":
        return _report_line(structured.substitution_witness(*inst.args))
    if kind == "hafnian both":
        pc, g = inst.args
        slow = kernels.hf_recursive(structured.build_hafnian_mat(pc, g))
        return structured.fast_cauchy_hafnian(pc, g), slow
    if kind == "perm both":
        pc, f = inst.args
        slow = kernels.perm_ryser(structured.build_cauchy(pc, f, power=1))
        return structured.fast_cauchy_perm(pc, f), slow
    raise ValueError(f"unknown operation kind {kind!r}")


MAKE_INSTANCES = {
    "hafnian_fast": build_hafnian_fast,
    "perm_fast": build_perm_fast,
    "verify_suite": build_verify_suite,
    "crossover": build_crossover,
}


def set_up(workload: str, seed: int) -> list[Instance]:
    """The program's set-up for one workload: make its instances and run one
    warm-up operation on the first (cheapest) of them."""
    instances = MAKE_INSTANCES[workload](seed)
    run_op(instances[0])
    return instances

"""Seeded random instances and the exact verification suite.

Every numbered identity gets an IdentityId and one row of _IDENTITIES, its
(family, form class, named form), which the checks, the instance maker and
the size guards all read; check_identity evaluates both sides of one
instance with bit-exact rational arithmetic and run_suite sweeps identities
x sizes x trials deterministically per seed.  Pointwise verification is
sound here because each identity is an identity of rational functions:
equality at more sample points than the degree bound certifies the identity
itself, and the suite's defaults sample far beyond any single instance's
degree.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

from . import kernels
from .errors import DomainError, GenError, PoleError, SizeError, need
from .kernels import det_bareiss, hf_minors, perm_ryser, pf_elimination
from .matrix import SquareMatrix
from .report import IdentityReport
from .scalar import exact, render_scalar, unlimited_digits
from .structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    _homogeneous,
    _sides,
    _table,
    build_hafnian_mat,
)


class IdentityId(Enum):
    CAUCHY1 = "CAUCHY1"
    CAUCHY2 = "CAUCHY2"
    BORCH1 = "BORCH1"
    BORCH2 = "BORCH2"
    SCHUR1 = "SCHUR1"
    SCHUR2 = "SCHUR2"
    MAIN1 = "MAIN1"
    MAIN2 = "MAIN2"
    GEN_DET = "GEN_DET"
    GEN_BORCH = "GEN_BORCH"
    GEN_SCHUR = "GEN_SCHUR"
    GEN_MAIN = "GEN_MAIN"
    LEMMA1 = "LEMMA1"
    LEMMA2 = "LEMMA2"
    CARLITZ = "CARLITZ"
    DEGENERATE_PF = "DEGENERATE_PF"


@dataclass(frozen=True)
class Rank2Spec:
    """Data for a rank <= 2 matrix a_ij = u_i*v_j + s_i*t_j with no zero
    entries: a zero raises PoleError naming its 1-based pair (i, j)."""

    u: tuple
    v: tuple
    s: tuple
    t: tuple

    def __post_init__(self):
        for k in "uvst":
            try:
                data = tuple(exact(x, "rank-2 data") for x in getattr(self, k))
            except TypeError as exc:
                raise DomainError(f"rank-2 {k} must be a sequence: {exc}") from None
            object.__setattr__(self, k, data)
        if len({len(self.u), len(self.v), len(self.s), len(self.t)}) != 1:
            raise DomainError("rank-2 data u, v, s, t need equal lengths")
        rows = [
            [ui * vj + si * tj for vj, tj in zip(self.v, self.t)]
            for ui, si in zip(self.u, self.s)
        ]
        for i, row in enumerate(rows, 1):
            if 0 in row:
                j = row.index(0) + 1
                raise PoleError(f"rank-2 entry a_({i}, {j}) = 0", pair=(i, j))
        object.__setattr__(self, "_matrix", SquareMatrix(rows))

    def matrix(self) -> SquareMatrix:
        """The matrix, built once at construction."""
        return self._matrix

    def to_json(self) -> dict:
        return {k: [render_scalar(v) for v in getattr(self, k)] for k in "uvst"}


# identity -> (family, form class, named form or None for a random one),
# one row per identity.  The bilinear families run over pairs (x_i, y_j),
# the symmetric ones over a single x list of even length; CARLITZ reads a
# Rank2Spec and no points, and the classless families read points only.
_IDENTITIES = {
    IdentityId.CAUCHY1: ("DET", BilinearForm, "x+y"),
    IdentityId.CAUCHY2: ("DET", BilinearForm, "1-xy"),
    IdentityId.GEN_DET: ("DET", BilinearForm, None),
    IdentityId.BORCH1: ("BORCH", BilinearForm, "x+y"),
    IdentityId.BORCH2: ("BORCH", BilinearForm, "1-xy"),
    IdentityId.GEN_BORCH: ("BORCH", BilinearForm, None),
    IdentityId.SCHUR1: ("SCHUR", SymmetricForm, "x+y"),
    IdentityId.SCHUR2: ("SCHUR", SymmetricForm, "1-xy"),
    IdentityId.GEN_SCHUR: ("SCHUR", SymmetricForm, None),
    IdentityId.MAIN1: ("MAIN", SymmetricForm, "x+y"),
    IdentityId.MAIN2: ("MAIN", SymmetricForm, "1-xy"),
    IdentityId.GEN_MAIN: ("MAIN", SymmetricForm, None),
    IdentityId.LEMMA1: ("LEMMA1", None, None),
    IdentityId.LEMMA2: ("LEMMA2", None, None),
    IdentityId.CARLITZ: ("CARLITZ", Rank2Spec, None),
    IdentityId.DEGENERATE_PF: ("DEGENERATE_PF", None, None),
}
# The families that read a sample point z, and the params key of each class.
_Z_FAMILIES = ("LEMMA1", "LEMMA2")
_PARAM_KEYS = {BilinearForm: "f", SymmetricForm: "g", Rank2Spec: "rank2"}


# -- generators ------------------------------------------------------------

_MAX_ATTEMPTS = 10_000


def _random_rat(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def gen_points(
    seed: int,
    m: int,
    *,
    positive: bool = True,
    lo: int = 1,
    hi: int = 100,
    max_den: int = 10,
    no_pole=None,
    ys: int | None = None,
) -> PointConfig:
    """Deterministically sample m rational points (and optionally ys more)
    satisfying the requested constraints.

    ``no_pole`` is a SymmetricForm or BilinearForm; sampled points are
    rejected while any pair hits a zero of the form, read from the integer
    table of the form at the points, with no Fraction made.  Raises
    GenError when the constraints cannot be met within the attempt budget,
    DomainError for a seed, count, lo, hi or max_den that is not an int, a
    negative count, a max_den below 1 or a no_pole that is not a form.
    """
    _ints(seed=seed, m=m, ys=0 if ys is None else ys, lo=lo, hi=hi, max_den=max_den)
    if no_pole is not None and not isinstance(no_pole, (BilinearForm, SymmetricForm)):
        raise DomainError(f"no_pole must be a form, got {type(no_pole).__name__}")
    if min(m, ys or 0) < 0:
        raise DomainError(f"point counts must be >= 0, got {min(m, ys or 0)}")
    if max_den < 1:
        raise DomainError(f"max_den must be >= 1, got {max_den}")
    if hi < lo:
        raise GenError(f"empty range {lo}..{hi}")
    rng = random.Random(seed)

    def draw(count, taken):
        out = []
        for _ in range(count):
            for _ in range(_MAX_ATTEMPTS):
                v = _random_rat(rng, lo, hi, max_den)
                if (positive and v <= 0) or v in taken or v in out:
                    continue
                out.append(v)
                break
            else:
                raise GenError(f"could not draw {count} points in range {lo}..{hi}")
        return out

    for _ in range(_MAX_ATTEMPTS):
        xs = draw(m, ())
        ys_list = draw(ys, xs) if ys is not None else None
        if no_pole is not None:
            pts = None
            if isinstance(no_pole, BilinearForm):
                pts = ys_list if ys_list is not None else xs
            try:
                _homogeneous(no_pole, xs, pts)
            except PoleError:
                continue
        return PointConfig(xs, ys_list)
    raise GenError("could not satisfy pole-freedom constraints")


def gen_rank2(seed: int, n: int) -> Rank2Spec:
    """A rank <= 2 spec with all n^2 entries nonzero, deterministic per seed."""
    _ints(seed=seed, n=n)
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        u, v, s, t = (
            tuple(_random_rat(rng, -9, 9, 4) for _ in range(n)) for _ in range(4)
        )
        try:
            return Rank2Spec(u, v, s, t)
        except PoleError:
            continue
    raise GenError("could not build a rank-2 spec with nonzero entries")


def _ints(**values):
    """DomainError naming the first of ``values`` that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise DomainError(f"{name} must be an int, got {value!r}")


def _gen_form(rng: random.Random, cls):
    """A random BilinearForm or SymmetricForm with nonzero discriminant."""
    while True:
        coeffs = [_random_rat(rng, -5, 5, 3) for _ in fields(cls)]
        if any(coeffs):
            form = cls(*coeffs)
            if form.disc != 0:
                return form


def _gen_z(rng: random.Random, xs) -> Fraction:
    # z is drawn from [10.1, 200], which overlaps the default x range
    # [0.1, 100]; a z at +-x_k is a pole of LEMMA1/LEMMA2 and is redrawn.
    for _ in range(_MAX_ATTEMPTS):
        z = _random_rat(rng, 101, 200, 10)
        if all(z != x and z != -x for x in xs):
            return z
    raise GenError("could not sample a pole-free z")


# -- the identity checks ---------------------------------------------------


def _lemma1(pc, form, z):
    xs = pc.xs
    if any(z == x or z == -x for x in xs):
        raise DomainError("z must avoid +-x_k")
    b = build_hafnian_mat(pc, SymmetricForm.from_name("x+y"))
    # Hf(B) and its (k, l) minors, from one memo over B's index masks; each
    # unordered pair carries the terms of both orders.
    pairs = [(k, l) for k in range(len(xs)) for l in range(k + 1, len(xs))]
    haf_b, *hafs = hf_minors(b, [(), *((k + 1, l + 1) for k, l in pairs)])
    lhs = Fraction(0)
    for (k, l), h in zip(pairs, hafs):
        lhs += h / ((xs[k] - z) * (xs[l] + z)) + h / ((xs[l] - z) * (xs[k] + z))
    return lhs, haf_b * sum(2 * x / (x * x - z * z) for x in xs)


def _lemma2(pc, form, z):
    xs = pc.xs
    if any(z == -x for x in xs):
        raise DomainError("z must avoid -x_k")
    b = build_hafnian_mat(pc, SymmetricForm.from_name("x+y"))
    m = len(xs)
    # The (k, 2s) minors from one memo; Hf(B) itself is never computed.
    hafs = hf_minors(b, [(k + 1, m) for k in range(m - 1)])
    lhs = Fraction(0)
    for k in range(m - 1):
        prod = Fraction(1)
        for i in range(m - 1):
            if i != k:
                prod *= (xs[k] + xs[i]) / (xs[k] - xs[i])
        lhs += (xs[k] - z) / (xs[k] + z) ** 2 * prod * hafs[k]
    lead = Fraction(1)
    for i in range(m - 1):
        lead *= (xs[i] - z) / (xs[i] + z)
    return lhs, lead * sum(hafs[k] / (xs[k] + z) for k in range(m - 1))


def _carlitz(pc, spec, z):
    a = spec.matrix()
    inv1 = SquareMatrix([[1 / v for v in row] for row in a.entries])
    inv2 = SquareMatrix([[1 / v ** 2 for v in row] for row in a.entries])
    return det_bareiss(inv2), det_bareiss(inv1) * perm_ryser(inv1)


def _degenerate_pf(pc, form, z):
    xs = pc.xs
    m = len(xs)
    rows = [[xs[j] - xs[i] for j in range(m)] for i in range(m)]
    # x_j - x_i has rank <= 2, so the Pfaffian is 0 from m = 4 on; the
    # empty matrix has Pfaffian 1.
    rhs = xs[1] - xs[0] if m == 2 else Fraction(1 if m == 0 else 0)
    return pf_elimination(SquareMatrix(rows)), rhs


# family -> (lhs, rhs) of (pc, form, z), for the families _sides does not evaluate.
_OTHER_SIDES = {
    "LEMMA1": _lemma1, "LEMMA2": _lemma2, "CARLITZ": _carlitz, "DEGENERATE_PF": _degenerate_pf,
}


def _check(identity: IdentityId, pc, form, z):
    """Return (lhs, rhs, params) for one identity instance."""
    if not isinstance(identity, IdentityId):
        raise DomainError(f"unknown identity {identity!r}")
    family, cls, name = _IDENTITIES[identity]
    reads_points = cls is not Rank2Spec
    if reads_points and not isinstance(pc, PointConfig):
        raise DomainError(
            f"{identity.value} requires a PointConfig, got {type(pc).__name__}"
        )
    # What the identity reads; anything else given is refused, not dropped.
    for what, given, reads in (
        ("PointConfig", pc, reads_points),
        ("y points", getattr(pc, "ys", None), cls is BilinearForm),
        ("form", form, cls is not None and name is None),
        ("sample point z", z, family in _Z_FAMILIES),
    ):
        if given is not None and not reads:
            hint = f"; GEN_{family} takes one" if what == "form" and name else ""
            raise DomainError(f"{identity.value} takes no {what}{hint}")
    params = {}
    if pc is not None:
        params["points"] = pc.to_json()
    if z is not None:
        z = exact(z, "sample point z")
        params["z"] = render_scalar(z)
    elif family in _Z_FAMILIES:
        raise DomainError(f"{identity.value} requires a sample point z")
    if name is not None:
        form = cls.from_name(name)
    elif cls is not None and not isinstance(form, cls):
        raise DomainError(
            f"{identity.value} requires a {cls.__name__}, got {type(form).__name__}"
        )
    if cls is not None:
        params[_PARAM_KEYS[cls]] = form.to_json()
    if family in _OTHER_SIDES:
        return (*_OTHER_SIDES[family](pc, form, z), params)
    lhs, rhs = _sides(family, _table(pc, form, cls))
    if family == "MAIN" and name is not None:
        # MAIN1/MAIN2 are printed with numerators x_i - x_j.  Negating
        # the m x m skew matrix multiplies its Pfaffian by (-1)^{m/2},
        # and so does flipping the m(m-1)/2 factors of the closed form.
        sign = (-1) ** (len(pc.xs) // 2)
        lhs, rhs = sign * lhs, sign * rhs
    return lhs, rhs, params


def check_identity(
    identity: IdentityId,
    pc: PointConfig | None,
    form=None,
    z: Fraction | None = None,
) -> IdentityReport:
    """Evaluate both sides of one identity instance, bit-exactly."""
    start = time.perf_counter()
    lhs, rhs, params = _check(identity, pc, form, z)
    return IdentityReport(
        identity=identity.value,
        params=params,
        lhs=render_scalar(lhs),
        rhs=render_scalar(rhs),
        passed=lhs == rhs,
        elapsed=time.perf_counter() - start,
    )


# -- the suite -------------------------------------------------------------


def _sub_seed(seed: int, identity: IdentityId, size: int, trial: int) -> int:
    key = f"{seed}:{identity.value}:{size}:{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def make_instance(seed: int, identity: IdentityId, size: int, trial: int):
    """Deterministic (pc, form, z) for one suite cell, of a size >= 1."""
    need(identity, IdentityId)
    _ints(seed=seed, size=size, trial=trial)
    if size < 1:
        raise DomainError(f"size must be >= 1, got {size}")
    family, cls, name = _IDENTITIES[identity]
    s = _sub_seed(seed, identity, size, trial)
    rng = random.Random(s)
    if cls is Rank2Spec:
        return None, gen_rank2(s, size), None
    if cls is None:
        pc = gen_points(rng.randrange(2**31), 2 * size)
        return pc, None, _gen_z(rng, pc.xs) if family in _Z_FAMILIES else None

    form = pole_form = None
    if name is None:
        form = pole_form = _gen_form(rng, cls)
    elif name != "x+y":
        # x + y has no zero at positive points; 1 - xy and the random forms
        # constrain the sampling.
        pole_form = cls.from_name(name)
    xy = cls is BilinearForm
    pc = gen_points(
        rng.randrange(2**31),
        size if xy else 2 * size,
        ys=size if xy else None,
        no_pole=pole_form,
    )
    return pc, form, None


# The largest size of a sweep whose identities have no kernel guard: the
# largest guard, perm_ryser's.  Their O(n^3) cells would otherwise take any
# number of sizes, each of any size.
_SUITE_MAX = kernels.PERM_RYSER_MAX


def _largest_size(identity: IdentityId):
    """(kernel, largest size) for an identity whose cells call a size-guarded
    exponential kernel, read from that kernel's guard; None for the others.
    A size-s cell runs perm_ryser on s x s (BORCH, CARLITZ) or hf_recursive
    on 2s points (MAIN), and hf_minors, under hf_recursive's guard, on 2s
    points (LEMMA1) or on the (2s - 2)-point minors only (LEMMA2)."""
    family = _IDENTITIES[identity][0]
    if family in ("BORCH", "CARLITZ"):
        return "perm_ryser", kernels.PERM_RYSER_MAX
    if family in ("MAIN", "LEMMA1"):
        return "hf_recursive", kernels.HF_RECURSIVE_MAX // 2
    if family == "LEMMA2":
        return "hf_recursive", kernels.HF_RECURSIVE_MAX // 2 + 1
    return None


def _refuse_size(guards, size: int):
    """SizeError for the first of ``guards``, (identity, (kernel, largest
    size)) in identity order, that ``size`` is beyond; nothing if none.  A
    kernel of None stands for the suite's cap (_SUITE_MAX)."""
    for identity, (kernel, largest) in guards:
        if size > largest:
            where = f"the {kernel} guard" if kernel else "the suite's largest size"
            raise SizeError(
                f"{identity.value} at size {unlimited_digits(str, size)} is beyond "
                f"{where}: {identity.value} supports sizes up to {largest}"
            )


def run_suite(
    seed: int,
    sizes,
    trials_per_size: int,
    only=None,
) -> list[IdentityReport]:
    """Cross-product of identities x sizes x trials, deterministic per seed.

    Failures do not stop the run; they are data.  Reports come back sorted
    by (identity, size, trial).  A sweep that would check nothing (no sizes,
    fewer than one trial, or an ``only`` that selects no identity) is
    refused with DomainError, and so are a seed that is not an int, sizes
    that are not an iterable of ints, a trial count that is not an int, and
    an ``only`` that is not an iterable of IdentityId members; one with a size beyond an identity's
    kernel guard is refused with SizeError, one beyond every guard as soon
    as it is read.  When no selected identity has a kernel guard, _SUITE_MAX
    stands in for one.  Each refusal comes before any cell is computed.
    """
    _ints(seed=seed)
    try:
        sizes = iter(sizes)
    except TypeError:
        raise DomainError(f"sizes must be an iterable of ints, got {sizes!r}") from None
    if only is not None:
        try:  # a str is one stray member, not an iterable of characters
            only = {only} if isinstance(only, str) else set(only)
        except TypeError:
            raise DomainError(
                f"only must be an iterable of IdentityId members, got {only!r}"
            ) from None
        stray = [i for i in only if not isinstance(i, IdentityId)]
        if stray:
            raise DomainError(f"only takes IdentityId members, got {stray[0]!r}")
        if not only:
            raise DomainError("only selects no identity")
    identities = sorted(
        (i for i in IdentityId if only is None or i in only), key=lambda i: i.value
    )
    guards = [(i, _largest_size(i)) for i in identities]
    guards = [(i, g) for i, g in guards if g is not None]
    if not guards:  # only polynomial cells: the suite's cap bounds them
        guards = [(i, (None, _SUITE_MAX)) for i in identities]
    # A size beyond every guard is refused as it is read, so a long or
    # endless iterable is never held; the others are refused once all are
    # read, naming the largest size.
    largest = max(g[1] for _, g in guards)
    read = []
    for size in sizes:
        if not isinstance(size, int):
            raise DomainError(f"sizes must be ints, got {size!r}")
        if size > largest:
            _refuse_size(guards, size)
        read.append(size)
    sizes = sorted(read)
    if not sizes:
        raise DomainError("need at least one size")
    if sizes[0] < 1:
        raise DomainError(f"sizes must be >= 1, got {sizes[0]}")
    if not isinstance(trials_per_size, int):
        raise DomainError(f"trials_per_size must be an int, got {trials_per_size!r}")
    if trials_per_size < 1:
        raise DomainError(f"need at least one trial per size, got {trials_per_size}")
    _refuse_size(guards, sizes[-1])
    reports = []
    for identity in identities:
        for size in sizes:
            for trial in range(trials_per_size):
                pc, form, z = make_instance(seed, identity, size, trial)
                report = check_identity(identity, pc, form=form, z=z)
                report.params["size"] = size
                report.params["trial"] = trial
                reports.append(report)
    return reports


def summarize(reports) -> dict:
    """Counts of passed and failed reports, in all and per identity."""
    try:
        reports = [need(r, IdentityReport) for r in reports]
    except TypeError:
        raise DomainError(f"need an iterable of reports, got {type(reports).__name__}") from None
    by_id = {}
    for r in reports:
        bucket = by_id.setdefault(r.identity, [0, 0])
        bucket[r.passed] += 1
    return {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
        "by_identity": {
            k: {"failed": v[0], "passed": v[1]} for k, v in sorted(by_id.items())
        },
    }

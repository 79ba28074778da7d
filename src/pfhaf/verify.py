"""Seeded random instances and the exact verification suite.

Every numbered identity gets an IdentityId; check_identity evaluates both
sides of one instance with bit-exact rational arithmetic and run_suite
sweeps identities x sizes x trials deterministically per seed.  Pointwise
verification is sound here because each identity is an identity of
rational functions: equality at more sample points than the degree bound
certifies the identity itself, and the suite's defaults sample far beyond
any single instance's degree.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError, GenError
from .kernels import det_bareiss, hf_recursive, perm_ryser, pf_elimination
from .matrix import SquareMatrix, minor
from .report import IdentityReport
from .scalar import Rat, render_rat, render_scalar
from .structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    cauchy_det_closed,
    schur_pf_closed,
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


# identities over pairs (x_i, y_j) vs. a single x list of even length
_XY_IDS = {
    IdentityId.CAUCHY1,
    IdentityId.CAUCHY2,
    IdentityId.BORCH1,
    IdentityId.BORCH2,
    IdentityId.GEN_DET,
    IdentityId.GEN_BORCH,
}
_LEMMA_IDS = {IdentityId.LEMMA1, IdentityId.LEMMA2}


@dataclass(frozen=True)
class Rank2Spec:
    """Data for a rank <= 2 matrix a_ij = u_i*v_j + s_i*t_j with no zero
    entries."""

    u: tuple
    v: tuple
    s: tuple
    t: tuple

    @property
    def n(self) -> int:
        return len(self.u)

    def matrix(self) -> SquareMatrix:
        rows = [
            [self.u[i] * self.v[j] + self.s[i] * self.t[j] for j in range(self.n)]
            for i in range(self.n)
        ]
        return SquareMatrix(rows)

    def to_json(self) -> dict:
        return {
            k: [render_rat(v) for v in getattr(self, k)] for k in ("u", "v", "s", "t")
        }


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
    rejected while any pair hits a zero of the form.  Raises GenError when
    the constraints cannot be met within the attempt budget.
    """
    if positive and hi < lo:
        raise GenError("empty range")
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
            if isinstance(no_pole, BilinearForm):
                pts = ys_list if ys_list is not None else xs
                if any(no_pole(x, y) == 0 for x in xs for y in pts):
                    continue
            else:
                if any(
                    no_pole(xs[i], xs[j]) == 0
                    for i in range(m)
                    for j in range(i + 1, m)
                ):
                    continue
        return PointConfig(xs, ys_list)
    raise GenError("could not satisfy pole-freedom constraints")


def gen_rank2(seed: int, n: int) -> Rank2Spec:
    """A rank <= 2 spec with all n^2 entries nonzero, deterministic per seed."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        u, v, s, t = (
            tuple(_random_rat(rng, -9, 9, 4) for _ in range(n)) for _ in range(4)
        )
        if all(
            u[i] * v[j] + s[i] * t[j] != 0 for i in range(n) for j in range(n)
        ):
            return Rank2Spec(u, v, s, t)
    raise GenError("could not build a rank-2 spec with nonzero entries")


def _gen_bilinear_form(rng: random.Random) -> BilinearForm:
    while True:
        coeffs = [_random_rat(rng, -5, 5, 3) for _ in range(4)]
        if any(coeffs):
            form = BilinearForm(*coeffs)
            if form.disc != 0:
                return form


def _gen_symmetric_form(rng: random.Random) -> SymmetricForm:
    while True:
        coeffs = [_random_rat(rng, -5, 5, 3) for _ in range(3)]
        if any(coeffs):
            form = SymmetricForm(*coeffs)
            if form.disc != 0:
                return form


def _gen_z(rng: random.Random, xs) -> Fraction:
    # z range deliberately disjoint from the default x range, so poles at
    # +-x_k cannot occur and no resampling loop is needed.
    for _ in range(_MAX_ATTEMPTS):
        z = _random_rat(rng, 101, 200, 10)
        if all(z != x and z != -x for x in xs):
            return z
    raise GenError("could not sample a pole-free z")


# -- the identity checks ---------------------------------------------------


def _check(identity: IdentityId, pc, form, z):
    """Return (lhs, rhs, params) for one identity instance."""
    params = {}
    if pc is not None:
        params["points"] = pc.to_json()
    if z is not None:
        params["z"] = render_rat(z)

    if identity in (IdentityId.CAUCHY1, IdentityId.CAUCHY2, IdentityId.GEN_DET):
        if identity is IdentityId.GEN_DET:
            f = form
        else:
            f = BilinearForm.from_name(
                "x+y" if identity is IdentityId.CAUCHY1 else "1-xy"
            )
        params["f"] = f.to_json()
        lhs = det_bareiss(build_cauchy(pc, f, power=1))
        rhs = cauchy_det_closed(pc, f)
        return lhs, rhs, params

    if identity in (IdentityId.BORCH1, IdentityId.BORCH2, IdentityId.GEN_BORCH):
        if identity is IdentityId.GEN_BORCH:
            f = form
        else:
            f = BilinearForm.from_name(
                "x+y" if identity is IdentityId.BORCH1 else "1-xy"
            )
        params["f"] = f.to_json()
        lhs = det_bareiss(build_cauchy(pc, f, power=2))
        rhs = cauchy_det_closed(pc, f) * perm_ryser(build_cauchy(pc, f, power=1))
        return lhs, rhs, params

    if identity in (IdentityId.SCHUR1, IdentityId.SCHUR2, IdentityId.GEN_SCHUR):
        if identity is IdentityId.GEN_SCHUR:
            g = form
        else:
            g = SymmetricForm.from_name(
                "x+y" if identity is IdentityId.SCHUR1 else "1-xy"
            )
        params["g"] = g.to_json()
        lhs = pf_elimination(build_schur(pc, g, power=1, orientation="ji"))
        rhs = schur_pf_closed(pc, g)
        return lhs, rhs, params

    if identity in (IdentityId.MAIN1, IdentityId.MAIN2, IdentityId.GEN_MAIN):
        # MAIN1/MAIN2 are stated with numerators x_i - x_j (orientation
        # "ij"); the generalized form uses x_j - x_i. Both are checked as
        # printed: flipping all m(m-1)/2 numerators of the closed-form
        # product flips its sign that many times.
        m = len(pc.xs)
        if identity is IdentityId.GEN_MAIN:
            g = form
            orientation, sign = "ji", 1
        else:
            g = SymmetricForm.from_name(
                "x+y" if identity is IdentityId.MAIN1 else "1-xy"
            )
            orientation, sign = "ij", (-1) ** (m // 2 * (m - 1))
        params["g"] = g.to_json()
        lhs = pf_elimination(build_schur(pc, g, power=2, orientation=orientation))
        haf = hf_recursive(build_hafnian_mat(pc, g))
        rhs = sign * schur_pf_closed(pc, g) * haf
        return lhs, rhs, params

    if identity is IdentityId.LEMMA1:
        if z is None:
            raise DomainError("LEMMA1 requires a sample point z")
        xs = pc.xs
        if any(z == x or z == -x for x in xs):
            raise DomainError("z must avoid +-x_k")
        g = SymmetricForm.from_name("x+y")
        b = build_hafnian_mat(pc, g)
        m = len(xs)
        lhs = Fraction(0)
        haf_minor = {}
        for k in range(m):
            for l in range(k + 1, m):
                haf_minor[(k, l)] = hf_recursive(minor(b, (k + 1, l + 1)))
        for k in range(m):
            for l in range(m):
                if k != l:
                    key = (k, l) if k < l else (l, k)
                    lhs += haf_minor[key] / ((xs[k] - z) * (xs[l] + z))
        rhs = hf_recursive(b) * sum(2 * x / (x * x - z * z) for x in xs)
        return lhs, rhs, params

    if identity is IdentityId.LEMMA2:
        if z is None:
            raise DomainError("LEMMA2 requires a sample point z")
        xs = pc.xs
        if any(z == -x for x in xs):
            raise DomainError("z must avoid -x_k")
        g = SymmetricForm.from_name("x+y")
        b = build_hafnian_mat(pc, g)
        m = len(xs)
        hafs = [hf_recursive(minor(b, (k + 1, m))) for k in range(m - 1)]
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
        rhs = lead * sum(hafs[k] / (xs[k] + z) for k in range(m - 1))
        return lhs, rhs, params

    if identity is IdentityId.CARLITZ:
        if not isinstance(form, Rank2Spec):
            raise DomainError("CARLITZ requires a Rank2Spec")
        params["rank2"] = form.to_json()
        a = form.matrix()
        inv1 = SquareMatrix([[1 / v for v in row] for row in a.entries])
        inv2 = SquareMatrix([[1 / v ** 2 for v in row] for row in a.entries])
        lhs = det_bareiss(inv2)
        rhs = det_bareiss(inv1) * perm_ryser(inv1)
        return lhs, rhs, params

    if identity is IdentityId.DEGENERATE_PF:
        xs = pc.xs
        m = len(xs)
        rows = [[xs[j] - xs[i] for j in range(m)] for i in range(m)]
        lhs = pf_elimination(SquareMatrix(rows, kind="skew"))
        rhs = xs[1] - xs[0] if m == 2 else Fraction(0)
        return lhs, rhs, params

    raise DomainError(f"unknown identity {identity}")


def check_identity(
    identity: IdentityId,
    pc: PointConfig | None,
    form=None,
    z: Rat | None = None,
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
    """Deterministic (pc, form, z) for one suite cell."""
    s = _sub_seed(seed, identity, size, trial)
    rng = random.Random(s)
    form = None
    z = None

    if identity is IdentityId.CARLITZ:
        return None, gen_rank2(s, size), None

    if identity in _XY_IDS:
        if identity is IdentityId.GEN_DET or identity is IdentityId.GEN_BORCH:
            form = _gen_bilinear_form(rng)
            pole_form = form
        elif identity in (IdentityId.CAUCHY2, IdentityId.BORCH2):
            pole_form = BilinearForm.from_name("1-xy")
        else:
            pole_form = None
        pc = gen_points(rng.randrange(2**31), size, ys=size, no_pole=pole_form)
        return pc, form, None

    count = 2 * size
    if identity is IdentityId.GEN_SCHUR or identity is IdentityId.GEN_MAIN:
        form = _gen_symmetric_form(rng)
        pole_form = form
    elif identity in (IdentityId.SCHUR2, IdentityId.MAIN2):
        pole_form = SymmetricForm.from_name("1-xy")
    else:
        pole_form = None
    pc = gen_points(rng.randrange(2**31), count, no_pole=pole_form)
    if identity in _LEMMA_IDS:
        z = _gen_z(rng, pc.xs)
    return pc, form, z


def run_suite(
    seed: int,
    sizes,
    trials_per_size: int,
    only=None,
) -> list[IdentityReport]:
    """Cross-product of identities x sizes x trials, deterministic per seed.

    Failures do not stop the run; they are data.  Reports come back sorted
    by (identity, size, trial).  A sweep that would check nothing (no sizes,
    or fewer than one trial) is refused with DomainError.
    """
    sizes = sorted(sizes)
    if not sizes:
        raise DomainError("need at least one size")
    if trials_per_size < 1:
        raise DomainError(f"need at least one trial per size, got {trials_per_size}")
    identities = [i for i in IdentityId if only is None or i in only]
    reports = []
    for identity in sorted(identities, key=lambda i: i.value):
        for size in sizes:
            for trial in range(trials_per_size):
                pc, form, z = make_instance(seed, identity, size, trial)
                report = check_identity(identity, pc, form=form, z=z)
                report.params["size"] = size
                report.params["trial"] = trial
                reports.append(report)
    return reports


def summarize(reports) -> dict:
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

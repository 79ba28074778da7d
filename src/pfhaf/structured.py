"""Cauchy-type structured matrices and their polynomial-time fast paths.

Builders produce the matrices 1/f(x_i, y_j)^p (general), the skew
matrices +-(x_j - x_i)/g(x_i, x_j)^p and the symmetric matrix
1/g(x_i, x_j), for the two-parameter form families

    f(x, y) = a*x*y + b*x + c*y + d        (discriminant a*d - b*c)
    g(x, y) = a*x*y + b*(x + y) + c        (discriminant b^2 - a*c)

The closed-form evaluators give the product formulas for det(1/f) and
Pf((x_j - x_i)/g); rearranged, they turn the squared-entry identities into
O(n^3) algorithms for the permanent and the Hafnian of these matrices,
which is the whole computational payoff: both functionals are
exponential-time in general.

Note on signs: the product prefactor of the closed-form determinant is
(-1)^{n(n-1)/2} (ad - bc)^{n(n-1)/2}, i.e. (bc - ad)^{n(n-1)/2}; writing
the exponent of -1 as n(n-1) fails the classical f = x + y case already at
n = 2, as direct expansion shows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateFormError, DomainError, PoleError
from .kernels import det_bareiss, hf_recursive, pf_elimination, pf_fraction_free
from .matrix import SquareMatrix
from .report import IdentityReport
from .scalar import (
    QuadExt,
    Rat,
    parse_rat,
    rat_is_square,
    rat_sqrt,
    render_rat,
    render_scalar,
)


@dataclass(frozen=True)
class PointConfig:
    """Distinct rational sample points x_1..x_m (optionally y_1..y_n)."""

    xs: tuple
    ys: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        if len(set(self.xs)) != len(self.xs):
            raise DomainError("x points must be distinct")
        if self.ys is not None:
            object.__setattr__(self, "ys", tuple(self.ys))
            if len(set(self.ys)) != len(self.ys):
                raise DomainError("y points must be distinct")

    def to_json(self) -> dict:
        out = {"xs": [render_rat(x) for x in self.xs]}
        if self.ys is not None:
            out["ys"] = [render_rat(y) for y in self.ys]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        xs = [parse_rat(v) for v in obj["xs"]]
        ys = [parse_rat(v) for v in obj["ys"]] if "ys" in obj else None
        return cls(xs, ys)


@dataclass(frozen=True)
class BilinearForm:
    """f(x, y) = a*x*y + b*x + c*y + d."""

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    def __post_init__(self):
        if self.a == self.b == self.c == self.d == 0:
            raise DomainError("form must be nonzero")

    @property
    def disc(self) -> Rat:
        return self.a * self.d - self.b * self.c

    def __call__(self, x, y):
        return self.a * x * y + self.b * x + self.c * y + self.d

    @classmethod
    def from_name(cls, name: str) -> "BilinearForm":
        key = name.replace(" ", "")
        if key == "x+y":
            return cls(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
        if key in ("1-xy", "1-x*y"):
            return cls(Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
        raise DomainError(f"unknown form name {name!r}")

    def to_json(self) -> dict:
        return {k: render_rat(getattr(self, k)) for k in "abcd"}

    @classmethod
    def from_json(cls, obj: dict) -> "BilinearForm":
        return cls(*(parse_rat(obj[k]) for k in "abcd"))


@dataclass(frozen=True)
class SymmetricForm:
    """g(x, y) = a*x*y + b*(x + y) + c; symmetric in x and y."""

    a: Rat
    b: Rat
    c: Rat

    def __post_init__(self):
        if self.a == self.b == self.c == 0:
            raise DomainError("form must be nonzero")

    @property
    def disc(self) -> Rat:
        return self.b * self.b - self.a * self.c

    def __call__(self, x, y):
        return self.a * x * y + self.b * (x + y) + self.c

    @classmethod
    def from_name(cls, name: str) -> "SymmetricForm":
        key = name.replace(" ", "")
        if key == "x+y":
            return cls(Fraction(0), Fraction(1), Fraction(0))
        if key in ("1-xy", "1-x*y"):
            return cls(Fraction(-1), Fraction(0), Fraction(1))
        raise DomainError(f"unknown form name {name!r}")

    def to_json(self) -> dict:
        return {k: render_rat(getattr(self, k)) for k in "abc"}

    @classmethod
    def from_json(cls, obj: dict) -> "SymmetricForm":
        return cls(*(parse_rat(obj[k]) for k in "abc"))


# -- builders --------------------------------------------------------------


def build_cauchy(pc: PointConfig, f: BilinearForm, power: int = 1) -> SquareMatrix:
    """The n x n matrix with entries 1/f(x_i, y_j)^power, power in {1, 2}."""
    if pc.ys is None or len(pc.xs) != len(pc.ys):
        raise DomainError("need equally many x and y points")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    rows = []
    for i, x in enumerate(pc.xs):
        row = []
        for j, y in enumerate(pc.ys):
            v = f(x, y)
            if v == 0:
                raise PoleError(
                    f"f(x_{i + 1}, y_{j + 1}) = 0 at ({render_rat(x)}, {render_rat(y)})",
                    pair=(i + 1, j + 1),
                )
            row.append(1 / v ** power)
        rows.append(row)
    return SquareMatrix(rows)


def build_schur(
    pc: PointConfig,
    g: SymmetricForm,
    power: int = 1,
    orientation: str = "ji",
) -> SquareMatrix:
    """Skew matrix with entries (x_j - x_i)/g(x_i, x_j)^power (orientation
    "ji") or its negation (x_i - x_j)/g^power (orientation "ij").

    The two orientations are kept explicit because the identities
    themselves use both; normalizing silently would hide sign bugs.
    """
    n = len(pc.xs)
    if n % 2 != 0:
        raise DomainError("need an even number of x points")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    if orientation not in ("ji", "ij"):
        raise DomainError("orientation must be 'ji' or 'ij'")
    xs = pc.xs
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gv = g(xs[i], xs[j])
            if gv == 0:
                raise PoleError(
                    f"g(x_{i + 1}, x_{j + 1}) = 0", pair=(i + 1, j + 1)
                )
            num = xs[j] - xs[i] if orientation == "ji" else xs[i] - xs[j]
            v = num / gv ** power
            rows[i][j] = v
            rows[j][i] = -v
    return SquareMatrix(rows, kind="skew")


def build_hafnian_mat(pc: PointConfig, g: SymmetricForm) -> SquareMatrix:
    """Symmetric matrix with off-diagonal entries 1/g(x_i, x_j).

    The diagonal is stored as 0: the Hafnian never reads it, and
    g(x_i, x_i) may legitimately be a pole.
    """
    n = len(pc.xs)
    if n % 2 != 0:
        raise DomainError("need an even number of x points")
    xs = pc.xs
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gv = g(xs[i], xs[j])
            if gv == 0:
                raise PoleError(
                    f"g(x_{i + 1}, x_{j + 1}) = 0", pair=(i + 1, j + 1)
                )
            rows[i][j] = rows[j][i] = 1 / gv
    return SquareMatrix(rows, kind="symmetric")


# -- closed forms ----------------------------------------------------------


def cauchy_det_closed(pc: PointConfig, f: BilinearForm):
    """Closed-form det of build_cauchy(pc, f, power=1):

        (bc - ad)^{n(n-1)/2} * prod_{i<j} (x_j - x_i)(y_j - y_i)
                             / prod_{i,j} f(x_i, y_j)
    """
    if pc.ys is None or len(pc.xs) != len(pc.ys):
        raise DomainError("need equally many x and y points")
    xs, ys = pc.xs, pc.ys
    n = len(xs)
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= (xs[j] - xs[i]) * (ys[j] - ys[i])
    den = Fraction(1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = f(x, y)
            if v == 0:
                raise PoleError(
                    f"f(x_{i + 1}, y_{j + 1}) = 0", pair=(i + 1, j + 1)
                )
            den *= v
    prefactor = (-f.disc) ** (n * (n - 1) // 2)
    return prefactor * num / den


def schur_pf_closed(pc: PointConfig, g: SymmetricForm):
    """Closed-form Pf of build_schur(pc, g, power=1, orientation="ji"):

        (b^2 - ac)^{n(n-1)} * prod_{i<j} (x_j - x_i)/g(x_i, x_j)

    where the matrix is 2n x 2n.
    """
    m = len(pc.xs)
    if m % 2 != 0:
        raise DomainError("need an even number of x points")
    half = m // 2
    xs = pc.xs
    prod = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            gv = g(xs[i], xs[j])
            if gv == 0:
                raise PoleError(
                    f"g(x_{i + 1}, x_{j + 1}) = 0", pair=(i + 1, j + 1)
                )
            prod *= (xs[j] - xs[i]) / gv
    return g.disc ** (half * (half - 1)) * prod


# -- fast paths ------------------------------------------------------------


def fast_cauchy_perm(pc: PointConfig, f: BilinearForm):
    """Permanent of the Cauchy-type matrix 1/f(x_i, y_j) in O(n^3) ops.

    Divides det(1/f^2) by the closed-form det(1/f); requires ad - bc != 0
    (otherwise the closed form vanishes and the division-form shortcut is
    unavailable: fall back to perm_ryser).
    """
    if f.disc == 0:
        raise DegenerateFormError(
            "ad - bc = 0: no closed-form divisor; use perm_ryser instead"
        )
    closed = cauchy_det_closed(pc, f)
    return det_bareiss(build_cauchy(pc, f, power=2)) / closed


def fast_cauchy_hafnian(pc: PointConfig, g: SymmetricForm):
    """Hafnian of the matrix 1/g(x_i, x_j) in O(n^3) ops.

    Divides Pf((x_j - x_i)/g^2) by the closed-form Pf((x_j - x_i)/g); both
    use the same "ji" orientation so the sign conventions cancel.  Requires
    b^2 - ac != 0 and distinct xs (the closed form is the divisor).

    Everything runs on integers.  With x_i = p_i/q_i and L the lcm of the
    coefficient denominators of g, set G_ij = L q_i q_j g(x_i, x_j) and
    d_ij = p_j q_i - p_i q_j, so that

        (x_j - x_i)/g   = L d_ij / G_ij
        (x_j - x_i)/g^2 = L^2 q_i q_j d_ij / G_ij^2.

    Scaling index i by D_i = lcm_j |G_ij| makes D_i D_j d_ij / G_ij^2 an
    integer skew matrix M, and multilinearity of Pf gives

        Hf = L^n prod(q_i) prod(G_ij) Pf(M)
             / (prod(D_i) (b^2 - ac)^{n(n-1)} L^{2n(n-1)} prod(d_ij))

    for 2n points, so Pf(M) comes from the integer elimination and the
    only Fraction is the final quotient.
    """
    if g.disc == 0:
        raise DegenerateFormError(
            "b^2 - ac = 0: no closed-form divisor; use hf_recursive instead"
        )
    m = len(pc.xs)
    if m % 2 != 0:
        raise DomainError("need an even number of x points")
    half = m // 2
    scale = math.lcm(g.a.denominator, g.b.denominator, g.c.denominator)
    ga, gb, gc = (int(c * scale) for c in (g.a, g.b, g.c))
    ps = [x.numerator for x in pc.xs]
    qs = [x.denominator for x in pc.xs]
    gs = [[1] * m for _ in range(m)]  # the diagonal 1 is neutral in the lcm
    ds = [[0] * m for _ in range(m)]
    g_prod = d_prod = 1
    for i in range(m):
        pi, qi = ps[i], qs[i]
        for j in range(i + 1, m):
            pj, qj = ps[j], qs[j]
            gv = ga * pi * pj + gb * (pi * qj + pj * qi) + gc * qi * qj
            if gv == 0:
                raise PoleError(
                    f"g(x_{i + 1}, x_{j + 1}) = 0", pair=(i + 1, j + 1)
                )
            dv = pj * qi - pi * qj
            gs[i][j] = gs[j][i] = gv
            ds[i][j] = dv
            g_prod *= gv
            d_prod *= dv
    dens = [math.lcm(*row) for row in gs]
    mat = [
        [0] * (i + 1)
        + [
            (dens[i] // gs[i][j]) * (dens[j] // gs[i][j]) * ds[i][j]
            for j in range(i + 1, m)
        ]
        for i in range(m)
    ]
    disc = gb * gb - ga * gc  # = L^2 (b^2 - ac)
    num = scale**half * math.prod(qs) * g_prod * pf_fraction_free(mat)
    den = math.prod(dens) * disc ** (half * (half - 1)) * d_prod
    return Fraction(num, den)


# -- Moebius substitution --------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional linear map z -> (A z + B)/(C z + D), AD - BC != 0.

    Coefficients live in Rat or in one quadratic extension.
    """

    A: object
    B: object
    C: object
    D: object

    def __post_init__(self):
        if self.A * self.D - self.B * self.C == 0:
            raise DomainError("degenerate Moebius map (AD - BC = 0)")

    def apply(self, x):
        den = self.C * x + self.D
        if den == 0:
            raise PoleError(f"Moebius map pole at {render_scalar(x)}")
        return (self.A * x + self.B) / den

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.D, -self.B, -self.C, self.A)


def sqrt_disc(disc: Rat):
    """sqrt(b^2 - ac) as a Rat when possible, else as a QuadExt element."""
    if rat_is_square(disc):
        return rat_sqrt(disc)
    return QuadExt(Fraction(0), Fraction(1), disc)


def moebius_for_form(g: SymmetricForm) -> MoebiusMap:
    """The substitution that reduces the form g to the classical x + y case:

        A = 1/2,  B = (b + sqrt(b^2 - ac))/(2a),  C = a,  D = b - sqrt(b^2 - ac)

    Requires a != 0 and a nonzero discriminant.
    """
    if g.disc == 0:
        raise DegenerateFormError("b^2 - ac = 0: no Moebius reduction")
    if g.a == 0:
        raise DomainError("Moebius constants need a != 0")
    s = sqrt_disc(g.disc)
    half = Fraction(1, 2)
    return MoebiusMap(
        A=half + 0 * s,
        B=(g.b + s) / (2 * g.a),
        C=g.a + 0 * s,
        D=g.b - s,
    )


def substitution_witness(pc: PointConfig, g: SymmetricForm) -> IdentityReport:
    """Exact witness that the Moebius substitution carries the classical
    Pfaffian identities into their generalized forms for g.

    Checks, in Q(sqrt(b^2 - ac)) when the discriminant is not a rational
    square:
      * the images phi(x_i) satisfy the classical identities (the x + y
        Schur identity and the Pfaffian-Hafnian identity),
      * the entrywise factorizations linking the phi-matrices to the
        g-matrices at the original points hold,
      * the generalized identities for g hold at the original points.
    All comparisons are bit-exact; any surviving odd power of sqrt(disc)
    shows up as a failed comparison, never as a guess.
    """
    start = time.perf_counter()
    if g.disc == 0:
        raise DegenerateFormError("b^2 - ac = 0: substitution needs disc != 0")
    m = len(pc.xs)
    if m % 2 != 0:
        raise DomainError("need an even number of x points")

    if g.a == 0 and g.c == 0:
        # g = b (x + y): already the classical case, map is identity-like.
        return _witness_report(pc, g, "rational", {}, start)

    if g.a == 0:
        # c != 0 branch: swap roles through x -> 1/x, which turns g into
        # g'(x, y) = c x y + b (x + y) with a' = c != 0 and equal
        # discriminant, then run the a != 0 machinery on g'.
        if any(x == 0 for x in pc.xs):
            raise DomainError("x -> 1/x branch rejects points with x_i = 0")
        swapped = SymmetricForm(g.c, g.b, Fraction(0))
        inner = substitution_witness(pc, swapped)
        checks = dict(inner.params["checks"])
        return _witness_report(pc, g, inner.params["field"], checks, start)

    mob = moebius_for_form(g)
    s = sqrt_disc(g.disc)
    field = "rational" if isinstance(s, Fraction) else f"Q(sqrt({render_rat(g.disc)}))"
    xs = pc.xs
    half = m // 2
    phi = [mob.apply(x) for x in xs]
    if len({_freeze(v) for v in phi}) != m:
        raise DomainError("Moebius images are not distinct")
    zero = 0 * s

    checks = {}

    # Entrywise factorizations: with u_i = C x_i + D,
    #   phi_j - phi_i = -s (x_j - x_i) / (u_i u_j)
    #   phi_i + phi_j = g(x_i, x_j) / (u_i u_j)
    u = [mob.C * x + mob.D for x in xs]
    ok = True
    for i in range(m):
        for j in range(i + 1, m):
            if phi[i] + phi[j] == 0 or g(xs[i], xs[j]) == 0:
                raise PoleError(f"pole among Moebius images at pair ({i + 1}, {j + 1})")
            if (phi[j] - phi[i]) * u[i] * u[j] != -s * (xs[j] - xs[i]):
                ok = False
            if (phi[i] + phi[j]) * u[i] * u[j] != g(xs[i], xs[j]):
                ok = False
    checks["entrywise_factorization"] = ok

    # Classical Schur identity at the phi points.
    schur_phi = [
        [
            (phi[j] - phi[i]) / (phi[i] + phi[j]) if i != j else zero
            for j in range(m)
        ]
        for i in range(m)
    ]
    prod_phi = 1 + zero
    for i in range(m):
        for j in range(i + 1, m):
            prod_phi = prod_phi * schur_phi[i][j]
    checks["classical_schur_at_images"] = (
        pf_elimination(SquareMatrix(schur_phi, kind="skew")) == prod_phi
    )

    # Classical Pfaffian-Hafnian identity at the phi points.
    pfh_phi = [
        [
            (phi[i] - phi[j]) / (phi[i] + phi[j]) ** 2 if i != j else zero
            for j in range(m)
        ]
        for i in range(m)
    ]
    haf_phi = [
        [1 / (phi[i] + phi[j]) if i != j else zero for j in range(m)]
        for i in range(m)
    ]
    lhs = pf_elimination(SquareMatrix(pfh_phi, kind="skew"))
    rhs = ((-1) ** (half * (m - 1))) * prod_phi * hf_recursive(
        SquareMatrix(haf_phi, kind="symmetric")
    )
    checks["classical_pf_hf_at_images"] = lhs == rhs

    return _witness_report(pc, g, field, checks, start)


def _freeze(v):
    return (v.p, v.q) if isinstance(v, QuadExt) else v


def _witness_report(pc, g, field, checks, start) -> IdentityReport:
    """Add the generalized Schur and Pfaffian-Hafnian identities for g at
    the given points, evaluated exactly over the rationals, to ``checks``
    and report; lhs and rhs are the two sides of the Pfaffian-Hafnian one."""
    closed = schur_pf_closed(pc, g)
    schur = pf_elimination(build_schur(pc, g, power=1, orientation="ji"))
    checks["generalized_schur_at_points"] = schur == closed
    lhs = pf_elimination(build_schur(pc, g, power=2, orientation="ji"))
    rhs = closed * hf_recursive(build_hafnian_mat(pc, g))
    checks["generalized_pf_hf_at_points"] = lhs == rhs
    return IdentityReport(
        identity="SUBSTITUTION",
        params={
            "g": g.to_json(),
            "points": pc.to_json(),
            "disc": render_rat(g.disc),
            "field": field,
            "checks": checks,
        },
        lhs=render_scalar(lhs),
        rhs=render_scalar(rhs),
        passed=all(checks.values()),
        elapsed=time.perf_counter() - start,
    )

"""Cauchy-type structured matrices and their polynomial-time fast paths.

Builders produce the matrices 1/f(x_i, y_j)^p (general), the skew
matrices (x_j - x_i)/g(x_i, x_j)^p and the symmetric matrix
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
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import DegenerateFormError, DomainError, PoleError
from .kernels import det_bareiss, hf_recursive, pf_elimination, pf_fraction_free
from .matrix import SquareMatrix
from .report import IdentityReport
from .scalar import (
    QuadExt,
    exact,
    rat_is_square,
    rat_sqrt,
    rational,
    render_rat,
    render_scalar,
)


@dataclass(frozen=True)
class PointConfig:
    """Distinct sample points x_1..x_m (optionally y_1..y_n) in Q or Q(sqrt(d))."""

    xs: tuple
    ys: tuple | None = None

    def __post_init__(self):
        for k in ("xs", "ys") if self.ys is not None else ("xs",):
            points = getattr(self, k)
            try:
                points = tuple(exact(v, "points") for v in points)
            except TypeError as exc:
                raise DomainError(f"{k} must be a sequence of points: {exc}") from None
            if len(set(points)) != len(points):
                raise DomainError(f"{k[0]} points must be distinct")
            object.__setattr__(self, k, points)

    def to_json(self) -> dict:
        out = {"xs": [render_scalar(x) for x in self.xs]}
        if self.ys is not None:
            out["ys"] = [render_scalar(y) for y in self.ys]
        return out


class _Form:
    """What the two form classes share: the coefficients, read by
    rational(), the forms known by name (each class's ``_NAMED`` maps a
    name to coefficients), and the JSON text."""

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for k in names:
            object.__setattr__(self, k, rational(getattr(self, k), "form coefficients"))
        if not any(getattr(self, k) for k in names):
            raise DomainError("form must be nonzero")

    @classmethod
    def from_name(cls, name: str):
        coeffs = cls._NAMED.get(name.replace(" ", ""))
        if coeffs is None:
            raise DomainError(f"unknown form name {name!r}")
        return cls(*coeffs)

    def to_json(self) -> dict:
        return {f.name: render_rat(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class BilinearForm(_Form):
    """f(x, y) = a*x*y + b*x + c*y + d with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    _NAMED = {"x+y": (0, 1, 1, 0), "1-xy": (-1, 0, 0, 1), "1-x*y": (-1, 0, 0, 1)}

    @property
    def disc(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __call__(self, x, y):
        # Zero terms are skipped, and so is adding to a zero partial sum.
        v = self.d
        if self.c:
            v = self.c * y + v if v else self.c * y
        if self.b:
            v = self.b * x + v if v else self.b * x
        if self.a:
            v = self.a * x * y + v if v else self.a * x * y
        return v


@dataclass(frozen=True)
class SymmetricForm(_Form):
    """g(x, y) = a*x*y + b*(x + y) + c, rational and symmetric in x and y."""

    a: Fraction
    b: Fraction
    c: Fraction

    _NAMED = {"x+y": (0, 1, 0), "1-xy": (-1, 0, 1), "1-x*y": (-1, 0, 1)}

    @property
    def disc(self) -> Fraction:
        return self.b * self.b - self.a * self.c

    def __call__(self, x, y):
        # Zero terms are skipped, and so is adding to a zero partial sum:
        # x + y at points in Q(sqrt(d)) is then one sum and one scaling.
        v = self.c
        if self.b:
            v = self.b * (x + y) + v if v else self.b * (x + y)
        if self.a:
            v = self.a * x * y + v if v else self.a * x * y
        return v


# -- the form at the points ------------------------------------------------


def _xy_count(pc: PointConfig) -> int:
    """n, for n x points and n y points; anything else is refused."""
    if pc.ys is None or len(pc.xs) != len(pc.ys):
        raise DomainError("need equally many x and y points")
    return len(pc.xs)


def _half_count(pc: PointConfig) -> int:
    """n, for 2n x points; an odd count or any y point is refused."""
    if pc.ys is not None:
        raise DomainError("a symmetric form reads x points only; got y points")
    if len(pc.xs) % 2 != 0:
        raise DomainError("need an even number of x points")
    return len(pc.xs) // 2


def _pole(row, i: int, lo: int, symmetric: bool) -> PoleError:
    """The PoleError for the first zero of ``row``, the form at the pairs
    (i, lo), (i, lo + 1), ... (0-based), named by its 1-based pair."""
    j = lo + row.index(0) + 1
    at = f"g(x_{i + 1}, x_{j})" if symmetric else f"f(x_{i + 1}, y_{j})"
    return PoleError(f"{at} = 0", pair=(i + 1, j))


def pair_table(form, xs, ys=None):
    """The rows of f(x_i, y_j) over all pairs or, with ys None, of
    g(x_i, x_j) over j > i.  The first zero in row-major order raises
    PoleError naming its pair."""
    table = []
    for i, x in enumerate(xs):
        lo = 0 if ys is not None else i + 1
        row = [form(x, y) for y in (ys if ys is not None else xs[lo:])]
        if 0 in row:
            raise _pole(row, i, lo, ys is None)
        table.append(row)
    return table


# -- builders --------------------------------------------------------------


def build_cauchy(pc: PointConfig, f: BilinearForm, power: int = 1) -> SquareMatrix:
    """The n x n matrix with entries 1/f(x_i, y_j)^power, power in {1, 2}."""
    _xy_count(pc)
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    return SquareMatrix(
        [[1 / v ** power for v in row] for row in pair_table(f, pc.xs, pc.ys)]
    )


def build_schur(pc: PointConfig, g: SymmetricForm, power: int = 1) -> SquareMatrix:
    """Skew matrix with entries (x_j - x_i)/g(x_i, x_j)^power, power in {1, 2}."""
    n = 2 * _half_count(pc)
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    xs = pc.xs
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(pair_table(g, xs)):
        for j, gv in enumerate(row, i + 1):
            v = (xs[j] - xs[i]) / gv ** power
            rows[i][j] = v
            rows[j][i] = -v
    return SquareMatrix(rows, kind="skew")


def build_hafnian_mat(pc: PointConfig, g: SymmetricForm) -> SquareMatrix:
    """Symmetric matrix with off-diagonal entries 1/g(x_i, x_j).

    The diagonal is stored as 0: the Hafnian never reads it, and
    g(x_i, x_i) may legitimately be a pole.
    """
    n = 2 * _half_count(pc)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(pair_table(g, pc.xs)):
        for j, gv in enumerate(row, i + 1):
            rows[i][j] = rows[j][i] = 1 / gv
    return SquareMatrix(rows, kind="symmetric")


# -- closed forms ----------------------------------------------------------


def cauchy_det_closed(pc: PointConfig, f: BilinearForm):
    """Closed-form det of build_cauchy(pc, f, power=1):

        (bc - ad)^{n(n-1)/2} * prod_{i<j} (x_j - x_i)(y_j - y_i)
                             / prod_{i,j} f(x_i, y_j)
    """
    n = _xy_count(pc)
    xs, ys = pc.xs, pc.ys
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= (xs[j] - xs[i]) * (ys[j] - ys[i])
    den = Fraction(1)
    for row in pair_table(f, xs, ys):
        for v in row:
            den *= v
    prefactor = (-f.disc) ** (n * (n - 1) // 2)
    return prefactor * num / den


def schur_pf_closed(pc: PointConfig, g: SymmetricForm):
    """Closed-form Pf of build_schur(pc, g, power=1):

        (b^2 - ac)^{n(n-1)} * prod_{i<j} (x_j - x_i)/g(x_i, x_j)

    where the matrix is 2n x 2n.
    """
    half = _half_count(pc)
    xs = pc.xs
    prod = Fraction(1)
    for i, row in enumerate(pair_table(g, xs)):
        for j, gv in enumerate(row, i + 1):
            prod *= (xs[j] - xs[i]) / gv
    return g.disc ** (half * (half - 1)) * prod


# -- fast paths ------------------------------------------------------------
#
# Both fast paths work in integer homogeneous coordinates: a point
# x = p/q becomes the pair (p, q), a form becomes L times itself with L the
# lcm of its coefficient denominators, and each row of the squared
# matrix is cleared of denominators by the lcm of its entries; rows with
# smaller scalings are eliminated first.  The helpers below are shared by
# both; _form_table is pair_table in these coordinates, with the same pole
# rule.


def _numerators_denominators(points, instead: str):
    """([p_i], [q_i]) with x_i = p_i/q_i, q_i > 0, for rational ``points``.

    The integer route has no room for points in Q(sqrt(d)): they are
    refused with DomainError naming ``instead``, the field route."""
    for x in points:
        if not isinstance(x, Fraction):
            raise DomainError(
                "the integer fast path needs rational points, got "
                f"{type(x).__name__}; use {instead} instead"
            )
    return [x.numerator for x in points], [x.denominator for x in points]


def _integer_form(coeffs):
    """(L, [L c for c in coeffs]) with L the lcm of the denominators of the
    rational coefficients, so that the scaled coefficients are integers."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _form_table(coeffs, xs, ys=None):
    """The integer form (A, B, C, D) at homogeneous points xs = (p, q) and
    ys = (r, s), as an n x n table of rows:

        F_ij = A p_i r_j + B p_i s_j + C q_i r_j + D q_i s_j.

    With ys None the form is symmetric (B = C) and ys = xs: only pairs
    i < j are evaluated, the lower triangle mirrors the upper one, and the
    diagonal holds 1, which leaves the row lcms alone.  The first zero in
    row-major order raises PoleError naming its pair, as in pair_table.
    """
    a, b, c, d = coeffs
    ps, qs = xs
    rs, ss = xs if ys is None else ys
    table = []
    for i, (p, q) in enumerate(zip(ps, qs)):
        lo = 0 if ys is not None else i + 1
        u, v = a * p + c * q, b * p + d * q
        row = [u * r + v * s for r, s in zip(rs[lo:], ss[lo:])]
        if 0 in row:
            raise _pole(row, i, lo, ys is None)
        table.append(row)
    if ys is None:
        table = [
            [table[j][i - j - 1] for j in range(i)] + [1] + table[i]
            for i in range(len(ps))
        ]
    return table


def _differences(points):
    """Rows of d_ij = p_j q_i - p_i q_j for j > i, so that
    x_j - x_i = d_ij / (q_i q_j)."""
    ps, qs = points
    return [
        [pj * qi - pi * qj for pj, qj in zip(ps[i + 1:], qs[i + 1:])]
        for i, (pi, qi) in enumerate(zip(ps, qs))
    ]


def _row_lcm_scaling(table):
    """([l_i], quotients, order) with l_i = lcm_j |T_ij|, quotients[i][j] =
    l_i / T_ij, an integer (row i of 1/T scaled by l_i), and the indices
    sorted by increasing l_i.

    Eliminating in that order keeps the intermediates small: after k steps
    of a fraction-free elimination they are k x k minors, which carry the
    scalings of the first k rows, so the rows with the smallest scalings
    go first.
    """
    lcms = [math.lcm(*row) for row in table]
    quotients = [[l // v for v in row] for l, row in zip(lcms, table)]
    return lcms, quotients, sorted(range(len(lcms)), key=lcms.__getitem__)


def _reordered(points, order):
    """Homogeneous points (p, q) in the given order."""
    ps, qs = points
    return [ps[i] for i in order], [qs[i] for i in order]


def fast_cauchy_perm(pc: PointConfig, f: BilinearForm):
    """Permanent of the Cauchy-type matrix 1/f(x_i, y_j) in O(n^3) ops.

    Divides det(1/f^2) by the closed-form det(1/f); requires ad - bc != 0
    (otherwise the closed form vanishes and the division-form shortcut is
    unavailable: fall back to perm_ryser).

    Everything runs on integers.  With x_i = p_i/q_i, y_j = r_j/s_j, L the
    lcm of the coefficient denominators of f and A..D = L a..L d, set

        F_ij = L q_i s_j f(x_i, y_j) = A p_i r_j + B p_i s_j + C q_i r_j + D q_i s_j,
        d_ij = p_j q_i - p_i q_j,   e_ij = r_j s_i - r_i s_j   (i < j),

    so that 1/f_ij^2 = L^2 q_i^2 s_j^2 / F_ij^2.  Scaling row i by
    D_i = lcm_j F_ij^2 makes N_ij = D_i / F_ij^2 an integer matrix, and

        det(1/f^2) = L^{2n} prod(q_i^2) prod(s_j^2) det(N) / prod(D_i)
        det(1/f)   = (BC - AD)^{n(n-1)/2} prod(d_ij) prod(e_ij)
                     L^n prod(q_i) prod(s_j) / prod(F_ij)

    (the second is cauchy_det_closed in these coordinates), whence

        perm = L^n prod(q_i) prod(s_j) prod(F_ij) det(N)
               / (prod(D_i) (BC - AD)^{n(n-1)/2} prod(d_ij) prod(e_ij)).

    det(N) comes from det_bareiss on Python ints, and the only Fraction is
    the final quotient.  Poles are found in row-major order, as the closed
    form finds them.  Points in Q(sqrt(d)) are refused; the
    field route det_bareiss(build_cauchy(pc, f, power=2)) /
    cauchy_det_closed(pc, f) takes them.
    """
    if f.disc == 0:
        raise DegenerateFormError(
            "ad - bc = 0: no closed-form divisor; use perm_ryser instead"
        )
    n = _xy_count(pc)
    instead = "det_bareiss(build_cauchy(pc, f, power=2)) / cauchy_det_closed(pc, f)"
    scale, (a, b, c, d) = _integer_form((f.a, f.b, f.c, f.d))
    xs = _numerators_denominators(pc.xs, instead)  # (p, q)
    ys = _numerators_denominators(pc.ys, instead)  # (r, s)
    table = _form_table((a, b, c, d), xs, ys)
    f_prod = math.prod(v for row in table for v in row)
    lcms, quotients, order = _row_lcm_scaling(table)
    # The permanent does not see the order of the x points; det(N) and
    # prod(d_ij) change sign together.
    xs = _reordered(xs, order)
    det_n = det_bareiss(SquareMatrix([[u * u for u in quotients[i]] for i in order]))
    d_prod = math.prod(v for row in _differences(xs) + _differences(ys) for v in row)
    num = scale**n * math.prod(xs[1] + ys[1]) * f_prod * det_n
    den = math.prod(lcms) ** 2 * (b * c - a * d) ** (n * (n - 1) // 2) * d_prod
    return Fraction(num, den)


def fast_cauchy_hafnian(pc: PointConfig, g: SymmetricForm):
    """Hafnian of the matrix 1/g(x_i, x_j) in O(n^3) ops.

    Divides Pf((x_j - x_i)/g^2) by the closed-form Pf((x_j - x_i)/g).
    Requires b^2 - ac != 0 and distinct xs (the closed form is the divisor).

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
    only Fraction is the final quotient.  Points in Q(sqrt(d)) are
    refused; pf_elimination(build_schur(pc, g, power=2)) /
    schur_pf_closed(pc, g) takes them.
    """
    if g.disc == 0:
        raise DegenerateFormError(
            "b^2 - ac = 0: no closed-form divisor; use hf_recursive instead"
        )
    half = _half_count(pc)
    m = 2 * half
    instead = "pf_elimination(build_schur(pc, g, power=2)) / schur_pf_closed(pc, g)"
    scale, (ga, gb, gc) = _integer_form((g.a, g.b, g.c))
    xs = _numerators_denominators(pc.xs, instead)  # (p, q)
    gs = _form_table((ga, gb, gb, gc), xs)
    dens, quotients, order = _row_lcm_scaling(gs)
    # The Hafnian does not see the order of the points; Pf(M) and
    # prod(d_ij) change sign together.
    xs = _reordered(xs, order)
    quotients = [[quotients[i][j] for j in order] for i in order]
    ds = _differences(xs)
    mat = [
        [0] * (i + 1)
        + [quotients[i][j] * quotients[j][i] * dv for j, dv in enumerate(ds[i], i + 1)]
        for i in range(m)
    ]
    g_prod = math.prod(v for i, row in enumerate(gs) for v in row[i + 1:])
    d_prod = math.prod(v for row in ds for v in row)
    disc = gb * gb - ga * gc  # = L^2 (b^2 - ac)
    num = scale**half * math.prod(xs[1]) * g_prod * pf_fraction_free(mat)
    den = math.prod(dens) * disc ** (half * (half - 1)) * d_prod
    return Fraction(num, den)


# -- Moebius substitution --------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional linear map z -> (A z + B)/(C z + D), AD - BC != 0.

    Coefficients live in Q or in one quadratic extension.
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


def sqrt_disc(disc: Fraction):
    """sqrt(b^2 - ac) as a Fraction when possible, else as a QuadExt element."""
    if rat_is_square(disc):
        return rat_sqrt(disc)
    return QuadExt(Fraction(0), Fraction(1), disc)


def moebius_for_form(g: SymmetricForm) -> MoebiusMap:
    """The substitution that reduces the form g to the classical x + y case.

    With s = sqrt(b^2 - ac), for a != 0

        A = 1/2,  B = (b + s)/(2a),  C = a,  D = b - s,

    and for a = 0 the affine map phi(z) = b z + c/2 (A = b, B = c/2, C = 0,
    D = 1) with s = -b, a rational square root of b^2 - ac = b^2.  Both
    maps have BC - AD = s and satisfy, with u(z) = C z + D,

        phi_i + phi_j = g(x_i, x_j) / (u_i u_j)
        phi_j - phi_i = -s (x_j - x_i) / (u_i u_j).

    Requires a nonzero discriminant.
    """
    if g.disc == 0:
        raise DegenerateFormError("b^2 - ac = 0: no Moebius reduction")
    if g.a == 0:
        return MoebiusMap(A=g.b, B=g.c / 2, C=Fraction(0), D=Fraction(1))
    return _moebius_for_root(g, sqrt_disc(g.disc))


def _moebius_for_root(g: SymmetricForm, s) -> MoebiusMap:
    """The a != 0 map of moebius_for_form for the root s of b^2 - ac; its
    pole is (s - b)/a."""
    return MoebiusMap(
        A=Fraction(1, 2) + 0 * s,
        B=(g.b + s) / (2 * g.a),
        C=g.a + 0 * s,
        D=g.b - s,
    )


def substitution_witness(pc: PointConfig, g: SymmetricForm) -> IdentityReport:
    """Exact witness that the Moebius substitution carries the classical
    Pfaffian identities into their generalized forms for g.

    Checks, in Q(sqrt(b^2 - ac)) when the discriminant is not a rational
    square:
      * the entrywise factorizations of moebius_for_form linking the
        images phi(x_i) to g at the original points,
      * the images satisfy the classical identities (the x + y Schur
        identity and the Pfaffian-Hafnian identity),
      * the generalized identities for g hold at the original points.
    All comparisons are bit-exact; any surviving odd power of sqrt(disc)
    shows up as a failed comparison, never as a guess.  A pole of g at the
    points raises PoleError as pair_table does.  A point at the map's own
    pole (s - b)/a selects the map of the root -s instead; PoleError is
    raised only when the points hold the poles of both.  lhs and rhs of the
    report are the two sides of the generalized Pfaffian-Hafnian identity.
    """
    start = time.perf_counter()
    mob = moebius_for_form(g)
    _half_count(pc)  # an odd count is refused before any pole
    xs = pc.xs
    table = pair_table(g, xs)
    s = mob.B * mob.C - mob.A * mob.D
    u = [mob.C * x + mob.D for x in xs]
    if 0 in u:
        # g has no pole at the map's own pole (s - b)/a; the map of the
        # other root -s moves it to (-s - b)/a.
        hit = xs[u.index(0)]
        mob, s = _moebius_for_root(g, -s), -s
        u = [mob.C * x + mob.D for x in xs]
        if 0 in u:
            raise PoleError(
                f"Moebius map poles at {render_scalar(hit)} and "
                f"{render_scalar(xs[u.index(0)])}, one for each root of b^2 - ac"
            )
    field = "rational" if isinstance(s, Fraction) else f"Q(sqrt({render_rat(g.disc)}))"
    # The map is injective, so the images are distinct points.
    images = PointConfig([mob.apply(x) for x in xs])
    phi = images.xs
    checks = {
        "entrywise_factorization": all(
            (phi[j] - phi[i]) * u[i] * u[j] == -s * (xs[j] - xs[i])
            and (phi[i] + phi[j]) * u[i] * u[j] == gv
            for i, row in enumerate(table)
            for j, gv in enumerate(row, i + 1)
        )
    }
    # The classical x + y identities at the images, then the generalized
    # ones for g at the points: the Schur identity and the Pfaffian-Hafnian
    # identity, both with numerators x_j - x_i.
    for kind, where, pts, form in (
        ("classical", "images", images, SymmetricForm.from_name("x+y")),
        ("generalized", "points", pc, g),
    ):
        closed = schur_pf_closed(pts, form)
        schur = pf_elimination(build_schur(pts, form, power=1))
        checks[f"{kind}_schur_at_{where}"] = schur == closed
        lhs = pf_elimination(build_schur(pts, form, power=2))
        rhs = closed * hf_recursive(build_hafnian_mat(pts, form))
        checks[f"{kind}_pf_hf_at_{where}"] = lhs == rhs
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

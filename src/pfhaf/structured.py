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

A form meets its points once per call, on integers.  _table is the one
reader of a structured function's input: it refuses a form of the wrong
class and points of the wrong shape, and returns the integer table of the
form at the points in homogeneous coordinates (x = p/q, and the form
scaled by the lcm L of its coefficient denominators), which reads the
point type and raises the first pole.  The builders, the closed forms, the
fast paths, the identity checks and the substitution witness all work
from that one table, and each value becomes at most one Fraction.  The
det and Pf sides of the identity checks take the fast paths' integer
routes (_det_cauchy, _pf_schur) and build no matrix of Fractions; the
builders serve perm_ryser and hf_recursive.  A point in Q(sqrt(d)) has p
in Z[sqrt(D)], a pair of ints (see scalar.ring_parts); the same code runs
on those pairs, and a value that reads one becomes one QuadExt.  The
substitution witness maps the points on the same layer (_images).
gen_points' pole test, which reads no shape, builds the table with
_homogeneous alone.

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
from itertools import chain

from .errors import DegenerateFormError, DomainError, PoleError, need
from .kernels import _sign, det_bareiss, hf_recursive, perm_ryser, pf_fraction_free
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
    ring_of,
    ring_parts,
    ring_quotient,
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
        coeffs = isinstance(name, str) and cls._NAMED.get(name.replace(" ", ""))
        if not coeffs:
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
        return self.a * x * y + self.b * x + self.c * y + self.d


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
        return self.a * x * y + self.b * (x + y) + self.c


# -- the form at the points ------------------------------------------------
#
# The homogeneous layer: with x_i = p_i/q_i, y_j = r_j/s_j (q_i, s_j > 0),
# L the lcm of the coefficient denominators and A..D = L a..L d,
#
#     F_ij = L q_i s_j f(x_i, y_j) = A p_i r_j + B p_i s_j + C q_i r_j + D q_i s_j,
#
# and g is the bilinear form with B = C, so G_ij = L q_i q_j g(x_i, x_j).
# p_i and r_j are ints at rational points and Z[sqrt(D)] pairs at points in
# Q(sqrt(d)); q_i and s_j are positive ints.  Only the witness's images
# (_images) have denominators Q_i that may be negative or pairs, and the
# integer routes, the closed form and _hafnian read those as well.


def _pole(row, i: int, lo: int, symmetric: bool) -> PoleError:
    """The PoleError for the first zero of ``row``, the form at the pairs
    (i, lo), (i, lo + 1), ... (0-based), named by its 1-based pair."""
    j = lo + row.index(0) + 1
    at = f"g(x_{i + 1}, x_{j})" if symmetric else f"f(x_{i + 1}, y_{j})"
    return PoleError(f"{at} = 0", pair=(i + 1, j))


def _form_table(coeffs, xs, ys=None):
    """The integer form (A, B, C, D) at homogeneous points xs = (p, q) and
    ys = (r, s): rows of F_ij over all pairs or, with ys None, of
    F_ij with ys = xs over j > i.  The first zero in row-major order raises
    PoleError naming its pair.  A point enters only through the nonzero
    coefficients that read it, so an entry is a Z[sqrt(D)] pair exactly
    when the form's nonzero terms read a point in Q(sqrt(d))."""
    a, b, c, d = coeffs
    ps, qs = xs
    rs, ss = xs if ys is None else ys
    table = []
    for i, (p, q) in enumerate(zip(ps, qs)):
        lo = 0 if ys is not None else i + 1
        u = a * p + c * q if a else c * q
        v = b * p + d * q if b else d * q
        if a or c:
            row = [u * r + v * s for r, s in zip(rs[lo:], ss[lo:])]
        else:
            row = [v * s for s in ss[lo:]]
        if 0 in row:
            raise _pole(row, i, lo, ys is None)
        table.append(row)
    return table


@dataclass(frozen=True)
class _Homogeneous:
    """A form at its points in integer homogeneous coordinates: the scale L,
    the integer coefficients (A, B, C, D), the points xs = (p, q) and
    ys = (r, s), and the table of _form_table.  ys is None when the pairs
    are (x_i, x_j), j > i."""

    scale: int
    coeffs: tuple
    xs: tuple
    ys: tuple | None
    table: list


def _homogeneous(form, xs, ys) -> _Homogeneous:
    """The form at the points in homogeneous coordinates, for _table and
    gen_points' pole test.  Points in Q(sqrt(d)) share one radicand (two
    raise DomainError); the first pole in row-major order raises PoleError."""
    ring_of(xs if ys is None else (*xs, *ys))
    coeffs = [getattr(form, f.name) for f in fields(form)]
    if isinstance(form, SymmetricForm):
        coeffs.insert(2, coeffs[1])  # g is the bilinear form with B = C
    scale = math.lcm(*(c.denominator for c in coeffs))
    coeffs = tuple(c.numerator * (scale // c.denominator) for c in coeffs)
    hx = ring_parts(xs)
    hy = None if ys is None else ring_parts(ys)
    return _Homogeneous(scale, coeffs, hx, hy, _form_table(coeffs, hx, hy))


def _table(pc: PointConfig, form, cls) -> _Homogeneous:
    """The form at the points: the one reader of a structured function's
    input.  A form that is not a ``cls`` is refused, then points that are
    not a PointConfig, then a shape other than n x and n y points, or 2n x
    points and no y for a SymmetricForm."""
    need(form, cls)
    need(pc, PointConfig)
    if cls is BilinearForm:
        if pc.ys is None or len(pc.xs) != len(pc.ys):
            raise DomainError("need equally many x and y points")
    elif pc.ys is not None:
        raise DomainError("a symmetric form reads x points only; got y points")
    elif len(pc.xs) % 2 != 0:
        raise DomainError("need an even number of x points")
    return _homogeneous(form, pc.xs, pc.ys)


def _differences(points):
    """Rows of d_ij = p_j q_i - p_i q_j for j > i, so that
    x_j - x_i = d_ij / (q_i q_j)."""
    ps, qs = points
    return [
        [pj * qi - pi * qj for pj, qj in zip(ps[i + 1:], qs[i + 1:])]
        for i, (pi, qi) in enumerate(zip(ps, qs))
    ]


def _mirrored(upper, skew: bool):
    """The n x n rows of the matrix whose entries above the diagonal are
    ``upper`` (rows over j > i), with zeros on the diagonal and the upper
    entries reflected below it, negated when ``skew``."""
    n = len(upper)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, v in enumerate(row, i + 1):
            rows[i][j] = v
            rows[j][i] = -v if skew else v
    return rows


# -- builders --------------------------------------------------------------


def build_cauchy(pc: PointConfig, f: BilinearForm, power: int = 1) -> SquareMatrix:
    """The n x n matrix with entries 1/f(x_i, y_j)^power, power in {1, 2}:
    (L q_i s_j)^power / F_ij^power."""
    if not isinstance(power, int) or power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    return _cauchy(_table(pc, f, BilinearForm), power)


def _cauchy(h: _Homogeneous, power: int) -> SquareMatrix:
    ss = h.ys[1]
    rows = [
        [ring_quotient((h.scale * q * s) ** power, v**power) for v, s in zip(row, ss)]
        for q, row in zip(h.xs[1], h.table)
    ]
    return SquareMatrix(rows)


def build_schur(pc: PointConfig, g: SymmetricForm, power: int = 1) -> SquareMatrix:
    """Skew matrix with entries (x_j - x_i)/g(x_i, x_j)^power, power in
    {1, 2}: L^power d_ij (q_i q_j)^(power - 1) / G_ij^power, with
    d_ij = p_j q_i - p_i q_j."""
    if not isinstance(power, int) or power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    h = _table(pc, g, SymmetricForm)
    lp, qs = h.scale**power, h.xs[1]
    upper = [
        [
            ring_quotient(lp * d * (qi * qj) ** (power - 1), v**power)
            for v, d, qj in zip(row, ds, qs[i + 1:])
        ]
        for i, (qi, row, ds) in enumerate(zip(qs, h.table, _differences(h.xs)))
    ]
    return SquareMatrix(_mirrored(upper, skew=True))


def build_hafnian_mat(pc: PointConfig, g: SymmetricForm) -> SquareMatrix:
    """Symmetric matrix with off-diagonal entries 1/g(x_i, x_j) =
    L q_i q_j / G_ij.

    The diagonal is stored as 0: the Hafnian never reads it, and
    g(x_i, x_i) may legitimately be a pole.
    """
    return _hafnian(_table(pc, g, SymmetricForm))


def _hafnian(h: _Homogeneous) -> SquareMatrix:
    qs = h.xs[1]
    upper = [
        [ring_quotient(h.scale * qi * qj, v) for v, qj in zip(row, qs[i + 1:])]
        for i, (qi, row) in enumerate(zip(qs, h.table))
    ]
    return SquareMatrix(_mirrored(upper, skew=False))


# -- closed forms ----------------------------------------------------------


def _product(rows) -> int:
    return math.prod(v for row in rows for v in row)


def _closed_form(h: _Homogeneous):
    """The closed form as integers (num, den), ints or Z[sqrt(D)] pairs.  With
    e_ij = r_j s_i - r_i s_j, it is cauchy_det_closed for n x and n y
    points,

        (BC - AD)^{n(n-1)/2} L^n prod(q_i) prod(s_j) prod(d_ij) prod(e_ij)
        / prod(F_ij),

    and schur_pf_closed for 2n x points (B = C),

        (B^2 - AC)^{n(n-1)} L^n prod(d_ij) / prod(G_ij).

    Both are the Fraction formulas with L^2 (bc - ad) = BC - AD and
    x_j - x_i = d_ij / (q_i q_j); only the product of the table is read,
    so the points may come in any order.
    """
    a, b, c, d = h.coeffs
    n = len(h.xs[0])
    diffs = _differences(h.xs)
    if h.ys is None:
        n //= 2
        power, weight = n * (n - 1), 1
    else:
        power, weight = n * (n - 1) // 2, math.prod(h.xs[1]) * math.prod(h.ys[1])
        diffs += _differences(h.ys)
    num = (b * c - a * d) ** power * h.scale**n * weight * _product(diffs)
    return num, _product(h.table)


def cauchy_det_closed(pc: PointConfig, f: BilinearForm):
    """Closed-form det of build_cauchy(pc, f, power=1):

        (bc - ad)^{n(n-1)/2} * prod_{i<j} (x_j - x_i)(y_j - y_i)
                             / prod_{i,j} f(x_i, y_j)
    """
    return ring_quotient(*_closed_form(_table(pc, f, BilinearForm)))


def schur_pf_closed(pc: PointConfig, g: SymmetricForm):
    """Closed-form Pf of build_schur(pc, g, power=1):

        (b^2 - ac)^{n(n-1)} * prod_{i<j} (x_j - x_i)/g(x_i, x_j)

    where the matrix is 2n x 2n.
    """
    return ring_quotient(*_closed_form(_table(pc, g, SymmetricForm)))


# -- the integer routes ----------------------------------------------------
#
# det(1/f^p) and Pf((x_j - x_i)/g^p), p in {1, 2}, run on the integers of
# the homogeneous layer, at rational points and in Q(sqrt(d)) alike: each
# row of 1/F^p or 1/G^p is cleared of denominators by the lcm of its
# entries (_row_lcm_scaling), rows with smaller scalings are eliminated
# first, and the integer det or Pf comes back as (num, den), ints or
# Z[sqrt(D)] pairs, with the reordering's sign undone.  The fast paths
# divide it by _closed_form, the closed form as integers, and _sides
# compares the two, so every value is one Fraction or QuadExt at the end.


def _row_lcm_scaling(table):
    """([l_i], quotients, order) with l_i = lcm_j of |T_ij| for an int entry
    and of its norm |N(T_ij)| for a Z[sqrt(D)] pair, quotients[i][j] =
    l_i / T_ij, integral (row i of 1/T scaled by l_i; for a pair,
    (l_i / N(T_ij)) conj(T_ij)), and the indices sorted by increasing l_i.

    Eliminating in that order keeps the intermediates small: after k steps
    of a fraction-free elimination they are k x k minors, which carry the
    scalings of the first k rows, so the rows with the smallest scalings
    go first.
    """
    lcms = [
        math.lcm(*(t if type(t) is int else t.norm() for t in row)) for row in table
    ]
    quotients = [[l // v for v in row] for l, row in zip(lcms, table)]
    return lcms, quotients, sorted(range(len(lcms)), key=lcms.__getitem__)


def _det_cauchy(h: _Homogeneous, power: int):
    """(num, den) with det(1/f^power) = num / den at the n x and n y points
    of h, power in {1, 2}.

    In the homogeneous coordinates of _homogeneous, 1/f_ij^p =
    (L q_i s_j)^p / F_ij^p.  Scaling row i by l_i^p, with l_i from
    _row_lcm_scaling, makes N_ij = (l_i / F_ij)^p an integer matrix, and

        det(1/f^p) = L^{pn} prod(q_i^p) prod(s_j^p) det(N) / prod(l_i^p),

    with det(N) from det_bareiss on Python ints, or on Z[sqrt(D)] pairs at
    points in Q(sqrt(d)).
    """
    lcms, quotients, order = _row_lcm_scaling(h.table)
    rows = [quotients[i] for i in order]
    if power == 2:
        rows = [[u * u for u in row] for row in rows]
    weight = h.scale ** len(order) * math.prod(h.xs[1]) * math.prod(h.ys[1])
    det_n = det_bareiss(SquareMatrix(rows))
    return _sign(order) * weight**power * det_n, math.prod(lcms) ** power


def _pf_schur(h: _Homogeneous, power: int):
    """(num, den) with Pf((x_j - x_i)/g^power) = num / den at the 2n points
    of h, power in {1, 2}.

    In the homogeneous coordinates of _homogeneous, (x_j - x_i)/g^p =
    L^p (q_i q_j)^(p-1) d_ij / G_ij^p.  Scaling index i by D_i, the l_i of
    _row_lcm_scaling on the whole symmetric table, makes D_i D_j d_ij /
    G_ij^p an integer skew matrix M (d_ij (D_i/G_ij)(D_j/G_ij) for p = 2,
    d_ij (D_i/G_ij) D_j for p = 1), and multilinearity of Pf gives

        Pf((x_j - x_i)/g^p) = L^{pn} prod(q_i)^(p-1) Pf(M) / prod(D_i),

    with Pf(M) from pf_fraction_free, over Z[sqrt(D)] at points in
    Q(sqrt(d)).
    """
    # The table holds j > i; the row lcms read the whole symmetric table,
    # with 1 on the diagonal.
    gs = h.table
    full = [[gs[j][i - j - 1] for j in range(i)] + [1] + gs[i] for i in range(len(gs))]
    dens, quotients, order = _row_lcm_scaling(full)
    quotients = [[quotients[i][j] for j in order] for i in order]
    right = quotients if power == 2 else [[dens[i]] * len(order) for i in order]
    mat = [
        [0] * (i + 1)
        + [quotients[i][j] * right[j][i] * dv for j, dv in enumerate(ds, i + 1)]
        for i, ds in enumerate(_differences([[v[k] for k in order] for v in h.xs]))
    ]
    weight = h.scale ** (power * len(order) // 2) * math.prod(h.xs[1]) ** (power - 1)
    return _sign(order) * weight * pf_fraction_free(mat), math.prod(dens)


# -- the structured identities ---------------------------------------------


def _sides(family: str, h: _Homogeneous):
    """(lhs, rhs) of one structured identity on the table h of _table: the
    integer route against the closed form, times perm_ryser or
    hf_recursive on a builder's matrix for BORCH and MAIN.

        DET    det(1/f)            = cauchy_det_closed
        BORCH  det(1/f^2)          = cauchy_det_closed * perm(1/f)
        SCHUR  Pf((x_j - x_i)/g)   = schur_pf_closed
        MAIN   Pf((x_j - x_i)/g^2) = schur_pf_closed * Hf(1/g)

    Each side has the type a general kernel gives on the builder's matrix:
    that matrix holds a QuadExt exactly where the table (det) or the table
    and the points (Pf) hold a Z[sqrt(D)] pair.
    """
    rhs = ring_quotient(*_closed_form(h))
    power = 2 if family in ("BORCH", "MAIN") else 1
    if family in ("DET", "BORCH"):
        num, den = _det_cauchy(h, power)
        reads = chain.from_iterable(h.table)
    else:
        num, den = _pf_schur(h, power)
        reads = chain(h.xs[0], *h.table)
    ring = next((type(v) for v in reads if type(v) is not int), None)
    lhs = ring_quotient(num, den, ring)
    if family == "BORCH":
        rhs *= perm_ryser(_cauchy(h, 1))
    elif family == "MAIN":
        rhs *= hf_recursive(_hafnian(h))
    return lhs, rhs


# -- fast paths ------------------------------------------------------------


def fast_cauchy_perm(pc: PointConfig, f: BilinearForm):
    """Permanent of the Cauchy-type matrix 1/f(x_i, y_j) in O(n^3) ops.

    Divides det(1/f^2) (_det_cauchy) by the closed-form det(1/f); requires
    ad - bc != 0 (otherwise the closed form vanishes and the division-form
    shortcut is unavailable: fall back to perm_ryser).  Poles are found in
    row-major order, as the closed form finds them.
    """
    return _fast(pc, f, BilinearForm, _det_cauchy,
                 "ad - bc = 0: no closed-form divisor; use perm_ryser instead")


def fast_cauchy_hafnian(pc: PointConfig, g: SymmetricForm):
    """Hafnian of the matrix 1/g(x_i, x_j) in O(n^3) ops.

    Divides Pf((x_j - x_i)/g^2) (_pf_schur) by the closed-form
    Pf((x_j - x_i)/g).  Requires b^2 - ac != 0 and distinct xs (the closed
    form is the divisor).
    """
    return _fast(pc, g, SymmetricForm, _pf_schur,
                 "b^2 - ac = 0: no closed-form divisor; use hf_recursive instead")


def _fast(pc: PointConfig, form, cls, route, degenerate: str):
    """The fast paths' one body, on integers: route(h, 2) over _closed_form,
    so the only Fraction or QuadExt is the final quotient.  A zero disc
    raises DegenerateFormError(``degenerate``)."""
    if need(form, cls).disc == 0:
        raise DegenerateFormError(degenerate)
    h = _table(pc, form, cls)
    num2, den2 = route(h, 2)
    num, den = _closed_form(h)
    return ring_quotient(num2 * den, den2 * num)


# -- Moebius substitution --------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional linear map z -> (A z + B)/(C z + D).

    Coefficients live in Q or in one quadratic extension.
    """

    A: object
    B: object
    C: object
    D: object


def sqrt_disc(disc: Fraction):
    """sqrt(b^2 - ac) as a Fraction when possible, else as a QuadExt element."""
    disc = rational(disc, "discriminants")
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
    if need(g, SymmetricForm).disc == 0:
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


_XPY = (0, 1, 1, 0)  # x + y as the integer bilinear form of _form_table


def _images(mob: MoebiusMap, points):
    """(E, S, (P, Q)) for the images phi(x_i) = P_i / Q_i of homogeneous
    points (p, q): with E the lcm of the map's coefficient denominators,
    P_i = E (A p_i + B q_i), Q_i = E (C p_i + D q_i) = E q_i u_i and
    S = E^2 (BC - AD) = E^2 s, ints or Z[sqrt(D)] pairs."""
    nums, dens = ring_parts([mob.A, mob.B, mob.C, mob.D])
    e = math.lcm(*dens)
    a, b, c, d = (v * (e // w) for v, w in zip(nums, dens))
    ps, qs = points
    images = (
        [a * p + b * q for p, q in zip(ps, qs)],
        [c * p + d * q for p, q in zip(ps, qs)],
    )
    return e, b * c - a * d, images


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
    points raises PoleError naming its pair, before the map's poles are
    looked at.  A point at the map's own pole (s - b)/a selects the map of
    the root -s instead; PoleError is raised only when the points hold the
    poles of both.  lhs and rhs of the report are the two sides of the
    generalized Pfaffian-Hafnian identity.

    Everything runs on the homogeneous layer: with x_i = p_i/q_i, the
    images are phi(x_i) = P_i/Q_i and u_i = Q_i/(E q_i) (_images), so the
    two factorizations are the integer identities

        P_j Q_i - P_i Q_j = -S d_ij   and   L (P_i Q_j + P_j Q_i) = E^2 G_ij

    between the differences and x + y tables at the images and the
    differences and g table at the points, and the classical identities
    run on the images' x + y table, whose Q_i may be pairs.
    """
    start = time.perf_counter()
    mob = moebius_for_form(g)
    at_points = _table(pc, g, SymmetricForm)  # a pole of g is named before the map's
    xs = pc.xs
    s = mob.B * mob.C - mob.A * mob.D
    ring_of([*xs, s])  # points in another field than sqrt(b^2 - ac) raise
    e, big_s, images = _images(mob, at_points.xs)
    if 0 in images[1]:
        # g has no pole at the map's own pole (s - b)/a; the map of the
        # other root -s moves it to (-s - b)/a.
        hit = xs[images[1].index(0)]
        mob, s = _moebius_for_root(g, -s), -s
        e, big_s, images = _images(mob, at_points.xs)
        if 0 in images[1]:
            other = xs[images[1].index(0)]
            raise PoleError(
                f"Moebius map poles at {render_scalar(hit)} and "
                f"{render_scalar(other)}, one for each root of b^2 - ac"
            )
    field = "rational" if isinstance(s, Fraction) else f"Q(sqrt({render_rat(g.disc)}))"
    # The map is injective, so the images are distinct points.
    at_images = _Homogeneous(1, _XPY, images, None, _form_table(_XPY, images))
    scale, e2 = at_points.scale, e * e
    checks = {
        "entrywise_factorization": all(
            di == -big_s * d and scale * hv == e2 * gv
            for rows in zip(
                _differences(images), _differences(at_points.xs),
                at_images.table, at_points.table,
            )
            for di, d, hv, gv in zip(*rows)
        )
    }
    # The classical x + y identities at the images, then the generalized
    # ones for g at the points: the Schur identity and the Pfaffian-Hafnian
    # identity, both with numerators x_j - x_i.
    for kind, where, h in (
        ("classical", "images", at_images),
        ("generalized", "points", at_points),
    ):
        schur, closed = _sides("SCHUR", h)
        checks[f"{kind}_schur_at_{where}"] = schur == closed
        lhs, rhs = _sides("MAIN", h)
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

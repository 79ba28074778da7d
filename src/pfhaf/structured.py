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
in Z[sqrt(D)], a pair of ints (see scalar._ring_parts); the same code runs
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
    _ring_of,
    _ring_parts,
    _ring_quotient,
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
# Q(sqrt(d)); q_i and s_j are positive ints.  The builders, the closed form
# and the integer routes read q_i and s_j as the table's affine weights
# (_Homogeneous.weights), and the coordinates only through the table and
# _differences.  The witness's images (_images) carry unit weights: their
# checks run projectively, so an image at infinity, (P_i, 0), is a point
# like any other.


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
    ys = (r, s), the table of _form_table, and the affine weights
    (x weights, y weights), the q_i and s_j that turn the projective values
    into the values at x_i = p_i/q_i and y_j = r_j/s_j.  ys and the y
    weights are None when the pairs are (x_i, x_j), j > i."""

    scale: int
    coeffs: tuple
    xs: tuple
    ys: tuple | None
    table: list
    weights: tuple


def _homogeneous(form, xs, ys) -> _Homogeneous:
    """The form at the points in homogeneous coordinates, for _table and
    gen_points' pole test.  Points in Q(sqrt(d)) share one radicand (two
    raise DomainError); the first pole in row-major order raises PoleError."""
    _ring_of(xs if ys is None else (*xs, *ys))
    coeffs = [getattr(form, f.name) for f in fields(form)]
    if isinstance(form, SymmetricForm):
        coeffs.insert(2, coeffs[1])  # g is the bilinear form with B = C
    scale = math.lcm(*(c.denominator for c in coeffs))
    coeffs = tuple(c.numerator * (scale // c.denominator) for c in coeffs)
    hx = _ring_parts(xs)
    hy = None if ys is None else _ring_parts(ys)
    weights = (hx[1], None if hy is None else hy[1])
    return _Homogeneous(scale, coeffs, hx, hy, _form_table(coeffs, hx, hy), weights)


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
    qs, ss = h.weights
    rows = [
        [_ring_quotient((h.scale * q * s) ** power, v**power) for v, s in zip(row, ss)]
        for q, row in zip(qs, h.table)
    ]
    return SquareMatrix(rows)


def build_schur(pc: PointConfig, g: SymmetricForm, power: int = 1) -> SquareMatrix:
    """Skew matrix with entries (x_j - x_i)/g(x_i, x_j)^power, power in
    {1, 2}: L^power d_ij (q_i q_j)^(power - 1) / G_ij^power, with
    d_ij = p_j q_i - p_i q_j."""
    if not isinstance(power, int) or power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    h = _table(pc, g, SymmetricForm)
    lp, qs = h.scale**power, h.weights[0]
    upper = [
        [
            _ring_quotient(lp * d * (qi * qj) ** (power - 1), v**power)
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
    qs = h.weights[0]
    upper = [
        [_ring_quotient(h.scale * qi * qj, v) for v, qj in zip(row, qs[i + 1:])]
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
        power, weight = n * (n - 1) // 2, math.prod(chain(*h.weights))
        diffs += _differences(h.ys)
    num = (b * c - a * d) ** power * h.scale**n * weight * _product(diffs)
    return num, _product(h.table)


def cauchy_det_closed(pc: PointConfig, f: BilinearForm):
    """Closed-form det of build_cauchy(pc, f, power=1):

        (bc - ad)^{n(n-1)/2} * prod_{i<j} (x_j - x_i)(y_j - y_i)
                             / prod_{i,j} f(x_i, y_j)
    """
    return _ring_quotient(*_closed_form(_table(pc, f, BilinearForm)))


def schur_pf_closed(pc: PointConfig, g: SymmetricForm):
    """Closed-form Pf of build_schur(pc, g, power=1):

        (b^2 - ac)^{n(n-1)} * prod_{i<j} (x_j - x_i)/g(x_i, x_j)

    where the matrix is 2n x 2n.
    """
    return _ring_quotient(*_closed_form(_table(pc, g, SymmetricForm)))


# -- the integer routes ----------------------------------------------------
#
# det(1/f^p) and Pf((x_j - x_i)/g^p), p in {1, 2}, run on the integers of
# the homogeneous layer, at rational points and in Q(sqrt(d)) alike, scaled
# by one staircase (_staircase).  The rows, and separately the columns, are
# sorted by the increasing lcm of their entries, and each pair's factor
# F_ij^p or G_ij^p goes to the later of its two indices in that order.  A
# fraction-free elimination's entries after k pivots are minors on the
# first k indices and one or two trailing ones, so they carry only the
# factors of the pairs among the indices eliminated so far, not of every
# point.  The integer det or Pf comes back as (num, den), ints or
# Z[sqrt(D)] pairs, with the reorderings' signs undone.  The fast paths
# divide it by _closed_form, the closed form as integers, and _sides
# compares the two, so every value is one Fraction or QuadExt at the end.


def _staircase(h: _Homogeneous, power: int):
    """The staircase scaling of 1/T^power for the table T of h: (N, den,
    rows, cols).  The rows go in the order ``rows`` and the columns in
    ``cols``, each sorted by the increasing lcm of its entries over the
    whole table, and each pair's factor goes to the later of its two
    indices.  With i and j positions in those orders, for n x and n y
    points

        R_i = lcm_{j <= i} F_ij^p,  C_j = lcm_{i < j} F_ij^p,
        N_ij = R_i C_j / F_ij^p,    den = prod(R_i) prod(C_j),

    so det(N) = den det(1/F^p) on the reordered table.  For 2n x points
    one order serves both (G is symmetric) and, with D_0 = 1,

        D_j = lcm_{i < j} G_ij^p,   N_ij = D_i D_j / G_ij^p (rows over j > i),
        den = prod(D_i),

    so Pf(d_ij N_ij) = den Pf(d_ij / G_ij^p) for any skew d.  The lcm reads
    |T_ij| for an int and the norm |N(T_ij)| for a Z[sqrt(D)] pair, whose
    quotient is (lcm / N(T_ij)) conj(T_ij).
    """
    t, symmetric = h.table, h.ys is None
    if symmetric:  # rows over j > i: the whole symmetric table, 1 on the diagonal
        t = [[t[j][i - j - 1] for j in range(i)] + [1] + t[i] for i in range(len(t))]
    norms = [[v if type(v) is int else v.norm() for v in row] for row in t]
    rows = sorted(range(len(t)), key=[math.lcm(*row) for row in norms].__getitem__)
    cols = rows if symmetric else sorted(
        range(len(t)), key=[math.lcm(*col) for col in zip(*norms)].__getitem__
    )
    t = [[t[i][j] for j in cols] for i in rows]
    norms = [[norms[i][j] for j in cols] for i in rows]
    rights = [math.lcm(*col[:j]) for j, col in enumerate(zip(*norms))]
    if symmetric:
        scaled = [
            [(d * (c // v)) ** power for v, c in zip(row[i + 1:], rights[i + 1:])]
            for i, (d, row) in enumerate(zip(rights, t))
        ]
        return scaled, math.prod(rights) ** power, rows, cols
    lefts = [math.lcm(*row[:i + 1]) for i, row in enumerate(norms)]
    scaled = [
        [
            ((r // v) * c if j <= i else r * (c // v)) ** power
            for j, (v, c) in enumerate(zip(row, rights))
        ]
        for i, (r, row) in enumerate(zip(lefts, t))
    ]
    return scaled, (math.prod(lefts) * math.prod(rights)) ** power, rows, cols


def _det_cauchy(h: _Homogeneous, power: int):
    """(num, den) with det(1/f^power) = num / den at the n x and n y points
    of h, power in {1, 2}.

    In the homogeneous coordinates of _homogeneous, 1/f_ij^p =
    (L q_i s_j)^p / F_ij^p.  With N = R (1/F^p) C the staircase scaling
    of F (_staircase) and sigma, tau its row and column orders,

        det(1/f^p) = sgn(sigma) sgn(tau) L^{pn} prod(q_i^p) prod(s_j^p)
                     det(N) / (prod(R_i) prod(C_j)),

    with det(N) from det_bareiss on Python ints, or on Z[sqrt(D)] pairs at
    points in Q(sqrt(d)).
    """
    scaled, den, rows, cols = _staircase(h, power)
    weight = h.scale ** len(rows) * math.prod(chain(*h.weights))
    det_n = det_bareiss(SquareMatrix(scaled))
    return _sign(rows) * _sign(cols) * weight**power * det_n, den


def _pf_schur(h: _Homogeneous, power: int):
    """(num, den) with Pf((x_j - x_i)/g^power) = num / den at the 2n points
    of h, power in {1, 2}.

    In the homogeneous coordinates of _homogeneous, (x_j - x_i)/g^p =
    L^p (q_i q_j)^(p-1) d_ij / G_ij^p.  The staircase scaling of G
    (_staircase) orders the points by sigma and gives index j the factor
    D_j = lcm_{i < j} G_ij^p, so that M_ij = d_ij D_i (D_j / G_ij^p)
    (i < j) is an integer skew matrix, and multilinearity of Pf gives

        Pf((x_j - x_i)/g^p) = sgn(sigma) L^{pn} prod(q_i)^(p-1) Pf(M)
                              / prod(D_i),

    with Pf(M) from pf_fraction_free, over Z[sqrt(D)] at points in
    Q(sqrt(d)).
    """
    scaled, den, order, _ = _staircase(h, power)
    mat = [
        [0] * (i + 1) + [v * d for v, d in zip(row, ds)]
        for i, (row, ds) in enumerate(
            zip(scaled, _differences([[v[k] for k in order] for v in h.xs]))
        )
    ]
    weight = h.scale ** (power * len(order) // 2) * math.prod(h.weights[0]) ** (power - 1)
    return _sign(order) * weight * pf_fraction_free(mat), den


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
    rhs = _ring_quotient(*_closed_form(h))
    power = 2 if family in ("BORCH", "MAIN") else 1
    if family in ("DET", "BORCH"):
        num, den = _det_cauchy(h, power)
        reads = chain.from_iterable(h.table)
    else:
        num, den = _pf_schur(h, power)
        reads = chain(h.xs[0], *h.table)
    ring = next((type(v) for v in reads if type(v) is not int), None)
    lhs = _ring_quotient(num, den, ring)
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
    return _ring_quotient(num2 * den, den2 * num)


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

    For a != 0 the map has its pole at (s - b)/a, where u vanishes; there
    phi is infinity, a point the substitution witness takes like any other.
    Requires a nonzero discriminant.
    """
    if need(g, SymmetricForm).disc == 0:
        raise DegenerateFormError("b^2 - ac = 0: no Moebius reduction")
    if g.a == 0:
        return MoebiusMap(A=g.b, B=g.c / 2, C=Fraction(0), D=Fraction(1))
    s = sqrt_disc(g.disc)
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
    S = E^2 (BC - AD) = E^2 s, ints or Z[sqrt(D)] pairs.  The image of the
    map's pole is infinity, (P_i, 0) with P_i nonzero."""
    nums, dens = _ring_parts([mob.A, mob.B, mob.C, mob.D])
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
    points raises PoleError naming its pair; it is the only pole refused.
    A point at the map's pole (s - b)/a maps to infinity.  lhs and rhs of
    the report are the two sides of the generalized Pfaffian-Hafnian
    identity.

    Everything runs on the homogeneous layer: with x_i = p_i/q_i, the
    images are phi(x_i) = P_i/Q_i and u_i = Q_i/(E q_i) (_images), so the
    two factorizations are the integer identities

        P_j Q_i - P_i Q_j = -S d_ij   and   L (P_i Q_j + P_j Q_i) = E^2 G_ij

    between the differences and x + y tables at the images and the
    differences and g table at the points.  The classical identities run
    on the images' x + y table with unit weights, that is projectively:
    the affine weights Q_i would scale both sides of each alike, and no
    entry, difference or weight divides by Q_i, so an image at infinity,
    (P_i, 0), is checked like any other.
    """
    start = time.perf_counter()
    mob = moebius_for_form(g)
    at_points = _table(pc, g, SymmetricForm)  # a pole of g is named first
    s = mob.B * mob.C - mob.A * mob.D
    _ring_of([*pc.xs, s])  # points in another field than sqrt(b^2 - ac) raise
    e, big_s, images = _images(mob, at_points.xs)
    field = "rational" if isinstance(s, Fraction) else f"Q(sqrt({render_rat(g.disc)}))"
    # The map is injective, so the images are distinct points.
    unit = ([1] * len(images[0]), None)
    at_images = _Homogeneous(1, _XPY, images, None, _form_table(_XPY, images), unit)
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

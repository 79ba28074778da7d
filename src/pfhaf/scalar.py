"""Exact scalars: arbitrary-precision rationals and the quadratic extension Q(sqrt(d)).

The base scalar is ``fractions.Fraction``: it is
arbitrary precision, always stored in lowest terms with a positive
denominator, and every arithmetic operation is exact.  The quadratic
extension ``QuadExt`` represents numbers p + q*sqrt(d) with rational p, q
and a fixed radicand d that is not the square of a rational; it is only
needed for the Moebius-substitution derivation of the generalized Pfaffian
identities, where sqrt(b^2 - a*c) enters the substitution constants.

Under both lies one integer layer.  With d = n/m and D = n*m, sqrt(d) =
sqrt(D)/m, so p + q*sqrt(d) = (P + Q sqrt(D))/R with ints P, Q and R > 0,
and a QuadExt is held as its pair in Z[sqrt(D)] over R, as a Fraction is its
numerator over its denominator.  ``ring_parts`` reads num/den off ints,
Fractions and QuadExt; ``ring_quotient`` makes one Fraction or QuadExt.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

from .errors import DomainError


def unlimited_digits(convert, value):
    """``convert(value)``, a conversion between int and decimal text, at any
    number of digits.  CPython 3.10.7+ refuses more than
    sys.get_int_max_str_digits() (4300 by default) with ValueError; then
    the limit is lifted for one retry and restored before returning."""
    try:
        return convert(value)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional sign), or a decimal such as "1.5",
    into an exact rational.

    Unicode minus signs are accepted so rendered values round-trip.
    Anything but a string is refused with DomainError, and so is an
    exponent ("1e9"): nine characters of one would be an integer of
    millions of digits.
    """
    if not isinstance(text, str):
        raise DomainError(f'not a rational: {text!r} (write it as text, e.g. "3/4")')
    s = text.strip().replace("−", "-")
    if "e" in s.lower():
        raise DomainError(f"not a rational: {text!r} (write it as p/q or p, with no exponent)")
    try:
        return unlimited_digits(Fraction, s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def _rat_text(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def render_rat(r: Fraction) -> str:
    """Lossless textual form: "p/q", or "p" when the denominator is 1;
    anything but an int or Fraction raises DomainError."""
    return unlimited_digits(_rat_text, rational(r))


def rat_is_square(r: Fraction) -> bool:
    """True iff r is the square of a rational; anything but an int or
    Fraction raises DomainError."""
    r = rational(r)
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    sn, sd = math.isqrt(n), math.isqrt(d)
    return sn * sn == n and sd * sd == d


def rat_sqrt(r: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational; DomainError for
    anything else."""
    if not rat_is_square(r):
        raise DomainError(f"{render_rat(r)} is not a rational square")
    return Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))


def rational(value, what: str = "scalars") -> Fraction:
    """The domain check for Q: an int becomes a Fraction, a Fraction passes,
    anything else (float, str, None, ...) raises DomainError naming it."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(
        f"need exact rational {what}, got {type(value).__name__}; pass Fractions"
    )


def exact(value, what: str = "scalars"):
    """The domain check for Q and Q(sqrt(d)): a QuadExt passes, else rational()."""
    return value if isinstance(value, (Fraction, QuadExt)) else rational(value, what)


class QuadExt:
    """An element p + q*sqrt(d) of the quadratic field Q(sqrt(d)).

    The radicand d is fixed per computation context and must not be the
    square of a rational (use a Fraction in that case).  Negative radicands
    are allowed: sqrt(d) is then a formal symbol with sqrt(d)^2 = d, which
    is all the identity checks ever rely on.

    It is immutable, held as ``num``, the pair P + Q*sqrt(D) of _ring(d),
    over a positive int ``den``, with gcd(P, Q, den) = 1.
    """

    __slots__ = ("num", "den")

    def __new__(cls, p, q, d):
        p, q, d = (rational(v, "QuadExt parts") for v in (p, q, d))
        if rat_is_square(d):
            raise DomainError(
                f"radicand {render_rat(d)} is a rational square; use a Fraction"
            )
        ring = _ring(d)
        # p + q*sqrt(d) = p + (q/m)*sqrt(D)
        b, e = p.denominator, q.denominator * ring.root_den
        return ring_quotient(ring(p.numerator * e, q.numerator * b), b * e)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadExt is immutable; cannot assign to {name}")

    @property
    def p(self) -> Fraction:
        return Fraction(self.num.p, self.den)

    @property
    def q(self) -> Fraction:
        return Fraction(self.num.q * self.num.root_den, self.den)

    @property
    def d(self) -> Fraction:
        return self.num.d

    def _parts(self, other):
        """other as (num, den), the num an int or a pair of this radicand."""
        if isinstance(other, QuadExt):
            if type(other.num) is not type(self.num):
                ring_of([self, other])  # two radicands raise
            return other.num, other.den
        r = other if type(other) is int else rational(other, "operands")
        return r.numerator, r.denominator

    def norm(self) -> Fraction:
        """(p + q*sqrt(d)) * (p - q*sqrt(d)) = p^2 - q^2*d, a rational."""
        return Fraction(self.num.norm(), self.den * self.den)

    # -- field operations, on the pairs ------------------------------------

    def __add__(self, other):
        num, den = self._parts(other)
        return ring_quotient(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __neg__(self):
        return ring_quotient(-self.num, self.den)

    def __sub__(self, other):
        num, den = self._parts(other)
        return ring_quotient(self.num * den - num * self.den, self.den * den)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        num, den = self._parts(other)
        return ring_quotient(self.num * num, self.den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        num, den = self._parts(other)
        if num == 0:
            raise DomainError("division by zero in quadratic extension")
        return ring_quotient(self.num * den, self.den * num)

    def __rtruediv__(self, other):
        num, den = self._parts(other)
        return ring_quotient(num, den, type(self.num)) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("only nonnegative integer powers are supported")
        return ring_quotient(self.num**exponent, self.den**exponent, type(self.num))

    # Both sides are in lowest terms, so equal values have equal parts.
    def __eq__(self, other):
        if isinstance(other, QuadExt):
            a, b = self.num, other.num
            return self.den == other.den and a == b and (a.q == 0 or a.d == b.d)
        if isinstance(other, (int, Fraction)):
            return self.den == other.denominator and self.num == other.numerator
        return NotImplemented

    def __hash__(self):
        if self.num.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.num.p != 0 or self.num.q != 0

    def __str__(self):
        return f"{render_rat(self.p)}+{render_rat(self.q)}*sqrt({render_rat(self.d)})"

    def __repr__(self):
        return f"QuadExt(p={self.p!r}, q={self.q!r}, d={self.d!r})"

    def __reduce__(self):  # copy and pickle through the public constructor
        return QuadExt, (self.p, self.q, self.d)


# -- the integer layer -----------------------------------------------------


class _RootPair:
    """P + Q*sqrt(D) in Z[sqrt(D)] for Python ints P and Q, with D a class
    attribute: ``_ring`` makes one subclass per radicand.  Ints mix in as
    P + 0*sqrt(D).  x // t is x * conj(t) divided componentwise by the int
    norm N(t), exact whenever t divides x, as in the fraction-free
    eliminations, whose entries are minors.
    """

    __slots__ = ("p", "q")
    radicand = 0  # D
    root_den = 1  # m, with sqrt(d) = sqrt(D)/m
    d = None  # the radicand d = D/m^2, a Fraction

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    def __add__(self, o):
        if type(o) is int:
            return self.__class__(self.p + o, self.q)
        return self.__class__(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is int:
            return self.__class__(self.p - o, self.q)
        return self.__class__(self.p - o.p, self.q - o.q)

    def __rsub__(self, o):  # int - pair
        return self.__class__(o - self.p, -self.q)

    def __neg__(self):
        return self.__class__(-self.p, -self.q)

    def __mul__(self, o):
        if type(o) is int:
            return self.__class__(self.p * o, self.q * o)
        p, q, r, s = self.p, self.q, o.p, o.q
        return self.__class__(p * r + self.radicand * q * s, p * s + q * r)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Square-and-multiply: the int 1 at an exponent <= 0, else a pair."""
        out, base = 1, self
        while exponent > 0:
            if exponent & 1:
                out = base * out
            exponent >>= 1
            if exponent:
                base = base * base
        return out

    def __floordiv__(self, o):
        if type(o) is not int:
            return self * o.conj() // o.norm()
        return self.__class__(self.p // o, self.q // o)

    def __rfloordiv__(self, o):  # int // pair
        return o * self.conj() // self.norm()

    def __eq__(self, o):
        if type(o) is int:
            return self.q == 0 and self.p == o
        if isinstance(o, _RootPair):
            return self.p == o.p and self.q == o.q
        return NotImplemented

    __hash__ = None

    def norm(self) -> int:
        """(P + Q sqrt(D)) (P - Q sqrt(D)) = P^2 - D Q^2, zero only at 0."""
        return self.p * self.p - self.radicand * self.q * self.q

    def conj(self) -> "_RootPair":
        return self.__class__(self.p, -self.q)


@functools.lru_cache(maxsize=64)
def _ring(d: Fraction) -> type:
    n, m = d.numerator, d.denominator
    attrs = {"__slots__": (), "radicand": n * m, "root_den": m, "d": d}
    return type(f"Z[sqrt({n * m})]", (_RootPair,), attrs)


def ring_of(values):
    """The class of Z[sqrt(D)] pairs for the QuadExt among ``values``, or
    None when there is none.  QuadExt of two radicands raise DomainError."""
    radicands = {v.d for v in values if type(v) is QuadExt}
    if len(radicands) > 1:
        first, second = map(render_rat, sorted(radicands)[:2])
        raise DomainError(f"mixed radicands {first} and {second}")
    return _ring(radicands.pop()) if radicands else None


def ring_parts(values):
    """(nums, dens) with values[k] = nums[k] / dens[k], dens positive ints: an
    int's or Fraction's parts, a QuadExt's pair and den (ring_of checks radicands)."""
    nums = [v.num if type(v) is QuadExt else v.numerator for v in values]
    dens = [v.den if type(v) is QuadExt else v.denominator for v in values]
    return nums, dens


def ring_quotient(num, den, ring=None):
    """num / den for ints and Z[sqrt(D)] pairs, den nonzero: a Fraction when
    both are ints and no ``ring`` is given, else a QuadExt, in lowest terms,
    over the field of ``ring`` or of the pair among them: every QuadExt's maker."""
    if type(den) is not int:
        num, den = num * den.conj(), den.norm()
    if type(num) is int:
        if ring is None:
            return Fraction(num, den)
        num = ring(num, 0)
    g = math.gcd(num.p, num.q, den)
    if den < 0:
        g = -g
    out = object.__new__(QuadExt)
    object.__setattr__(out, "num", num // g)
    object.__setattr__(out, "den", den // g)
    return out


def render_scalar(value) -> str:
    """Render a Fraction, int or QuadExt for CLI/JSON output."""
    return str(value) if isinstance(value, QuadExt) else render_rat(value)

"""Exact scalars: arbitrary-precision rationals and the quadratic extension Q(sqrt(d)).

The base scalar is ``fractions.Fraction``: it is
arbitrary precision, always stored in lowest terms with a positive
denominator, and every arithmetic operation is exact.  The quadratic
extension ``QuadExt`` represents numbers p + q*sqrt(d) with rational p, q
and a fixed radicand d that is not the square of a rational; it is only
needed for the Moebius-substitution derivation of the generalized Pfaffian
identities, where sqrt(b^2 - a*c) enters the substitution constants.

Under both lies one integer layer: ``ring_parts`` writes a rational as
num/den with Python ints, and an element of Q(sqrt(d)), d = n/m, as
(P + Q sqrt(D))/R with ints P, Q, R and D = n*m, since sqrt(n/m) =
sqrt(n*m)/m; ``ring_quotient`` makes one Fraction or QuadExt of num/den.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """Parse "p/q" or "p" (optional sign) into an exact rational.

    Unicode minus signs are accepted so rendered values round-trip.
    Anything but a string is refused with DomainError.
    """
    if not isinstance(text, str):
        raise DomainError(f'not a rational: {text!r} (write it as text, e.g. "3/4")')
    s = text.strip().replace("−", "-")
    try:
        return unlimited_digits(Fraction, s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def _rat_text(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def render_rat(r: Fraction) -> str:
    """Lossless textual form: "p/q", or "p" when the denominator is 1."""
    return unlimited_digits(_rat_text, r)


def rat_is_square(r: Fraction) -> bool:
    """True iff r is the square of a rational."""
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    sn, sd = math.isqrt(n), math.isqrt(d)
    return sn * sn == n and sd * sd == d


def rat_sqrt(r: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational."""
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


@dataclass(frozen=True)
class QuadExt:
    """An element p + q*sqrt(d) of the quadratic field Q(sqrt(d)).

    The radicand d is fixed per computation context and must not be the
    square of a rational (use a Fraction in that case).  Negative radicands
    are allowed: sqrt(d) is then a formal symbol with sqrt(d)^2 = d, which
    is all the identity checks ever rely on.
    """

    p: Fraction
    q: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "pqd":
            value = rational(getattr(self, name), "QuadExt parts")
            object.__setattr__(self, name, value)
        if rat_is_square(self.d):
            raise DomainError(
                f"radicand {render_rat(self.d)} is a rational square; use a Fraction"
            )

    # -- helpers -----------------------------------------------------------

    def _with(self, p: Fraction, q: Fraction) -> "QuadExt":
        """p + q*sqrt(d) for Fractions p, q, skipping __post_init__: the
        radicand was validated when this element was made."""
        out = object.__new__(QuadExt)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "d", self.d)
        return out

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DomainError(
                    f"mixed radicands {render_rat(self.d)} and {render_rat(other.d)}"
                )
            return other
        return self._with(rational(other, "operands"), ZERO)

    def norm(self) -> Fraction:
        """(p + q*sqrt(d)) * (p - q*sqrt(d)) = p^2 - q^2*d, a rational."""
        return self.p * self.p - self.q * self.q * self.d

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return self._with(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return self._with(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, QuadExt):
            r = rational(other, "operands")
            return self._with(self.p * r, self.q * r)
        o = self._coerce(other)
        return self._with(
            self.p * o.p + self.q * o.q * self.d,
            self.p * o.q + self.q * o.p,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise DomainError("division by zero in quadratic extension")
        inv = self._with(o.p / n, -o.q / n)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("only nonnegative integer powers are supported")
        out = self._with(ONE, ZERO)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                return self.q == 0 and other.q == 0 and self.p == other.p
            return self.p == other.p and self.q == other.q
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __str__(self):
        return f"{render_rat(self.p)}+{render_rat(self.q)}*sqrt({render_rat(self.d)})"


# -- the integer layer -----------------------------------------------------


class _RootPair:
    """P + Q*sqrt(D) in Z[sqrt(D)] for Python ints P and Q, with D a class
    attribute: ``ring_of`` makes one subclass per radicand.  Ints mix in as
    P + 0*sqrt(D).  x // t is x * conj(t) divided componentwise by the int
    norm N(t), exact whenever t divides x, as in the fraction-free
    eliminations, whose entries are minors.
    """

    __slots__ = ("p", "q")
    radicand = 0  # D
    root_den = 1  # m, with sqrt(d) = sqrt(D)/m
    root = None  # sqrt(d) as a QuadExt

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
        return math.prod([self] * exponent, start=1)

    def __floordiv__(self, o):
        if type(o) is int:
            return self.__class__(self.p // o, self.q // o)
        n = o.norm()
        p, q, r, s = self.p, self.q, o.p, o.q
        return self.__class__(
            (p * r - self.radicand * q * s) // n, (q * r - p * s) // n
        )

    def __rfloordiv__(self, o):  # int // pair
        n = self.norm()
        return self.__class__(o * self.p // n, -o * self.q // n)

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
    n, m, root = d.numerator, d.denominator, QuadExt(ZERO, ONE, d)
    attrs = {"__slots__": (), "radicand": n * m, "root_den": m, "root": root}
    return type(f"Z[sqrt({n * m})]", (_RootPair,), attrs)


def ring_of(values):
    """The class of Z[sqrt(D)] pairs for the QuadExt among ``values``, or
    None when there is none.  QuadExt of two radicands raise DomainError."""
    radicands = {v.d for v in values if type(v) is QuadExt}
    if len(radicands) > 1:
        first, second = map(render_rat, sorted(radicands)[:2])
        raise DomainError(f"mixed radicands {first} and {second}")
    return _ring(radicands.pop()) if radicands else None


def ring_parts(values, ring):
    """(nums, dens) with values[k] = nums[k] / dens[k], every den a positive
    int: an int or Fraction gives its numerator, a QuadExt p + q*sqrt(d)
    gives the pair P + Q*sqrt(D) of ``ring`` (= ring_of(values)) over
    R = lcm(den p, m den q), as p + q*sqrt(d) = p + (q/m)*sqrt(D)."""
    if ring is None:
        return [v.numerator for v in values], [v.denominator for v in values]
    nums, dens = [], []
    for v in values:
        if isinstance(v, QuadExt):
            b, e = v.p.denominator, v.q.denominator * ring.root_den
            den = math.lcm(b, e)
            num = ring(v.p.numerator * (den // b), v.q.numerator * (den // e))
        else:
            num, den = v.numerator, v.denominator
        nums.append(num)
        dens.append(den)
    return nums, dens


def ring_quotient(num, den, ring=None):
    """num / den for ints and Z[sqrt(D)] pairs, den nonzero: a Fraction when
    both are ints and no ``ring`` is given, else a QuadExt over the field of
    ``ring`` or of the pair among them."""
    if type(den) is not int:
        num, den = num * den.conj(), den.norm()
    if type(num) is int:
        if ring is None:
            return Fraction(num, den)
        p, q = num, 0
    else:
        ring, p, q = num.__class__, num.p, num.q
    return ring.root._with(Fraction(p, den), Fraction(q * ring.root_den, den))


def render_scalar(value) -> str:
    """Render a Fraction, int or QuadExt for CLI/JSON output."""
    return str(value) if isinstance(value, QuadExt) else render_rat(rational(value))

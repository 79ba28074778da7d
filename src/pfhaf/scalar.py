"""Exact scalars: arbitrary-precision rationals and the quadratic extension Q(sqrt(d)).

The base scalar is ``fractions.Fraction`` (re-exported as ``Rat``): it is
arbitrary precision, always stored in lowest terms with a positive
denominator, and every arithmetic operation is exact.  The quadratic
extension ``QuadExt`` represents numbers p + q*sqrt(d) with rational p, q
and a fixed radicand d that is not the square of a rational; it is only
needed for the Moebius-substitution derivation of the generalized Pfaffian
identities, where sqrt(b^2 - a*c) enters the substitution constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or "p" (optional sign) into an exact rational.

    Unicode minus signs are accepted so rendered values round-trip.
    """
    s = text.strip().replace("−", "-")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def render_rat(r: Fraction) -> str:
    """Lossless textual form: "p/q", or "p" when the denominator is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


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


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rat")


@dataclass(frozen=True)
class QuadExt:
    """An element p + q*sqrt(d) of the quadratic field Q(sqrt(d)).

    The radicand d is fixed per computation context and must not be the
    square of a rational (use plain Rat in that case).  Negative radicands
    are allowed: sqrt(d) is then a formal symbol with sqrt(d)^2 = d, which
    is all the identity checks ever rely on.
    """

    p: Fraction
    q: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _as_rat(self.p))
        object.__setattr__(self, "q", _as_rat(self.q))
        object.__setattr__(self, "d", _as_rat(self.d))
        if rat_is_square(self.d):
            raise DomainError(
                f"radicand {render_rat(self.d)} is a rational square; use Rat"
            )

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DomainError(
                    f"mixed radicands {render_rat(self.d)} and {render_rat(other.d)}"
                )
            return other
        return QuadExt(_as_rat(other), ZERO, self.d)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def to_rat(self) -> Fraction:
        if self.q != 0:
            raise DomainError("element has a nonzero sqrt part")
        return self.p

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        """(p + q*sqrt(d)) * (p - q*sqrt(d)) = p^2 - q^2*d, a rational."""
        return self.p * self.p - self.q * self.q * self.d

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.p + o.p, self.q + o.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt(
            self.p * o.p + self.q * o.q * self.d,
            self.p * o.q + self.q * o.p,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise DomainError("division by zero in quadratic extension")
        inv = QuadExt(o.p / n, -o.q / n, self.d)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("only nonnegative integer powers are supported")
        out = QuadExt(ONE, ZERO, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
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

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"p": render_rat(self.p), "q": render_rat(self.q), "d": render_rat(self.d)}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadExt":
        return cls(parse_rat(obj["p"]), parse_rat(obj["q"]), parse_rat(obj["d"]))


def render_scalar(value) -> str:
    """Render a Rat or QuadExt for CLI/JSON output."""
    if isinstance(value, QuadExt):
        return str(value)
    return render_rat(_as_rat(value))

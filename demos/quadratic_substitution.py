#!/usr/bin/env python3
"""
Reducing a general form to the classical case with a Moebius map
================================================================

The generalized identities for g(x, y) = a*x*y + b*(x + y) + c follow
from the classical x + y versions by a fractional linear substitution
phi(x) = (A x + B)/(C x + D).  The constants involve sqrt(b^2 - ac),
which is usually irrational, so the intermediate computation runs in the
quadratic extension Q(sqrt(disc)) — still exactly, with no floating
point anywhere.  substitution_witness replays the whole chain and checks
every link with bit-exact equality.
"""

from fractions import Fraction as F

from pfhaf import (
    PointConfig,
    SymmetricForm,
    moebius_for_form,
    sqrt_disc,
    substitution_witness,
)

# disc = b^2 - ac = 1 + 1 = 2: the computation runs in Q(sqrt(2)).
g = SymmetricForm(F(1), F(1), F(-1))
print("form g(x,y) = x*y + (x + y) - 1, discriminant", g.disc)

s = sqrt_disc(g.disc)
print("sqrt(disc) =", s, "(a formal square root: s*s =", s * s, ")")

mob = moebius_for_form(g)
print("Moebius constants A, B, C, D =", mob.A, ",", mob.B, ",", mob.C, ",", mob.D)

xs = PointConfig([F(1), F(2), F(3), F(5)])
phi = [(mob.A * x + mob.B) / (mob.C * x + mob.D) for x in xs.xs]
print("\nimages phi(x_i):")
for x, p in zip(xs.xs, phi):
    print(f"  phi({x}) = {p}")

rep = substitution_witness(xs, g)
print("\nwitness field:", rep.params["field"])
for name, ok in rep.params["checks"].items():
    print(f"  {name:32s} {'ok' if ok else 'FAILED'}")
print("overall:", "PASS" if rep.passed else "FAIL")

# A rational-discriminant form stays inside Q:
g2 = SymmetricForm(F(1), F(0), F(-1))  # disc = 1
rep2 = substitution_witness(PointConfig([F(2), F(3), F(5), F(7)]), g2)
print("\ng(x,y) = x*y - 1 runs in field:", rep2.params["field"],
      "->", "PASS" if rep2.passed else "FAIL")

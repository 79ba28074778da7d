#!/usr/bin/env python3
"""
A guided tour of the exact identities
=====================================

Every computation below is bit-exact rational arithmetic: the two sides
of each identity are not "close", they are the same Fraction object value.
Run it and read along.
"""

from fractions import Fraction as F

from pfhaf import (
    BilinearForm,
    IdentityId,
    PointConfig,
    SquareMatrix,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    check_identity,
    det_bareiss,
    make_instance,
    hf_recursive,
    perm_ryser,
    pf_elimination,
)

# ---------------------------------------------------------------------------
# 1. The Cauchy determinant.  The matrix 1/(x_i + y_j) has a closed product
#    formula for its determinant; at x=(1,2), y=(3,4) it works out to 1/600.

pc = PointConfig([F(1), F(2)], [F(3), F(4)])
f = BilinearForm.from_name("x+y")
cauchy = build_cauchy(pc, f)
print("Cauchy matrix:", [[str(v) for v in row] for row in cauchy.entries])
print("det =", det_bareiss(cauchy))  # 1/600

# ---------------------------------------------------------------------------
# 2. Borchardt's identity connects this determinant to the *permanent* —
#    generally a #P-hard quantity — through the entrywise square:
#        det(1/(x+y)^2) = det(1/(x+y)) * perm(1/(x+y)).
#    Dividing out the closed-form determinant therefore computes the
#    permanent of a Cauchy matrix in polynomial time.

lhs = det_bareiss(build_cauchy(pc, f, power=2))
rhs = det_bareiss(cauchy) * perm_ryser(cauchy)
print("\nBorchardt:", lhs, "=", rhs, "->", lhs == rhs)

# ---------------------------------------------------------------------------
# 3. Schur's Pfaffian identity is the skew-symmetric sibling: the Pfaffian
#    of (x_j - x_i)/(x_j + x_i) is the product of the same factors over i<j.

xs4 = PointConfig([F(1), F(2), F(3), F(4)])
g = SymmetricForm.from_name("x+y")
schur = build_schur(xs4, g)
prod = F(1)
for i in range(4):
    for j in range(i + 1, 4):
        prod *= (xs4.xs[j] - xs4.xs[i]) / (xs4.xs[j] + xs4.xs[i])
print("\nSchur Pfaffian:", pf_elimination(schur), "=", prod)

# ---------------------------------------------------------------------------
# 4. The Pfaffian-Hafnian identity squares the denominator instead, and a
#    Hafnian appears — the permanent's matching-sum analogue:
#        Pf((x_i - x_j)/(x_i + x_j)^2)
#            = prod_{i<j} (x_i - x_j)/(x_i + x_j) * Hf(1/(x_i + x_j)).
#    Just as Borchardt's identity yields a fast permanent, this yields a
#    fast Hafnian for these structured matrices.  build_schur has numerators
#    x_j - x_i, so the printed matrix is its negation.

printed = [[-v for v in row] for row in build_schur(xs4, g, power=2).entries]
lhs = pf_elimination(SquareMatrix(printed))
prod_ij = F(1)
for i in range(4):
    for j in range(i + 1, 4):
        prod_ij *= (xs4.xs[i] - xs4.xs[j]) / (xs4.xs[i] + xs4.xs[j])
rhs = prod_ij * hf_recursive(build_hafnian_mat(xs4, g))
print("\nPfaffian-Hafnian:", lhs, "=", rhs, "->", lhs == rhs)

# ---------------------------------------------------------------------------
# 5. All of the above generalize from x + y to arbitrary nondegenerate
#    bilinear/symmetric forms, with the form's discriminant as a prefactor.
#    The verification suite checks each one on seeded random instances;
#    check_identity exposes single instances:

for ident in (IdentityId.GEN_DET, IdentityId.GEN_SCHUR, IdentityId.GEN_MAIN):
    pts, form, z = make_instance(7, ident, 2, 0)
    rep = check_identity(ident, pts, form=form, z=z)
    print(f"{ident.value:10s} lhs = rhs = {rep.lhs}  ->  {rep.passed}")

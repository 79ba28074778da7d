import random
from fractions import Fraction as F

import pytest

from pfhaf.errors import DegenerateFormError, DomainError, PoleError
from pfhaf.kernels import (
    det_bareiss,
    hf_oracle,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_oracle,
)
from pfhaf.matrix import SquareMatrix
from pfhaf.scalar import QuadExt
from pfhaf.structured import (
    BilinearForm,
    MoebiusMap,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    cauchy_det_closed,
    fast_cauchy_hafnian,
    fast_cauchy_perm,
    moebius_for_form,
    schur_pf_closed,
    sqrt_disc,
    substitution_witness,
)

XPY = BilinearForm.from_name("x+y")
GXPY = SymmetricForm.from_name("x+y")


# -- point configs and forms -----------------------------------------------


def test_point_config_rejects_duplicates():
    with pytest.raises(DomainError):
        PointConfig([F(1), F(1)])
    with pytest.raises(DomainError):
        PointConfig([F(1), F(2)], [F(3), F(3)])


def test_form_names_and_discs():
    assert XPY == BilinearForm(F(0), F(1), F(1), F(0))
    assert XPY.disc == -1
    one_minus = BilinearForm.from_name("1-xy")
    assert one_minus == BilinearForm(F(-1), F(0), F(0), F(1))
    assert one_minus.disc == -1
    assert GXPY == SymmetricForm(F(0), F(1), F(0))
    assert GXPY.disc == 1
    g1m = SymmetricForm.from_name("1-xy")
    assert g1m == SymmetricForm(F(-1), F(0), F(1))
    assert g1m.disc == 1
    with pytest.raises(DomainError):
        BilinearForm.from_name("x*y+1")


def test_form_json_round_trip():
    f = BilinearForm(F(1, 2), F(-1), F(0), F(3))
    assert BilinearForm.from_json(f.to_json()) == f
    g = SymmetricForm(F(2), F(1, 3), F(-1))
    assert SymmetricForm.from_json(g.to_json()) == g


# -- builders --------------------------------------------------------------


def test_build_cauchy_example():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    m = build_cauchy(pc, XPY)
    assert m.entries == ((F(1, 4), F(1, 5)), (F(1, 5), F(1, 6)))


def test_build_cauchy_power_two_squares_entries():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    m1 = build_cauchy(pc, XPY, power=1)
    m2 = build_cauchy(pc, XPY, power=2)
    for i in range(2):
        for j in range(2):
            assert m2.entries[i][j] == m1.entries[i][j] ** 2


def test_build_cauchy_pole_names_pair():
    pc = PointConfig([F(1), F(2)], [F(1, 2), F(1, 3)])
    with pytest.raises(PoleError) as exc:
        build_cauchy(pc, BilinearForm.from_name("1-xy"))
    assert exc.value.pair == (2, 1)  # 1 - 2 * (1/2) = 0


def test_build_schur_example():
    m = build_schur(PointConfig([F(1), F(3)]), GXPY)
    assert m.entries == ((F(0), F(1, 2)), (F(-1, 2), F(0)))
    assert m.kind == "skew"


def test_build_schur_orientations_negate():
    pc = PointConfig([F(1), F(2), F(3), F(5)])
    a = build_schur(pc, GXPY, orientation="ji")
    b = build_schur(pc, GXPY, orientation="ij")
    assert all(
        a.entries[i][j] == -b.entries[i][j] for i in range(4) for j in range(4)
    )
    # negating a 2n x 2n skew matrix scales Pf by (-1)^n
    assert pf_elimination(b) == pf_elimination(a)
    a6 = build_schur(PointConfig([F(i) for i in (1, 2, 3, 5, 7, 11)]), GXPY)
    b6 = build_schur(PointConfig([F(i) for i in (1, 2, 3, 5, 7, 11)]), GXPY, orientation="ij")
    assert pf_elimination(b6) == -pf_elimination(a6)


def test_build_hafnian_mat_entries():
    pc = PointConfig([F(1), F(2), F(3), F(4)])
    m = build_hafnian_mat(pc, GXPY)
    assert m.entries[0][1] == F(1, 3)
    assert m.entries[2][3] == F(1, 7)
    assert all(m.entries[i][i] == 0 for i in range(4))
    g = SymmetricForm.from_name("1-xy")
    m2 = build_hafnian_mat(PointConfig([F(2), F(3), F(4), F(5)]), g)
    assert m2.entries[0][1] == F(1, 1 - 6)  # -1/5


def test_builders_reject_bad_input():
    with pytest.raises(DomainError):
        build_cauchy(PointConfig([F(1)]), XPY)  # no ys
    with pytest.raises(DomainError):
        build_cauchy(PointConfig([F(1)], [F(2)]), XPY, power=3)
    with pytest.raises(DomainError):
        build_schur(PointConfig([F(1), F(2), F(3)]), GXPY)  # odd
    with pytest.raises(DomainError):
        build_schur(PointConfig([F(1), F(2)]), GXPY, orientation="xy")


# -- closed forms ----------------------------------------------------------


def test_cauchy_det_closed_examples():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    assert cauchy_det_closed(pc, XPY) == F(1, 600)
    assert cauchy_det_closed(pc, XPY) == det_bareiss(build_cauchy(pc, XPY))


def test_cauchy_det_closed_matches_kernel_randomly():
    rng = random.Random(30)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            f = BilinearForm(*(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))
            if f.disc == 0 or (f.a == f.b == f.c == f.d == 0):
                continue
            pts = set()
            while len(pts) < 2 * n:
                pts.add(F(rng.randint(1, 60), rng.randint(1, 5)))
            pts = sorted(pts)
            pc = PointConfig(pts[:n], pts[n:])
            try:
                m = build_cauchy(pc, f)
            except PoleError:
                continue
            assert cauchy_det_closed(pc, f) == det_bareiss(m)


def test_schur_pf_closed_matches_kernel():
    rng = random.Random(31)
    for half in (1, 2, 3):
        for _ in range(5):
            g = SymmetricForm(*(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)))
            if g.disc == 0 or (g.a == g.b == g.c == 0):
                continue
            pts = set()
            while len(pts) < 2 * half:
                pts.add(F(rng.randint(1, 60), rng.randint(1, 5)))
            pc = PointConfig(sorted(pts))
            try:
                m = build_schur(pc, g)
            except PoleError:
                continue
            assert schur_pf_closed(pc, g) == pf_elimination(m)


# -- fast paths ------------------------------------------------------------


def test_fast_cauchy_perm_example():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    assert fast_cauchy_perm(pc, XPY) == F(49, 600)


def test_fast_cauchy_perm_n1():
    pc = PointConfig([F(2)], [F(5)])
    assert fast_cauchy_perm(pc, XPY) == F(1, 7)


def test_fast_cauchy_perm_vs_ryser():
    rng = random.Random(32)
    xs, ys = [], []
    taken = set()
    # all points > 1, so x * y > 1 and the 1 - xy form is pole-free too
    while len(xs) < 7:
        v = 1 + F(rng.randint(1, 99), rng.randint(1, 7))
        if v not in taken:
            taken.add(v)
            xs.append(v)
    while len(ys) < 7:
        v = 1 + F(rng.randint(1, 99), rng.randint(1, 7))
        if v not in taken:
            taken.add(v)
            ys.append(v)
    pc = PointConfig(xs, ys)
    assert fast_cauchy_perm(pc, XPY) == perm_ryser(build_cauchy(pc, XPY))
    f2 = BilinearForm.from_name("1-xy")
    assert fast_cauchy_perm(pc, f2) == perm_ryser(build_cauchy(pc, f2))


def test_fast_cauchy_hafnian_examples():
    assert fast_cauchy_hafnian(PointConfig([F(1), F(2)]), GXPY) == F(1, 3)
    pc4 = PointConfig([F(1), F(2), F(3), F(4)])
    assert fast_cauchy_hafnian(pc4, GXPY) == hf_oracle(build_hafnian_mat(pc4, GXPY))


def test_fast_cauchy_hafnian_other_form_large():
    # points strictly inside (0, 1) keep 1 - x_i x_j away from zero
    xs = [F(i, i + 50) for i in range(1, 11)]
    pc = PointConfig(xs)
    g = SymmetricForm.from_name("1-xy")
    assert fast_cauchy_hafnian(pc, g) == hf_recursive(build_hafnian_mat(pc, g))


def test_fast_cauchy_hafnian_rational_forms_and_points():
    cases = [
        # non-integer coefficients
        (SymmetricForm(F(1, 2), F(-1, 3), F(5, 4)), [F(i) for i in range(1, 9)]),
        # negative and non-integer points
        (GXPY, [F(-7, 2), F(-1, 3), F(2, 5), F(3), F(11, 6), F(-9, 4)]),
        # g(x_i, x_j) = x_i x_j - 5 takes both signs
        (SymmetricForm(F(1), F(0), F(-5)), [F(1), F(2), F(3), F(4), F(-6), F(7, 3)]),
        # everything at once
        (
            SymmetricForm(F(-2, 3), F(3, 5), F(1, 7)),
            [F(-5, 2), F(-1), F(1, 3), F(4, 9), F(3, 2), F(6)],
        ),
    ]
    for g, xs in cases:
        pc = PointConfig(xs)
        assert fast_cauchy_hafnian(pc, g) == hf_recursive(build_hafnian_mat(pc, g))
    g, xs = cases[2]
    assert min(g(x, y) for x in xs for y in xs if x != y) < 0


def test_fast_cauchy_hafnian_pole_names_pair():
    with pytest.raises(PoleError) as exc:
        fast_cauchy_hafnian(PointConfig([F(1), F(2), F(-2), F(5)]), GXPY)
    assert exc.value.pair == (2, 3)  # 2 + (-2) = 0
    g = SymmetricForm(F(1, 2), F(0), F(-3))
    with pytest.raises(PoleError) as exc:
        fast_cauchy_hafnian(PointConfig([F(1, 2), F(3, 2), F(4), F(7)]), g)
    assert exc.value.pair == (2, 3)  # (3/2)(4)/2 - 3 = 0


def test_fast_paths_reject_degenerate_disc():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    rank_one = BilinearForm(F(1), F(1), F(1), F(1))  # disc = 0
    with pytest.raises(DegenerateFormError):
        fast_cauchy_perm(pc, rank_one)
    g0 = SymmetricForm(F(1), F(1), F(1))  # b^2 - ac = 0
    with pytest.raises(DegenerateFormError):
        fast_cauchy_hafnian(PointConfig([F(1), F(2)]), g0)
    # the general-purpose kernels still work on those matrices
    assert perm_ryser(build_cauchy(pc, rank_one)) == perm_oracle(
        build_cauchy(pc, rank_one)
    )
    b = build_hafnian_mat(PointConfig([F(1), F(2)]), g0)
    assert hf_recursive(b) == hf_oracle(b)


def test_degenerate_symmetric_form_factorizes():
    # when b^2 = ac with a != 0, g(x, y) = (a x + b)(a y + b)/a, so the
    # skew matrix (x_j - x_i)/g has rank <= 2 and Pf vanishes for 2n >= 4
    g0 = SymmetricForm(F(1), F(2), F(4))
    a, b = g0.a, g0.b
    xs = [F(1), F(3), F(5), F(7), F(11), F(13)]
    for x in xs:
        for y in xs:
            assert g0(x, y) == (a * x + b) * (a * y + b) / a
    m = build_schur(PointConfig(xs), g0)
    assert pf_elimination(m) == 0


# -- Moebius substitution --------------------------------------------------


def test_moebius_identity_map():
    ident = MoebiusMap(F(1), F(0), F(0), F(1))
    assert ident.apply(F(7, 3)) == F(7, 3)
    with pytest.raises(DomainError):
        MoebiusMap(F(1), F(2), F(2), F(4))


def test_moebius_pole():
    m = MoebiusMap(F(0), F(1), F(1), F(-2))
    with pytest.raises(PoleError):
        m.apply(F(2))


def test_moebius_for_form_example():
    # g = x*y - 1 has disc 1, rational square root
    g = SymmetricForm(F(1), F(0), F(-1))
    mob = moebius_for_form(g)
    assert (mob.A, mob.B, mob.C, mob.D) == (F(1, 2), F(1, 2), F(1), F(-1))


def test_moebius_inverse_round_trip():
    g = SymmetricForm(F(2), F(1), F(-3))
    mob = moebius_for_form(g)
    inv = mob.inverse()
    rng = random.Random(33)
    for _ in range(10):
        x = F(rng.randint(2, 99), rng.randint(1, 9))
        assert inv.apply(mob.apply(x)) == x


def test_sqrt_disc_branches():
    assert sqrt_disc(F(9, 4)) == F(3, 2)
    s = sqrt_disc(F(2))
    assert isinstance(s, QuadExt)
    assert s * s == F(2)


def test_moebius_for_form_rejects():
    with pytest.raises(DegenerateFormError):
        moebius_for_form(SymmetricForm(F(1), F(1), F(1)))
    with pytest.raises(DomainError):
        moebius_for_form(GXPY)  # a = 0


# -- substitution witness --------------------------------------------------


def test_witness_rational_field():
    # disc = 1: the whole computation stays rational
    g = SymmetricForm(F(1), F(0), F(-1))
    xs = [F(2), F(3), F(5), F(7)]
    rep = substitution_witness(PointConfig(xs), g)
    assert rep.passed
    assert rep.params["field"] == "rational"
    assert all(rep.params["checks"].values())


def test_witness_quadratic_field():
    # disc = 2: computation runs in Q(sqrt(2))
    g = SymmetricForm(F(1), F(1), F(-1))
    xs = [F(1), F(2), F(3), F(5)]
    rep = substitution_witness(PointConfig(xs), g)
    assert rep.passed
    assert rep.params["field"] == "Q(sqrt(2))"
    for name in (
        "entrywise_factorization",
        "classical_schur_at_images",
        "classical_pf_hf_at_images",
        "generalized_schur_at_points",
        "generalized_pf_hf_at_points",
    ):
        assert rep.params["checks"][name]


def test_witness_a_zero_branch():
    g = SymmetricForm(F(0), F(1), F(3))
    xs = [F(1), F(2), F(4), F(5)]
    rep = substitution_witness(PointConfig(xs), g)
    assert rep.passed


def test_witness_classical_case():
    rep = substitution_witness(PointConfig([F(1), F(2), F(3), F(4)]), GXPY)
    assert rep.passed
    assert rep.params["field"] == "rational"


def test_witness_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        substitution_witness(
            PointConfig([F(1), F(2)]), SymmetricForm(F(1), F(2), F(4))
        )

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from pfhaf import structured
from pfhaf.errors import DegenerateFormError, DomainError, PoleError
from pfhaf.kernels import (
    det_bareiss,
    hf_oracle,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_fraction_free,
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
from pfhaf.verify import gen_points

XPY = BilinearForm.from_name("x+y")
GXPY = SymmetricForm.from_name("x+y")

# Small rationals, zero included, so that random forms often have zero
# coefficients and random point sets often hit poles.
coefs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
points = st.fractions(min_value=-8, max_value=8, max_denominator=4)
# elements of Q(sqrt(2)), as at the Moebius images
quads = st.builds(QuadExt, points, points, st.just(F(2)))
symmetric_forms = st.one_of(
    st.sampled_from([GXPY, SymmetricForm.from_name("1-xy")]),
    st.tuples(coefs, coefs, coefs)
    .filter(lambda t: t[1] * t[1] != t[0] * t[2])
    .map(lambda t: SymmetricForm(*t)),
)
bilinear_forms = st.one_of(
    st.sampled_from([XPY, BilinearForm.from_name("1-xy")]),
    st.tuples(coefs, coefs, coefs, coefs)
    .filter(lambda t: t[0] * t[3] != t[1] * t[2])
    .map(lambda t: BilinearForm(*t)),
)


def distinct_points(size):
    return st.lists(points, min_size=size, max_size=size, unique=True)


# -- point configs and forms -----------------------------------------------


def test_point_config_rejects_duplicates():
    with pytest.raises(DomainError):
        PointConfig([F(1), F(1)])
    with pytest.raises(DomainError):
        PointConfig([F(1), F(2)], [F(3), F(3)])


def test_int_points_and_coefficients_stay_exact():
    pc = PointConfig([1, 2], [3, 4])
    f = BilinearForm(0, 1, 1, 0)
    assert all(type(v) is F for v in pc.xs + pc.ys)
    assert all(type(getattr(f, k)) is F for k in "abcd")
    value = fast_cauchy_perm(pc, f)
    assert type(value) is F and value == F(49, 600)
    m = build_cauchy(pc, f)
    assert m.entries == ((F(1, 4), F(1, 5)), (F(1, 5), F(1, 6)))
    assert all(type(v) is F for row in m.entries for v in row)

    g = SymmetricForm(0, 1, 0)
    assert all(type(getattr(g, k)) is F for k in "abc")
    pc4 = PointConfig([1, 2, 3, 4])
    exact = PointConfig([F(1), F(2), F(3), F(4)])
    closed = schur_pf_closed(pc4, g)
    assert type(closed) is F and closed == schur_pf_closed(exact, GXPY)
    m = build_schur(pc4, g)
    assert m.entries == build_schur(exact, GXPY).entries
    assert all(type(v) is F for row in m.entries for v in row)
    value = fast_cauchy_hafnian(pc4, g)
    assert type(value) is F and value == hf_oracle(build_hafnian_mat(exact, GXPY))

    # values in Q(sqrt(d)) are left as they are
    q = QuadExt(F(1), F(1), F(2))
    assert PointConfig([q, 1]).xs == (q, F(1))
    assert type(PointConfig([q, 1]).xs[0]) is QuadExt


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


@given(coefs, coefs, coefs, coefs, st.one_of(points, quads), st.one_of(points, quads))
def test_forms_evaluate_their_polynomials(a, b, c, d, x, y):
    # the forms skip zero terms; the value must not change
    if (a, b, c) != (0, 0, 0):
        assert SymmetricForm(a, b, c)(x, y) == a * x * y + b * (x + y) + c
    if (a, b, c, d) != (0, 0, 0, 0):
        assert BilinearForm(a, b, c, d)(x, y) == a * x * y + b * x + c * y + d


def test_form_to_json():
    f = BilinearForm(F(1, 2), F(-1), F(0), F(3))
    assert f.to_json() == {"a": "1/2", "b": "-1", "c": "0", "d": "3"}
    g = SymmetricForm(F(2), F(1, 3), F(-1))
    assert g.to_json() == {"a": "2", "b": "1/3", "c": "-1"}


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


@pytest.mark.parametrize(
    "functional",
    [
        build_schur,
        build_hafnian_mat,
        schur_pf_closed,
        fast_cauchy_hafnian,
        substitution_witness,
    ],
)
def test_symmetric_functionals_refuse_y_points(functional):
    with pytest.raises(DomainError, match="x points only; got y points"):
        functional(PointConfig([1, 2], [3, 4]), SymmetricForm(1, 2, 3))


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


@pytest.mark.parametrize(
    "name, f_pair, g_pair", [("x+y", (2, 1), (2, 3)), ("1-xy", (2, 2), (2, 5))]
)
@pytest.mark.parametrize("as_fractions", [False, True])
def test_one_pole_rule(name, f_pair, g_pair, as_fractions):
    # Two poles per form: x + y at f (2, 1), (3, 2) and g (2, 3), (4, 5);
    # 1 - xy at f (2, 2), (3, 1) and g (2, 5), (3, 4).  The first in
    # row-major order is reported, with one message format everywhere.
    xs, ys = [1, F(-1, 2), 2], [F(1, 2), -2, 3]
    ws = [1, F(-1, 2), F(1, 2), 2, -2, 3]
    if as_fractions:
        xs, ys, ws = ([F(v) for v in p] for p in (xs, ys, ws))

    def pole(fn, *args, **kw):
        with pytest.raises(PoleError) as exc:
            fn(*args, **kw)
        return str(exc.value), exc.value.pair

    pc, f = PointConfig(xs, ys), BilinearForm.from_name(name)
    expected = ("f(x_{}, y_{}) = 0".format(*f_pair), f_pair)
    assert pole(build_cauchy, pc, f) == expected
    assert pole(build_cauchy, pc, f, power=2) == expected
    assert pole(cauchy_det_closed, pc, f) == expected
    assert pole(fast_cauchy_perm, pc, f) == expected

    pc, g = PointConfig(ws), SymmetricForm.from_name(name)
    expected = ("g(x_{}, x_{}) = 0".format(*g_pair), g_pair)
    assert pole(build_schur, pc, g) == expected
    assert pole(build_schur, pc, g, power=2) == expected
    assert pole(build_hafnian_mat, pc, g) == expected
    assert pole(schur_pf_closed, pc, g) == expected
    assert pole(fast_cauchy_hafnian, pc, g) == expected


def outcome(fn):
    """What fn returns, or the pair named by the PoleError it raises."""
    try:
        return fn()
    except PoleError as exc:
        return ("pole", exc.pair)


@settings(deadline=None)
@given(symmetric_forms, st.integers(1, 5).flatmap(lambda n: distinct_points(2 * n)))
def test_fast_cauchy_hafnian_equals_hf_recursive(g, xs):
    pc = PointConfig(xs)
    fast = outcome(lambda: fast_cauchy_hafnian(pc, g))
    assert fast == outcome(lambda: hf_recursive(build_hafnian_mat(pc, g)))


@settings(deadline=None)
@given(
    bilinear_forms,
    st.integers(1, 7).flatmap(lambda n: st.tuples(distinct_points(n), distinct_points(n))),
)
def test_fast_cauchy_perm_equals_perm_ryser(f, xys):
    pc = PointConfig(*xys)
    fast = outcome(lambda: fast_cauchy_perm(pc, f))
    assert fast == outcome(lambda: perm_ryser(build_cauchy(pc, f)))


def rational_route(pc, f):
    """The permanent by elimination over the field of the entries."""
    return det_bareiss(build_cauchy(pc, f, power=2)) / cauchy_det_closed(pc, f)


@pytest.mark.parametrize("n", [16, 24])
def test_fast_cauchy_perm_matches_rational_route_past_ryser(n):
    rng = random.Random(n)
    # coefficient denominators 2, 3, 5 and 7 make L = 210
    while True:
        nums = (rng.choice([-13, -11, -1, 1, 11, 13]) for _ in range(4))
        f = BilinearForm(*(F(p, q) for p, q in zip(nums, (2, 3, 5, 7))))
        if f.disc != 0:
            break
    assert math.lcm(*(getattr(f, k).denominator for k in "abcd")) == 210
    pc = gen_points(
        rng.randrange(2**31), n, ys=n, positive=False, lo=-40, hi=40, max_den=9,
        no_pole=f,
    )
    points = pc.xs + pc.ys
    assert min(points) < 0 and max(x.denominator for x in points) > 1
    value = fast_cauchy_perm(pc, f)
    assert type(value) is F and value == rational_route(pc, f)


def test_fast_cauchy_perm_small_and_pole_cases_match_rational_route():
    f = BilinearForm(F(1, 2), F(-2, 3), F(3, 5), F(1, 7))
    for pc in (PointConfig([], []), PointConfig([F(-3, 4)], [F(5, 2)])):
        value = fast_cauchy_perm(pc, f)
        assert type(value) is F and value == rational_route(pc, f)
    # x + y vanishes at (2, 1) and (3, 3); the first in row-major order wins,
    # reported as the closed form reports it
    pc = PointConfig([F(1), F(-1, 2), F(2)], [F(1, 2), F(5), F(-2)])
    with pytest.raises(PoleError) as fast:
        fast_cauchy_perm(pc, XPY)
    with pytest.raises(PoleError) as ref:
        cauchy_det_closed(pc, XPY)
    assert (str(fast.value), fast.value.pair) == (str(ref.value), ref.value.pair)
    assert fast.value.pair == (2, 1)


def test_fast_paths_eliminate_python_ints(monkeypatch):
    seen = []

    def recording(kernel):
        def wrapped(m, *args):
            rows = getattr(m, "entries", m)
            seen.append((kernel.__name__, {type(v) for row in rows for v in row}))
            return kernel(m, *args)

        return wrapped

    monkeypatch.setattr(structured, "det_bareiss", recording(det_bareiss))
    monkeypatch.setattr(structured, "pf_fraction_free", recording(pf_fraction_free))
    f = BilinearForm(F(1, 2), F(-2, 3), F(3, 5), F(1, 7))
    pc = PointConfig([F(-3, 2), F(1, 3), F(5)], [F(2, 7), F(-4), F(9, 5)])
    assert fast_cauchy_perm(pc, f) == perm_oracle(build_cauchy(pc, f))
    g = SymmetricForm(F(1, 2), F(-1, 3), F(5, 4))
    pc = PointConfig([F(-7, 2), F(-1, 3), F(2, 5), F(3)])
    assert fast_cauchy_hafnian(pc, g) == hf_oracle(build_hafnian_mat(pc, g))
    assert seen == [("det_bareiss", {int}), ("pf_fraction_free", {int})]


def test_fast_paths_refuse_points_outside_q():
    s2 = QuadExt(F(0), F(1), F(2))
    quads = [s2 + k for k in (1, 2, 3, 4)]
    pc = PointConfig(quads[:2], quads[2:])
    with pytest.raises(DomainError) as exc:
        fast_cauchy_perm(pc, XPY)
    assert "rational points, got QuadExt" in str(exc.value)
    route = "det_bareiss(build_cauchy(pc, f, power=2)) / cauchy_det_closed(pc, f)"
    assert f"use {route} instead" in str(exc.value)
    # the route it names takes those points
    assert rational_route(pc, XPY) == perm_oracle(build_cauchy(pc, XPY))

    pc = PointConfig(quads)
    with pytest.raises(DomainError) as exc:
        fast_cauchy_hafnian(pc, GXPY)
    assert "rational points, got QuadExt" in str(exc.value)
    route = "pf_elimination(build_schur(pc, g, power=2)) / schur_pf_closed(pc, g)"
    assert f"use {route} instead" in str(exc.value)
    field = pf_elimination(build_schur(pc, GXPY, power=2)) / schur_pf_closed(pc, GXPY)
    assert field == hf_oracle(build_hafnian_mat(pc, GXPY))

    with pytest.raises(DomainError, match="rational points, got float"):
        fast_cauchy_perm(PointConfig([0.5], [1.5]), XPY)
    with pytest.raises(DomainError, match="rational points, got float"):
        fast_cauchy_hafnian(PointConfig([0.5, 1.5]), GXPY)
    with pytest.raises(DomainError, match="rational form coefficients, got float"):
        fast_cauchy_perm(PointConfig([1], [2]), BilinearForm(0.5, 1, 1, 0))
    with pytest.raises(DomainError, match="rational form coefficients, got float"):
        fast_cauchy_hafnian(PointConfig([1, 2]), SymmetricForm(0.5, 1, 0))


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
    inv = MoebiusMap(mob.D, -mob.B, -mob.C, mob.A)
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
    # a = 0 maps affinely, phi(z) = b z + c/2: x + y is already classical
    assert moebius_for_form(GXPY) == MoebiusMap(F(1), F(0), F(0), F(1))
    assert moebius_for_form(SymmetricForm(0, 3, 1)) == MoebiusMap(
        F(3), F(1, 2), F(0), F(1)
    )


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


def test_witness_a_zero_branch(monkeypatch):
    # one Hafnian for the classical identity at the images, one for the
    # generalized identity for g at the points
    calls = []

    def counting(m):
        calls.append(m.n)
        return hf_recursive(m)

    monkeypatch.setattr(structured, "hf_recursive", counting)
    g = SymmetricForm(F(0), F(1), F(3))
    xs = [F(1), F(2), F(4), F(5)]
    rep = substitution_witness(PointConfig(xs), g)
    assert rep.passed
    assert calls == [4, 4]


def test_witness_classical_case():
    rep = substitution_witness(PointConfig([F(1), F(2), F(3), F(4)]), GXPY)
    assert rep.passed
    assert rep.params["field"] == "rational"


def test_witness_a_zero_form_at_any_points():
    # g = x + y + 1 has no pole at either point set; x_i = 0 is allowed
    g = SymmetricForm(0, 1, 1)
    for xs in ([F(1), F(-1, 2), F(2), F(3)], [F(0), F(1), F(2), F(5, 3)]):
        rep = substitution_witness(PointConfig(xs), g)
        assert rep.passed and len(rep.params["checks"]) == 5
        assert rep.params["field"] == "rational"


def test_witness_pole_is_named_by_its_pair():
    # g = xy + x + y: g(1, -1/2) = -1/2 + 1 - 1/2 = 0
    pc = PointConfig([F(1), F(-1, 2), F(2), F(3)])
    with pytest.raises(PoleError) as exc:
        substitution_witness(pc, SymmetricForm(1, 1, 0))
    assert str(exc.value) == "g(x_1, x_2) = 0" and exc.value.pair == (1, 2)


# a = 0 and c = 0 forms, as well as the ones symmetric_forms draws
witness_forms = st.one_of(
    symmetric_forms,
    st.tuples(coefs.filter(bool), coefs).map(lambda t: SymmetricForm(0, *t)),
    st.tuples(coefs, coefs.filter(bool)).map(lambda t: SymmetricForm(t[0], t[1], 0)),
)


@given(witness_forms, st.integers(1, 3).flatmap(lambda n: distinct_points(2 * n)))
def test_witness_passes_or_names_the_pole_of_g(g, xs):
    # for a != 0 the two maps' poles are the x with (a x + b)^2 = b^2 - ac
    assume(g.a == 0 or sum((g.a * x + g.b) ** 2 == g.disc for x in xs) < 2)
    pc = PointConfig(xs)
    try:
        schur_pf_closed(pc, g)
    except PoleError as pole:
        with pytest.raises(PoleError) as exc:
            substitution_witness(pc, g)
        assert (str(exc.value), exc.value.pair) == (str(pole), pole.pair)
        return
    rep = substitution_witness(pc, g)
    assert rep.passed and len(rep.params["checks"]) == 5


def test_witness_takes_the_other_root_at_the_map_pole():
    # g = xy - 1, s = 1: the map's pole is (s - b)/a = 1, where g has none
    g = SymmetricForm(1, 0, -1)
    rep = substitution_witness(PointConfig([1, 2, 3, 5]), g)
    assert rep.passed and len(rep.params["checks"]) == 5
    assert rep.lhs == rep.rhs == "223/132300"
    # 1 and -1 are the poles of the maps of both roots
    with pytest.raises(PoleError, match="poles at 1 and -1") as exc:
        substitution_witness(PointConfig([1, -1, 2, 3]), g)
    assert exc.value.pair is None


def test_witness_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        substitution_witness(
            PointConfig([F(1), F(2)]), SymmetricForm(F(1), F(2), F(4))
        )

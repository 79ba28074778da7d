import hashlib
import json
import math
import random
import re
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pfhaf import structured
from pfhaf.errors import DegenerateFormError, DomainError, PfhafError, PoleError
from pfhaf.kernels import (
    det_bareiss,
    evaluate,
    hf_minors,
    hf_oracle,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_fraction_free,
    pf_oracle,
)
from pfhaf.matrix import SquareMatrix, minor
from pfhaf.report import IdentityReport
from pfhaf.scalar import QuadExt, _RootPair, rat_is_square, rat_sqrt, render_rat
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
from pfhaf.verify import (
    IdentityId,
    check_identity,
    gen_points,
    gen_rank2,
    make_instance,
    run_suite,
    summarize,
)

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
    for cls in (BilinearForm, SymmetricForm):
        for name in ("x*y+1", 3, None):
            with pytest.raises(DomainError, match=re.escape(f"unknown form name {name!r}")):
                cls.from_name(name)


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
    # a bad shape or form is in test_structured_entries_refuse_bad_input
    with pytest.raises(DomainError, match="power must be 1 or 2"):
        build_cauchy(PointConfig([F(1)], [F(2)]), XPY, power=3)
    with pytest.raises(DomainError, match="power must be 1 or 2"):
        build_schur(PointConfig([F(1), F(2)]), GXPY, power=0)


@pytest.mark.parametrize("power", [1.0, 2.0, F(1), "1"])
def test_builders_refuse_a_power_that_is_not_an_int(power):
    with pytest.raises(DomainError, match="power must be 1 or 2"):
        build_cauchy(PointConfig([F(1)], [F(2)]), XPY, power=power)
    with pytest.raises(DomainError, match="power must be 1 or 2"):
        build_schur(PointConfig([F(1), F(2)]), GXPY, power=power)


# Every structured entry and the form class it reads.
ENTRIES = {
    build_cauchy: BilinearForm,
    cauchy_det_closed: BilinearForm,
    fast_cauchy_perm: BilinearForm,
    build_schur: SymmetricForm,
    build_hafnian_mat: SymmetricForm,
    schur_pf_closed: SymmetricForm,
    fast_cauchy_hafnian: SymmetricForm,
    moebius_for_form: SymmetricForm,
    substitution_witness: SymmetricForm,
}


# Per form class: points of the right shape, a form of the other class, a
# form of this class, and wrong shapes with their messages.
SHAPES = {
    BilinearForm: (
        PointConfig([1, 2], [3, 4]),
        SymmetricForm(1, 2, 3),
        XPY,
        {
            "no_y": (PointConfig([1, 2]), "need equally many x and y points"),
            "short_y": (PointConfig([1, 2], [3]), "need equally many x and y points"),
        },
    ),
    SymmetricForm: (
        PointConfig([1, 2, 5, 7]),
        BilinearForm(1, 2, 3, 4),
        GXPY,
        {
            "y_points": (
                PointConfig([1, 2], [3, 4]),
                "a symmetric form reads x points only; got y points",
            ),
            "odd": (PointConfig([1, 2, 3]), "need an even number of x points"),
        },
    ),
}


def refusal_cases():
    """(entry, points, form, message) for a wrong form class, None, points
    that are not a PointConfig and a wrong point shape; the class is refused
    before the points are read."""
    for entry, cls in ENTRIES.items():
        good, other, form, shapes = SHAPES[cls]
        name, need = entry.__name__, f"need a {cls.__name__}, got"
        wrong_class = f"{need} {type(other).__name__}"
        yield pytest.param(entry, good, other, wrong_class, id=f"{name}-class")
        yield pytest.param(entry, good, None, f"{need} NoneType", id=f"{name}-None")
        if entry is moebius_for_form:
            continue  # it reads no points
        for pc, got in (([1, 2], "list"), (None, "NoneType")):
            message = f"need a PointConfig, got {got}"
            yield pytest.param(entry, pc, form, message, id=f"{name}-points_{got}")
            yield pytest.param(
                entry, pc, other, wrong_class, id=f"{name}-class_points_{got}"
            )
        for what, (pc, message) in shapes.items():
            yield pytest.param(entry, pc, form, message, id=f"{name}-{what}")
            yield pytest.param(entry, pc, other, wrong_class, id=f"{name}-class_{what}")


@pytest.mark.parametrize("entry, pc, form, message", refusal_cases())
def test_structured_entries_refuse_bad_input(entry, pc, form, message):
    with pytest.raises(DomainError) as exc:
        entry(form) if entry is moebius_for_form else entry(pc, form)
    assert type(exc.value) is DomainError and str(exc.value) == message


# Wrong types and shapes for the library entries, at dimensions below the
# helper thresholds: anything but an int, a Fraction, a list or a tuple where
# one is read, ragged and odd matrices, repeated and misplaced points.
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.complex_numbers(max_magnitude=2), st.just(object()),
)
SMALL = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4))
ENTRY = st.one_of(SMALL, SMALL, JUNK)
ROWS = st.lists(st.one_of(st.lists(ENTRY, max_size=5), st.tuples(ENTRY, ENTRY), JUNK),
                max_size=5)


def square(entries):
    return st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def symmetric(n):
    def mirror(values):
        it = iter(values)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = next(it)
        return SquareMatrix(rows)
    return st.lists(SMALL, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(mirror)


MATRICES = st.one_of(
    square(SMALL).map(SquareMatrix), st.integers(0, 3).flatmap(lambda k: symmetric(2 * k)),
    ROWS, JUNK,
)
POINTS = st.one_of(
    st.builds(PointConfig, st.lists(SMALL, unique=True, max_size=6)),
    st.builds(PointConfig, st.lists(SMALL, unique=True, max_size=4),
              st.lists(SMALL, unique=True, max_size=4)),
    st.lists(SMALL, max_size=4), JUNK,
)


def coeffs(k):
    return st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any)


FORMS = st.one_of(
    coeffs(4).map(lambda c: BilinearForm(*c)), coeffs(3).map(lambda c: SymmetricForm(*c)),
    st.sampled_from(["x+y", "1-xy"]).map(SymmetricForm.from_name), JUNK,
)
INDICES = st.lists(st.one_of(st.integers(-1, 7), JUNK), max_size=3)
INDEX_SETS = st.one_of(st.lists(st.one_of(INDICES, st.integers(0, 3), JUNK), max_size=3), JUNK)
POWERS = st.one_of(st.integers(0, 3), st.sampled_from([1.0, 2.0, F(1)]), JUNK)
# Counts and sizes of at most 6: the generators have no size cap.
COUNTS = st.one_of(st.integers(-2, 6), JUNK)
SEEDS = st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 9), max_size=2), JUNK)
IDS = st.one_of(st.sampled_from(IdentityId), st.just("MAIN1"), JUNK)
# Sizes and trial counts of at most 2: a sweep runs up to 16 x 2 x 2 cells.
SUITE_COUNTS = st.one_of(st.integers(-1, 2), JUNK)
RANK2 = st.builds(gen_rank2, st.integers(0, 9), st.integers(1, 4))
REPORTS = st.one_of(
    st.lists(st.one_of(st.builds(IdentityReport, st.sampled_from(["MAIN1", "CARLITZ"]),
                                 st.just({}), passed=st.booleans()), JUNK), max_size=3),
    JUNK,
)
LIBRARY = {
    pf_fraction_free: st.tuples(st.one_of(ROWS, square(ENTRY), JUNK)),
    hf_minors: st.tuples(MATRICES, INDEX_SETS),
    evaluate: st.tuples(MATRICES, st.one_of(st.sampled_from(["det", "perm", "pf", "hf"]),
                                            st.lists(st.just("det"), max_size=1), JUNK),
                        st.one_of(st.sampled_from(["fast", "oracle"]), st.just(["fast"]), JUNK)),
    build_cauchy: st.tuples(POINTS, FORMS, POWERS),
    build_schur: st.tuples(POINTS, FORMS, POWERS),
    build_hafnian_mat: st.tuples(POINTS, FORMS),
    fast_cauchy_perm: st.tuples(POINTS, FORMS),
    fast_cauchy_hafnian: st.tuples(POINTS, FORMS),
    gen_points: st.tuples(SEEDS, COUNTS),
    gen_rank2: st.tuples(SEEDS, COUNTS),
    make_instance: st.tuples(SEEDS, IDS, COUNTS, COUNTS),
    summarize: st.tuples(REPORTS),
    sqrt_disc: st.tuples(st.one_of(SMALL, JUNK)),
    moebius_for_form: st.tuples(FORMS),
    check_identity: st.tuples(IDS, POINTS, st.one_of(FORMS, RANK2), st.one_of(SMALL, JUNK)),
    substitution_witness: st.tuples(POINTS, FORMS),
    cauchy_det_closed: st.tuples(POINTS, FORMS),
    schur_pf_closed: st.tuples(POINTS, FORMS),
    run_suite: st.tuples(SEEDS, st.one_of(st.lists(SUITE_COUNTS, max_size=2), JUNK), SUITE_COUNTS,
                         st.one_of(st.sets(IDS, max_size=3), IDS)),
    render_rat: st.tuples(st.one_of(SMALL, JUNK)),
    rat_sqrt: st.tuples(st.one_of(SMALL, JUNK)),
    rat_is_square: st.tuples(st.one_of(SMALL, JUNK)),
    minor: st.tuples(MATRICES, st.one_of(INDICES, JUNK)),
}
# Keyword-only arguments, for the entries that take them.
KEYWORDS = {
    gen_points: st.fixed_dictionaries({}, optional={
        "positive": st.booleans(), "lo": st.one_of(st.integers(-9, 9), JUNK),
        "hi": st.one_of(st.integers(-9, 99), JUNK), "max_den": st.one_of(st.integers(-1, 9), JUNK),
        "no_pole": FORMS, "ys": st.one_of(st.none(), COUNTS),
    }),
}


@settings(max_examples=1725, deadline=None)
@given(st.data())
def test_library_entries_raise_only_pfhaf_errors(data):
    entry = data.draw(st.sampled_from(list(LIBRARY)), label="entry")
    args = data.draw(LIBRARY[entry], label="args")
    kwargs = data.draw(KEYWORDS.get(entry, st.just({})), label="kwargs")
    try:
        entry(*args, **kwargs)
    except PfhafError:
        pass


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


# -- the homogeneous layer -------------------------------------------------
#
# The builders and closed forms evaluate forms at their points on integers,
# or on pairs of integers in Z[sqrt(D)] at points in Q(sqrt(d)); these tests
# hold them to the values and types of a direct evaluation through
# form(x, y) in Fraction and QuadExt arithmetic.


def field_table(form, xs, ys=None):
    """The rows of f(x_i, y_j) over all pairs or, with ys None, of
    g(x_i, x_j) over j > i, through form(x, y); the first zero in
    row-major order raises PoleError naming its pair."""
    rows = []
    for i, x in enumerate(xs):
        lo = 0 if ys is not None else i + 1
        row = []
        for j, y in enumerate(ys if ys is not None else xs[lo:], lo):
            v = form(x, y)
            if v == 0:
                at = "f(x_{}, y_{})" if ys is not None else "g(x_{}, x_{})"
                pair = (i + 1, j + 1)
                raise PoleError(at.format(*pair) + " = 0", pair=pair)
            row.append(v)
        rows.append(row)
    return rows


def field_matrix(upper, skew):
    n = len(upper)
    rows = [[F(0)] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for j, v in enumerate(row, i + 1):
            rows[i][j], rows[j][i] = v, -v if skew else v
    return rows


def field_values(form, pc):
    """Every builder and closed form at pc, by form(x, y): name -> value."""
    xs, ys = pc.xs, pc.ys
    if ys is not None:
        n = len(xs)
        table = field_table(form, xs, ys)
        closed = (form.b * form.c - form.a * form.d) ** (n * (n - 1) // 2)
        for i in range(n):
            for j in range(i + 1, n):
                closed *= (xs[j] - xs[i]) * (ys[j] - ys[i])
        for v in (v for row in table for v in row):
            closed /= v
        out = {"closed": closed}
        for p in (1, 2):
            out[f"cauchy{p}"] = [[1 / v**p for v in row] for row in table]
        return out
    half = len(xs) // 2
    table = field_table(form, xs)
    closed = form.disc ** (half * (half - 1))
    for i, row in enumerate(table):
        for j, v in enumerate(row, i + 1):
            closed *= (xs[j] - xs[i]) / v
    out = {"closed": closed}
    for p in (1, 2):
        out[f"schur{p}"] = field_matrix(
            [[(xs[j] - xs[i]) / v**p for j, v in enumerate(row, i + 1)]
             for i, row in enumerate(table)],
            skew=True,
        )
    out["hafnian"] = field_matrix([[1 / v for v in row] for row in table], skew=False)
    return out


def program_values(form, pc):
    """The same values from the program."""
    if pc.ys is not None:
        out = {"closed": cauchy_det_closed(pc, form)}
        for p in (1, 2):
            out[f"cauchy{p}"] = build_cauchy(pc, form, power=p).entries
        return out
    out = {"closed": schur_pf_closed(pc, form)}
    for p in (1, 2):
        out[f"schur{p}"] = build_schur(pc, form, power=p).entries
    out["hafnian"] = build_hafnian_mat(pc, form).entries
    return out


def typed(value):
    """value with the type of every scalar in it, for comparisons that
    tell Fraction(1) from 1 and from QuadExt."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value).__name__, value)


def outcome_typed(fn, *args):
    """typed(fn(*args)), or the message and pair of its PoleError."""
    try:
        return typed(fn(*args))
    except PoleError as exc:
        return ("pole", str(exc), exc.pair)


# denominators up to 12 and negative values; the half-integers make x + y
# and 1 - xy vanish often
rationals12 = st.one_of(
    st.sampled_from([F(k, 2) for k in range(-4, 5)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
coefs12 = st.fractions(min_value=-4, max_value=4, max_denominator=12)
nonzero12 = coefs12.filter(bool)


def layer_forms(cls):
    """Named forms of cls, and random ones: any, with a = 0, with b = 0."""
    rest = [coefs12] * (len(fields(cls)) - 2)
    return st.one_of(
        st.sampled_from([cls.from_name("x+y"), cls.from_name("1-xy")]),
        st.one_of(
            st.tuples(coefs12, coefs12, *rest).filter(any),
            st.tuples(st.just(0), nonzero12, *rest),
            st.tuples(nonzero12, st.just(0), *rest),
        ).map(lambda t: cls(*t)),
    )


def field_points(radicand):
    """Rational points, or with a radicand, points of Q(sqrt(radicand)) with
    rational ones mixed in.  The half-integer parts and the irrational
    parts +-1 put poles of x + y and 1 - xy at pairs in Q(sqrt(d)) too."""
    if radicand is None:
        return rationals12
    roots = st.sampled_from([F(1), F(-1), F(1), F(-1), F(1, 2), F(-2, 3)])
    quads = st.builds(QuadExt, rationals12, roots, st.just(radicand))
    return st.one_of(quads, quads, rationals12)


@st.composite
def layer_cases(draw, radicand):
    """A form and its points: n x and n y points (n <= 4) for a bilinear
    form, 2n x points (n <= 3) for a symmetric one, n >= 1 with a radicand.
    In about half the draws the last point is -x_1 or 1/x_1, a pole of
    x + y or 1 - xy, at a pair in Q(sqrt(d)) when x_1 lies there."""
    bilinear = draw(st.booleans())
    n = draw(st.integers(radicand is not None, 4 if bilinear else 3))
    size = n if bilinear else 2 * n
    points = [
        draw(st.lists(field_points(radicand), min_size=size, max_size=size, unique=True))
        for _ in range(2 if bilinear else 1)
    ]
    if size > 1 - bilinear and points[0][0] != 0 and draw(st.booleans()):
        x = points[0][0]
        twin = -x if draw(st.booleans()) else 1 / x
        if twin not in points[-1]:
            points[-1][-1] = twin
    return draw(layer_forms(BilinearForm if bilinear else SymmetricForm)), points


def layer_names(pc):
    return ("closed",) + (
        ("cauchy1", "cauchy2") if pc.ys is not None else ("schur1", "schur2", "hafnian")
    )


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([F(2), F(-3), F(13, 9), None]).flatmap(layer_cases))
def test_homogeneous_layer_equals_field_evaluation(case):
    # An entry is a Fraction exactly when the points it reads are rational:
    # both of its points, unless a zero coefficient leaves one unread.
    form, points = case
    pc = PointConfig(*points)
    for name in layer_names(pc):
        expected = outcome_typed(lambda: field_values(form, pc)[name])
        assert outcome_typed(lambda: program_values(form, pc)[name]) == expected, name


def radicands_named(fn):
    """The two radicands a DomainError of fn names, or "pole"."""
    try:
        fn()
    except DomainError as exc:
        words = str(exc).split()
        assert words[:2] == ["mixed", "radicands"], str(exc)
        return {words[2], words[4]}
    except PoleError:
        return "pole"
    raise AssertionError("no error")


@settings(deadline=None, max_examples=60)
@given(
    st.tuples(
        layer_forms(SymmetricForm),
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.one_of(field_points(F(2)), field_points(F(-3))),
                min_size=2 * n, max_size=2 * n, unique=True,
            )
        ),
    )
)
def test_mixed_radicands_are_refused(case):
    form, xs = case
    assume({v.d for v in xs if isinstance(v, QuadExt)} == {F(2), F(-3)})
    pc = PointConfig(xs)
    for name in layer_names(pc):
        assert radicands_named(lambda: program_values(form, pc)[name]) == {"2", "-3"}
    # The field evaluation raises the same error, unless it meets a pole at
    # a pair before it meets the two radicands; the integer layer reads the
    # radicands first.
    assert radicands_named(lambda: field_values(form, pc)) in ({"2", "-3"}, "pole")


s2 = QuadExt(F(0), F(1), F(2))


@pytest.mark.parametrize(
    "form, points",
    [
        (XPY, ([s2 + 1, s2 + 2], [s2 + 3, F(-1, 3)])),  # mixed Q and Q(sqrt(2))
        (BilinearForm(F(1, 2), 0, F(-2, 3), 1), ([F(1, 2), F(5)], [s2, 2 * s2])),
        (GXPY, ([F(1), s2, F(-2, 5), s2 - 1],)),
        (SymmetricForm(F(-1, 6), F(3, 4), 0), ([s2, 3 * s2, 1 - s2, F(7, 12)],)),
        (GXPY, ([F(1), s2 + 1, F(-1), F(3)],)),  # a pole at a rational pair
        (GXPY, ([F(1), s2, -s2, F(3)],)),  # a pole at a pair in Q(sqrt(2))
    ],
)
def test_points_outside_q_take_the_field_route(form, points):
    # the values and poles of evaluation in the field, from the integer layer
    pc = PointConfig(*points)
    expected = outcome_typed(lambda: field_values(form, pc))
    assert outcome_typed(lambda: program_values(form, pc)) == expected


# sha256 of the build_verify_suite witness reports of benchmark seeds 1-5
# (25 reports, JSON lines without "elapsed"), taken before the builders and
# closed forms moved to integer coordinates: 24 of the 25 run in Q(sqrt(d)).
WITNESS_GOLDEN = "9b94cc24b2cda50a1967f920f32f30929324fb12916852e18ac29b3937da939e"


def test_benchmark_witness_reports_are_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    digest = hashlib.sha256()
    rational = set()
    for seed in range(1, 6):
        for inst in workloads.build_verify_suite(seed):
            if inst.kind == "witness":
                obj = substitution_witness(*inst.args).to_json()
                obj.pop("elapsed")
                rational.add(obj["params"]["field"] == "rational")
                digest.update(json.dumps(obj).encode() + b"\n")
    assert rational == {True, False}
    assert digest.hexdigest() == WITNESS_GOLDEN



# sha256 of every build_verify_suite report line of benchmark seeds 1-5
# (69 per seed: 64 identity cells and 5 witnesses, JSON lines without
# "elapsed"), taken while the identity checks still ran the general kernels
# on the builders' Fraction and QuadExt matrices.
VERIFY_SUITE_GOLDEN = "9ad11b1146d61f2eafe710e0b3c870c539212fdd07426b2cc3c70e8e0737ee6d"


def test_benchmark_verify_suite_reports_are_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    digest = hashlib.sha256()
    for seed in range(1, 6):
        instances = workloads.build_verify_suite(seed)
        assert len(instances) == 69
        for inst in instances:
            digest.update(workloads.run_op(inst).encode() + b"\n")
    assert digest.hexdigest() == VERIFY_SUITE_GOLDEN


# Degenerate forms at points mixing Q and Q(sqrt(2)): the value is 0 and
# still a QuadExt, as on the builders' matrices.
@example((BilinearForm(1, 0, 0, 0), [[F(1), QuadExt(0, 1, 2)], [F(1), F(2)]]), 1)
@example((SymmetricForm(1, 0, 0), [[F(1), F(2), QuadExt(0, 1, 2), F(3)]]), 2)
@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([F(2), F(-3), None]).flatmap(layer_cases),
    st.sampled_from([1, 2]),
)
def test_builders_match_the_integer_routes(case, power):
    # The identity checks no longer run the builders' matrices through the
    # general kernels; the integer route of each det and Pf side must give
    # what they gave, in value and type, at pole-free points in Q and in
    # Q(sqrt(d)).
    form, points = case
    pc = PointConfig(*points)
    assume(pc.xs)
    bilinear = pc.ys is not None
    try:
        h = structured._table(pc, form, BilinearForm if bilinear else SymmetricForm)
    except PoleError:
        assume(False)
    if bilinear:
        expected = det_bareiss(build_cauchy(pc, form, power))
        family = "DET" if power == 1 else "BORCH"
    else:
        expected = pf_elimination(build_schur(pc, form, power))
        family = "SCHUR" if power == 1 else "MAIN"
    value = structured._sides(family, h)[0]
    assert value == expected and type(value) is type(expected)


def _norm(v):
    return v if type(v) is int else v.norm()


@st.composite
def staircase_cases(draw):
    """A form and its points for the staircase scaling: n x and n y points
    (n <= 5) for a bilinear form, 2n x points (2n <= 8) for a symmetric
    one, all in Q, all in Q(sqrt(2)) or mixed.  In some draws the content
    is planted: every point is a multiple of one prime, or the form is,
    so that every entry of the table shares the prime."""
    bilinear = draw(st.booleans())
    roots = st.sampled_from([F(1), F(-1), F(1, 2)])
    field = draw(st.sampled_from([
        rationals12, st.builds(QuadExt, rationals12, roots, st.just(F(2))), field_points(F(2)),
    ]))
    n = draw(st.integers(1, 5 if bilinear else 4))
    size = n if bilinear else 2 * n
    prime = draw(st.sampled_from([2, 3, 7]))
    planted = draw(st.sampled_from([None, "points", "form"]))
    points = [
        [prime * x if planted == "points" else x for x in xs]
        for xs in (
            draw(st.lists(field, min_size=size, max_size=size, unique=True))
            for _ in range(2 if bilinear else 1)
        )
    ]
    form = draw(layer_forms(BilinearForm if bilinear else SymmetricForm))
    if planted == "form":
        form = type(form)(*(prime * getattr(form, f.name) for f in fields(form)))
    return form, points


@settings(deadline=None, max_examples=200)
@given(staircase_cases(), st.sampled_from([1, 2]))
def test_staircase_scaling_is_exact_and_keeps_the_values(case, power):
    # Each pair's factor T_ij^p goes to the later of its two indices: every
    # scaled entry times T_ij^p gives back R_i C_j (D_i D_j for a symmetric
    # form), the lcms recomputed here from the orders the scaling chose, and
    # the integer routes keep the general kernels' values and types.
    form, points = case
    pc = PointConfig(*points)
    bilinear = pc.ys is not None
    try:
        h = structured._table(pc, form, BilinearForm if bilinear else SymmetricForm)
    except PoleError:
        assume(False)
    scaled, den, rows, cols = structured._staircase(h, power)
    n = len(rows)
    assert sorted(rows) == sorted(cols) == list(range(n))
    if bilinear:
        t = [[h.table[i][j] ** power for j in cols] for i in rows]
        cells = {(i, j): scaled[i][j] for i in range(n) for j in range(n)}
    else:
        assert cols == rows
        at = lambda i, j: 1 if i == j else h.table[min(i, j)][abs(j - i) - 1]
        t = [[at(i, j) ** power for j in rows] for i in rows]
        cells = {(i, j): scaled[i][j - i - 1] for i in range(n) for j in range(i + 1, n)}
    rights = [math.lcm(*(_norm(row[j]) for row in t[:j])) for j in range(n)]
    if bilinear:
        lefts = [math.lcm(*map(_norm, row[:i + 1])) for i, row in enumerate(t)]
        assert den == math.prod(lefts) * math.prod(rights)
    else:
        lefts = rights
        assert den == math.prod(rights)
    for (i, j), v in cells.items():
        assert type(v) is int or isinstance(v, _RootPair)
        assert v * t[i][j] == lefts[i] * rights[j], (i, j)
    if bilinear:
        expected = det_bareiss(build_cauchy(pc, form, power))
        family = "DET" if power == 1 else "BORCH"
    else:
        expected = pf_elimination(build_schur(pc, form, power))
        family = "SCHUR" if power == 1 else "MAIN"
    value = structured._sides(family, h)[0]
    assert value == expected and type(value) is type(expected)


# sha256 of str() of every fast_cauchy_hafnian and fast_cauchy_perm value
# over the benchmark's hafnian_fast and perm_fast seed-1 instances (2n = 24
# to 56, n = 12 to 32), one line each, taken while the integer routes still
# scaled each index by the lcm of its form values against all other points.
FAST_GOLDEN = "3d6247024f01160c58fcb01c73f13be5d20d0cb43b29abf1d0d61792e0f193dc"


def test_benchmark_fast_path_values_are_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    digest = hashlib.sha256()
    for build in (workloads.build_hafnian_fast, workloads.build_perm_fast):
        for inst in build(1):
            digest.update(str(workloads.run_op(inst)).encode() + b"\n")
    assert digest.hexdigest() == FAST_GOLDEN


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


def test_fast_paths_accept_points_outside_q():
    s2, r3 = QuadExt(F(0), F(1), F(2)), QuadExt(F(0), F(1), F(-3))
    g = SymmetricForm(F(1, 2), F(-1, 3), F(5, 4))
    f = BilinearForm(F(1, 2), F(-2, 3), F(3, 5), F(1, 7))
    for pc, form in (
        (PointConfig([s2 + k for k in (1, 2, 3, 4)]), GXPY),
        (PointConfig([F(1), F(2), F(3, 2), s2]), GXPY),  # one point in Q(sqrt(2))
        (PointConfig([r3, 1 - r3, F(1, 2) * r3 + 2, F(-7, 3), 3 * r3, F(5)]), g),
        (PointConfig([s2 + 1, s2 + 2], [s2 + 3, F(4)]), XPY),
        (PointConfig([F(1), F(2), F(5, 3)], [F(3), F(4), s2]), XPY),
        (PointConfig([r3, F(-2), r3 / 3], [F(1, 2), 2 * r3 - 1, F(7)]), f),
    ):
        # the matrices by form(x, y) in the field, not by the program
        values = field_values(form, pc)
        if pc.ys is None:
            value = fast_cauchy_hafnian(pc, form)
            expected = hf_oracle(SquareMatrix(values["hafnian"]))
        else:
            value = fast_cauchy_perm(pc, form)
            expected = perm_oracle(SquareMatrix(values["cauchy1"]))
        assert type(value) is QuadExt and value == expected

    # a pole at a pair in Q(sqrt(2)) is named as the closed form names it
    for fast, closed, pc in (
        (fast_cauchy_hafnian, schur_pf_closed, PointConfig([s2, F(1), -s2, F(3)])),
        (fast_cauchy_perm, cauchy_det_closed, PointConfig([F(1), s2], [F(2), -s2])),
    ):
        form = GXPY if pc.ys is None else XPY
        with pytest.raises(PoleError) as exc:
            fast(pc, form)
        assert outcome_typed(closed, pc, form) == ("pole", str(exc.value), exc.value.pair)

    # criterion 8: a degenerate form is refused in Q(sqrt(d)) too
    with pytest.raises(DegenerateFormError, match="use perm_ryser instead"):
        fast_cauchy_perm(PointConfig([s2], [s2 + 1]), BilinearForm(F(1), F(1), F(1), F(1)))
    with pytest.raises(DegenerateFormError, match="use hf_recursive instead"):
        fast_cauchy_hafnian(PointConfig([s2, s2 + 1]), SymmetricForm(F(1), F(1), F(1)))

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


def test_moebius_for_form_example():
    # g = x*y - 1 has disc 1, rational square root
    g = SymmetricForm(F(1), F(0), F(-1))
    mob = moebius_for_form(g)
    assert (mob.A, mob.B, mob.C, mob.D) == (F(1, 2), F(1, 2), F(1), F(-1))


def test_moebius_inverse_round_trip():
    # BC - AD = s = sqrt(b^2 - ac) != 0 makes the map invertible, for the
    # a != 0 map over Q and over Q(sqrt(7)), and for the affine a = 0 map,
    # where s = -b
    for g in (SymmetricForm(F(1), F(0), F(-1)), SymmetricForm(F(2), F(1), F(-3))):
        mob = moebius_for_form(g)
        assert mob.B * mob.C - mob.A * mob.D == sqrt_disc(g.disc) != 0
    mob = moebius_for_form(SymmetricForm(0, 3, 1))
    assert mob.B * mob.C - mob.A * mob.D == -3


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


@given(
    witness_forms,
    st.integers(1, 3).flatmap(lambda n: distinct_points(2 * n)),
    st.sets(st.sampled_from((1, -1))),
)
def test_witness_passes_or_names_the_pole_of_g(g, xs, roots):
    # For a != 0 and a square disc s^2, the map's pole (s - b)/a and the
    # other root's (-s - b)/a are rational; some draws plant them among
    # the points.  Only a pole of g is refused.
    if g.a and rat_is_square(g.disc):
        poles = [(r * rat_sqrt(g.disc) - g.b) / g.a for r in sorted(roots)]
        xs = list(dict.fromkeys(poles + xs))[: len(xs)]
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


def test_witness_maps_a_point_at_the_map_pole_to_infinity():
    # g = xy - 1, s = 1: the map's pole is (s - b)/a = 1, where g has none,
    # and phi(1) is infinity
    g = SymmetricForm(1, 0, -1)
    rep = substitution_witness(PointConfig([1, 2, 3, 5]), g)
    assert rep.passed and len(rep.params["checks"]) == 5
    assert rep.lhs == rep.rhs == "223/132300"
    # -1 is the pole of the other root's map, which the witness never takes
    rep = substitution_witness(PointConfig([1, -1, 2, 3]), g)
    assert rep.passed and len(rep.params["checks"]) == 5


@pytest.mark.parametrize("xs", [[s2, 1, 3, 5], [s2, -s2, 1, 3]])
def test_witness_maps_the_map_pole_to_infinity_in_q_sqrt2(xs):
    # g = xy - 2, s = sqrt(2): the map's pole is sqrt(2), the other root's
    # -sqrt(2)
    rep = substitution_witness(PointConfig(xs), SymmetricForm(1, 0, -2))
    assert rep.passed and len(rep.params["checks"]) == 5
    assert rep.params["field"] == "Q(sqrt(2))"


@pytest.mark.parametrize(
    "xs, g",
    [
        ([1, 2, 3, 5], SymmetricForm(1, 0, -1)),
        ([2, 3, 5, 1], SymmetricForm(1, 0, -1)),
        ([1, -1, 2, 3], SymmetricForm(1, 0, -1)),
        ([s2, 1, 3, 5], SymmetricForm(1, 0, -2)),
        ([s2, -s2, 1, 3], SymmetricForm(1, 0, -2)),
    ],
)
def test_witness_checks_an_image_at_infinity_with_nonzero_sides(monkeypatch, xs, g):
    # The classical Pfaffian-Hafnian check at the images, with a point at
    # the map's pole, compares two equal nonzero values.  Weighted by the
    # images' Q_i, one of them 0, both sides would be 0 and pass vacuously.
    original, calls = structured._sides, []

    def recording(family, h):
        out = original(family, h)
        calls.append((family, out))
        return out

    monkeypatch.setattr(structured, "_sides", recording)
    assert substitution_witness(PointConfig(xs), g).passed
    assert [family for family, _ in calls] == ["SCHUR", "MAIN", "SCHUR", "MAIN"]
    for _, (lhs, rhs) in calls:
        assert lhs == rhs != 0


@pytest.mark.parametrize(
    "xs, message, pair",
    [
        ([1, 2, F(1, 2), 3], "g(x_2, x_3) = 0", (2, 3)),  # one map pole held
        ([1, -1, 2, F(1, 2)], "g(x_3, x_4) = 0", (3, 4)),  # both map poles held
    ],
)
def test_witness_names_a_pole_of_g_before_the_map_poles(xs, message, pair):
    # g = xy - 1: 1 is the map's pole, -1 the other root's.  Neither is
    # refused; a pole of g among the points is named first.
    with pytest.raises(PoleError) as exc:
        substitution_witness(PointConfig(xs), SymmetricForm(1, 0, -1))
    assert str(exc.value) == message and exc.value.pair == pair


def test_witness_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        substitution_witness(
            PointConfig([F(1), F(2)]), SymmetricForm(F(1), F(2), F(4))
        )

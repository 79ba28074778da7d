import ast
import gc
import json
import marshal
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pfhaf import fraction_free, kernels
from pfhaf.errors import DomainError, SizeError
from pfhaf.kernels import (
    det_bareiss,
    det_oracle,
    evaluate,
    hf_oracle,
    hf_minors,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_fraction_free,
    pf_oracle,
)
from pfhaf.matrix import SquareMatrix, minor
from pfhaf.scalar import QuadExt
from pfhaf.structured import BilinearForm, PointConfig, build_cauchy, fast_cauchy_perm
from pfhaf.verify import gen_points


def eye(n):
    return SquareMatrix([[F(int(i == j)) for j in range(n)] for i in range(n)])


def rand_matrix(rng, n):
    return SquareMatrix(
        [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def rand_skew(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j] = v
            rows[j][i] = -v
    return SquareMatrix(rows)


def rand_symmetric(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j] = v
            rows[j][i] = v
    return SquareMatrix(rows)


def perm_matrix_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def scalars(radicand):
    """(zero, strategy for entries) over Q, or over Q(sqrt(radicand))."""
    if radicand is None:
        return F(0), rationals
    entry = st.builds(QuadExt, rationals, rationals, st.just(radicand))
    return QuadExt(F(0), F(0), radicand), entry


@st.composite
def square_matrices(draw, radicand=None):
    """Matrices of size 1..6 over Q, or over Q(sqrt(radicand)).  a_11 is
    zero in about half the draws, which forces a row swap in det_bareiss
    unless the whole first column is zero."""
    n = draw(st.integers(1, 6))
    zero, entry = scalars(radicand)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = zero
    return SquareMatrix(rows)


# -- determinant -----------------------------------------------------------


def test_det_oracle_examples():
    assert det_oracle(SquareMatrix([[F(1), F(2)], [F(3), F(4)]])) == -2
    assert det_oracle(eye(5)) == 1


def test_det_cauchy_2x2_closed_value():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    m = build_cauchy(pc, BilinearForm.from_name("x+y"))
    assert det_oracle(m) == F(1, 600)


def test_det_oracle_guard():
    with pytest.raises(SizeError):
        det_oracle(eye(9))


@settings(deadline=None)
@given(st.one_of(square_matrices(), square_matrices(F(2))))
def test_det_bareiss_matches_oracle(m):
    assert det_bareiss(m) == det_oracle(m)


def test_det_bareiss_int_entries_stay_exact():
    rng = random.Random(13)
    rows = [[rng.randrange(-(10**20), 10**20) for _ in range(6)] for _ in range(6)]
    m = SquareMatrix(rows)
    got = det_bareiss(m)
    assert type(got) is int
    assert got == det_oracle(m)
    assert det_bareiss(SquareMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])) == 18


def test_det_bareiss_repeated_row_is_zero():
    m = SquareMatrix([[F(1), F(2), F(3)], [F(1), F(2), F(3)], [F(4), F(5), F(6)]])
    assert det_bareiss(m) == 0


@pytest.mark.parametrize("rows, value", [([[0]], 0), ([[F(0)]], F(0)), ([[5]], 5)])
def test_det_bareiss_one_by_one(rows, value):
    # The only step is the last one, whose pivot is the determinant.
    got = det_bareiss(SquareMatrix(rows))
    assert got == value and type(got) is type(value)


def test_det_scaling():
    rng = random.Random(11)
    m = rand_matrix(rng, 4)
    c = F(3, 2)
    scaled = SquareMatrix([[c * v for v in row] for row in m.entries])
    assert det_bareiss(scaled) == c**4 * det_bareiss(m)


# -- permanent -------------------------------------------------------------


def test_perm_oracle_examples():
    assert perm_oracle(SquareMatrix([[F(1), F(2)], [F(3), F(4)]])) == 10
    assert perm_oracle(eye(5)) == 1


def test_perm_cauchy_2x2_value():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    m = build_cauchy(pc, BilinearForm.from_name("x+y"))
    assert perm_oracle(m) == F(49, 600)  # 1/24 + 1/25


def test_perm_oracle_guard():
    with pytest.raises(SizeError):
        perm_oracle(eye(9))


@settings(deadline=None)
@given(square_matrices())
def test_perm_ryser_matches_oracle(m):
    assert perm_ryser(m) == perm_oracle(m)


def test_perm_ryser_all_ones():
    for n in (1, 2, 5, 8):
        ones = SquareMatrix([[F(1)] * n for _ in range(n)])
        assert perm_ryser(ones) == math.factorial(n)


def test_perm_ryser_guard_refuses_at_once():
    ones = SquareMatrix([[F(1)] * 26 for _ in range(26)])
    start = time.perf_counter()
    with pytest.raises(SizeError, match=r"n <= 25, got 26.*2\^26 \* 26"):
        evaluate(ones, "perm")
    assert time.perf_counter() - start < 1


def test_perm_scaling():
    rng = random.Random(13)
    m = rand_matrix(rng, 5)
    c = F(-2, 3)
    scaled = SquareMatrix([[c * v for v in row] for row in m.entries])
    assert perm_ryser(scaled) == c**5 * perm_ryser(m)


# -- Pfaffian --------------------------------------------------------------


def test_pf_2x2_definition():
    a = F(7, 3)
    assert pf_oracle(SquareMatrix([[F(0), a], [-a, F(0)]])) == a


def test_pf_4x4_three_matchings():
    rng = random.Random(14)
    m = rand_skew(rng, 4)
    e = m.entries
    expected = e[0][1] * e[2][3] - e[0][2] * e[1][3] + e[0][3] * e[1][2]
    assert pf_oracle(m) == expected
    assert pf_elimination(m) == expected


@st.composite
def skew_matrices(draw, radicand=None):
    """Skew matrices of size 2..8 over Q, or over Q(sqrt(radicand)).  About
    half the entries are zero, and a_12 is zero in about half the draws,
    which forces a pivot swap in the Pfaffian elimination (the determinant
    elimination swaps at every zero diagonal pivot)."""
    n = 2 * draw(st.integers(1, 4))
    zero, entry = scalars(radicand)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.one_of(st.just(zero), entry))
            rows[i][j], rows[j][i] = v, -v
    if draw(st.booleans()):
        rows[0][1] = rows[1][0] = zero
    return SquareMatrix(rows)


@settings(deadline=None)
@given(st.one_of(skew_matrices(), skew_matrices(F(2))))
def test_pf_squared_is_det(m):
    assert pf_elimination(m) ** 2 == det_bareiss(m)
    # negating a 2n x 2n skew matrix multiplies its Pfaffian by (-1)^n
    neg = SquareMatrix([[-v for v in row] for row in m.entries])
    assert pf_elimination(neg) == (-1) ** (m.n // 2) * pf_elimination(m)


@settings(deadline=None)
@given(st.one_of(skew_matrices(), skew_matrices(F(2))))
def test_pf_elimination_matches_oracle(m):
    assert pf_elimination(m) == pf_oracle(m)


def test_pf_elimination_zero_pivots():
    # block anti-diagonal forces pivot searching
    rows = [[F(0)] * 4 for _ in range(4)]
    rows[0][2], rows[2][0] = F(3), F(-3)
    rows[1][3], rows[3][1] = F(5), F(-5)
    m = SquareMatrix(rows)
    assert pf_elimination(m) == pf_oracle(m)


def test_pf_elimination_sparse_mixed_denominators():
    # many zero entries force pivot swaps (and whole zero rows); mixed
    # denominators exercise the per-row lcm scaling
    rng = random.Random(27)
    swapped = 0
    for _ in range(300):
        n = 2 * rng.randint(1, 4)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    v = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 35]))
                    rows[i][j], rows[j][i] = v, -v
        m = SquareMatrix(rows)
        expected = pf_oracle(m)
        value = pf_elimination(m)
        assert value == expected and isinstance(value, F)
        if rows[0][1] == 0 and expected != 0:
            swapped += 1
    assert swapped > 20


def test_pf_fraction_free_divides_fractions_exactly():
    # upper triangle 1/2, 1/3, 2/7, 5/3, 1/5, 3/4: floor division would give 0
    upper = iter([F(1, 2), F(1, 3), F(2, 7), F(5, 3), F(1, 5), F(3, 4)])
    rows = [[F(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j] = next(upper)
            rows[j][i] = -rows[i][j]
    expected = pf_oracle(SquareMatrix(rows))
    assert expected == F(659, 840)
    assert pf_fraction_free([list(row) for row in rows]) == expected


def test_pf_elimination_quadratic_extension():
    rng = random.Random(28)
    for _ in range(20):
        rows = [[QuadExt(F(0), F(0), F(3))] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                if rng.random() < 0.6:
                    p = F(rng.randint(-5, 5), rng.randint(1, 4))
                    v = QuadExt(p, F(rng.randint(-3, 3)), F(3))
                    rows[i][j], rows[j][i] = v, -v
        m = SquareMatrix(rows)
        assert pf_elimination(m) == pf_oracle(m)


def test_pf_zero_matrix():
    z = SquareMatrix([[F(0)] * 4 for _ in range(4)])
    assert pf_elimination(z) == 0


def test_pf_block_diagonal_product():
    rng = random.Random(17)
    vals = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
    n = 8
    rows = [[F(0)] * n for _ in range(n)]
    for b, a in enumerate(vals):
        rows[2 * b][2 * b + 1] = a
        rows[2 * b + 1][2 * b] = -a
    m = SquareMatrix(rows)
    assert pf_elimination(m) == math.prod(vals)


def test_pf_permutation_conjugation_sign():
    rng = random.Random(18)
    m = rand_skew(rng, 6)
    perm = list(range(6))
    rng.shuffle(perm)
    conj = SquareMatrix(
        [[m.entries[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
    )
    assert pf_elimination(conj) == perm_matrix_sign(perm) * pf_elimination(m)


def test_pf_domain_errors():
    with pytest.raises(DomainError):
        pf_oracle(SquareMatrix([[F(1), F(2)], [F(2), F(1)]]))
    odd = SquareMatrix([[F(0)] * 3 for _ in range(3)])
    with pytest.raises(DomainError):
        pf_oracle(odd)
    with pytest.raises(SizeError):
        pf_oracle(SquareMatrix([[F(0)] * 14 for _ in range(14)]))


# -- cleared row denominators ----------------------------------------------


mixed_denominators = st.sampled_from([1, 2, 3, 7, 12, 35])


@st.composite
def cleared_inputs(draw, skew=False):
    """Matrices of ints and Fractions with mixed denominators and negative
    entries: square of size 1..6, or skew of size 2..8.  A quarter of the
    draws hold only ints, and about a third have a zero row (and column,
    when skew)."""
    n = 2 * draw(st.integers(1, 4)) if skew else draw(st.integers(1, 6))
    ints = st.integers(-9, 9)
    entry = ints
    if draw(st.integers(0, 3)):
        entry = st.one_of(ints, st.builds(F, ints, mixed_denominators))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            rows[i][j] = draw(entry)
            if skew:
                rows[j][i] = -rows[i][j]
    if draw(st.integers(0, 2)) == 0:
        z = draw(st.integers(0, n - 1))
        rows[z] = [0] * n
        if skew:
            for row in rows:
                row[z] = 0
    return SquareMatrix(rows)


def value_type(rows):
    """The type a kernel's value must have on ``rows``: int when every entry
    is an int, Fraction when any entry is."""
    return F if any(isinstance(v, F) for row in rows for v in row) else int


@settings(deadline=None)
@given(cleared_inputs())
def test_det_perm_on_cleared_rows_match_oracles(m):
    for fast, oracle in ((det_bareiss, det_oracle), (perm_ryser, perm_oracle)):
        value = fast(m)
        assert value == oracle(m)
        assert type(value) is value_type(m.entries)


@settings(deadline=None)
@given(cleared_inputs(skew=True))
def test_pf_on_cleared_rows_matches_oracle(m):
    value = pf_elimination(m)
    assert value == pf_oracle(m)
    # the Pfaffian reads only the entries above the diagonal
    assert type(value) is value_type(row[i + 1:] for i, row in enumerate(m.entries))


@st.composite
def quadratic_inputs(draw, skew=False):
    """Square matrices of size 1..6, or skew ones of size 2..8, over
    Q(sqrt(d)) for d in 2, -3, 13/9 and -3/4, with ints and Fractions of
    mixed denominators among the entries.  At least one entry the kernel
    reads is a QuadExt, and about a third of the draws have a zero row (and
    column, when skew) of QuadExt zeros."""
    d = draw(st.sampled_from([F(2), F(-3), F(13, 9), F(-3, 4)]))
    n = 2 * draw(st.integers(1, 4)) if skew else draw(st.integers(1, 6))
    ints = st.integers(-9, 9)
    fractions = st.builds(F, ints, mixed_denominators)
    quad = st.builds(QuadExt, fractions, fractions, st.just(d))
    entry = st.one_of(quad, ints, fractions)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            rows[i][j] = draw(quad if (i, j) == (0, int(skew)) else entry)
            if skew:
                rows[j][i] = -rows[i][j]
    if draw(st.integers(0, 2)) == 0:
        z = draw(st.integers(0, n - 1))
        zero = QuadExt(F(0), F(0), d)
        rows[z] = [zero] * n
        if skew:
            for row in rows:
                row[z] = zero
    return SquareMatrix(rows)


@settings(deadline=None)
@given(quadratic_inputs())
def test_det_perm_on_quadratic_rows_match_oracles(m):
    for fast, oracle in ((det_bareiss, det_oracle), (perm_ryser, perm_oracle)):
        value = fast(m)
        assert type(value) is QuadExt and value == oracle(m)


@settings(deadline=None)
@given(quadratic_inputs(skew=True))
def test_pf_on_quadratic_rows_matches_oracle(m):
    value = pf_fraction_free([list(row) for row in m.entries])
    assert type(value) is QuadExt and value == pf_oracle(m)


def test_int_input_gives_int():
    m = SquareMatrix([[0, 2], [-2, 0]])
    assert [type(f(m)) for f in (det_bareiss, perm_ryser, pf_elimination)] == [int] * 3
    assert pf_elimination(m) == 2
    singular = SquareMatrix([[0, F(1, 2)], [0, 1]])
    assert det_bareiss(singular) == 0 and type(det_bareiss(singular)) is F


def test_ints_mixed_with_quadext_stay_in_the_field():
    q = QuadExt(F(1), F(1), F(2))
    diag = SquareMatrix([[1, 0, 0], [0, 1, 0], [0, 0, q]])
    assert det_bareiss(diag) == perm_ryser(diag) == q
    skew = SquareMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, q], [0, 0, -q, 0]])
    assert pf_elimination(skew) == q
    zero = SquareMatrix([[0, 1], [0, q]])
    values = [det_bareiss(diag), perm_ryser(diag), pf_elimination(skew), det_bareiss(zero)]
    assert all(type(v) is QuadExt for v in values)
    r3 = QuadExt(F(1), F(1), F(-3))
    mixed = SquareMatrix([[0, q, 0, 0], [-q, 0, 0, 0], [0, 0, 0, r3], [0, 0, -r3, 0]])
    for kernel in (det_bareiss, perm_ryser, pf_elimination):
        with pytest.raises(DomainError, match="mixed radicands -3 and 2"):
            kernel(mixed)


def test_perm_ryser_on_cauchy_matches_fast_path():
    f = BilinearForm(F(2), F(-1, 3), F(5), F(7, 2))
    pc = gen_points(14, 14, ys=14, max_den=10, no_pole=f)
    slow = perm_ryser(build_cauchy(pc, f))
    assert type(slow) is F
    assert slow == fast_cauchy_perm(pc, f)


# -- stripped content -------------------------------------------------------
#
# On int rows, det_bareiss and pf_fraction_free divide the trailing block by
# its gcd after each step whose pivot has at least _STRIP_BITS bits.  These
# inputs plant content: row i and column j (index i of a skew matrix) are
# scaled by 2^(_STRIP_BITS/2) times a product of small prime powers, so
# every nonzero pivot is long enough for stripping to start at step 0.

STRIP_HALF = 2 ** (fraction_free._STRIP_BITS // 2)
prime_powers = st.builds(
    lambda e: math.prod(p**k for p, k in zip((2, 3, 5, 7, 11), e)),
    st.lists(st.integers(0, 12), min_size=5, max_size=5),
)


@st.composite
def planted_inputs(draw, skew=False):
    """Square matrices of size 1..6, or skew ones of size 2..8, of small
    ints with row i multiplied by r_i and column j by c_j (for a skew
    matrix, r = c), each r_i and c_j being STRIP_HALF times a product of
    small prime powers; ints, or in about a third of the draws Fractions
    over a denominator of 2, 3 or 6.  In about half the draws the leading
    2 x 2 minor (det) or 4 x 4 Pfaffian (Pf) is zero, so the pivot right
    after the first stripping step is zero and forces a swap."""
    n = 2 * draw(st.integers(1, 4)) if skew else draw(st.integers(1, 6))
    small = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if skew else 0, n):
            small[i][j] = draw(st.integers(-9, 9))
    if n >= 4 and draw(st.booleans()):
        if skew:
            small[0][1] = 1
            small[2][3] = small[0][2] * small[1][3] - small[0][3] * small[1][2]
        else:
            small[0][0] = 1
            small[1][1] = small[1][0] * small[0][1]
    r = [STRIP_HALF * draw(prime_powers) for _ in range(n)]
    c = r if skew else [STRIP_HALF * draw(prime_powers) for _ in range(n)]
    den = draw(st.sampled_from([1, 1, 1, 1, 2, 3, 6]))
    rows = [[r[i] * c[j] * v for j, v in enumerate(row)] for i, row in enumerate(small)]
    if skew:
        for i in range(n):
            for j in range(i):
                rows[i][j] = -rows[j][i]
    if den > 1:
        rows = [[F(v, den) for v in row] for row in rows]
    return SquareMatrix(rows)


@settings(deadline=None, max_examples=60)
@given(planted_inputs())
def test_det_with_planted_content_matches_oracle(m):
    value = det_bareiss(m)
    assert value == det_oracle(m)
    assert type(value) is value_type(m.entries)


@settings(deadline=None, max_examples=60)
@given(planted_inputs(skew=True))
def test_pf_with_planted_content_matches_oracle(m):
    value = pf_elimination(m)
    assert value == pf_oracle(m)
    assert value * value == det_bareiss(m)
    assert type(value) is value_type(m.entries)


# -- Hafnian ---------------------------------------------------------------


def test_hf_2x2():
    a = F(5, 2)
    assert hf_oracle(SquareMatrix([[F(0), a], [a, F(0)]])) == a


def test_hf_4x4_three_matchings():
    rng = random.Random(19)
    m = rand_symmetric(rng, 4)
    e = m.entries
    assert hf_oracle(m) == e[0][1] * e[2][3] + e[0][2] * e[1][3] + e[0][3] * e[1][2]


def test_hf_all_ones_double_factorial():
    ones6 = SquareMatrix([[F(1)] * 6 for _ in range(6)])
    assert hf_oracle(ones6) == 15  # 5!!
    ones8 = SquareMatrix([[F(1)] * 8 for _ in range(8)])
    assert hf_recursive(ones8) == 105  # 7!!


def test_hf_recursive_matches_oracle():
    rng = random.Random(20)
    for _ in range(30):
        m = rand_symmetric(rng, 10)
        assert hf_recursive(m) == hf_oracle(m)


def test_hf_recursive_leaves_no_cyclic_garbage():
    # The memo table must be freed by reference counting on return, not
    # kept alive until the cyclic collector happens to run.
    m = rand_symmetric(random.Random(24), 16)
    gc.collect()
    gc.disable()
    try:
        hf_recursive(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hf_minors_leave_no_cyclic_garbage():
    m = rand_symmetric(random.Random(24), 16)
    gc.collect()
    gc.disable()
    try:
        hf_minors(m, [(), (1, 2), (5, 16), (1, 2, 3, 4)])
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def symmetric_rows(draw):
    """A symmetric matrix of even dimension up to 10 over ints, Fractions
    or Q(sqrt(2)), with zeros of the entries' type and int zeros mixed in;
    the diagonal holds junk the Hafnian never reads."""
    n = 2 * draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["int", "Fraction", "QuadExt"]))
    small = st.integers(-3, 3)

    def entry():
        p = draw(small)
        if draw(st.integers(0, 5)) == 0:
            return 0
        if kind == "int":
            return p
        if kind == "Fraction":
            return F(p, draw(st.integers(1, 4)))
        return QuadExt(F(p, draw(st.integers(1, 4))), draw(small), F(2))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


@settings(deadline=None, max_examples=40)
@given(symmetric_rows())
def test_hf_minors_read_from_one_memo_are_the_minors_hafnians(rows):
    # Every (k, l) minor, Hf itself and a few 4-index minors, from one memo,
    # against hf_recursive on the minor as its own matrix: value and type.
    m = SquareMatrix(rows)
    n = m.n
    removed = [(), *((k + 1, l + 1) for k in range(n) for l in range(k + 1, n))]
    removed += [tuple(range(1, 5)), tuple(range(n - 3, n + 1))] if n >= 4 else []
    for indices, value in zip(removed, hf_minors(m, removed)):
        expected = hf_recursive(minor(m, indices))
        assert value == expected and type(value) is type(expected), indices


def test_hf_minors_guard_each_minor(monkeypatch):
    m = rand_symmetric(random.Random(5), 6)
    monkeypatch.setattr(kernels, "HF_RECURSIVE_MAX", 4)
    # the 4-point minors are within the guard, though m is not
    assert hf_minors(m, [(1, 6), (2, 3)]) == [
        hf_recursive(minor(m, (1, 6))), hf_recursive(minor(m, (2, 3)))
    ]
    with pytest.raises(SizeError, match="hf_recursive guard is 2n <= 4, got 6"):
        hf_minors(m, [(1, 6), ()])
    with pytest.raises(DomainError, match="minor dimension 5 is odd"):
        hf_minors(m, [(2,)])
    with pytest.raises(DomainError, match="index out of range"):
        hf_minors(m, [(1, 7)])
    with pytest.raises(DomainError, match="not symmetric"):
        hf_minors(rand_skew(random.Random(5), 6), [(1, 2)])


@pytest.mark.parametrize("removed, message", [
    (5, "need an iterable of index sets"),
    ([5], "need an iterable of int indices"),
    ([(1.5, 2)], "need an iterable of int indices"),
    ([("a", "b")], "need an iterable of int indices"),
    ([(1, None)], "need an iterable of int indices"),
])
def test_hf_minors_refuse_what_is_not_index_sets(removed, message):
    with pytest.raises(DomainError, match=message):
        hf_minors(rand_symmetric(random.Random(5), 4), removed)


@pytest.mark.parametrize("rows, message", [
    ([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
     "dimension 3 is odd; Pf/Hf need an even dimension"),
    ([[0, 1.5], [-1.5, 0]], "need exact rational matrix entries, got float; pass Fractions"),
    ([[0, F(1), "2", 3]] + [[0] * 4] * 3, "need exact rational matrix entries, got str"),
    (5, "need a sequence of row sequences"),
    ([5, 6], "need a sequence of row sequences"),
    ([[0, 1], [-1]], "matrix is not square"),
])
def test_pf_fraction_free_refuses_malformed_rows(rows, message):
    with pytest.raises(DomainError, match=message):
        pf_fraction_free(rows)


def test_pf_fraction_free_reads_nothing_below_the_diagonal():
    assert pf_fraction_free([[None, F(1, 2)], [0.5, "x"]]) == F(1, 2)


def test_hf_ignores_diagonal():
    rng = random.Random(21)
    m = rand_symmetric(rng, 6)
    rows = [list(r) for r in m.entries]
    for i in range(6):
        rows[i][i] = F(999, 7)
    assert hf_recursive(SquareMatrix(rows)) == hf_recursive(m)


def test_hf_scaling():
    rng = random.Random(22)
    m = rand_symmetric(rng, 8)
    c = F(5, 7)
    scaled = SquareMatrix([[c * v for v in row] for row in m.entries])
    assert hf_recursive(scaled) == c**4 * hf_recursive(m)


def test_hf_permutation_conjugation_invariant():
    rng = random.Random(23)
    m = rand_symmetric(rng, 6)
    perm = list(range(6))
    rng.shuffle(perm)
    conj = SquareMatrix(
        [[m.entries[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
    )
    assert hf_recursive(conj) == hf_recursive(m)


def test_hf_guards():
    with pytest.raises(SizeError):
        hf_oracle(SquareMatrix([[F(1)] * 14 for _ in range(14)]))
    with pytest.raises(SizeError):
        hf_recursive(SquareMatrix([[F(1)] * 24 for _ in range(24)]))
    with pytest.raises(DomainError):
        hf_oracle(SquareMatrix([[F(1)] * 3 for _ in range(3)]))
    with pytest.raises(DomainError):
        hf_oracle(SquareMatrix([[F(1), F(2)], [F(3), F(4)]]))


# -- multilinearity and equivariance ---------------------------------------


def test_det_perm_row_scaling_linear():
    rng = random.Random(24)
    m = rand_matrix(rng, 4)
    c = F(7, 3)
    rows = [list(r) for r in m.entries]
    rows[2] = [c * v for v in rows[2]]
    scaled = SquareMatrix(rows)
    assert det_bareiss(scaled) == c * det_bareiss(m)
    assert perm_ryser(scaled) == c * perm_ryser(m)


def test_pf_hf_row_and_column_scaling():
    rng = random.Random(25)
    c = F(3, 4)
    sk = rand_skew(rng, 6)
    rows = [list(r) for r in sk.entries]
    for j in range(6):
        rows[2][j] = c * rows[2][j]
    for i in range(6):
        if i != 2:
            rows[i][2] = c * rows[i][2]
    assert pf_elimination(SquareMatrix(rows)) == c * pf_elimination(sk)

    sy = rand_symmetric(rng, 6)
    rows = [list(r) for r in sy.entries]
    for j in range(6):
        rows[2][j] = c * rows[2][j]
    for i in range(6):
        if i != 2:
            rows[i][2] = c * rows[i][2]
    assert hf_recursive(SquareMatrix(rows)) == c * hf_recursive(sy)


def test_det_perm_two_sided_permutation():
    rng = random.Random(26)
    m = rand_matrix(rng, 5)
    p = list(range(5))
    q = list(range(5))
    rng.shuffle(p)
    rng.shuffle(q)
    pmq = SquareMatrix([[m.entries[p[i]][q[j]] for j in range(5)] for i in range(5)])
    assert det_bareiss(pmq) == perm_matrix_sign(p) * perm_matrix_sign(q) * det_bareiss(m)
    assert perm_ryser(pmq) == perm_ryser(m)


# -- dispatch --------------------------------------------------------------


def test_evaluate_dispatch():
    m = SquareMatrix([[F(0), F(1)], [F(-1), F(0)]])
    assert evaluate(m, "pf") == 1
    assert evaluate(m, "pf", "oracle") == 1
    # 14 x 14 is past pf_oracle's guard, so only the oracle route refuses it
    rows = [[F(0)] * 14 for _ in range(14)]
    for k in range(0, 14, 2):
        rows[k][k + 1], rows[k + 1][k] = F(1), F(-1)
    big = SquareMatrix(rows)
    assert evaluate(big, "pf", "fast") == 1
    with pytest.raises(SizeError):
        evaluate(big, "pf", "oracle")
    with pytest.raises(DomainError):
        evaluate(m, "trace")
    for algorithm in ("magic", "auto"):
        with pytest.raises(DomainError):
            evaluate(m, "pf", algorithm)


KERNELS = [det_oracle, det_bareiss, perm_oracle, perm_ryser, pf_oracle,
           pf_elimination, hf_oracle, hf_recursive]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("m", [[[1, 2], [3, 4]], None])
def test_kernels_refuse_what_is_not_a_square_matrix(kernel, m):
    with pytest.raises(DomainError, match=f"got {type(m).__name__}"):
        kernel(m)


def test_evaluate_refuses_an_unhashable_functional():
    with pytest.raises(DomainError, match="unknown functional"):
        evaluate(eye(2), ["det"])


def test_evaluate_oracle_only_on_request():
    big = eye(10)
    assert evaluate(big, "det", "fast") == 1
    with pytest.raises(SizeError):
        evaluate(big, "det", "oracle")


# -- the helper process ----------------------------------------------------
#
# det_bareiss from n = _DET_HALVES_MIN and pf_fraction_free from 2n =
# _PF_HALVES_MIN share their row updates with the process's one helper when
# the rows are ints with a nonzero first pivot and two CPUs are free.  These
# tests sit one step either side of each threshold; the `forks` fixture
# counts the eliminations shared with the helper (jobs), which is 0 on a
# machine with one CPU.

PF_MIN, DET_MIN = fraction_free._PF_HALVES_MIN, fraction_free._DET_HALVES_MIN
TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


@pytest.fixture
def forks(monkeypatch):
    """Counts the jobs the helper is sent, from no helper at the start of
    the test; none is left at its end.  A SIGALRM guard turns a hang, such
    as a deadlock in the order of the helper's messages, into a failure."""
    count = [0]
    share = fraction_free._HELPER.share

    def counting_share(a, unit):
        pipe = share(a, unit)
        count[0] += pipe is not None
        return pipe

    def hung(signum, frame):
        raise TimeoutError("a helper test ran for 60 s: a message-order deadlock?")

    fraction_free._HELPER.stop()
    monkeypatch.setattr(fraction_free._HELPER, "share", counting_share)
    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield count
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)
    fraction_free._HELPER.stop()


def helpers(calls):
    """The jobs that ``calls`` at or above a threshold send the helper."""
    return calls if TWO_CPUS else 0


def entries(rng, n, scalar, skew=False):
    """n x n int or Fraction entries, skew-symmetric with ``skew``."""
    def draw():
        v = rng.randint(-99, 99)
        return F(v, rng.randint(1, 6)) if scalar is F else v

    rows = [[draw() for _ in range(n)] for _ in range(n)]
    if skew:
        for i in range(n):
            rows[i][i] = scalar(0)
            for j in range(i):
                rows[i][j] = -rows[j][i]
    return rows


def direct_sum(rows, block):
    zero = 0 * rows[0][0]
    n, m = len(rows), len(block)
    return [row + [zero] * m for row in rows] + [[zero] * n + list(b) for b in block]


def swapped(rows, i, j, both=True):
    """rows with rows i and j swapped, and columns i and j too if ``both``."""
    out = [list(row) for row in rows]
    out[i], out[j] = out[j], out[i]
    if both:
        for row in out:
            row[i], row[j] = row[j], row[i]
    return out


def pf(rows):
    return pf_elimination(SquareMatrix(rows))


def det(rows):
    return det_bareiss(SquareMatrix(rows))


@pytest.mark.parametrize("scalar", [int, F])
def test_helper_thresholds_keep_values_and_types(forks, scalar):
    rng = random.Random(61)
    a = entries(rng, PF_MIN - 2, scalar, skew=True)
    below = pf(a)
    assert forks[0] == 0
    above = pf(direct_sum(a, [[scalar(0), scalar(1)], [scalar(-1), scalar(0)]]))
    assert forks[0] == helpers(1)
    assert above == below and type(above) is type(below) is scalar
    assert det(a) == below * below  # a zero first pivot: no job
    b = entries(rng, DET_MIN - 1, scalar)
    calls = forks[0]
    below = det(b)
    assert forks[0] == calls
    above = det(direct_sum(b, [[scalar(1)]]))
    assert forks[0] == helpers(2)
    assert above == below != 0 and type(above) is type(below) is scalar


@pytest.mark.parametrize("scalar", [int, F])
def test_helper_zero_pivots_and_zero_rows(forks, scalar):
    rng = random.Random(62)
    zero = scalar(0)
    # Pf: a zero first pivot, a zero second pivot inside block 0 (Pf of the
    # leading 4 x 4 block is 0), and a zero row with and without a swap
    # before it.
    a = entries(rng, PF_MIN, scalar, skew=True)
    a[0][2], a[2][0] = zero, zero
    assert pf(swapped(a, 1, 2)) == -pf(a) != 0
    a = entries(rng, PF_MIN, scalar, skew=True)
    a[0][1], a[1][0] = scalar(1), scalar(-1)
    a[2][3] = a[0][2] * a[1][3] - a[0][3] * a[1][2]
    a[3][2] = -a[2][3]
    assert pf(a) == -pf(swapped(a, 3, 4)) != 0
    for index in (4, 5):
        a = entries(rng, PF_MIN, scalar, skew=True)
        for j in range(PF_MIN):
            a[index][j], a[j][index] = zero, zero
        value = pf(a)
        assert value == 0 and type(value) is scalar
    # det: a zero first pivot, a zero second pivot inside block 0 (the
    # leading 2 x 2 minor is 0), a zero column and a repeated row.
    b = entries(rng, DET_MIN, scalar)
    b[0][0] = zero
    assert det(b) == -det(swapped(b, 0, 1, both=False)) != 0
    b = entries(rng, DET_MIN, scalar)
    b[0][0] = scalar(1)
    b[1][1] = b[1][0] * b[0][1]
    assert det(b) == -det(swapped(b, 1, 2, both=False)) != 0
    b = entries(rng, DET_MIN, scalar)
    for row in b:
        row[5] = zero
    c = entries(rng, DET_MIN, scalar)
    c[DET_MIN - 1] = list(c[3])
    for value in (det(b), det(c)):
        assert value == 0 and type(value) is scalar
    assert forks[0] == helpers(10)  # a zero first pivot sends no job


@pytest.mark.parametrize("scalar", [int, F])
@pytest.mark.parametrize("n", [3, 18, 22])
def test_det_zero_at_the_last_pivot_only(forks, n, scalar):
    # A = L U with L unit lower triangular and U upper triangular whose
    # last diagonal entry is 0: the leading minors up to order n - 1 are
    # nonzero, so no step before the last one swaps, and det(A) = 0.
    rng = random.Random(66 + n)
    lower = [[int(i == j) if j >= i else rng.randint(-9, 9) for j in range(n)]
             for i in range(n)]
    upper = [[0 if j < i else rng.choice([-3, -2, -1, 1, 2, 3]) if j == i
              else rng.randint(-9, 9) for j in range(n)] for i in range(n)]
    upper[n - 1][n - 1] = 0
    a = [[scalar(sum(lower[i][t] * upper[t][j] for t in range(n))) for j in range(n)]
         for i in range(n)]
    value = det(a)
    assert value == 0 and type(value) is scalar
    assert det([row[:-1] for row in a[:-1]]) == math.prod(
        upper[i][i] for i in range(n - 1))
    assert forks[0] == helpers((n >= DET_MIN) + (n - 1 >= DET_MIN))


def test_helper_sends_rows_larger_than_a_pipe_buffer(forks):
    # One entry of 538,000 bits in the last column of A: from block 0 on,
    # every row carries a multiple of it, so the job and each half block
    # the sides swap are larger than the 64 KiB a pipe holds, and a
    # blocking write waits for the other side to read.
    huge = 3 ** 340000
    assert len(marshal.dumps(huge)) > 65536
    rng = random.Random(63)
    a = entries(rng, PF_MIN - 2, int, skew=True)
    a[0][-1], a[-1][0] = huge, -huge
    assert pf(direct_sum(a, [[0, 1], [-1, 0]])) == pf(a)
    b = entries(rng, DET_MIN - 1, int)
    b[0][-1] = huge
    assert det(direct_sum(b, [[1]])) == det(b)
    assert forks[0] == helpers(2)


def planted(rng, small, skew=False):
    """(rows, factor): the int matrix ``small`` with row i and column j
    (index i when ``skew``) scaled by STRIP_HALF times 2^a on the caller's
    rows and 3^b on the helper's (by the engine's own fraction_free._side), so
    that the two sides' gcds differ and only their gcd divides the block;
    factor is what the scaling multiplies det (or Pf) by."""
    s = [STRIP_HALF * (2 ** rng.randint(3, 9) if fraction_free._side(i) == 0
                       else 3 ** rng.randint(2, 6)) for i in range(len(small))]
    rows = [[s[i] * s[j] * v for j, v in enumerate(row)] for i, row in enumerate(small)]
    return rows, math.prod(s) if skew else math.prod(s) ** 2


def test_helper_strips_with_the_common_gcd(forks):
    # Stripping starts at step 0, and the sides' own gcds differ, so a side
    # that divided by its own gcd would leave the entries on two scales.
    rng = random.Random(64)
    a = entries(rng, PF_MIN, int, skew=True)
    rows, factor = planted(rng, a, skew=True)
    assert pf(rows) == factor * pf(a) != 0
    b = entries(rng, DET_MIN, int)
    rows, factor = planted(rng, b)
    assert det(rows) == factor * det(b) != 0
    assert forks[0] == helpers(4)


def test_helper_zero_pivot_and_zero_block_after_stripping(forks):
    rng = random.Random(65)
    # Pf: the leading 4 x 4 Pfaffian, block 0's second pivot, is 0, so block
    # 0 swaps index 3 with a later one, before any strip (the two-pair
    # property plants a zero second pivot after one).
    a = entries(rng, PF_MIN, int, skew=True)
    a[0][1], a[1][0] = 1, -1
    a[2][3] = a[0][2] * a[1][3] - a[0][3] * a[1][2]
    a[3][2] = -a[2][3]
    rows, factor = planted(rng, a, skew=True)
    value = pf(rows)
    assert value == factor * pf(a) == -factor * pf(swapped(a, 3, 4)) != 0
    # det: the leading 2 x 2 minor, block 0's second pivot, is 0, so block
    # 0 swaps row 1 with a later one, before any strip.
    b = entries(rng, DET_MIN, int)
    b[0][0] = 1
    b[1][1] = b[1][0] * b[0][1]
    rows, factor = planted(rng, b)
    value = det(rows)
    assert value == factor * det(b) == -factor * det(swapped(b, 1, 2, both=False)) != 0
    # Rank 1 (det) and rank 2 (Pf): the block after block 0 is all zero, so
    # the gcd of the trailing block is 0 on both sides.
    u = [STRIP_HALF * rng.randint(1, 99) for _ in range(PF_MIN)]
    v = [STRIP_HALF * rng.randint(1, 99) for _ in range(PF_MIN)]
    skew = [[u[i] * v[j] - v[i] * u[j] for j in range(PF_MIN)] for i in range(PF_MIN)]
    rank1 = [[u[i] * v[j] for j in range(DET_MIN)] for i in range(DET_MIN)]
    for value in (pf(skew), det(rank1)):
        assert value == 0 and type(value) is int
    assert forks[0] == helpers(8)


def test_helper_sends_a_gcd_larger_than_a_pipe_buffer(forks):
    # An identity block, then H C with C a 3 x 3 block of small ints: the step
    # on C's first row strips H^2 times a gcd of 2 x 2 minors of C from the
    # two rows after it, one on each side, so both sides' gcds are larger
    # than the 64 KiB a pipe holds.  Were both sides to send before they
    # read, each would wait for the other.
    h = 3 ** 170000
    assert len(marshal.dumps(h * h)) > 65536
    c = [[2, 1, 1], [1, 3, 2], [1, 0, 5]]
    n = DET_MIN
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(3):
        for j in range(3):
            rows[n - 3 + i][n - 3 + j] = h * c[i][j]
    assert det(rows) == h**3 * det(c)
    assert forks[0] == helpers(1)


def test_threads_share_the_helper_one_loop_at_a_time(forks):
    # More threads than CPUs, switching often: the loop that holds the
    # helper shares it and the others run in one process.  Two loops on one
    # pipe would mix their messages, giving wrong values or a hang.
    rng = random.Random(68)
    small = [entries(rng, PF_MIN - 2, int, skew=True) for _ in range(3)]
    expected = [pf(a) for a in small]  # below the threshold: one process
    shared = [direct_sum(a, [[0, 1], [-1, 0]]) for a in small]
    got = [[] for _ in small]
    threads = [threading.Thread(target=lambda t=t: got[t].extend(pf(shared[t]) for _ in range(4)),
                                daemon=True) for t in range(len(small))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=50)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[value] * 4 for value in expected]
    assert (forks[0] >= 1) == TWO_CPUS


def bordered(a):
    """The 2n x 2n skew matrix B with B[r_i, c_j] = A_ij in the index order
    r_1, c_1, r_2, c_2, ..., so that Pf(B) = det(A)."""
    n = len(a)
    b = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            r, c = 2 * i, 2 * j + 1
            b[r][c], b[c][r] = a[i][j], -a[i][j]
    return b


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 20), st.sampled_from([4, 80]), st.sampled_from([int, F]),
       st.booleans(), st.integers(0, 2**32))
@example(DET_MIN, 4, int, False, 1)
@example(20, 80, F, True, 2)
def test_det_is_the_pfaffian_of_the_bordered_matrix(n, bits, scalar, zero, seed):
    # The two step functions checked against each other at sizes no oracle
    # reaches: from n = DET_MIN det_bareiss, and from 2n = PF_MIN
    # pf_fraction_free, fork a helper on two CPUs.  Entries are ints of
    # up to ``bits`` bits, or Fractions of them over 1..6; with ``zero``,
    # a_11 = 0 makes both take a swap at their first step.
    rng = random.Random(seed)

    def draw():
        v = rng.randint(-(2**bits), 2**bits)
        return v if scalar is int else F(v, rng.randint(1, 6))

    a = [[draw() for _ in range(n)] for _ in range(n)]
    if zero:
        a[0][0] = scalar(0)
    value, pfaffian = det(a), pf_fraction_free(bordered(a))
    assert value == pfaffian
    assert type(value) is type(pfaffian) is value_type(a)


# -- the two-step loop ------------------------------------------------------
#
# Both eliminations take two pivots per step: det_bareiss rows k, k+1 and
# pf_fraction_free indices k .. k+3.  These inputs have a known value and,
# in about half the draws, a zero second pivot at block b >= 1 where the
# size allows: the leading minor of order 2b + 2 (det), or the leading
# Pfaffian of order 4b + 4 (Pf), is zero and the one before it is not, so
# the step must search its one-step values and swap.  With planted content
# (ints and Fractions), block 0 has stripped before block b.  Sizes run
# past the helper thresholds, odd n and odd n/2 included.

TWO_STEP_KINDS = ("int", "fraction", "sqrt2", "sqrt-3")
RADICANDS = {"sqrt2": F(2), "sqrt-3": F(-3)}


def scalar_of(rng, kind, nonzero=False):
    """A small random int, Fraction, or QuadExt over Q(sqrt(2)) or
    Q(sqrt(-3)), nonzero if asked."""
    while True:
        if kind == "int":
            v = rng.randint(-5, 5)
        elif kind == "fraction":
            v = F(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            v = QuadExt(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2)),
                        RADICANDS[kind])
        if v != 0 or not nonzero:
            return v


def content(rng, n):
    """Per-index scalings of STRIP_HALF times a product of small primes."""
    return [STRIP_HALF * 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 4) for _ in range(n)]


def known_det(rng, kind, n, zero, plant):
    """(rows, det): A = L M U with L unit lower and U unit upper triangular,
    and M = D P for a diagonal D of nonzero entries and, with ``zero``,
    P the swap of row 2b+1 with a later one.  A's leading minors are M's,
    so the one of order 2b + 2 is zero and those below it are not.  With
    ``plant``, row i and column j are scaled as by ``content``."""
    lower = [[scalar_of(rng, kind) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[scalar_of(rng, kind) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    d = [scalar_of(rng, kind, nonzero=True) for _ in range(n)]
    perm, value = list(range(n)), math.prod(d)
    if zero is not None:
        r = 2 * zero + 1
        t = rng.randrange(r + 1, n)
        perm[r], perm[t], value = t, r, -value
    mu = [[d[i] * v for v in upper[perm[i]]] for i in range(n)]
    rows = [[sum((lower[i][m] * mu[m][j] for m in range(i + 1)), 0 * d[0])
             for j in range(n)] for i in range(n)]
    if plant:
        r, c = content(rng, n), content(rng, n)
        rows = [[r[i] * c[j] * v for j, v in enumerate(row)] for i, row in enumerate(rows)]
        value *= math.prod(r) * math.prod(c)
    return rows, value


def known_pf(rng, kind, n, zero, plant):
    """(rows, Pf): A = B S B^T with B unit lower triangular and S the skew
    matrix pairing index 2m with 2m+1 by a nonzero s_m, and, with
    ``zero``, index 4b+3 swapped with a later one in S.  A's leading
    Pfaffians are S's, so the one of order 4b + 4 is zero (index 4b+2 is
    paired outside it) and those below it are not.  With ``plant``, index
    i is scaled as by ``content``."""
    b = [[scalar_of(rng, kind) if j < i else int(i == j) for j in range(n)]
         for i in range(n)]
    pair = [scalar_of(rng, kind, nonzero=True) for _ in range(n // 2)]
    perm, value = list(range(n)), math.prod(pair)
    if zero is not None:
        r = 4 * zero + 3
        t = rng.randrange(r + 1, n)
        perm[r], perm[t], value = t, r, -value
    partner, weight = [0] * n, [0] * n  # S[i][partner[i]] = weight[i]
    for m, v in enumerate(pair):
        x, y = perm[2 * m], perm[2 * m + 1]
        partner[x], weight[x], partner[y], weight[y] = y, v, x, -v
    sbt = [[weight[i] * b[j][partner[i]] for j in range(n)] for i in range(n)]  # S B^T
    zero_entry = 0 * pair[0]
    rows = [[zero_entry] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = sum((b[i][m] * sbt[m][j] for m in range(i + 1)), zero_entry)
            rows[i][j], rows[j][i] = v, -v
    if plant:
        r = content(rng, n)
        rows = [[r[i] * r[j] * v for j, v in enumerate(row)] for i, row in enumerate(rows)]
        value *= math.prod(r)
    return rows, value


def zero_block(rng, blocks, draw_zero):
    """b for a planted zero second pivot: a block after the first when
    ``blocks`` (the blocks that can hold one) allows, else block 0."""
    if not draw_zero or blocks < 1:
        return None
    return rng.randint(1, blocks - 1) if blocks > 1 else 0


def two_step_type(kind):
    return {"int": int, "fraction": F}.get(kind, QuadExt)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(TWO_STEP_KINDS), st.integers(1, DET_MIN + 3), st.booleans(),
       st.booleans(), st.integers(0, 2**32))
@example("int", DET_MIN, True, True, 1)
@example("int", DET_MIN + 1, True, False, 2)
@example("fraction", DET_MIN - 1, True, True, 3)
@example("int", 7, True, True, 4)
@example("sqrt-3", 7, True, False, 5)
def test_det_two_step_matches_known_value(kind, n, draw_zero, plant, seed):
    # Z[sqrt(D)] pairs stay below 10 rows: they never fork or strip.
    rng = random.Random(seed)
    n = n if kind in ("int", "fraction") else min(n, 9)
    plant = plant and kind in ("int", "fraction")
    zero = zero_block(rng, (n - 1) // 2, draw_zero)
    rows, value = known_det(rng, kind, n, zero, plant)
    if n <= 7:
        assert value == det_oracle(SquareMatrix(rows))
    got = det(rows)
    assert got == value and type(got) is two_step_type(kind)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(("int", "fraction", "sqrt2")), st.integers(1, DET_MIN + 3),
       st.booleans(), st.integers(0, 2**32))
@example("int", DET_MIN, True, 1)
@example("int", DET_MIN + 1, False, 2)
@example("fraction", DET_MIN + 3, True, 3)
@example("sqrt2", DET_MIN, False, 4)
def test_det_of_the_transpose(kind, n, in_rows, seed):
    # The two-step update takes its quantities per row (rho_i, omega_i), so
    # rows and columns meet different formulas: content planted in the rows
    # of A sits in the columns of A^T.  From n = DET_MIN, int and Fraction
    # input shares the loop with the helper on two CPUs.
    rng = random.Random(seed)
    a = [[scalar_of(rng, kind) for _ in range(n)] for _ in range(n)]
    s = content(rng, n)
    a = [[v * s[i if in_rows else j] for j, v in enumerate(row)] for i, row in enumerate(a)]
    value, transposed = det(a), det([list(column) for column in zip(*a)])
    assert value == transposed
    assert type(value) is type(transposed) is two_step_type(kind)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(TWO_STEP_KINDS), st.integers(1, PF_MIN // 2 + 3), st.booleans(),
       st.booleans(), st.integers(0, 2**32))
@example("int", PF_MIN // 2, True, True, 1)
@example("int", PF_MIN // 2 + 1, True, False, 2)
@example("fraction", PF_MIN // 2 - 1, True, True, 3)
@example("int", 5, True, True, 4)
@example("sqrt2", 5, True, False, 5)
def test_pf_two_pair_matches_known_value(kind, half, draw_zero, plant, seed):
    rng = random.Random(seed)
    n = 2 * (half if kind in ("int", "fraction") else min(half, 5))
    plant = plant and kind in ("int", "fraction")
    zero = zero_block(rng, (n - 2) // 4, draw_zero)
    rows, value = known_pf(rng, kind, n, zero, plant)
    if n <= 10:
        assert value == pf_oracle(SquareMatrix(rows))
    got = pf(rows)
    assert got == value and type(got) is two_step_type(kind)
    assert got * got == det(rows)


def test_a_pivot_swap_reruns_a_shared_loop_alone(forks, monkeypatch):
    # A zero second pivot at a late block, after block 0 has stripped: both
    # sides end the shared loop there, the caller runs it again in one
    # process, and the helper, idle, serves the next elimination.
    ended = []  # per alone() call in this process: whether the loop was shared
    alone = fraction_free._Halves.alone

    def recording_alone(self):
        ended.append(self.pipe is not None)
        alone(self)

    monkeypatch.setattr(fraction_free._Halves, "alone", recording_alone)
    rng = random.Random(70)
    a = entries(rng, PF_MIN, int, skew=True)
    expected = pf(a)  # forks the helper on two CPUs
    helper = fraction_free._HELPER.pid
    n = PF_MIN + 4
    rows, value = known_pf(rng, "int", n, (n - 2) // 4 - 1, plant=True)
    got = pf(rows)
    assert got == value and type(got) is int
    assert got * got == det(rows)  # a zero first pivot: one process
    assert pf(a) == expected
    b = entries(rng, DET_MIN, int)
    expected = det(b)
    n = DET_MIN + 2
    rows, value = known_det(rng, "int", n, (n - 1) // 2 - 1, plant=True)
    got = det(rows)
    assert got == value != 0 and type(got) is int
    assert det(b) == expected
    assert fraction_free._HELPER.pid == helper
    assert ended.count(True) == helpers(2)
    assert forks[0] == helpers(6)


@pytest.mark.parametrize("n", [DET_MIN, DET_MIN + 2])
def test_a_zero_first_pivot_sends_no_job(forks, n):
    # A skew matrix's diagonal is zero, so its det swaps at step 0 and at
    # every later block: the loop runs in one process from the start.
    a = entries(random.Random(71 + n), n, int, skew=True)
    value = det(a)
    assert value == pf(a) ** 2 != 0 and type(value) is int
    assert forks[0] == 0


def imported(module):
    """The top-level names of the modules that ``module``'s source imports,
    anywhere in it; a relative import counts as "pfhaf"."""
    names = set()
    with open(module.__file__) as fh:
        for node in ast.walk(ast.parse(fh.read())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add("pfhaf" if node.level else node.module.split(".")[0])
    return names


def test_the_engine_stands_alone_and_kernels_starts_no_process():
    # The import runs one way, kernels -> fraction_free, and every process,
    # pipe and lock of the elimination lives in the engine.
    engine = imported(fraction_free)
    assert "pfhaf" not in engine and engine <= sys.stdlib_module_names
    assert not imported(kernels) & {"os", "marshal", "atexit", "threading", "gc", "signal"}
    assert kernels.eliminate is fraction_free.eliminate


# The script prints a line before any call, so the line sits unflushed in
# stdout's buffer when the helper, and a child of the script, are forked;
# either would print it twice if it flushed on exit.  At each check the
# script's only child must be its helper, one pid across calls, or no child
# with one CPU; the helper must be gone once the script has exited.
HYGIENE = """
import json, os, random, signal, sys, time
from pfhaf import fraction_free
from pfhaf.fraction_free import _PF_HALVES_MIN
from pfhaf.kernels import pf_fraction_free
from pfhaf.structured import SymmetricForm, fast_cauchy_hafnian
from pfhaf.verify import gen_points

TWO_CPUS = len(os.sched_getaffinity(0)) >= 2
print("printed before the calls")


def children():
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):  # not a process, or gone
            continue
        if ppid == me:
            found.add(int(entry))
    return found


def only_helper():
    # The helper's pid when it is this process's only child, else None.
    pid = fraction_free._HELPER.pid
    if TWO_CPUS and pid is not None and children() == {pid}:
        return pid
    return None if TWO_CPUS or children() else 0


def skew(n, seed, bits):
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.getrandbits(bits) - 2 ** (bits - 1)
    return rows


# A matrix at the threshold with a 2 x 2 block J = [[0, 1], [-1, 0]] as its
# last indices: its Pfaffian is that of the rest, which runs in one process.
small = skew(_PF_HALVES_MIN - 2, 1, 64)
value = pf_fraction_free(small)
shared = [row + [0, 0] for row in small]
shared += [[0] * len(small) + [0, 1], [0] * len(small) + [-1, 0]]


def exact():
    return pf_fraction_free(shared) == value


checks, pids = {}, []
fast_cauchy_hafnian(gen_points(1, 40, max_den=1), SymmetricForm.from_name("x+y"))
pids.append(only_helper())
rows = skew(_PF_HALVES_MIN, 2, 16)
rows[0][3] = rows[1][3] = rows[2][3] = 0  # a zero second pivot: a swap at step 0
pf_fraction_free(rows)
pids.append(only_helper())
checks["exact"] = exact()
pids.append(only_helper())
checks["one_helper"] = None not in pids and len(set(pids)) == 1

# A helper killed between calls is reaped and replaced at the next call.
if TWO_CPUS:
    os.kill(pids[0], signal.SIGKILL)
    for _ in range(1000):  # until it has exited, unreaped
        with open(f"/proc/{pids[0]}/stat") as fh:
            if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                break
        time.sleep(0.01)
checks["exact_after_kill"] = exact()
helper = only_helper()
checks["replaced"] = helper is not None and (helper != pids[0] or not TWO_CPUS)

# A forked child has its own helper, and the parent keeps using its own.
child = os.fork()
if child == 0:
    ok = fraction_free._HELPER.pipe is None and exact() and only_helper() is not None and (
        fraction_free._HELPER.pid != helper or not TWO_CPUS)
    fraction_free._HELPER.stop()
    os._exit(0 if ok and not children() else 1)
checks["child"] = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
checks["parent_after_fork"] = exact() and only_helper() == helper


class Alarm(Exception):
    pass


def ring(signum, frame):
    raise Alarm


signal.signal(signal.SIGALRM, ring)
rows = skew(64, 3, 128)  # an elimination of about half a second
signal.setitimer(signal.ITIMER_REAL, 0.05)
try:
    pf_fraction_free(rows)
    checks["raised"] = False
except Alarm:
    checks["raised"] = True
checks["after_raise"] = not children() and fraction_free._HELPER.pid is None
checks["exact_after_raise"] = exact() and only_helper() is not None
print(json.dumps(checks))
print(json.dumps(fraction_free._HELPER.pid))
"""


def test_helper_leaves_no_process_and_prints_nothing():
    # stdout is a pipe and, without PYTHONUNBUFFERED, block-buffered.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", HYGIENE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("printed before the calls") == 1
    assert json.loads(lines[-2]) == {
        "exact": True, "one_helper": True, "exact_after_kill": True, "replaced": True,
        "child": True, "parent_after_fork": True, "raised": True, "after_raise": True,
        "exact_after_raise": True,
    }
    helper = json.loads(lines[-1])
    assert (helper is not None) == TWO_CPUS
    assert not TWO_CPUS or not os.path.exists(f"/proc/{helper}")

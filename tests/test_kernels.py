import gc
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pfhaf.errors import DomainError, SizeError
from pfhaf.kernels import (
    det_bareiss,
    det_oracle,
    evaluate,
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
from pfhaf.structured import BilinearForm, PointConfig, build_cauchy


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


def test_evaluate_oracle_only_on_request():
    big = eye(10)
    assert evaluate(big, "det", "fast") == 1
    with pytest.raises(SizeError):
        evaluate(big, "det", "oracle")

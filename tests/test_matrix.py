import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pfhaf.errors import DomainError
from pfhaf.kernels import hf_recursive, pf_elimination
from pfhaf.matrix import SquareMatrix, classify, minor
from pfhaf.scalar import QuadExt
from pfhaf.structured import PointConfig, SymmetricForm, build_hafnian_mat


def mat(rows, kind=None):
    return SquareMatrix([[F(v) for v in row] for row in rows], kind=kind)


def test_classify_examples():
    assert classify([[F(0), F(5)], [F(-5), F(0)]]) == "skew"
    assert classify([[F(1), F(2)], [F(2), F(3)]]) == "symmetric"
    assert classify([[F(1), F(2)], [F(3), F(4)]]) == "general"
    assert classify([[F(0), F(0)], [F(0), F(0)]]) == "skew"


def test_kind_validated_on_construction():
    with pytest.raises(DomainError):
        mat([[1, 2], [3, 4]], kind="symmetric")
    with pytest.raises(DomainError):
        mat([[0, 1], [1, 0]], kind="skew")
    with pytest.raises(DomainError):
        mat([[1, 2], [3, 4]], kind="hermitian")


def test_kind_is_read_from_the_entries():
    skew = mat([[0, 1], [-1, 0]], kind="general")
    assert skew.kind == "skew" and skew.skew and not skew.symmetric
    zero = mat([[0, 0], [0, 0]], kind="symmetric")
    assert zero.kind == "skew" and zero.skew and zero.symmetric
    diag = mat([[1, 0], [0, 2]], kind="symmetric")
    assert diag.kind == "symmetric" and not diag.skew


@st.composite
def shaped_matrices(draw):
    """Small matrices of every symmetry shape, over Q or Q(sqrt(2))."""
    n = draw(st.integers(0, 4))
    shape = draw(
        st.sampled_from(["skew", "symmetric", "general", "zero", "diagonal"])
    )
    quad = draw(st.booleans())
    ints = st.integers(-2, 2)

    def entry():
        p = F(draw(ints))
        return QuadExt(p, F(draw(ints)), F(2)) if quad else p

    zero = 0 * entry()
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if shape == "skew":
                rows[j][i] = -rows[i][j]
            elif shape == "symmetric":
                rows[j][i] = rows[i][j]
            elif shape in ("zero", "diagonal"):
                rows[i][j] = rows[j][i] = zero
        if shape == "skew" or shape == "zero":
            rows[i][i] = zero
        elif shape == "diagonal":
            rows[i][i] = zero + draw(st.integers(1, 3))
    return rows


def _accepts(kernel, m):
    try:
        kernel(m)
    except DomainError:
        return False
    return True


@given(shaped_matrices())
def test_symmetry_flags_match_definitions(rows):
    n = len(rows)
    m = SquareMatrix(rows)
    assert m.skew == all(
        rows[i][j] == -rows[j][i] for i in range(n) for j in range(n)
    )
    assert m.symmetric == all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(n) if i != j
    )
    assert m.kind == classify(rows)
    if n % 2 == 0:
        assert _accepts(pf_elimination, m) == m.skew
        assert _accepts(hf_recursive, m) == m.symmetric


def test_not_square_rejected():
    with pytest.raises(DomainError):
        SquareMatrix([[F(1), F(2)], [F(3)]])


def test_minor_examples():
    m = mat([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    sub = minor(m, (2, 4))
    assert sub.entries == ((F(1), F(3)), (F(9), F(11)))
    assert minor(m, ()) == m


def test_minor_bad_indices():
    m = mat([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        minor(m, (0,))
    with pytest.raises(DomainError):
        minor(m, (3,))
    with pytest.raises(DomainError):
        minor(m, (1, 1))


def test_minor_preserves_kind():
    m = mat(
        [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]],
        kind="skew",
    )
    assert minor(m, (1, 3)).kind == "skew"


def test_minor_of_structured_matrix_matches_rebuild():
    # removing rows/cols {k, 2n} of the pair-sum reciprocal matrix equals
    # rebuilding it from the point list with x_k and x_{2n} deleted
    xs = [F(1), F(2), F(5, 2), F(7)]
    g = SymmetricForm.from_name("x+y")
    b = build_hafnian_mat(PointConfig(xs), g)
    k = 2
    rebuilt = build_hafnian_mat(PointConfig([xs[0], xs[2]]), g)
    assert minor(b, (k, 4)) == rebuilt


def test_minor_composition():
    rng = random.Random(0)
    m = mat([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
    # removing {2,5} then (re-indexed) {3} equals removing {2,4,5}:
    # index 4 of the original is the 3rd survivor of {1,3,4,6}
    assert minor(minor(m, (2, 5)), (3,)) == minor(m, (2, 4, 5))


def test_permutation_conjugation_preserves_kind():
    rng = random.Random(1)
    n = 5
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][j] = v
            rows[j][i] = -v
    m = SquareMatrix(rows, kind="skew")
    perm = list(range(n))
    rng.shuffle(perm)
    conj = SquareMatrix(
        [[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )
    assert conj.kind == "skew"

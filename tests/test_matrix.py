import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pfhaf.errors import DomainError
from pfhaf.kernels import hf_oracle, hf_recursive, pf_elimination, pf_oracle
from pfhaf.matrix import SquareMatrix, classify, minor
from pfhaf.scalar import QuadExt, _ring
from pfhaf.structured import PointConfig, SymmetricForm, build_hafnian_mat


def mat(rows):
    return SquareMatrix([[F(v) for v in row] for row in rows])


def test_classify_examples():
    assert classify([[F(0), F(5)], [F(-5), F(0)]]) == "skew"
    assert classify([[F(1), F(2)], [F(2), F(3)]]) == "symmetric"
    assert classify([[F(1), F(2)], [F(3), F(4)]]) == "general"
    assert classify([[F(0), F(0)], [F(0), F(0)]]) == "skew"


def test_kind_is_read_from_the_entries():
    skew = mat([[0, 1], [-1, 0]])
    assert skew.kind == "skew" and skew.skew and not skew.symmetric
    zero = mat([[0, 0], [0, 0]])
    assert zero.kind == "skew" and zero.skew and zero.symmetric
    diag = mat([[1, 0], [0, 2]])
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
    if n % 2 == 0:  # the four Pf/Hf kernels are the only symmetry refusals
        for kernel in (pf_elimination, pf_oracle):
            assert _accepts(kernel, m) == m.skew
        for kernel in (hf_recursive, hf_oracle):
            assert _accepts(kernel, m) == m.symmetric


def test_not_square_rejected():
    with pytest.raises(DomainError):
        SquareMatrix([[F(1), F(2)], [F(3)]])


def test_square_matrix_is_immutable_hashable_and_names_its_kind():
    m = mat([[0, 1], [-1, 0]])
    with pytest.raises(AttributeError, match="SquareMatrix is immutable"):
        m.n = 3
    assert len({m, mat([[0, 1], [-1, 0]])}) == 1
    assert repr(m) == "SquareMatrix(n=2, kind='skew')"


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
    m = mat([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    assert m.skew
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
    m = SquareMatrix(rows)
    assert m.skew
    perm = list(range(n))
    rng.shuffle(perm)
    conj = SquareMatrix(
        [[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )
    assert conj.kind == "skew"


@pytest.mark.parametrize(
    "rows, name",
    [
        ([[1, 2.5], [None, F(1)]], "float"),
        ([[F(1), 1], ["3", 2.5]], "str"),
        ([[QuadExt(1, 1, 2), 1], [1, None]], "NoneType"),
    ],
)
def test_the_first_refused_entry_in_row_major_order_is_named(rows, name):
    with pytest.raises(DomainError) as exc:
        SquareMatrix(rows)
    message = f"need exact rational matrix entries, got {name}; pass Fractions"
    assert str(exc.value) == message


def test_every_exact_entry_type_is_accepted():
    pair = _ring(F(2))(1, 2)
    s2 = QuadExt(1, 1, 2)
    m = SquareMatrix([[True, F(1, 2), 3], [F(1, 2), s2, pair], [3, pair, 0]])
    assert m.symmetric and not m.skew
    assert m.entries[0][0] is True and m.entries[1][2] is pair

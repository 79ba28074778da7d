import copy
import math
import operator
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pfhaf import scalar
from pfhaf.errors import DomainError
from pfhaf.kernels import pf_elimination, pf_oracle
from pfhaf.matrix import SquareMatrix
from pfhaf.scalar import (
    QuadExt,
    parse_rat,
    rat_is_square,
    rat_sqrt,
    render_rat,
)
from pfhaf.structured import BilinearForm, PointConfig, SymmetricForm
from pfhaf.verify import IdentityId, Rank2Spec, check_identity

rats = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_rat_arith_examples():
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(2, 4) == F(1, 2)  # lowest-terms invariant of the representation
    assert F(1, 24) + F(1, 25) == F(49, 600)


def test_parse_render_examples():
    assert parse_rat("-3/7") == F(-3, 7)
    assert parse_rat("−3/7") == F(-3, 7)  # unicode minus
    assert parse_rat("42") == F(42)
    assert render_rat(F(42)) == "42"
    assert render_rat(F(-3, 7)) == "-3/7"


def test_round_trip_past_the_int_str_digit_limit():
    # 5000-digit numerator: past CPython's default 4300-digit limit
    limit = sys.get_int_max_str_digits()
    value = F(10**5000, 3)
    text = render_rat(value)
    assert text == "1" + "0" * 5000 + "/3"
    assert parse_rat(text) == value
    assert sys.get_int_max_str_digits() == limit


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_rat("one half")
    with pytest.raises(DomainError):
        parse_rat("1/0")


@pytest.mark.parametrize("text", ["1e9", "1E-9", "-2e3", "1e1000000", "1e-1000000", "1.5e2"])
def test_parse_refuses_an_exponent(text):
    message = rf"^not a rational: '{text}' \(write it as p/q or p, with no exponent\)$"
    with pytest.raises(DomainError, match=message):
        parse_rat(text)


def test_parse_reads_decimals():
    assert parse_rat("1.5") == F(3, 2)
    assert parse_rat("-0.25") == F(-1, 4)


@given(rats)
def test_parse_render_round_trip(r):
    assert parse_rat(render_rat(r)) == r


@given(rats, rats, rats)
def test_distributivity_is_exact(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rats, rats)
def test_add_sub_cancel_exactly(a, b):
    assert (a + b) - b == a


def test_rat_is_square():
    assert rat_is_square(F(4, 9))
    assert rat_sqrt(F(4, 9)) == F(2, 3)
    assert not rat_is_square(F(2))
    assert not rat_is_square(F(-4))
    with pytest.raises(DomainError):
        rat_sqrt(F(2))


# -- quadratic extension ---------------------------------------------------


def q2(p, q):
    return QuadExt(F(p), F(q), F(2))


def test_quad_examples():
    # (1 + sqrt2)(1 - sqrt2) = -1
    assert q2(1, 1) * q2(1, -1) == F(-1)
    # sqrt2 squared is the radicand
    assert q2(0, 1) * q2(0, 1) == F(2)
    # 1/(1 + sqrt2) = -1 + sqrt2, verified by the product being 1
    inv = 1 / q2(1, 1)
    assert inv == q2(-1, 1)
    assert inv * q2(1, 1) == F(1)


def test_quad_arith_named_ops():
    a, b = q2(1, 2), q2(3, -1)
    assert a + b == q2(4, 1)
    assert a - b == q2(-2, 3)
    assert a * b == q2(-1, 5)  # 3 - 4 + (6 - 1) sqrt2
    assert (a / b) * b == a


def test_quad_mixed_radicands_rejected():
    with pytest.raises(DomainError):
        q2(1, 1) + QuadExt(F(1), F(1), F(3))


def test_quad_division_by_zero():
    with pytest.raises(DomainError):
        q2(1, 1) / q2(0, 0)


def test_quad_square_radicand_rejected():
    with pytest.raises(DomainError):
        QuadExt(F(1), F(1), F(4))


def test_quad_power_squares_only_between_bits(monkeypatch):
    a = q2(F(1, 2), F(-3))
    products = [QuadExt(F(1), F(0), F(2))]
    for _ in range(5):
        products.append(products[-1] * a)
    count = [0]
    mul = scalar._RootPair.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(scalar._RootPair, "__mul__", counting)
    assert [a**e for e in range(6)] == products
    # products into the result plus squarings between bits, for e = 0..5;
    # e = 1 needs one product and e = 5 = 0b101 two products, two squarings
    assert count[0] == 0 + 1 + 2 + 3 + 3 + 4


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 12))
def test_quad_and_pair_powers_agree_and_keep_their_types(p, q, e):
    a = QuadExt(F(p, 3), F(q), F(2))
    expected = QuadExt(F(1), F(0), F(2))
    for _ in range(e):
        expected = expected * a
    assert type(a**e) is QuadExt and a**e == expected
    pair = a.num
    assert type(pair**0) is int and pair**0 == 1
    if e:
        assert pair**e == (pair**(e - 1)) * pair


def test_quad_negative_radicand_is_formal():
    i = QuadExt(F(0), F(1), F(-1))
    assert i * i == F(-1)
    assert (i ** 4) == F(1)


def test_quad_embeds_rat():
    # q = 0 elements are closed under all ops and agree with Rat arithmetic
    a, b = q2(F(2, 3), 0), q2(F(-1, 4), 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got = op(a, b)
        assert got.q == 0
        assert got.p == op(F(2, 3), F(-1, 4))


def test_quad_norm_and_conjugate():
    a = q2(F(1, 2), F(3, 4))
    assert a.norm() == F(1, 4) - F(9, 16) * 2
    assert a * q2(a.p, -a.q) == a.norm()


# An independent model of Q(sqrt(d)): p + q*sqrt(d) acts on the basis
# (1, sqrt(d)) as the rational matrix [[p, d q], [q, p]], and the field
# operations are the matrix ones.  d = 3/5 and -7/4 are not integers, so
# sqrt(d) = sqrt(D)/m with m > 1.
RADICANDS = (F(2), F(-3), F(3, 5), F(-7, 4))
small_rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def as_matrix(v, d):
    p, q = (v.p, v.q) if isinstance(v, QuadExt) else (F(v), F(0))
    return ((p, d * q), (q, p))


def mat_add(a, b, sign=1):
    return tuple(tuple(x + sign * y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def mat_inv(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] / det, -a[0][1] / det), (-a[1][0] / det, a[0][0] / det))


@given(
    st.sampled_from(RADICANDS),
    small_rats, small_rats, small_rats, small_rats, small_rats,
    st.integers(0, 5),
)
def test_quad_agrees_with_its_matrix_model(d, p1, q1, p2, q2_, r, e):
    x, y = QuadExt(p1, q1, d), QuadExt(p2, q2_, d)
    mx, my, mr = as_matrix(x, d), as_matrix(y, d), as_matrix(r, d)
    power = ((F(1), F(0)), (F(0), F(1)))
    for _ in range(e):
        power = mat_mul(power, mx)
    cases = [
        (x + y, mat_add(mx, my)),
        (x - y, mat_add(mx, my, -1)),
        (x * y, mat_mul(mx, my)),
        (r + x, mat_add(mr, mx)),
        (r - x, mat_add(mr, mx, -1)),
        (x * r, mat_mul(mx, mr)),
        (-x, mat_mul(as_matrix(-1, d), mx)),
        (x**e, power),
    ]
    if y:
        cases.append((x / y, mat_mul(mx, mat_inv(my))))
    if x:
        cases.append((r / x, mat_mul(mr, mat_inv(mx))))
    for got, want in cases:
        assert type(got) is QuadExt and got.d == d
        assert as_matrix(got, d) == want
        # lowest terms: the pair and its denominator share no factor
        assert got.den > 0 and math.gcd(got.num.p, got.num.q, got.den) == 1


@given(small_rats, st.sampled_from(RADICANDS), st.sampled_from(RADICANDS))
def test_quad_without_root_is_its_rational(r, d1, d2):
    a, b = QuadExt(r, 0, d1), QuadExt(r, 0, d2)
    assert a == r and r == a and hash(a) == hash(r)
    assert a == b and hash(a) == hash(b)
    assert QuadExt(r, 1, d1) != QuadExt(r, 1, d2) or d1 == d2


def test_quad_with_no_root_is_not_a_new_point():
    with pytest.raises(DomainError, match="x points must be distinct"):
        PointConfig([QuadExt(1, 0, 2), F(1)])


def test_radicands_compare_by_value_across_rebuilt_rings():
    a = QuadExt(F(1), F(1), F(2))
    scalar._ring.cache_clear()  # the next Q(sqrt(2)) element gets a new ring class
    b = QuadExt(F(1, 2), F(-1), F(2))
    assert type(a.num) is not type(b.num)
    assert a + b == QuadExt(F(3, 2), F(0), F(2)) == F(3, 2)
    assert a == QuadExt(F(1), F(1), F(2)) and hash(a) == hash(QuadExt(F(1), F(1), F(2)))
    upper = [[a, b, F(1)], [a * b, b], [a - b]]
    rows = [[F(0)] * 4 for _ in range(4)]
    for i, row in enumerate(upper):
        for j, v in enumerate(row, i + 1):
            rows[i][j], rows[j][i] = v, -v
    m = SquareMatrix(rows)
    value = pf_elimination(m)
    assert type(value) is QuadExt and value == pf_oracle(m)


def test_quad_repr_immutability_and_copies():
    v = QuadExt(F(1), F(2), F(2))
    assert repr(v) == "QuadExt(p=Fraction(1, 1), q=Fraction(2, 1), d=Fraction(2, 1))"
    for name in ("p", "num", "den"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    assert v == QuadExt(F(1), F(2), F(2))
    w = QuadExt(F(1, 3), F(-2, 5), F(-7, 4))
    for copied in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(copied) is QuadExt and copied == w and str(copied) == str(w)


# -- the exact domain at every constructor ---------------------------------

# where -> (make(v), the type an int v comes back as, whether a QuadExt v
# is taken).  make returns the stored scalar; for z, which is not stored,
# it returns whether the check passed, and the type is None.
BOUNDARY = {
    "SquareMatrix": (lambda v: SquareMatrix([[v, 1], [1, 0]]).entries[0][0], int, True),
    "PointConfig xs": (lambda v: PointConfig([v, 2]).xs[0], F, True),
    "PointConfig ys": (lambda v: PointConfig([1], [v]).ys[0], F, True),
    "BilinearForm": (lambda v: BilinearForm(v, 1, 1, 0).a, F, False),
    "SymmetricForm": (lambda v: SymmetricForm(v, 1, 0).a, F, False),
    "Rank2Spec": (lambda v: Rank2Spec((v,), (1,), (1,), (1,)).u[0], F, True),
    "QuadExt": (lambda v: QuadExt(F(1), F(1), v).d, F, False),
    "check_identity z": (
        lambda v: check_identity(IdentityId.LEMMA1, PointConfig([1, 2]), z=v).passed,
        None,
        True,
    ),
}


@pytest.mark.parametrize("where", BOUNDARY)
def test_one_exact_domain_at_every_constructor(where):
    make, int_type, takes_quadext = BOUNDARY[where]
    for bad in (0.5, "1/2", None):
        # check_identity reads z=None as no z, which LEMMA1 refuses
        refused = f"got {type(bad).__name__}; pass Fractions|requires a sample point z"
        with pytest.raises(DomainError, match=refused):
            make(bad)
    kept = make(3)
    if int_type is not None:
        assert type(kept) is int_type and kept == 3
    else:
        assert kept is True
    root2 = QuadExt(F(0), F(1), F(2))
    if takes_quadext:
        assert make(root2) in (root2, True)
    else:
        with pytest.raises(DomainError, match="got QuadExt; pass Fractions"):
            make(root2)


# call -> (make, what its refusal says: the argument and the type it got)
NOT_A_SEQUENCE = {
    "PointConfig(5)": (lambda: PointConfig(5), "xs must be a sequence.*'int'"),
    "PointConfig(None)": (lambda: PointConfig(None), "xs must be .*'NoneType'"),
    "PointConfig([1], 2.5)": (lambda: PointConfig([1], 2.5), "ys must be .*'float'"),
    "SquareMatrix(5)": (lambda: SquareMatrix(5), "row sequences: 'int'"),
    "SquareMatrix([1, 2])": (lambda: SquareMatrix([1, 2]), "row sequences: 'int'"),
    "Rank2Spec(None, ...)": (
        lambda: Rank2Spec(None, (1,), (1,), (1,)),
        "rank-2 u must be a sequence: 'NoneType'",
    ),
}


@pytest.mark.parametrize("call", NOT_A_SEQUENCE)
def test_a_container_that_is_not_a_sequence_is_refused(call):
    make, message = NOT_A_SEQUENCE[call]
    with pytest.raises(DomainError, match=message):
        make()

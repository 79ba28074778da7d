import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pfhaf.errors import DomainError
from pfhaf.scalar import (
    QuadExt,
    parse_rat,
    rat_is_square,
    rat_sqrt,
    render_rat,
)

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


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_rat("one half")
    with pytest.raises(DomainError):
        parse_rat("1/0")


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


def test_quad_negative_radicand_is_formal():
    i = QuadExt(F(0), F(1), F(-1))
    assert i * i == F(-1)
    assert (i ** 4) == F(1)


def test_quad_embeds_rat():
    # q = 0 elements are closed under all ops and agree with Rat arithmetic
    a, b = q2(F(2, 3), 0), q2(F(-1, 4), 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        got = op(a, b)
        assert got.is_rational
        assert got.to_rat() == op(F(2, 3), F(-1, 4))


def test_quad_norm_and_conjugate():
    a = q2(F(1, 2), F(3, 4))
    assert a.norm() == F(1, 4) - F(9, 16) * 2
    assert a * a.conjugate() == a.norm()


def test_quad_json_round_trip():
    a = QuadExt(F(1, 2), F(1), F(2))
    assert a.to_json() == {"p": "1/2", "q": "1", "d": "2"}
    assert QuadExt.from_json(a.to_json()) == a

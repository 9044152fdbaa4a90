import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarcount.laurent import LaurentPoly, RationalFunction
from polarcount.ypoly import Y, YPoly

exponents = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
polys2 = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda d: LaurentPoly(2, d)
)
points2 = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
)


def value(p, z):
    """Value of a rational-coefficient Laurent polynomial at z (no zero coordinate)."""
    total = Fraction(0)
    for expo, c in p.terms.items():
        term = Fraction(c)
        for zi, e in zip(z, expo):
            term *= Fraction(zi) ** e
        total += term
    return total


def test_zero_coefficients_dropped():
    p = LaurentPoly(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): YPoly((2,))}
    assert not LaurentPoly.zero(2)


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


@pytest.mark.parametrize("e", [1.5, Fraction(3, 2), Fraction(-1, 3)])
def test_non_integer_exponent_rejected(e):
    message = re.escape(f"exponent ({e!r},) is not integral")
    with pytest.raises(ValueError, match=message):
        LaurentPoly(1, {(e,): 1})


def test_integral_exponents_of_other_types_accepted():
    p = LaurentPoly(2, {(True, Fraction(-2)): 3, (2.0, 0): 1})
    assert p.terms == {(1, -2): 3, (2, 0): 1}
    assert all(type(e) is int for expo in p.terms for e in expo)


def test_constructors():
    z1 = LaurentPoly(2, {(1, 0): 1})
    assert z1.terms == {(1, 0): YPoly((1,))}
    c = LaurentPoly.const(2, Fraction(1, 2))
    assert c.coefficient((0, 0)) == YPoly((Fraction(1, 2),))
    m = LaurentPoly(2, {(-1, 2): Y})
    assert m.coefficient((-1, 2)) == Y


def test_arithmetic():
    z1, z2 = LaurentPoly(2, {(1, 0): 1}), LaurentPoly(2, {(0, 1): 1})
    p = (1 + z1) * (1 + z2)
    assert p.coefficient((1, 1)) == YPoly((1,))
    assert p.coefficient((0, 0)) == YPoly((1,))
    assert p + -1 * p == LaurentPoly.zero(2)
    q = (1 + z1) ** 2
    assert q.coefficient((1, 0)) == YPoly((2,))
    assert (z1 * z2).coefficient((1, 1)) == YPoly((1,))


def test_equal_polys_hash_equal_across_coefficient_types():
    ints = LaurentPoly(2, {(0, 0): 3, (1, 0): -2, (0, 1): 1})
    mixed = LaurentPoly(
        2, {(0, 0): Fraction(6, 2), (1, 0): YPoly((-2,)), (0, 1): Fraction(1)}
    )
    consts = LaurentPoly(
        2, {(0, 0): YPoly((3,)), (1, 0): Fraction(-2), (0, 1): YPoly((Fraction(2, 2),))}
    )
    assert ints == mixed == consts
    assert hash(ints) == hash(mixed) == hash(consts)
    assert len({ints, mixed, consts}) == 1
    half = LaurentPoly(1, {(1,): Fraction(1, 2)})
    assert half == LaurentPoly(1, {(1,): YPoly((Fraction(1, 2),))})
    assert hash(half) == hash(LaurentPoly(1, {(1,): YPoly((Fraction(1, 2),))}))


def test_negative_exponents_and_eval():
    zinv = LaurentPoly(2, {(-1, 0): 1})
    assert value(zinv, (2, 7)) == Fraction(1, 2)
    assert zinv * LaurentPoly(2, {(1, 0): 1}) == 1
    with pytest.raises(ValueError):
        zinv * LaurentPoly(1, {(1,): 1})


@given(polys2, polys2, points2)
def test_eval_is_ring_homomorphism(p, q, z):
    assert value(p + q, z) == value(p, z) + value(q, z)
    assert value(p * q, z) == value(p, z) * value(q, z)


def test_rational_function_rejects_zero_denominator():
    one = LaurentPoly.const(1, 1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(one, LaurentPoly.zero(1))


def test_equivalence_by_cross_multiplication():
    z = LaurentPoly(1, {(1,): 1})
    one = LaurentPoly.const(1, 1)
    # (1 - z^2)/(1 - z) == (1 + z)/1
    f = RationalFunction(one + -1 * z * z, one + -1 * z)
    g = RationalFunction(one + z, one)
    assert f.equivalent(g)
    assert not f.equivalent(RationalFunction(z, one))
    # a constant-1 denominator on either side, or on both, is skipped
    assert g.equivalent(f)
    assert RationalFunction(z, one).equivalent(RationalFunction(z, one))
    assert not RationalFunction(z, one).equivalent(g)
    h = RationalFunction(one + z, LaurentPoly.const(1, 2))
    assert not h.equivalent(g) and not g.equivalent(h)
    assert h.equivalent(RationalFunction((one + z) * 3, LaurentPoly.const(1, 6)))


def test_equivalence_skips_constant_one_denominators(monkeypatch):
    z = LaurentPoly(2, {(1, 0): 1})
    one = LaurentPoly.const(2, 1)
    f = RationalFunction(one + -1 * z * z, one + -1 * z)
    g = RationalFunction(one + z, one)
    products = []
    mul = LaurentPoly.__mul__

    def counted(a, b):
        products.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    assert f.equivalent(g) and g.equivalent(f)
    # only (1 + z) * (1 - z), once each way; the numerator of f is not
    # multiplied by the constant 1
    assert products == [4, 4]
    products.clear()
    assert g.equivalent(RationalFunction(z + one, one))
    assert products == []


def test_constant_hashes_like_its_scalar():
    for c in (3, Fraction(-1, 2)):
        const = LaurentPoly.const(2, c)
        assert const == c
        assert hash(const) == hash(c)
        assert len({const, c}) == 1
    assert hash(LaurentPoly.zero(3)) == hash(0)
    assert len({LaurentPoly.zero(3), 0}) == 1


def test_str_formats_shared_coefficients_like_distinct_ones():
    # printing formats each distinct coefficient once; equal values of
    # different types (2 and 2.0) still print as themselves
    shared = YPoly((1, 1))
    p = LaurentPoly(1, {
        (0,): 2, (1,): 2.0, (2,): shared, (3,): shared, (4,): YPoly((1, 1)),
        (5,): -2, (6,): Fraction(-2),
    })
    assert str(p) == (
        "2 + (2.0)*z + (y + 1)*z^2 + (y + 1)*z^3 + (y + 1)*z^4 "
        "+ (-2)*z^5 + (-2)*z^6"
    )

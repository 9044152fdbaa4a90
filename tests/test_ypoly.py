from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarcount.laurent import LaurentPoly
from polarcount.ypoly import ONE_PLUS_Y, Y, YFrac, YPoly

coeff_lists = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=8), max_size=6
)
safe_y = st.fractions(min_value=-10, max_value=10, max_denominator=7).filter(
    lambda y: y != -1
)

# YFrac(num, power) inputs before reduction: numerators with (1+y)
# factors to cancel, degrees above the power, and negative powers
raw_yfracs = st.tuples(
    coeff_lists, st.integers(min_value=0, max_value=3),
    st.integers(min_value=-2, max_value=5),
).map(lambda t: (YPoly(t[0]) * ONE_PLUS_Y ** t[1], t[2]))
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=3)


# -- reference: num / (1+y)**power reduced by synthetic division ---------


def _div_one_plus_y(p):
    """Exact quotient by (1+y), or None when not divisible."""
    if not p:
        return YPoly()
    a = p.coeffs
    q = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        carry = a[i] - carry
        q[i - 1] = carry
    if a[0] != carry:
        return None
    return YPoly(q)


def ref_reduce(num, power):
    if power < 0:
        num, power = num * ONE_PLUS_Y ** (-power), 0
    while power > 0 and num:
        q = _div_one_plus_y(num)
        if q is None:
            break
        num, power = q, power - 1
    return (num, power) if num else (YPoly(), 0)


def ref_add(a, b):
    p = max(a[1], b[1])
    return ref_reduce(
        a[0] * ONE_PLUS_Y ** (p - a[1]) + b[0] * ONE_PLUS_Y ** (p - b[1]), p
    )


def ref_neg(a):
    return (a[0] * -1, a[1])


def ref_mul(a, b):
    return ref_reduce(a[0] * b[0], a[1] + b[1])


def ref_str(ref):
    num, power = ref
    text = str(num)
    if power == 0:
        return text
    if sum(1 for c in num.coeffs if c != 0) > 1:
        text = f"({text})"
    return text + ("/(1+y)" if power == 1 else f"/(1+y)^{power}")


def assert_matches(f, ref, y):
    assert (f.num, f.power) == ref
    assert f.num.coeffs == ref[0].coeffs
    assert f == YFrac(*ref)
    assert str(f) == ref_str(ref)
    assert f(y) == ref[0](y) / (1 + y) ** ref[1]


@given(raw_yfracs, raw_yfracs, scalars, safe_y)
def test_yfrac_matches_reduction_oracle(a, b, c, y):
    fa, fb = YFrac(*a), YFrac(*b)
    ra, rb, rc = ref_reduce(*a), ref_reduce(*b), ref_reduce(YPoly((c,)), 0)
    assert_matches(fa, ra, y)
    assert_matches(fb, rb, y)
    assert_matches(fa + fb, ref_add(ra, rb), y)
    assert_matches(fa - fb, ref_add(ra, ref_neg(rb)), y)
    assert_matches(-fa, ref_neg(ra), y)
    assert_matches(fa * fb, ref_mul(ra, rb), y)
    assert_matches(fa + c, ref_add(ra, rc), y)
    assert_matches(c - fa, ref_add(rc, ref_neg(ra)), y)
    assert_matches(c * fa, ref_mul(rc, ra), y)
    assert (fa == fb) == (ra == rb)
    assert (fa - fb == 0) == (ra == rb)
    if ra == rb:
        assert hash(fa) == hash(fb)


@given(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
    raw_yfracs, safe_y,
)
def test_yfrac_weight_matches_reduction_oracle(r1, r2, a, y):
    w, ref = YFrac.weight(r1, r2), ref_reduce(Y**r2, r1 + r2)
    assert_matches(w, ref, y)
    assert_matches(w * YFrac(*a), ref_mul(ref, ref_reduce(*a)), y)
    assert_matches(YFrac(*a) - w, ref_add(ref_reduce(*a), ref_neg(ref)), y)


def test_trailing_zeros_trimmed():
    assert YPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert YPoly((0,)).coeffs == ()
    assert not YPoly(())
    assert YPoly((0, 1))


def test_arithmetic_and_eval():
    p = YPoly((1, 2))        # 1 + 2y
    q = YPoly((0, 0, 3))     # 3y^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p**3) == p * p * p
    assert p(Fraction(1, 2)) == 2
    assert (2 + p).coeffs == (3, 2)
    assert (2 * p).coeffs == (2, 4)


def test_degree_and_coefficient():
    p = YPoly((5, 0, 7))
    assert p.degree == 2
    assert p.coefficient(0) == 5
    assert p.coefficient(1) == 0
    assert p.coefficient(9) == 0
    assert YPoly(()).degree == -1


def test_str_rendering():
    assert str(YPoly((1, 2))) == "2*y + 1"
    assert str(YPoly((0, -1))) == "-y"
    assert str(YPoly(())) == "0"
    assert str(YPoly((Fraction(1, 2), 0, 1))) == "y^2 + 1/2"


@given(coeff_lists, coeff_lists, safe_y)
def test_eval_is_ring_homomorphism(a, b, y):
    p, q = YPoly(a), YPoly(b)
    assert (p + q)(y) == p(y) + q(y)
    assert (p * q)(y) == p(y) * q(y)


def test_yfrac_reduces_to_lowest_terms():
    f = YFrac(ONE_PLUS_Y * YPoly((3,)), 2)
    assert f.num == YPoly((3,))
    assert f.power == 1
    assert YFrac(ONE_PLUS_Y, 1) == YFrac(1)
    assert YFrac(YPoly(()), 5) == YFrac(0)
    assert YFrac(YPoly(()), 5).power == 0


def test_yfrac_weight():
    w = YFrac.weight(1, 2)
    assert w.num == Y**2
    assert w.power == 3
    assert YFrac.weight(0, 0) == YFrac(1)
    with pytest.raises(ValueError):
        YFrac.weight(-1, 0)


def test_yfrac_arithmetic():
    a = YFrac(1, 1)            # 1/(1+y)
    b = YFrac(Y, 1)            # y/(1+y)
    assert a + b == YFrac(1)   # (1+y)/(1+y)
    assert a - a == YFrac(0)
    assert a * b == YFrac(Y, 2)
    assert 2 * a == YFrac(YPoly((2,)), 1)
    assert a + 1 == YFrac(YPoly((2, 1)), 1)


def test_yfrac_eval_and_pole():
    f = YFrac(Y, 2)
    assert f(1) == Fraction(1, 4)
    assert f(0) == 0
    with pytest.raises(ZeroDivisionError):
        f(-1)


def test_yfrac_cleared():
    w = YFrac.weight(1, 1)     # y/(1+y)^2
    assert w.cleared(2) == Y
    assert w.cleared(3) == Y * ONE_PLUS_Y
    with pytest.raises(ValueError):
        w.cleared(1)


def test_yfrac_str():
    assert str(YFrac(Y, 2)) == "y/(1+y)^2"
    assert str(YFrac(YPoly((2, 1)), 1)) == "(y + 2)/(1+y)"
    assert str(YFrac(1)) == "1"


@given(coeff_lists, st.integers(min_value=0, max_value=3), safe_y)
def test_yfrac_eval_matches_unreduced_form(coeffs, power, y):
    f = YFrac(YPoly(coeffs), power)
    direct = YPoly(coeffs)(y) / (1 + y) ** power
    assert f(y) == direct


def test_integral_coefficients_stored_as_int():
    p = YPoly((Fraction(4, 2), 3, Fraction(1, 2), Fraction(-6, 3)))
    assert [type(c) for c in p.coeffs] == [int, int, Fraction, int]
    assert p.coeffs == (2, 3, Fraction(1, 2), -2)
    assert type(YPoly.const(Fraction(5, 1)).coeffs[0]) is int
    assert type((YPoly((Fraction(1, 2),)) * 2).coeffs[0]) is int
    assert type((YPoly((Fraction(1, 2),)) + Fraction(1, 2)).coeffs[0]) is int
    assert all(type(c) is int for c in (ONE_PLUS_Y**5).coeffs)
    assert all(type(c) is int for c in YFrac.weight(2, 3).num.coeffs)


def test_normalisation_keeps_equality_hash_and_str():
    a, b = YPoly((Fraction(4, 2),)), YPoly((2,))
    assert a == b
    assert hash(a) == hash(b)
    assert YPoly((1, Fraction(2), Fraction(1, 3))) == YPoly((1, 2, Fraction(1, 3)))
    mixed = LaurentPoly(2, {(0, 0): Fraction(3), (1, 0): YPoly((Fraction(2), 1)),
                            (0, 1): YPoly((1, Fraction(4, 4)))})
    ints = LaurentPoly(2, {(0, 0): 3, (1, 0): YPoly((2, 1)), (0, 1): ONE_PLUS_Y})
    assert mixed == ints
    assert hash(mixed) == hash(ints)
    assert str(mixed) == str(ints) == "3 + (y + 1)*z2 + (y + 2)*z1"
    assert str(YPoly((Fraction(2), Fraction(-1, 2), Fraction(3)))) == "3*y^2 - 1/2*y + 2"
    assert str(YPoly((Fraction(-1), Fraction(1)))) == "y - 1"
    assert str(YFrac(YPoly((Fraction(2), 1)), 1)) == "(y + 2)/(1+y)"


def test_eval_returns_fraction():
    for p in (YPoly((1, 2)), YPoly(()), YPoly((Fraction(1, 2), 3))):
        assert type(p(2)) is Fraction
        assert type(p(Fraction(1, 3))) is Fraction
    assert type(YFrac(YPoly((2, 1)), 1)(1)) is Fraction


def test_yfrac_hashes_like_what_it_equals():
    for scalar in (0, 2, -3, Fraction(1, 2)):
        assert YFrac(scalar) == scalar
        assert hash(YFrac(scalar)) == hash(scalar)
        assert len({YFrac(scalar), scalar}) == 1
    for poly in (Y, ONE_PLUS_Y**2, YPoly((1, Fraction(-1, 3), 2))):
        assert YFrac(poly) == poly
        assert hash(YFrac(poly)) == hash(poly)
    assert hash(YFrac.weight(2, 0)) == hash(YFrac(1, 2))
    assert len({YFrac.weight(1, 1), YFrac(Y, 2), YFrac(1, 1)}) == 2


# -- the Fraction loop over the u form, as an evaluation oracle ----------
#
# YFrac evaluates at y = a/b in ints over its u-exponent span; the oracle
# sums c_k * u**k one Fraction at a time, u = 1/(1+y).

EVAL_YS = (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-1, 2),
           Fraction(5), Fraction(-5, 3))


def eval_oracle(f, y):
    u = 1 / (1 + Fraction(y))
    return sum((c * u**k for k, c in f.u.items()), Fraction(0))


def assert_evaluates_like_oracle(f):
    for y in EVAL_YS:
        got = f(y)
        assert got == eval_oracle(f, y), (repr(f), y)
        assert type(got) is Fraction


@settings(max_examples=200, deadline=None)
@given(raw_yfracs, raw_yfracs)
def test_yfrac_eval_matches_fraction_loop(a, b):
    fa, fb = YFrac(*a), YFrac(*b)
    for f in (fa, fb, fa * fb, fa - fb):
        assert_evaluates_like_oracle(f)


def test_yfrac_eval_over_negative_u_exponents():
    cases = {
        YFrac(Y**3, 1): (-2, 1),   # y^3/(1+y) = (1-u)^3 * u^-2
        YFrac(Y**3): (-3, 0),
        YFrac(ONE_PLUS_Y): (-1, -1),
        YFrac(ONE_PLUS_Y**2 * Y): (-3, -2),
        YFrac(YPoly((Fraction(1, 2), 0, 3)), 1): (-1, 1),
    }
    for f, (lo, hi) in cases.items():
        assert (min(f.u), max(f.u)) == (lo, hi)
        assert_evaluates_like_oracle(f)
    assert YFrac(Y**3, 1)(1) == Fraction(1, 2)
    assert YFrac(ONE_PLUS_Y**2 * Y)(Fraction(-5, 3)) == Fraction(-20, 27)


def test_yfrac_eval_pole_and_zero():
    for f in (YFrac(0), YFrac(1), YFrac(Y**3, 1), YFrac.weight(2, 1)):
        with pytest.raises(ZeroDivisionError, match="undefined at y = -1"):
            f(-1)
    assert YFrac(0)(Fraction(2, 3)) == 0
    assert type(YFrac(0)(5)) is Fraction


count_tables = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-3, 3), max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(count_tables)
def test_combination_matches_summed_weights(table):
    combined = YFrac.combination(table)
    summed = sum(
        (c * YFrac.weight(r1, r2) for (r1, r2), c in table.items()), YFrac(0)
    )
    assert combined == summed
    assert str(combined) == str(summed)
    assert_evaluates_like_oracle(combined)


@pytest.mark.parametrize("table", [
    {(0, -1): 1},
    {(2, -3): 5, (1, 0): 1},
    {(1, 0): 1, (0, -2): 0},  # a zero coefficient does not hide its key
])
def test_combination_rejects_a_negative_one_minus_u_power(table):
    # (1-u)**r2 with r2 < 0 is no polynomial in u; it must not drop out
    with pytest.raises(ValueError, match="must be nonnegative"):
        YFrac.combination(table)


# -- YPoly evaluation in ints against the Fraction Horner loop ----------


def horner_oracle(p, y):
    """Reference value: Horner's rule with one Fraction per step."""
    acc = Fraction(0)
    y = Fraction(y)
    for c in reversed(p.coeffs):
        acc = acc * y + c
    return acc


_LONG = Fraction(int("7" * 2000), int("3" + "1" * 1999))  # 2000-digit parts
YPOLY_YS = (0, 2, Fraction(-1, 2), Fraction(5, 3), _LONG, -_LONG)


@pytest.mark.parametrize("coeffs", [
    (),
    (0,),
    (5,),
    (1, 2, 3),
    (-4, 0, 0, 7),
    (Fraction(1, 2), 0, Fraction(-7, 12)),
    (3, Fraction(-1, 720), 0, Fraction(5, 6), -2),
    (Fraction(1, 30240),) * 9,
])
def test_ypoly_eval_matches_fraction_loop(coeffs):
    p = YPoly(coeffs)
    for y in YPOLY_YS:
        got = p(y)
        assert got == horner_oracle(p, y), (coeffs, y)
        assert type(got) is Fraction


@given(coeff_lists, st.fractions(max_denominator=10**6))
def test_ypoly_eval_matches_fraction_loop_generated(coeffs, y):
    p = YPoly(coeffs)
    assert p(y) == horner_oracle(p, y)
    assert type(p(y)) is Fraction

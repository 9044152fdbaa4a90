from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polarcount import series
from polarcount.cli import main
from polarcount.series import (
    TruncatedSeries,
    format_series,
    hirzebruch_series,
    lhat_series,
    qy_series,
    qy_series_cleared,
    todd_series,
    verify_identities,
)
from polarcount.ypoly import YPoly

# frozen against two independent oracles (a direct exp/inversion script
# and sympy); index = power of x
TODD_COEFFS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 12),
    Fraction(0),
    Fraction(-1, 720),
    Fraction(0),
    Fraction(1, 30240),
    Fraction(0),
    Fraction(-1, 1209600),
]
LHAT_COEFFS = [
    Fraction(1),
    Fraction(0),
    Fraction(1, 12),
    Fraction(0),
    Fraction(-1, 720),
    Fraction(0),
    Fraction(1, 30240),
    Fraction(0),
    Fraction(-1, 1209600),
]


def test_todd_frozen_values():
    assert list(todd_series(8).coeffs) == TODD_COEFFS


def test_lhat_frozen_values():
    assert list(lhat_series(8).coeffs) == LHAT_COEFFS


def test_todd_against_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    expr = x / (1 - sp.exp(-x))
    expansion = sp.series(expr, x, 0, 11).removeO()
    ours = todd_series(10)
    for k in range(11):
        assert sp.nsimplify(expansion.coeff(x, k)) == sp.Rational(
            ours.coeffs[k].numerator, ours.coeffs[k].denominator
        )


def test_lhat_against_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    expr = (x / 2) / sp.tanh(x / 2)
    expansion = sp.series(expr, x, 0, 11).removeO()
    ours = lhat_series(10)
    for k in range(11):
        assert sp.nsimplify(expansion.coeff(x, k)) == sp.Rational(
            ours.coeffs[k].numerator, ours.coeffs[k].denominator
        )


def test_family_at_concrete_y_against_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    y = sp.Rational(2)
    expr = (x / (1 - sp.exp(-x))) * (1 + y * sp.exp(-x)) / (1 + y)
    expansion = sp.series(expr, x, 0, 9).removeO()
    ours = qy_series(Fraction(2), todd_series(8))
    for k in range(9):
        assert sp.nsimplify(expansion.coeff(x, k)) == sp.Rational(
            ours.coeffs[k].numerator, ours.coeffs[k].denominator
        )


def test_identities_to_order_twelve():
    todd = todd_series(12)
    checks = verify_identities(todd, lhat_series(12), qy_series_cleared(todd))
    assert checks and all(checks.values()), checks


def test_family_endpoints():
    assert qy_series(0, todd_series(10)) == todd_series(10)
    assert qy_series(1, todd_series(10)) == lhat_series(10)


def test_classical_family_needs_the_substitution():
    lhat = lhat_series(10)
    todd = todd_series(10)
    assert hirzebruch_series(1, todd).scale_argument(Fraction(1, 2)) == lhat
    assert hirzebruch_series(1, todd) != lhat
    assert hirzebruch_series(0, todd) == todd_series(10)


def test_rescaling_links_the_two_families():
    for y in (Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
        scaled = hirzebruch_series(y, todd_series(8)).scale_argument(Fraction(1, 1 + y))
        assert qy_series(y, todd_series(8)) == scaled


def test_cleared_family_has_polynomial_coefficients():
    cleared = qy_series_cleared(todd_series(6))
    assert type(cleared) is tuple and len(cleared) == 7
    assert all(isinstance(c, YPoly) for c in cleared)
    assert cleared[0] == YPoly((1, 1))
    # cleared / (1+y) at y = 3 must equal the concrete family
    concrete = qy_series(3, todd_series(6))
    assert all(cleared[k](3) / 4 == concrete.coeffs[k] for k in range(7))


def test_y_minus_one_rejected():
    with pytest.raises(ValueError):
        qy_series(-1, todd_series(4))
    with pytest.raises(ValueError):
        hirzebruch_series(-1, todd_series(4))


def test_series_plumbing():
    e = TruncatedSeries.exponential(-1, 5)
    assert e.coeffs[3] == Fraction(-1, 6)
    assert e.scale_argument(-1) == TruncatedSeries.exponential(1, 5)
    zero_const = TruncatedSeries.constant(0, 3)
    with pytest.raises(ZeroDivisionError):
        zero_const.inverse()
    with pytest.raises(ValueError):
        e + TruncatedSeries.constant(1, 2)
    prod = e * e.inverse()
    assert prod == TruncatedSeries.constant(Fraction(1), 5)
    assert str(todd_series(4)) == "1 + 1/2*x + 1/12*x^2 - 1/720*x^4"
    # the sign is read off int coefficients as well as Fraction ones
    assert str(TruncatedSeries((1, -1, 0, -3))) == "1 - x - 3*x^3"
    assert str(TruncatedSeries((-2, Fraction(-1, 2)))) == "-2 - 1/2*x"


# -- the integer kernel against the schoolbook loops it replaced ----------


def schoolbook_mul(a, b):
    """Reference product of two coefficient lists of one length: one
    Fraction accumulation per coefficient pair."""
    out = []
    for k in range(len(a)):
        acc = Fraction(0)
        for i in range(k + 1):
            x, y = a[i], b[k - i]
            if x != 0 and y != 0:
                acc = acc + x * y
        out.append(acc)
    return out


def schoolbook_inverse(s):
    """Reference inverse of a coefficient list: the Fraction recurrence."""
    inv0 = 1 / Fraction(s[0])
    out = [inv0]
    for k in range(1, len(s)):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc = acc + s[i] * out[k - i]
        out.append(-inv0 * acc)
    return out


_coefficients = st.one_of(
    st.just(0),
    st.integers(-40, 40),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)


@st.composite
def series_lists(draw, count):
    order = draw(st.integers(0, 12))
    coeffs = st.lists(_coefficients, min_size=order + 1, max_size=order + 1)
    return [TruncatedSeries(draw(coeffs)) for _ in range(count)]


def assert_matches(result, reference):
    assert list(result.coeffs) == reference
    assert all(type(c) is Fraction for c in result.coeffs)
    # the sign of a Fraction coefficient prints as " - ", so equal types
    # and values keep the printed form
    assert str(result) == str(TruncatedSeries(reference))


@given(series_lists(2))
def test_kernel_product_matches_schoolbook(pair):
    a, b = pair
    assert_matches(a * b, schoolbook_mul(a.coeffs, b.coeffs))


@given(series_lists(1))
def test_kernel_inverse_matches_schoolbook(single):
    (s,) = single
    assume(s.nums[0] != 0)
    inv = s.inverse()
    assert_matches(inv, schoolbook_inverse(s.coeffs))
    assert s * inv == TruncatedSeries.constant(Fraction(1), s.order)


def test_kernel_rejects_what_has_no_rational_inverse_or_product():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries((Fraction(0), Fraction(1, 2), 3)).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries((1, 2)) * TruncatedSeries((1, 2, 3))
    rational = TruncatedSeries((Fraction(1), Fraction(1, 2)))
    for bad in (
        lambda: TruncatedSeries((YPoly((1, 1)), YPoly((0, 1)))),
        lambda: TruncatedSeries((1, YPoly((0, 1)))),
        lambda: TruncatedSeries((1.5, 0)),
        lambda: rational * YPoly((1, 1)),
        lambda: rational * 1.5,
        lambda: rational + YPoly((1, 1)),
    ):
        with pytest.raises(TypeError):
            bad()


@st.composite
def equal_forms(draw):
    """One coefficient list, its values again with every integral one as
    an int and every other as a Fraction, and a common factor."""
    order = draw(st.integers(0, 12))
    values = draw(st.lists(_coefficients, min_size=order + 1, max_size=order + 1))
    other = [int(c) if Fraction(c).denominator == 1 else Fraction(c) for c in values]
    other = [draw(st.sampled_from((c, Fraction(c)))) for c in other]
    factor = draw(st.integers(-10**6, 10**6).filter(bool))
    return values, other, factor


@given(equal_forms())
def test_equal_values_make_one_series(forms):
    values, other, factor = forms
    s = TruncatedSeries(values)
    again = TruncatedSeries(other)
    nums, den = [a * factor for a in s.nums], s.den * factor
    scaled = TruncatedSeries._row(nums, den)
    for t in (again, scaled):
        assert t == s and hash(t) == hash(s) and str(t) == str(s)
        assert (t.nums, t.den) == (s.nums, s.den) and t.den > 0
    assert s.coeffs == tuple(Fraction(c) for c in values)


# -- Todd is built at most once per public call ---------------------------


def counting(monkeypatch, name):
    """Record the order of every call to series.<name>."""
    orders = []
    build = getattr(series, name)

    def counted(order):
        orders.append(order)
        return build(order)

    monkeypatch.setattr(series, name, counted)
    return orders


@pytest.fixture
def todd_builds(monkeypatch):
    return counting(monkeypatch, "todd_series")


@pytest.fixture
def lhat_builds(monkeypatch):
    return counting(monkeypatch, "lhat_series")


@pytest.mark.parametrize(
    "name, args, builds",
    [
        ("verify_identities", ("todd", "lhat", "cleared"), 1),
        ("qy_series", (Fraction(1, 2), "todd"), 1),
        ("qy_series_cleared", ("todd",), 1),
        ("hirzebruch_series", (2, "todd"), 1),
        # the half-angle series is an oracle built without Todd
        ("lhat_series", (12,), 0),
    ],
)
def test_todd_built_once_per_call(todd_builds, name, args, builds):
    # the caller builds the one Todd that a function taking it reads
    prebuilt = {}
    if "todd" in args:
        todd = prebuilt["todd"] = series.todd_series(12)
        prebuilt.update(lhat=lhat_series(12), cleared=series.qy_series_cleared(todd))
    getattr(series, name)(*(prebuilt.get(a, a) for a in args))
    assert len(todd_builds) == builds


@pytest.mark.parametrize("extra", [(), ("--y", "1/2")], ids=["symbolic", "y"])
def test_series_command_builds_todd_and_lhat_once(
    todd_builds, lhat_builds, capsys, extra
):
    assert main(["series", "--order", "40", *extra]) == 0
    assert "check: PASS (9/9 identities)" in capsys.readouterr().out
    assert todd_builds == [40]
    assert lhat_builds == [40]


# -- the family is Todd minus a line, against the product it replaced -----


def exp_coeffs(c, order):
    """Coefficients of e**(c*x) to x**order, as Fractions."""
    return [Fraction(c) ** k / factorial(k) for k in range(order + 1)]


def family_by_product(todd, y):
    """(1/(1+y)) * Todd * (1 + y*e**(-x)), multiplied out by schoolbook_mul."""
    factor = [y * e + (k == 0) for k, e in enumerate(exp_coeffs(-1, todd.order))]
    return [c / (1 + y) for c in schoolbook_mul(todd.coeffs, factor)]


FAMILY_YS = (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-5, 7), Fraction(5, 3))


@pytest.mark.parametrize("order", range(41))
def test_family_is_todd_minus_a_line(order):
    todd = todd_series(order)
    for y in FAMILY_YS:
        line = qy_series(y, todd)
        assert list(line.coeffs) == family_by_product(todd, y), y
        # same values as Fractions, so the same printed text
        assert all(type(c) is Fraction for c in line.coeffs)
    shifted = schoolbook_mul(exp_coeffs(-1, order), todd.coeffs)
    assert qy_series_cleared(todd) == tuple(
        YPoly((t, s)) for t, s in zip(todd.coeffs, shifted)
    )


# -- the series-algebra checks against Fraction lists --------------------


def scaled(coeffs, c):
    """The coefficients of s(c*x) for the coefficients of s(x)."""
    return [a * Fraction(c) ** k for k, a in enumerate(coeffs)]


def fraction_check_identities(todd, lhat):
    """Reference checks on Fraction coefficient lists: products by
    schoolbook_mul, sums and substitutions coefficient by coefficient,
    the cleared family evaluated by YPoly.__call__; no series operation
    runs here."""
    order = todd.order
    t, l = list(todd.coeffs), list(lhat.coeffs)
    t_neg = scaled(t, -1)
    shifted = schoolbook_mul(exp_coeffs(-1, order), t)
    base = [Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1)]
    factor = [e + (k == 0) for k, e in enumerate(exp_coeffs(-2, order))]
    classical = schoolbook_mul([a / 2 for a in scaled(t, 2)], factor)
    cleared = series.qy_series_cleared(todd)
    sample_ys = (Fraction(2), Fraction(-1, 2), Fraction(5, 3))
    family = {y: list(series.qy_series(y, todd).coeffs) for y in (0, 1, *sample_ys)}
    return {
        "todd_defining_product": schoolbook_mul(t, base)
        == [1] + [0] * order,
        "todd_reflection": t_neg == shifted,
        "average_is_half_angle": [(a + b) / 2 for a, b in zip(t, t_neg)] == l,
        "half_angle_is_even": all(l[k] == 0 for k in range(1, order + 1, 2)),
        "family_at_zero_is_todd": family[0] == t,
        "family_at_one_is_half_angle": family[1] == l,
        "classical_family_halved": scaled(classical, Fraction(1, 2)) == l,
        "cleared_family_matches": all(
            [c(y) for c in cleared] == [(1 + y) * a for a in family[y]]
            for y in sample_ys
        ),
        "weighted_average_form": all(
            family[y] == [(a + y * b) / (1 + y) for a, b in zip(t, shifted)]
            for y in sample_ys
        ),
    }


def mutants(order):
    """(name, todd, lhat) wrong inputs: one Todd coefficient perturbed,
    the x term changed to -1/2 (the series x/(e**x - 1)), an odd
    half-angle coefficient made nonzero, an even one perturbed."""
    todd, lhat = todd_series(order), lhat_series(order)
    out = []
    for k in sorted({0, order // 2, order}):
        t = list(todd.coeffs)
        t[k] += Fraction(1, 7)
        out.append((f"todd[{k}]", TruncatedSeries(t), lhat))
    if order >= 1:
        t = list(todd.coeffs)
        t[1] = Fraction(-1, 2)
        out.append(("x term", TruncatedSeries(t), lhat))
        l = list(lhat.coeffs)
        l[order if order % 2 else order - 1] = Fraction(1, 3)
        out.append(("odd lhat", todd, TruncatedSeries(l)))
    for k in sorted({0, 2 * (order // 4)}):
        l = list(lhat.coeffs)
        l[k] -= 5
        out.append((f"lhat[{k}]", todd, TruncatedSeries(l)))
    return out


def verify(todd, lhat):
    """verify_identities with the cleared family built from todd."""
    return series.verify_identities(todd, lhat, series.qy_series_cleared(todd))


def family_with_u_for_1_minus_u(y, todd):
    """A broken qy_series: takes 1/(1+y) off the x coefficient, not y/(1+y)."""
    coeffs = list(todd.coeffs)
    if len(coeffs) > 1:
        coeffs[1] -= 1 / (1 + Fraction(y))
    return TruncatedSeries(coeffs)


@pytest.mark.parametrize("order", range(41))
def test_integer_checks_match_fraction_checks(order):
    cases = [("right", todd_series(order), lhat_series(order)), *mutants(order)]
    for name, todd, lhat in cases:
        got = verify(todd, lhat)
        want = fraction_check_identities(todd, lhat)
        assert list(got.items()) == list(want.items()), name
    assert all(verify(todd_series(order), lhat_series(order)).values())


def test_every_identity_fails_on_some_mutant(monkeypatch):
    failed = set()
    for order in (0, 1, 6, 13):
        for _, todd, lhat in mutants(order):
            checks = verify(todd, lhat)
            failed |= {name for name, ok in checks.items() if not ok}
    # family_at_zero_is_todd and cleared_family_matches hold for every
    # input series; a broken qy_series is what they catch
    monkeypatch.setattr(series, "qy_series", family_with_u_for_1_minus_u)
    todd = todd_series(6)
    checks = verify(todd, lhat_series(6))
    assert checks == fraction_check_identities(todd, lhat_series(6))
    failed |= {name for name, ok in checks.items() if not ok}
    assert failed == set(checks)


def test_series_command_reports_a_wrong_todd(capsys, monkeypatch):
    build = series.todd_series

    def wrong(order):
        t = list(build(order).coeffs)
        t[2] += Fraction(1, 7)
        return TruncatedSeries(t)

    monkeypatch.setattr(series, "todd_series", wrong)
    expected = fraction_check_identities(wrong(8), lhat_series(8))
    failed = [name for name, ok in expected.items() if not ok]
    assert main(["series", "--order", "8"]) == 1
    out = capsys.readouterr().out
    assert f"check: FAIL ({len(failed)}/9 identities)\n" == out.splitlines(True)[-1]
    for name, ok in expected.items():
        assert f"  {name}: {'ok' if ok else 'FAIL'}\n" in out


@pytest.mark.parametrize("argv", (("--order", "0"), ("--order", "12", "--y=-5/7")))
def test_series_command_builds_the_cleared_family_once(capsys, monkeypatch, argv):
    build = series.qy_series_cleared
    built = []

    def counted(todd):
        built.append(todd.order)
        return build(todd)

    monkeypatch.setattr(series, "qy_series_cleared", counted)
    assert main(["series", *argv]) == 0
    assert built == [int(argv[1])]
    # the shared tuple gives the Fraction oracle's verdicts, wrong inputs
    # included
    for _, todd, lhat in [("right", todd_series(6), lhat_series(6)), *mutants(6)]:
        assert (series.verify_identities(todd, lhat, build(todd))
                == fraction_check_identities(todd, lhat))


def test_format_series_reads_a_constant_ypoly_as_its_scalar():
    constants = (YPoly((1,)), YPoly((-1,)), YPoly((Fraction(-1, 2),)))
    rationals = (1, -1, Fraction(-1, 2))
    assert format_series(constants) == "1 - x - 1/2*x^2"
    assert format_series(rationals) == "1 - x - 1/2*x^2"
    assert format_series((YPoly((-2,)), YPoly(()), YPoly((1, -1)))) == (
        "-2 + (-y + 1)*x^2"
    )

"""Exact truncated power series: Todd, half-angle cotangent, and the
one-parameter family interpolating between them.

The ring operations are rational-only: coefficients are int or
Fraction, and products and inverses return Fraction coefficients.  Both
run on one integer kernel: a factor is cleared to integer numerators
over the lcm of its denominators, the numerators are combined as Python
ints, and each output coefficient becomes one reduced Fraction.

The family needs no product at all.  Since Todd(x) * e**(-x) =
Todd(-x) = Todd(x) - x, the normalized family is Todd with y/(1+y)
taken off its x coefficient, and (1+y) times it has the YPoly
coefficient todd_k + y*(todd_k - [k == 1]).  YPoly appears only as the
coefficient container of that cleared family, which is evaluated,
compared and printed but never multiplied.

family_at, family_cleared and check_identities work on a Todd series
the caller has built, so one Todd serves a whole command; the public
functions taking an order build todd_series(order) at most once per
call.  The product e**(-x) * Todd stays in check_identities as the
independent route the line is checked against.

check_identities runs all nine checks on cleared integer rows: each
series is cleared once to integer numerators over one lcm, products
are integer convolutions, and rows are compared by cross-multiplying
their denominators, so no Fraction is built per coefficient.
hirzebruch_series shares the classical family's convolution with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence

from .ypoly import YPoly


def _cleared(coeffs) -> tuple[list[int], int]:
    """Integer numerators of rational coefficients over their denominators' lcm."""
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(
                f"series arithmetic is rational-only, got a {type(c).__name__}"
            )
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer rows of one length, truncated to it."""
    n = len(a)
    rb = b[::-1]
    return [sum(map(mul, a[: k + 1], rb[n - 1 - k:])) for k in range(n)]


def _same(a: list[int], da: int, b: list[int], db: int) -> bool:
    """Whether the rows a/da and b/db are equal, by cross-multiplication."""
    return [x * db for x in a] == [x * da for x in b]


def _exp_row(c: Fraction, order: int) -> tuple[list[int], int]:
    """e**(c*x) to x**order as integer numerators over q**order * order!,
    for c = p/q: the k-th numerator is p**k * q**(order-k) * order!/k!."""
    p, q = c.numerator, c.denominator
    falling = [1] * (order + 1)  # order!/k!
    for k in range(order, 0, -1):
        falling[k - 1] = falling[k] * k
    row = [p**k * q ** (order - k) * f for k, f in enumerate(falling)]
    return row, q**order * falling[0]


class TruncatedSeries:
    """Power series in x modulo x**(order+1).

    coeffs[k] multiplies x**k.  Series arithmetic is over Q: a product
    of two series or an inverse needs int or Fraction coefficients and
    raises TypeError on anything else.  The one non-rational series is
    the cleared family (family_cleared, qy_series_cleared), whose YPoly
    coefficients are only evaluated, compared and printed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        return cls((c,) + (Fraction(0),) * order)

    @classmethod
    def exponential(cls, c, order: int) -> "TruncatedSeries":
        """e**(c*x) truncated: coefficients c**k / k!."""
        c = Fraction(c)
        return cls(tuple(c**k / factorial(k) for k in range(order + 1)))

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return TruncatedSeries((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check(other)
            a, da = _cleared(self.coeffs)
            b, db = _cleared(other.coeffs)
            den = da * db
            return TruncatedSeries(tuple(Fraction(c, den) for c in _convolve(a, b)))
        return TruncatedSeries(tuple(other * a for a in self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, with Fraction coefficients.

        The constant term must be nonzero and every coefficient rational.
        With self = p/D (integer numerators p over one denominator D),
        the k-th inverse coefficient is -(sum_{i=1..k} p_i out_{k-i})/p_0;
        the earlier outputs are held as integer numerators over the
        running lcm of their denominators, rescaled whenever a new output
        widens it.
        """
        p, den = _cleared(self.coeffs)
        p0 = p[0]
        if p0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        out = [Fraction(den, p0)]
        nums, common = [out[0].numerator], out[0].denominator
        for k in range(1, len(p)):
            c = Fraction(-sum(map(mul, p[1 : k + 1], reversed(nums))), common * p0)
            widen = c.denominator // gcd(common, c.denominator)
            if widen != 1:
                nums = [q * widen for q in nums]
                common *= widen
            nums.append(c.numerator * (common // c.denominator))
            out.append(c)
        return TruncatedSeries(out)

    def scale_argument(self, c) -> "TruncatedSeries":
        """Substitute x -> c*x."""
        c = Fraction(c)
        return TruncatedSeries(tuple(a * c**k for k, a in enumerate(self.coeffs)))

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            negative = isinstance(c, (int, Fraction)) and c < 0
            cs = str(-c if negative else c)
            if isinstance(c, YPoly) and c.degree > 0:
                cs = f"({cs})"
            xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            body = cs if not xs else (xs if cs == "1" else f"{cs}*{xs}")
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"


def todd_series(order: int) -> TruncatedSeries:
    """x / (1 - e**(-x)) truncated at x**order.

    Built by inverting (1 - e**(-x)) / x, whose k-th coefficient is
    (-1)**k / (k+1)!.
    """
    base = TruncatedSeries(
        tuple(Fraction((-1) ** k, factorial(k + 1)) for k in range(order + 1))
    )
    return base.inverse()


def lhat_series(order: int) -> TruncatedSeries:
    """(x/2) / tanh(x/2) truncated at x**order.

    Assembled from cosh(x/2) and sinh(x/2)/(x/2) directly, so it is an
    oracle independent of todd_series.
    """
    cosh = TruncatedSeries(
        tuple(
            Fraction(1, factorial(k) * 2**k) if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)
        )
    )
    sinh_over = TruncatedSeries(
        tuple(
            Fraction(1, factorial(k + 1) * 2**k) if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)
        )
    )
    return cosh * sinh_over.inverse()


def _admissible(y) -> Fraction:
    y = Fraction(y)
    if y == -1:
        raise ValueError("series family undefined at y = -1")
    return y


def _hirzebruch(t: list[int], dt: int, y: Fraction) -> tuple[list[int], int]:
    """The classical family at y as integer numerators over one
    denominator, from Todd's row t/dt: (1/s) * Todd(s*x) * (1 + y*e**(-s*x))
    with s = 1+y, multiplied out as one convolution."""
    # x/(1 - e**(-x(1+y))) is Todd(x(1+y)) with its numerator scaled back
    p, q = y.numerator, y.denominator
    s, order = p + q, len(t) - 1
    scaled = [a * s**k * q ** (order - k) for k, a in enumerate(t)]
    e, de = _exp_row(Fraction(-s, q), order)
    factor = [p * a for a in e]
    factor[0] += q * de
    # the product is over dt*q**order * q*de; dividing by 1+y = s/q
    # trades that q for s
    return _convolve(scaled, factor), dt * q**order * de * s


def family_at(todd: TruncatedSeries, y) -> TruncatedSeries:
    """qy_series(y, todd.order) from a prebuilt todd_series.

    (1/(1+y)) * Todd * (1 + y*e**(-x)) is Todd(x) - (y/(1+y)) * x,
    because Todd(x) * e**(-x) = Todd(x) - x.
    """
    y = _admissible(y)
    coeffs = list(todd.coeffs)
    if len(coeffs) > 1:
        coeffs[1] -= y / (1 + y)
    return TruncatedSeries(coeffs)


def family_cleared(todd: TruncatedSeries) -> TruncatedSeries:
    """qy_series_cleared(todd.order) from a prebuilt todd_series.

    Coefficient k is the YPoly todd_k + y*(todd*e**(-x))_k, and
    (todd*e**(-x))_k is todd_k, less 1 at k = 1.
    """
    return TruncatedSeries(tuple(
        YPoly((t, t - 1 if k == 1 else t)) for k, t in enumerate(todd.coeffs)
    ))


def hirzebruch_series(y, order: int) -> TruncatedSeries:
    """x(1 + y*e**(-x(1+y))) / (1 - e**(-x(1+y))) at a concrete y != -1.

    The classical three-point family: y = 0 gives the Todd series, and
    substituting x -> x/2 at y = 1 gives the half-angle cotangent.
    """
    y = _admissible(y)
    h, den = _hirzebruch(*_cleared(todd_series(order).coeffs), y)
    return TruncatedSeries(tuple(Fraction(c, den) for c in h))


def qy_series(y, order: int) -> TruncatedSeries:
    """(1/(1+y)) * Todd(x) * (1 + y*e**(-x)) at a concrete y != -1.

    The normalized family: equals hirzebruch_series(y, order) with
    x -> x/(1+y), hits Todd at y = 0 and the half-angle cotangent at
    y = 1 with no further substitution.
    """
    return family_at(todd_series(order), y)


def qy_series_cleared(order: int) -> TruncatedSeries:
    """(1+y) * qy_series as a series with YPoly coefficients.

    Exactly Todd(x) * (1 + y*e**(-x)), assembled coefficient by
    coefficient as the YPoly todd_k + y*(todd_k - [k == 1]); symbolic
    in y, so one object covers every admissible weight.
    """
    return family_cleared(todd_series(order))


def verify_identities(order: int) -> dict[str, bool]:
    """Exact cross-checks tying the family together; all should be True.

    One Todd series is built and shared by every check; lhat_series is
    built from cosh and sinh, independently of it.
    """
    return check_identities(todd_series(order), lhat_series(order))


def check_identities(todd: TruncatedSeries, lhat: TruncatedSeries) -> dict[str, bool]:
    """verify_identities on a prebuilt todd_series and lhat_series.

    Every series is cleared once to an integer row over one denominator;
    products are integer convolutions, and two rows are compared by
    cross-multiplying their denominators, so no Fraction is built per
    coefficient.  The family comes from family_at, Todd minus a line;
    two checks keep an independent route through the product
    e**(-x) * Todd, convolved once: todd_reflection, and
    weighted_average_form, which rebuilds the family from it.
    classical_family_halved runs the classical family at y = 1 through
    its own convolution, then substitutes x -> x/2.
    """
    order = todd.order
    t, dt = _cleared(todd.coeffs)
    lh, dl = _cleared(lhat.coeffs)
    t_neg = [-a if k % 2 else a for k, a in enumerate(t)]
    e, de = _exp_row(Fraction(-1), order)
    shifted, ds = _convolve(e, t), de * dt
    # (1 - e**(-x))/x: coefficient k is -(coefficient k+1 of e**(-x))
    e1, de1 = _exp_row(Fraction(-1), order + 1)
    h, dh = _hirzebruch(t, dt, Fraction(1))
    halved = [a * 2 ** (order - k) for k, a in enumerate(h)]
    cleared = family_cleared(todd)
    sample_ys = (Fraction(2), Fraction(-1, 2), Fraction(5, 3))
    family = {y: _cleared(family_at(todd, y).coeffs) for y in sample_ys}
    checks = {
        "todd_defining_product": _same(
            _convolve(t, [-a for a in e1[1:]]), dt * de1, [1] + [0] * order, 1
        ),
        "todd_reflection": _same(t_neg, dt, shifted, ds),
        "average_is_half_angle": _same(
            [a + b for a, b in zip(t, t_neg)], 2 * dt, lh, dl
        ),
        "half_angle_is_even": all(
            lhat[k] == 0 for k in range(1, order + 1, 2)
        ),
        "family_at_zero_is_todd": family_at(todd, Fraction(0)) == todd,
        "family_at_one_is_half_angle": family_at(todd, Fraction(1)) == lhat,
        "classical_family_halved": _same(halved, dh * 2**order, lh, dl),
        # (1+y) * family, with 1+y = (p+q)/q at y = p/q
        "cleared_family_matches": all(
            _same(
                *_cleared([c(y) for c in cleared.coeffs]),
                [(y.numerator + y.denominator) * a for a in family[y][0]],
                y.denominator * family[y][1],
            )
            for y in sample_ys
        ),
        # (q * todd + p * shifted) / (p+q) at y = p/q
        "weighted_average_form": all(
            _same(
                *family[y],
                [y.denominator * de * a + y.numerator * b
                 for a, b in zip(t, shifted)],
                (y.numerator + y.denominator) * ds,
            )
            for y in sample_ys
        ),
    }
    return checks

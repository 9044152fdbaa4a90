"""Exact truncated power series: Todd, half-angle cotangent, and the
one-parameter family interpolating between them.

A TruncatedSeries is one row of integer numerators over one positive
denominator, reduced by their common gcd, so equal series have equal
rows.  Every operation works on the row: a product is an integer
convolution, an inverse runs its recurrence over a running lcm, and
sums, rational multiples, x -> c*x and e**(c*x) are rows too.  A
Fraction is made only where a coefficient is read or printed.

The family needs no product.  Since Todd(x) * e**(-x) = Todd(x) - x,
the normalized family is Todd with y/(1+y) taken off its x coefficient,
and (1+y) times it is the tuple of YPoly coefficients
todd_k + y*(todd_k - [k == 1]), which format_series prints as a series.

Only todd_series and lhat_series take an order.  qy_series,
qy_series_cleared, hirzebruch_series and verify_identities take the
Todd series the caller has built, so one Todd serves a whole command.
verify_identities writes its nine identities in series algebra, each
along its own route.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence

from .ypoly import YPoly, polynomial_text


def format_series(coeffs: Sequence) -> str:
    """coeffs[k] * x**k summed, for int, Fraction or YPoly coefficients,
    printed by ypoly.polynomial_text."""
    return polynomial_text(enumerate(coeffs), "x")


class TruncatedSeries:
    """Power series in x over Q, modulo x**(order+1).

    Held as integer numerators nums over one denominator den > 0 with
    gcd(den, *nums) == 1: coefficient k is nums[k]/den and multiplies
    x**k.  Built from int or Fraction coefficients; anything else raises
    TypeError.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"series arithmetic is rational-only, got a {type(c).__name__}"
                )
        # over the lcm of reduced denominators, the row is already reduced
        den = self.den = lcm(*[c.denominator for c in coeffs])
        self.nums = tuple([c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def _row(cls, nums: Sequence[int], den: int) -> "TruncatedSeries":
        """The series nums/den for den != 0, reduced so that den > 0."""
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        s = object.__new__(cls)
        s.nums = tuple([a // g for a in nums] if g != 1 else nums)
        s.den = den // g
        return s

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        return cls((c,) + (0,) * order)

    @classmethod
    def exponential(cls, c, order: int) -> "TruncatedSeries":
        """e**(c*x) truncated: for c = p/q, the k-th numerator is
        p**k * q**(order-k) * order!/k! over q**order * order!."""
        c = Fraction(c)
        p, q = c.numerator, c.denominator
        falling = [1] * (order + 1)  # order!/k!
        for k in range(order, 0, -1):
            falling[k - 1] = falling[k] * k
        nums = [p**k * q ** (order - k) * f for k, f in enumerate(falling)]
        return cls._row(nums, q**order * falling[0])

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.order)
        self._check(other)
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        return TruncatedSeries._row(
            [a * ma + b * mb for a, b in zip(self.nums, other.nums)], den
        )

    __radd__ = __add__

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check(other)
            a, rb, n = self.nums, other.nums[::-1], len(self.nums)
            prod = [sum(map(mul, a[: k + 1], rb[n - 1 - k:])) for k in range(n)]
            return TruncatedSeries._row(prod, self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return TruncatedSeries._row(
            [other.numerator * a for a in self.nums], self.den * other.denominator
        )

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        With self = p/D, the k-th inverse coefficient is D/p_0 at k = 0
        and -(sum_{i=1..k} p_i out_{k-i})/p_0 after it.  Each is reduced
        by one gcd, and the outputs are held as integer numerators over
        the running lcm of their denominators, rescaled whenever a new
        output widens it.
        """
        p, p0 = self.nums, self.nums[0]
        if p0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        nums, common = [], 1
        for k in range(len(p)):
            top = self.den if k == 0 else -sum(map(mul, p[1 : k + 1], reversed(nums)))
            if p0 < 0:
                top = -top
            bottom = common * abs(p0)
            g = gcd(top, bottom)
            top, bottom = top // g, bottom // g
            widen = bottom // gcd(common, bottom)
            if widen != 1:
                nums = [q * widen for q in nums]
                common *= widen
            nums.append(top * (common // bottom))
        return TruncatedSeries._row(nums, common)

    def scale_argument(self, c) -> "TruncatedSeries":
        """Substitute x -> c*x."""
        c = Fraction(c)
        p, q, n = c.numerator, c.denominator, self.order
        return TruncatedSeries._row(
            [a * p**k * q ** (n - k) for k, a in enumerate(self.nums)],
            self.den * q**n,
        )

    def __str__(self) -> str:
        return format_series(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs!r})"


def _one_minus_exp_over_x(order: int) -> TruncatedSeries:
    """(1 - e**(-x)) / x: coefficient k is minus e**(-x)'s coefficient k+1."""
    e = TruncatedSeries.exponential(-1, order + 1)
    return TruncatedSeries._row([-a for a in e.nums[1:]], e.den)


def todd_series(order: int) -> TruncatedSeries:
    """x / (1 - e**(-x)) truncated at x**order, the inverse of
    (1 - e**(-x)) / x: Todd's integer numerators nums over one den."""
    return _one_minus_exp_over_x(order).inverse()


def lhat_series(order: int) -> TruncatedSeries:
    """(x/2) / tanh(x/2) truncated at x**order.

    Assembled from cosh(x/2) and sinh(x/2)/(x/2) directly, so it is an
    oracle independent of todd_series.
    """
    # j = 0 gives cosh(x/2), j = 1 sinh(x/2)/(x/2); odd terms vanish
    cosh, sinh_over = (
        TruncatedSeries([Fraction(1, factorial(k + j) * 2**k) if k % 2 == 0 else 0
                         for k in range(order + 1)])
        for j in (0, 1)
    )
    return cosh * sinh_over.inverse()


def _admissible(y) -> Fraction:
    y = Fraction(y)
    if y == -1:
        raise ValueError("series family undefined at y = -1")
    return y


def hirzebruch_series(y, todd: TruncatedSeries) -> TruncatedSeries:
    """x(1 + y*e**(-x(1+y))) / (1 - e**(-x(1+y))) at a concrete y != -1,
    to todd's order.

    The classical three-point family: y = 0 gives the Todd series, and
    substituting x -> x/2 at y = 1 gives the half-angle cotangent.
    x/(1 - e**(-s*x)) is Todd(s*x)/s with s = 1+y.
    """
    y = _admissible(y)
    s = 1 + y
    factor = 1 + y * TruncatedSeries.exponential(-s, todd.order)
    return todd.scale_argument(s) * factor * (1 / s)


def qy_series(y, todd: TruncatedSeries) -> TruncatedSeries:
    """(1/(1+y)) * Todd(x) * (1 + y*e**(-x)) at a concrete y != -1.

    The normalized family: equals hirzebruch_series(y, todd) with
    x -> x/(1+y), hits Todd at y = 0 and the half-angle cotangent at
    y = 1 with no further substitution.  It is Todd(x) - (y/(1+y)) * x,
    because Todd(x) * e**(-x) = Todd(x) - x.
    """
    y = _admissible(y)
    # y/(1+y) = p/(p+q) at y = p/q, taken off Todd's row over den*(p+q)
    p, s = y.numerator, y.numerator + y.denominator
    nums = [a * s for a in todd.nums]
    if todd.order:
        nums[1] -= todd.den * p
    return TruncatedSeries._row(nums, todd.den * s)


def qy_series_cleared(todd: TruncatedSeries) -> tuple[YPoly, ...]:
    """The coefficients of (1+y) * qy_series, x**0 first.

    Exactly Todd(x) * (1 + y*e**(-x)), assembled coefficient by
    coefficient as the YPoly todd_k + y*(todd_k - [k == 1]), since
    (todd*e**(-x))_k is todd_k, less 1 at k = 1; symbolic in y, so one
    tuple covers every admissible weight.
    """
    return tuple(
        YPoly((t, t - 1 if k == 1 else t)) for k, t in enumerate(todd.coeffs)
    )


def verify_identities(todd: TruncatedSeries, lhat: TruncatedSeries,
                      cleared: tuple[YPoly, ...]) -> dict[str, bool]:
    """Exact cross-checks tying the family together; all should be True.

    todd and lhat are todd_series and lhat_series at one order, lhat
    built from cosh and sinh independently of todd, and cleared is
    qy_series_cleared(todd).  Each identity is series algebra along its
    own route.  The family comes from qy_series, Todd minus a line; the
    product e**(-x) * Todd is the independent route of todd_reflection
    and of weighted_average_form, which rebuilds the family from it, and
    classical_family_halved runs the classical family at y = 1 through
    its own product before x -> x/2.
    """
    order = todd.order
    todd_neg = todd.scale_argument(-1)
    shifted = TruncatedSeries.exponential(-1, order) * todd
    sample_ys = (Fraction(2), Fraction(-1, 2), Fraction(5, 3))
    # (1+y) * family: what the cleared family is at y
    cleared_at = {y: qy_series(y, todd) * (1 + y) for y in sample_ys}
    # the cleared family is the sum of y**j * rows[j], read off its YPolys
    rows = [TruncatedSeries([c.coefficient(j) for c in cleared])
            for j in range(1 + max(c.degree for c in cleared))]
    return {
        "todd_defining_product": todd * _one_minus_exp_over_x(order)
        == TruncatedSeries.constant(1, order),
        "todd_reflection": todd_neg == shifted,
        "average_is_half_angle": (todd + todd_neg) * Fraction(1, 2) == lhat,
        "half_angle_is_even": lhat.scale_argument(-1) == lhat,
        "family_at_zero_is_todd": qy_series(0, todd) == todd,
        "family_at_one_is_half_angle": qy_series(1, todd) == lhat,
        "classical_family_halved": hirzebruch_series(1, todd)
        .scale_argument(Fraction(1, 2)) == lhat,
        "cleared_family_matches": all(
            sum((r * y**j for j, r in enumerate(rows[1:], 1)), rows[0])
            == cleared_at[y]
            for y in sample_ys
        ),
        "weighted_average_form": all(
            cleared_at[y] == todd + shifted * y for y in sample_ys
        ),
    }

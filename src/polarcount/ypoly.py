"""Polynomials and (1+y)-power fractions in the weight parameter y.

The weight attached to a point never needs a general rational function
of y: every quantity in this package is a polynomial in y divided by a
power of (1+y).  YPoly is a dense univariate polynomial over Q; YFrac
is YPoly / (1+y)**power, kept in lowest terms so equality is structural.

Coefficients are stored as int whenever they are integral and as
Fraction otherwise.  The weights, the vertex terms and the lattice sums
all have integer coefficients, so their products run on Python ints;
since hash(2) == hash(Fraction(2)), equality, hashing and printing do
not depend on the stored type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _scalar(c) -> Scalar:
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _normalise(coeffs) -> tuple:
    """Coefficients as int when integral, else Fraction; trailing zeros cut."""
    out = [c if type(c) is int else _scalar(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class YPoly:
    """Dense polynomial in y with rational coefficients, index = degree.

    A coefficient is an int when it is integral and a Fraction otherwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _normalise(coeffs)

    @classmethod
    def const(cls, c) -> "YPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("YPoly", self.coeffs))

    def __add__(self, other) -> "YPoly":
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return YPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> "YPoly":
        return YPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "YPoly":
        other = _as_ypoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return YPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return YPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "YPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = YPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, yval) -> Fraction:
        acc = Fraction(0)
        y = Fraction(yval)
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def div_one_plus_y(self):
        """Exact quotient by (1+y), or None when not divisible.

        Synthetic division at y = -1: the remainder a[0] - q[0] is the
        value there.
        """
        if not self:
            return YPoly()
        # Quotient coefficients from the top down: q[d-1] = a[d],
        # q[i-1] = a[i] - q[i].
        a = self.coeffs
        q = [0] * (len(a) - 1)
        carry = 0
        for i in range(len(a) - 1, 0, -1):
            carry = a[i] - carry
            q[i - 1] = carry
        if a[0] != carry:
            return None
        return YPoly(q)

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}y" if k == 1 else f"{mag}y^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"YPoly({self.coeffs!r})"


def _as_ypoly(x):
    if isinstance(x, YPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return YPoly((x,))
    return NotImplemented


ONE_PLUS_Y = YPoly((1, 1))
Y = YPoly((0, 1))


class YFrac:
    """num / (1+y)**power, reduced so (1+y) does not divide num (unless 0)."""

    __slots__ = ("num", "power")

    def __init__(self, num, power: int = 0):
        num = _as_ypoly(num)
        if num is NotImplemented:
            raise TypeError("numerator must be YPoly, int, or Fraction")
        if power < 0:
            num = num * ONE_PLUS_Y ** (-power)
            power = 0
        while power > 0 and num:
            q = num.div_one_plus_y()
            if q is None:
                break
            num, power = q, power - 1
        if not num:
            power = 0
        self.num = num
        self.power = power

    @classmethod
    def weight(cls, unflipped_zeros: int, flipped_zeros: int) -> "YFrac":
        """(1/(1+y))**r1 * (y/(1+y))**r2 for r1, r2 >= 0."""
        r1, r2 = unflipped_zeros, flipped_zeros
        if r1 < 0 or r2 < 0:
            raise ValueError("zero-coordinate counts must be nonnegative")
        return cls(Y**r2, r1 + r2)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.power == other.power

    def __hash__(self):
        return hash(("YFrac", self.num.coeffs, self.power))

    def __add__(self, other) -> "YFrac":
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        p = max(self.power, other.power)
        a = self.num * ONE_PLUS_Y ** (p - self.power)
        b = other.num * ONE_PLUS_Y ** (p - other.power)
        return YFrac(a + b, p)

    __radd__ = __add__

    def __neg__(self) -> "YFrac":
        return YFrac(-self.num, self.power)

    def __sub__(self, other):
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "YFrac":
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return YFrac(self.num * other.num, self.power + other.power)

    __rmul__ = __mul__

    def __call__(self, yval) -> Fraction:
        y = Fraction(yval)
        if y == -1:
            raise ZeroDivisionError("weight fraction undefined at y = -1")
        return self.num(y) / (1 + y) ** self.power

    def cleared(self, total_power: int) -> YPoly:
        """num * (1+y)**(total_power - power); total_power >= power required."""
        if total_power < self.power:
            raise ValueError(
                f"cannot clear to (1+y)^{total_power}: denominator is (1+y)^{self.power}"
            )
        return self.num * ONE_PLUS_Y ** (total_power - self.power)

    def __str__(self) -> str:
        num = str(self.num)
        if self.power == 0:
            return num
        if sum(1 for c in self.num.coeffs if c != 0) > 1:
            num = f"({num})"
        den = "(1+y)" if self.power == 1 else f"(1+y)^{self.power}"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"YFrac({self.num!r}, {self.power})"


def _as_yfrac(x):
    if isinstance(x, YFrac):
        return x
    if isinstance(x, (int, Fraction, YPoly)):
        return YFrac(x)
    return NotImplemented

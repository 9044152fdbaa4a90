"""The weight ring: polynomials in u = 1/(1+y), and their y forms.

Every weight in this package is an integer polynomial in u and 1-u =
y/(1+y): a point on a codim-c face weighs u^c, and a cone point weighs
u^r1 * (1-u)^r2.  YFrac stores such a weight as a Laurent polynomial in
u; as u ranges over Q minus 0, y = 1/u - 1 ranges over every admissible
y, so equality in u is equality for all y.  This module is the one
owner of that form: YFrac.combination builds every weight, YFrac.__call__
evaluates it in ints, and YFrac.__str__ prints its y form
num / (1+y)**power in lowest terms, read off the u form.

YPoly is a dense polynomial in y over Q: the y form's numerator, and the
coefficient ring of the series family and of the printed lattice sum.
YPoly.__call__ evaluates in ints too: the coefficients are cleared to
one denominator, Horner's rule runs on y's numerator and denominator,
and one Fraction is built at the end.
Coefficients are stored as int whenever they are integral and as
Fraction otherwise; since hash(2) == hash(Fraction(2)), equality,
hashing and printing do not depend on the stored type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm
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
        # a constant equals its scalar, so it hashes as one
        if self.degree < 1:
            return hash(self.coefficient(0))
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
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

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
        """The value at y = a/b, b > 0: N / (D * b**degree) for the lcm D
        of the coefficients' denominators and N = sum of D*c_k * a**k *
        b**(degree-k), taken by Horner's rule in ints."""
        y = yval if type(yval) is Fraction else Fraction(yval)
        if not self.coeffs:
            return Fraction(0)
        a, b = y.numerator, y.denominator
        den = 1
        for c in self.coeffs:
            if type(c) is Fraction:
                den = lcm(den, c.denominator)
        acc, bk = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c.numerator * (den // c.denominator) * bk
            bk *= b
        return Fraction(acc, den * b**self.degree)

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

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


def _u_sum(terms) -> dict:
    """The u-polynomial summing c * u**k over the (k, c) pairs of terms."""
    u: dict = {}
    for k, c in terms:
        u[k] = u.get(k, 0) + c
    return {k: c for k, c in u.items() if c}


def _yfrac(u: dict) -> "YFrac":
    f = object.__new__(YFrac)
    f.u = u
    return f


@cache
def _binomial_row(r1: int, r2: int) -> tuple:
    """(k, c) pairs of u**r1 * (1-u)**r2 = sum of c * u**k; r1 may be
    negative, r2 may not: (1-u)**r2 for r2 < 0 is no polynomial in u."""
    if r2 < 0:
        raise ValueError(f"(1-u) power must be nonnegative, got {r2}")
    return tuple((r1 + i, (-1) ** i * comb(r2, i)) for i in range(r2 + 1))


def den_text(power: int) -> str:
    """The printed denominator (1+y)**power, power >= 1."""
    return "(1+y)" if power == 1 else f"(1+y)^{power}"


class YFrac:
    """num / (1+y)**power, stored as a Laurent polynomial in u = 1/(1+y).

    u maps each exponent k to a nonzero coefficient c_k.  Since
    1+y = 1/u, the lowest terms are read off: power is max(0, top
    exponent) and num is the sum of c_k * (1+y)**(power - k), which
    (1+y) does not divide when power > 0.
    """

    __slots__ = ("u",)

    def __init__(self, num, power: int = 0):
        num = _as_ypoly(num)
        if num is NotImplemented:
            raise TypeError("numerator must be YPoly, int, or Fraction")
        # a * y**k / (1+y)**power = a * u**(power-k) * (1-u)**k
        self.u = YFrac.combination(
            {(power - k, k): a for k, a in enumerate(num.coeffs)}
        ).u

    @classmethod
    def combination(cls, table: dict) -> "YFrac":
        """Sum of c * u**r1 * (1-u)**r2 over table {(r1, r2): c}, r2 >= 0,
        from cached binomial rows."""
        u: dict = {}
        for counts, c in table.items():
            # no c = 0 shortcut: a malformed key raises whatever its c
            for k, b in _binomial_row(*counts):
                u[k] = u.get(k, 0) + c * b
        return _yfrac({k: c for k, c in u.items() if c})

    @classmethod
    def weight(cls, unflipped_zeros: int, flipped_zeros: int) -> "YFrac":
        """(1/(1+y))**r1 * (y/(1+y))**r2 = u**r1 * (1-u)**r2 for r1, r2 >= 0."""
        if unflipped_zeros < 0 or flipped_zeros < 0:
            raise ValueError("zero-coordinate counts must be nonnegative")
        return cls.combination({(unflipped_zeros, flipped_zeros): 1})

    @property
    def power(self) -> int:
        return max(0, max(self.u, default=0))

    @property
    def num(self) -> YPoly:
        return self.cleared(self.power)

    def __bool__(self) -> bool:
        return bool(self.u)

    def __eq__(self, other) -> bool:
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return self.u == other.u

    def __hash__(self):
        # with no positive power of u the value is the YPoly num, which it
        # equals (a constant equals its scalar), so it hashes as that
        if self.power == 0:
            return hash(self.num)
        return hash(frozenset(self.u.items()))

    def __add__(self, other) -> "YFrac":
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return _yfrac(_u_sum([*self.u.items(), *other.u.items()]))

    __radd__ = __add__

    def __neg__(self) -> "YFrac":
        return _yfrac({k: -c for k, c in self.u.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other) -> "YFrac":
        other = _as_yfrac(other)
        if other is NotImplemented:
            return NotImplemented
        return _yfrac(_u_sum(
            (i + j, a * b) for i, a in self.u.items() for j, b in other.u.items()
        ))

    __rmul__ = __mul__

    def __call__(self, yval) -> Fraction:
        """The value at y = a/b, b > 0: with u = b/(a+b), N / (b**-lo *
        (a+b)**hi) for N = sum of c_k * b**(k-lo) * (a+b)**(hi-k), taken
        by Horner's rule over the span [lo, hi] of 0 and the u-exponents."""
        y = yval if type(yval) is Fraction else Fraction(yval)
        a, b = y.numerator, y.denominator
        s = a + b
        if s == 0:
            raise ZeroDivisionError("weight fraction undefined at y = -1")
        u = self.u
        if not u:
            return Fraction(0)
        lo, hi = min(0, *u), max(0, *u)
        acc, bk = 0, 1
        for k in range(lo, hi + 1):
            acc = acc * s + u.get(k, 0) * bk
            bk *= b
        return Fraction(acc, b**-lo * s**hi)

    def cleared(self, total_power: int) -> YPoly:
        """num * (1+y)**(total_power - power); total_power >= power required."""
        if total_power < self.power:
            raise ValueError(
                f"cannot clear to (1+y)^{total_power}: denominator is (1+y)^{self.power}"
            )
        # sum of c_k * (1+y)**(total_power - k), by Horner's rule in 1+y
        acc = YPoly()
        for k in range(min(self.u, default=total_power), total_power + 1):
            acc = acc * ONE_PLUS_Y + self.u.get(k, 0)
        return acc

    def __str__(self) -> str:
        num, power = self.num, self.power
        text = str(num)
        if power == 0:
            return text
        if sum(1 for c in num.coeffs if c != 0) > 1:
            text = f"({text})"
        return f"{text}/{den_text(power)}"

    def __repr__(self) -> str:
        return f"YFrac({self.num!r}, {self.power})"


def _as_yfrac(x):
    if isinstance(x, YFrac):
        return x
    if isinstance(x, (int, Fraction, YPoly)):
        return YFrac(x)
    return NotImplemented

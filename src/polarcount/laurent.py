"""Sparse Laurent polynomials in z_1..z_n over Q[y], and their quotients.

Exponents may be negative; coefficients are YPoly.  RationalFunction
keeps an unreduced numerator/denominator pair: full gcd computation in
many variables is never needed here, because identity checks go through
cross-multiplication and normalize() only cancels monomial factors and
rational content.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .ypoly import YPoly, _as_ypoly

Expo = tuple


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Expo, object] | None = None):
        self.nvars = nvars
        clean: dict[Expo, YPoly] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError(
                        f"exponent {expo} has length {len(expo)}, expected {nvars}"
                    )
                c = _as_ypoly(coeff)
                if c is NotImplemented:
                    raise TypeError(f"bad coefficient type {type(coeff).__name__}")
                if c:
                    clean[tuple(int(e) for e in expo)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, expo: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(nvars, {tuple(expo): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        c = _as_ypoly(other)
        if c is NotImplemented:
            return NotImplemented
        return LaurentPoly.const(self.nvars, c)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, YPoly()) + c
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Expo, YPoly] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def coefficient(self, expo: Sequence[int]) -> YPoly:
        return self.terms.get(tuple(expo), YPoly())

    def eval(self, point: Sequence, yval) -> Fraction:
        """Value at z = point, y = yval; every coordinate must be nonzero."""
        pt = [Fraction(p) for p in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        if any(p == 0 for p in pt):
            raise ValueError("Laurent polynomial evaluated at a zero coordinate")
        total = Fraction(0)
        for expo, c in self.terms.items():
            val = c(yval)
            for p, e in zip(pt, expo):
                val *= p**e
            total += val
        return total

    def min_exponents(self) -> Expo:
        """Per-variable minimum exponent over the support (zero poly: all 0)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def content(self) -> Fraction:
        """gcd of all rational coefficients across all terms."""
        total = Fraction(0)
        for c in self.terms.values():
            for a in c.coeffs:
                if a == 0:
                    continue
                if total == 0:
                    total = abs(a)
                else:
                    total = Fraction(
                        gcd(total.numerator * a.denominator,
                            a.numerator * total.denominator),
                        total.denominator * a.denominator,
                    )
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms):
            c = self.terms[expo]
            factors = []
            cs = str(c)
            if c.degree > 0 or " " in cs or cs.startswith("-"):
                cs = f"({cs})"
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                name = f"z{i + 1}" if self.nvars > 1 else "z"
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors or cs != "1":
                factors.insert(0, cs)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {self.terms!r})"


class RationalFunction:
    """Quotient of Laurent polynomials; the denominator is never zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if num.nvars != den.nvars:
            raise ValueError("variable-count mismatch")
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        coerced = self.num._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * coerced, self.den)

    __rmul__ = __mul__

    def normalize(self) -> "RationalFunction":
        """Cancel the common monomial factor and rational content.

        This is deliberately partial: no multivariate gcd.  Equality
        questions go through equivalent().
        """
        if not self.num:
            return RationalFunction(
                LaurentPoly.zero(self.num.nvars),
                LaurentPoly.const(self.num.nvars, 1),
            )
        shift = tuple(
            min(a, b) for a, b in zip(self.num.min_exponents(), self.den.min_exponents())
        )
        unshift = LaurentPoly.monomial(self.num.nvars, tuple(-s for s in shift))
        num, den = self.num * unshift, self.den * unshift
        cn, cd = num.content(), den.content()
        c = Fraction(
            gcd(cn.numerator * cd.denominator, cd.numerator * cn.denominator),
            cn.denominator * cd.denominator,
        )
        if c not in (0, 1):
            inv = 1 / c
            num = num * YPoly.const(inv)
            den = den * YPoly.const(inv)
        return RationalFunction(num, den)

    def eval(self, point: Sequence, yval) -> Fraction:
        dval = self.den.eval(point, yval)
        if dval == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.eval(point, yval) / dval

    def equivalent(self, other: "RationalFunction") -> bool:
        """Mathematical equality by cross-multiplication."""
        return self.num * other.den == other.num * self.den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        num, den = str(self.num), str(self.den)
        if den == "1":
            return num
        return f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

"""Sparse Laurent polynomials in z_1..z_n, and their quotients.

Exponents may be negative.  Coefficients are kept as given, with zeros
dropped: the generating functions carry u = 1/(1+y) as a last variable
and have int coefficients.  Only the lattice sum that the brion command
prints has YPoly coefficients: each point's weight c * u^k is cleared
by YFrac.cleared to the common denominator (1+y)^n, so its n+1
distinct coefficients are shared by every point, and printing formats
each distinct coefficient once.
RationalFunction, the type of latticegen.brion_sum and vertex_genfun
only, keeps an unreduced numerator/denominator pair, and equivalent
cross-multiplies whole denominators, so no gcd is ever taken.
latticegen.brion_check builds none: it multiplies the lattice sum by the
vertex sum's binomials (1 - z^b) one shift at a time.

LaurentPoly.at evaluates the chi command's vertex sum at a concrete
(z, u), its int terms over one common denominator; the lattice sum is
read off the enumeration's rows in the same split of each coordinate
(latticegen.codim_sums).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Expo = tuple


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Expo, object] | None = None):
        self.nvars = nvars
        self.terms: dict[Expo, object] = {}
        for expo, c in (terms or {}).items():
            if len(expo) != nvars:
                raise ValueError(
                    f"exponent {expo} has length {len(expo)}, expected {nvars}"
                )
            key = tuple(map(int, expo))
            if key != tuple(expo):
                raise ValueError(f"exponent {expo} is not integral")
            if c:
                self.terms[key] = c

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "LaurentPoly":
        """From int-tuple exponents, as arithmetic makes them; zeros dropped."""
        p = object.__new__(cls)
        p.nvars, p.terms = nvars, {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, expo: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(nvars, {tuple(expo): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes as one
        zero = (0,) * self.nvars
        if self.terms.keys() <= {zero}:
            return hash(self.coefficient(zero))
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, 0) + c
        return LaurentPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Expo, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly._of(self.nvars, out)

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

    def coefficient(self, expo: Sequence[int]):
        return self.terms.get(tuple(expo), 0)

    def at(self, point: Sequence) -> Fraction:
        """The exact value at a point of rationals (ints or Fractions).

        Needs int or Fraction coefficients.  A coordinate a/b whose
        exponents span [lo, hi] contributes the int a**(e-lo) * b**(hi-e)
        to a term with exponent e, and a**lo / b**hi once to the whole
        sum; variables whose exponent is always 0 are skipped.  Each
        coefficient is multiplied as given, so int coefficients sum as
        ints, and one Fraction is built at the end, so a zero coordinate
        under a negative exponent raises ZeroDivisionError.
        """
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        num = den = 1
        tables = []
        for i, column in enumerate(zip(*self.terms)):
            lo, hi = min(column), max(column)
            if lo == hi == 0:
                continue
            a, b = point[i].numerator, point[i].denominator
            if lo >= 0:
                num *= a**lo
            else:
                den *= a**-lo
            if hi >= 0:
                den *= b**hi
            else:
                num *= b**-hi
            powers = {}
            for e in column:
                if e not in powers:
                    powers[e] = a ** (e - lo) * b ** (hi - e)
            tables.append((i, powers))
        total = 0
        for expo, c in self.terms.items():
            t = c
            for i, powers in tables:
                t *= powers[expo[i]]
            total += t
        return Fraction(num * total, den)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        texts: dict = {}  # each distinct coefficient is formatted once
        for expo in sorted(self.terms):
            c = self.terms[expo]
            factors = []
            # keyed by type too: 2 == 2.0, but they print differently
            cs = texts.get((type(c), c))
            if cs is None:
                cs = str(c)
                # anything but a nonnegative rational, such as -3 or y + 1
                if not cs.replace("/", "", 1).isdigit():
                    cs = f"({cs})"
                texts[type(c), c] = cs
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

    def equivalent(self, other: "RationalFunction") -> bool:
        """Mathematical equality by cross-multiplication.

        A denominator that is the constant 1 is not multiplied by.
        """
        left = self.num if _is_one(other.den) else self.num * other.den
        right = other.num if _is_one(self.den) else other.num * self.den
        return left == right

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _is_one(p: LaurentPoly) -> bool:
    return p.terms == {(0,) * p.nvars: 1}

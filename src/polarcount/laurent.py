"""Sparse Laurent polynomials in z_1..z_n, and their quotients.

Exponents may be negative.  Coefficients are kept as given, with zeros
dropped: the generating functions carry u = 1/(1+y) as a last variable
and have int coefficients.  format_terms is the one monomial printer:
it prints rows of terms that share all but their last exponent, each
row's shared text made once.  LaurentPoly.__str__ prints its sorted
terms through it, and so does latticegen.format_lattice_sum, which
passes the rows of the lattice walk with the text of each point's
weight u^k cleared to (1+y)^n, made once per codimension k.
RationalFunction, the type of latticegen.brion_sum and vertex_genfun
only, keeps an unreduced numerator/denominator pair, and equivalent
cross-multiplies whole denominators, so no gcd is ever taken.
latticegen.brion_check builds none: its vertex numerators are
LaurentPoly products in one variable t, each factor put in t by
Kronecker's substitution, where multiplying two exponents is one int
addition; the rest of the Brion identity runs on int keys in
latticegen, which brion_sum unpacks to LaurentPolys in n+1 variables.
LaurentPoly adds and multiplies but does not evaluate: the chi command
evaluates each vertex's factors at a concrete (z, u) from the vertex
and its edges (latticegen.chi_y_vertex_sum).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
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
        """From int-tuple exponents, as arithmetic makes them; zeros
        dropped.  Takes terms over: every caller passes a dict of its own."""
        p = object.__new__(cls)
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        p.nvars, p.terms = nvars, terms
        return p

    @classmethod
    def const(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

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

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Expo, object] = {}
        get = out.get
        if self.nvars == 1:
            # in one variable an exponent is one int, and so is their sum
            for (e1,), c1 in self.terms.items():
                for (e2,), c2 in other.terms.items():
                    key = (e1 + e2,)
                    out[key] = get(key, 0) + c1 * c2
            return LaurentPoly._of(1, out)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
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

    def __str__(self) -> str:
        texts: dict = {}  # each distinct coefficient is formatted once

        def text(c) -> str:
            # keyed by type too: 2 == 2.0, but they print differently
            cs = texts.get((type(c), c))
            if cs is None:
                cs = texts[type(c), c] = coefficient_text(c)
            return cs

        # the sorted exponents, in runs that share all but the last entry
        rows = groupby(sorted(self.terms), key=lambda e: e[:-1])
        return format_terms(self.nvars, (
            (head, [(e[-1], text(self.terms[e])) for e in run])
            for head, run in rows
        ))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, {self.terms!r})"


def coefficient_text(c) -> str:
    """c as it prints before a monomial: in parentheses unless it is a
    nonnegative rational, such as -3 or y + 1."""
    cs = str(c)
    return cs if cs.replace("/", "", 1).isdigit() else f"({cs})"


class _Powers(dict):
    """The texts of the powers of one variable, each made when first asked."""

    def __init__(self, name: str):
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = self.name if e == 1 else f"{self.name}^{e}"
        return text


def format_terms(nvars: int, rows) -> str:
    """The sum of the terms of rows, in the order given, as LaurentPoly
    prints it.  A row is (head, tail): head the exponents of the first
    nvars - 1 variables, shared by the row's terms, and tail its pairs
    (e, text) of the last variable's exponent and the coefficient's
    text.  A term is its coefficient text and its powers z{i}^e joined
    by *, the text left out when it is 1 before a nonconstant monomial;
    with one variable it is z.  Each power's text is made once, and each
    head's once per row."""
    names = [f"z{i + 1}" if nvars > 1 else "z" for i in range(nvars)]
    *powers, last = map(_Powers, names)
    parts = []
    for head, tail in rows:
        head_text = "*".join([texts[e] for texts, e in zip(powers, head) if e])
        lead = f"{head_text}*" if head_text else ""
        for e, cs in tail:
            monomial = lead + last[e] if e else head_text
            if not monomial:
                parts.append(cs)
            elif cs == "1":
                parts.append(monomial)
            else:
                parts.append(f"{cs}*{monomial}")
    return " + ".join(parts) or "0"


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

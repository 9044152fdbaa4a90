"""Exact linear algebra over the rationals.

Vectors are plain tuples of Fraction (ints are accepted and compare
equal), matrices are tuples of row tuples.  Everything here is
immutable, hashable, and exact; no floats anywhere.

One elimination serves every routine: the Fraction Gauss-Jordan
_eliminate, which solve_linear, inverse and rank read for the rank and
det reads for the product of its pivots.  No program path calls these
four: polytope construction reaches every vertex by integer pivots, the
tests use them as oracles for it, and the benchmark's tracer
(bench/tracing.py) wraps them by name.  dot, vadd and vsub are Fraction
oracles for the tests too.  oriented is the one sign rule for a line.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import neg
from typing import Iterable, Optional, Sequence

Vec = tuple
Mat = tuple


def vec(entries: Iterable) -> Vec:
    """Coerce an iterable of ints / Fractions / 'p/q' strings to a vector."""
    return tuple(Fraction(e) for e in entries)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> Vec:
    return tuple(Fraction(a) - b for a, b in zip(u, v))


def clear_denominators(x: Sequence) -> tuple[tuple[int, ...], int]:
    """(X, d) with x = X / d: d > 0 is the lcm of the denominators of x."""
    d = lcm(*(a.denominator for a in x))
    return tuple(a.numerator * (d // a.denominator) for a in x), d


def _eliminate(rows: list[list[Fraction]], cols: Optional[int] = None) -> tuple:
    """In-place Gauss-Jordan over the first cols columns; returns (rank,
    product), with product the product of the pivots, negated once per
    row swap: the determinant of a square block of full rank.

    Rows may be augmented (wider than tall); cols keeps the pivots out of
    the appended block, so a singular coefficient matrix is reported as
    such instead of borrowing rank from the right-hand side.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if cols is None:
        cols = ncols
    rank_ = 0
    product = Fraction(1)
    for col in range(cols):
        if rank_ == m:
            break
        pivot = next((r for r in range(rank_, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank_:
            rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
            product = -product
        pv = rows[rank_][col]
        product *= pv
        rows[rank_] = [a / pv if a else a for a in rows[rank_]]
        for r in range(m):
            if r != rank_ and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[rank_])]
        rank_ += 1
    return rank_, product


def solve_linear(rows: Sequence[Sequence], b: Sequence) -> Optional[Vec]:
    """Solve the square system A x = b exactly; None when A is singular."""
    n = len(rows)
    aug = [[Fraction(a) for a in row] + [Fraction(bi)] for row, bi in zip(rows, b)]
    if _eliminate(aug, n)[0] < n:
        return None
    # After full Gauss-Jordan on a nonsingular matrix the left block is I.
    return tuple(aug[i][n] for i in range(n))


def det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    rank_, product = _eliminate([[Fraction(a) for a in row] for row in rows], n)
    return product if rank_ == n else Fraction(0)


def inverse(rows: Sequence[Sequence]) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    aug = [
        [Fraction(a) for a in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if _eliminate(aug, n)[0] < n:
        return None
    return tuple(tuple(aug[i][n:]) for i in range(n))


def rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the given vectors."""
    return _eliminate([[Fraction(a) for a in v] for v in vectors])[0]


def primitive(v: Sequence) -> tuple[int, ...]:
    """Shortest integer vector on the same ray as a nonzero rational vector.

    Clears denominators, then divides by the gcd; direction is preserved,
    so primitive((0, -5)) == (0, -1).
    """
    fracs = [Fraction(a) for a in v]
    if all(a == 0 for a in fracs):
        raise ValueError("zero vector has no primitive representative")
    mult = lcm(*(a.denominator for a in fracs))
    ints = [int(a * mult) for a in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


def oriented(p: Sequence[int]) -> tuple[int, ...]:
    """p itself or -p, whichever has its first nonzero entry positive."""
    return p if next(filter(None, p)) > 0 else tuple(map(neg, p))


def canonical_direction(v: Sequence) -> tuple[int, ...]:
    """Primitive vector for the line through v, oriented."""
    return oriented(primitive(v))

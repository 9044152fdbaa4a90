"""Exact linear algebra over the rationals.

Vectors are plain tuples of Fraction (ints are accepted and compare
equal), matrices are tuples of row tuples.  Everything here is
immutable, hashable, and exact; no floats anywhere.

No program path calls integer_inverse: polytope construction reaches
every vertex, the first one included, by integer pivots, and the tests
call integer_inverse (through polytope.vertex_frame) as an oracle for
them.  The Fraction routines solve_linear, det, inverse and rank are no
longer called by the program either: the tests use them as oracles for
it, and the benchmark's tracer (bench/tracing.py) wraps them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _eliminate(rows: list[list[Fraction]], cols: Optional[int] = None) -> int:
    """In-place Gauss-Jordan over the first cols columns; returns the rank.

    Rows may be augmented (wider than tall); cols keeps the pivots out of
    the appended block, so a singular coefficient matrix is reported as
    such instead of borrowing rank from the right-hand side.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if cols is None:
        cols = ncols
    rank_ = 0
    for col in range(cols):
        if rank_ == m:
            break
        pivot = next((r for r in range(rank_, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        pv = rows[rank_][col]
        rows[rank_] = [a / pv if a else a for a in rows[rank_]]
        for r in range(m):
            if r != rank_ and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[rank_])]
        rank_ += 1
    return rank_


def solve_linear(rows: Sequence[Sequence], b: Sequence) -> Optional[Vec]:
    """Solve the square system A x = b exactly; None when A is singular."""
    n = len(rows)
    if n == 0:
        return ()
    aug = [[Fraction(a) for a in row] + [Fraction(bi)] for row, bi in zip(rows, b)]
    if _eliminate(aug, n) < n:
        return None
    # After full Gauss-Jordan on a nonsingular matrix the left block is I.
    return tuple(aug[i][n] for i in range(n))


def det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    work = [[Fraction(a) for a in row] for row in rows]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        pv = work[col][col]
        result *= pv
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] / pv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return result


def inverse(rows: Sequence[Sequence]) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    aug = [
        [Fraction(a) for a in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if _eliminate(aug, n) < n:
        return None
    return tuple(tuple(aug[i][n:]) for i in range(n))


def integer_inverse(
    rows: Sequence[Sequence[int]],
) -> Optional[tuple[Mat, int]]:
    """(R, d) with rows^-1 = R / d, in integers; None when singular.

    Fraction-free Gauss-Jordan (Bareiss, 1968) on [A | I]: step k
    replaces every other row by (p_k * row - c * pivot row) / p_{k-1},
    where p_k is the k-th pivot, and each division is exact because every
    entry is then a minor of the augmented matrix.  A zero pivot is
    swapped with a later row.  The left block ends as d * I with
    d = +-det A (the sign is that of the row permutation), so it is not
    kept: column k is dropped once step k has used it.
    """
    n = len(rows)
    work = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if work[r][0]), None)
        if p is None:
            return None
        work[k], work[p] = work[p], work[k]
        top = work[k]
        pk, tail = top[0], top[1:]
        for i, row in enumerate(work):
            if i != k:
                c = row[0]
                work[i] = [(pk * a - c * b) // prev for a, b in zip(row[1:], tail)]
        work[k] = tail
        prev = pk
    return tuple(tuple(row) for row in work), prev


def rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the given vectors."""
    if not vectors:
        return 0
    work = [[Fraction(a) for a in v] for v in vectors]
    return _eliminate(work)


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


def canonical_direction(v: Sequence) -> tuple[int, ...]:
    """Primitive vector for the line through v: sign fixed so the first
    nonzero entry is positive."""
    p = primitive(v)
    first = next(a for a in p if a != 0)
    return p if first > 0 else tuple(-a for a in p)

"""Simple convex polytopes from facet inequalities, with exact arithmetic.

A polytope is the set {x : <x, u_i> >= lam_i for each facet}.  The
constructor finds the vertices, the primitive edge directions at each
vertex and the edges between vertices, and rejects anything that is not
a bounded simple polytope with irredundant facets.  Simplicity means
every vertex lies on exactly dim facets; it is what makes tangent cones
simplicial and the whole decomposition machinery well defined.

The polytope is kept in one exact form, all in ints: each facet scaled
once to an integer normal and offset (facets), and the vertices as
integer numerators over one common denominator (cleared_vertices),
which the boxes, the figure and the sample points read.  A vertex's
Fractions are made only where it is printed (fmt_point).  Vertices are
found by walking the vertex graph with integer pivots, as
reverse-search vertex enumeration does (Avis and Fukuda; lrs),
simplified for simple polytopes.  Each vertex carries a tableau
(_Tableau): the cleared point, its facet slacks, its edges d_i and the
rate table R[f][i] = <a_f, d_i>.  The ratio test (_blocking) along d_k
reads column k of R, once per edge, from the end the walk reaches
first.  The neighbour's tableau is the parent's after one fraction-free
pivot (_pivot) that swaps the relaxed facet for the blocking one, with
no sort, and scales |det| by the pivot's factors; a vertex is regular
exactly when that |det| is 1.  The same pivot finds the start vertex
(_first_vertex): a depth-first search over facet subsets in
lexicographic order enters one facet per level, starting from the
origin with the coordinate directions as free edges.  A pivot costs
O(facets * dim) integer operations, not one solve per dim-subset of the
facets.  A tie in a ratio test is a non-simple vertex, an edge no facet
blocks is an unbounded ray, and a facet no vertex touches is redundant.
Membership queries (contains, active_facets, face_codim) read the same
integer facet slacks.
"""

from __future__ import annotations

import io
import json
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .linalg import clear_denominators, vec


class PolytopeError(ValueError):
    """A facet system that does not describe a usable polytope."""


class NonSimpleError(PolytopeError):
    """Some vertex lies on more than dim facets."""


class UnboundedError(PolytopeError):
    """The inequality system describes an unbounded or empty region."""


class RedundantFacetError(PolytopeError):
    """Some inequality does not carry a full facet of the region."""


class PolytopeFormatError(ValueError):
    """A polytope file that cannot be parsed."""


class HalfSpace(NamedTuple):
    """{x : <x, normal> >= offset}, scaled to ints by clear_denominators."""

    normal: tuple[int, ...]
    offset: int


class Vertex(NamedTuple):
    """A vertex's active facets and primitive edge directions.

    edges[k] points from this vertex along the edge obtained by relaxing
    active facet active[k]; the edge list is ordered by ascending facet
    index, so it is reproducible.  The vertex's point is its row of
    Polytope.cleared_vertices.
    """

    active: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]


class Polytope:
    """Bounded simple polytope with irredundant facets.

    Attributes:
        dim:      ambient dimension n
        facets:   tuple of HalfSpace, each input row scaled to integers
        vertices: tuple of Vertex, sorted by point
        cleared_vertices: (nums, den): vertex k is the point nums[k] / den,
                  den > 0 the lcm of every coordinate's denominator
        regular:  True when every vertex edge matrix has determinant +-1
        integral: True when every vertex has integer coordinates
    """

    def __init__(self, facets: Sequence):
        """facets: (normal, offset) pairs of ints, Fractions or 'p/q' strings."""
        hs = tuple(map(_integer_row, facets))
        if not hs:
            raise PolytopeError("no facets given")
        n = len(hs[0].normal)
        if any(len(f.normal) != n for f in hs):
            raise PolytopeError("facet normals have mixed dimensions")
        if len(hs) < n + 1:
            raise PolytopeError(
                f"{len(hs)} facets cannot bound a {n}-dimensional polytope"
            )
        self.dim = n
        self.facets = hs
        self._reject_duplicate_facets()
        self.vertices, self.cleared_vertices, self._edges, self.regular = self._walk()
        self.integral = self.cleared_vertices[1] == 1

    # -- construction ------------------------------------------------

    def _reject_duplicate_facets(self):
        # two facets bound the same half-space exactly when their integer
        # rows are positive multiples, so when the rows reduced by their
        # gcd agree
        seen = {}
        for i, (normal, offset) in enumerate(self.facets):
            g = gcd(*normal, offset)
            key = (*(a // g for a in normal), offset // g)
            if key in seen:
                raise RedundantFacetError(
                    f"facets {seen[key]} and {i} define the same half-space"
                )
            seen[key] = i

    def _walk(self) -> tuple[tuple, tuple, tuple, bool]:
        """Every vertex with its edges, by pivoting along the vertex graph.

        The start's tableau comes from _first_vertex; every other
        vertex's is its parent's after one _pivot, made when it is first
        queued and dropped once it is popped.  Each edge is tested once,
        by _blocking from the end the walk reaches first: the test from
        u that enters facet j at w is recorded on w, which skips its
        edge relaxing j, back to u.  That test could neither tie nor be
        unbounded, as w's single blocking facet proves it simple, so the
        errors are those of testing both ends.  A tie makes the
        neighbour non-simple, and an edge no facet blocks is an
        unbounded ray.  Returns the vertices sorted by point, their
        cleared points, the edges as sorted index pairs and the regular
        flag.
        """
        n, facets = self.dim, self.facets
        start, tab = _first_vertex(facets)
        # a queued vertex's tableau and the facets whose edges are tested
        pending = {start: (tab, [])}
        graph, found, unbounded, todo = {}, [], {}, [start]
        regular = True
        while todo:
            active = todo.pop()
            tab, tested = pending.pop(active)
            regular = regular and tab.absdet == 1
            for k, (relaxed, d, col) in enumerate(zip(active, tab.edges, tab.rates)):
                if relaxed in tested:
                    continue
                blocking, near_s, near_r = _blocking(col, tab.slack)
                if not blocking:
                    unbounded.setdefault(active, d)
                    continue
                if len(blocking) > 1:
                    # the tie is at point + d * near_s / (near_r * den)
                    den = near_r * tab.den
                    raise _non_simple(
                        [x * near_r + near_s * a for x, a in zip(tab.num, d)], den,
                        tuple(sorted({*active, *blocking} - {relaxed})), n,
                    )
                # active is sorted: drop slot k and insert the entered facet
                j = blocking[0]
                rest = active[:k] + active[k + 1:]
                at = bisect_left(rest, j)
                nxt = rest[:at] + (j,) + rest[at:]
                found.append((active, nxt))
                # nxt is not popped yet, or its test back would be skipped
                if nxt not in pending:
                    pending[nxt] = (_pivot(tab, active, k, j), [])
                    todo.append(nxt)
                pending[nxt][1].append(j)
            graph[active] = (tab.num, tab.den, tab.edges)

        # num * (scale // den) orders the points as their Fractions do
        scale = lcm(*(den for _, den, _ in graph.values()))
        cleared = {
            active: num if den == scale else tuple(x * (scale // den) for x in num)
            for active, (num, den, _) in graph.items()
        }
        order = sorted(graph, key=cleared.__getitem__)
        for active in order:
            if active in unbounded:
                raise UnboundedError(
                    f"edge at vertex {fmt_point(*graph[active][:2])} "
                    f"along {unbounded[active]} never leaves the feasible region"
                )
        touched = set().union(*graph)
        for i in range(len(facets)):
            if i not in touched:
                raise RedundantFacetError(
                    f"facet {i} touches no vertex; the inequality is redundant"
                )
        index = {active: k for k, active in enumerate(order)}
        vertices = tuple(Vertex(a, graph[a][2]) for a in order)
        edges = sorted(tuple(sorted((index[a], index[b]))) for a, b in found)
        nums = tuple(cleared[a] for a in order)
        return vertices, (nums, scale), tuple(edges), regular

    # -- queries -----------------------------------------------------

    def _slacks(self, x: Sequence) -> list[int]:
        return facet_slacks(self.facets, *clear_denominators(x))

    def contains(self, x: Sequence) -> bool:
        return min(self._slacks(x)) >= 0

    def active_facets(self, x: Sequence) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self._slacks(x)) if s == 0)

    def face_codim(self, x: Sequence) -> Optional[int]:
        """Codimension of the smallest face containing x; None outside.

        For a simple polytope this is the number of tight facets:
        dim for a vertex, 1 on the relative interior of a facet, 0 inside.
        x is cleared to one denominator and read off its facet slacks.
        """
        return slack_codim(self._slacks(x))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs of adjacent vertex indices, each pair once, in sorted order."""
        return self._edges

    def barycenter(self) -> tuple:
        nums, den = self.cleared_vertices
        den *= len(nums)
        return tuple(Fraction(sum(col), den) for col in zip(*nums))

    def bounding_box(self) -> tuple[tuple, tuple]:
        nums, den = self.cleared_vertices
        columns = list(zip(*nums))
        return (
            tuple(Fraction(min(col), den) for col in columns),
            tuple(Fraction(max(col), den) for col in columns),
        )

    def integer_box(self, margin: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if margin < 0:
            raise ValueError(f"margin must be nonnegative, got {margin}")
        nums, den = self.cleared_vertices
        columns = list(zip(*nums))
        return (
            tuple(min(col) // den - margin for col in columns),
            tuple(-(-max(col) // den) + margin for col in columns),
        )

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, facets={len(self.facets)}, "
            f"vertices={len(self.vertices)}, regular={self.regular}, "
            f"integral={self.integral})"
        )


class _Tableau(NamedTuple):
    """One vertex of the walk, all in integers.

    The point is num / den with den > 0 and gcd(den, *num) == 1; slack
    holds <a_f, num> - b_f * den per facet; edges are the primitive
    edge directions d_i in active order; rates[i][f] = R[f][i] = <a_f,
    d_i>, so rates[i] is the column of R that the ratio test along d_i
    reads; absdet is |det| of the edge matrix.
    """

    num: tuple
    den: int
    slack: list
    edges: tuple
    rates: list
    absdet: int


def _first_vertex(facets: Sequence) -> tuple[tuple[int, ...], _Tableau]:
    """Active facets and tableau of the first vertex in subset order.

    Depth first over the dim-subsets of the integer facets in
    lexicographic order, on _pivot alone.  The root is the origin, whose
    edges are the coordinate directions, kept as free slots labelled
    -dim..-1, below every facet, so _pivot puts each entered facet's
    column last; the rates of slot k are a_f[k] and |det| is 1.  Facet
    i enters through the first free slot with a nonzero rate on it.  A
    facet with zero rate on every free slot has its normal in the span
    of the prefix's, so no extension has a unique solution and it is
    skipped.  The first full subset with no negative slack is the start
    vertex, and its tableau is the one the walk takes: the point, the
    primitive edges in facet order, the rates and |det| are all fixed
    by the active set.  An explicit stack holds one child per level,
    made when it is entered.
    """
    n = len(facets[0][0])
    root = _Tableau(
        (0,) * n, 1, [-b for _, b in facets],
        tuple(tuple(int(p == k) for p in range(n)) for k in range(n)),
        [list(col) for col in zip(*(a for a, _ in facets))], 1,
    )
    # (labels, tableau, next facet to try) per level of the prefix
    stack = [(tuple(range(-n, 0)), root, 0)]
    while stack:
        labels, tab, i = stack.pop()
        # len(stack) facets are entered and free slots remain, so the
        # next facet is at most len(facets) - free: the rest come after
        free = n - len(stack)
        stop = len(facets) - free
        while i <= stop and not any(col[i] for col in tab.rates[:free]):
            i += 1
        if i > stop:
            continue
        stack.append((labels, tab, i + 1))
        k = next(k for k in range(free) if tab.rates[k][i])
        child = _pivot(tab, labels, k, i)
        labels = labels[:k] + labels[k + 1:] + (i,)
        if free > 1:
            stack.append((labels, child, i + 1))
            continue
        if min(child.slack) < 0:
            continue
        active = tuple(f for f, s in enumerate(child.slack) if s == 0)
        if len(active) > n:
            raise _non_simple(child.num, child.den, active, n)
        return active, child
    raise UnboundedError(
        "inequality system has no vertices: the region is empty "
        "or unbounded with no corner"
    )


def _blocking(col: Sequence[int], slack: Sequence[int]) -> tuple[list, int, int]:
    """The ratio test along an edge with rates col: the facets f with
    col[f] < 0 of least step slack[f] / -col[f], and that step as (s, r)."""
    blocking, near_s, near_r = [], 0, 1
    for i in [i for i, r in enumerate(col) if r < 0]:
        s, r = slack[i], -col[i]
        if not blocking or s * near_r < near_s * r:
            blocking, near_s, near_r = [i], s, r
        elif s * near_r == near_s * r:
            blocking.append(i)
    return blocking, near_s, near_r


def _pivot(tab: _Tableau, active: tuple[int, ...], k: int, j: int) -> _Tableau:
    """The neighbour's tableau: leave active[k] along d_k, enter facet j.

    d_k is negated first if R[j][k] > 0, as only a free slot of the
    start search allows.  With rho = -R[j][k] > 0 and s_j the slack of
    j, the neighbour is (rho * num + s_j * d_k) / (rho * den) with
    slacks rho * S_f + s_j * R[f][k], all divided by the gcd of the
    point.  Its edge for j is -d_k, and for each other i it is (rho *
    d_i + R[j][i] * d_k) / g_i, which keeps every facet of S - {k}
    tight, vanishes on j, and is primitive after the division by its
    gcd g_i; its rates are (rho * R[f][i] + R[j][i] * R[f][k]) / g_i,
    each division exact.  Only the scaling of column i by rho / g_i
    changes |det|, so the new |det| is |det| * rho^(dim-1) / prod g_i.
    j's column goes in at its place in the sorted labels, with no sort.
    Cost: O(facets * dim).
    """
    col_k, d_k = tab.rates[k], tab.edges[k]
    if col_k[j] > 0:  # a free slot of the start search, turned to face j
        col_k, d_k = [-r for r in col_k], tuple(-a for a in d_k)
    rho, s_j = -col_k[j], tab.slack[j]
    num = [rho * x + s_j * a for x, a in zip(tab.num, d_k)]
    den = rho * tab.den
    slack = [rho * s + s_j * r for s, r in zip(tab.slack, col_k)]
    g = gcd(den, *num)
    if g > 1:
        num = [x // g for x in num]
        den //= g
        slack = [s // g for s in slack]
    edges, rates, content = [], [], 1
    for i, (d, col) in enumerate(zip(tab.edges, tab.rates)):
        if i == k:
            continue
        c = col[j]
        if c:
            # g_i is 1 on most pivots, and the divisions are then skipped
            d = [rho * x + c * y for x, y in zip(d, d_k)]
            g_i = gcd(*d)
            col = [rho * r + c * q for r, q in zip(col, col_k)]
            if g_i > 1:
                d = [x // g_i for x in d]
                col = [r // g_i for r in col]
            d = tuple(d)
        else:
            # (rho * d_i) / rho: the edge and its column are unchanged
            g_i = rho
        content *= g_i
        edges.append(d)
        rates.append(col)
    at = bisect_left(active, j) - (active[k] < j)
    edges.insert(at, tuple(-a for a in d_k))
    rates.insert(at, [-r for r in col_k])
    return _Tableau(
        tuple(num), den, slack, tuple(edges), rates,
        tab.absdet * rho ** (len(active) - 1) // content,
    )


def facet_slacks(rows: Sequence, num: Sequence[int], den: int) -> list[int]:
    """<a, num> - b * den for each integer row (a, b), with den > 0.

    Each slack has the sign of <a, x> - b at x = num / den: positive
    strictly inside the half-space, zero on its boundary, negative
    outside.  Rows are Polytope.facets or a subset of them.
    """
    if rows and len(num) != len(rows[0][0]):
        raise ValueError(f"dimension mismatch: {len(rows[0][0])} vs {len(num)}")
    return [sum(map(mul, a, num)) - b * den for a, b in rows]


def slack_codim(slack: Sequence[int]) -> Optional[int]:
    """Tight facets among a point's slacks over every facet; None outside."""
    return None if min(slack) < 0 else slack.count(0)


def fmt_point(x: Sequence, den: int = 1) -> str:
    """The point x / den in lowest terms, one Fraction per coordinate
    that is not already an int over 1."""
    if den == 1:
        parts = [str(a if type(a) is int else Fraction(a)) for a in x]
    else:
        parts = [str(Fraction(a, den)) for a in x]
    return "(" + ", ".join(parts) + ")"


def _integer_row(facet) -> HalfSpace:
    """A (normal, offset) pair scaled by the lcm of its denominators."""
    row = (*facet[0], facet[1])
    if any(type(a) is not int for a in row):  # a row of ints is kept
        if not all(type(a) is int or type(a) is Fraction for a in row):
            row = vec(row)  # strings, floats and subclasses, as Fractions
        row, _ = clear_denominators(row)
    if not any(row[:-1]):
        raise PolytopeError("facet normal must be nonzero")
    return HalfSpace(row[:-1], row[-1])


def _non_simple(num: Sequence[int], den: int, active: tuple, n: int) -> NonSimpleError:
    return NonSimpleError(
        f"vertex {fmt_point(num, den)} lies on {len(active)} facets "
        f"(indices {list(active)}); a simple {n}-polytope allows exactly {n}"
    )


# -- builders ---------------------------------------------------------


def _offset(size) -> int | Fraction:
    """-size, an int when integral: _integer_row keeps an int row as it is."""
    x = -Fraction(size)
    return x.numerator if x.denominator == 1 else x


def interval(length) -> Polytope:
    """[0, length] on the line."""
    if Fraction(length) <= 0:
        raise PolytopeError("interval length must be positive")
    return Polytope([((1,), 0), ((-1,), _offset(length))])


def hypercube(n: int, side=1) -> Polytope:
    """[0, side]**n."""
    if n < 1:
        raise PolytopeError("dimension must be at least 1")
    if Fraction(side) <= 0:
        raise PolytopeError("side must be positive")
    facets = []
    for i in range(n):
        e = tuple(int(p == i) for p in range(n))
        facets += [(e, 0), (tuple(-a for a in e), _offset(side))]
    return Polytope(facets)


def dilated_simplex(n: int, dilation=1) -> Polytope:
    """{x >= 0, sum x_i <= dilation}: the standard simplex scaled."""
    if n < 1:
        raise PolytopeError("dimension must be at least 1")
    if Fraction(dilation) <= 0:
        raise PolytopeError("dilation must be positive")
    facets = [(tuple(int(p == i) for p in range(n)), 0) for i in range(n)]
    facets.append(((-1,) * n, _offset(dilation)))
    return Polytope(facets)


def trapezoid(width=2, height=1) -> Polytope:
    """{x >= 0, y >= 0, y <= height, x + y <= width}; needs width > height."""
    if not Fraction(width) > Fraction(height) > 0:
        raise PolytopeError("trapezoid needs width > height > 0")
    return Polytope(
        [
            ((1, 0), 0),
            ((0, 1), 0),
            ((0, -1), _offset(height)),
            ((-1, -1), _offset(width)),
        ]
    )


def prism(dilation=1, height=1) -> Polytope:
    """Triangle {x,y >= 0, x+y <= dilation} times the segment [0, height]."""
    if Fraction(dilation) <= 0 or Fraction(height) <= 0:
        raise PolytopeError("prism needs positive dilation and height")
    return Polytope(
        [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((-1, -1, 0), _offset(dilation)),
            ((0, 0, 1), 0),
            ((0, 0, -1), _offset(height)),
        ]
    )


# -- file format -------------------------------------------------------

_NUMBER_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_number(x, where: str) -> int | Fraction:
    """A JSON int as it is, or a 'p/q' string as a Fraction."""
    if isinstance(x, bool):
        raise PolytopeFormatError(f"{where}: booleans are not numbers")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if not _NUMBER_RE.match(x.strip()):
            raise PolytopeFormatError(
                f"{where}: {x!r} is not an integer or 'p/q' fraction"
            )
        try:
            return Fraction(x.strip())
        except ValueError:
            # past the pattern, only the integer digit limit fails here
            raise PolytopeFormatError(f"{where}: {_too_many_digits()}") from None
    raise PolytopeFormatError(
        f"{where}: expected an integer or 'p/q' string, got {type(x).__name__}"
    )


def _too_many_digits() -> str:
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"


def _parse_int(text: str) -> int:
    """json's integer hook: int, with the digit limit as a format error."""
    try:
        return int(text)
    except ValueError:
        raise PolytopeFormatError(_too_many_digits()) from None


def _reject_float(value):
    raise PolytopeFormatError(
        f"floating-point literal {value!r} in polytope file; "
        f"use integers or 'p/q' strings"
    )


def from_dict(data: dict) -> Polytope:
    """Build a polytope from {'dim': n, 'facets': [[u_1..u_n, offset], ...]},
    each entry read as an int or a Fraction (_parse_number)."""
    if not isinstance(data, dict):
        raise PolytopeFormatError("top level must be an object")
    missing = {"dim", "facets"} - set(data)
    if missing:
        raise PolytopeFormatError(f"missing keys: {sorted(missing)}")
    n = data["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PolytopeFormatError(f"'dim' must be a positive integer, got {n!r}")
    rows = data["facets"]
    if not isinstance(rows, list) or not rows:
        raise PolytopeFormatError("'facets' must be a non-empty list")
    facets = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 1:
            raise PolytopeFormatError(
                f"facet {k}: expected a list of {n + 1} numbers "
                f"(normal then offset)"
            )
        nums = [_parse_number(a, f"facet {k}, entry {i}") for i, a in enumerate(row)]
        facets.append((tuple(nums[:n]), nums[n]))
    return Polytope(facets)


def read_file(path) -> bytes:
    """A polytope file's bytes, for from_bytes."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise PolytopeFormatError(f"cannot read {path}: {e}") from e


def from_bytes(raw: bytes, path) -> Polytope:
    """from_file on the bytes read from path, decoded as by open(path)."""
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        data = json.load(text, parse_int=_parse_int, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except UnicodeDecodeError as e:
        raise PolytopeFormatError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise PolytopeFormatError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise PolytopeFormatError(f"{path} nests too deeply to parse") from e
    return from_dict(data)


def from_file(path) -> Polytope:
    """Read a polytope from a JSON file of integers and 'p/q' strings."""
    return from_bytes(read_file(path), path)

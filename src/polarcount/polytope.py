"""Simple convex polytopes from facet inequalities, with exact arithmetic.

A polytope is the set {x : <x, u_i> >= lam_i for each facet}.  The
constructor finds the vertices, the primitive edge directions at each
vertex and the edges between vertices, and rejects anything that is not
a bounded simple polytope with irredundant facets.  Simplicity means
every vertex lies on exactly dim facets; it is what makes tangent cones
simplicial and the whole decomposition machinery well defined.

Construction runs in integers on the facets scaled once to integer
normals and offsets (integer_facets); the only Fractions it makes are
the coordinates of each Vertex.point.  Vertices are found by walking the
vertex graph (pivoting in the manner of Avis and Fukuda, simplified for
simple polytopes).  A depth-first search over facet subsets in
lexicographic order, eliminating on integer rows, finds one vertex.  At
each vertex one fraction-free inverse (linalg.integer_inverse) of the
dim active normals gives R and d with inverse = R / d: the point is
sign(d) * R * offsets over |d|, and edge k is column k of sign(d) * R
divided by its gcd g_k.  Since |det R| = |d|^(dim-1), the edge matrix
has |determinant| |d|^(dim-1) / prod g_k, so the vertex is regular
exactly when prod g_k == |d|^(dim-1).  A ratio test over the facet
slacks finds the neighbour along each edge.  The cost is about
vertices * dim * facets integer dot products plus one dim x dim integer
inverse per vertex, rather than one solve per dim-subset of the facets.
A tie in a ratio test is a non-simple vertex, an edge no facet blocks
is an unbounded ray, and a facet no vertex touches is redundant.
Membership queries (contains, active_facets, face_codim) read the same
integer facet slacks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .linalg import clear_denominators, dot, integer_inverse, vadd, vec


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


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> >= offset}."""

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", vec(self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if all(a == 0 for a in self.normal):
            raise PolytopeError("facet normal must be nonzero")

    def holds(self, x: Sequence) -> bool:
        return dot(self.normal, x) >= self.offset

    def tight(self, x: Sequence) -> bool:
        return dot(self.normal, x) == self.offset

    def integer(self) -> tuple[tuple[int, ...], int]:
        """Normal and offset scaled by the lcm of their denominators."""
        row, _ = clear_denominators((*self.normal, self.offset))
        return row[:-1], row[-1]


@dataclass(frozen=True)
class Vertex:
    """A vertex with its active facets and primitive edge directions.

    edges[k] points from this vertex along the edge obtained by relaxing
    active facet active[k]; the edge list is ordered by ascending facet
    index, so it is reproducible.
    """

    point: tuple
    active: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]


class Polytope:
    """Bounded simple polytope with irredundant facets.

    Attributes:
        dim:      ambient dimension n
        facets:   tuple of HalfSpace
        integer_facets: (normal, offset) per facet, scaled to integers
        vertices: tuple of Vertex, sorted by point
        regular:  True when every vertex edge matrix has determinant +-1
        integral: True when every vertex has integer coordinates
    """

    def __init__(self, facets: Sequence):
        hs = tuple(
            f if isinstance(f, HalfSpace) else HalfSpace(tuple(f[0]), f[1])
            for f in facets
        )
        if not hs:
            raise PolytopeError("no facets given")
        n = len(hs[0].normal)
        for f in hs:
            if len(f.normal) != n:
                raise PolytopeError("facet normals have mixed dimensions")
        if len(hs) < n + 1:
            raise PolytopeError(
                f"{len(hs)} facets cannot bound a {n}-dimensional polytope"
            )
        self.dim = n
        self.facets = hs
        self.integer_facets = tuple(f.integer() for f in hs)
        self._reject_duplicate_facets()
        self.vertices, self._edges, self.regular, self.integral = self._walk()

    # -- construction ------------------------------------------------

    def _reject_duplicate_facets(self):
        # two facets bound the same half-space exactly when their integer
        # rows are positive multiples, so when the rows reduced by their
        # gcd agree
        seen = {}
        for i, (normal, offset) in enumerate(self.integer_facets):
            g = gcd(*normal, offset)
            key = (*(a // g for a in normal), offset // g)
            if key in seen:
                raise RedundantFacetError(
                    f"facets {seen[key]} and {i} define the same half-space"
                )
            seen[key] = i

    def _first_vertex(self) -> tuple[int, ...]:
        """Active facets of the first vertex in lexicographic subset order.

        Depth first over the n-subsets of facets in lexicographic order,
        carrying the integer rows [normal | offset] of the prefix reduced
        to echelon form, each divided by its gcd: a prefix whose normals
        are linearly dependent is pruned, since no extension of it has a
        unique solution.  The first full subset whose solution has no
        negative facet slack gives the vertex.
        """
        n, facets = self.dim, self.integer_facets

        def extend(first: int, basis: list) -> Optional[tuple]:
            if len(basis) == n:
                # row b reads b[p] * x_p = b[n]: clear to one denominator
                den = lcm(*(abs(b[p]) for p, b in basis))
                num = [0] * n
                for p, b in basis:
                    num[p] = b[n] * (den // b[p])
                slack = facet_slacks(facets, num, den)
                return None if slack_codim(slack) is None else (num, den, slack)
            for i in range(first, len(facets) - (n - len(basis)) + 1):
                normal, offset = facets[i]
                row = [*normal, offset]
                for pivot, b in basis:
                    c = row[pivot]
                    if c:
                        row = [b[pivot] * r - c * s for r, s in zip(row, b)]
                pivot = next((k for k in range(n) if row[k]), None)
                if pivot is None:
                    continue
                row = _reduced(row)
                c = row[pivot]
                reduced = [
                    (p, _reduced([c * s - b[pivot] * r for s, r in zip(b, row)])
                     if b[pivot] else b)
                    for p, b in basis
                ]
                found = extend(i + 1, reduced + [(pivot, row)])
                if found is not None:
                    return found
            return None

        found = extend(0, [])
        if found is None:
            raise UnboundedError(
                "inequality system has no vertices: the region is empty "
                "or unbounded with no corner"
            )
        num, den, slack = found
        active = tuple(i for i, s in enumerate(slack) if s == 0)
        if len(active) > n:
            raise _non_simple(tuple(Fraction(a, den) for a in num), active, n)
        return active

    def _walk(self) -> tuple[tuple, tuple, bool, bool]:
        """Every vertex with its edges, by pivoting along the vertex graph.

        At a vertex with active facets S, vertex_frame gives the point,
        the edge directions and whether they are unimodular.  Along each
        edge a ratio test over the facet slacks finds the nearest facet
        that blocks it; the neighbour's active set is S with the relaxed
        facet swapped for the blocking one.  A tie makes the neighbour
        non-simple, and an edge no facet blocks is an unbounded ray.
        Returns the vertices sorted by point, the edges as sorted index
        pairs, and the regular and integral flags.
        """
        n, facets = self.dim, self.integer_facets
        start = self._first_vertex()
        graph = {}
        unbounded = {}
        regular = integral = True
        todo = [start]
        queued = {start}
        while todo:
            active = todo.pop()
            scaled, denom, dirs, unimodular = vertex_frame([facets[i] for i in active])
            point = tuple(Fraction(a, denom) for a in scaled)
            regular = regular and unimodular
            integral = integral and denom == 1
            slack = facet_slacks(facets, scaled, denom)
            neighbours = []
            for relaxed, d in zip(active, dirs):
                # nearest facets along d: least slack / rate, rate = -<a, d> > 0
                blocking, near_s, near_r = [], 0, 1
                for i, (normal, _) in enumerate(facets):
                    rate = -sum(map(mul, normal, d))
                    if rate <= 0:
                        continue
                    s = slack[i]
                    if not blocking or s * near_r < near_s * rate:
                        blocking, near_s, near_r = [i], s, rate
                    elif s * near_r == near_s * rate:
                        blocking.append(i)
                if not blocking:
                    unbounded.setdefault(point, d)
                    continue
                nxt = tuple(sorted({*active, *blocking} - {relaxed}))
                if len(blocking) > 1:
                    # the tie is at point + d * near_s / (near_r * denom)
                    den = near_r * denom
                    raise _non_simple(
                        tuple(Fraction(x * near_r + near_s * a, den)
                              for x, a in zip(scaled, d)),
                        nxt, n,
                    )
                neighbours.append(nxt)
                if nxt not in queued:
                    queued.add(nxt)
                    todo.append(nxt)
            graph[active] = (point, dirs, neighbours)

        order = sorted(graph, key=lambda active: graph[active][0])
        for active in order:
            point = graph[active][0]
            if point in unbounded:
                raise UnboundedError(
                    f"edge at vertex {fmt_point(point)} along {unbounded[point]} "
                    f"never leaves the feasible region"
                )
        touched = set().union(*graph)
        for i in range(len(facets)):
            if i not in touched:
                raise RedundantFacetError(
                    f"facet {i} touches no vertex; the inequality is redundant"
                )
        index = {active: k for k, active in enumerate(order)}
        vertices = tuple(
            Vertex(point=graph[a][0], active=a, edges=graph[a][1]) for a in order
        )
        edges = sorted({
            tuple(sorted((index[a], index[b]))) for a in order for b in graph[a][2]
        })
        return vertices, tuple(edges), regular, integral

    # -- queries -----------------------------------------------------

    def _slacks(self, x: Sequence) -> list[int]:
        return facet_slacks(self.integer_facets, *clear_denominators(x))

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
        n = len(self.vertices)
        acc = (Fraction(0),) * self.dim
        for v in self.vertices:
            acc = vadd(acc, v.point)
        return tuple(a / n for a in acc)

    def bounding_box(self) -> tuple[tuple, tuple]:
        lo = tuple(
            min(v.point[i] for v in self.vertices) for i in range(self.dim)
        )
        hi = tuple(
            max(v.point[i] for v in self.vertices) for i in range(self.dim)
        )
        return lo, hi

    def integer_box(self, margin: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
        lo, hi = self.bounding_box()
        return (
            tuple(floor(a) - margin for a in lo),
            tuple(ceil(a) + margin for a in hi),
        )

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dim}, facets={len(self.facets)}, "
            f"vertices={len(self.vertices)}, regular={self.regular}, "
            f"integral={self.integral})"
        )


def vertex_frame(rows: Sequence) -> tuple[tuple[int, ...], int, tuple, bool]:
    """Point, edge directions and regularity of the vertex on n integer rows.

    rows are the n linearly independent (normal, offset) pairs of the
    active facets.  With normals^-1 = R / d from linalg.integer_inverse,
    the point is sign(d) * R * offsets / |d|, returned as (num, den)
    reduced by one gcd, so den > 0 is the lcm of the coordinates'
    denominators.  Edge k, the direction that relaxes row k and keeps
    the others tight, is column k of sign(d) * R divided by its gcd
    g_k.  Since |det R| = |d|^(n-1), the edge matrix has |determinant|
    |d|^(n-1) / prod g_k, so the edges are unimodular (the last value)
    exactly when prod g_k == |d|^(n-1).
    """
    inv, d = integer_inverse([a for a, _ in rows])
    sign, size = (1, d) if d > 0 else (-1, -d)
    offsets = [b for _, b in rows]
    num = [sign * sum(map(mul, row, offsets)) for row in inv]
    g = gcd(size, *num)
    edges, content = [], 1
    for col in zip(*inv):
        gk = gcd(*col)
        content *= gk
        edges.append(tuple(sign * a // gk for a in col))
    return (
        tuple(a // g for a in num), size // g, tuple(edges),
        content == size ** (len(rows) - 1),
    )


def facet_slacks(rows: Sequence, num: Sequence[int], den: int) -> list[int]:
    """<a, num> - b * den for each integer row (a, b), with den > 0.

    Each slack has the sign of <a, x> - b at x = num / den: positive
    strictly inside the half-space, zero on its boundary, negative
    outside.  Rows are Polytope.integer_facets or a subset of them.
    """
    if rows and len(num) != len(rows[0][0]):
        raise ValueError(f"dimension mismatch: {len(rows[0][0])} vs {len(num)}")
    return [sum(map(mul, a, num)) - b * den for a, b in rows]


def slack_codim(slack: Sequence[int]) -> Optional[int]:
    """Tight facets among a point's slacks over every facet; None outside."""
    return None if min(slack) < 0 else slack.count(0)


def _reduced(row: list[int]) -> list[int]:
    """A nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [a // g for a in row]


def fmt_point(x: Sequence) -> str:
    return "(" + ", ".join(str(Fraction(a)) for a in x) + ")"


def _non_simple(x: Sequence, active: tuple[int, ...], n: int) -> NonSimpleError:
    return NonSimpleError(
        f"vertex {fmt_point(x)} lies on {len(active)} facets "
        f"(indices {list(active)}); a simple {n}-polytope allows exactly {n}"
    )


# -- builders ---------------------------------------------------------


def interval(length) -> Polytope:
    """[0, length] on the line."""
    if Fraction(length) <= 0:
        raise PolytopeError("interval length must be positive")
    return Polytope([((1,), 0), ((-1,), -Fraction(length))])


def hypercube(n: int, side=1) -> Polytope:
    """[0, side]**n."""
    if n < 1:
        raise PolytopeError("dimension must be at least 1")
    if Fraction(side) <= 0:
        raise PolytopeError("side must be positive")
    facets = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        facets.append((tuple(e), 0))
        facets.append((tuple(-a for a in e), -Fraction(side)))
    return Polytope(facets)


def dilated_simplex(n: int, dilation=1) -> Polytope:
    """{x >= 0, sum x_i <= dilation}: the standard simplex scaled."""
    if n < 1:
        raise PolytopeError("dimension must be at least 1")
    if Fraction(dilation) <= 0:
        raise PolytopeError("dilation must be positive")
    facets = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        facets.append((tuple(e), 0))
    facets.append(((-1,) * n, -Fraction(dilation)))
    return Polytope(facets)


def trapezoid(width=2, height=1) -> Polytope:
    """{x >= 0, y >= 0, y <= height, x + y <= width}; needs width > height."""
    if not Fraction(width) > Fraction(height) > 0:
        raise PolytopeError("trapezoid needs width > height > 0")
    return Polytope(
        [
            ((1, 0), 0),
            ((0, 1), 0),
            ((0, -1), -Fraction(height)),
            ((-1, -1), -Fraction(width)),
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
            ((-1, -1, 0), -Fraction(dilation)),
            ((0, 0, 1), 0),
            ((0, 0, -1), -Fraction(height)),
        ]
    )


# -- file format -------------------------------------------------------

_NUMBER_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_number(x, where: str) -> Fraction:
    if isinstance(x, bool):
        raise PolytopeFormatError(f"{where}: booleans are not numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _NUMBER_RE.match(x.strip()):
            raise PolytopeFormatError(
                f"{where}: {x!r} is not an integer or 'p/q' fraction"
            )
        return Fraction(x.strip())
    raise PolytopeFormatError(
        f"{where}: expected an integer or 'p/q' string, got {type(x).__name__}"
    )


def _reject_float(value):
    raise PolytopeFormatError(
        f"floating-point literal {value!r} in polytope file; "
        f"use integers or 'p/q' strings"
    )


def from_dict(data: dict) -> Polytope:
    """Build a polytope from {'dim': n, 'facets': [[u_1..u_n, offset], ...]}."""
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


def from_file(path) -> Polytope:
    """Read a polytope from a JSON file of integers and 'p/q' strings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=_reject_float, parse_constant=_reject_float
            )
    except OSError as e:
        raise PolytopeFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise PolytopeFormatError(f"{path} is not valid JSON: {e}") from e
    return from_dict(data)

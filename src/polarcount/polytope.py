"""Simple convex polytopes from facet inequalities, with exact arithmetic.

A polytope is the set {x : <x, u_i> >= lam_i for each facet}.  The
constructor enumerates vertices, computes the primitive edge directions
at each vertex, and rejects anything that is not a bounded simple
polytope with irredundant facets.  Simplicity means every vertex lies
on exactly dim facets; it is what makes tangent cones simplicial and
the whole decomposition machinery well defined.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor
from typing import Optional, Sequence

from .linalg import (
    det,
    dot,
    primitive,
    rank,
    solve_linear,
    vadd,
    vec,
    vsub,
)


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


@dataclass(frozen=True)
class TangentCone:
    """point + cone(generators): the local model of the polytope at a vertex."""

    apex: tuple
    generators: tuple[tuple[int, ...], ...]


class Polytope:
    """Bounded simple polytope with irredundant facets.

    Attributes:
        dim:      ambient dimension n
        facets:   tuple of HalfSpace
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
        self._reject_duplicate_facets()
        self.vertices = self._enumerate_vertices()
        if not self.vertices:
            raise UnboundedError(
                "inequality system has no vertices: the region is empty "
                "or unbounded with no corner"
            )
        self._attach_edges()
        self._reject_redundant_facets()
        self.regular = all(
            abs(det(v.edges)) == 1 for v in self.vertices
        )
        self.integral = all(
            all(Fraction(a).denominator == 1 for a in v.point)
            for v in self.vertices
        )
        self._index = {v.point: i for i, v in enumerate(self.vertices)}

    # -- construction ------------------------------------------------

    def _reject_duplicate_facets(self):
        seen = {}
        for i, f in enumerate(self.facets):
            p = primitive(f.normal)
            # scale so normal == scale * p; scale > 0 since primitive
            # preserves direction
            j = next(k for k, a in enumerate(p) if a != 0)
            scale = Fraction(f.normal[j], p[j])
            key = (p, f.offset / scale)
            if key in seen:
                raise RedundantFacetError(
                    f"facets {seen[key]} and {i} define the same half-space"
                )
            seen[key] = i

    def _enumerate_vertices(self) -> tuple:
        n = len(self.facets[0].normal)
        found = {}
        for subset in combinations(range(len(self.facets)), n):
            rows = [self.facets[i].normal for i in subset]
            rhs = [self.facets[i].offset for i in subset]
            x = solve_linear(rows, rhs)
            if x is None or x in found:
                continue
            if all(f.holds(x) for f in self.facets):
                active = tuple(
                    i for i, f in enumerate(self.facets) if f.tight(x)
                )
                if len(active) > n:
                    raise NonSimpleError(
                        f"vertex {fmt_point(x)} lies on {len(active)} facets "
                        f"(indices {list(active)}); a simple {n}-polytope "
                        f"allows exactly {n}"
                    )
                found[x] = active
        return tuple(
            Vertex(point=x, active=found[x], edges=())
            for x in sorted(found)
        )

    def _edge_direction(self, active: tuple[int, ...], relaxed: int) -> tuple[int, ...]:
        """Primitive direction into the polytope when one facet is relaxed.

        Solves <d, u_k> = 0 for the kept facets and <d, u_relaxed> = 1,
        which points to the feasible side.
        """
        rows = [self.facets[i].normal for i in active if i != relaxed]
        rows.append(self.facets[relaxed].normal)
        rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]
        d = solve_linear(rows, rhs)
        if d is None:
            raise PolytopeError(
                f"active facets {list(active)} are linearly dependent"
            )
        return primitive(d)

    def _attach_edges(self):
        out = []
        for v in self.vertices:
            dirs = tuple(self._edge_direction(v.active, j) for j in v.active)
            for d in dirs:
                if all(dot(d, f.normal) >= 0 for f in self.facets):
                    raise UnboundedError(
                        f"edge at vertex {fmt_point(v.point)} along {d} "
                        f"never leaves the feasible region"
                    )
            out.append(Vertex(point=v.point, active=v.active, edges=dirs))
        self.vertices = tuple(out)

    def _reject_redundant_facets(self):
        for i in range(len(self.facets)):
            incident = [v.point for v in self.vertices if i in v.active]
            if not incident:
                raise RedundantFacetError(
                    f"facet {i} touches no vertex; the inequality is redundant"
                )
            diffs = [vsub(p, incident[0]) for p in incident[1:]]
            if rank(diffs) < self.dim - 1:
                raise RedundantFacetError(
                    f"facet {i} supports a face of dimension "
                    f"{rank(diffs)} < {self.dim - 1}; the inequality is redundant"
                )

    # -- queries -----------------------------------------------------

    def contains(self, x: Sequence) -> bool:
        return all(f.holds(x) for f in self.facets)

    def active_facets(self, x: Sequence) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.facets) if f.tight(x))

    def face_codim(self, x: Sequence) -> Optional[int]:
        """Codimension of the smallest face containing x; None outside.

        For a simple polytope this is the number of tight facets:
        dim for a vertex, 1 on the relative interior of a facet, 0 inside.
        """
        codim = 0
        for f in self.facets:
            d = dot(f.normal, x)
            if d < f.offset:
                return None
            codim += d == f.offset
        return codim

    def vertex_index(self, point: Sequence) -> int:
        return self._index[tuple(Fraction(a) for a in point)]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs of vertex indices sharing dim-1 facets, each pair once."""
        out = []
        for i, j in combinations(range(len(self.vertices)), 2):
            shared = set(self.vertices[i].active) & set(self.vertices[j].active)
            if len(shared) == self.dim - 1:
                out.append((i, j))
        return tuple(out)

    def tangent_cone(self, vertex_index: int) -> TangentCone:
        v = self.vertices[vertex_index]
        return TangentCone(apex=v.point, generators=v.edges)

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


def fmt_point(x: Sequence) -> str:
    return "(" + ", ".join(str(Fraction(a)) for a in x) + ")"


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

"""Polarized tangent cones of a simple polytope.

A polarizing vector pairs nonzero against every edge direction.  Each
tangent cone is polarized by flipping the generators whose pairing with
the polarizing vector is positive, so that every generator of the new
cone pairs negative.  The number of flips at a vertex determines the
sign of that cone's contribution to the decomposition of the polytope's
weighted characteristic function.

The walls are the distinct oriented edge directions; find_polarizing and
crossing_pair both take, in ints, the first point of the moment curve
off finitely many hyperplanes (_moment_curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Optional, Sequence

from .linalg import canonical_direction, clear_denominators, oriented, vec
from .polytope import Polytope, facet_slacks, fmt_point


class PolarizationError(ValueError):
    """No usable polarizing vector, or a degenerate pairing slipped in."""


@dataclass(frozen=True)
class PolarizedCone:
    """A tangent cone with sign-corrected generators.

    generators[k] is the vertex's k-th edge direction, negated when the
    original direction paired positive with the polarizing vector; the
    flipped flags record which ones were negated.  The cone is closed:
    the vertex plus nonnegative combinations of the generators.  Points with a
    zero coordinate along a flipped generator stay members; they carry
    the y/(1+y) weight factor, which vanishes at y = 0 and recovers the
    classical half-open convention there.

    facets are the vertex's active facets (Vertex.active), in generator
    order, and rows their integer (normal, offset) pairs.  Generator k
    leaves facet k and stays on the others, so the k-th cone coordinate
    of x has the sign of the slack <a_k, x> - b_k, negated when g_k is
    flipped, and x is a member when no signed slack is negative.
    """

    generators: tuple[tuple[int, ...], ...]
    flipped: tuple[bool, ...]
    vertex_index: int
    facets: tuple[int, ...] = field(repr=False)
    rows: tuple[tuple[tuple[int, ...], int], ...] = field(repr=False)
    # (-1)**flip_count, fixed at construction: the pointwise check reads
    # it once per cone at every sample point
    sign: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sign", -1 if self.flip_count % 2 else 1)

    @property
    def flip_count(self) -> int:
        return sum(self.flipped)


def is_polarizing(poly: Polytope, xi: Sequence) -> bool:
    """True when xi pairs nonzero with every edge direction of poly."""
    xint = _cleared(poly, xi)
    return all(sum(map(mul, d, xint)) for d in wall_directions(poly))


def _cleared(poly: Polytope, xi: Sequence) -> tuple[int, ...]:
    """xi times the lcm of its denominators: the same pairing signs, in ints."""
    if len(xi) != poly.dim:
        raise ValueError(f"dimension mismatch: {poly.dim} vs {len(xi)}")
    return clear_denominators(vec(xi))[0]


def _moment_curve(n: int, seed: int, normals: Sequence) -> tuple[int, ...]:
    """The first (1, t, ..., t**(n-1)) with t >= seed and t != 0 that
    pairs nonzero with every normal, each a nonzero int vector.

    A normal pairs with the curve as a nonzero polynomial in t of degree
    below n, so it rules out at most n-1 values of t: with t = 0, fewer
    than budget values in all, and the walk always ends within it.
    """
    budget = len(normals) * (n - 1) + 2
    for t in range(seed, seed + budget):
        if t == 0:
            continue
        xi = tuple(t**k for k in range(n))
        if all(sum(map(mul, d, xi)) for d in normals):
            return xi
    raise PolarizationError("could not find a polarizing vector")


def find_polarizing(poly: Polytope, seed: int = 1) -> tuple[int, ...]:
    """Deterministic small polarizing int vector: the first point of the
    moment curve from t = seed on that lies off every wall."""
    return _moment_curve(poly.dim, seed, wall_directions(poly))


def polarize_cones(poly: Polytope, xi: Sequence) -> tuple[PolarizedCone, ...]:
    """Polarized tangent cone at every vertex, in vertex order."""
    xint = _cleared(poly, xi)
    nums, den = poly.cleared_vertices
    cones = []
    for idx, v in enumerate(poly.vertices):
        gens = []
        flips = []
        for d in v.edges:
            pairing = sum(map(mul, d, xint))
            if pairing == 0:
                raise PolarizationError(
                    f"vector {fmt_point(xi)} pairs to zero with edge {d} "
                    f"at vertex {fmt_point(nums[idx], den)}"
                )
            if pairing > 0:
                gens.append(tuple(-a for a in d))
                flips.append(True)
            else:
                gens.append(d)
                flips.append(False)
        cones.append(
            PolarizedCone(
                generators=tuple(gens),
                flipped=tuple(flips),
                vertex_index=idx,
                facets=v.active,
                rows=tuple(poly.facets[i] for i in v.active),
            )
        )
    return tuple(cones)


def slack_face_counts(cone: PolarizedCone, slack) -> Optional[tuple[int, int]]:
    """(unflipped zeros, flipped zeros) of a point in the closed cone, or None.

    slack maps a facet index to the point's slack (polytope.facet_slacks);
    a zero slack is a zero coordinate, and the signs read as PolarizedCone says.
    """
    zeros = flipped_zeros = 0
    for i, f in zip(cone.facets, cone.flipped):
        s = slack[i]
        if s == 0:
            zeros += 1
            flipped_zeros += f
        elif (s < 0) != f:
            return None
    return zeros - flipped_zeros, flipped_zeros


def cone_point_slacks(cones: Sequence[PolarizedCone], x: Sequence) -> tuple[dict, int]:
    """(slack, den): x = num / den and its slacks over the cones' facets."""
    rows = {i: r for cone in cones for i, r in zip(cone.facets, cone.rows)}
    num, den = clear_denominators(x)
    return dict(zip(rows, facet_slacks(tuple(rows.values()), num, den))), den


# -- wall machinery ----------------------------------------------------
#
# The set of polarizing vectors is the complement of finitely many
# hyperplanes (one per edge direction).  Crossing a single wall flips
# the polarization of exactly the edges parallel to that wall's
# direction; the decomposition must be blind to the crossing.


def wall_directions(poly: Polytope) -> tuple[tuple[int, ...], ...]:
    """Distinct edge directions up to sign, oriented, in order of first
    appearance; the edges are primitive int vectors already, and only
    the distinct ones are oriented."""
    edges = dict.fromkeys(chain.from_iterable(v.edges for v in poly.vertices))
    return tuple(dict.fromkeys(map(oriented, edges)))


def crossing_pair(poly: Polytope, wall: Sequence, seed: int = 0) -> tuple[tuple, tuple]:
    """Two polarizing int vectors separated only by the given wall.

    Returns (xi_minus, xi_plus) with <wall, xi_minus> < 0 < <wall, xi_plus>
    and identical pairing signs against every edge direction not parallel
    to the wall.  With b the primitive wall, base = <b,b> r - <r,b> b
    lies on it, and r, the moment curve's point from t = seed on, makes
    each <d, base> = <r, <b,b> d - <d,b> b> a nonzero int for every other
    wall d.  So M = 1 + max |<d,b>| keeps the sign of <d, M base -+ b>.
    """
    b = canonical_direction(wall)
    if len(b) != poly.dim:
        raise ValueError(f"dimension mismatch: {poly.dim} vs {len(b)}")
    bb = sum(x * x for x in b)
    pairings = {d: sum(map(mul, d, b)) for d in wall_directions(poly) if d != b}
    normals = [tuple(bb * x - db * y for x, y in zip(d, b)) for d, db in pairings.items()]
    r = _moment_curve(poly.dim, seed, normals)
    rb = sum(map(mul, r, b))
    m = 1 + max(map(abs, pairings.values()), default=0)
    base = [m * (bb * x - rb * y) for x, y in zip(r, b)]
    minus = tuple(x - y for x, y in zip(base, b))
    plus = tuple(x + y for x, y in zip(base, b))
    for xi in (minus, plus):
        if not is_polarizing(poly, xi):
            raise PolarizationError(
                f"wall crossing around {b} produced a "
                f"non-polarizing vector {fmt_point(xi)}"
            )
    return minus, plus

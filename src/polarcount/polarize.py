"""Polarized tangent cones of a simple polytope.

A polarizing vector pairs nonzero against every edge direction.  Each
tangent cone is polarized by flipping the generators whose pairing with
the polarizing vector is positive, so that every generator of the new
cone pairs negative.  The number of flips at a vertex determines the
sign of that cone's contribution to the decomposition of the polytope's
weighted characteristic function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .linalg import canonical_direction, clear_denominators, dot, vadd, vec, vsub
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
    return _pairs_nonzero(poly, _cleared(poly, xi))


def _cleared(poly: Polytope, xi: Sequence) -> tuple[int, ...]:
    """xi times the lcm of its denominators: the same pairing signs, in ints."""
    if len(xi) != poly.dim:
        raise ValueError(f"dimension mismatch: {poly.dim} vs {len(xi)}")
    return clear_denominators(vec(xi))[0]


def _pairs_nonzero(poly: Polytope, xi: tuple[int, ...]) -> bool:
    return all(sum(map(mul, d, xi)) for v in poly.vertices for d in v.edges)


def find_polarizing(poly: Polytope, seed: int = 1) -> tuple:
    """Deterministic small polarizing vector.

    Walks the moment curve (1, t, t**2, ...) for t = seed, seed+1, ...,
    skipping t = 0.  An edge direction d pairs with the curve as a
    nonzero polynomial in t of degree below dim, so it rules out at most
    dim-1 values of t.  There are at most dim * vertices / 2 directions
    up to sign, fewer than budget - 1 bad values in all, so the walk
    always ends within the budget.
    """
    n = poly.dim
    edge_count = sum(len(v.edges) for v in poly.vertices)
    budget = max(8, edge_count * max(1, n - 1) + 1)
    for t in range(seed, seed + budget):
        if t == 0:
            continue
        xi = tuple(t**k for k in range(n))
        if _pairs_nonzero(poly, xi):
            return tuple(map(Fraction, xi))
    raise PolarizationError("could not find a polarizing vector")


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


def cone_membership(cone: PolarizedCone, x: Sequence) -> Optional[tuple]:
    """Coordinates of x - vertex in the generator basis, as Fractions, when x
    lies in the closed cone.

    Membership requires every coordinate >= 0; returns None otherwise.
    Coordinate k is slack_k / (<a_k, g_k> * den), built only for members.
    """
    slack, den = cone_point_slacks((cone,), x)
    if slack_face_counts(cone, slack) is None:
        return None
    return tuple(
        Fraction(slack[i], den * dot(a, g))
        for i, (a, _), g in zip(cone.facets, cone.rows, cone.generators)
    )


# -- wall machinery ----------------------------------------------------
#
# The set of polarizing vectors is the complement of finitely many
# hyperplanes (one per edge direction).  Crossing a single wall flips
# the polarization of exactly the edges parallel to that wall's
# direction; the decomposition must be blind to the crossing.


def wall_directions(poly: Polytope) -> tuple[tuple[int, ...], ...]:
    """Distinct edge directions up to sign, canonically oriented."""
    seen = []
    for v in poly.vertices:
        for d in v.edges:
            c = canonical_direction(d)
            if c not in seen:
                seen.append(c)
    return tuple(seen)

def crossing_pair(poly: Polytope, wall: Sequence, seed: int = 0) -> tuple[tuple, tuple]:
    """Two polarizing vectors separated only by the given wall.

    Returns (xi_minus, xi_plus) with <wall, xi_minus> < 0 < <wall, xi_plus>
    and identical pairing signs against every edge direction not parallel
    to the wall.
    """
    beta = canonical_direction(wall)
    others = [d for d in wall_directions(poly) if d != beta]
    bb = dot(beta, beta)
    rng = random.Random(seed)
    base = None
    for _ in range(10000):
        r = tuple(Fraction(rng.randint(-99, 99)) for _ in range(poly.dim))
        # exact projection onto the wall, scaled to stay rational
        candidate = vsub(tuple(bb * a for a in r), tuple(dot(r, beta) * b for b in beta))
        if all(a == 0 for a in candidate) and others:
            continue
        if all(dot(d, candidate) != 0 for d in others):
            base = candidate
            break
    if base is None:
        raise PolarizationError(
            f"no generic point found on the wall {tuple(beta)}"
        )
    gaps = [
        abs(dot(d, base)) / abs(dot(d, beta))
        for d in others
        if dot(d, beta) != 0
    ]
    step = min(gaps) / 2 if gaps else Fraction(1)
    offset = tuple(step * b for b in beta)
    minus = vsub(base, offset)
    plus = vadd(base, offset)
    for xi in (minus, plus):
        if not is_polarizing(poly, xi):
            raise PolarizationError(
                f"wall crossing around {tuple(beta)} produced a "
                f"non-polarizing vector {fmt_point(xi)}"
            )
    return minus, plus

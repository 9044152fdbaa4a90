"""Weighted characteristic functions and the signed cone decomposition.

The weight of a point against the polytope is (1/(1+y))**c, with c the
codimension of the smallest face containing it, and 0 outside.  The
weight against a polarized cone counts the zero coordinates among
unflipped and flipped generators separately: (1/(1+y))**r1 times
(y/(1+y))**r2, and 0 outside the cone.  The decomposition identity says
the polytope weight equals the sign-weighted sum of cone weights at
every point of space, for every admissible y at once.

Both sides read one vector, the point's integer slacks over the facets
(polytope.facet_slacks): the codimension counts its zeros, and each cone
reads its vertex's active facets, negated for flipped generators, so
membership and the zero counts need no inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .linalg import clear_denominators, vadd, vsub
from .polarize import (
    PolarizedCone, cone_point_slacks, polarize_cones, slack_face_counts,
)
from .polytope import Polytope, facet_slacks, slack_codim
from .ypoly import YFrac


@dataclass(frozen=True)
class WeightParam:
    """A concrete weight parameter; y = -1 is a pole of every weight."""

    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "y", Fraction(self.y))
        if self.y == -1:
            raise ValueError(
                "weight parameter y = -1 is excluded: weights carry 1/(1+y)"
            )

    @property
    def on_face(self) -> Fraction:
        return Fraction(1, 1 + self.y)


def cone_face_counts(
    cone: PolarizedCone, x: Sequence
) -> Optional[tuple[int, int]]:
    """(unflipped zeros, flipped zeros) of x in the closed cone.

    None when x is outside.  The two counts locate the smallest cone
    face containing x, split by generator orientation; their sum is the
    codimension of that face.
    """
    return slack_face_counts(cone, cone_point_slacks((cone,), x)[0])


def cone_weight_y(cone: PolarizedCone, x: Sequence) -> YFrac:
    """Symbolic weight of x against the cone; 0 outside."""
    counts = cone_face_counts(cone, x)
    if counts is None:
        return YFrac(0)
    return YFrac.weight(*counts)


def polytope_weight_y(poly: Polytope, x: Sequence) -> YFrac:
    """Symbolic weight of x against the polytope: (1/(1+y))**codim, 0 outside."""
    return _codim_weight(poly.face_codim(x))


def _codim_weight(c: Optional[int]) -> YFrac:
    return YFrac(0) if c is None else YFrac(1, c)


class CheckResult(NamedTuple):
    point: tuple
    lhs: object
    rhs: object
    equal: bool


def signed_cone_sum_y(cones: Sequence[PolarizedCone], x: Sequence) -> YFrac:
    """Sign-weighted sum of the cone weights of x."""
    return _signed_cone_sum(cones, cone_point_slacks(cones, x)[0])


def _signed_cone_sum(cones: Sequence[PolarizedCone], slack) -> YFrac:
    total = YFrac(0)
    for cone in cones:
        counts = slack_face_counts(cone, slack)
        if counts is not None:
            wgt = YFrac.weight(*counts)
            total = total + wgt if cone.sign > 0 else total - wgt
    return total


def check_decomposition_at(
    poly: Polytope,
    cones: Sequence[PolarizedCone],
    x: Sequence,
    w: Optional[WeightParam] = None,
) -> CheckResult:
    """Compare polytope weight with the signed cone sum at one point.

    Both sides are computed symbolically in y.  With w = None they are
    compared as such, covering every admissible y at once; otherwise both
    are evaluated at w.y and compared as Fractions.  The point's integer
    slacks over poly's facets are computed once; the face codimension and
    the membership and zero counts of each cone, polarized from poly, are
    read off that one vector.
    """
    xt = tuple(Fraction(a) for a in x)
    slack = facet_slacks(poly.integer_facets, *clear_denominators(xt))
    lhs = _codim_weight(slack_codim(slack))
    rhs = _signed_cone_sum(cones, slack)
    if w is not None:
        lhs, rhs = lhs(w.y), rhs(w.y)
    return CheckResult(point=xt, lhs=lhs, rhs=rhs, equal=lhs == rhs)


def check_decomposition(
    poly: Polytope,
    xi: Sequence,
    points: Sequence[Sequence],
    w: Optional[WeightParam] = None,
) -> list[CheckResult]:
    """Decomposition check at many points, polarizing with xi."""
    cones = polarize_cones(poly, xi)
    return [check_decomposition_at(poly, cones, x, w) for x in points]


def sample_points(
    poly: Polytope,
    xi: Sequence,
    rng: Optional[random.Random] = None,
    random_count: int = 20,
) -> list[tuple]:
    """Deterministic face representatives plus probes and random points.

    One point per vertex, edge midpoints, facet barycenters, the
    barycenter, exterior probes past each vertex along +-xi (stepped far
    enough to leave the bounding box), and random rational points from a
    box inflated to twice the size.
    """
    pts: list[tuple] = [v.point for v in poly.vertices]
    for i, j in poly.edges():
        a, b = poly.vertices[i].point, poly.vertices[j].point
        pts.append(tuple(x / 2 for x in vadd(a, b)))
    for i in range(len(poly.facets)):
        incident = [v.point for v in poly.vertices if i in v.active]
        acc = incident[0]
        for p in incident[1:]:
            acc = vadd(acc, p)
        pts.append(tuple(a / len(incident) for a in acc))
    pts.append(poly.barycenter())
    lo, hi = poly.bounding_box()
    span = max(b - a for a, b in zip(lo, hi))
    step = int(span) + 1
    xiv = tuple(Fraction(a) for a in xi)
    for v in poly.vertices:
        big = tuple(step * a for a in xiv)
        pts.append(vadd(v.point, big))
        pts.append(vsub(v.point, big))
    if random_count and rng is None:
        rng = random.Random(20)
    for _ in range(random_count):
        point = []
        for a, b in zip(lo, hi):
            width = b - a
            lo2, hi2 = a - width / 2, b + width / 2
            den = rng.randint(1, 4)
            num = rng.randint(int(lo2 * den) - 1, int(hi2 * den) + 1)
            point.append(Fraction(num, den))
        pts.append(tuple(point))
    seen = set()
    unique = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique

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

The signed cone sum at a point is kept as a table: the net sign of the
cones reaching it with each pair (r1, r2) of zero counts, in ints.  The
check builds both sides as YFracs, the table through YFrac.combination
and the polytope side as u**codim, and compares them as u-polynomials,
or, at a concrete y, compares their values there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .linalg import clear_denominators
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
    return YFrac.combination({} if c is None else {(c, 0): 1})


class CheckResult(NamedTuple):
    point: tuple
    lhs: object
    rhs: object
    equal: bool


def signed_cone_sum_y(cones: Sequence[PolarizedCone], x: Sequence) -> YFrac:
    """Sign-weighted sum of the cone weights of x."""
    slack = cone_point_slacks(cones, x)[0]
    return YFrac.combination(_signed_cone_sum(cones, slack))


def _signed_cone_sum(cones: Sequence[PolarizedCone], slack) -> dict:
    """{(r1, r2): net sign} over the cones containing the point."""
    table: dict = {}
    for cone in cones:
        counts = slack_face_counts(cone, slack)
        if counts is not None:
            table[counts] = table.get(counts, 0) + cone.sign
    return table


def check_decomposition_at(
    poly: Polytope,
    cones: Sequence[PolarizedCone],
    x: Sequence,
    w: Optional[WeightParam] = None,
) -> CheckResult:
    """Compare polytope weight with the signed cone sum at one point.

    Both sides are YFracs.  With w = None they are compared as
    u-polynomials, covering every admissible y at once; otherwise both
    are evaluated at w.y and compared, and returned, as Fractions.  The
    point's integer slacks over poly's facets are computed once; the
    face codimension and the membership and zero counts of each cone,
    polarized from poly, are read off that one vector.
    """
    xt = tuple(a if type(a) is Fraction else Fraction(a) for a in x)
    slack = facet_slacks(poly.facets, *clear_denominators(xt))
    lhs = _codim_weight(slack_codim(slack))
    rhs = YFrac.combination(_signed_cone_sum(cones, slack))
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
    box inflated to twice the size.  The vertices are read as integer
    numerators over one denominator D (Polytope.cleared_vertices), and
    every derived point is built from integer sums over a multiple of D.
    """
    nums, D = poly.cleared_vertices

    def mean(indices) -> tuple:
        den = len(indices) * D
        return tuple(
            Fraction(sum(col), den) for col in zip(*(nums[k] for k in indices))
        )

    pts: list[tuple] = [mean((k,)) for k in range(len(nums))]
    pts += [mean(edge) for edge in poly.edges()]
    incident: list[list[int]] = [[] for _ in poly.facets]
    for k, v in enumerate(poly.vertices):
        for i in v.active:
            incident[i].append(k)
    pts += [mean(ks) for ks in incident]
    pts.append(mean(range(len(nums))))
    lo = [min(col) for col in zip(*nums)]
    hi = [max(col) for col in zip(*nums)]
    step = max(b - a for a, b in zip(lo, hi)) // D + 1
    xnum, xden = clear_denominators(tuple(Fraction(a) for a in xi))
    for p in nums:
        for sign in (1, -1):
            pts.append(tuple(
                Fraction(c * xden + sign * step * x * D, D * xden)
                for c, x in zip(p, xnum)
            ))
    if random_count and rng is None:
        rng = random.Random(20)
    # the box inflated to twice the size, [(3lo - hi)/2, (3hi - lo)/2],
    # as numerators over 2D
    inflated = [(3 * a - b, 3 * b - a) for a, b in zip(lo, hi)]
    for _ in range(random_count):
        point = []
        for lo2, hi2 in inflated:
            den = rng.randint(1, 4)
            num = rng.randint(
                _trunc(lo2 * den, 2 * D) - 1, _trunc(hi2 * den, 2 * D) + 1
            )
            point.append(Fraction(num, den))
        pts.append(tuple(point))
    return list(dict.fromkeys(pts))


def _trunc(p: int, q: int) -> int:
    """p / q rounded toward zero, q > 0, as int() rounds a Fraction."""
    return p // q if p >= 0 else -(-p // q)

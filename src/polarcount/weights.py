"""Weighted characteristic functions and the signed cone decomposition.

The weight of a point against the polytope is (1/(1+y))**c, with c the
codimension of the smallest face containing it, and 0 outside.  The
weight against a polarized cone counts the zero coordinates among
unflipped and flipped generators separately: (1/(1+y))**r1 times
(y/(1+y))**r2, and 0 outside the cone.  The decomposition identity says
the polytope weight equals the sign-weighted sum of cone weights at
every point of space, for every admissible y at once.

The check runs on integer rows (num, den) from sample_points; both sides
read the row's slacks over the facets (polytope.facet_slacks).  Each cone,
flattened once to bit masks of its unflipped and flipped facets, reads
membership and its zero counts (r1, r2) off the masks of the negative and
zero slacks.  The cones' net signs by (r1, r2), read as a u-polynomial, are
compared with u**codim; only where the two differ are both evaluated at y.
check_decomposition runs that test on every row and makes Fractions
only for a row where the two sides disagree, to report both, read off
that row's one slack vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .linalg import clear_denominators
from .polarize import PolarizedCone, cone_point_slacks, slack_face_counts
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
    codim = poly.face_codim(x)
    return YFrac(0) if codim is None else YFrac.weight(codim, 0)


class CheckResult(NamedTuple):
    point: tuple
    lhs: object
    rhs: object
    equal: bool


def signed_cone_sum_y(cones: Sequence[PolarizedCone], x: Sequence) -> YFrac:
    """Sign-weighted sum of the cone weights of x."""
    slack = cone_point_slacks(cones, x)[0]
    return YFrac.combination(_signed_cone_sum(_flat(cones), slack.items()))


def _flat(cones: Sequence[PolarizedCone]) -> list[tuple[int, int, int]]:
    """Each cone as bit masks of its unflipped and flipped facets, and its sign."""
    return [(sum(1 << i for i, f in zip(c.facets, c.flipped) if not f),
             sum(1 << i for i, f in zip(c.facets, c.flipped) if f), c.sign)
            for c in cones]


def _signed_cone_sum(flat: list, slack) -> dict:
    """{(r1, r2): net sign} over the cones containing a point, from its
    (facet, slack) pairs over all their facets, read as slack_face_counts."""
    neg = zero = 0
    for i, s in slack:
        if s < 0:
            neg |= 1 << i
        elif s == 0:
            zero |= 1 << i
    pos = ~(neg | zero)
    table: dict = {}
    for unflipped, flipped, sign in flat:
        if not (neg & unflipped or pos & flipped):
            counts = (zero & unflipped).bit_count(), (zero & flipped).bit_count()
            table[counts] = table.get(counts, 0) + sign
    return table


def _check(facets, flat: list, num: Sequence[int], den: int, w) -> tuple:
    """(face codim, signed cone sum, verdict) at num / den, off one slack
    vector: u**codim against the sum as u-polynomials and, where they
    differ, at w.y; codim is None outside the polytope."""
    slack = facet_slacks(facets, num, den)
    codim = slack_codim(slack)
    rhs = YFrac.combination(_signed_cone_sum(flat, enumerate(slack)))
    return codim, rhs, rhs.u == ({} if codim is None else {codim: 1}) or (
        w is not None and (0 if codim is None else w.on_face**codim) == rhs(w.y))


def check_decomposition_at(poly: Polytope, cones: Sequence[PolarizedCone], x: Sequence,
                           w: Optional[WeightParam] = None) -> CheckResult:
    """Compare polytope weight with the signed cone sum at one point.

    Both sides are YFracs, compared as check_decomposition compares
    them, and read off one slack vector; with w given they are returned
    evaluated at w.y, as Fractions.
    """
    xt = tuple(a if type(a) is Fraction else Fraction(a) for a in x)
    codim, rhs, equal = _check(poly.facets, _flat(cones), *clear_denominators(xt), w)
    lhs = YFrac(0) if codim is None else YFrac.weight(codim, 0)
    if w is not None:
        lhs, rhs = lhs(w.y), rhs(w.y)
    return CheckResult(point=xt, lhs=lhs, rhs=rhs, equal=equal)


def check_decomposition(poly: Polytope, cones: Sequence[PolarizedCone],
                        rows: Sequence[tuple[Sequence[int], int]],
                        w: Optional[WeightParam] = None) -> list[CheckResult]:
    """check_decomposition_at's result at each row (num, den) of
    sample_points where the two sides disagree, in row order; [] when
    the decomposition holds at every row.  Only a failing row is made
    into Fractions."""
    facets, flat = poly.facets, _flat(cones)
    return [check_decomposition_at(poly, cones, tuple(Fraction(a, den) for a in num), w)
            for num, den in rows if not _check(facets, flat, num, den, w)[2]]


def sample_points(poly: Polytope, xi: Sequence, rng: Optional[random.Random] = None,
                  random_count: int = 20) -> list[tuple[tuple[int, ...], int]]:
    """Each point once, as its canonical row (num, den): x = num / den, den > 0
    and gcd(den, *num) = 1, in ints from the vertices' numerators over one D.

    One point per vertex, edge midpoints, facet barycenters, the
    barycenter, exterior probes past each vertex along +-xi (stepped far
    enough to leave the bounding box), and random rational points from a
    box inflated to twice the size, in that order.
    """
    nums, D = poly.cleared_vertices

    def mean(ks) -> tuple:
        return [sum(col) for col in zip(*(nums[k] for k in ks))], len(ks) * D

    rows = [mean((k,)) for k in range(len(nums))]
    rows += [mean(edge) for edge in poly.edges()]
    incident: list[list[int]] = [[] for _ in poly.facets]
    for k, v in enumerate(poly.vertices):
        for i in v.active:
            incident[i].append(k)
    rows += [mean(ks) for ks in incident]
    rows.append(mean(range(len(nums))))
    lo = [min(col) for col in zip(*nums)]
    hi = [max(col) for col in zip(*nums)]
    step = max(b - a for a, b in zip(lo, hi)) // D + 1
    xnum, xden = clear_denominators(tuple(Fraction(a) for a in xi))
    for p in nums:
        for sign in (1, -1):
            rows.append(([c * xden + sign * step * x * D for c, x in zip(p, xnum)],
                         D * xden))
    if random_count and rng is None:
        rng = random.Random(20)
    # the box inflated to twice the size, [(3lo - hi)/2, (3hi - lo)/2], as
    # numerators over 2D; a coordinate drawn over den in 1..4 is kept over 12
    inflated = [(3 * a - b, 3 * b - a) for a, b in zip(lo, hi)]

    def randoms():
        for _ in range(random_count):
            num = []
            for lo2, hi2 in inflated:
                den = rng.randint(1, 4)
                lo, hi = _trunc(lo2 * den, 2 * D) - 1, _trunc(hi2 * den, 2 * D) + 1
                num.append(rng.randint(lo, hi) * (12 // den))
            yield num, 12

    canonical = {}
    for num, den in chain(rows, randoms()):
        g = gcd(den, *num)
        canonical.setdefault((tuple(a // g for a in num), den // g))
    return list(canonical)


def _trunc(p: int, q: int) -> int:
    """p / q rounded toward zero, q > 0, as int() rounds a Fraction."""
    return p // q if p >= 0 else -(-p // q)

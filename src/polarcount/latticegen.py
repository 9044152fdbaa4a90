"""Lattice points, weighted counts, and the vertex generating-function
identity for regular integral polytopes.

With u = 1/(1+y), each vertex v with primitive edge directions
a_1..a_n contributes the rational function

    z^v * prod_j (u + (1-u)*z^(a_j)) / (1 - z^(a_j))

and the sum over vertices collapses to the polynomial

    sum over lattice points p of u^(codim of p) * z^p.

Both sides are LaurentPolys in n+1 variables, z_1..z_n and then u, with
int coefficients; the denominators are products of (1 - z^b) alone.
brion_check multiplies the lattice sum by them one at a time, and only
brion_sum and vertex_genfun build the quotient as a RationalFunction.
format_lattice_sum prints the lattice sum in y, over (1+y)^n.
The per-vertex signs are already absorbed: rewriting a geometric series
along a flipped direction produces exactly one minus sign per flip.

The lattice side of every identity comes from one enumeration,
lattice_rows, a depth-first walk over the coordinates of the integer
box with the facets scaled to integer normals and offsets.  It bounds
each coordinate from the facets' residuals, prunes every prefix that
no point of the box completes, and yields the lattice points a row at
a time, with the facets tight on the row and where the others are
tight; its cost is the visited prefixes times the facets, not the box
volume.  codim_sums reads the rows without listing the points: the
census, or at a concrete z the sum of z^p per codimension.
lattice_points expands them into a dict of points.  Weighted
quantities are computed symbolically in y; a concrete y only evaluates
the symbolic answer.  In particular each side of the chi identity is
written once: at a concrete (z, y) the vertex sum evaluates each
vertex_term's factors through LaurentPoly.at at (z, u), u = 1/(1+y),
and the lattice sum evaluates census_weight_y of the codim_sums at y.
Enumeration and the truncated cone series hold for any simple polytope;
everything else needs determinant +-1 edge bases at every vertex and
integer vertices, and raises HypothesisError otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import prod
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from .laurent import LaurentPoly, RationalFunction
from .polarize import polarize_cones
from .polytope import Polytope, fmt_point
from .weights import (
    CheckResult,
    WeightParam,
    check_decomposition_at,
    polytope_weight_y,
    signed_cone_sum_y,
)
from .ypoly import YFrac, den_text


class HypothesisError(ValueError):
    """The operation needs a regular integral polytope and got less."""


class PoleError(ZeroDivisionError):
    """Evaluation point lies on a pole of some vertex term."""


def require_lattice_hypotheses(poly: Polytope, operation: str):
    if not poly.regular:
        raise HypothesisError(
            f"{operation} requires a regular polytope (every vertex edge "
            f"matrix has determinant +-1); this one is not regular"
        )
    if not poly.integral:
        raise HypothesisError(
            f"{operation} requires an integral polytope (all vertices in "
            f"the lattice); this one has non-integer vertices"
        )


# -- enumeration (no hypotheses needed) ---------------------------------


def box_points(lo: Sequence[int], hi: Sequence[int]):
    """Integer points of the box [lo_1,hi_1] x ... , in lexicographic order."""
    return iter_product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def lattice_rows(poly: Polytope):
    """Each row of lattice points of the polytope, in lexicographic order,
    as (prefix, first, last, row_tight, tight_at): the points
    (*prefix, x) for first <= x <= last, row_tight facets tight on all
    of them, and one entry x in tight_at for each other facet tight at
    (*prefix, x), which may lie outside first..last.  A point's
    codimension is row_tight plus the number of its entries in tight_at.

    A depth-first walk over the coordinates of the integer box, on an
    explicit stack, with the facets <a, x> >= b of Polytope.facets.
    A node at level k is a prefix x_0..x_(k-1) carrying each facet's
    residual r = b - <a[:k], prefix>; each step along x_k subtracts a_k
    from it.  With R the most that the coordinates after k can add to
    <a, x> inside the box (the table ahead), a facet requires
    a_k * x_k >= r - R: a floor on x_k when a_k > 0, a ceiling when
    a_k < 0, and always true when a_k = 0, since every node has
    r <= R + max(a_k * lo_k, a_k * hi_k) (the root as P is nonempty in
    its box, each child as its x_k meets the rule).  Only prefixes that
    no point of the box satisfies are dropped, so the cost is the
    visited prefixes times the facets, not the box volume.

    At the last level R = 0 and the rule bounds a row of points: a facet
    with a_k != 0 is tight at x_k = r/a_k when that is an integer, and
    one with a_k = 0 is tight on the whole row when r = 0.  Empty rows
    are not yielded.
    """
    lo, hi = poly.integer_box()
    normals, offsets = zip(*poly.facets)
    columns = tuple(zip(*normals))
    leaf = len(columns) - 1
    # ahead[k][f]: the most that coordinates k+1.. add to facet f in the box
    ahead = [(0,) * len(offsets)]
    for k in range(leaf, 0, -1):
        ahead.append(tuple(
            R + max(a * lo[k], a * hi[k]) for R, a in zip(ahead[-1], columns[k])
        ))
    ahead.reverse()
    stack = [((), offsets)]
    while stack:
        prefix, residual = stack.pop()
        k = len(prefix)
        column = columns[k]
        first, last = lo[k], hi[k]
        if k < leaf:
            for a, s in zip(column, map(sub, residual, ahead[k])):
                if a > 0:
                    first = max(first, -(-s // a))
                elif a < 0:
                    last = min(last, s // a)
            # pushed last to first, so that they pop in lexicographic order
            child = tuple(r - a * last for r, a in zip(residual, column))
            for x in range(last, first - 1, -1):
                stack.append(((*prefix, x), child))
                child = tuple(map(add, child, column))
            continue
        # the last level: the same rule with R = 0, one pass that also
        # records where each facet is tight
        row_tight = 0
        tight_at = []
        for a, r in zip(column, residual):
            if a > 0:
                first = max(first, -(-r // a))
            elif a < 0:
                last = min(last, r // a)
            else:
                row_tight += r == 0
                continue
            if r % a == 0:
                tight_at.append(r // a)
        if first <= last:
            yield prefix, first, last, row_tight, tight_at


def lattice_points(poly: Polytope) -> dict[tuple[int, ...], int]:
    """Each lattice point of the polytope, in lexicographic order, mapped
    to the codimension of the smallest face containing it: the rows of
    lattice_rows, expanded."""
    points: dict[tuple[int, ...], int] = {}
    for prefix, first, last, row_tight, tight_at in lattice_rows(poly):
        codims = [row_tight] * (last - first + 1)
        for t in tight_at:
            if first <= t <= last:
                codims[t - first] += 1
        for x, c in zip(range(first, last + 1), codims):
            points[(*prefix, x)] = c
    return points


def codim_sums(
    poly: Polytope, z: Optional[Sequence[Fraction]] = None
) -> tuple[dict[int, int], Fraction]:
    """(sums, scale): for each codimension c, the sum of z^p over the
    lattice points p on faces of codimension c is sums[c] * scale, with
    the ints sums[c] nonzero and in ascending c.  With z None, z is
    (1, ..., 1): sums is the census and scale is 1; else z has dim
    nonzero coordinates, or ValueError.

    Read off lattice_rows without listing the points.  A coordinate
    z_i = a/b over the box's [lo, hi] gives z_i**e = a**(e-lo) *
    b**(hi-e) times a**lo / b**hi, and the product of the second factors
    is the scale.  So a row (*prefix, first..last) of L points sums to
    pre * a**(first-lo) * b**(hi-last) * G(L), with pre the prefix's int
    part and G(L) = a**(L-1) + a**(L-2)*b + ... + b**(L-1), which is
    (a**L - b**L)/(a - b), or L when z_n = 1.  Each facet tight at x
    then moves that point's part from its codimension to the next.
    """
    sums = [0] * (len(poly.facets) + 1)
    if z is None:
        for _, first, last, row_tight, tight_at in lattice_rows(poly):
            sums[row_tight] += last - first + 1
            # moved[x]: x's codimension so far, as facets tight at x repeat
            moved: dict[int, int] = {}
            for t in tight_at:
                if first <= t <= last:
                    c = moved.get(t, row_tight)
                    moved[t] = c + 1
                    sums[c] -= 1
                    sums[c + 1] += 1
        return {c: s for c, s in enumerate(sums) if s}, Fraction(1)
    z = _evaluation_point(poly, z)
    lo, hi = poly.integer_box()
    num = den = 1  # the scale
    parts = []  # parts[i][e - lo[i]]: the int part of z_i**e
    for c, lo_i, hi_i in zip(z, lo, hi):
        a, b = c.numerator, c.denominator
        num *= a ** max(lo_i, 0) * b ** max(-hi_i, 0)
        den *= a ** max(-lo_i, 0) * b ** max(hi_i, 0)
        apow = [a**k for k in range(hi_i - lo_i + 1)]
        bpow = [b**k for k in range(hi_i - lo_i + 1)]
        parts.append([p * q for p, q in zip(apow, reversed(bpow))])
    # a, b, apow and bpow are the last coordinate's now; geometric[L] is
    # G(L), as G(L+1) = a**L + b*G(L)
    geometric = [0]
    for p in apow:
        geometric.append(p + b * geometric[-1])
    *outer, part = parts
    lo_n, hi_n = lo[-1], hi[-1]
    for prefix, first, last, row_tight, tight_at in lattice_rows(poly):
        pre = 1
        for outer_part, e, lo_i in zip(outer, prefix, lo):
            pre *= outer_part[e - lo_i]
        sums[row_tight] += pre * (
            apow[first - lo_n] * bpow[hi_n - last] * geometric[last - first + 1]
        )
        moved = {}
        for t in tight_at:
            if first <= t <= last:
                c = moved.get(t, row_tight)
                moved[t] = c + 1
                point = pre * part[t - lo_n]
                sums[c] -= point
                sums[c + 1] += point
    return {c: s for c, s in enumerate(sums) if s}, Fraction(num, den)


def codim_census(poly: Polytope) -> dict[int, int]:
    """How many lattice points sit on faces of each codimension."""
    return codim_sums(poly)[0]


def format_census(census: dict[int, int]) -> str:
    """Render a census as the sum of its weights count * u**codim, each
    printed by YFrac, codim ascending."""
    if not census:
        return "0"
    return " + ".join(str(YFrac(census[c], c)) for c in sorted(census))


def format_lattice_sum(lattice_sum: LaurentPoly) -> str:
    """Render a weighted lattice sum in y: (sum of c*(1+y)^(n-k) * z^p) /
    (1+y)^n, each c * u^k * z^p cleared to the power n.

    Only n+1 codimensions k occur, so each distinct (c, k) is cleared
    once and its points share the one YPoly, printed once.
    """
    n = lattice_sum.nvars - 1
    shared: dict = {}
    terms = {}
    for e, c in lattice_sum.terms.items():
        key = (c, e[-1])
        if key not in shared:
            shared[key] = YFrac(*key).cleared(n)
        terms[e[:-1]] = shared[key]
    return f"({LaurentPoly._of(n, terms)}) / {den_text(n)}"


# -- weighted counts ----------------------------------------------------


def census_weight_y(census: dict[int, int]) -> YFrac:
    """Symbolic weighted count of a census: the sum of count * u**codim,
    u = 1/(1+y)."""
    return YFrac.combination({(c, 0): k for c, k in census.items()})


def weighted_count_y(poly: Polytope) -> YFrac:
    """Symbolic weighted lattice count: sum of (1/(1+y))**codim."""
    require_lattice_hypotheses(poly, "weighted counting")
    return census_weight_y(codim_census(poly))


def weighted_count(poly: Polytope, w: WeightParam) -> Fraction:
    """The symbolic weighted count evaluated at w.y."""
    return weighted_count_y(poly)(w.y)


# -- generating functions ------------------------------------------------


class VertexTerm(NamedTuple):
    """One vertex's rational function, with bookkeeping for summation.

    factors are z^v and then one binomial in z and u per edge, where an
    edge whose primitive direction is not canonically oriented has had
    its geometric series rewritten: 1/(1 - z^(-b)) = -z^b/(1 - z^b).
    canonical_dirs lists the denominator directions after rewriting, in
    edge order, so the denominator is prod (1 - z^b) over them.
    """

    vertex_index: int
    factors: tuple[LaurentPoly, ...]
    canonical_dirs: tuple[tuple[int, ...], ...]

    @property
    def numerator(self) -> LaurentPoly:
        """The product of the factors, expanded."""
        return prod(self.factors[1:], start=self.factors[0])


def _one_minus(b: tuple[int, ...]) -> LaurentPoly:
    """1 - z^b, with u's exponent 0."""
    return LaurentPoly._of(len(b) + 1, {(0,) * (len(b) + 1): 1, (*b, 0): -1})


def vertex_term(poly: Polytope, vertex_index: int) -> VertexTerm:
    """The vertex's term in n+1 variables; the last, printed z{n+1}, is u = 1/(1+y)."""
    require_lattice_hypotheses(poly, "the vertex generating function")
    n = poly.dim
    v = poly.vertices[vertex_index]
    apex = poly.cleared_vertices[0][vertex_index]  # P is integral: den 1
    factors = [LaurentPoly._of(n + 1, {(*apex, 0): 1})]
    one, u = (0,) * (n + 1), (0,) * n + (1,)
    dirs = []
    # the edges are primitive int vectors (Polytope construction), so the
    # canonical direction is the edge itself or its negation
    for a in v.edges:
        if next(x for x in a if x) > 0:
            b = a
            binom = {u: 1, (*b, 0): 1, (*b, 1): -1}
        else:
            b = tuple(-x for x in a)
            binom = {one: -1, u: 1, (*b, 1): -1}
        factors.append(LaurentPoly._of(n + 1, binom))
        dirs.append(b)
    return VertexTerm(vertex_index, tuple(factors), tuple(dirs))


def vertex_genfun(poly: Polytope, vertex_index: int) -> RationalFunction:
    """The vertex's contribution as an explicit rational function."""
    term = vertex_term(poly, vertex_index)
    return RationalFunction(
        term.numerator, _denominator(poly.dim + 1, term.canonical_dirs)
    )


def _times_one_minus(terms: dict, b: tuple[int, ...]) -> dict:
    """The terms of p * (1 - z^b), u's exponent unchanged, from those of
    p: each term is shifted by b and subtracted; zeros dropped."""
    out = dict(terms)
    for e, c in terms.items():
        key = (*map(add, e, b), e[-1])
        out[key] = out.get(key, 0) - c
    return {e: c for e, c in out.items() if c}


def _denominator(nvars: int, dirs) -> LaurentPoly:
    """The product of (1 - z^b) over dirs, expanded."""
    den = {(0,) * nvars: 1}
    for b in dirs:
        den = _times_one_minus(den, b)
    return LaurentPoly._of(nvars, den)


def _vertex_sum(poly: Polytope) -> tuple[dict, list]:
    """The vertex sum's numerator terms over prod (1 - z^b), and the
    distinct directions b, in order of first appearance."""
    require_lattice_hypotheses(poly, "the vertex generating-function sum")
    terms = [vertex_term(poly, i) for i in range(len(poly.vertices))]
    all_dirs = list(dict.fromkeys(b for t in terms for b in t.canonical_dirs))
    total: dict = {}
    for t in terms:
        lifted = t.numerator.terms
        for b in all_dirs:
            if b not in t.canonical_dirs:
                lifted = _times_one_minus(lifted, b)
        for e, c in lifted.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}, all_dirs


def brion_sum(poly: Polytope) -> RationalFunction:
    """Sum of all vertex terms over one common factored denominator, in
    n+1 variables as in vertex_term: the last, printed z{n+1}, is u = 1/(1+y)."""
    num, dirs = _vertex_sum(poly)
    n1 = poly.dim + 1
    return RationalFunction(LaurentPoly._of(n1, num), _denominator(n1, dirs))


def weighted_sum_poly(poly: Polytope) -> LaurentPoly:
    """Weighted lattice sum: one term u^(codim p) * z^p per lattice point p.

    A LaurentPoly in n+1 variables; the last, printed z{n+1}, is u = 1/(1+y).
    """
    require_lattice_hypotheses(poly, "the weighted lattice sum")
    n1 = poly.dim + 1
    return LaurentPoly._of(n1, {(*p, c): 1 for p, c in lattice_points(poly).items()})


class BrionReport(NamedTuple):
    lattice_sum: LaurentPoly
    equal: bool


def brion_check(poly: Polytope) -> BrionReport:
    """The weighted lattice sum, and whether the vertex sum equals it:
    exactly, as the lattice sum times each factor (1 - z^b) of the vertex
    sum's denominator in turn, a shift and a subtraction, against the
    vertex sum's numerator.  No rational function is built."""
    num, dirs = _vertex_sum(poly)
    lattice = weighted_sum_poly(poly)
    crossed = lattice.terms
    for b in dirs:
        crossed = _times_one_minus(crossed, b)
    return BrionReport(lattice_sum=lattice, equal=crossed == num)


# -- pointwise evaluation -------------------------------------------------


def _evaluation_point(poly: Polytope, z: Sequence) -> tuple[Fraction, ...]:
    zt = tuple(Fraction(a) for a in z)
    if len(zt) != poly.dim:
        raise ValueError(f"expected {poly.dim} coordinates, got {len(zt)}")
    if any(a == 0 for a in zt):
        raise ValueError("evaluation point must have nonzero coordinates")
    return zt


def chi_y_vertex_sum(poly: Polytope, w: WeightParam, z: Sequence) -> Fraction:
    """Sum of vertex terms evaluated at a concrete z with nonzero coordinates.

    Each vertex_term factor is evaluated at (z, u) on its own, so the
    expanded numerator, up to 3^n terms, is never built.
    """
    require_lattice_hypotheses(poly, "vertex-sum evaluation")
    point = (*_evaluation_point(poly, z), w.on_face)
    total = Fraction(0)
    for i, v in enumerate(poly.vertices):
        term = vertex_term(poly, i)
        monomial, *binomials = term.factors
        num, den = monomial.at(point), 1
        for a, binom, b in zip(v.edges, binomials, term.canonical_dirs):
            pole = _one_minus(b).at(point)
            if not pole:
                vertex = fmt_point(poly.cleared_vertices[0][i])  # P is integral
                raise PoleError(
                    f"z^{a} = 1 at vertex {vertex}: the point "
                    f"lies on a pole; perturb z"
                )
            num *= binom.at(point)
            den *= pole
        total += num / den
    return total


def chi_y_lattice_sum(poly: Polytope, w: WeightParam, z: Sequence) -> Fraction:
    """The weighted lattice sum evaluated at a concrete z: the census
    weight of codim_sums(poly, z), evaluated at w.y and scaled."""
    require_lattice_hypotheses(poly, "weighted lattice evaluation")
    sums, scale = codim_sums(poly, z)
    return census_weight_y(sums)(w.y) * scale


class ChiReport(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool


def chi_y_check(poly: Polytope, w: WeightParam, z: Sequence) -> ChiReport:
    lhs = chi_y_vertex_sum(poly, w, z)
    rhs = chi_y_lattice_sum(poly, w, z)
    return ChiReport(lhs=lhs, rhs=rhs, equal=lhs == rhs)


# -- coefficient extraction ----------------------------------------------


def coefficient_extract(poly: Polytope, xi: Sequence, alpha: Sequence[int]) -> YFrac:
    """Coefficient of z^alpha on the vertex-cone side of the identity.

    Sums, over the cones polarized by xi, the signed weight of alpha in
    each cone; this is the z^alpha coefficient of the vertex sum read
    directly from the lattice series, with no polytope-side shortcut.
    """
    require_lattice_hypotheses(poly, "coefficient extraction")
    cones = polarize_cones(poly, xi)
    return signed_cone_sum_y(cones, tuple(int(a) for a in alpha))


def multiplicity(poly: Polytope, alpha: Sequence[int]) -> YFrac:
    """Predicted z^alpha coefficient: (1/(1+y))**codim inside, else 0."""
    require_lattice_hypotheses(poly, "multiplicity prediction")
    return polytope_weight_y(poly, tuple(int(a) for a in alpha))


class MultiplicityReport(NamedTuple):
    extracted: YFrac
    predicted: YFrac
    equal: bool


def multiplicity_check(
    poly: Polytope, xi: Sequence, alpha: Sequence[int]
) -> MultiplicityReport:
    ext = coefficient_extract(poly, xi, alpha)
    pred = multiplicity(poly, alpha)
    return MultiplicityReport(extracted=ext, predicted=pred, equal=ext == pred)


# -- truncated cone series ------------------------------------------------


def cone_series_check(
    poly: Polytope,
    xi: Sequence,
    margin: int = 2,
    w: Optional[WeightParam] = None,
) -> list[CheckResult]:
    """Signed cone weights vs polytope weight on every box lattice point.

    The box is the polytope's integer bounding box inflated by margin.
    This is the generating-function identity read coefficient by
    coefficient; it holds for any simple polytope, so no hypotheses are
    imposed here.
    """
    cones = polarize_cones(poly, xi)
    lo, hi = poly.integer_box(margin)
    return [
        check_decomposition_at(poly, cones, p, w) for p in box_points(lo, hi)
    ]

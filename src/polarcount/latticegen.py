"""Lattice points, weighted counts, and the vertex generating-function
identity for regular integral polytopes.

With u = 1/(1+y), each vertex v with primitive edge directions
a_1..a_n contributes the rational function

    z^v * prod_j (u + (1-u)*z^(a_j)) / (1 - z^(a_j))

and the sum over vertices collapses to the polynomial

    sum over lattice points p of u^(codim of p) * z^p.

Both sides have int coefficients in n+1 variables, z_1..z_n and then
u; the denominators are products of (1 - z^b) alone.  The vertex sum
runs on packed exponents: each monomial z^e u^k is one int key,
sum of (e_i - off_i) * stride_i + k, in a dict of int coefficients, so
multiplying by a monomial is one int addition.  The offsets and digit
widths are the integer box's, widened by the vertex sum's directions
(_packing says why no two exponents share a key).  _vertex_sum packs
each vertex's numerator, the LaurentPoly product of its factors, and
lifts it over the directions the vertex lacks by shift-and-subtract
(_lift); brion_check packs the lattice sum, lifts it over every
direction the same way and compares the two dicts.  brion_sum and
_denominator read the same kernel and unpack its keys by divmod to
LaurentPolys; only they and vertex_genfun build a RationalFunction.
format_lattice_sum
prints the lattice sum in y, over (1+y)^n, each distinct coefficient
and codimension's text made once.
The per-vertex signs are already absorbed: rewriting a geometric series
along a flipped direction produces exactly one minus sign per flip.

The lattice side of every identity comes from one enumeration,
lattice_rows, a depth-first walk over the coordinates of the integer
box with the facets scaled to integer normals and offsets.  It bounds
each coordinate from the facets' residuals, prunes every prefix that
no point of the box completes, and yields the lattice points a row at
a time, with the number of facets tight on the whole row and the
codimension of each point where another facet is tight, so it alone
decides a point's codimension; its cost is the visited prefixes times
the facets, not the box volume.  codim_sums reads the rows without
listing the points, with the rows along the box's longest coordinate:
the census, or at a concrete z the sum of z^p per codimension.
lattice_points walks the last coordinate last and expands the rows
into a dict of points in lexicographic order.  Weighted quantities are computed symbolically in
y; a concrete y only evaluates the symbolic answer.  In particular
each side of the chi identity is written once: at a concrete (z, y)
the vertex sum evaluates each vertex's factors, z^v and one binomial
over 1 - z^a per edge a, at (z, u), u = 1/(1+y), in ints, from the
vertex and its edges; the lattice sum evaluates census_weight_y of the
codim_sums at y.
Enumeration and the truncated cone series hold for any simple polytope;
everything else needs determinant +-1 edge bases at every vertex and
integer vertices, and raises HypothesisError otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, prod
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from .laurent import LaurentPoly, RationalFunction, coefficient_text, format_terms
from .linalg import oriented
from .polarize import polarize_cones, wall_directions
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


def _walk_order(n: int, row: int) -> list[int]:
    """The coordinates in walk order: all but row, in their order, then row."""
    return [*range(row), *range(row + 1, n), row]


def _longest_axis(lo: Sequence[int], hi: Sequence[int]) -> int:
    """The coordinate of largest extent hi - lo in the box, the last of
    those tied, so that a box of equal extents keeps the last."""
    return max(range(len(lo)), key=lambda i: (hi[i] - lo[i], i))


def lattice_rows(poly: Polytope, row: Optional[int] = None):
    """Each row of lattice points of the polytope, as (prefix, first,
    last, row_tight, codims): the points whose coordinate row is x for
    first <= x <= last and whose other coordinates, in their order, are
    prefix; row_tight facets tight on all of them, and codims[x] the
    codimension of the point at x where some other facet is tight too.
    Every other point of the row has codimension row_tight.  row is the
    last coordinate when None: the points are then (*prefix, x), and the
    rows come in lexicographic order.

    A depth-first walk over the coordinates of the integer box, on an
    explicit stack, with the facets <a, x> >= b of Polytope.facets; the
    coordinates, the box and the facets' columns are taken in walk order
    (_walk_order), row last, and below k counts in that order.
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
    with a_k != 0 is tight at x_k = r/a_k when that is an integer (and
    counts when that x_k is in the row), and one with a_k = 0 is tight
    on the whole row when r = 0.  Empty rows are not yielded.
    """
    lo, hi = poly.integer_box()
    normals, offsets = zip(*poly.facets)
    columns = tuple(zip(*normals))
    if row is not None:
        order = _walk_order(len(lo), row)
        lo, hi, columns = ([seq[i] for i in order] for seq in (lo, hi, columns))
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
            # pushed last to first, so that they pop in ascending order
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
            codims: dict[int, int] = {}
            for x in tight_at:
                if first <= x <= last:
                    codims[x] = codims.get(x, row_tight) + 1
            yield prefix, first, last, row_tight, codims


def lattice_points(poly: Polytope) -> dict[tuple[int, ...], int]:
    """Each lattice point of the polytope, in lexicographic order, mapped
    to the codimension of the smallest face containing it: the rows of
    lattice_rows, expanded."""
    points: dict[tuple[int, ...], int] = {}
    for prefix, first, last, row_tight, codims in lattice_rows(poly):
        row = [row_tight] * (last - first + 1)
        for x, c in codims.items():
            row[x - first] = c
        for x, c in zip(range(first, last + 1), row):
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

    Read off lattice_rows without listing the points, with the rows
    along the coordinate of the integer box's largest extent, the last
    of those tied (_longest_axis): the walk yields fewest rows there
    when the polytope fills its box alike along each axis.  A
    coordinate z_i = a/b over the box's [lo, hi] gives z_i**e =
    a**(e-lo) * b**(hi-e) times a**lo / b**hi, and the product of the
    second factors is the scale.  So a row of L points, first..last
    along the row coordinate, sums to pre * a**(first-lo) *
    b**(hi-last) * G(L), with pre the prefix's int part, a/b the row
    coordinate's, and G(L) = a**(L-1) + a**(L-2)*b + ... + b**(L-1),
    which is (a**L - b**L)/(a - b), or L when a = b.  Each point of the
    row's codims then moves its part from row_tight to its codimension.
    """
    sums = [0] * (len(poly.facets) + 1)
    lo, hi = poly.integer_box()
    row = _longest_axis(lo, hi)
    if z is None:
        for _, first, last, row_tight, codims in lattice_rows(poly, row):
            sums[row_tight] += last - first + 1 - len(codims)
            for c in codims.values():
                sums[c] += 1
        return {c: s for c, s in enumerate(sums) if s}, Fraction(1)
    z = _evaluation_point(poly, z)
    order = _walk_order(poly.dim, row)
    num = den = 1  # the scale
    parts = []  # parts[k][e - lo]: the int part of z_i**e, i = order[k]
    for i in order:
        a, b = z[i].numerator, z[i].denominator
        lo_i, hi_i = lo[i], hi[i]
        num *= a ** max(lo_i, 0) * b ** max(-hi_i, 0)
        den *= a ** max(-lo_i, 0) * b ** max(hi_i, 0)
        apow = [a**k for k in range(hi_i - lo_i + 1)]
        bpow = [b**k for k in range(hi_i - lo_i + 1)]
        parts.append([p * q for p, q in zip(apow, reversed(bpow))])
    # a, b, apow and bpow are the row coordinate's now; geometric[L] is
    # G(L), as G(L+1) = a**L + b*G(L)
    geometric = [0]
    for p in apow:
        geometric.append(p + b * geometric[-1])
    *outer, part = parts
    outer_lo = [lo[i] for i in order[:-1]]
    lo_r, hi_r = lo[row], hi[row]
    for prefix, first, last, row_tight, codims in lattice_rows(poly, row):
        pre = 1
        for outer_part, e, lo_i in zip(outer, prefix, outer_lo):
            pre *= outer_part[e - lo_i]
        sums[row_tight] += pre * (
            apow[first - lo_r] * bpow[hi_r - last] * geometric[last - first + 1]
        )
        for x, c in codims.items():
            point = pre * part[x - lo_r]
            sums[row_tight] -= point
            sums[c] += point
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
    and its text made once, and its points share that text.
    """
    n = lattice_sum.nvars - 1
    texts: dict[tuple[int, int], str] = {}

    def terms():
        for e in sorted(lattice_sum.terms):
            key = (lattice_sum.terms[e], e[-1])
            text = texts.get(key)
            if text is None:
                text = texts[key] = coefficient_text(YFrac(*key).cleared(n))
            yield e, text

    # u's exponent, the last, is in the text and does not print
    return f"({format_terms(n, terms())}) / {den_text(n)}"


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
        b = oriented(a)
        if b is a:
            binom = {u: 1, (*b, 0): 1, (*b, 1): -1}
        else:
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


class _Packing(NamedTuple):
    """Exponents (e_1..e_n, k) of z^e u^k packed into one int, the key
    sum of (e_i - offsets[i]) * strides[i] over all n+1 variables; the
    strides decrease, and u's offset is 0 and its stride 1.

    _packing sizes the digits so that each key is one exponent's.  Then
    a product is a sum of keys: z^b u^j moves a key by shift((*b, j)).
    """

    offsets: tuple[int, ...]
    strides: tuple[int, ...]

    @property
    def origin(self) -> int:
        """The key of z^0 u^0."""
        return -sum(map(mul, self.offsets, self.strides))

    def shift(self, expo: Sequence[int]) -> int:
        """How far multiplying by z^e u^k moves a key; an exponent
        without its last entry, u's, has k = 0."""
        return sum(map(mul, expo, self.strides))

    def packed(self, terms: dict) -> dict[int, int]:
        """Terms keyed by exponent tuples, rekeyed by their packed keys."""
        origin, strides = self.origin, self.strides
        return {origin + sum(map(mul, e, strides)): c for e, c in terms.items()}

    def unpacked(self, terms: dict[int, int]) -> LaurentPoly:
        """The LaurentPoly of packed terms, each key split by divmod."""
        out = {}
        for key, c in terms.items():
            expo = []
            for off, stride in zip(self.offsets, self.strides):
                d, key = divmod(key, stride)
                expo.append(d + off)
            out[tuple(expo)] = c
        return LaurentPoly._of(len(self.strides), out)


def _packing(lo: Sequence[int], hi: Sequence[int], dirs) -> _Packing:
    """The packing of the exponents p + sum of the b in S, u^k, for p in
    the box [lo, hi], S any subset of dirs, and 0 <= k <= n.

    Coordinate i of such an exponent lies in [off_i, off_i + width_i),
    with off_i = lo_i + sum over dirs of min(0, b_i) and width_i =
    hi_i - lo_i + sum over dirs of |b_i| + 1, and k in [0, n + 1).  Each
    stride is the product of the widths after it, so the digits of a
    key are its exponent's and two exponents never share a key.  Both
    sides of the Brion identity stay in that range: each of their
    exponents is a lattice point, or a vertex v, moved by each b of dirs
    at most once, with u's exponent a codimension or a count of the
    vertex's binomial factors that give u, so at most n.
    """
    n = len(lo)
    offsets = tuple(
        lo_i + sum(min(0, b[i]) for b in dirs) for i, lo_i in enumerate(lo)
    )
    strides = [1]
    width = n + 1
    for i in range(n - 1, -1, -1):
        strides.append(strides[-1] * width)
        width = hi[i] - lo[i] + sum(abs(b[i]) for b in dirs) + 1
    return _Packing((*offsets, 0), tuple(reversed(strides)))


def _lift(terms: dict[int, int], shifts) -> dict[int, int]:
    """Packed terms times (1 - z^b) for the b of each shift, in turn: a
    copy, and each term moved by the shift and subtracted; zeros dropped."""
    for s in shifts:
        out = dict(terms)
        get = out.get
        for key, c in terms.items():
            moved = key + s
            out[moved] = get(moved, 0) - c
        terms = {key: c for key, c in out.items() if c}
    return terms


def _denominator(nvars: int, dirs) -> LaurentPoly:
    """The product of (1 - z^b) over dirs, expanded: 1 lifted over them."""
    zero = (0,) * (nvars - 1)
    pack = _packing(zero, zero, dirs)
    return pack.unpacked(_lift({pack.origin: 1}, map(pack.shift, dirs)))


def _vertex_sum(poly: Polytope) -> tuple[_Packing, dict[int, int], tuple]:
    """The vertex sum's numerator over prod (1 - z^b), packed; its
    packing; and the directions b: the walls, polarize.wall_directions.

    Each vertex's numerator, the product of its factors, is packed and
    lifted over the directions that vertex lacks.
    """
    require_lattice_hypotheses(poly, "the vertex generating-function sum")
    terms = [vertex_term(poly, i) for i in range(len(poly.vertices))]
    all_dirs = wall_directions(poly)
    pack = _packing(*poly.integer_box(), all_dirs)
    total: dict[int, int] = {}
    for t in terms:
        missing = [b for b in all_dirs if b not in t.canonical_dirs]
        lifted = _lift(pack.packed(t.numerator.terms), map(pack.shift, missing))
        for key, c in lifted.items():
            total[key] = total.get(key, 0) + c
    return pack, {key: c for key, c in total.items() if c}, all_dirs


def brion_sum(poly: Polytope) -> RationalFunction:
    """Sum of all vertex terms over one common factored denominator, in
    n+1 variables as in vertex_term: the last, printed z{n+1}, is u = 1/(1+y)."""
    pack, num, dirs = _vertex_sum(poly)
    return RationalFunction(pack.unpacked(num), _denominator(poly.dim + 1, dirs))


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
    exactly, as the lattice sum, packed as in _vertex_sum, lifted over
    the vertex sum's directions and compared with its numerator.  No
    rational function is built."""
    pack, num, dirs = _vertex_sum(poly)
    lattice = weighted_sum_poly(poly)
    crossed = _lift(pack.packed(lattice.terms), map(pack.shift, dirs))
    return BrionReport(lattice_sum=lattice, equal=crossed == num)


# -- pointwise evaluation -------------------------------------------------


def _evaluation_point(poly: Polytope, z: Sequence) -> tuple[Fraction, ...]:
    zt = tuple(Fraction(a) for a in z)
    if len(zt) != poly.dim:
        raise ValueError(f"expected {poly.dim} coordinates, got {len(zt)}")
    if any(a == 0 for a in zt):
        raise ValueError("evaluation point must have nonzero coordinates")
    return zt


def _monomial(z, expo) -> tuple[int, int]:
    """z^expo as an int numerator and denominator (N, D), z given as the
    int pairs (p_i, q_i) of z_i = p_i/q_i: the powers of p_i over those
    of q_i, swapped where expo_i < 0."""
    num = den = 1
    for (p, q), e in zip(z, expo):
        if e > 0:
            num *= p**e
            den *= q**e
        elif e < 0:
            num *= q**-e
            den *= p**-e
    return num, den


def _vertex_value(z, u, apex, edges) -> tuple[int, int]:
    """The vertex term z^apex * prod over the edges a of
    (u + (1-u)*z^a) / (1 - z^a) at (z, u), as an int numerator and
    denominator, z as the pairs of _monomial and u = U/S as (U, S).
    With z^a = N/D, an edge's factor is (U*D + (S-U)*N) / (S*(D-N));
    PoleError at the first edge with N == D, that is z^a = 1."""
    num, den = _monomial(z, apex)
    U, S = u
    for a in edges:
        N, D = _monomial(z, a)
        if N == D:
            raise PoleError(
                f"z^{a} = 1 at vertex {fmt_point(apex)}: the point "
                f"lies on a pole; perturb z"
            )
        num *= U * D + (S - U) * N
        den *= S * (D - N)
    return num, den


def chi_y_vertex_sum(poly: Polytope, w: WeightParam, z: Sequence) -> Fraction:
    """Sum of vertex terms evaluated at a concrete z with nonzero coordinates.

    Each vertex's term is evaluated at (z, u), u = w.on_face, from its
    point and its edges, a factor at a time and in ints (_vertex_value),
    so no numerator (up to 3^n terms) is expanded.  The running sum is an
    int numerator and denominator, reduced by their gcd once per vertex;
    one Fraction is built at the end.
    """
    require_lattice_hypotheses(poly, "vertex-sum evaluation")
    z = [c.as_integer_ratio() for c in _evaluation_point(poly, z)]
    u = w.on_face.as_integer_ratio()
    num, den = 0, 1
    # P is integral: the vertices' common denominator is 1
    for apex, v in zip(poly.cleared_vertices[0], poly.vertices):
        vnum, vden = _vertex_value(z, u, apex, v.edges)
        num = num * vden + vnum * den
        den *= vden
        g = gcd(num, den)
        num //= g
        den //= g
    return Fraction(num, den)


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

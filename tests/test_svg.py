import xml.etree.ElementTree as ET
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, hypot, isfinite

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcount as pc
from polarcount.linalg import clear_denominators, dot, vadd, vsub
from polarcount.svgfig import _UNIT, _clip, _fmt, _unit, render_svg
from zoo import facet_systems

SVG_NS = "{http://www.w3.org/2000/svg}"


def render_parsed(poly=None, xi=None, y=0, margin=2):
    """The figure of poly (default the trapezoid) polarized by xi (default
    find_polarizing's at seed 1), labeled at y, and its parsed tree."""
    P = pc.trapezoid() if poly is None else poly
    if xi is None:
        xi = pc.find_polarizing(P, seed=1)
    text = render_svg(P, xi, pc.WeightParam(y), margin)
    return text, ET.fromstring(text)


def test_basic_figure_is_valid_xml():
    text, root = render_parsed()
    assert root.tag == f"{SVG_NS}svg"
    assert text.startswith("<svg")


def test_rejects_other_dimensions():
    w = pc.WeightParam(0)
    with pytest.raises(ValueError):
        render_svg(pc.interval(1), (1,), w, 2)
    with pytest.raises(ValueError):
        render_svg(pc.hypercube(3, 1), (1, 2, 3), w, 2)


def test_rejects_a_negative_margin():
    # the box would be drawn inside out
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        render_svg(pc.trapezoid(), (1, 2), pc.WeightParam(0), -3)


def test_lattice_dot_counts():
    P = pc.trapezoid()
    text, root = render_parsed(poly=P, margin=2)
    circles = root.findall(f"{SVG_NS}circle")
    lo, hi = P.integer_box(2)
    box_count = (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
    assert len(circles) == box_count
    filled = [c for c in circles if c.get("fill") == "#111"]
    assert len(filled) == len(pc.lattice_points(P))


def test_outline_and_orientation():
    P = pc.hypercube(2, 1)
    _, root = render_parsed(poly=P, margin=1)
    polygons = root.findall(f"{SVG_NS}polygon")
    outline = [p for p in polygons if p.get("stroke") == "#111"]
    assert len(outline) == 1
    corners = outline[0].get("points").split()
    assert len(corners) == 4


def boundary_order(poly) -> list[int]:
    """Vertex indices in counterclockwise order, by an angular sort about
    the barycenter: the figure's earlier outline order, kept as the oracle.

    Directions from the barycenter are compared scaled by the vertex
    count times the common denominator, so they stay integers.
    """
    nums, _ = poly.cleared_vertices
    m = len(nums)
    sx, sy = (sum(col) for col in zip(*nums))
    dirs = [(i, (m * x - sx, m * y - sy)) for i, (x, y) in enumerate(nums)]

    def half(d) -> int:
        # 0 for the upper half (including positive x axis), 1 below
        if d[1] > 0 or (d[1] == 0 and d[0] > 0):
            return 0
        return 1

    def compare(a, b) -> int:
        ha, hb = half(a[1]), half(b[1])
        if ha != hb:
            return ha - hb
        cross = a[1][0] * b[1][1] - a[1][1] * b[1][0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return [i for i, _ in sorted(dirs, key=cmp_to_key(compare))]


def outline_oracle(poly, margin) -> str:
    """The outline's points attribute: the vertices in boundary_order,
    placed in Fractions."""
    nums, den = poly.cleared_vertices
    lo, hi = poly.integer_box(margin)
    height = (hi[1] - lo[1]) * _UNIT + 2 * _UNIT

    def attr(x, y) -> str:
        px = _UNIT + (Fraction(x, den) - lo[0]) * _UNIT
        py = height - _UNIT - (Fraction(y, den) - lo[1]) * _UNIT
        return f"{_fmt(px)},{_fmt(py)}"

    return " ".join(attr(*nums[i]) for i in boundary_order(poly))


def outline_points(poly, margin) -> str:
    _, root = render_parsed(poly=poly, margin=margin)
    [outline] = [p for p in root.findall(f"{SVG_NS}polygon") if p.get("stroke") == "#111"]
    return outline.get("points")


def diamond():
    """A vertex on each axis ray from the barycenter (1, 1): the +x ray's
    (2, 1) starts the outline, the -x ray's (0, 1) does not."""
    return pc.Polytope([((1, 1), 1), ((-1, 1), -1), ((-1, -1), -3), ((1, -1), -1)])


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize(
    "poly",
    [diamond(), pc.trapezoid(), pc.trapezoid(Fraction(7, 2), Fraction(3, 2)),
     pc.hypercube(2, 3), pc.dilated_simplex(2, 3), pc.hypercube(2, Fraction(3, 2))],
    ids=["diamond", "trapezoid", "trapezoid:7/2,3/2", "cube:2,3", "simplex:2,3",
         "halfsquare"],
)
def test_outline_is_the_vertices_in_angular_order(poly, margin):
    assert outline_points(poly, margin) == outline_oracle(poly, margin)


def test_diamond_outline_starts_on_the_positive_x_ray():
    assert outline_points(diamond(), 0) == "120,80 80,40 40,80 80,120"


@settings(max_examples=500, deadline=None)
@given(facets=facet_systems(max_dim=2))
def test_outline_is_the_vertices_in_angular_order_on_generated_polygons(facets):
    # about one drawn system in eight builds; those have up to six
    # vertices, rational ones among them
    try:
        poly = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    for margin in (0, 1, 2):
        assert outline_points(poly, margin) == outline_oracle(poly, margin)


def test_cones_drawn_with_signs():
    P = pc.trapezoid()
    _, root = render_parsed(poly=P, xi=(1, 2))
    polygons = root.findall(f"{SVG_NS}polygon")
    assert len(polygons) == 1 + len(P.vertices)  # outline plus one wedge each
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert texts.count("+") == 2
    assert texts.count("-") == 2
    assert "xi = (1, 2); y = 0" in texts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "poly",
    [pc.trapezoid(), pc.trapezoid(Fraction(7, 2), Fraction(3, 2)),
     pc.hypercube(2, 3), pc.dilated_simplex(2, 3)],
    ids=["trapezoid", "trapezoid:7/2,3/2", "cube:2,3", "simplex:2,3"],
)
def test_one_wedge_and_one_sign_mark_per_vertex(poly, seed):
    # with a margin, every apex lies inside the viewport, so no wedge
    # clips away to a point or a segment
    xi = pc.find_polarizing(poly, seed=seed)
    _, root = render_parsed(poly=poly, xi=xi, margin=1)
    wedges = [p for p in root.findall(f"{SVG_NS}polygon") if p.get("fill-opacity")]
    marks = [t for t in root.findall(f"{SVG_NS}text") if t.get("font-size") == "16"]
    assert len(wedges) == len(marks) == len(poly.vertices)
    signs = sorted(cone.sign for cone in pc.polarize_cones(poly, xi))
    assert sorted(1 if t.text == "+" else -1 for t in marks) == signs


def test_weight_labels_at_y():
    P = pc.hypercube(2, 1)

    def labels(root) -> set:
        return {t.text for t in root.findall(f"{SVG_NS}text") if t.get("font-size") == "10"}

    # the unit square's lattice points are its corners, each weighing u^2
    assert labels(render_parsed(poly=P, y=1)[1]) == {"1/4"}  # (1/2)^2 at y = 1
    assert labels(render_parsed(poly=P)[1]) == {"1"}  # every weight is 1 at y = 0


def test_no_nan_or_exponent_notation():
    import re

    text, _ = render_parsed(margin=3)
    assert "nan" not in text.lower()
    assert re.search(r"\d[eE][+-]?\d", text) is None


def test_unit_direction_past_float_range():
    # neither coordinate, nor the square sum, fits a float
    ux, uy = _unit(10**2500 + 1, -3 * 10**2499)
    assert isfinite(ux) and isfinite(uy)
    assert ux == pytest.approx(10 / hypot(10, 3))
    assert uy == pytest.approx(-3 / hypot(10, 3))


def test_unit_direction_of_small_and_rational_vectors():
    assert _unit(3, -4) == (0.6, -0.8)
    assert _unit(Fraction(3, 7), Fraction(4, 7)) == pytest.approx((0.6, 0.8))
    assert _unit(0, 0) == (0.0, 0.0)


def fraction_clip(points: list, normal, anchor) -> list:
    """The figure's earlier wedge clip, in Fractions, kept as the oracle:
    the part of a convex polygon with <normal, p - anchor> >= 0."""
    out = []
    m = len(points)
    for i in range(m):
        cur, nxt = points[i], points[(i + 1) % m]
        dc = dot(normal, vsub(cur, anchor))
        dn = dot(normal, vsub(nxt, anchor))
        if dc >= 0:
            out.append(cur)
        if (dc > 0 and dn < 0) or (dc < 0 and dn > 0):
            t = dc / (dc - dn)
            out.append(vadd(cur, tuple(t * d for d in vsub(nxt, cur))))
    return out


def homogeneous(p) -> tuple:
    (x, y), w = clear_denominators(p)
    return x, y, w


def affine(q) -> tuple:
    x, y, w = q
    return Fraction(x, w), Fraction(y, w)


small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
normals = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@st.composite
def clip_cases(draw):
    """A convex polygon, counterclockwise, and an integer half-plane row.

    The polygon is a rational box cut by up to three half-planes through
    rational points, so its corners are rational and some are crossing
    points.  The row's line passes through a corner of the polygon, a
    point of one of its edges, or a random rational point, so zero
    slacks and edges on the line occur.
    """
    x0, x1 = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for _ in range(draw(st.integers(0, 3))):
        cut = fraction_clip(poly, draw(normals), draw(st.tuples(small, small)))
        if len(cut) < 3:
            break
        poly = cut
    a = draw(normals)
    through = draw(st.sampled_from(["corner", "edge", "random"]))
    if through == "corner":
        anchor = draw(st.sampled_from(poly))
    elif through == "edge":
        k = draw(st.integers(0, len(poly) - 1))
        t = draw(st.builds(Fraction, st.integers(0, 4), st.just(4)))
        p, q = poly[k], poly[(k + 1) % len(poly)]
        anchor = tuple(u + t * (v - u) for u, v in zip(p, q))
    else:
        anchor = draw(st.tuples(small, small))
    # <a, x> >= <a, anchor>, cleared to an integer row
    b = dot(a, anchor)
    row = ((a[0] * b.denominator, a[1] * b.denominator), b.numerator)
    return poly, row, a, anchor


@settings(max_examples=300, deadline=None)
@given(case=clip_cases())
def test_integer_clip_matches_fraction_clip(case):
    poly, row, normal, anchor = case
    clipped = _clip([homogeneous(p) for p in poly], row)
    assert [affine(q) for q in clipped] == fraction_clip(poly, normal, anchor)
    for x, y, w in clipped:
        assert w > 0 and gcd(x, y, w) == 1


def test_integer_clip_keeps_the_region_on_the_line_and_drops_the_far_side():
    square = [(0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1)]
    # x >= 1 halves the square, crossing two edges at integer points
    assert _clip(square, ((1, 0), 1)) == [(1, 0, 1), (2, 0, 1), (2, 2, 1), (1, 2, 1)]
    # 3x >= 2 crosses at x = 2/3, kept as (2, y, 3) with y scaled by 3
    assert _clip(square, ((3, 0), 2)) == [(2, 0, 3), (2, 0, 1), (2, 2, 1), (2, 6, 3)]
    # x + y >= 4 touches only the corner (2, 2), x >= 3 misses the square
    assert _clip(square, ((1, 1), 4)) == [(2, 2, 1)]
    assert _clip(square, ((1, 0), 3)) == []

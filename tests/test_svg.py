import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcount as pc
from polarcount.linalg import clear_denominators, dot, vadd, vsub
from polarcount.svgfig import _clip, render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def render_parsed(**kwargs):
    P = kwargs.pop("poly", pc.trapezoid())
    text = render_svg(P, **kwargs)
    return text, ET.fromstring(text)


def test_basic_figure_is_valid_xml():
    text, root = render_parsed()
    assert root.tag == f"{SVG_NS}svg"
    assert text.startswith("<svg")


def test_rejects_other_dimensions():
    with pytest.raises(ValueError):
        render_svg(pc.interval(1))
    with pytest.raises(ValueError):
        render_svg(pc.hypercube(3, 1))


def test_rejects_a_negative_margin():
    # the box would be drawn inside out
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        render_svg(pc.trapezoid(), margin=-3)


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


def test_cones_drawn_with_signs():
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    cones = pc.polarize_cones(P, xi)
    _, root = render_parsed(poly=P, xi=xi, cones=cones)
    polygons = root.findall(f"{SVG_NS}polygon")
    assert len(polygons) >= 1 + len(cones)  # outline plus one wedge each
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert texts.count("+") == 2
    assert texts.count("-") == 2
    assert any(t and "xi = (1, 2)" in t for t in texts)


def test_weight_labels_concrete_and_symbolic():
    P = pc.hypercube(2, 1)
    text, _ = render_parsed(poly=P, w=pc.WeightParam(1))
    assert "1/4" in text  # corner weight (1/2)^2 at y = 1
    text, _ = render_parsed(poly=P)
    assert "1/(1+y)^2" in text
    assert "y symbolic" in text


def test_no_nan_or_exponent_notation():
    import re

    text, _ = render_parsed(margin=3)
    assert "nan" not in text.lower()
    assert re.search(r"\d[eE][+-]?\d", text) is None


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

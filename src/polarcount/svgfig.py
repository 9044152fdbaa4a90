"""Plane figures of polytopes, lattice weights, and polarized cones.

render_svg draws one kind of figure: a 2-dimensional polytope, the
tangent cones that a polarizing vector xi gives it (polarize_cones,
each a wedge tagged with its sign), the weight of every lattice point
at a concrete y, and a legend and an arrow for xi.
Output is plain SVG 1.1 text with nothing external.  Everything is
computed in integers.  One routine, _clip (Sutherland-Hodgman), cuts
every region from the viewport, its corners kept as homogeneous integer
triples (X, Y, W): the outline is the viewport clipped by every facet
row of the polytope, started at the corner of least angle about the
barycenter, and each cone wedge is the viewport clipped by the cone's
signed facet rows.  The cones' sign marks read the vertices as
numerators over one denominator (Polytope.cleared_vertices).  The
lattice points of the box are integers, so their pixel coordinates are
too, and each one's weight is read off latticegen.lattice_points.  A
rational pixel coordinate p / q becomes a float only when it is
printed, as the correctly rounded int division p / q.  Label placement
and the directions of the xi arrow and the sign marks (from _unit) are
display-only floats.
Conventions: one lattice unit is `_UNIT` = 40 pixels, the origin sits at the
lower left, and the mathematical y axis points up (flipped at emission,
since SVG y points down).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .latticegen import box_points, lattice_points
from .polarize import polarize_cones
from .polytope import Polytope, fmt_point
from .weights import WeightParam

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_UNIT = 40


def _fmt(v) -> str:
    return f"{float(v):.2f}".rstrip("0").rstrip(".")


def _unit(x, y) -> tuple[float, float]:
    """The exact direction (x, y) as a float unit vector, (0, 0) at zero;
    x and y are first divided by a power of two past their size, which
    is exact, so the square sum fits a float however long they are."""
    scale = 2 ** max(int(abs(x)), int(abs(y))).bit_length()
    norm = float((x * x + y * y) / scale**2) ** 0.5 or 1.0
    return float(x / scale) / norm, float(y / scale) / norm


def _clip(points: list, row) -> list:
    """Keep the part of a convex polygon where <a, p> >= b, for row (a, b).

    Sutherland-Hodgman on homogeneous integers: a corner (X, Y, W), with
    W > 0 and the gcd of the three divided out, is the point (X/W, Y/W),
    and its slack s = <a, (X, Y)> - b * W has the sign of <a, p> - b.  An
    edge whose ends have slacks of opposite signs crosses the line at
    s_c * P_n - s_n * P_c, whose slack is zero.
    """
    (a0, a1), b = row
    slacks = [a0 * x + a1 * y - b * w for x, y, w in points]
    out = []
    m = len(points)
    for i in range(m):
        sc, sn = slacks[i], slacks[(i + 1) % m]
        if sc >= 0:
            out.append(points[i])
        if (sc > 0 and sn < 0) or (sc < 0 and sn > 0):
            # W = s_c * W_n - s_n * W_c has the sign of s_c
            sign = 1 if sc > 0 else -1
            p = [sign * (sc * q - sn * r)
                 for q, r in zip(points[(i + 1) % m], points[i])]
            g = gcd(*p)
            out.append((p[0] // g, p[1] // g, p[2] // g))
    return out


def render_svg(poly: Polytope, xi: Sequence, w: WeightParam, margin: int) -> str:
    """SVG text for a 2-dimensional polytope polarized by xi.

    Each cone of polarize_cones(poly, xi) is drawn as a translucent
    wedge clipped to the viewport and tagged with its sign, and every
    lattice point inside the polytope is labeled with its exact weight
    at w.y.  The legend names xi and y, and an arrow shows xi.
    """
    if poly.dim != 2:
        raise ValueError(f"figures are 2-dimensional only, got dim {poly.dim}")
    lo, hi = poly.integer_box(margin)
    pad = _UNIT
    width = (hi[0] - lo[0]) * _UNIT + 2 * pad
    height = (hi[1] - lo[1]) * _UNIT + 2 * pad

    def px(x: int, y: int, w: int) -> tuple[float, float]:
        """Pixel coordinates of the point (x/w, y/w), w > 0."""
        return (
            (pad * w + (x - lo[0] * w) * _UNIT) / w,
            ((height - pad) * w - (y - lo[1] * w) * _UNIT) / w,
        )

    def pt_attr(p) -> str:
        x, y = px(*p)
        return f"{_fmt(x)},{_fmt(y)}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    world = [
        (lo[0], lo[1], 1), (hi[0], lo[1], 1), (hi[0], hi[1], 1), (lo[0], hi[1], 1),
    ]

    cones = polarize_cones(poly, xi)
    for k, cone in enumerate(cones):
        color = _PALETTE[k % len(_PALETTE)]
        # the wedge is where both signed active-facet slacks are >= 0;
        # the apex lies on both facets, so a flipped row is negated whole
        region = world
        for (a, b), f in zip(cone.rows, cone.flipped):
            region = _clip(region, ((-a[0], -a[1]), -b) if f else (a, b))
        if len(region) >= 3:
            pts = " ".join(pt_attr(p) for p in region)
            out.append(
                f'<polygon points="{pts}" fill="{color}" '
                f'fill-opacity="0.12" stroke="{color}" '
                f'stroke-opacity="0.5" stroke-width="1"/>'
            )

    # P lies in the box, so the box clipped by every facet is P, its
    # corners counterclockwise; printed from the corner of least angle
    # about the barycenter (sx, sy) / m, on the upper half plane with
    # the positive x ray and not the negative one
    corners = world
    for row in poly.facets:
        corners = _clip(corners, row)
    nums, den = poly.cleared_vertices
    m = len(nums) * den
    sx, sy = (sum(col) for col in zip(*nums))

    def upper(corner) -> bool:
        x, y, w = corner
        dy = y * m - sy * w
        return dy > 0 or (dy == 0 and x * m - sx * w > 0)

    start = next(i for i, p in enumerate(corners)
                 if upper(p) and not upper(corners[i - 1]))
    outline = " ".join(pt_attr(p) for p in corners[start:] + corners[:start])
    out.append(
        f'<polygon points="{outline}" fill="none" stroke="#111" '
        f'stroke-width="2"/>'
    )

    # box points are integers, so are their pixel coordinates; a lattice
    # point of P weighs u**codim, its label formatted once per codim
    codims = lattice_points(poly)
    labels: dict[int, str] = {}
    for p in box_points(lo, hi):
        x = pad + (p[0] - lo[0]) * _UNIT
        y = height - pad - (p[1] - lo[1]) * _UNIT
        codim = codims.get(p)
        if codim is None:
            out.append(
                f'<circle cx="{x}" cy="{y}" r="2.5" fill="none" '
                f'stroke="#999" stroke-width="1"/>'
            )
            continue
        label = labels.get(codim)
        if label is None:
            label = labels[codim] = str(w.on_face**codim)
        out.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#111"/>')
        out.append(
            f'<text x="{x + 6}" y="{y - 6}" '
            f'font-size="10" fill="#333">{label}</text>'
        )

    for k, cone in enumerate(cones):
        color = _PALETTE[k % len(_PALETTE)]
        (g0, g1), (h0, h1) = cone.generators
        ux, uy = _unit(g0 + h0, g1 + h1)
        ax, ay = px(*nums[cone.vertex_index], den)
        dx, dy = ux * 0.55 * _UNIT, -uy * 0.55 * _UNIT
        mark = "+" if cone.sign > 0 else "-"
        out.append(
            f'<text x="{ax + dx:.2f}" y="{ay + dy:.2f}" '
            f'font-size="16" font-weight="bold" fill="{color}" '
            f'text-anchor="middle">{mark}</text>'
        )

    out.append(
        f'<text x="{pad / 2:.2f}" y="{pad / 2:.2f}" font-size="12" '
        f'fill="#111">xi = {fmt_point(xi)}; y = {w.y}</text>'
    )
    # arrow showing the polarizing direction, anchored top right
    ux, uy = _unit(*xi)
    x0, y0 = width - pad * 1.8, pad * 0.8
    dx, dy = ux * _UNIT, -uy * _UNIT
    x1, y1 = x0 + dx, y0 + dy
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#111" stroke-width="1.5"/>'
    )
    # arrowhead: two short strokes angled back from the tip
    bx, by = -dx / _UNIT, -dy / _UNIT
    for s in (1.0, -1.0):
        hx = (bx * 0.82 - by * 0.57 * s) * 0.3 * _UNIT
        hy = (bx * 0.57 * s + by * 0.82) * 0.3 * _UNIT
        out.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x1 + hx:.2f}" y2="{y1 + hy:.2f}" '
            f'stroke="#111" stroke-width="1.5"/>'
        )
    out.append("</svg>")
    return "\n".join(out)

"""Integer cone membership and face codimension against Fraction oracles.

cone_face_counts and Polytope.face_codim clear the point to one
denominator and work in integers.  The oracles here are the
direct Fraction computations: the inverse of the generator matrix times
x - apex, the cone's vertex, and one dot product per facet.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcount as pc
from polarcount.linalg import clear_denominators, det, dot, inverse, vadd, vsub
from zoo import (
    decomposition_zoo,
    facet_systems,
    row_points,
    square_half,
    triangle_nonregular,
    vertex_points,
    zoo_images,
)


def generator_inverse(cone):
    """The inverse of the matrix whose columns are the cone's generators."""
    n = len(cone.generators)
    return inverse([[g[i] for g in cone.generators] for i in range(n)])


def membership_oracle(apex, inv, x):
    """x's cone coordinates, inv times x - apex, or None if one is negative."""
    coords = tuple(dot(row, vsub(x, apex)) for row in inv)
    return None if any(c < 0 for c in coords) else coords


def counts_oracle(cone, coords):
    """(unflipped zeros, flipped zeros) among the cone coordinates, or None."""
    if coords is None:
        return None
    zeros = [f for c, f in zip(coords, cone.flipped) if c == 0]
    return zeros.count(False), zeros.count(True)


def codim_oracle(poly, x):
    codim = 0
    for f in poly.facets:
        d = dot(f.normal, x)
        if d < f.offset:
            return None
        codim += d == f.offset
    return codim


def _ratio(rng, lo, hi):
    den = rng.randint(1, 4)
    return Fraction(rng.randint(lo * den, hi * den), den)


def probe_points(poly, apexes, cones, rng, per_cone=6):
    """Points inside, outside and on faces of the polytope and its cones.

    sample_points gives the vertices, edge midpoints, facet barycenters,
    far probes and random points with denominators 1-4.  Points along
    each edge line, at steps of 1/4 and 1/3 from -1/2 to 3/2, lie on the
    edge, at its ends or past them.  Per cone, apex + sum m_k g_k with
    each m_k zero, positive or negative (denominators 1-4) lands on a
    face of the cone, inside it or outside.
    """
    xi = pc.find_polarizing(poly, seed=1)
    pts = row_points(pc.sample_points(poly, xi, rng=rng, random_count=20))
    for i, j in poly.edges():
        a, b = apexes[i], apexes[j]
        for t in (Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(3, 2)):
            pts.append(vadd(a, tuple(t * d for d in vsub(b, a))))
    for cone in cones:
        for _ in range(per_cone):
            x = apexes[cone.vertex_index]
            for g in cone.generators:
                m = rng.choice((0, _ratio(rng, 0, 3), _ratio(rng, -2, 3)))
                x = vadd(x, tuple(m * c for c in g))
            pts.append(x)
    return pts


def assert_matches_oracles(poly, rng):
    cones = pc.polarize_cones(poly, pc.find_polarizing(poly, seed=1))
    apexes = vertex_points(poly)
    # one inverse per cone serves every probe point
    inverses = [generator_inverse(cone) for cone in cones]
    for x in probe_points(poly, apexes, cones, rng):
        assert poly.face_codim(x) == codim_oracle(poly, x), x
        for cone, apex, inv in zip(cones, apexes, inverses):
            assert pc.cone_face_counts(cone, x) == counts_oracle(
                cone, membership_oracle(apex, inv, x)
            ), (apex, x)


@pytest.mark.parametrize("name, poly", decomposition_zoo(), ids=lambda v: str(v))
def test_integer_membership_matches_oracle_on_zoo(name, poly):
    assert_matches_oracles(poly, random.Random(name))


def test_integer_membership_with_fractional_apex_and_inverse():
    # halfsquare has apexes at 3/2; triangle-nonregular has a vertex cone
    # of determinant 2, so its inverse has denominator 2
    halfsquare, triangle = square_half(), triangle_nonregular()
    cones = pc.polarize_cones(halfsquare, pc.find_polarizing(halfsquare))
    apexes = vertex_points(halfsquare)
    assert len(cones) == len(apexes)
    assert sorted(clear_denominators(x)[1] for x in apexes) == [1, 2, 2, 2]
    cones = pc.polarize_cones(triangle, pc.find_polarizing(triangle))
    assert sorted(abs(det(cone.generators)) for cone in cones) == [1, 1, 2]
    for poly in (halfsquare, triangle):
        assert_matches_oracles(poly, random.Random(7))
    cones = pc.polarize_cones(square_half(), (1, 1))
    sink = next(c for c in cones if c.flip_count == 0)
    assert apexes[sink.vertex_index] == (Fraction(3, 2), Fraction(3, 2))
    # cone coordinates (0, 1) and (-1/4, 3/2)
    assert pc.cone_face_counts(sink, (Fraction(3, 2), Fraction(1, 2))) == (1, 0)
    assert pc.cone_face_counts(sink, (Fraction(7, 4), 0)) is None
    cones = pc.polarize_cones(triangle, (1, 1))
    apexes = vertex_points(triangle)
    cone = next(c for c in cones if apexes[c.vertex_index] == (0, 1))
    assert abs(det(cone.generators)) == 2
    x = (-1, Fraction(5, 4))  # apex + 1/2 (-2, 1) + 1/4 (0, -1)
    assert pc.cone_face_counts(cone, x) == (0, 0)
    assert pc.cone_face_counts(cone, (1, 1)) is None  # first coordinate -1/2


@settings(max_examples=60, deadline=None)
@given(image=zoo_images(), rng=st.randoms(use_true_random=False))
def test_integer_membership_matches_oracle_on_images(image, rng):
    assert_matches_oracles(image, rng)


def test_membership_rejects_wrong_length():
    P = pc.hypercube(2, 1)
    cone = pc.polarize_cones(P, (1, 2))[0]
    for x in ((0,), (0, 0, 0)):
        with pytest.raises(ValueError):
            pc.cone_face_counts(cone, x)
        with pytest.raises(ValueError):
            P.face_codim(x)


@settings(max_examples=500, deadline=None)
@given(facets=facet_systems(), rng=st.randoms(use_true_random=False))
def test_membership_and_decomposition_on_generated_polytopes(facets, rng):
    # about one drawn system in twelve builds; those reach cones of
    # determinant above 1 and fractional apexes beyond the zoo's two
    try:
        poly = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_matches_oracles(poly, rng)
    xi = pc.find_polarizing(poly, seed=1)
    rows = pc.sample_points(poly, xi, rng=rng)
    cones = pc.polarize_cones(poly, xi)
    assert pc.check_decomposition(poly, cones, rows) == []
    w = pc.WeightParam(Fraction(2, 3))
    assert pc.check_decomposition(poly, cones, rows, w) == []

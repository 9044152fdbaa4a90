import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

import polarcount as pc
from conftest import DATA_DIR
from polarcount.latticegen import box_points
from polarcount.linalg import clear_denominators, det, dot, primitive, solve_linear
from polarcount.polytope import vertex_frame
from zoo import (
    decomposition_zoo,
    facet_systems,
    sheared_zoo,
    square_half,
    triangle_nonregular,
    zoo_images,
)


def points(poly):
    return [v.point for v in poly.vertices]


def test_square_vertices_and_flags():
    P = pc.hypercube(2, 1)
    assert points(P) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert P.regular and P.integral
    assert P.dim == 2


def test_trapezoid_structure():
    P = pc.trapezoid()
    assert points(P) == [(0, 0), (0, 1), (1, 1), (2, 0)]
    v = P.vertices[2]
    # active facets sorted: y <= 1 is facet 2, x + y <= 2 is facet 3;
    # edges ordered by the relaxed facet index
    assert v.active == (2, 3)
    assert v.edges == ((1, -1), (-1, 0))
    assert P.regular and P.integral


def test_simplex_and_cube_counts():
    assert len(pc.dilated_simplex(3, 1).vertices) == 4
    assert len(pc.hypercube(3, 1).vertices) == 8
    assert len(pc.prism(2, 1).vertices) == 6
    assert len(pc.interval(4).vertices) == 2


def test_edge_directions_point_inward():
    for P in (pc.trapezoid(), pc.hypercube(3, 1), pc.dilated_simplex(2, 3)):
        for v in P.vertices:
            for d in v.edges:
                probe = tuple(
                    a + Fraction(1, 1000) * b for a, b in zip(v.point, d)
                )
                assert P.contains(probe)


def test_half_square_is_regular_not_integral():
    P = square_half()
    assert P.regular
    assert not P.integral


def test_nonregular_triangle_flags_and_failing_vertex():
    P = triangle_nonregular()
    assert points(P) == [(0, 0), (0, 1), (2, 0)]
    assert P.integral
    assert not P.regular
    dets = {v.point: abs(det(v.edges)) for v in P.vertices}
    # the unimodularity failure sits at (0, 1), not at (2, 0)
    assert dets[(0, 1)] == 2
    assert dets[(2, 0)] == 1
    assert dets[(0, 0)] == 1


def test_octahedron_rejected_as_non_simple():
    # every vertex is non-simple; the first one met is the one reported
    with pytest.raises(pc.NonSimpleError) as err:
        pc.from_file(DATA_DIR / "octahedron.json")
    assert str(err.value) == (
        "vertex (-1, 0, 0) lies on 4 facets (indices [0, 1, 2, 3]); "
        "a simple 3-polytope allows exactly 3"
    )


def test_start_vertex_is_the_first_in_subset_order():
    # facets 0 and 1 are parallel, so every subset holding both is skipped;
    # the first vertex in lexicographic subset order solves facets 0, 2, 3
    normals = [(1, 1, 1), (-1, -1, -1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
               (-1, 1, 1), (-1, 1, -1), (-1, -1, 1)]
    with pytest.raises(pc.NonSimpleError) as err:
        pc.Polytope([(u, -1) for u in normals])
    assert str(err.value) == (
        "vertex (-1, 0, 0) lies on 4 facets (indices [0, 2, 3, 4]); "
        "a simple 3-polytope allows exactly 3"
    )


def test_pyramid_apex_rejected_as_non_simple():
    # the walk starts at the simple vertex (0, 0, 0) and meets the apex
    # through a tie in the ratio test
    with pytest.raises(pc.NonSimpleError) as err:
        pc.Polytope(
            [
                ((1, 0, 0), 0),
                ((0, 1, 0), 0),
                ((0, 0, 1), 0),
                ((-1, 0, -1), -1),
                ((0, -1, -1), -1),
            ]
        )
    assert str(err.value) == (
        "vertex (0, 0, 1) lies on 4 facets (indices [0, 1, 3, 4]); "
        "a simple 3-polytope allows exactly 3"
    )


def test_unbounded_detected():
    with pytest.raises(pc.UnboundedError) as err:
        pc.Polytope([((1, 0), 0), ((0, 1), 0), ((1, 2), -1)])
    assert str(err.value) == (
        "edge at vertex (0, 0) along (1, 0) never leaves the feasible region"
    )


def test_unbounded_ray_reported_after_the_walk():
    # the walk visits (0, 0, 0), (3, 0, 0) and (0, 3, 0), each with an
    # unblocked edge along e3; the first vertex in sorted order is named
    with pytest.raises(pc.UnboundedError) as err:
        pc.Polytope(
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, 0), -3)]
        )
    assert str(err.value) == (
        "edge at vertex (0, 0, 0) along (0, 0, 1) never leaves the feasible region"
    )


def test_empty_region_detected():
    with pytest.raises(pc.UnboundedError):
        pc.Polytope([((1,), 1), ((-1,), 0)])


def test_redundant_facet_detected():
    with pytest.raises(pc.RedundantFacetError) as err:
        pc.Polytope(
            [
                ((1, 0), 0),
                ((0, 1), 0),
                ((-1, 0), -1),
                ((0, -1), -1),
                ((1, 0), -1),  # x >= -1 never touches the square
            ]
        )
    assert str(err.value) == (
        "facet 4 touches no vertex; the inequality is redundant"
    )


def test_duplicate_facet_detected():
    with pytest.raises(pc.RedundantFacetError) as err:
        pc.Polytope(
            [
                ((1, 0), 0),
                ((0, 1), 0),
                ((-1, 0), -1),
                ((0, -1), -1),
                ((2, 0), 0),  # same half-space as facet 0
            ]
        )
    assert "same half-space" in str(err.value)


def test_too_few_facets():
    with pytest.raises(pc.PolytopeError):
        pc.Polytope([((1, 0), 0), ((0, 1), 0)])


def test_zero_normal_rejected():
    with pytest.raises(pc.PolytopeError):
        pc.Polytope([((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])


def test_face_codim():
    P = pc.trapezoid()
    assert P.face_codim((Fraction(1, 2), Fraction(1, 2))) == 0
    assert P.face_codim((1, 0)) == 1
    assert P.face_codim((0, 0)) == 2
    assert P.face_codim((5, 5)) is None
    assert P.face_codim((2, 0)) == 2
    for name, Q in decomposition_zoo():
        lo, hi = Q.integer_box(2)
        for p in box_points(lo, hi):
            inside = all(f.holds(p) for f in Q.facets)
            tight = tuple(i for i, f in enumerate(Q.facets) if f.tight(p))
            assert Q.contains(p) == inside, (name, p)
            assert Q.active_facets(p) == tight, (name, p)
            assert Q.face_codim(p) == (len(tight) if inside else None), (name, p)


def test_contains_and_boxes():
    P = pc.trapezoid()
    assert P.contains((1, 1))
    assert not P.contains((2, 1))
    assert P.bounding_box() == ((0, 0), (2, 1))
    assert P.integer_box(2) == ((-2, -2), (4, 3))


def test_edges_pair_vertices():
    P = pc.hypercube(2, 1)
    edges = P.edges()
    assert len(edges) == 4
    for i, j in edges:
        diff = [a - b for a, b in zip(P.vertices[i].point, P.vertices[j].point)]
        assert sum(abs(d) for d in diff) == 1


def test_tangent_cone_and_barycenter():
    P = pc.hypercube(2, 1)
    apex = P.vertices[0]
    assert apex.point == (0, 0)
    assert apex.edges == ((1, 0), (0, 1))
    assert P.barycenter() == (Fraction(1, 2), Fraction(1, 2))


def test_builder_validation():
    with pytest.raises(pc.PolytopeError):
        pc.interval(0)
    with pytest.raises(pc.PolytopeError):
        pc.hypercube(0, 1)
    with pytest.raises(pc.PolytopeError):
        pc.dilated_simplex(2, -1)
    with pytest.raises(pc.PolytopeError):
        pc.trapezoid(1, 1)
    with pytest.raises(pc.PolytopeError):
        pc.prism(1, 0)


# -- file format ---------------------------------------------------------


def test_from_file_square():
    P = pc.from_file(DATA_DIR / "square.json")
    assert points(P) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_from_file_fractions():
    P = pc.from_file(DATA_DIR / "halfsquare.json")
    assert P.bounding_box() == ((0, 0), (Fraction(3, 2), Fraction(3, 2)))
    assert not P.integral


def test_from_dict_accepts_fraction_strings():
    P = pc.from_dict(
        {"dim": 1, "facets": [["1", 0], [-2, "-3/1"]]}
    )
    assert points(P) == [(0,), (Fraction(3, 2),)]


def test_file_errors(tmp_path):
    def reject(payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(pc.PolytopeFormatError):
            pc.from_file(path)

    reject("not json at all")
    reject('{"dim": 2}')
    reject('{"facets": [[1, 0, 0]]}')
    reject('{"dim": 2, "facets": []}')
    reject('{"dim": 2, "facets": [[1, 0]]}')          # row too short
    reject('{"dim": 2, "facets": [[0.5, 0, 0], [1, 0, 0], [0, 1, 0]]}')
    reject('{"dim": 2, "facets": [["1.5", 0, 0], [1, 0, 0], [0, 1, 0]]}')
    reject('{"dim": 2, "facets": [["3/0", 0, 0], [1, 0, 0], [0, 1, 0]]}')
    reject('{"dim": 2, "facets": [[NaN, 0, 0], [1, 0, 0], [0, 1, 0]]}')
    reject('{"dim": true, "facets": [[1, 0]]}')
    reject('{"dim": 0, "facets": [[5]]}')
    reject('[1, 2, 3]')
    with pytest.raises(pc.PolytopeFormatError):
        pc.from_file(tmp_path / "missing.json")


def test_error_messages_name_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "facets": [[1, 0, 0], [0, 1, 0], ["x", -1, -1]]}')
    with pytest.raises(pc.PolytopeFormatError) as err:
        pc.from_file(path)
    assert "facet 2" in str(err.value)


def test_data_files_all_load_or_fail_as_documented():
    for name in ("square.json", "trapezoid.json", "halfsquare.json"):
        pc.from_file(DATA_DIR / name)
    P = pc.from_file(DATA_DIR / "triangle-nonregular.json")
    assert not P.regular
    raw = json.loads((DATA_DIR / "square.json").read_text())
    assert raw["dim"] == 2


# -- the vertex-graph walk against the subset scan ------------------------


def subset_scan(facets):
    """Vertices, flags and edges by brute force over facet subsets.

    Solves every n-subset of the facets, keeps the feasible solutions,
    and finds the edge obtained by relaxing each active facet by solving
    <d, u_k> = 0 for the kept facets and <d, u_relaxed> = 1.  Two
    vertices are adjacent when they share n-1 facets.  Raises the class
    of error the constructor must raise, without its message.
    """
    n = len(facets[0].normal)
    found = {}
    for subset in combinations(range(len(facets)), n):
        x = solve_linear(
            [facets[i].normal for i in subset], [facets[i].offset for i in subset]
        )
        if x is not None and all(f.holds(x) for f in facets):
            found[x] = tuple(i for i, f in enumerate(facets) if f.tight(x))
    if any(len(active) > n for active in found.values()):
        raise pc.NonSimpleError
    if not found:
        raise pc.UnboundedError
    vertices = []
    for x in sorted(found):
        active = found[x]
        edges = []
        for relaxed in active:
            rows = [facets[i].normal for i in active if i != relaxed]
            rows.append(facets[relaxed].normal)
            edges.append(primitive(solve_linear(rows, [0] * (n - 1) + [1])))
        vertices.append(pc.Vertex(point=x, active=active, edges=tuple(edges)))
    if any(
        all(dot(d, f.normal) >= 0 for f in facets) for v in vertices for d in v.edges
    ):
        raise pc.UnboundedError
    if len({i for v in vertices for i in v.active}) < len(facets):
        raise pc.RedundantFacetError
    pairs = tuple(
        (i, j)
        for i, j in combinations(range(len(vertices)), 2)
        if len(set(vertices[i].active) & set(vertices[j].active)) == n - 1
    )
    return {
        "vertices": tuple(vertices),
        "regular": all(abs(det(v.edges)) == 1 for v in vertices),
        "integral": all(a.denominator == 1 for v in vertices for a in v.point),
        "edges": pairs,
    }


def walked(P):
    return {
        "vertices": P.vertices,
        "regular": P.regular,
        "integral": P.integral,
        "edges": P.edges(),
    }


def construction_cases():
    cases = decomposition_zoo()
    cases += [(f"cube{n}", pc.hypercube(n)) for n in range(2, 6)]
    cases += [(f"simplex{n}", pc.dilated_simplex(n)) for n in range(2, 7)]
    cases += [("prism-default", pc.prism()), *sheared_zoo()]
    return [pytest.param(P, id=name) for name, P in cases]


@pytest.mark.parametrize("P", construction_cases())
def test_walk_matches_subset_scan(P):
    assert walked(P) == subset_scan(P.facets)


@settings(max_examples=60, deadline=None)
@given(image=zoo_images())
def test_walk_matches_subset_scan_on_images(image):
    assert walked(image) == subset_scan(image.facets)


@settings(max_examples=300, deadline=None)
@given(facets=facet_systems())
def test_walk_accepts_and_rejects_like_subset_scan(facets):
    try:
        expected = subset_scan(facets)
    except pc.PolytopeError as e:
        with pytest.raises(type(e)):
            pc.Polytope(facets)
    else:
        assert walked(pc.Polytope(facets)) == expected


# -- each vertex's frame against the Fraction determinant -----------------


def assert_vertex_frames(P):
    """vertex_frame reproduces each vertex's point (cleared to the lcm of
    its denominators) and edges, and its regularity flag is
    |det(edges)| == 1 computed in Fractions."""
    flags = []
    for v in P.vertices:
        num, den, edges, regular = vertex_frame([P.integer_facets[i] for i in v.active])
        assert (num, den) == clear_denominators(v.point)
        assert edges == v.edges
        assert regular == (abs(det(v.edges)) == 1)
        flags.append(regular)
    assert P.regular == all(flags)


@pytest.mark.parametrize("P", construction_cases())
def test_vertex_regularity_matches_edge_determinant(P):
    assert_vertex_frames(P)


@settings(max_examples=60, deadline=None)
@given(image=zoo_images())
def test_vertex_regularity_matches_edge_determinant_on_images(image):
    assert_vertex_frames(image)


@settings(max_examples=300, deadline=None)
@given(facets=facet_systems())
def test_vertex_regularity_matches_edge_determinant_on_generated(facets):
    try:
        P = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_vertex_frames(P)

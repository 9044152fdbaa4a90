import json
import sys
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings

import polarcount as pc
from conftest import DATA_DIR
from polarcount import cli, linalg, polytope
from polarcount.latticegen import box_points
from polarcount.linalg import (
    clear_denominators,
    det,
    dot,
    primitive,
    solve_linear,
)
from polarcount.polytope import facet_slacks, slack_codim
from zoo import (
    affine_image,
    bounding_box_oracle,
    decomposition_zoo,
    facet_systems,
    high_dim_images,
    sheared_zoo,
    square_half,
    triangle_nonregular,
    vertex_points,
    zoo_image_rows,
    zoo_images,
)


def test_square_vertices_and_flags():
    P = pc.hypercube(2, 1)
    assert vertex_points(P) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert P.regular and P.integral
    assert P.dim == 2


def test_trapezoid_structure():
    P = pc.trapezoid()
    assert vertex_points(P) == [(0, 0), (0, 1), (1, 1), (2, 0)]
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
        for x, v in zip(vertex_points(P), P.vertices):
            for d in v.edges:
                probe = tuple(a + Fraction(1, 1000) * b for a, b in zip(x, d))
                assert P.face_codim(probe) == P.dim - 1


def test_half_square_is_regular_not_integral():
    P = square_half()
    assert P.regular
    assert not P.integral


def test_nonregular_triangle_flags_and_failing_vertex():
    P = triangle_nonregular()
    assert vertex_points(P) == [(0, 0), (0, 1), (2, 0)]
    assert P.integral
    assert not P.regular
    dets = {x: abs(det(v.edges)) for x, v in zip(vertex_points(P), P.vertices)}
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


def test_non_simple_vertex_met_deep_in_the_walk():
    # [0, 2]^3 cut by x + y + z <= 4: the start (0, 0, 0) is simple, and
    # the tie is met after three pivots, testing from (0, 0, 2)
    with pytest.raises(pc.NonSimpleError) as err:
        pc.Polytope([*pc.hypercube(3, 2).facets, ((-1, -1, -1), -4)])
    assert str(err.value) == (
        "vertex (2, 0, 2) lies on 4 facets (indices [1, 2, 5, 6]); "
        "a simple 3-polytope allows exactly 3"
    )


def test_unbounded_ray_met_two_pivots_from_the_start():
    # y above a convex chain with vertices (0, 0), (+-1, 1), (+-2, 4): the
    # walk starts at (0, 0), the first subset, and the rays leave (+-2, 4),
    # two pivots away
    with pytest.raises(pc.UnboundedError) as err:
        pc.Polytope([((1, 1), 0), ((-1, 1), 0), ((-3, 1), -2), ((3, 1), -2),
                     ((-5, 1), -6), ((5, 1), -6)])
    assert str(err.value) == (
        "edge at vertex (-2, 4) along (-1, 5) never leaves the feasible region"
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


@pytest.mark.parametrize(
    "facets, message",
    [
        ([], "no facets given"),
        ([((1, 0), 0), ((1,), 0), ((0, -1), -1)],
         "facet normals have mixed dimensions"),
    ],
    ids=["no-facets", "mixed-normals"],
)
def test_construction_rejections_name_the_reason(facets, message):
    with pytest.raises(pc.PolytopeError) as err:
        pc.Polytope(facets)
    assert str(err.value) == message


# the membership oracle: one Fraction dot product per facet, against the
# integer slacks (polytope.facet_slacks) that the program reads


def holds(facet, x):
    return dot(facet.normal, x) >= facet.offset


def tight(facet, x):
    return dot(facet.normal, x) == facet.offset


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
            inside = all(holds(f, p) for f in Q.facets)
            active = tuple(i for i, f in enumerate(Q.facets) if tight(f, p))
            assert Q.face_codim(p) == (len(active) if inside else None), (name, p)


def test_contains_and_boxes():
    P = pc.trapezoid()
    assert P.face_codim((1, 1)) is not None
    assert P.face_codim((2, 1)) is None
    assert bounding_box_oracle(P) == ((0, 0), (2, 1))
    assert P.integer_box(2) == ((-2, -2), (4, 3))


def test_edges_pair_vertices():
    P = pc.hypercube(2, 1)
    edges = P.edges()
    pts = vertex_points(P)
    assert len(edges) == 4
    for i, j in edges:
        diff = [a - b for a, b in zip(pts[i], pts[j])]
        assert sum(abs(d) for d in diff) == 1


def test_tangent_cone_and_barycenter():
    P = pc.hypercube(2, 1)
    assert vertex_points(P)[0] == (0, 0)
    assert P.vertices[0].edges == ((1, 0), (0, 1))


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
    assert vertex_points(P) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_from_file_fractions():
    P = pc.from_file(DATA_DIR / "halfsquare.json")
    assert bounding_box_oracle(P) == ((0, 0), (Fraction(3, 2), Fraction(3, 2)))
    assert not P.integral


def test_from_dict_accepts_fraction_strings():
    P = pc.from_dict(
        {"dim": 1, "facets": [["1", 0], [-2, "-3/1"]]}
    )
    assert vertex_points(P) == [(0,), (Fraction(3, 2),)]


@pytest.mark.parametrize("rows", [
    [[1, 0, 2, -1006], [-1, 0, -2, 1004], [0, 1, -1, 10],
     [0, -1, 1, -12], [0, 0, 1, -3], [0, 0, -1, 1]],
    [[2, 1, 0], [0, 1, 0], [-1, -1, -3], [1, -2, -4]],
], ids=["farcube", "quadrilateral"])
def test_int_files_load_in_ints_like_their_fraction_strings(tmp_path, rows):
    """A file of plain ints and the same file with 'p/1' strings build
    equal polytopes, and the ints stay ints from the parse on."""
    dim = len(rows[0]) - 1
    loaded = []
    for name, entries in (
        ("ints", rows), ("strings", [[f"{a}/1" for a in row] for row in rows]),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": dim, "facets": entries}))
        loaded.append(pc.from_file(path))
    P, Q = loaded
    assert P.facets == Q.facets
    assert P.cleared_vertices == Q.cleared_vertices
    assert P.vertices == Q.vertices
    assert P.edges() == Q.edges()
    assert all(type(a) is int for f in P.facets for a in (*f.normal, f.offset))
    assert type(polytope._parse_number(-1006, "entry")) is int
    assert polytope._parse_number("-1006/1", "entry") == Fraction(-1006)


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

    Solves every n-subset of the facets, keeps the feasible solutions
    as (point, active, edges) triples of Fractions and ints,
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
        if x is not None and all(holds(f, x) for f in facets):
            found[x] = tuple(i for i, f in enumerate(facets) if tight(f, x))
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
        vertices.append((x, active, tuple(edges)))
    if any(
        all(dot(d, f.normal) >= 0 for f in facets)
        for _, _, edges in vertices for d in edges
    ):
        raise pc.UnboundedError
    if len({i for _, active, _ in vertices for i in active}) < len(facets):
        raise pc.RedundantFacetError
    pairs = tuple(
        (i, j)
        for i, j in combinations(range(len(vertices)), 2)
        if len(set(vertices[i][1]) & set(vertices[j][1])) == n - 1
    )
    return {
        "vertices": tuple(vertices),
        "regular": all(abs(det(edges)) == 1 for _, _, edges in vertices),
        "integral": all(a.denominator == 1 for x, _, _ in vertices for a in x),
        "edges": pairs,
    }


def walked(P):
    """P's vertices as subset_scan's triples: the point from
    cleared_vertices, then the Vertex's active facets and edges."""
    return {
        "vertices": tuple(
            (x, v.active, v.edges) for x, v in zip(vertex_points(P), P.vertices)
        ),
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


@settings(max_examples=25, deadline=None)
@given(image=high_dim_images())
def test_walk_matches_subset_scan_above_dimension_three(image):
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


# -- each tableau the walk makes against Fraction solves ------------------


def fraction_tableau(facets, active):
    """The tableau at the active facets from Fraction solves, as
    subset_scan makes them: the point, each edge relaxing one facet made
    primitive, facets x dim dot products for the rates and a Fraction
    determinant."""
    rows = [facets[i] for i in active]
    num, den = clear_denominators(solve_linear(
        [a for a, _ in rows], [b for _, b in rows]
    ))
    edges = tuple(
        primitive(solve_linear(
            [a for j, (a, _) in enumerate(rows) if j != k] + [rows[k][0]],
            [0] * (len(rows) - 1) + [1],
        ))
        for k in range(len(rows))
    )
    return polytope._Tableau(
        num, den, facet_slacks(facets, num, den), edges,
        [[sum(x * y for x, y in zip(a, d)) for a, _ in facets] for d in edges],
        int(abs(det(edges))),
    )


def assert_walked_tableaux(P):
    """The start's tableau and every one _pivot makes equal
    fraction_tableau at their active facets, one per vertex, so each
    vertex's |det| is the Fraction determinant of its edges and
    P.regular is the conjunction of |det| == 1."""
    facets = P.facets
    made = [polytope._first_vertex(facets)]
    pivot = polytope._pivot

    def recording(tab, active, k, j):
        made.append((tuple(sorted(active[:k] + active[k + 1:] + (j,))),
                     pivot(tab, active, k, j)))
        return made[-1][1]

    # the start search pivots too; the walk is handed its result
    with patch.object(polytope, "_first_vertex", lambda _: made[0]), \
            patch.object(polytope, "_pivot", recording):
        pc.Polytope(P.facets)
    assert sorted(active for active, _ in made) == sorted(v.active for v in P.vertices)
    for active, tab in made:
        assert tab._asdict() == fraction_tableau(facets, active)._asdict()
    assert P.regular == all(tab.absdet == 1 for _, tab in made)


@pytest.mark.parametrize("P", construction_cases())
def test_vertex_regularity_matches_edge_determinant(P):
    assert_walked_tableaux(P)


@settings(max_examples=60, deadline=None)
@given(image=zoo_images())
def test_vertex_regularity_matches_edge_determinant_on_images(image):
    assert_walked_tableaux(image)


@settings(max_examples=300, deadline=None)
@given(facets=facet_systems())
def test_vertex_regularity_matches_edge_determinant_on_generated(facets):
    try:
        P = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_walked_tableaux(P)


@settings(max_examples=25, deadline=None)
@given(image=high_dim_images())
def test_vertex_regularity_matches_edge_determinant_above_dimension_three(image):
    assert_walked_tableaux(image)


def assert_one_ratio_test_per_edge(facets):
    """Constructing from facets runs _blocking n * V / 2 times, once per
    edge, and the edges are the n * V / 2 of a simple polytope."""
    calls = []
    blocking = polytope._blocking

    def counting(col, slack):
        calls.append(col)
        return blocking(col, slack)

    with patch.object(polytope, "_blocking", counting):
        P = pc.Polytope(facets)
    assert 2 * len(calls) == P.dim * len(P.vertices) == 2 * len(P.edges())


@pytest.mark.parametrize("P", construction_cases())
def test_one_ratio_test_per_edge(P):
    assert_one_ratio_test_per_edge(P.facets)


@settings(max_examples=40, deadline=None)
@given(image=zoo_images())
def test_one_ratio_test_per_edge_on_images(image):
    assert_one_ratio_test_per_edge(image.facets)


@settings(max_examples=20, deadline=None)
@given(image=high_dim_images())
def test_one_ratio_test_per_edge_above_dimension_three(image):
    assert_one_ratio_test_per_edge(image.facets)


@settings(max_examples=200, deadline=None)
@given(facets=facet_systems())
def test_one_ratio_test_per_edge_on_generated(facets):
    try:
        pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_one_ratio_test_per_edge(facets)


def test_no_fraction_elimination_per_construction(monkeypatch):
    # the start search and the walk both run on integer pivots; the
    # Fraction routines (solve_linear, inverse, det, rank) are the tests'
    # oracles, and every one of them goes through _eliminate
    def refuse(*args, **kwargs):
        raise AssertionError("construction entered a Fraction elimination")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    cube = pc.hypercube(4, 2)
    shear = ((1, 0, 0, 0), (2, 1, 0, 0), (0, -1, 1, 0), (0, 0, 3, 1))
    for build in (
        lambda: pc.hypercube(6),
        lambda: pc.dilated_simplex(8, 3),
        lambda: pc.prism(2, 1),
        triangle_nonregular,
        square_half,
        lambda: affine_image(
            cube, shear, (Fraction(1, 2), 0, Fraction(-2, 3), 1),
            (3, 1, Fraction(1, 2), 2, 5, 1, 7, 4),
        ),
    ):
        build()
    # the patch reaches every Fraction route
    one = [[1]]
    for route, args in (
        (linalg.solve_linear, (one, [1])), (linalg.inverse, (one,)),
        (linalg.det, (one,)), (linalg.rank, (one,)),
    ):
        with pytest.raises(AssertionError, match="Fraction elimination"):
            route(*args)


# -- the start search against the echelon search it replaced --------------


def echelon_first_vertex(facets):
    """Active facets of the first vertex in lexicographic subset order.

    A recursive search on integer echelon rows [normal | offset], each
    divided by its gcd, so an elimination independent of _pivot: a
    prefix whose normals are dependent is pruned, and the first full
    subset whose solution has no negative slack is the vertex.  Raises
    the constructor's errors for that vertex.
    """
    n = len(facets[0][0])

    def reduced(row):
        g = gcd(*row)
        return [a // g for a in row]

    def extend(first, basis):
        if len(basis) == n:
            den = lcm(*(abs(b[p]) for p, b in basis))
            num = [0] * n
            for p, b in basis:
                num[p] = b[n] * (den // b[p])
            slack = facet_slacks(facets, num, den)
            return None if slack_codim(slack) is None else (num, den, slack)
        for i in range(first, len(facets) - (n - len(basis)) + 1):
            normal, offset = facets[i]
            row = [*normal, offset]
            for pivot, b in basis:
                c = row[pivot]
                if c:
                    row = [b[pivot] * r - c * s for r, s in zip(row, b)]
            pivot = next((k for k in range(n) if row[k]), None)
            if pivot is None:
                continue
            row = reduced(row)
            c = row[pivot]
            rows = [
                (p, reduced([c * s - b[pivot] * r for s, r in zip(b, row)])
                 if b[pivot] else b)
                for p, b in basis
            ]
            found = extend(i + 1, rows + [(pivot, row)])
            if found is not None:
                return found
        return None

    found = extend(0, [])
    if found is None:
        raise pc.UnboundedError(
            "inequality system has no vertices: the region is empty "
            "or unbounded with no corner"
        )
    num, den, slack = found
    active = tuple(i for i, s in enumerate(slack) if s == 0)
    if len(active) > n:
        raise polytope._non_simple(num, den, active, n)
    return active


def assert_start_like_echelon(facets):
    """The pivot search finds the echelon search's vertex, or raises its
    error, and hands the walk the tableau an inverse gives there."""
    try:
        expected = echelon_first_vertex(facets)
    except pc.PolytopeError as e:
        with pytest.raises(type(e)) as err:
            polytope._first_vertex(facets)
        assert str(err.value) == str(e)
        return
    active, tab = polytope._first_vertex(facets)
    assert active == expected
    assert tab._asdict() == fraction_tableau(facets, active)._asdict()


@pytest.mark.parametrize("P", [
    pytest.param(P, id=name) for name, P in decomposition_zoo() + sheared_zoo()
])
def test_start_search_matches_echelon_search(P):
    assert_start_like_echelon(P.facets)


@settings(max_examples=25, deadline=None)
@given(image=high_dim_images())
def test_start_search_matches_echelon_search_above_dimension_three(image):
    assert_start_like_echelon(image.facets)


@settings(max_examples=300, deadline=None)
@given(facets=facet_systems())
def test_start_search_matches_echelon_search_on_generated(facets):
    assert_start_like_echelon(facets)


def test_start_search_does_not_recurse():
    # the echelon search recursed once per dimension, so simplex:40 ran
    # past a recursion limit this close to the caller's depth
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        P = pc.dilated_simplex(40)
    finally:
        sys.setrecursionlimit(limit)
    assert len(P.vertices) == 41


# integer_box's Fraction reference: floor and ceil of the vertex box
def integer_box_oracle(P, margin):
    lo, hi = bounding_box_oracle(P)
    return (
        tuple(floor(a) - margin for a in lo),
        tuple(ceil(a) + margin for a in hi),
    )


def assert_cleared_vertices(P):
    nums, den = P.cleared_vertices
    # den is the least common denominator: the points in lowest terms need it
    assert den == lcm(*(a.denominator for x in vertex_points(P) for a in x))
    assert len(nums) == len(P.vertices)
    for num in nums:
        assert all(type(x) is int for x in num)
    assert P.integral == (den == 1)
    for margin in (0, 1, 3):
        assert P.integer_box(margin) == integer_box_oracle(P, margin)
        assert all(type(a) is int for side in P.integer_box(margin) for a in side)


def test_integer_box_rejects_a_negative_margin():
    with pytest.raises(ValueError, match="margin must be nonnegative, got -1"):
        pc.hypercube(2, 1).integer_box(-1)


@pytest.mark.parametrize("P", construction_cases())
def test_cleared_vertices_and_boxes_match_the_points(P):
    assert_cleared_vertices(P)


@settings(max_examples=60, deadline=None)
@given(image=zoo_images())
def test_cleared_vertices_and_boxes_match_the_points_on_images(image):
    assert_cleared_vertices(image)


# -- the polytope's own data is all ints -----------------------------------


def assert_only_ints(P):
    """Every number in P.facets, P.vertices and P.cleared_vertices is an int."""
    nums, den = P.cleared_vertices
    numbers = [den, *(x for num in nums for x in num)]
    for normal, offset in P.facets:
        numbers += [*normal, offset]
    for v in P.vertices:
        numbers += [*v.active, *(a for d in v.edges for a in d)]
    assert all(type(x) is int for x in numbers)


@pytest.mark.parametrize("P", construction_cases())
def test_polytope_data_holds_only_ints(P):
    assert_only_ints(P)


@pytest.mark.parametrize("spec", [
    "interval:3", "cube:3", "cube:3,2", "simplex:4", "simplex:3,4",
    "trapezoid", "trapezoid:5,2", "prism", "prism:2,3",
])
def test_integral_builtins_load_as_ints(spec, tmp_path):
    # an integral size is an int offset, so no builtin row is cleared
    with patch.object(polytope, "clear_denominators", side_effect=AssertionError(spec)):
        P = cli._build_builtin(spec)
    assert all(type(x) is int for a, b in P.facets for x in (*a, b))
    path = tmp_path / "builtin.json"
    path.write_text(json.dumps({"dim": P.dim, "facets": [[*a, b] for a, b in P.facets]}))
    assert pc.from_file(path).facets == P.facets


@settings(max_examples=60, deadline=None)
@given(rows=zoo_image_rows())
def test_facets_are_the_input_rows_cleared(rows):
    P = pc.Polytope(rows)
    assert_only_ints(P)
    assert [(*f.normal, f.offset) for f in P.facets] == [
        clear_denominators((*a, b))[0] for a, b in rows
    ]
    # 'p/q' strings clear to the same rows
    text = [(tuple(map(str, a)), str(b)) for a, b in rows]
    assert pc.Polytope(text).facets == P.facets


@settings(max_examples=300, deadline=None)
@given(facets=facet_systems())
def test_polytope_data_holds_only_ints_on_generated(facets):
    try:
        P = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_only_ints(P)
    # integer rows clear to themselves
    assert P.facets == tuple(facets)


def test_facet_rows_clear_alike_from_every_entry_type():
    """ints and Fractions are cleared as they are, other entries through
    Fraction first; every form of one row gives the same integer row."""
    rows = [((1, 0), 0), ((0, 1), 0), ((Fraction(-1, 2), Fraction(-1, 3)), -1)]
    want = pc.Polytope(rows).facets
    assert [(*f.normal, f.offset) for f in want] == [(1, 0, 0), (0, 1, 0), (-3, -2, -6)]
    as_text = [(tuple(map(str, a)), str(b)) for a, b in rows]
    as_fractions = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in rows]
    as_floats = [(tuple(map(float, a[:1])) + a[1:], b) for a, b in rows[:2]]
    as_floats.append(((-0.5, Fraction(-1, 3)), -1.0))
    mixed = [((1, "0"), 0), ((Fraction(0), 1), "0"), ((-0.5, "-1/3"), Fraction(-1))]
    for form in (as_text, as_fractions, as_floats, mixed):
        got = pc.Polytope(form).facets
        assert got == want
        assert all(type(a) is int for f in got for a in (*f.normal, f.offset))
    # entries no Fraction reads fail as Fraction fails on them
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'a'"):
        pc.Polytope([(("a", 0), 0), *rows[1:]])
    with pytest.raises(TypeError, match="string or a Rational instance"):
        pc.Polytope([((1, None), 0), *rows[1:]])


@pytest.mark.parametrize("x, den", [
    ((0, 1, -2, 10**40), 1),
    ((True, False, 3), 1),
    ((Fraction(3, 2), Fraction(-4, 2), Fraction(0)), 1),
    (("2/4", "-3", " 7/1 "), 1),
    ((1, 2, Fraction(3, 2), "5/3"), 1),
    ((2, -3, 0, 6), 4),
    ((Fraction(1, 2), 3), 6),
], ids=("ints", "bools", "fractions", "strings", "mixed", "den4", "fraction-den6"))
def test_fmt_point_matches_the_fraction_route(x, den):
    """An int over 1 prints as str does; everything else through Fraction."""
    want = "(" + ", ".join(
        str(Fraction(a) if den == 1 else Fraction(a, den)) for a in x
    ) + ")"
    assert polytope.fmt_point(x, den) == want

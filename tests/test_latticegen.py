import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcount as pc
from polarcount import latticegen, laurent
from polarcount.cli import main
from polarcount.latticegen import VertexTerm, box_points, vertex_term
from polarcount.linalg import canonical_direction
from polarcount.laurent import LaurentPoly, RationalFunction
from polarcount.polytope import fmt_point
from polarcount.ypoly import YFrac, YPoly
from zoo import (
    affine_image,
    brion_zoo,
    decomposition_zoo,
    high_dim_images,
    regular_zoo,
    sheared_zoo,
    square_half,
    triangle_nonregular,
    unimodular,
    vertex_points,
    zoo_images,
)


def test_lattice_point_counts():
    assert len(pc.lattice_points(pc.interval(4))) == 5
    assert len(pc.lattice_points(pc.hypercube(2, 3))) == 16
    assert len(pc.lattice_points(pc.hypercube(3, 1))) == 8
    assert len(pc.lattice_points(pc.dilated_simplex(2, 4))) == 15
    assert len(pc.lattice_points(pc.prism(2, 1))) == 12
    points = pc.lattice_points(pc.trapezoid())
    assert points == {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 2, (2, 0): 2}
    assert list(points) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]


def brute_force_points(P):
    """face_codim at every point of the integer box, in lexicographic order."""
    codims = ((p, P.face_codim(p)) for p in box_points(*P.integer_box()))
    return {p: c for p, c in codims if c is not None}


def row_scan_cases():
    cases = decomposition_zoo() + [
        ("interval-5/2", pc.interval(Fraction(5, 2))),
        (
            "interval-1/3..8/3",
            affine_image(pc.interval(Fraction(7, 3)), ((1,),), (Fraction(1, 3),)),
        ),
        (
            "interval-(-7/2)..(-1/2)",
            affine_image(pc.interval(3), ((-1,),), (Fraction(-1, 2),)),
        ),
        (
            "from_dict-pq",
            pc.from_dict(
                {
                    "dim": 2,
                    "facets": [
                        ["2/3", 0, "1/3"],
                        [0, "5/2", "-5/6"],
                        ["-1/4", "-1/4", "-7/8"],
                    ],
                }
            ),
        ),
    ]
    cases += sheared_zoo()
    return [pytest.param(P, id=name) for name, P in cases]


@pytest.mark.parametrize("P", row_scan_cases())
def test_row_scan_matches_brute_force(P):
    expected = brute_force_points(P)
    assert list(pc.lattice_points(P).items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(image=zoo_images())
def test_row_scan_matches_brute_force_on_images(image):
    assert list(pc.lattice_points(image).items()) == list(
        brute_force_points(image).items()
    )


@settings(max_examples=40, deadline=None)
@given(image=high_dim_images())
def test_walk_matches_brute_force_on_high_dim_images(image):
    # dimensions 4-6 with rational offsets and shuffled facets, so the
    # facet bounds cut prefixes above the last level; many images have
    # no lattice point at all
    assert list(pc.lattice_points(image).items()) == list(
        brute_force_points(image).items()
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_census_closed_forms(n):
    for s in (1, 2, 3):
        expected = {c: comb(n, c) * (s - 1) ** (n - c) * 2**c for c in range(n + 1)}
        want = {c: k for c, k in expected.items() if k}
        assert pc.codim_census(pc.hypercube(n, s)) == want, (n, s)
    for d in (1, 2, 3, 5):
        expected = {c: comb(n + 1, c) * comb(d - 1, n - c) for c in range(n + 1)}
        want = {c: k for c, k in expected.items() if k}
        assert pc.codim_census(pc.dilated_simplex(n, d)) == want, (n, d)
    assert type(pc.codim_census(pc.hypercube(n, 2))) is dict


def census_by_points(P):
    return dict(Counter(pc.lattice_points(P).values()))


any_image = st.one_of(zoo_images(), high_dim_images())


@settings(max_examples=90, deadline=None)
@given(image=any_image)
def test_census_matches_the_point_dict_on_images(image):
    # rational and non-regular images too: the census has no gate
    census = pc.codim_census(image)
    assert census == census_by_points(image)
    # the concrete-z route at z = (1, ..., 1) is the census too
    assert pc.codim_sums(image, (1,) * image.dim) == (census, 1)


@pytest.mark.parametrize(
    "P, want",
    [
        (
            pc.dilated_simplex(2, 3000),
            {c: comb(3, c) * comb(2999, 2 - c) for c in range(3)},
        ),
        (pc.hypercube(3, 120), {c: comb(3, c) * 119 ** (3 - c) * 2**c for c in range(4)}),
    ],
    ids=["simplex:2,3000", "cube:3,120"],
)
def test_census_closed_forms_at_large_dilations(P, want):
    # 4.5 and 1.8 million points: a dict entry per point would hold
    # hundreds of megabytes, the rows only a few
    tracemalloc.start()
    try:
        census = pc.codim_census(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census == want
    assert peak < 16 * 2**20


def test_walk_does_not_recurse():
    P = pc.dilated_simplex(40)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        points = pc.lattice_points(P)
    finally:
        sys.setrecursionlimit(limit)
    assert set(points.values()) == {40} and len(points) == 41


def test_count_simplex_40_finishes():
    # the box has 2^40 points; an unpruned scan of it never returns
    env = {**os.environ, "PYTHONPATH": str(Path(pc.__file__).parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "polarcount.cli", "count", "--builtin", "simplex:40"],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("count --builtin simplex:40 ran past 60 s")
    assert done.returncode == 0, done.stderr
    assert "lattice points: 41\n  codim 40: 41\n" in done.stdout


def test_census_and_format():
    census = pc.codim_census(pc.dilated_simplex(2, 4))
    assert census == {0: 3, 1: 9, 2: 3}
    assert pc.format_census(census) == "3 + 9/(1+y) + 3/(1+y)^2"
    assert pc.codim_census(pc.trapezoid()) == {1: 1, 2: 4}
    assert pc.format_census({}) == "0"
    assert pc.format_census({1: 2}) == "2/(1+y)"


def test_format_lattice_sum_closed_forms():
    # interval [0, 2]: the ends weigh u, the midpoint 1 = (1+y) * u
    lattice = pc.brion_check(pc.interval(2)).lattice_sum
    assert pc.format_lattice_sum(lattice) == "(1 + (y + 1)*z + z^2) / (1+y)"
    # the unit square: four corners, each u^2
    lattice = pc.brion_check(pc.hypercube(2, 1)).lattice_sum
    assert pc.format_lattice_sum(lattice) == "(1 + z2 + z1 + z1*z2) / (1+y)^2"


def test_brion_clears_each_codimension_once(capsys, monkeypatch):
    # simplex:2,32 has 561 lattice points but only n+1 = 3 codimensions,
    # each with coefficient 1, so the printed form clears 3 weights
    calls = []
    cleared = YFrac.cleared
    monkeypatch.setattr(
        YFrac, "cleared", lambda self, power: calls.append(power) or cleared(self, power)
    )
    assert main(["brion", "--builtin", "simplex:2,32"]) == 0
    assert "check: PASS" in capsys.readouterr().out
    assert 0 < len(calls) <= 3


def test_weighted_count_symbolic_frozen():
    total = pc.weighted_count_y(pc.dilated_simplex(2, 4))
    assert total == YFrac(YPoly((15, 15, 3)), 2)
    assert str(total) == "(3*y^2 + 15*y + 15)/(1+y)^2"


def test_weighted_count_specializations():
    for name, P in regular_zoo():
        pts = pc.lattice_points(P)
        assert pc.weighted_count(P, pc.WeightParam(0)) == len(pts), name
        half_sum = sum(
            Fraction(1, 2) ** len(P.active_facets(p)) for p in pts
        )
        assert pc.weighted_count(P, pc.WeightParam(1)) == half_sum, name
        symbolic = pc.weighted_count_y(P)
        for y in (Fraction(2), Fraction(-1, 3)):
            assert symbolic(y) == pc.weighted_count(P, pc.WeightParam(y)), name


def test_dilated_triangle_counts():
    for d in range(1, 6):
        P = pc.dilated_simplex(2, d)
        expected = (d + 1) * (d + 2) // 2
        assert pc.weighted_count(P, pc.WeightParam(0)) == expected
        assert len(pc.lattice_points(P)) == expected


def test_hypothesis_gate_names_the_failure():
    nonreg = triangle_nonregular()
    nonint = square_half()
    gated = [
        pc.weighted_count_y,
        lambda P: pc.weighted_count(P, pc.WeightParam(1)),
        pc.brion_check,
        pc.brion_sum,
        pc.weighted_sum_poly,
        lambda P: pc.vertex_genfun(P, 0),
        lambda P: pc.chi_y_vertex_sum(P, pc.WeightParam(1), (2,) * P.dim),
        lambda P: pc.chi_y_lattice_sum(P, pc.WeightParam(1), (2,) * P.dim),
        lambda P: pc.multiplicity(P, (0,) * P.dim),
        lambda P: pc.coefficient_extract(P, (1, 2), (0,) * P.dim),
    ]
    for op in gated:
        with pytest.raises(pc.HypothesisError) as err:
            op(nonreg)
        assert "regular" in str(err.value)
        with pytest.raises(pc.HypothesisError) as err:
            op(nonint)
        assert "integral" in str(err.value)


def test_enumeration_has_no_gate():
    nonreg = triangle_nonregular()
    assert len(pc.lattice_points(nonreg)) == 4
    assert pc.codim_census(nonreg) == {1: 1, 2: 3}
    points = pc.lattice_points(square_half())
    assert points == {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert list(points) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_vertex_genfun_interval():
    P = pc.interval(1)
    f0 = pc.vertex_genfun(P, 0)  # vertex 0, edge +1
    # (1 + y*z) / ((1+y)(1 - z)) = (u + (1-u)*z) / (1 - z), variables (z, u)
    expected = RationalFunction(
        LaurentPoly(2, {(0, 1): 1, (1, 0): 1, (1, 1): -1}),
        LaurentPoly(2, {(0, 0): 1, (1, 0): -1}),
    )
    assert f0.equivalent(expected)


def test_vertex_term_orients_each_edge_canonically():
    # vertex_term flips the sign of a primitive int edge where the
    # Fraction route, linalg.canonical_direction, orients it the other way
    cases = brion_zoo() + [
        (name, Q) for name, Q in sheared_zoo() if Q.regular and Q.integral
    ]
    for name, P in cases:
        for i, v in enumerate(P.vertices):
            dirs = vertex_term(P, i).canonical_dirs
            assert dirs == tuple(canonical_direction(a) for a in v.edges), (name, i)


def test_brion_check_across_zoo():
    for name, P in brion_zoo():
        report = pc.brion_check(P)
        assert report.equal, name


def test_brion_interval_closed_form():
    # [0,1]: the sum collapses to (1 + z)/(1+y) = u + u*z, variables (z, u)
    P = pc.interval(1)
    report = pc.brion_check(P)
    expected = RationalFunction(
        LaurentPoly(2, {(0, 1): 1, (1, 1): 1}), LaurentPoly.const(2, 1)
    )
    assert report.equal
    assert pc.brion_sum(P).equivalent(expected)
    assert report.lattice_sum == expected.num


def test_weighted_sum_poly_square():
    # one term u^codim * z^p per lattice point p; the last exponent is u's
    P = pc.hypercube(2, 1)
    poly = pc.weighted_sum_poly(P)
    assert poly.nvars == 3
    assert poly.terms == {(*p, 2): 1 for p in ((0, 0), (1, 0), (0, 1), (1, 1))}
    assert poly.coefficient((2, 2, 2)) == 0
    P3 = pc.hypercube(2, 3)
    poly3 = pc.weighted_sum_poly(P3)
    assert len(poly3.terms) == 16
    assert poly3.coefficient((1, 1, 0)) == 1
    assert poly3.coefficient((1, 0, 1)) == 1
    assert poly3.coefficient((0, 0, 2)) == 1
    assert poly3.coefficient((1, 1, 1)) == 0


def test_chi_check_known_values():
    rep = pc.chi_y_check(pc.interval(1), pc.WeightParam(3), (2,))
    assert rep.lhs == rep.rhs == Fraction(3, 4)
    rep = pc.chi_y_check(pc.hypercube(2, 1), pc.WeightParam(1), (2, 3))
    assert rep.lhs == rep.rhs == Fraction(3)


def test_chi_check_random_draws():
    rng = random.Random(7)
    polys = regular_zoo()
    done = 0
    while done < 30:
        _, P = polys[rng.randrange(len(polys))]
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if y == -1:
            continue
        z = tuple(
            Fraction(rng.randint(2, 7), rng.choice((1, 1, 3)))
            for _ in range(P.dim)
        )
        try:
            rep = pc.chi_y_check(P, pc.WeightParam(y), z)
        except pc.PoleError:
            continue
        assert rep.equal
        done += 1


def _monomial_value(z, expo):
    val = Fraction(1)
    for zi, e in zip(z, expo):
        val *= zi**e
    return val


def vertex_sum_oracle(poly, w, z):
    """The vertex sum at z, each vertex factor written in its y form."""
    zt = tuple(Fraction(a) for a in z)
    total = Fraction(0)
    for x, v in zip(vertex_points(poly), poly.vertices):
        term = _monomial_value(zt, tuple(int(a) for a in x))
        for a in v.edges:
            za = _monomial_value(zt, a)
            if za == 1:
                raise pc.PoleError(
                    f"z^{a} = 1 at vertex {fmt_point(x)}: the point "
                    f"lies on a pole; perturb z"
                )
            term *= (1 + w.y * za) / ((1 + w.y) * (1 - za))
        total += term
    return total


def lattice_sum_oracle(poly, w, z):
    """The weighted lattice sum at z, one Fraction product per point."""
    zt = tuple(Fraction(a) for a in z)
    face_powers = [w.on_face**c for c in range(poly.dim + 1)]
    lo, hi = poly.integer_box()
    coord_powers = [
        {e: zi**e for e in range(a, b + 1)} for zi, a, b in zip(zt, lo, hi)
    ]
    total = Fraction(0)
    for p, c in pc.lattice_points(poly).items():
        term = face_powers[c]
        for powers, e in zip(coord_powers, p):
            term *= powers[e]
        total += term
    return total


def chi_cases():
    named = dict(regular_zoo() + brion_zoo())
    named.update((n, Q) for n, Q in sheared_zoo() if Q.regular and Q.integral)
    return [pytest.param(P, id=name) for name, P in sorted(named.items())]


# small coordinates, with +-1 among them, so some draws land on a pole
_Z_CHOICES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3)


@pytest.mark.parametrize("P", chi_cases())
def test_chi_sides_match_the_y_form_oracles(P):
    rng = random.Random(P.dim * 1000 + len(P.vertices) * 10 + len(P.facets))
    for _ in range(12):
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if y == -1:
            continue
        w = pc.WeightParam(y)
        z = tuple(rng.choice(_Z_CHOICES) for _ in range(P.dim))
        assert pc.chi_y_lattice_sum(P, w, z) == lattice_sum_oracle(P, w, z)
        try:
            expected = vertex_sum_oracle(P, w, z)
        except pc.PoleError as err:
            with pytest.raises(pc.PoleError) as got:
                pc.chi_y_vertex_sum(P, w, z)
            assert str(got.value) == str(err)
        else:
            assert pc.chi_y_vertex_sum(P, w, z) == expected
    # z = (1, ..., 1) is a pole of every vertex term
    ones = (1,) * P.dim
    with pytest.raises(pc.PoleError) as err:
        vertex_sum_oracle(P, pc.WeightParam(2), ones)
    with pytest.raises(pc.PoleError) as got:
        pc.chi_y_vertex_sum(P, pc.WeightParam(2), ones)
    assert str(got.value) == str(err.value)


@settings(max_examples=40, deadline=None)
@given(
    P=any_image.filter(lambda P: P.regular and P.integral),
    y=st.fractions(-6, 6, max_denominator=4).filter(lambda y: y != -1),
    data=st.data(),
)
def test_chi_lattice_sum_matches_the_oracle_on_images(P, y, data):
    # shifted images have negative boxes; z_n = +-1 and points on two or
    # more facets are drawn too
    z = data.draw(st.tuples(*[st.sampled_from(_Z_CHOICES)] * P.dim))
    w = pc.WeightParam(y)
    assert pc.chi_y_lattice_sum(P, w, z) == lattice_sum_oracle(P, w, z)


def test_chi_vertex_sum_expands_no_numerator(monkeypatch):
    products = []
    mul = LaurentPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    z = (Fraction(2, 3), Fraction(-5, 7), Fraction(11, 13))
    for P in (pc.hypercube(3, 2), pc.dilated_simplex(3, 4), pc.prism(2, 1)):
        value = pc.chi_y_vertex_sum(P, pc.WeightParam(Fraction(2, 3)), z)
        assert value == pc.chi_y_lattice_sum(P, pc.WeightParam(Fraction(2, 3)), z)
    assert products == []
    # the patch is live: the expanded numerator multiplies
    vertex_term(pc.hypercube(3, 2), 0).numerator
    assert len(products) == 3


def test_chi_pole_is_reported():
    with pytest.raises(pc.PoleError) as err:
        pc.chi_y_vertex_sum(pc.hypercube(2, 1), pc.WeightParam(1), (1, 5))
    assert "pole" in str(err.value)


def test_chi_rejects_zero_coordinates():
    with pytest.raises(ValueError):
        pc.chi_y_vertex_sum(pc.hypercube(2, 1), pc.WeightParam(1), (0, 5))
    with pytest.raises(ValueError):
        pc.chi_y_vertex_sum(pc.hypercube(2, 1), pc.WeightParam(1), (2,))


@pytest.mark.parametrize("z", [(2,), (2, 3, 5)], ids=["short", "long"])
@pytest.mark.parametrize("side", [pc.chi_y_vertex_sum, pc.chi_y_lattice_sum])
def test_chi_rejects_wrong_length_z(side, z):
    with pytest.raises(ValueError) as err:
        side(pc.hypercube(2, 1), pc.WeightParam(1), z)
    assert str(err.value) == f"expected 2 coordinates, got {len(z)}"


@pytest.mark.parametrize(
    "z, message",
    [((2,), "expected 2 coordinates, got 1"),
     ((2, 3, 5), "expected 2 coordinates, got 3"),
     ((0, 3), "evaluation point must have nonzero coordinates")],
    ids=["short", "long", "zero"],
)
def test_codim_sums_rejects_a_bad_z(z, message):
    # a short z used to be cut to length by zip, and cube:2,2 at z = (2,)
    # summed to {0: 2, 1: 9, 2: 10}
    with pytest.raises(ValueError) as err:
        pc.codim_sums(pc.hypercube(2, 2), z)
    assert str(err.value) == message


def test_multiplicity_both_routes_agree():
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    lo, hi = P.integer_box(2)
    for alpha in pc.latticegen.box_points(lo, hi):
        rep = pc.multiplicity_check(P, xi, alpha)
        assert rep.equal, alpha
        inside = P.face_codim(alpha)
        if inside is None:
            assert rep.predicted == YFrac(0)
        else:
            assert rep.predicted == YFrac(1, inside)


def test_cone_series_check_needs_no_hypotheses():
    for P in (pc.trapezoid(), triangle_nonregular(), square_half()):
        xi = pc.find_polarizing(P, seed=2)
        results = pc.cone_series_check(P, xi, margin=2)
        assert results and all(r.equal for r in results)


def test_cone_series_check_concrete_weight():
    results = pc.cone_series_check(
        pc.hypercube(2, 1), (1, 2), margin=1, w=pc.WeightParam(Fraction(1, 3))
    )
    assert results and all(r.equal for r in results)


def test_cone_series_check_rejects_a_negative_margin():
    # an empty box would pass the check vacuously
    P = pc.trapezoid()
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        pc.cone_series_check(P, pc.find_polarizing(P, seed=1), margin=-5)


# -- the one-binomial-at-a-time check against cross-multiplication -------


def brion_by_equivalent(P):
    """Reference route: each vertex numerator lifted by LaurentPoly
    products, the full denominator expanded, and equality decided by
    RationalFunction.equivalent."""
    n1 = P.dim + 1
    one = LaurentPoly.const(n1, 1)

    def one_minus(b):
        return LaurentPoly(n1, {(0,) * n1: 1, (*b, 0): -1})

    terms = [latticegen.vertex_term(P, i) for i in range(len(P.vertices))]
    dirs = list(dict.fromkeys(b for t in terms for b in t.canonical_dirs))
    num = LaurentPoly.zero(n1)
    for t in terms:
        lifted = t.numerator
        for b in dirs:
            if b not in t.canonical_dirs:
                lifted = lifted * one_minus(b)
        num = num + lifted
    lhs = RationalFunction(num, prod(map(one_minus, dirs), start=one))
    rhs = RationalFunction(latticegen.weighted_sum_poly(P), one)
    return lhs, rhs, lhs.equivalent(rhs)


def assert_brion_matches_reference(P):
    report = pc.brion_check(P)
    lhs, rhs, equal = brion_by_equivalent(P)
    vertex_sum = pc.brion_sum(P)
    assert (vertex_sum.num, vertex_sum.den) == (lhs.num, lhs.den)
    assert report.lattice_sum == rhs.num
    assert report.equal == equal
    return report


def lattice_cases():
    return brion_zoo() + [
        (name, Q) for name, Q in sheared_zoo() if Q.regular and Q.integral
    ]


def test_brion_check_matches_cross_multiplication():
    for name, P in lattice_cases():
        assert assert_brion_matches_reference(P).equal, name


@st.composite
def lattice_images(draw):
    """A brion_zoo member under a unimodular map and an integer shift,
    which keep it regular and integral."""
    zoo = dict(brion_zoo())
    P = zoo[draw(st.sampled_from(sorted(zoo)))]
    M = draw(unimodular(P.dim))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * P.dim))
    return affine_image(P, M, shift)


@settings(max_examples=40, deadline=None)
@given(lattice_images())
def test_brion_check_matches_cross_multiplication_on_images(P):
    assert assert_brion_matches_reference(P).equal


def dropped_first(P, i):
    """vertex_term with vertex 0's term made zero."""
    t = vertex_term(P, i)
    if i:
        return t
    return VertexTerm(i, (LaurentPoly.zero(P.dim + 1),), t.canonical_dirs)


def flipped_first_binomial(P, i):
    """vertex_term with the sign of vertex 0's first binomial flipped."""
    t = vertex_term(P, i)
    if i:
        return t
    monomial, first, *rest = t.factors
    return t._replace(factors=(monomial, -first, *rest))


BROKEN_TERMS = {"dropped": dropped_first, "flipped": flipped_first_binomial}


@pytest.mark.parametrize("broken", sorted(BROKEN_TERMS))
def test_brion_check_fails_on_a_broken_vertex_term(monkeypatch, broken):
    monkeypatch.setattr(latticegen, "vertex_term", BROKEN_TERMS[broken])
    for name, P in lattice_cases():
        assert not assert_brion_matches_reference(P).equal, name


@pytest.mark.parametrize("broken", sorted(BROKEN_TERMS))
def test_brion_command_reports_a_broken_vertex_term(capsys, monkeypatch, broken):
    monkeypatch.setattr(latticegen, "vertex_term", BROKEN_TERMS[broken])
    assert main(["brion", "--builtin", "cube:3,2"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "check: FAIL (vertex sum differs from lattice sum)"


@pytest.mark.parametrize("broken", sorted(BROKEN_TERMS))
def test_chi_command_reports_a_broken_vertex_term(capsys, monkeypatch, broken):
    monkeypatch.setattr(latticegen, "vertex_term", BROKEN_TERMS[broken])
    argv = ["chi", "--builtin", "cube:3,2", "--y", "2/3", "--z", "2,3,5"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "check: FAIL (vertex and lattice sums disagree)"
    assert "Traceback" not in err


def test_brion_command_builds_no_rational_function(capsys, monkeypatch, tmp_path):
    """brion reads the lattice sum and the verdict only: with
    RationalFunction and the expanded denominator made to raise, every
    brion_zoo member prints what it printed before and passes."""
    runs = []
    for name, P in brion_zoo():
        path = tmp_path / f"{name}.json"
        facets = [[*map(str, f.normal), str(f.offset)] for f in P.facets]
        path.write_text(json.dumps({"dim": P.dim, "facets": facets}))
        assert main(["brion", str(path)]) == 0
        runs.append((P, path, capsys.readouterr().out))

    def built(*args, **kwargs):
        raise AssertionError("brion built a rational function")

    monkeypatch.setattr(laurent.RationalFunction, "__init__", built)
    monkeypatch.setattr(latticegen, "_denominator", built)
    for P, path, out in runs:
        with pytest.raises(AssertionError):
            pc.brion_sum(P)
        assert main(["brion", str(path)]) == 0
        assert capsys.readouterr().out == out

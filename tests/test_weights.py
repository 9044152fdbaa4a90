import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarcount as pc
import polarcount.cli as cli
from polarcount.linalg import vadd, vsub
from polarcount.polytope import fmt_point
from polarcount.weights import CheckResult
from polarcount.ypoly import Y, YFrac
from conftest import DATA_DIR
from zoo import (
    SEEDS, barycenter_oracle, bounding_box_oracle, decomposition_zoo, facet_systems,
    row_points, vertex_points, zoo_images,
)

SPOT_YS = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(7, 5))


def test_weight_param_rejects_minus_one():
    with pytest.raises(ValueError) as err:
        pc.WeightParam(-1)
    assert "y = -1" in str(err.value)
    w = pc.WeightParam(Fraction(1, 2))
    assert w.on_face == Fraction(2, 3)


def test_polytope_weight_tracks_codimension():
    P = pc.trapezoid()
    assert pc.polytope_weight_y(P, (Fraction(1, 2), Fraction(1, 2))) == YFrac(1)
    assert pc.polytope_weight_y(P, (1, 0)) == YFrac(1, 1)
    assert pc.polytope_weight_y(P, (0, 0)) == YFrac(1, 2)
    assert pc.polytope_weight_y(P, (9, 9)) == YFrac(0)
    assert pc.polytope_weight_y(P, (0, 0))(3) == Fraction(1, 16)


def test_cone_weights_at_square_corner():
    """The four signed cone weights at the origin corner of [0,1]^2."""
    P = pc.hypercube(2, 1)
    cones = dict(zip(vertex_points(P), pc.polarize_cones(P, (1, 2))))
    x = (0, 0)
    assert pc.cone_weight_y(cones[(0, 0)], x) == YFrac(Y**2, 2)
    assert pc.cone_weight_y(cones[(1, 0)], x) == YFrac(Y, 1)
    assert pc.cone_weight_y(cones[(0, 1)], x) == YFrac(Y, 1)
    assert pc.cone_weight_y(cones[(1, 1)], x) == YFrac(1)
    total = pc.signed_cone_sum_y(list(cones.values()), x)
    assert total == YFrac(1, 2)


def test_cone_face_counts_split_by_flip():
    P = pc.hypercube(2, 1)
    cones = dict(zip(vertex_points(P), pc.polarize_cones(P, (1, 2))))
    # at (0,0) the fully flipped cone sees two flipped zeros
    assert pc.cone_face_counts(cones[(0, 0)], (0, 0)) == (0, 2)
    # the opposite cone reaches (0,0) in its interior
    assert pc.cone_face_counts(cones[(1, 1)], (0, 0)) == (0, 0)
    # a step along the unflipped edge of the mixed cone leaves its zero
    # coordinate on the flipped generator
    assert pc.cone_face_counts(cones[(1, 0)], (Fraction(1, 2), 0)) == (0, 1)
    assert pc.cone_face_counts(cones[(1, 1)], (5, 5)) is None


def test_decomposition_symbolic_across_zoo():
    for name, P in decomposition_zoo():
        xi = pc.find_polarizing(P, seed=1)
        rows = pc.sample_points(P, xi, rng=random.Random(11), random_count=10)
        failures = pc.check_decomposition(P, pc.polarize_cones(P, xi), rows)
        assert failures == [], (name, [(r.point, str(r.lhs), str(r.rhs))
                                       for r in failures])


def test_decomposition_concrete_matches_symbolic():
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    cones = pc.polarize_cones(P, xi)
    pts = row_points(pc.sample_points(P, xi, random_count=5))
    for x in pts:
        symbolic = pc.check_decomposition_at(P, cones, x)
        for y in SPOT_YS:
            w = pc.WeightParam(y)
            concrete = pc.check_decomposition_at(P, cones, x, w)
            assert concrete.equal
            assert concrete.lhs == symbolic.lhs(y)
            assert concrete.rhs == symbolic.rhs(y)


def test_y_zero_reduces_to_half_open_cover():
    """At y = 0 each cone keeps only points clear of flipped walls."""
    P = pc.trapezoid()
    xi = (1, 2)
    cones = pc.polarize_cones(P, xi)
    for x in row_points(pc.sample_points(P, xi, random_count=10)):
        covering = []
        for cone in cones:
            counts = pc.cone_face_counts(cone, x)
            if counts is not None and counts[1] == 0:
                covering.append(cone)
            weight = pc.cone_weight_y(cone, x)(0)
            assert weight == (1 if counts is not None and counts[1] == 0 else 0)
        signed = sum(c.sign for c in covering)
        assert signed == (0 if P.face_codim(x) is None else 1)


def test_sample_points_cover_faces_and_exterior():
    P = pc.trapezoid()
    xi = (1, 2)
    pts = row_points(pc.sample_points(P, xi, random_count=0))
    for x in vertex_points(P):
        assert x in pts
    assert len(pts) == len(set(pts))
    exterior = [x for x in pts if P.face_codim(x) is None]
    assert len(exterior) >= 2 * len(P.vertices) - 1
    interior = [x for x in pts if P.face_codim(x) == 0]
    assert interior


def test_check_many_seeds_and_chambers():
    """Signed cone sums agree across polarizations, not just with the lhs."""
    P = pc.dilated_simplex(2, 2)
    xis = [pc.find_polarizing(P, seed=s) for s in SEEDS]
    assert len({xi for xi in xis}) >= 2
    pts = row_points(pc.sample_points(P, xis[0], rng=random.Random(3), random_count=10))
    all_cones = [pc.polarize_cones(P, xi) for xi in xis]
    for x in pts:
        sums = {
            str(pc.signed_cone_sum_y(cones, x)) for cones in all_cones
        }
        assert len(sums) == 1, (x, sums)


# -- the Fraction and YFrac routes, as oracles --------------------------
#
# check_decomposition_at tallies the cones by (r1, r2) and compares ints;
# sample_points builds its rows over one integer denominator.  The
# oracles below are the direct routes: one YFrac sum over the cones,
# evaluated at y as Fractions, and one Fraction operation per coordinate.
# Each cone's counts are cone_face_counts, one cone at a time, which
# tests/test_membership.py pins against the Fraction cone coordinates.

ORACLE_YS = (None, Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-1, 2),
             Fraction(-5, 3))


def check_oracle(poly, cones, x, w=None):
    xt = tuple(Fraction(a) for a in x)
    c = poly.face_codim(xt)
    lhs = YFrac(0) if c is None else YFrac(1, c)
    rhs = YFrac(0)
    for cone in cones:
        counts = pc.cone_face_counts(cone, xt)
        if counts is not None:
            wgt = YFrac.weight(*counts)
            rhs = rhs + wgt if cone.sign > 0 else rhs - wgt
    if w is not None:
        lhs, rhs = lhs(w.y), rhs(w.y)
    return CheckResult(point=xt, lhs=lhs, rhs=rhs, equal=lhs == rhs)


def sample_points_oracle(poly, xi, rng=None, random_count=20):
    verts = vertex_points(poly)
    pts = list(verts)
    for i, j in poly.edges():
        a, b = verts[i], verts[j]
        pts.append(tuple(x / 2 for x in vadd(a, b)))
    for i in range(len(poly.facets)):
        incident = [x for x, v in zip(verts, poly.vertices) if i in v.active]
        acc = incident[0]
        for p in incident[1:]:
            acc = vadd(acc, p)
        pts.append(tuple(a / len(incident) for a in acc))
    pts.append(barycenter_oracle(poly))
    lo, hi = bounding_box_oracle(poly)
    span = max(b - a for a, b in zip(lo, hi))
    step = int(span) + 1
    xiv = tuple(Fraction(a) for a in xi)
    for x in verts:
        big = tuple(step * a for a in xiv)
        pts.append(vadd(x, big))
        pts.append(vsub(x, big))
    if random_count and rng is None:
        rng = random.Random(20)
    for _ in range(random_count):
        point = []
        for a, b in zip(lo, hi):
            width = b - a
            lo2, hi2 = a - width / 2, b + width / 2
            den = rng.randint(1, 4)
            num = rng.randint(int(lo2 * den) - 1, int(hi2 * den) + 1)
            point.append(Fraction(num, den))
        pts.append(tuple(point))
    seen = set()
    unique = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def assert_check_matches_oracle(poly, seed):
    xi = pc.find_polarizing(poly, seed=seed)
    cones = pc.polarize_cones(poly, xi)
    points = sample_points_oracle(poly, xi, rng=random.Random(seed), random_count=8)
    got = row_points(pc.sample_points(poly, xi, rng=random.Random(seed), random_count=8))
    assert got == points
    assert all(type(a) is Fraction for p in got for a in p)
    # the full cone set, and one with its last cone dropped, which fails
    # at the dropped vertex and wherever that cone reached
    broken = cones[:-1]
    for y in ORACLE_YS:
        w = None if y is None else pc.WeightParam(y)
        for cone_set in (cones, broken):
            for x in points:
                res = pc.check_decomposition_at(poly, cone_set, x, w)
                want = check_oracle(poly, cone_set, x, w)
                assert res == want, (x, y, res, want)
                assert type(res.lhs) is type(want.lhs)
                assert type(res.rhs) is type(want.rhs)
                assert str(res.lhs) == str(want.lhs)
                assert str(res.rhs) == str(want.rhs)
    assert not all(
        check_oracle(poly, broken, x).equal for x in points
    )


@pytest.mark.parametrize(
    "poly", [pytest.param(P, id=name) for name, P in decomposition_zoo()]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_check_matches_oracle_on_zoo(poly, seed):
    assert_check_matches_oracle(poly, seed)


@settings(max_examples=15, deadline=None)
@given(image=zoo_images(), seed=st.sampled_from(SEEDS))
def test_check_matches_oracle_on_images(image, seed):
    assert_check_matches_oracle(image, seed)


@settings(max_examples=120, deadline=None)
@given(facets=facet_systems(), seed=st.sampled_from(SEEDS))
def test_check_matches_oracle_on_generated_polytopes(facets, seed):
    try:
        poly = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_check_matches_oracle(poly, seed)


@pytest.mark.parametrize("random_count", (0, 1, 20, 60))
def test_sample_points_match_oracle(random_count):
    for name, poly in decomposition_zoo():
        for seed in SEEDS:
            xi = pc.find_polarizing(poly, seed=seed)
            got = row_points(pc.sample_points(poly, xi, rng=random.Random(seed),
                                              random_count=random_count))
            want = sample_points_oracle(poly, xi, rng=random.Random(seed),
                                        random_count=random_count)
            assert got == want, name
    # no rng given: both draw from the same default seed
    P = pc.hypercube(2, Fraction(3, 2))
    assert row_points(pc.sample_points(P, (1, 3))) == sample_points_oracle(P, (1, 3))
    # a rational polarizing vector steps the probes by rational amounts
    xi = (Fraction(1, 3), Fraction(-5, 2))
    assert row_points(pc.sample_points(P, xi)) == sample_points_oracle(P, xi)


# -- the concrete-y integer formula, as an oracle ------------------------
#
# At a concrete y the check evaluates both of its YFracs there.  The
# oracle is the direct integer route: at y = a/b, u = b/(a+b), so
# (a+b)**n * u**r1 * (1-u)**r2 = b**r1 * a**r2 * (a+b)**(n-r1-r2) is an
# int, and both sides compare as ints over the common (a+b)**n.

INT_ORACLE_YS = (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-1, 2),
                 Fraction(5), Fraction(-5, 3))


def concrete_check_oracle(poly, cones, x, w):
    xt = tuple(Fraction(a) for a in x)
    codim = poly.face_codim(xt)
    table = {}
    for cone in cones:
        counts = pc.cone_face_counts(cone, xt)
        if counts is not None:
            table[counts] = table.get(counts, 0) + cone.sign
    a, b, n = w.y.numerator, w.y.denominator, poly.dim
    s = a + b
    left = 0 if codim is None else b**codim * s ** (n - codim)
    right = sum(
        sign * b**r1 * a**r2 * s ** (n - r1 - r2)
        for (r1, r2), sign in table.items()
    )
    return CheckResult(point=xt, lhs=Fraction(left, s**n),
                       rhs=Fraction(right, s**n), equal=left == right)


def assert_concrete_check_matches_int_oracle(poly, seed):
    xi = pc.find_polarizing(poly, seed=seed)
    cones = pc.polarize_cones(poly, xi)
    points = row_points(pc.sample_points(poly, xi, rng=random.Random(seed),
                                         random_count=8))
    for y in INT_ORACLE_YS:
        w = pc.WeightParam(y)
        for cone_set in (cones, cones[:-1]):
            for x in points:
                got = pc.check_decomposition_at(poly, cone_set, x, w)
                want = concrete_check_oracle(poly, cone_set, x, w)
                assert got == want, (x, y, got, want)
                assert type(got.lhs) is Fraction and type(got.rhs) is Fraction
        assert all(
            concrete_check_oracle(poly, cones, x, w).equal for x in points
        )


@pytest.mark.parametrize(
    "poly", [pytest.param(P, id=name) for name, P in decomposition_zoo()]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_concrete_check_matches_int_oracle_on_zoo(poly, seed):
    assert_concrete_check_matches_int_oracle(poly, seed)


@settings(max_examples=120, deadline=None)
@given(facets=facet_systems(), seed=st.sampled_from(SEEDS))
def test_concrete_check_matches_int_oracle_on_generated_polytopes(facets, seed):
    try:
        poly = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_concrete_check_matches_int_oracle(poly, seed)


# -- the integer-row route of decompose, against the per-point route ------
#
# decompose samples canonical rows (num, den) and asks check_decomposition
# for the rows that fail; check_decomposition_at is the per-point route,
# which check_decomposition calls only for those rows.  With a cone
# dropped, at y = 0 the u-polynomials differ at some points whose values
# still agree, so the verdict there is read off the evaluated sides.

def assert_row_route_matches_point_route(poly, seed):
    xi = pc.find_polarizing(poly, seed=seed)
    cones = pc.polarize_cones(poly, xi)
    rows = pc.sample_points(poly, xi, random.Random(seed), 8)
    assert all(den > 0 and gcd(den, *num) == 1 for num, den in rows)
    assert len(set(rows)) == len(rows)
    points = [tuple(Fraction(a, den) for a in num) for num, den in rows]
    assert points == sample_points_oracle(poly, xi, rng=random.Random(seed),
                                          random_count=8)
    for y in (*ORACLE_YS, Fraction(0)):
        w = None if y is None else pc.WeightParam(y)
        for cone_set in (cones, cones[:-1]):
            failures = pc.check_decomposition(poly, cone_set, rows, w)
            want = [pc.check_decomposition_at(poly, cone_set, x, w) for x in points]
            assert failures == [r for r in want if not r.equal], (y, cone_set is cones)
            assert [r.point for r in failures] == [
                x for x in points if not check_oracle(poly, cone_set, x, w).equal]


@pytest.mark.parametrize(
    "poly", [pytest.param(P, id=name) for name, P in decomposition_zoo()]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_row_route_matches_point_route_on_zoo(poly, seed):
    assert_row_route_matches_point_route(poly, seed)


@settings(max_examples=15, deadline=None)
@given(image=zoo_images(), seed=st.sampled_from(SEEDS))
def test_row_route_matches_point_route_on_images(image, seed):
    assert_row_route_matches_point_route(image, seed)


@settings(max_examples=120, deadline=None)
@given(facets=facet_systems(), seed=st.sampled_from(SEEDS))
def test_row_route_matches_point_route_on_generated_polytopes(facets, seed):
    try:
        poly = pc.Polytope(facets)
    except pc.PolytopeError:
        return
    assert_row_route_matches_point_route(poly, seed)


def test_dropped_flipped_cone_is_caught_only_symbolically_at_y_zero():
    """Some u-polynomials differ where the values at y = 0 agree."""
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    cones = pc.polarize_cones(P, xi)
    assert cones[-1].flip_count
    broken = cones[:-1]
    rows = pc.sample_points(P, xi, random.Random(1), 20)
    symbolic = {r.point for r in pc.check_decomposition(P, broken, rows)}
    at_zero = {r.point for r in pc.check_decomposition(P, broken, rows,
                                                       pc.WeightParam(0))}
    assert symbolic - at_zero
    assert at_zero


@pytest.mark.parametrize("y", (None, "0", "2/3", "-5/3"))
@pytest.mark.parametrize("source, build", [
    (("--builtin", "trapezoid"), pc.trapezoid),
    (("--builtin", "cube:3,1"), lambda: pc.hypercube(3, 1)),
    (("--builtin", "prism:1,1"), lambda: pc.prism(1, 1)),
    ((str(DATA_DIR / "halfsquare.json"),),
     lambda: pc.polytope.from_file(DATA_DIR / "halfsquare.json")),
    ((str(DATA_DIR / "triangle-nonregular.json"),),
     lambda: pc.polytope.from_file(DATA_DIR / "triangle-nonregular.json")),
], ids=("trapezoid", "cube3", "prism", "halfsquare", "triangle"))
def test_cli_mismatch_lines_are_the_point_route_lines(capsys, monkeypatch, source,
                                                      build, y):
    polarize = cli.polarize_cones
    monkeypatch.setattr(cli, "polarize_cones", lambda poly, xi: polarize(poly, xi)[:-1])
    extra = () if y is None else (f"--y={y}",)
    code = cli.main(["decompose", *source, "--seed", "2", "--random-points", "30",
                     *extra])
    out = capsys.readouterr().out
    assert code == 1
    got = [ln for ln in out.splitlines() if ln.startswith("MISMATCH")]
    poly = build()
    xi = pc.find_polarizing(poly, seed=2)
    broken = pc.polarize_cones(poly, xi)[:-1]
    w = None if y is None else pc.WeightParam(Fraction(y))
    want = []
    for x in row_points(pc.sample_points(poly, xi, rng=random.Random(2),
                                         random_count=30)):
        res = pc.check_decomposition_at(poly, broken, x, w)
        if not res.equal:
            want.append(f"MISMATCH at {fmt_point(res.point)}: polytope {res.lhs}, "
                        f"cones {res.rhs}")
    assert want and got == want
    assert f"check: FAIL ({len(want)}/" in out

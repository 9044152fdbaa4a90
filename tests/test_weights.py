import random
from fractions import Fraction

import pytest

import polarcount as pc
from polarcount.ypoly import Y, YFrac
from zoo import SEEDS, decomposition_zoo

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
    cones = {c.apex: c for c in pc.polarize_cones(P, (1, 2))}
    x = (0, 0)
    assert pc.cone_weight_y(cones[(0, 0)], x) == YFrac(Y**2, 2)
    assert pc.cone_weight_y(cones[(1, 0)], x) == YFrac(Y, 1)
    assert pc.cone_weight_y(cones[(0, 1)], x) == YFrac(Y, 1)
    assert pc.cone_weight_y(cones[(1, 1)], x) == YFrac(1)
    total = pc.signed_cone_sum_y(list(cones.values()), x)
    assert total == YFrac(1, 2)


def test_cone_face_counts_split_by_flip():
    P = pc.hypercube(2, 1)
    cones = {c.apex: c for c in pc.polarize_cones(P, (1, 2))}
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
        pts = pc.sample_points(P, xi, rng=random.Random(11), random_count=10)
        for res in pc.check_decomposition(P, xi, pts):
            assert res.equal, (name, res.point, str(res.lhs), str(res.rhs))


def test_decomposition_concrete_matches_symbolic():
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    cones = pc.polarize_cones(P, xi)
    pts = pc.sample_points(P, xi, random_count=5)
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
    for x in pc.sample_points(P, xi, random_count=10):
        covering = []
        for cone in cones:
            counts = pc.cone_face_counts(cone, x)
            if counts is not None and counts[1] == 0:
                covering.append(cone)
            weight = pc.cone_weight_y(cone, x)(0)
            assert weight == (1 if counts is not None and counts[1] == 0 else 0)
        signed = sum(c.sign for c in covering)
        assert signed == (1 if P.contains(x) else 0)


def test_sample_points_cover_faces_and_exterior():
    P = pc.trapezoid()
    xi = (1, 2)
    pts = pc.sample_points(P, xi, random_count=0)
    for v in P.vertices:
        assert v.point in pts
    assert len(pts) == len(set(pts))
    exterior = [x for x in pts if not P.contains(x)]
    assert len(exterior) >= 2 * len(P.vertices) - 1
    interior = [x for x in pts if P.face_codim(x) == 0]
    assert interior


def test_check_many_seeds_and_chambers():
    """Signed cone sums agree across polarizations, not just with the lhs."""
    P = pc.dilated_simplex(2, 2)
    xis = [pc.find_polarizing(P, seed=s) for s in SEEDS]
    assert len({xi for xi in xis}) >= 2
    pts = pc.sample_points(P, xis[0], rng=random.Random(3), random_count=10)
    all_cones = [pc.polarize_cones(P, xi) for xi in xis]
    for x in pts:
        sums = {
            str(pc.signed_cone_sum_y(cones, x)) for cones in all_cones
        }
        assert len(sums) == 1, (x, sums)

import dataclasses
import random
from fractions import Fraction

import pytest

import polarcount as pc
from polarcount.linalg import canonical_direction, dot, vadd
from zoo import SEEDS, decomposition_zoo, triangle_nonregular, vertex_points


def test_is_polarizing_on_trapezoid():
    P = pc.trapezoid()
    assert not pc.is_polarizing(P, (1, 1))  # kills the (1, -1) edge
    assert pc.is_polarizing(P, (1, 2))
    assert pc.is_polarizing(P, (-1, -2))


def test_find_polarizing_walks_past_bad_seeds():
    P = pc.trapezoid()
    xi = pc.find_polarizing(P, seed=1)
    # t = 1 gives (1, 1), which pairs to zero with the slanted edge
    assert xi == (1, 2)
    assert pc.find_polarizing(P, seed=7) == (1, 7)
    assert pc.is_polarizing(P, pc.find_polarizing(P, seed=-3))


def test_find_polarizing_stays_on_the_moment_curve():
    """Within the budget some t != 0 always polarizes, even from seeds whose
    window contains t = 0: each edge direction kills at most dim-1 values
    of t and there are at most dim * vertices / 2 directions up to sign."""
    for name, P in decomposition_zoo():
        n = P.dim
        budget = max(8, n * len(P.vertices) * max(1, n - 1) + 1)
        for seed in range(-budget, budget + 1):
            xi = pc.find_polarizing(P, seed=seed)
            t = xi[1] if n > 1 else seed + (seed == 0)
            assert seed <= t < seed + budget and t != 0, (name, seed)
            assert xi == tuple(Fraction(t) ** k for k in range(n)), (name, seed)
            assert pc.is_polarizing(P, xi), (name, seed)


def test_find_polarizing_deterministic():
    P = pc.dilated_simplex(3, 2)
    assert pc.find_polarizing(P, seed=2) == pc.find_polarizing(P, seed=2)


def test_polarize_cones_trapezoid_structure():
    P = pc.trapezoid()
    cones = pc.polarize_cones(P, (1, 2))
    by_apex = dict(zip(vertex_points(P), cones))
    assert by_apex[(0, 0)].flip_count == 2
    assert by_apex[(0, 1)].flip_count == 1
    assert by_apex[(1, 1)].flip_count == 0
    assert by_apex[(2, 0)].flip_count == 1
    assert by_apex[(0, 0)].sign == 1
    assert by_apex[(0, 1)].sign == -1
    # flipped generators are the negated edges
    assert by_apex[(0, 0)].generators == ((-1, 0), (0, -1))
    assert by_apex[(0, 0)].flipped == (True, True)
    assert by_apex[(1, 1)].flipped == (False, False)


def test_zero_pairing_rejected():
    P = pc.trapezoid()
    with pytest.raises(pc.PolarizationError):
        pc.polarize_cones(P, (1, 1))


def test_wrong_length_xi_rejected():
    P = pc.trapezoid()
    for xi in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError) as err:
            pc.polarize_cones(P, xi)
        assert str(err.value) == f"dimension mismatch: 2 vs {len(xi)}"


def test_exactly_one_sink_and_one_source():
    for name, P in decomposition_zoo():
        for seed in SEEDS:
            xi = pc.find_polarizing(P, seed=seed)
            cones = pc.polarize_cones(P, xi)
            flips = [c.flip_count for c in cones]
            assert flips.count(0) == 1, (name, seed)
            assert flips.count(P.dim) == 1, (name, seed)
            # the unflipped cone sits at the xi-maximal vertex, the
            # fully flipped one at the xi-minimal vertex
            # (cones are in vertex order)
            values = [dot(x, xi) for x in vertex_points(P)]
            assert values[flips.index(0)] == max(values)
            assert values[flips.index(P.dim)] == min(values)


def test_membership_is_closed_at_the_apex():
    P = pc.trapezoid()
    for apex, cone in zip(vertex_points(P), pc.polarize_cones(P, (1, 2))):
        coords = pc.cone_membership(cone, apex)
        assert coords == (0,) * P.dim


def test_membership_roundtrip():
    rng = random.Random(5)
    for name, P in decomposition_zoo():
        xi = pc.find_polarizing(P, seed=1)
        for apex, cone in zip(vertex_points(P), pc.polarize_cones(P, xi)):
            for _ in range(5):
                m = tuple(
                    Fraction(rng.randint(0, 12), rng.randint(1, 4))
                    for _ in range(P.dim)
                )
                x = apex
                for mi, g in zip(m, cone.generators):
                    x = vadd(x, tuple(mi * a for a in g))
                assert pc.cone_membership(cone, x) == m, (name, apex)


def test_membership_rejects_outside_points():
    P = pc.hypercube(2, 1)
    cones = pc.polarize_cones(P, (1, 2))
    sink = next(c for c in cones if c.flip_count == 0)
    # sink cone at (1,1) has generators (-1,0),(0,-1); (2,2) lies behind it
    assert pc.cone_membership(sink, (2, 2)) is None


def test_wall_directions_trapezoid():
    P = pc.trapezoid()
    assert set(pc.wall_directions(P)) == {(1, 0), (0, 1), (1, -1)}


def test_crossing_pair_splits_only_its_wall():
    for name, P in (("trapezoid", pc.trapezoid()), ("simplex3", pc.dilated_simplex(3, 1))):
        walls = pc.wall_directions(P)
        for beta in walls:
            lo, hi = pc.crossing_pair(P, beta, seed=4)
            assert pc.is_polarizing(P, lo) and pc.is_polarizing(P, hi)
            assert dot(beta, lo) < 0 < dot(beta, hi)
            for other in walls:
                if other == beta:
                    continue
                s_lo, s_hi = dot(other, lo), dot(other, hi)
                assert s_lo != 0 and s_hi != 0
                assert (s_lo > 0) == (s_hi > 0), (name, beta, other)


def test_crossing_pair_flips_only_parallel_edges():
    P = pc.trapezoid()
    beta = (1, -1)
    lo, hi = pc.crossing_pair(P, beta, seed=0)
    cones_lo = pc.polarize_cones(P, lo)
    cones_hi = pc.polarize_cones(P, hi)
    for clo, chi in zip(cones_lo, cones_hi):
        for k, edge in enumerate(P.vertices[clo.vertex_index].edges):
            parallel = canonical_direction(edge) == beta
            if parallel:
                assert clo.flipped[k] != chi.flipped[k]
            else:
                assert clo.flipped[k] == chi.flipped[k]


def test_nonregular_polytope_still_polarizes():
    P = triangle_nonregular()
    xi = pc.find_polarizing(P, seed=1)
    cones = pc.polarize_cones(P, xi)
    assert sorted(c.flip_count for c in cones) == [0, 1, 2]


@pytest.mark.parametrize("name, P", decomposition_zoo())
def test_sign_is_fixed_from_the_flips(name, P):
    for seed in SEEDS:
        for cone in pc.polarize_cones(P, pc.find_polarizing(P, seed=seed)):
            assert cone.sign == (-1) ** cone.flip_count
            assert "sign" not in repr(cone)
            # a copy with other flips gets its own sign
            flipped = tuple(not f for f in cone.flipped)
            other = dataclasses.replace(cone, flipped=flipped)
            assert other.sign == (-1) ** (P.dim - cone.flip_count)

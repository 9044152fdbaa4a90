"""Shared fixture polytopes for the test suite.

Builders are functions so every test gets a fresh object; identity
checks must never depend on shared mutable state.
"""

from fractions import Fraction

from hypothesis import strategies as st

import polarcount as pc
from polarcount.linalg import primitive

# seeds chosen so the moment-curve walk lands in at least two different
# sign chambers (negative t flips the second coordinate's pairings)
SEEDS = (1, 2, 3, -2, -3)


def vertex_points(poly) -> list[tuple]:
    """Each vertex's point as Fractions, read off Polytope.cleared_vertices."""
    nums, den = poly.cleared_vertices
    return [tuple(Fraction(x, den) for x in num) for num in nums]


def row_points(rows) -> list[tuple]:
    """Each canonical row (num, den) of pc.sample_points as a Fraction point."""
    return [tuple(Fraction(a, den) for a in num) for num, den in rows]


def triangle_nonregular() -> pc.Polytope:
    """(0,0), (2,0), (0,1): simple and integral but not regular."""
    return pc.Polytope([((1, 0), 0), ((0, 1), 0), ((-1, -2), -2)])


def square_half() -> pc.Polytope:
    """[0, 3/2]^2: regular (edge-wise) but not integral."""
    return pc.hypercube(2, Fraction(3, 2))


def regular_zoo() -> list[tuple[str, pc.Polytope]]:
    """Regular integral polytopes: every operation is available."""
    return [
        ("interval1", pc.interval(1)),
        ("interval2", pc.interval(2)),
        ("interval3", pc.interval(3)),
        ("interval4", pc.interval(4)),
        ("square", pc.hypercube(2, 1)),
        ("square3", pc.hypercube(2, 3)),
        ("simplex2", pc.dilated_simplex(2, 1)),
        ("simplex2d2", pc.dilated_simplex(2, 2)),
        ("simplex2d3", pc.dilated_simplex(2, 3)),
        ("simplex3", pc.dilated_simplex(3, 1)),
        ("trapezoid", pc.trapezoid()),
        ("cube3", pc.hypercube(3, 1)),
        ("prism", pc.prism(2, 1)),
    ]


def decomposition_zoo() -> list[tuple[str, pc.Polytope]]:
    """Everything simple: the pointwise decomposition needs no more."""
    return regular_zoo() + [
        ("halfsquare", square_half()),
        ("triangle-nonregular", triangle_nonregular()),
    ]


def brion_zoo() -> list[tuple[str, pc.Polytope]]:
    """The generating-function acceptance set."""
    return [
        ("interval1", pc.interval(1)),
        ("interval2", pc.interval(2)),
        ("interval3", pc.interval(3)),
        ("interval4", pc.interval(4)),
        ("square", pc.hypercube(2, 1)),
        ("cube3", pc.hypercube(3, 1)),
        ("simplex2", pc.dilated_simplex(2, 1)),
        ("simplex2d2", pc.dilated_simplex(2, 2)),
        ("simplex2d3", pc.dilated_simplex(2, 3)),
        ("trapezoid", pc.trapezoid()),
    ]


# -- affine images ----------------------------------------------------


def affine_rows(P, M, shift=None, scales=None):
    """The facet rows of S P + shift, where S is unimodular and M = S^-T
    maps each facet normal.

    Facet <a, x> >= b becomes <Ma, x> >= b + <Ma, shift>, multiplied by a
    positive scale, which leaves the half-space unchanged.
    """
    n = P.dim
    shift = shift or (0,) * n
    scales = scales or (1,) * len(P.facets)
    facets = []
    for f, q in zip(P.facets, scales):
        a = tuple(sum(M[i][j] * f.normal[j] for j in range(n)) for i in range(n))
        b = f.offset + sum(ai * ti for ai, ti in zip(a, shift))
        facets.append((tuple(q * ai for ai in a), q * b))
    return facets


def affine_image(P, M, shift=None, scales=None):
    """S P + shift, as affine_rows describes it."""
    return pc.Polytope(affine_rows(P, M, shift, scales))


SHEARS = {
    2: (((1, 0), (2, 1)), ((1, 2), (0, 1)), ((3, 2), (1, 1))),
    3: (
        ((1, 0, 0), (0, 1, 0), (2, -1, 1)),
        ((1, 0, 2), (0, 1, -1), (0, 0, 1)),
        ((1, 1, 0), (0, 1, 0), (0, -3, 1)),
    ),
}


@st.composite
def unimodular(draw, n):
    """A diagonal of +-1 followed by up to three integer row shears."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        M[i][i] = draw(st.sampled_from((1, -1)))
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.integers(-2, 2))
            M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    return M


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
positive_fractions = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))


def sheared_zoo() -> list[tuple[str, pc.Polytope]]:
    """Each 2-d and 3-d decomposition_zoo member under each of SHEARS."""
    return [
        (f"{name}-shear{k}", affine_image(P, M))
        for name, P in decomposition_zoo()
        for k, M in enumerate(SHEARS.get(P.dim, ()))
    ]


def rational_rows(draw, P):
    """The facet rows of P under a random unimodular map, a rational
    translation and a positive rational scale per facet."""
    M = draw(unimodular(P.dim))
    shift = draw(st.tuples(*[small_fractions] * P.dim))
    scales = draw(st.tuples(*[positive_fractions] * len(P.facets)))
    return affine_rows(P, M, shift, scales)


def rational_image(draw, P):
    """The polytope of rational_rows."""
    return pc.Polytope(rational_rows(draw, P))


@st.composite
def zoo_image_rows(draw):
    """The rational_rows of a decomposition_zoo member: Fraction rows."""
    zoo = dict(decomposition_zoo())
    return rational_rows(draw, zoo[draw(st.sampled_from(sorted(zoo)))])


@st.composite
def zoo_images(draw):
    """A rational_image of a decomposition_zoo member."""
    return pc.Polytope(draw(zoo_image_rows()))


@st.composite
def high_dim_images(draw):
    """A rational_image of cube:{4,5} or simplex:{4,5,6} with its facets
    in a random order, so the walk starts at a random vertex."""
    build, n = draw(st.sampled_from([
        (pc.hypercube, 4), (pc.hypercube, 5),
        (pc.dilated_simplex, 4), (pc.dilated_simplex, 5), (pc.dilated_simplex, 6),
    ]))
    image = rational_image(draw, build(n))
    return pc.Polytope(draw(st.permutations(image.facets)))


# -- generated polytopes ----------------------------------------------


@st.composite
def facet_systems(draw, max_dim=3):
    """n+1 to n+4 facets with distinct primitive normals, 2 <= n <= max_dim,
    so no two define the same half-space; most are rejected, some are
    simple polytopes."""
    n = draw(st.integers(2, max_dim))
    normal = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(primitive)
    normals = draw(st.lists(normal, min_size=n + 1, max_size=n + 4, unique=True))
    offsets = draw(st.lists(st.integers(-3, 0), min_size=len(normals), max_size=len(normals)))
    return [pc.HalfSpace(u, b) for u, b in zip(normals, offsets)]

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarcount.linalg import (
    canonical_direction,
    det,
    dot,
    inverse,
    primitive,
    rank,
    solve_linear,
    vadd,
    vec,
    vsub,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=6
)


def test_vec_coerces_strings_and_ints():
    assert vec([1, "2/3", Fraction(1, 4)]) == (
        Fraction(1),
        Fraction(2, 3),
        Fraction(1, 4),
    )


def test_dot_and_vector_ops():
    u, v = vec([1, 2, 3]), vec([4, -1, 2])
    assert dot(u, v) == 8
    assert vadd(u, v) == (5, 1, 5)
    assert vsub(u, v) == (-3, 3, 1)


def test_dot_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_solve_known_system():
    a = [[2, 1], [1, -1]]
    assert solve_linear(a, [5, 1]) == (2, 1)


def test_solve_singular_returns_none():
    assert solve_linear([[1, 2], [2, 4]], [1, 2]) is None


def test_solve_inconsistent_returns_none():
    # singular AND inconsistent: the rhs column must not donate a pivot
    assert solve_linear([[1, 0], [-1, 0]], [0, -3]) is None
    assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None


def test_det_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2]]) == 2
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0


def test_inverse_roundtrip():
    a = [[2, 1], [1, 1]]
    inv = inverse(a)
    assert inv == ((1, -1), (-1, 2))
    assert inverse([[1, 2], [2, 4]]) is None


def test_rank():
    assert rank([]) == 0
    assert rank([(0, 0)]) == 0
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0), (0, 1)]) == 2


def test_primitive_examples():
    assert primitive((0, -5)) == (0, -1)
    assert primitive((Fraction(2, 3), Fraction(-4, 9))) == (3, -2)
    assert primitive((4, 6)) == (2, 3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_canonical_direction_fixes_sign():
    assert canonical_direction((0, -2)) == (0, 1)
    assert canonical_direction((-3, 6)) == (1, -2)
    assert canonical_direction((3, -6)) == (1, -2)


@given(
    st.lists(rationals, min_size=1, max_size=4),
    st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6),
)
def test_primitive_scale_invariant(entries, scale):
    v = tuple(entries)
    if all(a == 0 for a in v):
        return
    assert primitive(tuple(scale * a for a in v)) == primitive(v)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_undoes_the_matrix(rows):
    inv = inverse(rows)
    if inv is None:
        assert det(rows) == 0
        return
    for j, col in enumerate(zip(*rows)):
        expect = tuple(Fraction(1 if i == j else 0) for i in range(3))
        assert tuple(dot(row, col) for row in inv) == expect


@st.composite
def integer_matrices(draw):
    """Square integer matrices, n <= 6, some with a zero leading pivot."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    if draw(st.booleans()):
        rows[0][0] = 0
    return rows


def leibniz_det(rows):
    """The permutation expansion: sum of sign(p) * prod rows[i][p(i)]."""
    n = len(rows)
    return sum(
        (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        * prod(rows[i][p[i]] for i in range(n))
        for p in permutations(range(n))
    )


@given(integer_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [0, 3, 1], [1, 0, 0]])
@example([[1, 2, 3], [2, 4, 7], [0, 5, 1]])
@example([[1, 2], [2, 4]])
def test_det_matches_permutation_expansion(rows):
    # the examples swap rows at the first pivot, at a later pivot after
    # elimination zeroes it, and leave a singular matrix
    assert det(rows) == leibniz_det(rows)

"""End-to-end acceptance gate.

One test per advertised guarantee, run in order; each prints a single
ACCEPTANCE line on success (visible under pytest -s) and fails loudly
otherwise.  Every comparison is exact: Fraction equality, structural
YFrac equality, or cross-multiplied rational functions.  The budgeted
criteria also assert their wall-clock limits.
"""

import random
import time
from fractions import Fraction

import pytest

import polarcount as pc
from conftest import DATA_DIR
from polarcount.cli import main as cli_main
from polarcount.latticegen import box_points
from polarcount.linalg import canonical_direction, vsub
from zoo import (
    SEEDS, barycenter_oracle, bounding_box_oracle, brion_zoo, regular_zoo,
    triangle_nonregular, vertex_points,
)

ZERO = pc.YFrac(0)


def _cone_delta(after, before, x):
    """Signed-weight change of one vertex's cone across a wall crossing."""
    return after.sign * pc.cone_weight_y(after, x) - (
        before.sign * pc.cone_weight_y(before, x)
    )


def _exterior_probes(poly, want):
    """First `want` lattice points outside poly, from a growing box."""
    margin = 2
    while True:
        lo, hi = poly.integer_box(margin)
        outside = [p for p in box_points(lo, hi) if poly.face_codim(p) is None]
        if len(outside) >= want:
            return outside[:want]
        margin *= 2


def test_criterion_1_series_coefficients(capsys):
    start = time.monotonic()
    code = cli_main(["series", "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "todd coefficients: 1, 1/2, 1/12, 0, -1/720" in out
    expected = (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )
    assert pc.todd_series(4).coeffs == expected
    todd = pc.todd_series(12)
    checks = pc.verify_identities(todd, pc.lhat_series(12), pc.qy_series_cleared(todd))
    assert checks and all(checks.values()), checks
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"budget 1s, took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 1 PASS: todd coefficients 1, 1/2, 1/12, 0, -1/720 and "
        f"{len(checks)} series identities to order 12 ({elapsed:.2f}s)"
    )


def test_criterion_2_pointwise_decomposition():
    start = time.monotonic()
    zoo = regular_zoo()
    assert len(zoo) >= 8 and len(SEEDS) >= 5
    families = {"interval", "square", "simplex2", "simplex3", "trapezoid",
                "cube3", "prism"}
    names = [name for name, _ in zoo]
    assert all(any(n.startswith(f) for n in names) for f in families)
    points_checked = 0
    for name, poly in zoo:
        for seed in SEEDS:
            xi = pc.find_polarizing(poly, seed)
            rng = random.Random(1000 + seed)
            rows = pc.sample_points(poly, xi, rng=rng)
            bad = pc.check_decomposition(poly, pc.polarize_cones(poly, xi), rows)
            assert not bad, (
                f"{name}, seed {seed}: {bad[0].lhs} != {bad[0].rhs} "
                f"at {bad[0].point}"
            )
            points_checked += len(rows)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"budget 30s, took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 2 PASS: symbolic decomposition identity at "
        f"{points_checked} points, {len(zoo)} polytopes x {len(SEEDS)} seeds "
        f"({elapsed:.1f}s)"
    )


def test_criterion_3_polarization_independence():
    pairs_checked = 0
    for name, poly in regular_zoo():
        vectors = []
        for seed in SEEDS:
            xi = pc.find_polarizing(poly, seed)
            if xi not in vectors:
                vectors.append(xi)
        for wall in pc.wall_directions(poly):
            for xi in pc.crossing_pair(poly, wall, seed=0):
                if xi not in vectors:
                    vectors.append(xi)
        # evaluation grid chosen from the polytope alone, never from xi
        points = vertex_points(poly)
        points.append(barycenter_oracle(poly))
        lo, hi = poly.integer_box(1)
        points.extend(box_points(lo, hi))
        rng = random.Random(33)
        for _ in range(5):
            points.append(
                tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(poly.dim)
                )
            )
        all_cones = [pc.polarize_cones(poly, xi) for xi in vectors]
        chambers = {tuple(c.flipped for c in cones) for cones in all_cones}
        assert len(chambers) >= 2, f"{name}: all vectors fell in one chamber"
        reference = [
            pc.signed_cone_sum_y(all_cones[0], x) for x in points
        ]
        for cones in all_cones[1:]:
            for x, expect in zip(points, reference):
                got = pc.signed_cone_sum_y(cones, x)
                assert got == expect, f"{name} at {x}: {got} != {expect}"
            pairs_checked += 1
    print(
        f"ACCEPTANCE 3 PASS: signed cone sums agree across chambers "
        f"({pairs_checked} vector pairs, exact YFrac equality)"
    )


def test_criterion_4_generating_function_identity():
    start = time.monotonic()
    zoo = brion_zoo()
    assert len(zoo) == 10
    for name, poly in zoo:
        report = pc.brion_check(poly)
        assert report.equal, f"{name}: vertex sum differs from lattice sum"
    series_polys = [
        ("interval3", pc.interval(3)),
        ("square", pc.hypercube(2, 1)),
        ("simplex2d2", pc.dilated_simplex(2, 2)),
        ("trapezoid", pc.trapezoid()),
        ("cube3", pc.hypercube(3, 1)),
    ]
    box_checked = 0
    for name, poly in series_polys:
        xi = pc.find_polarizing(poly, 1)
        results = pc.cone_series_check(poly, xi, margin=2)
        bad = [r for r in results if not r.equal]
        assert not bad, f"{name}: cone series wrong at {bad[0].point}"
        box_checked += len(results)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget 120s, took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 4 PASS: cross-multiplied generating-function identity "
        f"on {len(zoo)} polytopes, cone series on {box_checked} box points "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_character_evaluation_and_coefficients():
    zoo = regular_zoo()
    rng = random.Random(5)
    draws = 0
    attempts = 0
    while draws < 100:
        attempts += 1
        assert attempts < 2000, "too many pole rejections"
        _, poly = zoo[rng.randrange(len(zoo))]
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if y == -1:
            continue
        z = tuple(
            Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            for _ in range(poly.dim)
        )
        if any(a == 0 for a in z):
            continue
        try:
            report = pc.chi_y_check(poly, pc.WeightParam(y), z)
        except pc.PoleError:
            continue
        assert report.equal, f"y={y}, z={z}: {report.lhs} != {report.rhs}"
        draws += 1
    interior = 0
    exterior = 0
    for name, poly in zoo:
        xi = pc.find_polarizing(poly, 1)
        for alpha in pc.lattice_points(poly):
            report = pc.multiplicity_check(poly, xi, alpha)
            assert report.equal, (
                f"{name} at {alpha}: extracted {report.extracted}, "
                f"predicted {report.predicted}"
            )
            c = poly.face_codim(alpha)
            assert report.extracted == pc.YFrac(1, c)
            interior += 1
        for alpha in _exterior_probes(poly, 20):
            got = pc.coefficient_extract(poly, xi, alpha)
            assert got == ZERO, f"{name} outside at {alpha}: {got}"
            exterior += 1
    print(
        f"ACCEPTANCE 5 PASS: two-route character evaluation on {draws} "
        f"random draws; coefficients (1/(1+y))^c at {interior} lattice "
        f"points and 0 at {exterior} exterior probes"
    )


def test_criterion_6_specializations():
    w0 = pc.WeightParam(0)
    w1 = pc.WeightParam(1)
    for name, poly in regular_zoo():
        pts = pc.lattice_points(poly)
        assert pc.weighted_count(poly, w0) == len(pts), name
        # independent oracle: face codims read off the polytope directly
        half_sum = sum(
            Fraction(1, 2) ** poly.face_codim(p) for p in pts
        )
        assert pc.weighted_count(poly, w1) == half_sum, name
        # cone route, no face codims anywhere
        xi = pc.find_polarizing(poly, 1)
        cones = pc.polarize_cones(poly, xi)
        lo, hi = poly.integer_box(1)
        cone_sum = sum(
            (pc.signed_cone_sum_y(cones, p)(1) for p in box_points(lo, hi)),
            Fraction(0),
        )
        assert cone_sum == half_sum, name
    for d in range(1, 6):
        tri = pc.dilated_simplex(2, d)
        expected = (d + 1) * (d + 2) // 2
        assert pc.weighted_count(tri, w0) == expected
        assert len(pc.lattice_points(tri)) == expected
    print(
        "ACCEPTANCE 6 PASS: y = 0 counts match brute force, dilated "
        "triangles match (d+1)(d+2)/2 for d = 1..5, y = 1 counts match "
        "the half-weight oracle on both routes"
    )


def test_criterion_7_wall_crossing_cancellation():
    cases = [
        ("trapezoid", pc.trapezoid()),
        ("square", pc.hypercube(2, 1)),
        ("simplex2", pc.dilated_simplex(2, 1)),
        ("simplex2d2", pc.dilated_simplex(2, 2)),
        ("cube3", pc.hypercube(3, 1)),
        ("prism", pc.prism(2, 1)),
    ]
    crossings = 0
    on_edge_points = 0
    off_edge_points = 0
    for name, poly in cases:
        _, hi = bounding_box_oracle(poly)
        far = tuple(h + 1 for h in hi)
        pts = vertex_points(poly)
        for wall in pc.wall_directions(poly):
            xi_minus, xi_plus = pc.crossing_pair(poly, wall, seed=3)
            before = pc.polarize_cones(poly, xi_minus)
            after = pc.polarize_cones(poly, xi_plus)
            pairs = [
                (i, j)
                for i, j in poly.edges()
                if canonical_direction(
                    vsub(pts[j], pts[i])
                )
                == wall
            ]
            assert pairs, f"{name}: wall {wall} is not an edge direction"
            paired = {k for ij in pairs for k in ij}
            changed = {
                k
                for k in range(len(before))
                if before[k].flipped != after[k].flipped
            }
            assert changed == paired, f"{name}, wall {wall}"
            for k in range(len(before)):
                if k not in changed:
                    assert before[k] == after[k]
            for i, j in pairs:
                a, b = pts[i], pts[j]
                mid = tuple((p + q) / 2 for p, q in zip(a, b))
                on_edge = [a, b, mid]
                off_edge = [barycenter_oracle(poly), far]
                for x in on_edge + off_edge:
                    di = _cone_delta(after[i], before[i], x)
                    dj = _cone_delta(after[j], before[j], x)
                    assert di + dj == ZERO, (
                        f"{name}, wall {wall}, pair ({i},{j}) at {x}: "
                        f"{di} + {dj} != 0"
                    )
                on_edge_points += len(on_edge)
                off_edge_points += len(off_edge)
            crossings += 1
    assert crossings >= 10
    assert on_edge_points and off_edge_points
    print(
        f"ACCEPTANCE 7 PASS: paired endpoint cancellation across "
        f"{crossings} wall crossings ({on_edge_points} on-edge and "
        f"{off_edge_points} off-edge evaluations)"
    )


def test_criterion_8_negative_controls(capsys):
    with pytest.raises(pc.NonSimpleError):
        pc.from_file(DATA_DIR / "octahedron.json")
    tri = triangle_nonregular()
    gated = [
        lambda: pc.weighted_count_y(tri),
        lambda: pc.weighted_count(tri, pc.WeightParam(0)),
        lambda: pc.brion_check(tri),
        lambda: pc.vertex_genfun(tri, 0),
        lambda: pc.chi_y_check(tri, pc.WeightParam(1), (2, 3)),
        lambda: pc.coefficient_extract(tri, (1, 2), (0, 0)),
        lambda: pc.multiplicity(tri, (0, 0)),
    ]
    for op in gated:
        with pytest.raises(pc.HypothesisError) as excinfo:
            op()
        assert "regular" in str(excinfo.value)
    with pytest.raises(ValueError):
        pc.WeightParam(-1)
    with pytest.raises(ZeroDivisionError):
        pc.YFrac(1, 1)(-1)
    with pytest.raises(ValueError):
        pc.qy_series(-1, pc.todd_series(4))
    with pytest.raises(ValueError):
        pc.hirzebruch_series(-1, pc.todd_series(4))
    assert cli_main(["count", "--builtin", "cube:2", "--y", "-1"]) == 2
    assert cli_main(["decompose", "--builtin", "cube:2", "--y", "-1"]) == 2
    assert cli_main(["series", "--y", "-1"]) == 2
    assert cli_main(["chi", "--builtin", "cube:2", "--y", "-1", "--z", "2,3"]) == 2
    assert cli_main(["count", str(DATA_DIR / "octahedron.json")]) == 2
    err = capsys.readouterr().err
    assert "simple" in err
    print(
        "ACCEPTANCE 8 PASS: octahedron rejected as non-simple, non-regular "
        "triangle refused by every gated operation, y = -1 rejected "
        "everywhere"
    )

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import polarcount
from conftest import DATA_DIR
from polarcount import latticegen
from polarcount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_vertices_builtin_square(capsys):
    code, out, err = run(capsys, "vertices", "--builtin", "cube:2")
    assert code == 0
    assert "command: vertices" in out
    assert "polytope: dim 2, 4 facets, 4 vertices, regular, integral" in out
    assert "vertex 0: (0, 0)" in out
    assert "edges [(1, 0), (0, 1)]" in out
    assert "elapsed:" in err


def test_vertices_from_file(capsys):
    code, out, _ = run(capsys, "vertices", str(DATA_DIR / "trapezoid.json"))
    assert code == 0
    assert "4 vertices" in out


def test_decompose_symbolic_pass(capsys):
    code, out, _ = run(capsys, "decompose", "--builtin", "trapezoid")
    assert code == 0
    assert "xi: (1, 2)" in out
    assert "flips 2, sign +" in out
    assert "check: PASS" in out
    assert "symbolically in y" in out


def test_decompose_concrete_y(capsys):
    code, out, _ = run(capsys, "decompose", "--builtin", "cube:3", "--y", "2/3")
    assert code == 0
    assert "at y = 2/3" in out
    assert "check: PASS" in out


def test_decompose_rejects_minus_one(capsys):
    code, out, err = run(capsys, "decompose", "--builtin", "cube:2", "--y", "-1")
    assert code == 2
    assert "y = -1" in err


def test_count_symbolic(capsys):
    code, out, _ = run(capsys, "count", "--builtin", "simplex:2,4")
    assert code == 0
    assert "lattice points: 15" in out
    assert "weighted count: 3 + 9/(1+y) + 3/(1+y)^2" in out
    assert "reduced: (3*y^2 + 15*y + 15)/(1+y)^2" in out


def test_count_concrete(capsys):
    code, out, _ = run(capsys, "count", "--builtin", "simplex:2,4", "--y", "1")
    assert code == 0
    assert "weighted count at y = 1: 33/4" in out
    code, out, _ = run(
        capsys, "count", "--builtin", "simplex:2,4", "--y", "1", "--decimal", "3"
    )
    assert "33/4 (~8.250)" in out


@pytest.mark.parametrize("places", ["3", "0", "-1"])
def test_count_decimal_needs_y(capsys, places):
    code, out, err = run(
        capsys, "count", "--builtin", "cube:2", "--decimal", places
    )
    assert code == 2
    assert out == "command: count\n"
    assert err.splitlines()[0] == "error: --decimal needs --y"


def test_count_rejects_nonregular(capsys):
    code, out, err = run(
        capsys, "count", str(DATA_DIR / "triangle-nonregular.json")
    )
    assert code == 2
    assert "regular" in err


def test_count_rejects_nonintegral(capsys):
    code, out, err = run(capsys, "count", str(DATA_DIR / "halfsquare.json"))
    assert code == 2
    assert "integral" in err


def test_chi_pass(capsys):
    code, out, _ = run(
        capsys, "chi", "--builtin", "cube:2", "--y", "1", "--z", "2,3"
    )
    assert code == 0
    assert "vertex sum:  3" in out
    assert "lattice sum: 3" in out
    assert "check: PASS" in out


def test_chi_pole_rejected(capsys):
    code, out, err = run(
        capsys, "chi", "--builtin", "cube:2", "--y", "1", "--z", "1,5"
    )
    assert code == 2
    assert "pole" in err


def test_chi_bad_z_length(capsys):
    code, out, err = run(
        capsys, "chi", "--builtin", "cube:2", "--y", "1", "--z", "2"
    )
    assert code == 2
    assert "--z needs 2" in err


def test_chi_zero_z_rejected(capsys):
    code, out, err = run(
        capsys, "chi", "--builtin", "cube:2", "--y", "1", "--z", "0,3"
    )
    assert code == 2
    assert out == "command: chi\n"
    assert "nonzero" in err


def test_chi_malformed_z_rejected_before_loading(capsys):
    code, out, err = run(
        capsys, "chi", "--builtin", "cube:2", "--y", "1", "--z", "abc,1"
    )
    assert code == 2
    assert out == "command: chi\n"
    assert "z coordinate: 'abc' is not a rational number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--builtin", "simplex:2,4"),
        ("count", "--builtin", "simplex:2,4", "--y", "1/2"),
        ("chi", "--builtin", "cube:2", "--y", "1", "--z", "2,3"),
        ("brion", "--builtin", "trapezoid"),
    ],
)
def test_one_lattice_enumeration_per_command(capsys, monkeypatch, argv):
    calls = []
    enumerate_box = latticegen.lattice_points

    def counted(poly):
        calls.append(poly)
        return enumerate_box(poly)

    monkeypatch.setattr(latticegen, "lattice_points", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_brion_pass(capsys):
    code, out, _ = run(capsys, "brion", "--builtin", "trapezoid")
    assert code == 0
    assert "vertex terms: 4" in out
    assert "check: PASS" in out


def test_brion_rejects_nonregular(capsys):
    code, out, err = run(
        capsys, "brion", str(DATA_DIR / "triangle-nonregular.json")
    )
    assert code == 2
    assert "regular" in err


_BRION_FROZEN = {
    "cube:2,2": (
        "command: brion\n"
        "input: builtin cube:2,2 (sha256 92eef762ae4d)\n"
        "polytope: dim 2, 4 facets, 4 vertices, regular, integral\n"
        "vertex terms: 4\n"
        "weighted lattice sum: (1 + (y + 1)*z2 + z2^2 + (y + 1)*z1 "
        "+ (y^2 + 2*y + 1)*z1*z2 + (y + 1)*z1*z2^2 + z1^2 + (y + 1)*z1^2*z2 "
        "+ z1^2*z2^2) / (1+y)^2\n"
        "check: PASS (cross-multiplied equality of both routes)\n"
    ),
    "trapezoid": (
        "command: brion\n"
        "input: builtin trapezoid (sha256 82eda434d6d2)\n"
        "polytope: dim 2, 4 facets, 4 vertices, regular, integral\n"
        "vertex terms: 4\n"
        "weighted lattice sum: (1 + z2 + (y + 1)*z1 + z1*z2 + z1^2) / (1+y)^2\n"
        "check: PASS (cross-multiplied equality of both routes)\n"
    ),
    # larger outputs are pinned by the sha256 of the whole stdout
    "interval:3": "655b9feb4419064532599552aa6e5bdda41dbd3d111ec1812ad59a134c8455f0",
    "simplex:2,8": "578293e83e85cde312ebeafc407478429e9775818520a12b92d5f63e24e2ede5",
    "cube:3,2": "72f2ee91dfa6ae9a352c9f0b7f9d39fd83ac9c488655bf65ec4be9cb06aca18b",
    "simplex:3,4": "5e59ae3054ca476e1ce57d5d570e3b9c462cfc067adcc8229cf29cc0b26ed0ed",
    "prism": "a21aad7f2a336655af704534702a6b078c6e0a925021537498a928e3f5917729",
}


@pytest.mark.parametrize("spec", sorted(_BRION_FROZEN))
def test_brion_frozen_output(capsys, spec):
    code, out, _ = run(capsys, "brion", "--builtin", spec)
    assert code == 0
    expected = _BRION_FROZEN[spec]
    if not expected.startswith("command: "):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


def test_series_frozen_output(capsys):
    code, out, _ = run(capsys, "series", "--order", "4")
    assert code == 0
    assert "todd coefficients: 1, 1/2, 1/12, 0, -1/720" in out
    assert "half-angle coefficients: 1, 0, 1/12, 0, -1/720" in out
    assert (
        "family*(1+y): (y + 1) + (-1/2*y + 1/2)*x + (1/12*y + 1/12)*x^2 "
        "+ (-1/720*y - 1/720)*x^4\n"
    ) in out
    assert "check: PASS" in out


# sha256 of the whole stdout at the order the benchmark runs; Todd's
# denominators there reach 53 digits, so this pins the exact rational
# arithmetic and its printing far past the order-4 text above
_SERIES_ORDER_40_SHA256 = {
    (): "39bb5e420ccbde68bd737ec971a2f3df941071342270ea68072fd1c9fc1495bc",
    ("--y", "1/2"): "ad6220be2a37e2c738f01430367f294c1240997f432a75364e0cc3f6283240fd",
}


@pytest.mark.parametrize("extra", sorted(_SERIES_ORDER_40_SHA256))
def test_series_frozen_output_at_order_forty(capsys, extra):
    code, out, _ = run(capsys, "series", "--order", "40", *extra)
    assert code == 0
    assert out.endswith("check: PASS (9/9 identities)\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _SERIES_ORDER_40_SHA256[extra]


# sha256 of the whole stdout of decompose and svg runs, covering the
# fractional apexes of halfsquare and the determinant-2 cone of
# triangle-nonregular; files are named relative to the repository root
# so the input line does not depend on the checkout's location
_CONES_FROZEN_SHA256 = {
    ("decompose", "--builtin", "cube:3,1"):
        "da03d9b3292c8f9c649dea9b62afbe3d5ac28c8210e384db2863fdc092832299",
    ("decompose", "--builtin", "simplex:3,2", "--seed", "3"):
        "8eb2896fdce602b1c781c88e572808b5f3290661fae9a648390fe117aa1a8c12",
    ("decompose", "--builtin", "cube:4,1", "--y", "2/3"):
        "4354f0d26fb9d15ac6b1bbffe9ae3ff41f781a909b0121144149578f9469cb86",
    ("decompose", "polytopes/halfsquare.json"):
        "8876af046eaf84c8f595a1c05cc95ad08182b17912a5edaffa0034baed814476",
    ("decompose", "polytopes/triangle-nonregular.json"):
        "dc6f500e0544bda334cf52493752c141491c6f45e585136fa4776194072505e9",
    ("svg", "--builtin", "trapezoid"):
        "ea34463f72ef507235ea14296a59a0fe56e817e2bf5c38c9aeed0191b38c6359",
    ("svg", "--builtin", "cube:2,3", "--margin", "4"):
        "dd632f4744aed7011b696ab988d60239230a30ccb8fdad07997cae8ad35aab95",
    ("svg", "polytopes/halfsquare.json"):
        "ee6ddfc35da1161e16c9b52c1fc8852b313bdfc5372c6a5ca3ad65ffe207387f",
}


@pytest.mark.parametrize("argv", sorted(_CONES_FROZEN_SHA256), ids=" ".join)
def test_cones_frozen_output(capsys, monkeypatch, argv):
    monkeypatch.chdir(DATA_DIR.parent)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _CONES_FROZEN_SHA256[argv]


# sha256 of the whole stdout of vertices: points, active facets, edge
# directions and the regular/integral flags of every construction route,
# including the fractional vertices of cube:3,1/2 and halfsquare and the
# rejected octahedron (exit 2, stdout only the command line)
_VERTICES_FROZEN_SHA256 = {
    "cube:4": "044a3b85a0855a7effaf05ecf77ff4c2f9d17119c3db1734acefa8a5b341c3c1",
    "cube:5": "490776b922346c6bb255d9d3a8f93ccdc311f38ef6e91ed947e8c9e7e29a6871",
    "cube:6": "23fa93a9bb9a14ff3494628549b402261a26c27e40291e75f544723f2cb154bd",
    "simplex:5": "a93e1b973e2111f6cba11af8fe796c8726d3b70733a00df45d29f0c116b0c2af",
    "simplex:6": "5cc57a77ec1dabeaabd86d7c28321cf710b2294ea7d33239d7dad221936d0303",
    "simplex:8": "600ef57fcb8d4d2d23335ff892a06acd6e7c4c5a34c14fe109b7594c676a558f",
    "prism": "69de4dbad848f3ccf7838bb564697704105b0b49cc8aa4f63b22683108373ff4",
    "trapezoid": "256b8c775dd8f27b0f4483ecee0f59831c6f881a32e75f8754930a555eec25db",
    "cube:3,1/2": "a47d0eebbb0439af6fa136d54d6c92533aa5cca9c5ade3e7db960825060da523",
    "polytopes/halfsquare.json":
        "7870cf6fe7106154c30904e33928b2aa804ea9703fc7f392f4f235bc60459ae9",
    "polytopes/octahedron.json":
        "9d15f95b24650b4296343460ce4854f76e89f9071bf6b48c16683a8246b30a31",
    "polytopes/square.json":
        "218c5db3d9884f56e4851af036602f740e5ed2149b8db62f15c23f0d2f2bebe9",
    "polytopes/trapezoid.json":
        "abe3737d49d3c292d624c0d45c7dfafa7f6b49c0cefae98c2125560a03c5a469",
    "polytopes/triangle-nonregular.json":
        "62484e1c94e655757a7aff7dba15f1a9855754c80fd396c63cf6fbe6a68a4b09",
}


def test_vertices_frozen_table_covers_every_polytope_file():
    files = {f"polytopes/{p.name}" for p in DATA_DIR.glob("*.json")}
    assert files == {k for k in _VERTICES_FROZEN_SHA256 if k.endswith(".json")}


@pytest.mark.parametrize("spec", sorted(_VERTICES_FROZEN_SHA256))
def test_vertices_frozen_output(capsys, monkeypatch, spec):
    monkeypatch.chdir(DATA_DIR.parent)
    argv = (spec,) if spec.endswith(".json") else ("--builtin", spec)
    code, out, _ = run(capsys, "vertices", *argv)
    assert code == (2 if spec == "polytopes/octahedron.json" else 0)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _VERTICES_FROZEN_SHA256[spec]


@pytest.mark.parametrize(
    "facets, reason",
    [
        (None, "vertex (-1, 0, 0) lies on 4 facets (indices [0, 1, 2, 3]); "
               "a simple 3-polytope allows exactly 3"),
        ([[1, 0, 0], [0, 1, 0], [1, 2, -1]],
         "edge at vertex (0, 0) along (1, 0) never leaves the feasible region"),
        ([[1, 1], [-1, 0]],
         "inequality system has no vertices: the region is empty or "
         "unbounded with no corner"),
        ([[1, 0, 0], [0, 1, 0], [-1, 0, -1], [0, -1, -1], [1, 0, -1]],
         "facet 4 touches no vertex; the inequality is redundant"),
    ],
    ids=["non-simple", "unbounded", "empty", "redundant"],
)
def test_construction_rejections_frozen(capsys, tmp_path, facets, reason):
    if facets is None:
        path = DATA_DIR / "octahedron.json"
    else:
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"dim": len(facets[0]) - 1, "facets": facets}))
    code, out, err = run(capsys, "vertices", str(path))
    assert code == 2
    assert out == "command: vertices\n"
    assert err.splitlines()[0] == f"error: {reason}"


def test_series_concrete_y(capsys):
    code, out, _ = run(capsys, "series", "--order", "4", "--y", "1")
    assert code == 0
    assert "family at y = 1:" in out


def test_series_rejects_minus_one(capsys):
    code, _, err = run(capsys, "series", "--y", "-1")
    assert code == 2
    assert "y = -1" in err


@pytest.mark.parametrize(
    "order, y, reason",
    [("2", "-1", "y = -1"), ("3", "1/0", "not a rational number")],
)
def test_series_rejects_bad_y_before_output(capsys, order, y, reason):
    code, out, err = run(capsys, "series", "--order", order, "--y", y)
    assert code == 2
    assert out == "command: series\n"
    assert reason in err.splitlines()[0]


def test_svg_stdout(capsys):
    code, out, _ = run(capsys, "svg", "--builtin", "trapezoid")
    assert code == 0
    assert out.startswith("<svg")
    ET.fromstring(out)  # well-formed XML


def test_svg_to_file(capsys, tmp_path):
    target = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys, "svg", "--builtin", "cube:2", "--y", "1/2", "--out", str(target)
    )
    assert code == 0
    assert f"wrote {target}" in out
    text = target.read_text()
    assert text.startswith("<svg")
    assert "y = 1/2" in text  # legend carries the chosen weight
    assert "4/9" in text  # corner weight label: (2/3)^2
    ET.fromstring(text)


def test_svg_unwritable_out_rejected(capsys, tmp_path):
    target = tmp_path / "missing" / "fig.svg"
    code, out, err = run(capsys, "svg", "--builtin", "cube:2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.splitlines()[0].startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "argv, expected_out, message",
    [
        (("count", "--builtin", "cube:2", "--y", "1/2", "--decimal", "-1"),
         "command: count\n", "--decimal must be nonnegative"),
        (("chi", "--builtin", "cube:2", "--y", "1/2", "--z", "2,3",
          "--decimal", "-2"), "command: chi\n", "--decimal must be nonnegative"),
        (("svg", "--builtin", "cube:2", "--margin", "-3"), "",
         "--margin must be nonnegative"),
        (("decompose", "--builtin", "cube:2", "--random-points", "-3"),
         "command: decompose\n", "--random-points must be nonnegative"),
        (("count", "--builtin", "cube:2,2", "--y", "abc"), "command: count\n",
         "weight parameter y: 'abc' is not a rational number"),
        (("count", "--builtin", "cube:2,2", "--y", "-1"), "command: count\n",
         "weight parameter y = -1 is excluded: weights carry 1/(1+y)"),
        (("decompose", "--builtin", "cube:2", "--y", "-1"),
         "command: decompose\n",
         "weight parameter y = -1 is excluded: weights carry 1/(1+y)"),
    ],
    ids=["count-decimal", "chi-decimal", "svg-margin", "decompose-random-points",
         "count-y-abc", "count-y-minus-one", "decompose-y-minus-one"],
)
def test_negative_counts_rejected(capsys, argv, expected_out, message):
    """Bad options exit 2 before the polytope is loaded or anything printed."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == expected_out
    assert err.splitlines()[0] == f"error: {message}"


def test_svg_rejects_3d(capsys):
    code, _, err = run(capsys, "svg", "--builtin", "cube:3")
    assert code == 2
    assert "2-dimensional" in err


def test_octahedron_rejected(capsys):
    code, _, err = run(capsys, "count", str(DATA_DIR / "octahedron.json"))
    assert code == 2
    assert "simple" in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "vertices", "--builtin", "dodecahedron")
    assert code == 2
    assert "unknown builtin" in err


def test_builtin_bad_params(capsys):
    code, _, err = run(capsys, "vertices", "--builtin", "cube:x")
    assert code == 2
    code, _, err = run(capsys, "vertices", "--builtin", "interval")
    assert code == 2


_INTERVAL_USAGE = "interval takes exactly one parameter: interval:LEN"
_CUBE_USAGE = "cube takes one or two parameters: cube:N[,SIDE]"
_SIMPLEX_USAGE = "simplex takes one or two parameters: simplex:N[,DILATION]"
_TRAPEZOID_USAGE = (
    "trapezoid takes zero or two parameters: trapezoid[:WIDTH,HEIGHT]"
)
_PRISM_USAGE = "prism takes zero or two parameters: prism[:DILATION,HEIGHT]"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("interval", _INTERVAL_USAGE),
        ("interval:1,2", _INTERVAL_USAGE),
        ("interval:x", "interval length: 'x' is not a rational number"),
        ("cube", _CUBE_USAGE),
        ("cube:2,1,1", _CUBE_USAGE),
        ("cube:x", "cube dimension: 'x' is not an integer"),
        ("cube:2,s", "cube side: 's' is not a rational number"),
        ("simplex", _SIMPLEX_USAGE),
        ("simplex:2,1,1", _SIMPLEX_USAGE),
        ("simplex:1/2", "simplex dimension: '1/2' is not an integer"),
        ("simplex:2,d", "simplex dilation: 'd' is not a rational number"),
        ("trapezoid:3", _TRAPEZOID_USAGE),
        ("trapezoid:3,1,1", _TRAPEZOID_USAGE),
        ("trapezoid:w,1", "trapezoid width: 'w' is not a rational number"),
        ("trapezoid:3,h", "trapezoid height: 'h' is not a rational number"),
        ("prism:2", _PRISM_USAGE),
        ("prism:2,1,1", _PRISM_USAGE),
        ("prism:a,1", "prism dilation: 'a' is not a rational number"),
        ("prism:2,h", "prism height: 'h' is not a rational number"),
        ("dodecahedron", "unknown builtin 'dodecahedron'; builtin polytope: "
         "interval:LEN, cube:N[,SIDE], simplex:N[,DILATION], "
         "trapezoid[:WIDTH,HEIGHT], prism[:DILATION,HEIGHT]"),
    ],
)
def test_builtin_parse_errors(capsys, spec, message):
    code, out, err = run(capsys, "vertices", "--builtin", spec)
    assert code == 2
    assert out == "command: vertices\n"
    assert err.splitlines()[0] == f"error: {message}"


@pytest.mark.parametrize(
    "spec, described",
    [
        ("interval:3", "dim 1, 2 facets, 2 vertices"),
        ("cube:2", "dim 2, 4 facets, 4 vertices"),
        ("cube:3,2", "dim 3, 6 facets, 8 vertices"),
        ("simplex:2", "dim 2, 3 facets, 3 vertices"),
        ("simplex:3,2", "dim 3, 4 facets, 4 vertices"),
        ("trapezoid", "dim 2, 4 facets, 4 vertices"),
        ("trapezoid:3,1", "dim 2, 4 facets, 4 vertices"),
        ("prism", "dim 3, 5 facets, 6 vertices"),
        ("prism:2,1", "dim 3, 5 facets, 6 vertices"),
    ],
)
def test_builtin_accepted_arities(capsys, spec, described):
    code, out, _ = run(capsys, "vertices", "--builtin", spec)
    assert code == 0
    assert f"polytope: {described}, regular, integral" in out


def test_missing_input(capsys):
    code, _, err = run(capsys, "vertices")
    assert code == 2
    assert "no polytope given" in err


def test_both_inputs_rejected(capsys):
    code, _, err = run(
        capsys, "vertices", str(DATA_DIR / "square.json"), "--builtin", "cube:2"
    )
    assert code == 2
    assert "not both" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "vertices", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_bad_file_contents(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "facets": [[0.5, 0, 0]]}')
    code, _, err = run(capsys, "vertices", str(path))
    assert code == 2
    assert "floating-point" in err


def test_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "decompose", "--builtin", "trapezoid", "--seed", "2")
    _, second, _ = run(capsys, "decompose", "--builtin", "trapezoid", "--seed", "2")
    assert first == second


def test_repeated_main_calls_match_fresh_processes(capsys):
    # main shares one parser across calls; no option may carry over from
    # one call to the next, so each run must print what a fresh
    # interpreter prints for the same arguments
    runs = [
        ("count", "--builtin", "cube:2", "--y", "1/2", "--decimal", "3"),
        ("count", "--builtin", "cube:2"),
        ("decompose", "--builtin", "trapezoid", "--seed", "2", "--y", "1/3",
         "--random-points", "3"),
        ("decompose", "--builtin", "trapezoid"),
        ("svg", "--builtin", "trapezoid", "--margin", "0", "--y", "2"),
        ("svg", "--builtin", "trapezoid"),
        ("series", "--order", "3", "--y", "1/2"),
        ("series",),
    ]
    in_process = [run(capsys, *argv)[:2] for argv in runs]
    env = {**os.environ, "PYTHONPATH": str(Path(polarcount.__file__).parents[1])}
    for argv, (code, out) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "polarcount.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_svg_mentions_command_only_in_file_mode(capsys):
    code, out, _ = run(capsys, "svg", "--builtin", "trapezoid")
    assert "command:" not in out

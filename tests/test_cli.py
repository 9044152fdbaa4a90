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
    walk = latticegen.lattice_rows

    def counted(poly):
        calls.append(poly)
        return walk(poly)

    monkeypatch.setattr(latticegen, "lattice_rows", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--builtin", "simplex:2,4"),
        ("count", "--builtin", "simplex:2,4", "--y", "1/2"),
        ("chi", "--builtin", "cube:2", "--y", "1", "--z", "2,3"),
    ],
)
def test_count_and_chi_build_no_point_dict(capsys, monkeypatch, argv):
    def refused(poly):
        raise AssertionError("lattice_points called")

    monkeypatch.setattr(latticegen, "lattice_points", refused)
    code, _, _ = run(capsys, *argv)
    assert code == 0


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
    "simplex:2,32": "377fda60391d4109a30c87654d0554bef605d003e31d191a519228167ad2d453",
    "cube4-2-sheared.json": "afc1840dcccbbfe4a9ba30c6cf47b2c3d7a8f5cea15245b342ca6843c54728bd",
}

# inputs of _BRION_FROZEN given as files: cube:4,2 under the unit
# shears x1 -= x2, then x2 += x3, then x3 -= x4, whose vertices and
# lattice points have negative coordinates; the file is written to the
# working directory, so the path printed on the input line does not vary
_BRION_FILES = {
    "cube4-2-sheared.json": {"dim": 4, "facets": [
        [1, 1, -1, -1, 0], [-1, -1, 1, 1, -2], [0, 1, -1, -1, 0],
        [0, -1, 1, 1, -2], [0, 0, 1, 1, 0], [0, 0, -1, -1, -2],
        [0, 0, 0, 1, 0], [0, 0, 0, -1, -2],
    ]},
}


@pytest.mark.parametrize("spec", sorted(_BRION_FROZEN))
def test_brion_frozen_output(capsys, tmp_path, monkeypatch, spec):
    source = ["--builtin", spec]
    if spec in _BRION_FILES:
        monkeypatch.chdir(tmp_path)
        (tmp_path / spec).write_text(json.dumps(_BRION_FILES[spec]) + "\n")
        source = [spec]
    code, out, _ = run(capsys, "brion", *source)
    assert code == 0
    expected = _BRION_FROZEN[spec]
    if not expected.startswith("command: "):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


# (exit code, sha256 of the whole stdout, first stderr line or None) of
# chi runs: the lattice ladder's rungs and the sheared cube4-2 file of
# _BRION_FILES, at +-p/q z of distinct primes, y on both sides of -1,
# one --decimal run and the pole at z^(1,0) = 1
_CHI_FROZEN_SHA256 = {
    ("--builtin", "simplex:2,45", "--y", "2/3", "--z=-2/3,5/7"): (
        0, "f6edd783553c76198fb6896b2d7167e53e4a637d33ea266c19960bfa604038bd", None),
    ("--builtin", "simplex:3,12", "--y=-5/3", "--z=2/3,-5/7,11/13"): (
        0, "79d5278aae123946a99873966bbd206935a55ba0d517f5ff3cfcf23b609aa02c", None),
    ("--builtin", "cube:3,6", "--y", "0", "--z=-2/3,5/7,-11/13"): (
        0, "50de254b0b273195cdafe17189aa776a94729978354c985416004c9f8e6008c5", None),
    ("--builtin", "cube:3,6", "--y", "2/3", "--z=-2/3,5/7,-11/13",
     "--decimal", "12"): (
        0, "9f5e162f71fcc2e02c3d8338c648430be07c926859f17240a1cfe7141cb417be", None),
    ("--builtin", "prism:8,3", "--y", "3", "--z=2/3,-5/7,-11/13"): (
        0, "56108613c4f162e9b4105e8eeb8e4d31b23be0a82b16b3ff30c6ce79f2afcaf0", None),
    ("--builtin", "cube:6,1", "--y", "2/3",
     "--z=2/3,-5/7,11/13,-17/19,23/29,-31/37"): (
        0, "005d9b2ae834fd061e98c351f720350ad2d014168cfc5f6b15ac52f8bb7e97a7", None),
    ("cube4-2-sheared.json", "--y=-5/3", "--z=-2/3,5/7,-11/13,17/19"): (
        0, "0dcbfa78a9a5b4554685c5b5160b1cae8f0e1cfabe8f82e7b4fd7753be2699fa", None),
    ("--builtin", "cube:2", "--y", "1", "--z", "1,5"): (
        2, "eda1ab2e1702b6608c900fb9731f21a32f8a0b5040b3b024245075fb829f5a38",
        "z^(1, 0) = 1 at vertex (0, 0): the point lies on a pole; perturb z"),
}


@pytest.mark.parametrize("args", sorted(_CHI_FROZEN_SHA256), ids=" ".join)
def test_chi_frozen_output(capsys, tmp_path, monkeypatch, args):
    if args[0] in _BRION_FILES:
        monkeypatch.chdir(tmp_path)
        (tmp_path / args[0]).write_text(json.dumps(_BRION_FILES[args[0]]) + "\n")
    code, out, err = run(capsys, "chi", *args)
    digest = hashlib.sha256(out.encode()).hexdigest()
    expected_code, expected_digest, error = _CHI_FROZEN_SHA256[args]
    assert (code, digest) == (expected_code, expected_digest)
    if error is not None:
        assert err.splitlines()[0] == f"error: {error}"


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


# sha256 of the whole stdout at the lowest orders, where the series are
# shortest: the family's x term (the one that differs between Todd and
# Todd * e^-x) first appears at order 1
_SERIES_LOW_ORDER_SHA256 = {
    ("0",): "e9fe82e55fff8eff5e9d5f966b301eba3880a5b46203f1e87a80632d30d048af",
    ("0", "--y", "3"): "ac68576e995c318f3dbe0ac2078320f354dbc7edd5eeb14799f7dda0740ccd30",
    ("1",): "f702996939a62da154c299b5bc5c26bd1a29eb081478f881459d987c0c73ee1f",
    ("1", "--y", "3"): "6fc531b5c5ddfb7a83f8e8f111390fc59f052aef692965b4070fe2e226554feb",
    ("2",): "dc758c1bebdd71228c90dfa4c62603e274e246b497aa78859a7146bc98b726f3",
    ("2", "--y", "3"): "c0b48358db309bf001b43196f3aea93ab1904b362945b2e343db23b387f78185",
}


@pytest.mark.parametrize("args", sorted(_SERIES_LOW_ORDER_SHA256), ids=" ".join)
def test_series_frozen_output_at_low_orders(capsys, args):
    code, out, _ = run(capsys, "series", "--order", *args)
    assert code == 0
    assert out.endswith("check: PASS (9/9 identities)\n")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _SERIES_LOW_ORDER_SHA256[args]


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
    ("svg", "--builtin", "cube:2,3", "--y", "3/4"):
        "20f99ed12395cb956e095ac7368f79c38fe084a239686e50dca3bf41c93ee3a1",
    ("svg", "polytopes/halfsquare.json", "--y=-1/2"):
        "ca638a95cb6e0d4c33e9de20894933bef0cc2cb67888b4a13a6f1ff93634cb64",
    ("decompose", "--builtin", "prism:1,1", "--y=-5/3", "--random-points", "40"):
        "fbdc63538b674ebb1b2dade7cd2cbb5f467d0ccc858f1dfaf7b0bf2e7f8669e9",
}


@pytest.mark.parametrize("argv", sorted(_CONES_FROZEN_SHA256), ids=" ".join)
def test_cones_frozen_output(capsys, monkeypatch, argv):
    monkeypatch.chdir(DATA_DIR.parent)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _CONES_FROZEN_SHA256[argv]


# the benchmark's sheared images of simplex:2,3 and cube:2,3 (geometry
# workload, seed 1), whose vertices and wedge apexes sit off the axes;
# written to the working directory as _BRION_FILES are
_SVG_FILES = {
    "simplex2-3-sheared.json": {"dim": 2, "facets": [
        [1, 1, 0], [0, 1, 0], [-1, -2, -3],
    ]},
    "cube2-3-sheared.json": {"dim": 2, "facets": [
        [1, 1, 0], [-1, -1, -3], [0, 1, 0], [0, -1, -3],
    ]},
}

# sha256 of the whole stdout of svg runs: the sheared images, margin 0
# (wedges clipped close to the outline), the fractional vertices of
# trapezoid:7/2,3/2, cube:2,1/2 and halfsquare, seeds 2 and 3 and
# labels at y = 5 and y = -2/3
_SVG_FROZEN_SHA256 = {
    ("simplex2-3-sheared.json", "--seed", "2", "--y=-2/3"):
        "5c5c5ab29aa31602389d91d19d96d359f292e2b6c93913f073d54d4c269e3f3f",
    ("simplex2-3-sheared.json", "--margin", "0"):
        "3db3dadae3018566eef9c98cfad8305d7d404b6f042ef2cbd1d8618c34465f0b",
    ("cube2-3-sheared.json", "--seed", "3", "--y", "5"):
        "1dddd493aaeee70c6da872f35a7a84dc1abe994ed673e3ef4c9691d4ad578e3a",
    ("cube2-3-sheared.json", "--y", "3/4"):
        "136f1fe1570ce0d9b8939389443b99e4e463477e567d59f8df12b13866fbef07",
    ("polytopes/halfsquare.json", "--margin", "0"):
        "bacb865433144328f37bbacf8817f8365126434fdb63d038024544e836307ec9",
    ("polytopes/halfsquare.json", "--seed", "3", "--y", "5"):
        "2669b599f4b8861c14bde436c9c6c4337c90871848a883d6b6f8d7be6d05788f",
    ("polytopes/triangle-nonregular.json", "--seed", "3"):
        "3ded1bcb99e0bd04cc8854ede11892c5a4baf019674f274a93fd24c016ae367c",
    ("polytopes/square.json", "--margin", "0", "--y", "5"):
        "cde3aaf5c648a1bdfdfabd2ad1d94931d47eb9a80ebb30f3b47b3d3ea6e416c9",
    ("--builtin", "cube:2,3", "--margin", "0", "--seed", "2"):
        "fbbc2ffc531406f9a119f96554664868a578d01412686a74977bc1501510d4b5",
    ("--builtin", "trapezoid:7/2,3/2"):
        "655dc345f65288f29cde1f95c15125ef65cb3bbcf1c93c277047cbe74edd0610",
    ("--builtin", "trapezoid:7/2,3/2", "--seed", "3", "--y", "5"):
        "deb788a121c5bc09b6692b12a75c5503a18f0b629baa9722001635472627f51e",
    ("--builtin", "cube:2,1/2"):
        "91891c4586604ceac33145181b67b0b1608197bb6ebe61f772413caa6c2e53ef",
    ("--builtin", "cube:2,1/2", "--seed", "3", "--margin", "1", "--y=-2/3"):
        "3c10ca0530d0eb792a737fa8f3f80d74a38125425ba9a5188ff19ba432516460",
}

# sha256 of the whole stdout of count runs: the lattice ladder's lower
# rungs symbolically and at y on both sides of -1, the sheared cube4-2
# file of _BRION_FILES, two example files and one --decimal run
_COUNT_FROZEN_SHA256 = {
    ("--builtin", "simplex:2,15"):
        "ebd4be52a7f49553e63edd7f018b2065e93016a336bb3a94a03d99874ea47e23",
    ("--builtin", "simplex:2,15", "--y=1/2"):
        "bef49296eccbb3c88a97fe5d09e142b12f47b7460a90b781b7d651403dcd8f79",
    ("--builtin", "simplex:2,15", "--y=-2/3"):
        "1fa97f18232c225157c95d2fdc7186c004aa098023d09eaf7f785e640dc37416",
    ("--builtin", "simplex:2,15", "--y=5/3"):
        "09990c97dbf45ad5cbe6102350b823e824ffaeae1c03925e35ef43cf7861f4c4",
    ("--builtin", "simplex:3,4"):
        "cd4792cdcc87b49f3655857a8c7bbce1d30dec50fd4e9a71007d575ebc7c47eb",
    ("--builtin", "simplex:3,4", "--y=1/2"):
        "b14fd21e8138468fdf065d837a79ee3cb0ddeaa42d37e27950e70eb5a96a9fff",
    ("--builtin", "simplex:3,4", "--y=-2/3"):
        "2f700704d6e502e8447e2446d84e1091eedb888647d8417b2a28d11bbd00d5d0",
    ("--builtin", "simplex:3,4", "--y=5/3"):
        "3dcbff99ebce4eb27a82ef7553618a9911750c937889ba13b4a69c4e87eb06ac",
    ("--builtin", "cube:3,3"):
        "6ac3ddf9dee94e4ad0570c642e4c1f08bfe5c68f948a23fd4468fb4622e2d57b",
    ("--builtin", "cube:3,3", "--y=1/2"):
        "708455af16fd94a5c2b34ad28205240b216d52439f576735a9852ec940aeadf1",
    ("--builtin", "cube:3,3", "--y=-2/3"):
        "4eea947d2dc3dbecbbc7126af3196b0fed961330bade3599974d215ec6456b2f",
    ("--builtin", "cube:3,3", "--y=5/3"):
        "0319996222d773ade1d4ff59907c43881b6ee6a336b50fad5286501257ef9203",
    ("--builtin", "prism:4,3"):
        "534d97ab876758569dbda813d5250ee3befcb2207431fab2a5b7917065a0b30e",
    ("--builtin", "prism:4,3", "--y=1/2"):
        "09478ade6793124d3e2a886a6d9d4a14823692556068533d0498ffd37fd442dd",
    ("--builtin", "prism:4,3", "--y=-2/3"):
        "0b149f654cf67445aa796e42430e9ecd56155028afbcb04cdaa247964940ab46",
    ("--builtin", "prism:4,3", "--y=5/3"):
        "81414faf51355595b7ae8b35900a1720d2cad2e5b69bf234cc9e094c4f4b8426",
    ("cube4-2-sheared.json",):
        "6686bdd654d2f6f29efb8688df4bf444f3a8097235b152a68da21ae736380eba",
    ("cube4-2-sheared.json", "--y=-2/3"):
        "e289f705452c2122f7b4077ee1e63a8b238318a7f843ca2a559b770d685b0a29",
    ("polytopes/square.json",):
        "bf462dc7ee7945ec99c52b869a8284319958fd31db0b8a0f2dbb4ae21694c259",
    ("polytopes/trapezoid.json", "--y", "1/2"):
        "8e712e2375563b821f1216569a1b6e322615a9539904c38d9a2d5c46ce61bab0",
    ("--builtin", "simplex:3,4", "--y", "2/3", "--decimal", "6"):
        "3f0d301fd393c6c937b73415b1c19c2c222914f6e2c58e1ee3c4c4834271678f",
}


def _frozen_digest(capsys, tmp_path, monkeypatch, argv) -> tuple[int, str]:
    """Exit code and stdout sha256 of one run; a file named in
    _BRION_FILES or _SVG_FILES is written to the working directory, and
    other paths are relative to the repository root."""
    files = {**_BRION_FILES, **_SVG_FILES}
    if argv[1] in files:
        monkeypatch.chdir(tmp_path)
        (tmp_path / argv[1]).write_text(json.dumps(files[argv[1]]) + "\n")
    else:
        monkeypatch.chdir(DATA_DIR.parent)
    code, out, _ = run(capsys, *argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(_SVG_FROZEN_SHA256), ids=" ".join)
def test_svg_frozen_output(capsys, tmp_path, monkeypatch, args):
    assert _frozen_digest(capsys, tmp_path, monkeypatch, ("svg", *args)) == (
        0, _SVG_FROZEN_SHA256[args])


@pytest.mark.parametrize("args", sorted(_COUNT_FROZEN_SHA256), ids=" ".join)
def test_count_frozen_output(capsys, tmp_path, monkeypatch, args):
    assert _frozen_digest(capsys, tmp_path, monkeypatch, ("count", *args)) == (
        0, _COUNT_FROZEN_SHA256[args])


_BROKEN_HEAD = (
    "command: decompose\n"
    "input: builtin trapezoid (sha256 82eda434d6d2)\n"
    "polytope: dim 2, 4 facets, 4 vertices, regular, integral\n"
    "xi: (1, 2)\n"
    "vertex 0: flips 2, sign +, generators [(-1, 0), (0, -1)]\n"
    "vertex 1: flips 1, sign -, generators [(-1, 0), (0, -1)]\n"
    "vertex 2: flips 0, sign +, generators [(1, -1), (-1, 0)]\n"
)
_BROKEN_EXTERIOR = "".join(
    f"MISMATCH at {p}: polytope 0, cones 1\n" for p in (
        "(-3, -6)", "(-3, -5)", "(-2, -5)", "(-1, -6)", "(-2, -1)",
        "(1/4, -3/4)", "(2, -2/3)", "(1, -1/3)", "(3/2, -3/4)",
    )
)

# the whole stdout of decompose on the trapezoid with its last polarized
# cone dropped: three vertices and every exterior point the dropped cone
# cancelled disagree; at y = -5/3, 1+y < 0, so u = 1/(1+y) is negative
_BROKEN_DECOMPOSE = {
    (): (
        "MISMATCH at (0, 0): polytope 1/(1+y)^2, cones (y^2 + y + 1)/(1+y)^2\n"
        "MISMATCH at (2, 0): polytope 1/(1+y)^2, cones 1/(1+y)\n"
        "MISMATCH at (1, 0): polytope 1/(1+y), cones 1\n",
        "check: FAIL (12/34 points disagree symbolically in y)\n",
    ),
    ("--y", "2/3"): (
        "MISMATCH at (0, 0): polytope 9/25, cones 19/25\n"
        "MISMATCH at (2, 0): polytope 9/25, cones 3/5\n"
        "MISMATCH at (1, 0): polytope 3/5, cones 1\n",
        "check: FAIL (12/34 points disagree at y = 2/3)\n",
    ),
    ("--y=-5/3",): (
        "MISMATCH at (0, 0): polytope 9/4, cones 19/4\n"
        "MISMATCH at (2, 0): polytope 9/4, cones -3/2\n"
        "MISMATCH at (1, 0): polytope -3/2, cones 1\n",
        "check: FAIL (12/34 points disagree at y = -5/3)\n",
    ),
}


@pytest.mark.parametrize("extra", sorted(_BROKEN_DECOMPOSE), ids=" ".join)
def test_decompose_reports_a_broken_cone_set(capsys, monkeypatch, extra):
    polarize = polarcount.cli.polarize_cones
    monkeypatch.setattr(
        polarcount.cli, "polarize_cones", lambda poly, xi: polarize(poly, xi)[:-1]
    )
    code, out, _ = run(capsys, "decompose", "--builtin", "trapezoid", *extra)
    assert code == 1
    vertices, verdict = _BROKEN_DECOMPOSE[extra]
    assert out == _BROKEN_HEAD + vertices + _BROKEN_EXTERIOR + verdict


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


# inputs whose walk pivots off the axes: cube:{4,5,6} and simplex:{5,8}
# under the unimodular shear L U (unit-diagonal L and U with entries
# on the first off-diagonal), so the blocking facet's rate along the
# other edges is nonzero; cube:5,2 under the same shear with a rational
# shift and a positive rational scale per facet, so the cleared rows
# are not primitive and each pivot divides by a gcd above 1; and a
# shifted, rescaled image of the non-regular 4-simplex {x >= 0,
# x1 + 2 x2 + 3 x3 + x4 <= 6}.  Written to the working directory as
# _BRION_FILES are; each maps to the sha256 of the whole stdout
_VERTICES_FILES = {
    "cube4-sheared.json": {"dim": 4, "facets": [
        [1, -1, 0, 0, 0], [-1, 1, 0, 0, -1], [1, 0, 1, 0, 0],
        [-1, 0, -1, 0, -1], [0, -1, 0, 0, 0], [0, 1, 0, 0, -1],
        [0, 0, 2, 1, 0], [0, 0, -2, -1, -1],
    ]},
    "cube5-sheared.json": {"dim": 5, "facets": [
        [1, -1, 0, 0, 0, 0], [-1, 1, 0, 0, 0, -1], [1, 0, 1, 0, 0, 0],
        [-1, 0, -1, 0, 0, -1], [0, -1, 0, 0, 0, 0], [0, 1, 0, 0, 0, -1],
        [0, 0, 2, 1, -1, 0], [0, 0, -2, -1, 1, -1], [0, 0, 0, 1, 0, 0],
        [0, 0, 0, -1, 0, -1],
    ]},
    "cube6-sheared.json": {"dim": 6, "facets": [
        [1, -1, 0, 0, 0, 0, 0], [-1, 1, 0, 0, 0, 0, -1], [1, 0, 1, 0, 0, 0, 0],
        [-1, 0, -1, 0, 0, 0, -1], [0, -1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, -1], [0, 0, 2, 1, -1, 0, 0],
        [0, 0, -2, -1, 1, 0, -1], [0, 0, 0, 1, 0, 1, 0],
        [0, 0, 0, -1, 0, -1, -1], [0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 1, 0, -1],
    ]},
    "simplex5-sheared.json": {"dim": 5, "facets": [
        [1, -1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, -1, 0, 0, 0, 0],
        [0, 0, 2, 1, -1, 0], [0, 0, 0, 1, 0, 0], [-2, 2, -3, -2, 1, -1],
    ]},
    "simplex8-sheared.json": {"dim": 8, "facets": [
        [1, -1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 2, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 1, -1, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [-2, 2, -3, -2, 2, -3, -2, 1, -1],
    ]},
    "cube5-2-shifted.json": {"dim": 5, "facets": [
        [3, -3, 0, 0, 0, "7/2"], ["-1/2", "1/2", 0, 0, 0, "-19/12"],
        [2, 0, 2, 0, 0, "5/2"], ["-5/3", 0, "-5/3", 0, 0, "-65/12"],
        [0, -1, 0, 0, 0, "2/3"], [0, 6, 0, 0, 0, -16],
        [0, 0, 7, "7/2", "-7/2", "31/4"], [0, 0, -8, -4, 4, "-118/7"],
        [0, 0, 0, "2/5", 0, 0], [0, 0, 0, -3, 0, -6],
    ]},
    "simplex4-weighted.json": {"dim": 4, "facets": [
        [2, -2, 0, 0, "2/3"], [1, 0, 1, 0, "-1/6"], [0, "-3/2", 0, 0, 0],
        [0, 0, 10, 5, 5], ["-3/4", 1, -1, "-1/4", "-7/4"],
    ]},
}

_VERTICES_IMAGES_SHA256 = {
    "cube4-sheared.json":
        "e5e17ed8aadf38fccffb8c7b73ce6c1c8dac4a9ea3ad6c015def9b8e97c183c6",
    "cube5-sheared.json":
        "20167a8d05caf7a9a6a78dc5aef8544360f7015011f25e64996615d4e449457e",
    "cube6-sheared.json":
        "dd461f3e242bc03d35593a8c7c73faf9846cb7d4cef2799f49b8bab3d1630a42",
    "simplex5-sheared.json":
        "a00eb7b02c24df8a6f794c17663878e89b000aed4a65f9d7a8d116f89df0d2ed",
    "simplex8-sheared.json":
        "722c3c87cc551a219402e1086b085cb86aa44cba54a6f0d059d361080a44317e",
    "cube5-2-shifted.json":
        "e34ef382ecc19f51c72a9cf59ba2505cf5eb3f0fc12ba67a46e66030982de1ed",
    "simplex4-weighted.json":
        "189911176d444e81e23c73ca41ea27056de5d66ba942f09400b436dbb6d48604",
}


@pytest.mark.parametrize("name", sorted(_VERTICES_IMAGES_SHA256))
def test_vertices_frozen_output_on_images(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(_VERTICES_FILES[name]) + "\n")
    code, out, _ = run(capsys, "vertices", name)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _VERTICES_IMAGES_SHA256[name]


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
        ([[True, 0], [-1, -1]], "facet 0, entry 0: booleans are not numbers"),
        ([[1, None], [-1, -1]],
         "facet 0, entry 1: expected an integer or 'p/q' string, got NoneType"),
        # a numerator over the interpreter's int conversion digit limit
        ([[1, 0], [-1, "-" + "9" * 5000 + "/7"]],
         "facet 1, entry 1: an integer has more than "
         f"{sys.get_int_max_str_digits()} digits"),
    ],
    ids=["non-simple", "unbounded", "empty", "redundant", "true-entry",
         "null-entry", "long-fraction"],
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
    assert "Traceback" not in err


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
        (("chi", "--builtin", "cube:2", "--y", "1", "--z", ",2,3,"),
         "command: chi\n",
         "--z ',2,3,': empty item in a comma-separated list"),
        (("chi", "--builtin", "cube:2", "--y", "1", "--z", "2,,3"),
         "command: chi\n",
         "--z '2,,3': empty item in a comma-separated list"),
        (("chi", "--builtin", "cube:,2", "--y", "1", "--z", "2,3"),
         "command: chi\n",
         "--builtin 'cube:,2': empty item in a comma-separated list"),
        (("series", "--order", "-1"), "command: series\n",
         "--order must be nonnegative"),
    ],
    ids=["count-decimal", "chi-decimal", "svg-margin", "decompose-random-points",
         "count-y-abc", "count-y-minus-one", "decompose-y-minus-one",
         "chi-z-empty-ends", "chi-z-empty-middle", "chi-builtin-empty-item",
         "series-order"],
)
def test_negative_counts_rejected(capsys, argv, expected_out, message):
    """Bad options exit 2 before the polytope is loaded or anything printed."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == expected_out
    assert err.splitlines()[0] == f"error: {message}"
    assert "Traceback" not in err


_EXPONENT_REASON = "has an exponent; write an integer, p/q or a decimal"


@pytest.mark.parametrize(
    "argv, expected_out, message",
    [
        (("count", "--builtin", "cube:2", "--y", "1e5000"), "command: count\n",
         "weight parameter y: '1e5000'"),
        (("count", "--builtin", "cube:2,1e5000"), "command: count\n",
         "cube side: '1e5000'"),
        (("decompose", "--builtin", "cube:2", "--y", "2.5E-3"),
         "command: decompose\n", "weight parameter y: '2.5E-3'"),
        (("svg", "--builtin", "cube:2", "--y", "1e5000"), "",
         "weight parameter y: '1e5000'"),
        (("chi", "--builtin", "cube:2", "--y", "1", "--z", "1e5000,3"),
         "command: chi\n", "z coordinate: '1e5000'"),
        (("chi", "--builtin", "cube:2", "--y", ".5e+2", "--z", "2,3"),
         "command: chi\n", "weight parameter y: '.5e+2'"),
        (("series", "--y", "1e3"), "command: series\n",
         "series parameter y: '1e3'"),
    ],
    ids=["count-y", "count-builtin", "decompose-y", "svg-y", "chi-z", "chi-y",
         "series-y"],
)
def test_exponents_rejected(capsys, argv, expected_out, message):
    """An exponent would expand to a huge integer; it exits 2 unparsed."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == expected_out
    assert err.splitlines()[0] == f"error: {message} {_EXPONENT_REASON}"
    assert "Traceback" not in err


def test_integers_fractions_and_decimals_still_parse(capsys):
    code, out, _ = run(
        capsys, "count", "--builtin", "cube:2,2.0", "--y", "0.25", "--decimal", "2"
    )
    assert code == 0
    assert "weighted count at y = 1/4: 169/25 (~6.76)" in out
    code, out, _ = run(capsys, "chi", "--builtin", "cube:2", "--y=-3/2",
                       "--z", "2,5")
    assert code == 0
    assert "y = -3/2, z = (2, 5)" in out


def run_to_exit(capsys, argv):
    """(exit code, stdout, stderr) of main, argparse's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("count", "--builtin", "cube:2", "--y=-2/3", "--decimal", "3"), 0),
        (("count", "--builtin", "cube:2", "--y=-2"), 0),
        (("count", "--builtin", "cube:2", "--y=-1"), 2),
        (("count", "--builtin", "cube:2", "--y=-1e5"), 2),
        (("chi", "--builtin", "cube:2,2", "--y=-2/3", "--z=-1/2,3/5"), 0),
        (("chi", "--builtin", "cube:2", "--z=-0.5,-3", "--y=2"), 0),
        (("chi", "--builtin", "cube:2", "--y=2", "--z=-1/2,1"), 2),
        (("decompose", "--builtin", "cube:2", "--y=-5/3"), 0),
        (("svg", "--builtin", "cube:2,3", "--y=-3/4"), 0),
        (("series", "--order", "3", "--y=-1/2"), 0),
    ],
    ids=["count", "count-int", "count-minus-one", "count-exponent", "chi",
         "chi-decimal-z-first", "chi-pole", "decompose", "svg", "series"],
)
def test_negative_value_after_a_space_parses_like_equals(capsys, argv, expected):
    spaced = [part for arg in argv for part in arg.split("=", 1)]
    code, out, _ = run_to_exit(capsys, spaced)
    assert (code, out) == run_to_exit(capsys, argv)[:2]
    assert code == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--builtin", "cube:2", "--y"),
        ("count", "--builtin", "cube:2", "--y", "--decimal", "3"),
        ("chi", "--builtin", "cube:2", "--z", "--y", "-2", "2,3"),
    ],
    ids=["count-y-last", "count-y-before-option", "chi-z-before-option"],
)
def test_option_after_y_or_z_still_exits_two(capsys, argv):
    code, out, err = run_to_exit(capsys, argv)
    assert code == 2
    assert out == ""
    assert "expected one argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, decimal",
    [
        # float formatting printed 3.333333333333333481363069950021
        (("count", "--builtin", "interval:3", "--y", "1/2", "--decimal", "30"),
         "10/3 (~3.333333333333333333333333333333)"),
        (("count", "--builtin", "cube:2", "--y=-1/1000", "--decimal", "2"),
         "4000000/998001 (~4.01)"),
        (("count", "--builtin", "cube:2", "--y", "3/2", "--decimal", "0"),
         "16/25 (~1)"),
        # half to even: 1/8 = 0.125 and 3/8 = 0.375 at two places
        (("count", "--builtin", "interval:1", "--y", "15", "--decimal", "2"),
         "1/8 (~0.12)"),
        (("count", "--builtin", "interval:1", "--y", "13/3", "--decimal", "2"),
         "3/8 (~0.38)"),
    ],
    ids=["thirty-places", "small-negative-y", "zero-places", "half-even-down",
         "half-even-tie"],
)
def test_decimal_is_rounded_from_the_exact_value(capsys, argv, decimal):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1].endswith(f": {decimal}")


def test_decimal_of_a_value_past_float_range(capsys):
    # float(value) overflowed here; the exact rounding has no range
    big = "1" + "0" * 52
    code, out, err = run(capsys, "chi", "--builtin", "cube:2,6", "--y", "1",
                         "--z", f"{big},3", "--decimal", "2")
    assert code == 0
    assert "Traceback" not in err
    lines = out.splitlines()
    for line in lines[-3:-1]:
        exact, decimal = line.split(":")[1].strip().split(" (~")
        assert "/" not in exact
        assert decimal == f"{exact}.00)"
    assert lines[-1] == "check: PASS"


@pytest.mark.parametrize("command", [
    ("count", "--builtin", "cube:2"),
    ("chi", "--builtin", "cube:2", "--z", "2,3"),
])
def test_decimal_places_bounded_by_the_digit_limit(capsys, command):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, *command, "--y", "1", "--decimal", str(limit))
    assert code == 0
    assert max(len(line) for line in out.splitlines()) > limit
    code, out, err = run(capsys, *command, "--y", "1", "--decimal", str(limit + 1))
    assert code == 2
    assert out == f"command: {command[0]}\n"
    assert err.splitlines()[0] == f"error: --decimal must be at most {limit}"


def test_value_past_the_digit_limit_exits_two(capsys):
    # both sums parse and compute, but their exact text would exceed
    # the int-to-str digit limit
    big = "1" + "0" * 1000
    code, out, err = run(capsys, "chi", "--builtin", "cube:3,6", "--y", "1",
                         "--z", f"{big},3,5")
    assert code == 2
    assert "vertex sum" not in out
    assert err.splitlines()[0] == (
        f"error: an integer has more than {sys.get_int_max_str_digits()} digits"
    )
    assert "Traceback" not in err


# a --y whose codim-2 weight 1/(1+y)^2 has about 6000 digits
_LONG_Y = "1" + "0" * 3000


def test_svg_label_past_the_digit_limit_exits_two_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(polarcount.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "polarcount.cli", "svg", "--builtin", "cube:2",
         "--y", _LONG_Y],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[0] == (
        f"error: an integer has more than {sys.get_int_max_str_digits()} digits"
    )
    assert "Traceback" not in done.stderr


def test_mismatch_past_the_digit_limit_exits_two(capsys, monkeypatch):
    polarize = polarcount.cli.polarize_cones
    monkeypatch.setattr(
        polarcount.cli, "polarize_cones", lambda poly, xi: polarize(poly, xi)[:-1]
    )
    code, out, err = run(capsys, "decompose", "--builtin", "trapezoid", "--y", _LONG_Y)
    assert code == 2
    assert out == _BROKEN_HEAD
    assert err.splitlines()[0] == (
        f"error: an integer has more than {sys.get_int_max_str_digits()} digits"
    )


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
        ("cube:,2", "--builtin 'cube:,2': empty item in a comma-separated list"),
        ("cube:2,,3",
         "--builtin 'cube:2,,3': empty item in a comma-separated list"),
        ("cube:2,", "--builtin 'cube:2,': empty item in a comma-separated list"),
        ("cube:2,0", "side must be positive"),
        ("simplex:0", "dimension must be at least 1"),
        ("trapezoid:,",
         "--builtin 'trapezoid:,': empty item in a comma-separated list"),
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
    assert "Traceback" not in err


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
        ("trapezoid:", "dim 2, 4 facets, 4 vertices"),
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


_DIGITS = "9" * 5000  # over the interpreter's 4300-digit int conversion limit

# files that json or Fraction used to reject with an uncaught exception:
# bytes that are not UTF-8, nesting past the recursion limit, and an
# integer over the digit limit, bare and quoted
_MALFORMED_FILES = {
    "not-utf8": (b"\xff\xfe", "is not UTF-8 text"),
    "deep-nesting": (b"[" * 100000 + b"]" * 100000, "nests too deeply to parse"),
    "long-integer": (
        f'{{"dim": 2, "facets": [[1, 0, 0], [0, 1, 0], [-1, -1, -{_DIGITS}]]}}'
        .encode(), "an integer has more than"),
    "long-quoted-integer": (
        f'{{"dim": 2, "facets": [[1, 0, 0], [0, 1, 0], [-1, -1, "-{_DIGITS}"]]}}'
        .encode(), "facet 2, entry 2: an integer has more than"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_FILES))
def test_malformed_file_exits_two_without_traceback(tmp_path, name):
    content, reason = _MALFORMED_FILES[name]
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(Path(polarcount.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "polarcount.cli", "vertices", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == "command: vertices\n"
    assert reason in done.stderr.splitlines()[0]
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_vertices_opens_its_file_once(capsys, monkeypatch):
    path = DATA_DIR / "trapezoid.json"
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run(capsys, "vertices", str(path))
    assert code == 0
    assert "4 vertices" in out
    assert opened.count(str(path)) == 1


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


@pytest.mark.parametrize("spec", ["cube:2", "cube:6"])
def test_closed_stdout_exits_two_without_traceback(spec):
    # the read end is closed before the child starts, so its first write
    # to stdout fails: inside the handler for cube:6, whose 12 kB of
    # output outgrow the stdout buffer, and at main's final flush for
    # cube:2
    env = {**os.environ, "PYTHONPATH": str(Path(polarcount.__file__).parents[1])}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "polarcount.cli", "vertices", "--builtin", spec],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr.splitlines()[0] == "error: stdout closed"
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr

"""Every function in src/polarcount/ is reached, by a command or a root.

A committed corpus of commands runs through cli.main under
sys.setprofile, which records the code object of every Python call.
Every top-level function and method of the package must be among them,
or be reached from one of the roots() calls, or be on KEPT with its
reason.

A root is a library call that no command makes yet: a name the
benchmark's tracer wraps (bench/tracing.py's WRAPPED, read as
tests/test_tracing.py reads it) or one of the paper's checks that
awaits a command.  A root that a command reaches is stale, and so is a
KEPT entry that anything reaches, so both lists only shrink.  A new
function that nothing reaches fails here: give it a command, or delete
it.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import polarcount
from conftest import DATA_DIR
from polarcount import cli, latticegen, linalg, polarize, polytope
from polarcount.laurent import LaurentPoly
from polarcount.weights import WeightParam
from polarcount.ypoly import YFrac, YPoly

ROOT = Path(__file__).resolve().parent.parent

# (expected exit code, argv): the installed console script's CI commands,
# every builtin, every sample file and the malformed files of make_files
CORPUS = [
    (0, ["brion", "--builtin", "cube:3,2"]),
    (0, ["decompose", "--builtin", "cube:3,1", "--y", "2/3"]),
    (0, ["series", "--order", "40", "--y", "1/2"]),
    (0, ["series", "--order", "1", "--y", "3"]),
    (0, ["series", "--order", "0"]),
    (0, ["series", "--order", "2", "--y=-1/2"]),
    (2, ["series", "--order", "-1"]),
    (0, ["brion", "--builtin", "cube:4,2"]),
    (0, ["brion", "--builtin", "simplex:2,32"]),
    (0, ["brion", "{farcube}"]),
    (0, ["chi", "{farcube}", "--y", "2/3", "--z=2/3,-5/7,11/13"]),
    (0, ["count", "{farcube}"]),
    (2, ["chi", "{farcube}", "--y", "2/3", "--z=-1,2,1/2"]),
    (2, ["svg", "--builtin", "cube:2,1" + "0" * 310]),
    (2, ["brion", "--builtin", "cube:1,100000000000000000000"]),
    (0, ["decompose", "{polytopes}/triangle-nonregular.json"]),
    (0, ["decompose", "{polytopes}/halfsquare.json", "--y", "1/2"]),
    (0, ["vertices", "--builtin", "cube:6"]),
    (0, ["vertices", "--builtin", "cube:7"]),
    (0, ["vertices", "--builtin", "simplex:10"]),
    (0, ["vertices", "--builtin", "cube:10"]),
    (0, ["decompose", "--builtin", "cube:5,1", "--y=-5/3"]),
    (0, ["svg", "--builtin", "cube:2,3", "--y", "3/4"]),
    (0, ["svg", "{polytopes}/halfsquare.json", "--margin", "0"]),
    (0, ["svg", "{diamond}", "--margin", "0"]),
    (0, ["svg", "--builtin", "trapezoid:7/2,3/2", "--y", "5"]),
    (0, ["svg", "--builtin", "cube:2,3", "--y", "1/2", "--out", "{tmp}/f.svg"]),
    (0, ["--help"]),
    *[(0, [cmd, "--help"]) for cmd in (
        "vertices", "decompose", "count", "chi", "brion", "series", "svg")],
    (2, ["vertices", "{nonutf8}"]),
    (2, ["vertices", "{deep}"]),
    (2, ["vertices", "{polytopes}/octahedron.json"]),
    (2, ["vertices", "{cutcube}"]),
    (0, ["vertices", "{polytopes}/halfsquare.json"]),
    (2, ["vertices", "{empty}"]),
    (2, ["vertices", "{ray}"]),
    (2, ["vertices", "{bool}"]),
    (0, ["chi", "--builtin", "cube:3,6", "--y", "2/3", "--z=-2/3,5/7,-11/13"]),
    (2, ["chi", "--builtin", "cube:2", "--y", "1", "--z", "1,5"]),
    (0, ["chi", "--builtin", "cube:2,2", "--y", "-2/3", "--z", "-1/2,3/5"]),
    (0, ["count", "--builtin", "cube:2", "--y", "-2/3", "--decimal", "3"]),
    (2, ["count", "--builtin", "cube:2", "--y"]),
    (0, ["count", "--builtin", "simplex:3,4"]),
    (0, ["count", "--builtin", "simplex:3,4", "--y", "2/3", "--decimal", "6"]),
    (0, ["count", "--builtin", "simplex:40"]),
    (0, ["count", "--builtin", "simplex:2,3000"]),
    (0, ["chi", "--builtin", "simplex:3,60", "--y", "2/3", "--z=-2/3,5/7,-11/13"]),
    (0, ["count", "--builtin", "simplex:6,4", "--y", "2/3"]),
    (2, ["count", "--builtin", "cube:2", "--y", "1e5000"]),
    (2, ["count", "--builtin", "cube:2", "--y", "1", "--decimal", "5000"]),
    (2, ["svg", "--builtin", "cube:2", "--y", "1" + "0" * 3000]),
    (2, ["decompose", "--builtin", "cube:3", "--seed", str(10**4000)]),
    (0, ["svg", "--builtin", "cube:2", "--seed", str(10**200)]),
    (2, ["vertices", "{huge}"]),
    (0, ["svg", "{huge}"]),
    (2, ["decompose", "{hugeray}"]),
    (0, ["series", "--order", "60", "--y=-5/7"]),
    (0, ["decompose", "--builtin", "cube:4,1", "--y", "0"]),
    (0, ["decompose", "--builtin", "cube:3", "--random-points", "0"]),
    (0, ["series", "--order", "12", "--y=-5/7"]),
    (0, ["decompose", "--builtin", "prism:1,1", "--random-points", "2000", "--y=-5/3"]),
    (0, ["vertices", "--builtin", "interval:3"]),
    (0, ["decompose", "--builtin", "trapezoid"]),
    (0, ["brion", "--builtin", "prism"]),
    *[(0, ["vertices", f"{{polytopes}}/{path.name}"])
      for path in sorted(DATA_DIR.glob("*.json")) if path.name != "octahedron.json"],
    (2, ["vertices", "{float}"]),
    (2, ["vertices", "{digits}"]),
]


def ci_commands() -> list:
    """(expected exit code, argv) of each polarcount command in the CI
    workflow's console-script step, its paths written as CORPUS writes
    them.  An argv built with $(...) or $cmd is skipped: CORPUS lists it
    expanded."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = text.split("- name: Installed console script", 1)[1].split("- name:", 1)[0]
    out = []
    for line in step.splitlines():
        m = re.search(r"expect (\d+) (?:sh -c [\"'])?polarcount ([^;|]*)", line)
        if m is None or "$(" in m[2] or "$cmd" in m[2]:
            continue
        argv = [
            re.sub(r"^polytopes/", "{polytopes}/", re.sub(
                r"^\$RUNNER_TEMP/(\w+)\.json$", r"{\1}", arg,
            ).replace("$RUNNER_TEMP", "{tmp}"))
            for arg in shlex.split(m[2])
        ]
        out.append((int(m[1]), argv))
    return out


def make_files(tmp: Path) -> dict[str, str]:
    """The corpus's generated input files, by placeholder name."""
    big, r = 10**2200, 3
    files = {
        "farcube": {"dim": 3, "facets": [
            [1, 0, 2, -1006], [-1, 0, -2, 1004], [0, 1, -1, 10],
            [0, -1, 1, -12], [0, 0, 1, -3], [0, 0, -1, 1]]},
        # [0, 2]^3 cut by x + y + z <= 4, non-simple at (2, 0, 2)
        "cutcube": {"dim": 3, "facets": [
            [1, 0, 0, 0], [-1, 0, 0, -2], [0, 1, 0, 0], [0, -1, 0, -2],
            [0, 0, 1, 0], [0, 0, -1, -2], [-1, -1, -1, -4]]},
        # a vertex on the +x ray from the barycenter (1, 1)
        "diamond": {"dim": 2, "facets": [
            [1, 1, 1], [-1, 1, -1], [-1, -1, -3], [1, -1, -1]]},
        "empty": {"dim": 1, "facets": [[1, 1], [-1, 0]]},
        "ray": {"dim": 2, "facets": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]},
        "bool": {"dim": 1, "facets": [[True, 0], [-1, -1]]},
        "float": {"dim": 1, "facets": [[1.5, 0], [-1, -1]]},
        # a triangle whose vertex numerators pass the digit limit, and a
        # ray whose error message does
        "huge": {"dim": 2, "facets": [
            [big + r, r, 0], [r, big + r, 0],
            [-(big + r), -(big + r), -(10 * big + r)]]},
        "hugeray": {"dim": 2, "facets": [
            [big + 7, -(big - 3), big + 1], [-(big + 8), big - 2, big + 1],
            [1, 1, 0]]},
    }
    paths = {"tmp": str(tmp), "polytopes": str(DATA_DIR)}
    for name, data in files.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    raw = {
        "nonutf8": b"\xff\xfe",
        "deep": b'{"dim": 1, "facets": ' + b"[" * 200000 + b"]" * 200000 + b"}",
        "digits": b'{"dim": 1, "facets": [[1, 0], [-1, -' + b"1" * 5000 + b"]]}",
    }
    for name, data in raw.items():
        path = tmp / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    return paths


def roots() -> dict:
    """One library call per name that no command reaches yet."""
    P, cube = polytope.trapezoid(), polytope.hypercube(2)
    xi = polarize.find_polarizing(P)
    square = ((1, 2), (3, 4))
    return {
        "latticegen.weighted_count": lambda: latticegen.weighted_count(P, WeightParam(1)),
        "latticegen.vertex_genfun": lambda: latticegen.vertex_genfun(P, 0),
        "latticegen.brion_sum": lambda: latticegen.brion_sum(P),
        "laurent.RationalFunction.equivalent":
            lambda: latticegen.brion_sum(P).equivalent(latticegen.vertex_genfun(P, 0)),
        "laurent.LaurentPoly.__pow__": lambda: LaurentPoly(2, {(1, 0): 1}) ** 2,
        "linalg.solve_linear": lambda: linalg.solve_linear(square, (1, 1)),
        "linalg.inverse": lambda: linalg.inverse(square),
        "linalg.det": lambda: linalg.det(square),
        "linalg.rank": lambda: linalg.rank(square),
        "ypoly.YPoly.__pow__": lambda: YPoly((1, 1)) ** 2,
        "ypoly.YFrac.__sub__": lambda: YFrac(1, 1) - YFrac(1, 2),
        "ypoly.YFrac.__rsub__": lambda: 1 - YFrac(1, 1),
        "ypoly.YFrac.__mul__": lambda: YFrac(1, 1) * 2,
        "latticegen.coefficient_extract":
            lambda: latticegen.coefficient_extract(P, xi, (0, 0)),
        "latticegen.multiplicity_check":
            lambda: latticegen.multiplicity_check(P, xi, (1, 0)),
        "latticegen.cone_series_check": lambda: latticegen.cone_series_check(P, xi),
        "polarize.crossing_pair":
            lambda: polarize.crossing_pair(cube, (1, 0)),
    }


PAPER_CHECKS = {
    "latticegen.coefficient_extract", "latticegen.multiplicity_check",
    "latticegen.cone_series_check", "polarize.crossing_pair",
}

# name -> why nothing reaches it: "protocol: ..." for a dunder, or
# "tests/FILE.py::NAME: ..." for the test or oracle that reads it
KEPT = {
    "laurent.LaurentPoly.__hash__": "protocol: hashes as it compares, beside __eq__",
    "laurent.LaurentPoly.__repr__": "protocol: debugging text",
    "laurent.RationalFunction.__repr__": "protocol: debugging text",
    "polytope.Polytope.__repr__": "protocol: debugging text, and parametrized test ids",
    "series.TruncatedSeries.__hash__": "protocol: hashes as it compares, beside __eq__",
    "series.TruncatedSeries.__repr__": "protocol: debugging text",
    "ypoly.YFrac.__bool__": "protocol: a zero weight is false, as a zero YPoly is",
    "ypoly.YFrac.__hash__": "protocol: hashes as it compares, beside __eq__",
    "ypoly.YFrac.__repr__": "protocol: debugging text",
    "ypoly.YPoly.__hash__": "protocol: hashes as it compares, beside __eq__",
    "ypoly.YPoly.__repr__": "protocol: debugging text",
    "laurent.LaurentPoly.__add__":
        "tests/test_latticegen.py::brion_by_equivalent: sums the reference "
        "route's lifted vertex numerators",
    "laurent.LaurentPoly.zero":
        "tests/test_latticegen.py::brion_by_equivalent: the empty sum it starts from",
    "laurent.LaurentPoly.__str__":
        "tests/test_latticegen.py::test_format_lattice_sum_prints_the_cleared_laurent_poly:"
        " the reference printing of the lattice sum",
    "laurent.LaurentPoly.coefficient":
        "tests/test_latticegen.py::test_weighted_sum_poly_square: reads the lattice "
        "sum's coefficients; __hash__ reads the constant term through it",
    "polarize.slack_face_counts":
        "tests/test_weights.py::check_oracle: the per-cone reference for "
        "weights._signed_cone_sum's bit masks",
    "weights.cone_face_counts":
        "tests/test_weights.py::test_y_zero_reduces_to_half_open_cover: the cover "
        "at y = 0; cone_weight_y reads it",
    "weights.cone_weight_y":
        "tests/test_acceptance.py::_cone_delta: the one-cone weight whose change "
        "across a wall the crossing criterion sums",
    "polytope.Polytope.active_facets":
        "tests/test_latticegen.py::test_weighted_count_specializations: the face "
        "codimension of the count at y = 1",
    "polytope.Polytope.barycenter":
        "tests/test_weights.py::sample_points_oracle: the Fraction barycenter",
    "polytope.Polytope.bounding_box":
        "tests/test_weights.py::sample_points_oracle: the Fraction box of the probes",
    "polytope.Polytope.contains":
        "tests/test_weights.py::test_y_zero_reduces_to_half_open_cover: membership "
        "that the half-open cover must reproduce",
    "polytope.from_file":
        "tests/test_weights.py::test_cli_mismatch_lines_are_the_point_route_lines: "
        "builds the polytope the command reads from the same file",
    "linalg.dot":
        "tests/test_membership.py::membership_oracle: the Fraction cone "
        "coordinates of a point",
    "linalg.vadd":
        "tests/test_weights.py::sample_points_oracle: the Fraction midpoints "
        "and offsets of the probes",
    "linalg.vsub":
        "tests/test_svg.py::fraction_clip: the Fraction clip of a wedge "
        "against one line",
    "ypoly.YPoly.__call__":
        "tests/test_ypoly.py::assert_matches: a YFrac's reference value, its "
        "reduced numerator at y over (1+y)^power",
}


@pytest.fixture(scope="module")
def wrapped() -> set[str]:
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{m}.{q}" for m, q, _, _ in module.WRAPPED}


def defined() -> dict:
    """{code object: module.qualname} of every top-level function and
    method defined in the package's sources; an alias keeps its first
    name, and methods a decorator generates are not counted."""
    out = {}
    for info in pkgutil.iter_modules(polarcount.__path__):
        module = importlib.import_module(f"polarcount.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(getattr(member, "__func__", member))
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    qualname = name if attr is None else f"{name}.{attr}"
                    out.setdefault(code, f"{info.name}.{qualname}")
    return out


def record(calls) -> set:
    """The code objects of every Python call made while running calls."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    # a cached function's body runs only on a miss
    for info in pkgutil.iter_modules(polarcount.__path__):
        module = importlib.import_module(f"polarcount.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.setprofile(profile)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """(reached code objects, [(want, got, argv)]) over the corpus."""
    paths = make_files(tmp_path_factory.mktemp("reach"))
    codes = []

    def command(want, argv):
        argv = [arg.format(**paths) if "{" in arg else arg for arg in argv]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    got = cli.main(argv)
                except SystemExit as e:
                    got = e.code
            codes.append((want, got, argv[:3]))

        return call

    seen = record([command(want, argv) for want, argv in CORPUS])
    return seen, codes


def test_corpus_commands_exit_as_expected(commands):
    _, codes = commands
    assert [c for c in codes if c[0] != c[1]] == []


def test_corpus_holds_every_ci_command():
    commands = ci_commands()
    assert len(commands) > 50, "the console-script step was not found"
    assert [c for c in commands if c not in CORPUS] == []


def test_no_command_reaches_a_root(commands, wrapped):
    seen, _ = commands
    names = defined()
    reached = {names[c] for c in seen if c in names}
    assert set(roots()) <= wrapped | PAPER_CHECKS
    assert sorted(set(roots()) & reached) == []


def test_every_function_is_reached_or_kept(commands):
    seen, _ = commands
    seen = seen | record(roots().values())
    names = defined()
    unreached = {name for code, name in names.items() if code not in seen}
    assert sorted(unreached - set(KEPT)) == []
    # a kept member that something reaches, or that no longer exists, is stale
    assert sorted(set(KEPT) - unreached) == []


def test_kept_reasons_name_a_reading_test():
    for name, reason in KEPT.items():
        member = name.rsplit(".", 1)[-1]
        if reason.startswith("protocol: "):
            assert member.startswith("__") and member.endswith("__"), name
            continue
        where, _, why = reason.partition(": ")
        path, _, reader = where.partition("::")
        assert path.startswith("tests/") and why, (name, reason)
        assert f"def {reader}(" in (ROOT / path).read_text(encoding="utf-8"), (
            name, reason)

"""Command-line interface.

Subcommands cover the whole pipeline: vertex enumeration, the signed
cone decomposition check, weighted lattice counts, the two-sided
character evaluation, the generating-function identity, the series
family, and SVG figures.  This module only parses, dispatches and
prints; every quantity and its printed form come from the library.
Each subparser names its handler with set_defaults(run=...), and the
options that several subcommands share are declared once, as parent
parsers.  A handler takes the parsed namespace, prints to stdout and
returns the exit code: 0 success, 1 a mathematical check failed, 2 bad
input or usage, or stdout closed before the output was written.  All
output is exact and deterministic; timing goes to stderr so stdout can
be diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import latticegen, polytope, series, svgfig
from .polarize import PolarizationError, find_polarizing, polarize_cones
from .polytope import Polytope, PolytopeError, PolytopeFormatError, fmt_point
from .weights import WeightParam, check_decomposition_at, sample_points

_BUILTIN_HELP = (
    "builtin polytope: interval:LEN, cube:N[,SIDE], simplex:N[,DILATION], "
    "trapezoid[:WIDTH,HEIGHT], prism[:DILATION,HEIGHT]"
)


class InputError(ValueError):
    """Bad command-line input that is not argparse's business."""


# an exponent, as in 1e5000: Fraction would expand it to a huge integer
_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")


def _attach_negative_values(argv: list) -> list:
    """argv with "--y -2/3" as "--y=-2/3": argparse reads -2/3 as an option."""
    args = []
    for arg in argv:
        if args and args[-1] in ("--y", "--z") and re.match(r"-[\d.]", arg):
            args[-1] += "=" + arg
        else:
            args.append(arg)
    return args


def _parse_fraction(text: str, what: str) -> Fraction:
    if _EXPONENT.search(text):
        raise InputError(
            f"{what}: {text!r} has an exponent; write an integer, p/q or a decimal"
        )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{what}: {text!r} is not a rational number") from e


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError as e:
        raise InputError(f"{what}: {text!r} is not an integer") from e


def _split_items(text: str, what: str) -> list[str]:
    """The comma-separated items of text, none if it is blank; an empty
    item is rejected, not dropped, so that cube:,2 is not read as cube:2."""
    if not text.strip():
        return []
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise InputError(f"{what}: empty item in a comma-separated list")
    return items


# name -> (builder, accepted argument counts, usage, (label, parser) per
# argument); omitted trailing arguments take the builder's defaults
_BUILTINS = {
    "interval": (
        polytope.interval, (1,), "exactly one parameter: interval:LEN",
        (("interval length", _parse_fraction),),
    ),
    "cube": (
        polytope.hypercube, (1, 2), "one or two parameters: cube:N[,SIDE]",
        (("cube dimension", _parse_int), ("cube side", _parse_fraction)),
    ),
    "simplex": (
        polytope.dilated_simplex, (1, 2),
        "one or two parameters: simplex:N[,DILATION]",
        (("simplex dimension", _parse_int), ("simplex dilation", _parse_fraction)),
    ),
    "trapezoid": (
        polytope.trapezoid, (0, 2),
        "zero or two parameters: trapezoid[:WIDTH,HEIGHT]",
        (("trapezoid width", _parse_fraction),
         ("trapezoid height", _parse_fraction)),
    ),
    "prism": (
        polytope.prism, (0, 2), "zero or two parameters: prism[:DILATION,HEIGHT]",
        (("prism dilation", _parse_fraction), ("prism height", _parse_fraction)),
    ),
}


def _build_builtin(text: str) -> Polytope:
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    args = _split_items(argstr, f"--builtin {text!r}")
    if name not in _BUILTINS:
        raise InputError(f"unknown builtin {name!r}; {_BUILTIN_HELP}")
    builder, counts, usage, params = _BUILTINS[name]
    if len(args) not in counts:
        raise InputError(f"{name} takes {usage}")
    return builder(*(parse(a, label) for a, (label, parse) in zip(args, params)))


def _load_polytope(ns) -> tuple[Polytope, str, str]:
    """Returns (polytope, source description, sha256 prefix of the source)."""
    if ns.file and ns.builtin:
        raise InputError("give a file or --builtin, not both")
    if ns.builtin:
        digest = hashlib.sha256(f"builtin:{ns.builtin}".encode()).hexdigest()
        return _build_builtin(ns.builtin), f"builtin {ns.builtin}", digest[:12]
    if ns.file:
        # the digest and the polytope come from the same bytes
        raw = polytope.read_file(ns.file)
        digest = hashlib.sha256(raw).hexdigest()
        return polytope.from_bytes(raw, ns.file), f"file {ns.file}", digest[:12]
    raise InputError("no polytope given: pass a file or --builtin NAME")


def _load_and_describe(ns) -> Polytope:
    """Load the polytope and print the input and polytope lines."""
    poly, source, digest = _load_polytope(ns)
    print(f"input: {source} (sha256 {digest})")
    print(
        f"polytope: dim {poly.dim}, {len(poly.facets)} facets, "
        f"{len(poly.vertices)} vertices, "
        f"{'regular' if poly.regular else 'not regular'}, "
        f"{'integral' if poly.integral else 'not integral'}"
    )
    return poly


@contextlib.contextmanager
def _digit_limit():
    """Turn int-to-str conversion past the digit limit, a ValueError,
    into an InputError."""
    try:
        yield
    except ValueError:
        raise InputError(polytope._too_many_digits()) from None


def _maybe_decimal(value: Fraction, places) -> str:
    """The exact value, then, with places given, its decimal to that many
    places, rounded from the exact value half to even."""
    with _digit_limit():
        exact = str(value)
        if places is None:
            return exact
        whole, part = divmod(abs(round(value * 10**places)), 10**places)
        decimal = str(whole)
        if places:
            decimal += "." + str(part).rjust(places, "0")
    sign = "-" if value < 0 else ""
    return f"{exact} (~{sign}{decimal})"


def _weight_param(ns) -> WeightParam | None:
    """--y parsed (None without it), with --decimal checked; before any work."""
    w = None
    if ns.y is not None:
        y = _parse_fraction(ns.y, "weight parameter y")
        try:
            w = WeightParam(y)
        except ValueError as e:
            raise InputError(str(e)) from e
    places = getattr(ns, "decimal", None)
    if places is not None:
        if w is None:
            raise InputError("--decimal needs --y")
        if places < 0:
            raise InputError("--decimal must be nonnegative")
        limit = sys.get_int_max_str_digits()
        if limit and places > limit:
            raise InputError(f"--decimal must be at most {limit}")
    return w


# -- subcommand bodies (each prints to stdout and returns the exit code) --


def _cmd_vertices(ns) -> int:
    poly = _load_and_describe(ns)
    nums, den = poly.cleared_vertices
    for i, (v, num) in enumerate(zip(poly.vertices, nums)):
        edges = ", ".join(str(e) for e in v.edges)
        print(f"vertex {i}: {fmt_point(num, den)}  facets {list(v.active)}  "
              f"edges [{edges}]")
    return 0


def _cmd_decompose(ns) -> int:
    if ns.random_points < 0:
        raise InputError("--random-points must be nonnegative")
    w = _weight_param(ns)
    poly = _load_and_describe(ns)
    xi = find_polarizing(poly, seed=ns.seed)
    print(f"xi: {fmt_point(xi)}")
    cones = polarize_cones(poly, xi)
    for cone in cones:
        gens = ", ".join(str(g) for g in cone.generators)
        print(f"vertex {cone.vertex_index}: flips {cone.flip_count}, "
              f"sign {'+' if cone.sign > 0 else '-'}, generators [{gens}]")
    rng = random.Random(ns.seed)
    points = sample_points(poly, xi, rng=rng, random_count=ns.random_points)
    failures = []
    for x in points:
        res = check_decomposition_at(poly, cones, x, w)
        if not res.equal:
            failures.append(res)
    mode = "symbolically in y" if w is None else f"at y = {w.y}"
    if failures:
        # every line is formatted before any is printed
        with _digit_limit():
            lines = [
                f"MISMATCH at {fmt_point(res.point)}: polytope {res.lhs}, "
                f"cones {res.rhs}"
                for res in failures
            ]
        for line in lines:
            print(line)
        print(f"check: FAIL ({len(failures)}/{len(points)} points disagree {mode})")
        return 1
    print(f"check: PASS ({len(points)}/{len(points)} points agree {mode})")
    return 0


def _cmd_count(ns) -> int:
    w = _weight_param(ns)
    poly = _load_and_describe(ns)
    census = latticegen.codim_census(poly)
    total = sum(census.values())
    print(f"lattice points: {total}")
    for c in sorted(census):
        print(f"  codim {c}: {census[c]}")
    latticegen.require_lattice_hypotheses(poly, "weighted counting")
    count = latticegen.census_weight_y(census)
    if w is None:
        print(f"weighted count: {latticegen.format_census(census)}")
        print(f"reduced: {count}")
    else:
        print(f"weighted count at y = {w.y}: "
              f"{_maybe_decimal(count(w.y), ns.decimal)}")
    return 0


def _cmd_chi(ns) -> int:
    w = _weight_param(ns)
    parts = _split_items(ns.z, f"--z {ns.z!r}")
    z = tuple(_parse_fraction(p, "z coordinate") for p in parts)
    if any(a == 0 for a in z):
        raise InputError("z coordinates must be nonzero")
    poly = _load_and_describe(ns)
    if len(z) != poly.dim:
        raise InputError(
            f"--z needs {poly.dim} comma-separated rationals, got {len(z)}"
        )
    report = latticegen.chi_y_check(poly, w, z)
    print(f"y = {w.y}, z = {fmt_point(z)}")
    print(f"vertex sum:  {_maybe_decimal(report.lhs, ns.decimal)}")
    print(f"lattice sum: {_maybe_decimal(report.rhs, ns.decimal)}")
    if not report.equal:
        print("check: FAIL (vertex and lattice sums disagree)")
        return 1
    print("check: PASS")
    return 0


def _cmd_brion(ns) -> int:
    poly = _load_and_describe(ns)
    report = latticegen.brion_check(poly)
    print(f"vertex terms: {len(poly.vertices)}")
    print(f"weighted lattice sum: {latticegen.format_lattice_sum(report.lattice_sum)}")
    if not report.equal:
        print("check: FAIL (vertex sum differs from lattice sum)")
        return 1
    print("check: PASS (cross-multiplied equality of both routes)")
    return 0


def _cmd_series(ns) -> int:
    if ns.order < 0:
        raise InputError("--order must be nonnegative")
    k = ns.order
    y = None
    if ns.y is not None:
        y = _parse_fraction(ns.y, "series parameter y")
        if y == -1:
            raise InputError("series family undefined at y = -1")
    todd = series.todd_series(k)
    lhat = series.lhat_series(k)
    print(f"order: {k}")
    print(f"todd:        {todd}")
    print("todd coefficients: " + ", ".join(str(c) for c in todd.coeffs))
    print(f"half-angle:  {lhat}")
    print("half-angle coefficients: " + ", ".join(str(c) for c in lhat.coeffs))
    print(f"family*(1+y): {series.family_cleared(todd)}")
    if y is not None:
        print(f"family at y = {y}: {series.family_at(todd, y)}")
    checks = series.check_identities(todd, lhat)
    failed = [name for name, ok in checks.items() if not ok]
    for name, ok in checks.items():
        print(f"  {name}: {'ok' if ok else 'FAIL'}")
    if failed:
        print(f"check: FAIL ({len(failed)}/{len(checks)} identities)")
        return 1
    print(f"check: PASS ({len(checks)}/{len(checks)} identities)")
    return 0


def _cmd_svg(ns) -> int:
    if ns.margin < 0:
        raise InputError("--margin must be nonnegative")
    w = _weight_param(ns)
    poly, source, digest = _load_polytope(ns)
    if poly.dim != 2:
        raise InputError(f"svg needs a 2-dimensional polytope, got dim {poly.dim}")
    xi = find_polarizing(poly, seed=ns.seed)
    # the weight labels at a long --y can pass the digit limit
    with _digit_limit():
        text = svgfig.render_svg(poly, xi, w, ns.margin)
    if ns.out == "-":
        print(text)
    else:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise InputError(f"cannot write {ns.out}: {e}") from e
        print("command: svg")
        print(f"input: {source} (sha256 {digest})")
        print(f"wrote {ns.out}")
    return 0


# -- parser ---------------------------------------------------------------


def _shared(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring an argument that several subcommands share."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Building it costs about as much as a small job, and main is called
    many times in one process by the tests and the benchmark; parsing
    leaves the parser unchanged, so one instance serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="polarcount",
        description=(
            "Exact weighted polar decompositions of simple polytopes and "
            "weighted lattice-point counts."
        ),
    )
    source = _shared("file", nargs="?", help="polytope JSON file")
    source.add_argument("--builtin", metavar="NAME[:ARGS]", help=_BUILTIN_HELP)
    seed = _shared("--seed", type=int, default=1, help="polarizing vector seed")
    symbolic_y = _shared("--y", default=None,
                         help="weight parameter (default: symbolic in y)")
    decimal = _shared("--decimal", type=int, default=None, metavar="K",
                      help="also print a K-digit decimal approximation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vertices", parents=[source],
                       help="enumerate vertices and edge directions")
    p.set_defaults(run=_cmd_vertices)

    p = sub.add_parser(
        "decompose", parents=[source, seed, symbolic_y],
        help="check the signed cone decomposition of the weight function")
    p.add_argument("--random-points", type=int, default=20, metavar="N",
                   help="extra random sample points (default 20)")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("count", parents=[source, symbolic_y, decimal],
                       help="weighted lattice-point count")
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser(
        "chi", parents=[source, decimal],
        help="evaluate both sides of the character identity at a point")
    p.add_argument("--y", required=True, help="weight parameter")
    p.add_argument("--z", required=True, help="comma-separated rational coordinates")
    p.set_defaults(run=_cmd_chi)

    p = sub.add_parser(
        "brion", parents=[source],
        help="compare the vertex generating-function sum with the lattice sum")
    p.set_defaults(run=_cmd_brion)

    p = sub.add_parser("series", help="series family and its identities")
    p.add_argument("--order", type=int, default=8, help="truncation order")
    p.add_argument("--y", default=None, help="also print the family at this y")
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("svg", parents=[source, seed],
                       help="draw a 2-d polytope with cones and weights")
    p.add_argument("--y", default="0", help="weight parameter for labels")
    p.add_argument("--margin", type=int, default=2, help="lattice margin")
    p.add_argument("--out", default="-", help="output file, or - for stdout (default)")
    p.set_defaults(run=_cmd_svg)
    return parser


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    ns = build_parser().parse_args(_attach_negative_values(args))
    start = time.monotonic()
    try:
        if ns.command != "svg":
            # svg may stream the image itself to stdout; keep that clean
            print(f"command: {ns.command}")
        code = ns.run(ns)
        # a reader that is gone (`| head -1`) must fail here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the interpreter's
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed", file=sys.stderr)
        return 2
    except (
        InputError,
        PolytopeError,
        PolytopeFormatError,
        PolarizationError,
        latticegen.HypothesisError,
        latticegen.PoleError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

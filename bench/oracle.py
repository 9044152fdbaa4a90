"""Exact expected outputs, derived without calling the program.

Each factory returns a check(stdout, stderr, code) that gives None when
the job's output is right and a one-line reason when it is not.  Counts
and censuses come from the families' closed forms, weighted values from
Fraction arithmetic over the families' own lattice points, and the
series coefficients from Bernoulli numbers.  Nothing here imports
polarcount.  A polytope argument is a workloads.Polytope.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Optional


class Mismatch(Exception):
    """The output differs from the expected one."""


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _checked(body):
    """Wrap body(lines, stderr) so exit code 0 and a Mismatch become a reason."""

    def check(stdout: str, stderr: str, code) -> Optional[str]:
        if code != 0:
            return f"exit code {code}, expected 0: {stderr.strip()[-200:]}"
        try:
            body(stdout.splitlines(), stderr)
        except Mismatch as e:
            return str(e)
        return None

    return check


def _line(lines, prefix: str) -> str:
    hits = [ln for ln in lines if ln.startswith(prefix)]
    _expect(len(hits) == 1, f"expected one line starting {prefix!r}, got {len(hits)}")
    return hits[0][len(prefix):]


class Facts(NamedTuple):
    vertices: int
    lattice_points: int


# vertex and lattice-point counts of the example files under polytopes/
ZOO_FACTS = {
    "halfsquare": Facts(4, 4),
    "square": Facts(4, 4),
    "trapezoid": Facts(4, 5),
    "triangle-nonregular": Facts(3, 4),
}


def facts(target) -> Facts:
    """Facts of an example file (by name) or of a generated polytope."""
    if isinstance(target, str):
        return ZOO_FACTS[target]
    return Facts(len(target.vertices()), sum(target.census().values()))


# -- polynomial parsing ----------------------------------------------------


def _strip_parens(text: str) -> str:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1]
    return text


def _signed_terms(text: str):
    """Split 'a + b - c' (the program's sum format) into (sign, term) pairs."""
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        yield sign, tok
        sign = 1


def parse_poly(text: str, var: str) -> dict[int, Fraction]:
    """'3*y^2 - y + 1/2' -> {2: 3, 1: -1, 0: 1/2}; var is 'y' or 'x'."""
    out: dict[int, Fraction] = {}
    for sign, tok in _signed_terms(_strip_parens(text)):
        if var in tok:
            coeff, _, power = tok.partition(var)
            coeff, k = coeff.rstrip("*") or "1", int(power[1:]) if power else 1
        else:
            coeff, k = tok, 0
        out[k] = out.get(k, Fraction(0)) + sign * Fraction(coeff)
    return {k: c for k, c in out.items() if c}


def _top_level_split(text: str, sep: str) -> list[str]:
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


_ZVAR = re.compile(r"^z(\d*)(?:\^(-?\d+))?$")


def parse_laurent(text: str, n: int) -> dict[tuple, dict[int, Fraction]]:
    """The program's LaurentPoly format -> {exponent: y-polynomial}."""
    out = {}
    for term in _top_level_split(text, " + "):
        expo = [0] * n
        coeff = {0: Fraction(1)}
        for factor in _top_level_split(term, "*"):
            m = _ZVAR.match(factor)
            if m:
                expo[int(m.group(1) or 1) - 1] += int(m.group(2) or 1)
            else:
                coeff = parse_poly(factor, "y")
        _expect(tuple(expo) not in out, f"repeated monomial {term!r}")
        out[tuple(expo)] = coeff
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def one_plus_y_pow(k: int) -> dict[int, Fraction]:
    return {i: Fraction(comb(k, i)) for i in range(k + 1)}


def _fmt_point(x) -> str:
    return "(" + ", ".join(str(Fraction(a)) for a in x) + ")"


def _parse_point(text: str) -> tuple:
    return tuple(Fraction(a) for a in text.strip("()").split(", "))


# -- per-command checks ----------------------------------------------------


def vertices(poly):
    expected = sorted(tuple(Fraction(a) for a in v) for v in poly.vertices())
    m = len(poly.facets())

    def body(lines, _err):
        _expect(lines[0] == "command: vertices", "missing command line")
        _expect(
            _line(lines, "polytope: ")
            == f"dim {poly.dim}, {m} facets, {len(expected)} vertices, regular, integral",
            "polytope summary line differs",
        )
        pts = []
        for i, ln in enumerate(ln for ln in lines if ln.startswith("vertex ")):
            head, _, rest = ln.partition(": ")
            _expect(head == f"vertex {i}", f"vertex lines out of order at {head!r}")
            pts.append(_parse_point(rest.split("  ")[0]))
        _expect(sorted(pts) == expected, "vertex set differs from the closed form")

    return _checked(body)


def decompose(target, y: Optional[str]):
    want = facts(target)
    mode = "symbolically in y" if y is None else f"at y = {Fraction(y)}"
    last = re.compile(r"^check: PASS \((\d+)/(\d+) points agree (.*)\)$")

    def body(lines, _err):
        _expect(lines[0] == "command: decompose", "missing command line")
        cones = sum(1 for ln in lines if re.match(r"^vertex \d+: flips ", ln))
        _expect(cones == want.vertices, f"{cones} cones, expected {want.vertices}")
        m = last.match(lines[-1])
        _expect(m is not None, f"last line is {lines[-1]!r}, not a PASS")
        agree, total, got_mode = m.groups()
        _expect(agree == total and int(total) >= want.vertices, "not every point agrees")
        _expect(got_mode == mode, f"checked {got_mode!r}, expected {mode!r}")

    return _checked(body)


def format_census(census: dict[int, int]) -> str:
    parts = []
    for c, k in sorted(census.items()):
        parts.append(str(k) if c == 0 else f"{k}/(1+y)" if c == 1 else f"{k}/(1+y)^{c}")
    return " + ".join(parts)


def count(poly, y: Optional[str]):
    census = poly.census()
    n = poly.dim

    def body(lines, _err):
        _expect(lines[0] == "command: count", "missing command line")
        _expect(_line(lines, "lattice points: ") == str(sum(census.values())),
                "lattice point total differs from the closed form")
        got = {int(c): int(k) for c, k in (
            re.match(r"^  codim (\d+): (\d+)$", ln).groups()
            for ln in lines if ln.startswith("  codim "))}
        _expect(got == census, f"census {got} differs from the closed form {census}")
        if y is None:
            _expect(_line(lines, "weighted count: ") == format_census(census),
                    "symbolic weighted count differs")
            reduced = _line(lines, "reduced: ")
            m = re.match(r"^(.*)/\(1\+y\)(?:\^(\d+))?$", reduced)
            num, k = (m.group(1), int(m.group(2) or 1)) if m else (reduced, 0)
            num = parse_poly(num, "y")
            # num / (1+y)^k must equal sum_c census[c] (1+y)^(n-c) / (1+y)^n
            want = {}
            for c, cnt in census.items():
                for i, a in one_plus_y_pow(n - c).items():
                    want[i] = want.get(i, 0) + cnt * a
            _expect(_poly_mul(num, one_plus_y_pow(n)) == _poly_mul(want, one_plus_y_pow(k)),
                    "reduced weighted count is not the census sum")
            at_minus_one = sum(c * (-1) ** i for i, c in num.items())
            _expect(k == 0 or at_minus_one != 0, "reduced form still divisible by 1+y")
        else:
            w = 1 / (1 + Fraction(y))
            value = sum(cnt * w**c for c, cnt in census.items())
            _expect(_line(lines, f"weighted count at y = {Fraction(y)}: ") == str(value),
                    "weighted count at y differs")

    return _checked(body)


def chi(poly, y: str, z: str):
    zs = tuple(Fraction(a) for a in z.split(","))
    w = 1 / (1 + Fraction(y))
    value = None

    def body(lines, _err):
        nonlocal value
        if value is None:
            value = Fraction(0)
            for p, c in poly.points():
                term = w**c
                for zi, e in zip(zs, p):
                    term *= zi**e
                value += term
        _expect(lines[0] == "command: chi", "missing command line")
        _expect(_line(lines, "y = ") == f"{Fraction(y)}, z = {_fmt_point(zs)}",
                "evaluation point line differs")
        _expect(Fraction(_line(lines, "vertex sum:  ")) == value, "vertex sum differs")
        _expect(Fraction(_line(lines, "lattice sum: ")) == value, "lattice sum differs")
        _expect(lines[-1] == "check: PASS", f"last line is {lines[-1]!r}")

    return _checked(body)


def brion(poly):
    n = poly.dim
    den = "(1+y)" if n == 1 else f"(1+y)^{n}"
    expected = None

    def body(lines, _err):
        nonlocal expected
        if expected is None:
            expected = {p: one_plus_y_pow(n - c) for p, c in poly.points()}
        _expect(lines[0] == "command: brion", "missing command line")
        _expect(_line(lines, "vertex terms: ") == str(len(poly.vertices())),
                "vertex term count differs")
        text = _line(lines, "weighted lattice sum: ")
        _expect(text.startswith("(") and text.endswith(f") / {den}"),
                "weighted lattice sum is not (poly) / (1+y)^n")
        got = parse_laurent(text[1: -len(f") / {den}")], n)
        _expect(got == expected, "weighted lattice sum differs from the lattice points")
        _expect(lines[-1] == "check: PASS (cross-multiplied equality of both routes)",
                f"last line is {lines[-1]!r}")

    return _checked(body)


def bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m with B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def series(order: int, y: Optional[str]):
    b = bernoulli(order)
    todd = [b[k] / factorial(k) for k in range(order + 1)]
    if order >= 1:
        todd[1] = -todd[1]  # x/(1 - e^-x) takes B_1 = +1/2
    half = [t if k % 2 == 0 else Fraction(0) for k, t in enumerate(todd)]

    def body(lines, _err):
        _expect(lines[0] == "command: series", "missing command line")
        _expect(_line(lines, "order: ") == str(order), "order line differs")
        got = [Fraction(a) for a in _line(lines, "todd coefficients: ").split(", ")]
        _expect(got == todd, "Todd coefficients differ from the Bernoulli numbers")
        got = [Fraction(a) for a in _line(lines, "half-angle coefficients: ").split(", ")]
        _expect(got == half, "half-angle coefficients differ from the Bernoulli numbers")
        if y is not None:
            yv = Fraction(y)
            fam = parse_poly(_line(lines, f"family at y = {yv}: "), "x")
            want = {k: t * (1 + yv * (-1) ** k) / (1 + yv) for k, t in enumerate(todd)}
            _expect(fam == {k: c for k, c in want.items() if c},
                    "family coefficients at y differ")
        _expect(lines[-1] == "check: PASS (9/9 identities)", f"last line is {lines[-1]!r}")

    return _checked(body)


def svg(target):
    want = facts(target)

    def body(_lines, _err):
        text = "\n".join(_lines)
        _expect(text.startswith("<svg ") and text.endswith("</svg>"), "not an SVG document")
        dots = text.count(' r="4" ')
        _expect(dots == want.lattice_points, f"{dots} lattice points drawn, expected {want.lattice_points}")
        signs = text.count('font-weight="bold"')
        _expect(signs == want.vertices, f"{signs} cone signs drawn, expected {want.vertices}")

    return _checked(body)


def rejected(reason: str):
    """The job must exit 2 and say why on stderr."""

    def check(_stdout: str, stderr: str, code) -> Optional[str]:
        if code != 2:
            return f"exit code {code}, expected 2 ({reason})"
        if not any(ln.startswith("error: ") and reason in ln for ln in stderr.splitlines()):
            return f"stderr does not give the reason {reason!r}"
        return None

    return check

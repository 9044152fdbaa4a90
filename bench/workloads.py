"""Seeded inputs and job lists for the three benchmark workloads.

Every polytope the benchmark feeds to the program is a member of a
closed-form family (cube, dilated simplex, prism, trapezoid) or the
image of one under a unimodular integer map.  The family knows its
facets, vertices, lattice points and codimension census without asking
the program, which is what lets the oracle check every output exactly.

A unimodular map keeps the polytope regular and integral and maps
lattice points to lattice points face by face, so the census of an
image equals the census of its family; only the integer box around it
grows, which changes how much of the box enumeration keeps.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import comb
from typing import Callable

import oracle

Matrix = tuple[tuple[int, ...], ...]


# -- closed-form families ------------------------------------------------


@dataclass(frozen=True)
class Family:
    """cube(n, s), simplex(n, d), prism(d, h) or trapezoid(w, h)."""

    kind: str
    params: tuple[int, ...]

    @property
    def dim(self) -> int:
        if self.kind in ("cube", "simplex"):
            return self.params[0]
        return 3 if self.kind == "prism" else 2

    @property
    def builtin(self) -> str:
        """The program's --builtin spelling of this member."""
        return f"{self.kind}:" + ",".join(str(p) for p in self.params)

    def facets(self) -> list[tuple[tuple[int, ...], int]]:
        """(normal, offset) pairs of {x : <normal, x> >= offset}."""
        n = self.dim

        def unit(i, sign=1):
            return tuple(sign if k == i else 0 for k in range(n))

        if self.kind == "cube":
            s = self.params[1]
            return [f for i in range(n) for f in ((unit(i), 0), (unit(i, -1), -s))]
        if self.kind == "simplex":
            d = self.params[1]
            return [(unit(i), 0) for i in range(n)] + [((-1,) * n, -d)]
        if self.kind == "prism":
            d, h = self.params
            return [
                ((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -d),
                ((0, 0, 1), 0), ((0, 0, -1), -h),
            ]
        w, h = self.params
        return [((1, 0), 0), ((0, 1), 0), ((0, -1), -h), ((-1, -1), -w)]

    def vertices(self) -> list[tuple[int, ...]]:
        n = self.dim
        if self.kind == "cube":
            return list(product((0, self.params[1]), repeat=n))
        if self.kind == "simplex":
            d = self.params[1]
            return [(0,) * n] + [
                tuple(d if k == i else 0 for k in range(n)) for i in range(n)
            ]
        if self.kind == "prism":
            d, h = self.params
            return [
                (a, b, c) for (a, b) in ((0, 0), (d, 0), (0, d)) for c in (0, h)
            ]
        w, h = self.params
        return [(0, 0), (w, 0), (0, h), (w - h, h)]

    def points(self):
        """Every lattice point with the codimension of its smallest face."""
        n = self.dim
        if self.kind == "cube":
            s = self.params[1]
            for p in product(range(s + 1), repeat=n):
                yield p, sum(1 for a in p if a in (0, s))
        elif self.kind == "simplex":
            d = self.params[1]
            for p in product(range(d + 1), repeat=n):
                total = sum(p)
                if total <= d:
                    yield p, p.count(0) + (total == d)
        elif self.kind == "prism":
            d, h = self.params
            for a in range(d + 1):
                for b in range(d + 1 - a):
                    for c in range(h + 1):
                        codim = (a == 0) + (b == 0) + (a + b == d) + (c in (0, h))
                        yield (a, b, c), codim
        else:
            w, h = self.params
            for y in range(h + 1):
                for x in range(w - y + 1):
                    yield (x, y), (x == 0) + (y == 0) + (y == h) + (x + y == w)

    def census(self) -> dict[int, int]:
        """Lattice points per face codimension, from closed forms."""
        n = self.dim
        if self.kind == "cube":
            s = self.params[1]
            raw = {c: comb(n, c) * (s - 1) ** (n - c) * 2**c for c in range(n + 1)}
        elif self.kind == "simplex":
            d = self.params[1]
            raw = {c: comb(n + 1, c) * comb(d - 1, n - c) for c in range(n + 1)}
        elif self.kind == "prism":
            d, h = self.params
            tri = {c: comb(3, c) * comb(d - 1, 2 - c) for c in range(3)}
            seg = {0: h - 1, 1: 2}
            raw = {}
            for (a, x), (b, y) in product(tri.items(), seg.items()):
                raw[a + b] = raw.get(a + b, 0) + x * y
        else:
            raw = {}
            for _, c in self.points():
                raw[c] = raw.get(c, 0) + 1
        return {c: k for c, k in sorted(raw.items()) if k}

    def coordinate_symmetries(self) -> list[tuple[int, ...]]:
        """Coordinate permutations that map the family member to itself."""
        if self.kind in ("cube", "simplex"):
            return list(permutations(range(self.dim)))
        if self.kind == "prism":
            return [(0, 1, 2), (1, 0, 2)]
        return [(0, 1)]


# -- unimodular images -------------------------------------------------


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def apply(a: Matrix, x) -> tuple[int, ...]:
    return tuple(sum(r * xi for r, xi in zip(row, x)) for row in a)


def relabel(x, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """P_sigma x: coordinate i of x becomes coordinate sigma[i]."""
    out = [0] * len(x)
    for i, k in enumerate(sigma):
        out[k] = x[i]
    return tuple(out)


def shear(n: int, i: int, j: int, c: int) -> Matrix:
    """x_i += c * x_j; its inverse is shear(n, i, j, -c)."""
    return tuple(
        tuple(int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n))
        for r in range(n)
    )


def shear_chain(n: int) -> list[tuple[int, int, int]]:
    """The fixed shear pattern every image of dimension n is built from.

    Alternating signs make the integer box grow about twofold per
    sheared coordinate without letting coordinates blow up in high
    dimension.
    """
    return [(i, i + 1, -1 if i % 2 == 0 else 1) for i in range(n - 1)]


@dataclass(frozen=True)
class Polytope:
    """A family member under the unimodular map `matrix` (identity: itself).

    Work done on an image depends on the shear pattern and on the
    family, not on the seed: the seed only relabels coordinates through
    one of the family's own symmetries, so every seed sees images of
    the same difficulty and the figures stay comparable across seeds.
    """

    family: Family
    matrix: Matrix
    inverse: Matrix
    name: str
    sigma: tuple[int, ...]

    @property
    def is_image(self) -> bool:
        return self.matrix != identity(self.family.dim)

    @property
    def dim(self) -> int:
        return self.family.dim

    def facets(self) -> list[tuple[tuple[int, ...], int]]:
        """The image's facets, listed as P_sigma lists those of S(family).

        P_sigma permutes the family's facets, so relabelling each family
        normal by sigma before mapping it lists the same facets in the
        order that puts facet k of this image on facet k of S(family)
        under P_sigma.  Membership tests stop at the first violated
        facet, so without this order the cost of enumerating an image
        would depend on sigma (by up to 25% for cube:3,6).
        """
        inv_t = transpose(self.inverse)
        return [(apply(inv_t, relabel(u, self.sigma)), b) for u, b in self.family.facets()]

    def vertices(self) -> list[tuple[int, ...]]:
        return [apply(self.matrix, v) for v in self.family.vertices()]

    def points(self):
        for p, c in self.family.points():
            yield apply(self.matrix, p), c

    def census(self) -> dict[int, int]:
        return self.family.census()

    def to_json(self) -> str:
        facets = [list(u) + [b] for u, b in self.facets()]
        return json.dumps({"dim": self.dim, "facets": facets}) + "\n"


def original(family: Family) -> Polytope:
    n = family.dim
    return Polytope(family, identity(n), identity(n), family.builtin, tuple(range(n)))


def image(family: Family, rng: random.Random) -> Polytope:
    """P_sigma S P_sigma^-1 applied to the family, sigma a seeded symmetry."""
    n = family.dim
    sigma = rng.choice(family.coordinate_symmetries())
    matrix, inverse = identity(n), identity(n)
    # relabelling the shear's coordinates by sigma is conjugation by P_sigma
    for i, j, c in shear_chain(n):
        matrix = matmul(shear(n, sigma[i], sigma[j], c), matrix)
        inverse = matmul(inverse, shear(n, sigma[i], sigma[j], -c))
    params = "-".join(str(p) for p in family.params)
    tag = "".join(str(k) for k in sigma)
    return Polytope(family, matrix, inverse, f"{family.kind}{params}-img{tag}", sigma)


# -- seeded parameters ---------------------------------------------------

# Proper fractions of one-digit parts keep the Fraction sizes, and so
# the cost of a job, about the same whichever value the seed picks: an
# integer y such as 0 or 1 makes a count job up to 20% cheaper.  -1 is
# a pole.
Y_CHOICES = ("1/2", "2/3", "3/2", "-1/2", "1/3", "3/4", "5/3", "-2/3", "2/5", "4/3")
PRIMES = (2, 3, 5, 7, 11, 13)


def draw_y(rng: random.Random) -> str:
    return rng.choice(Y_CHOICES)


def draw_z(rng: random.Random, poly: Polytope) -> str:
    """Coordinates +-p/q from 2n distinct primes, each used once.

    By unique factorisation z^a is never 1 for a nonzero integer vector
    a, so no vertex term of any polytope has a pole at z.  Coordinate
    sigma[i] gets the i-th prime pair, so z^(image point) has the same
    size for every relabelling sigma and only the signs are seeded.
    """
    z = [None] * poly.dim
    for i, k in enumerate(poly.sigma):
        sign = rng.choice((1, -1))
        z[k] = str(Fraction(sign * PRIMES[2 * i], PRIMES[2 * i + 1]))
    return ",".join(z)


# -- jobs --------------------------------------------------------------


@dataclass
class Job:
    """One `polarcount` command line and what its output must be."""

    argv: list[str]
    rung: str
    check: Callable = field(repr=False)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


ZOO_DIR = "polytopes"


def smoke_jobs() -> list[Job]:
    """One small job per subcommand: the warm-up, and the filler that
    lets every per-layer figure be measured on every workload."""
    square = original(Family("cube", (2, 2)))
    trapezoid = original(Family("trapezoid", (2, 1)))
    return [
        Job(["vertices", "--builtin", "simplex:2,1"], "smoke vertices",
            oracle.vertices(original(Family("simplex", (2, 1))))),
        Job(["decompose", f"{ZOO_DIR}/square.json"], "smoke decompose",
            oracle.decompose("square", None)),
        Job(["count", "--builtin", "cube:2,2"], "smoke count", oracle.count(square, None)),
        Job(["chi", "--builtin", "cube:2,2", "--y=1", "--z=2/3,5/7"], "smoke chi",
            oracle.chi(square, "1", "2/3,5/7")),
        Job(["brion", "--builtin", "trapezoid:2,1"], "smoke brion", oracle.brion(trapezoid)),
        Job(["series", "--order", "6"], "smoke series", oracle.series(6, None)),
        Job(["svg", "--builtin", "trapezoid:2,1"], "smoke svg", oracle.svg(trapezoid)),
    ]


class Inputs:
    """Writes image polytopes as JSON files and hands out their paths.

    Paths depend only on the workload, the seed and the polytope, so
    repeated runs of one seed print byte-identical output.  Files are
    replaced atomically: two runs of one seed write the same bytes.
    """

    def __init__(self, workload: str, seed: int):
        self.dir = os.path.join("bench", "_out", "inputs", f"{workload}-seed{seed}")
        os.makedirs(self.dir, exist_ok=True)

    def arg(self, poly: Polytope) -> list[str]:
        if not poly.is_image:
            return ["--builtin", poly.family.builtin]
        path = os.path.join(self.dir, poly.name + ".json")
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(poly.to_json())
        os.replace(tmp, path)
        return [path]


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The seeded, shuffled job list of one pass of a workload.

    Paths are relative: run from the root of the checkout.

    Subcommands the workload does not exercise get their smoke job, so
    every layer is measured on every workload; these take well under 1%
    of a pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workload, seed)
    builders = {"lattice": _lattice, "geometry": _geometry, "genfun": _genfun}
    jobs = builders[workload](rng, inputs)
    present = {j.command for j in jobs}
    jobs += [j for j in smoke_jobs() if j.command not in present]
    rng.shuffle(jobs)
    return jobs


# Rungs step the dilation 1:2:3.  The tops stay below about 0.5 s a job
# so that a 30 s run repeats every job five or six times (see
# run.job_times); count simplex:3,20 alone takes 1.4 s.
LATTICE_LADDER = (
    Family("simplex", (2, 15)), Family("simplex", (2, 30)), Family("simplex", (2, 45)),
    Family("simplex", (3, 4)), Family("simplex", (3, 8)), Family("simplex", (3, 12)),
    Family("cube", (3, 3)), Family("cube", (3, 6)),
    Family("prism", (4, 3)), Family("prism", (8, 3)),
)


def _lattice(rng, inputs: Inputs) -> list[Job]:
    """count (symbolic and at a seeded y) and chi on every rung.

    The family itself gets the symbolic count; its seeded image gets
    the count at a concrete y and the two-sided chi evaluation.
    """
    jobs = []
    for fam in LATTICE_LADDER:
        orig, img = original(fam), image(fam, rng)
        jobs.append(Job(["count", *inputs.arg(orig)], f"count {fam.builtin}",
                        oracle.count(orig, None)))
        y = draw_y(rng)
        jobs.append(Job(["count", *inputs.arg(img), f"--y={y}"],
                        f"count {fam.builtin} image y", oracle.count(img, y)))
        y, z = draw_y(rng), draw_z(rng, img)
        jobs.append(Job(["chi", *inputs.arg(img), f"--y={y}", f"--z={z}"],
                        f"chi {fam.builtin} image", oracle.chi(img, y, z)))
    return jobs


VERTEX_LADDER = (
    Family("cube", (4, 1)), Family("cube", (5, 1)), Family("cube", (6, 1)),
    Family("simplex", (5, 1)), Family("simplex", (6, 1)), Family("simplex", (8, 1)),
)
DECOMPOSE_BUILTINS = (
    Family("cube", (3, 1)), Family("cube", (4, 1)),
    Family("simplex", (4, 2)), Family("prism", (1, 1)),
)
ZOO = ("halfsquare", "square", "trapezoid", "triangle-nonregular")


def _geometry(rng, inputs: Inputs) -> list[Job]:
    """Construction, polarization and the pointwise check; no enumeration.

    vertices on the cube and simplex ladders and one image of each;
    decompose symbolically and at a concrete y on small builtins and
    the example files; svg on 2-d inputs; the two expected rejections.
    """
    jobs = []
    for fam in VERTEX_LADDER:
        for poly in (original(fam), image(fam, rng)):
            tag = " image" if poly.is_image else ""
            jobs.append(Job(["vertices", *inputs.arg(poly)],
                            f"vertices {fam.builtin}{tag}", oracle.vertices(poly)))
    targets = [(["--builtin", f.builtin], f.builtin, original(f))
               for f in DECOMPOSE_BUILTINS]
    targets += [([f"{ZOO_DIR}/{z}.json"], z, z) for z in ZOO]
    for arg, label, target in targets:
        seed = str(rng.randint(1, 3))
        jobs.append(Job(["decompose", *arg, "--seed", seed],
                        f"decompose {label}", oracle.decompose(target, None)))
        seed, y = str(rng.randint(1, 3)), draw_y(rng)
        jobs.append(Job(["decompose", *arg, "--seed", seed, f"--y={y}"],
                        f"decompose {label} y", oracle.decompose(target, y)))
    trapezoid = original(Family("trapezoid", (2, 1)))
    svg_inputs = [(["--builtin", "trapezoid"], "trapezoid", trapezoid)]
    svg_inputs += [([f"{ZOO_DIR}/{z}.json"], z, z) for z in ZOO]
    for fam in (Family("simplex", (2, 3)), Family("cube", (2, 3))):
        img = image(fam, rng)
        svg_inputs.append((inputs.arg(img), f"{fam.builtin} image", img))
    for arg, label, target in svg_inputs:
        argv = ["svg", *arg, "--seed", str(rng.randint(1, 3)), f"--y={draw_y(rng)}"]
        jobs.append(Job(argv, f"svg {label}", oracle.svg(target)))
    jobs.append(Job(["vertices", f"{ZOO_DIR}/octahedron.json"], "reject octahedron",
                    oracle.rejected("lies on 4 facets")))
    jobs.append(Job(["decompose", f"{ZOO_DIR}/octahedron.json"], "reject octahedron",
                    oracle.rejected("lies on 4 facets")))
    jobs.append(Job(["count", f"{ZOO_DIR}/triangle-nonregular.json"],
                    "reject triangle-nonregular",
                    oracle.rejected("requires a regular polytope")))
    return jobs


BRION_LADDER = (
    Family("cube", (2, 2)), Family("cube", (3, 2)), Family("cube", (4, 2)),
    Family("simplex", (2, 8)), Family("simplex", (2, 16)), Family("simplex", (2, 32)),
    Family("simplex", (3, 2)), Family("simplex", (3, 4)),
    Family("prism", (1, 1)), Family("trapezoid", (2, 1)),
)
SERIES_ORDERS = (20, 30, 40)


def _genfun(rng, inputs: Inputs) -> list[Job]:
    """brion on every rung and its image; the series family at three orders."""
    jobs = []
    for fam in BRION_LADDER:
        for poly in (original(fam), image(fam, rng)):
            tag = " image" if poly.is_image else ""
            jobs.append(Job(["brion", *inputs.arg(poly)],
                            f"brion {fam.builtin}{tag}", oracle.brion(poly)))
    for order in SERIES_ORDERS:
        jobs.append(Job(["series", "--order", str(order)], f"series {order}",
                        oracle.series(order, None)))
        y = draw_y(rng)
        jobs.append(Job(["series", "--order", str(order), f"--y={y}"],
                        f"series {order} y", oracle.series(order, y)))
    return jobs


WORKLOADS = ("lattice", "geometry", "genfun")

"""Layer spans and work counters, recorded from outside the program.

install() replaces each listed public function of polarcount with a
wrapper that records a span (job, name, start, end, parent) in memory,
in every namespace that binds the function: modules import several of
them by name (cli and latticegen both hold their own reference to
polarize_cones and check_decomposition_at), and classes alias methods
(LaurentPoly.__rmul__ is LaurentPoly.__mul__).  uninstall() puts the
originals back.  A layer's self time is the duration of its spans
minus the time covered by their child spans.

linalg.dot and Polytope.contains are left unwrapped: a single count job
calls them tens of thousands of times, so wrapping them would swamp the
trace; their cost shows in their callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from math import comb, prod


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.job = -1
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (self.job, name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def peak(self, key: str, value: int):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def self_times(self) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
        """Seconds of self time per span name, in total and per job."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        per_job: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (job, name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start - child
            per_job[job][name] += end - start - child
        return dict(total), {j: dict(d) for j, d in per_job.items()}


# -- counters, computed from arguments and results -----------------------


def _polytope(t: Tracer, args, _result):
    poly = args[0]
    t.counts["polytope.calls"] += 1
    t.counts["polytope.subsets_tried"] += comb(len(poly.facets), poly.dim)
    t.counts["polytope.vertices"] += len(poly.vertices)


def _cones(t: Tracer, _args, result):
    t.counts["polarize.cones"] += len(result)


def _check(t: Tracer, args, _result):
    t.counts["weights.points_checked"] += 1
    t.counts["weights.cone_tests"] += len(args[1])


def _enumerate(t: Tracer, args, result):
    lo, hi = args[0].integer_box()
    t.counts["latticegen.enumerations"] += 1
    t.counts["latticegen.box_scanned"] += prod(b - a + 1 for a, b in zip(lo, hi))
    t.counts["latticegen.points_kept"] += len(result)


def _laurent_mul(t: Tracer, args, result):
    if result is NotImplemented:
        return
    a, b = args
    t.counts["laurent.mul_calls"] += 1
    t.counts["laurent.term_products"] += len(a.terms) * len(getattr(b, "terms", (0,)))
    t.peak("laurent.max_terms", len(result.terms))


def _ypoly_mul(t: Tracer, _args, result):
    if result is not NotImplemented:
        t.counts["ypoly.mul_calls"] += 1


def _series_mul(t: Tracer, args, _result):
    a, b = args
    n = len(a.coeffs)
    both = type(b) is type(a)
    t.counts["series.coeff_products"] += n * (n + 1) // 2 if both else n


def _series_inverse(t: Tracer, args, _result):
    n = len(args[0].coeffs)
    t.counts["series.coeff_products"] += n * (n - 1) // 2


def _solve(t: Tracer, _args, _result):
    t.counts["linalg.solves"] += 1


# (module, function or Class.method, span name, counter)
WRAPPED = [
    ("cli", "main", "cli", None),
    ("polytope", "Polytope.__init__", "polytope.construct", _polytope),
    ("polarize", "find_polarizing", "polarize.find", None),
    ("polarize", "polarize_cones", "polarize.cones", _cones),
    ("weights", "sample_points", "weights.sample", None),
    ("weights", "check_decomposition_at", "weights.check", _check),
    ("weights", "check_decomposition", "weights.check", None),
    ("latticegen", "lattice_points", "latticegen.enumerate", _enumerate),
    *[("latticegen", f, "latticegen.enumerate", None) for f in (
        "codim_census", "weighted_count", "weighted_count_y",
        "weighted_sum_poly", "chi_y_lattice_sum")],
    *[("latticegen", f, "latticegen.vertex_terms", None) for f in (
        "vertex_term", "vertex_genfun", "brion_sum", "brion_check")],
    ("latticegen", "chi_y_vertex_sum", "latticegen.chi_vertex", None),
    ("latticegen", "chi_y_check", "latticegen.chi_vertex", None),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _laurent_mul),
    ("laurent", "LaurentPoly.__pow__", "laurent.mul", None),
    ("laurent", "RationalFunction.equivalent", "laurent.equivalent", None),
    ("ypoly", "YPoly.__mul__", "ypoly.mul", _ypoly_mul),
    ("ypoly", "YPoly.__pow__", "ypoly.mul", None),
    *[("ypoly", f"YFrac.{m}", "ypoly.yfrac", None) for m in (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__eq__",
        "__call__", "weight", "cleared")],
    *[("series", f, "series", None) for f in (
        "todd_series", "lhat_series", "hirzebruch_series", "qy_series",
        "qy_series_cleared", "verify_identities", "TruncatedSeries.__add__",
        "TruncatedSeries.scale_argument", "TruncatedSeries.exponential")],
    ("series", "TruncatedSeries.__mul__", "series", _series_mul),
    ("series", "TruncatedSeries.inverse", "series", _series_inverse),
    *[("linalg", f, "linalg.solve", _solve) for f in (
        "solve_linear", "inverse", "det", "rank")],
    ("svgfig", "render_svg", "svgfig.render", None),
]


def _program_namespaces():
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "polarcount" or name.startswith("polarcount."))
    ]


def install(tracer: Tracer) -> list:
    """Wrap every WRAPPED function everywhere it is bound; returns the undo list."""
    undo = []
    namespaces = _program_namespaces()
    for module, qualname, span, count in WRAPPED:
        mod = sys.modules[f"polarcount.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            wrapped = tracer.wrap(raw.__func__ if is_cm else raw, span, count)
            replacement = classmethod(wrapped) if is_cm else wrapped
            owners = [(cls, a) for a, v in list(vars(cls).items()) if v is raw]
        else:
            raw = getattr(mod, qualname)
            replacement = tracer.wrap(raw, span, count)
            owners = [(ns, a) for ns in namespaces for a, v in list(vars(ns).items()) if v is raw]
        for owner, attr in owners:
            undo.append((owner, attr, raw))
            setattr(owner, attr, replacement)
    return undo


def uninstall(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

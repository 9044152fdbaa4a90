"""polarcount benchmark: seeded closed-loop workloads through cli.main.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, one after another

One process, one client, no threads: each job is one cli.main(argv)
call, made only after the previous one returned.  Each job's stdout and
exit code are checked exactly against bench/oracle.py the first time it
runs and against that first output's sha256 on every repeat.  A pass
runs the workload's whole job list once, in a seeded order; passes
repeat until the next one would end after --seconds.  Every job is
timed against a fixed reference loop run just before and just after it
(see reference_seconds), and each job's time is the median over the
passes of that reference-scaled time (see job_times).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics: self time
and work counters of the package's modules, recorded by the wrappers
in bench/tracing.py.  The last line of stdout is one JSON object; a
readable report goes to stderr and a full record to bench/_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "_out"
JOB_BUDGET_S = 60
SETUP_PROBES = 7
# About the reference loop's median time on a 2-core x86-64 VM under Python
# 3.11: reference-scaled times read as milliseconds on that machine.
REFERENCE_MS = 2.5
# The set-up reference probe runs the loop this many times in a fresh
# interpreter, which takes about SETUP_REFERENCE_S on the same machine.
SETUP_REFERENCE_LOOPS = 60
SETUP_REFERENCE_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
COMMANDS = ("vertices", "decompose", "count", "chi", "brion", "series", "svg")
MODULES = ("cli", "polytope", "polarize", "weights", "latticegen",
           "laurent", "ypoly", "series", "linalg", "svgfig")
# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli": None,
    "polytope.construct": "polytope.construct_ms",
    "polarize.find": "polarize.find_ms",
    "polarize.cones": "polarize.cones_ms",
    "weights.sample": "weights.sample_ms",
    "weights.check": "weights.check_ms",
    "latticegen.enumerate": "latticegen.enumerate_ms",
    "latticegen.vertex_terms": "latticegen.vertex_terms_ms",
    "latticegen.chi_vertex": "latticegen.chi_vertex_ms",
    "laurent.mul": "laurent.mul_ms",
    "laurent.equivalent": "laurent.equivalent_ms",
    "ypoly.mul": "ypoly.mul_ms",
    "ypoly.yfrac": "ypoly.yfrac_ms",
    "series": "series.ms",
    "linalg.solve": "linalg.solve_ms",
    "svgfig.render": "svgfig.render_ms",
}
COUNTERS = (
    "polytope.calls", "polytope.subsets_tried", "polytope.vertices",
    "polarize.cones", "weights.points_checked", "weights.cone_tests",
    "latticegen.enumerations", "latticegen.box_scanned", "latticegen.points_kept",
    "laurent.mul_calls", "laurent.term_products", "ypoly.mul_calls",
    "series.coeff_products", "linalg.solves",
)


def per_layer_units() -> dict[str, str]:
    units = {f"cli.{c}_ms": "ms" for c in COMMANDS}
    units.update({m: "ms" for m in SPAN_METRICS.values() if m})
    units.update({c: "count" for c in COUNTERS})
    units.update({
        "laurent.max_terms": "count",
        "polytope.vertex_yield": "ratio",
        "latticegen.keep_ratio": "ratio",
        "trace_overhead": "ratio",
    })
    units.update({f"{m}.share": "ratio" for m in MODULES})
    return units


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that overran JOB_BUDGET_S.

    A BaseException, so no handler in the program can swallow it.
    """


def _on_alarm(_signum, _frame):
    raise JobTimeout


def _reference_work() -> int:
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i, i % 5)] = acc.numerator % 97
    return sum(table.values())


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop (Fraction, tuple and dict work).

    Other tenants of a shared host slow every Python process on it by
    up to 1.6x, in stretches from milliseconds to many minutes, and the
    slowdown is in CPU time too, so neither a job's best repeat nor its
    median over a 30 s run is steady from one run to the next.  A job's
    time over the mean of the reference times just before and after it
    is: both see the same host.  The loop does not touch the program,
    so a faster program lowers the ratio and nothing else does.  The
    collector is off while it runs, so the program's heap cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Result:
    job: workloads.Job
    seconds: float
    reference: float = 0.0

    @property
    def scaled_ms(self) -> float:
        """Job time in reference units: ms on the machine of REFERENCE_MS."""
        return self.seconds / self.reference * REFERENCE_MS


class Runner:
    """Runs jobs through cli.main and checks every output."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[str, tuple[str, int]] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def run(self, job: workloads.Job) -> Result:
        out, err = io.StringIO(), io.StringIO()
        code, crash, seconds = None, None, float(JOB_BUDGET_S)
        self.attempted += 1
        try:
            signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(job.argv)
            finally:
                seconds = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            crash = f"overran the {JOB_BUDGET_S} s job budget"
        except SystemExit as e:
            crash = f"exited through SystemExit({e.code})"
        except Exception:
            crash = "raised " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        reason = crash or self.verify(job, out.getvalue(), err.getvalue(), code)
        if reason:
            self.failures.append({"job": job.key, "reason": reason})
            print(f"FAIL {job.key}: {reason}", file=sys.stderr)
        return Result(job, seconds)

    def verify(self, job, stdout: str, stderr: str, code) -> str | None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        seen = self.digests.get(job.key)
        if seen is not None:
            if seen != (digest, code):
                return "output differs from this job's earlier run"
            return None
        reason = job.check(stdout, stderr, code)
        if reason is None:
            self.digests[job.key] = (digest, code)
        return reason

    def run_pass(self, jobs, tracer: tracing.Tracer | None = None) -> list[Result]:
        """Run every job once, each between two runs of the reference loop."""
        results = []
        before = reference_seconds()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            result = self.run(job)
            after = reference_seconds()
            result.reference = (before + after) / 2
            results.append(result)
            before = after
        return results


def load_program():
    """Import polarcount from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from polarcount import cli
    except ImportError as e:
        raise SystemExit(f"error: cannot import polarcount from {src}: {e}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: polarcount was imported from {cli.__file__}, not {src}")
    return cli


def setup(workload: str, seed: int):
    """Import, input generation and warm-up: what setup_s measures."""
    cli = load_program()
    runner = Runner(cli)
    jobs = workloads.build_jobs(workload, seed)
    runner.run_pass(workloads.smoke_jobs())
    return runner, jobs


def probe_seconds(argv: list[str]) -> float:
    """Wall time of one fresh interpreter running argv to completion."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return took


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters that only set up, SETUP_PROBES times.

    Returns each probe's wall time and its reference-scaled time.  A
    fresh interpreter pays for process start and page faults, which the
    host's other tenants slow more than they slow a running loop, so
    set-up is scaled by a reference probe: a fresh interpreter of this
    script that runs the reference loop SETUP_REFERENCE_LOOPS times
    instead of setting up, run just before and just after each probe.
    """
    script = str(Path(__file__).resolve())
    argv = [sys.executable, script, "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    reference = [sys.executable, script, "--reference-only"]
    times, scaled = [], []
    before = probe_seconds(reference)
    for _ in range(SETUP_PROBES):
        took = probe_seconds(argv)
        after = probe_seconds(reference)
        times.append(took)
        scaled.append(took / ((before + after) / 2) * SETUP_REFERENCE_S)
        before = after
    return times, scaled


def tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 11:
        raise SystemExit(f"error: a pass of {n} jobs is too short for a tail")
    return ordered[n - 11], 100.0 * (n - 10) / n


def job_times(passes: list[list[Result]], pick) -> list[float]:
    """pick(one job's results over the passes), per job in job-list order."""
    return [pick([p[i] for p in passes]) for i in range(len(passes[0]))]


def scaled_median(results: list[Result]) -> float:
    return statistics.median(r.scaled_ms for r in results)


def wall_median(results: list[Result]) -> float:
    return statistics.median(r.seconds * 1000 for r in results)


def timed_passes(seconds: float, run_one) -> list:
    """Call run_one() until the next call would end after `seconds`."""
    start = time.perf_counter()
    out = []
    while True:
        before = time.perf_counter()
        out.append(run_one())
        took = time.perf_counter() - before
        if time.perf_counter() - start + took > seconds:
            return out


def rung_times(results: list[Result], ms) -> dict[str, float]:
    """Median of ms(result) over every run of a rung's jobs, per ladder rung."""
    groups: dict[str, list[float]] = {}
    for r in results:
        groups.setdefault(r.job.rung, []).append(ms(r))
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def timing_metrics(per_job_ms: list[float]) -> tuple[dict[str, float], float]:
    tail_ms, percentile = tail(per_job_ms)
    return {
        "jobs_per_s": len(per_job_ms) / (sum(per_job_ms) / 1000),
        "job_p50_ms": statistics.median(per_job_ms),
        "job_tail_ms": tail_ms,
    }, percentile


def end_to_end(runner: Runner, jobs, seconds: float, seed: int, workload: str):
    setup_wall, setup_scaled = measure_setup(workload, seed)
    passes = timed_passes(seconds, lambda: runner.run_pass(jobs))
    flat = [r for p in passes for r in p]
    per_job = job_times(passes, scaled_median)
    timings, percentile = timing_metrics(per_job)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        **timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall, _ = timing_metrics(job_times(passes, wall_median))
    detail = {
        "reference_ms": REFERENCE_MS,
        "reference_median_ms": statistics.median(r.reference * 1000 for r in flat),
        "wall": {"setup_s": statistics.median(setup_wall), **wall},
        "setup_probes_s": setup_wall,
        "setup_probes_scaled_s": setup_scaled,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "pass_seconds": [sum(r.seconds for r in p) for p in passes],
        "tail_percentile": percentile,
        "tail_samples": len(per_job),
        "rung_median_ms": rung_times(flat, lambda r: r.scaled_ms),
        "rung_wall_median_ms": rung_times(flat, lambda r: r.seconds * 1000),
    }
    return metrics, detail


def per_layer(runner: Runner, jobs, seconds: float):
    untraced, traced = [], []

    def pair():
        untraced.append(runner.run_pass(jobs))
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            results = runner.run_pass(jobs, tracer)
        finally:
            tracing.uninstall(undo)
        traced.append((results, tracer))

    timed_passes(seconds, pair)
    metrics: dict[str, float] = {}
    by_command: dict[str, list[float]] = {}
    for r in (r for p in untraced for r in p):
        by_command.setdefault(r.job.command, []).append(r.scaled_ms)
    for c in COMMANDS:
        metrics[f"cli.{c}_ms"] = statistics.median(by_command[c])

    selfs = [t.self_times()[0] for _, t in traced]
    for span, metric in SPAN_METRICS.items():
        if metric:
            metrics[metric] = statistics.median(s.get(span, 0.0) for s in selfs) * 1000
    for m in MODULES:
        metrics[f"{m}.share"] = statistics.median(
            sum(v for k, v in s.items() if k.split(".")[0] == m) / sum(s.values())
            for s in selfs)

    first = traced[0][1]
    repeat = all(t.counts == first.counts and t.maxima == first.maxima for _, t in traced)
    if not repeat:
        print("warning: work counters differ between traced passes", file=sys.stderr)
    for c in COUNTERS:
        metrics[c] = first.counts[c]
    # smoke jobs make every workload construct polytopes and enumerate boxes
    metrics["laurent.max_terms"] = first.maxima["laurent.max_terms"]
    metrics["polytope.vertex_yield"] = (
        first.counts["polytope.vertices"] / first.counts["polytope.subsets_tried"])
    metrics["latticegen.keep_ratio"] = (
        first.counts["latticegen.points_kept"] / first.counts["latticegen.box_scanned"])
    metrics["trace_overhead"] = pass_wall([p for p, _ in traced]) / pass_wall(untraced)

    per_job = first.self_times()[1]
    detail = {
        "pairs": len(traced),
        "counters_repeat": repeat,
        "job_self_ms": {jobs[j].key: {k: v * 1000 for k, v in d.items()}
                        for j, d in sorted(per_job.items()) if j >= 0},
        "rung_median_ms": rung_times([r for p in untraced for r in p], lambda r: r.scaled_ms),
    }
    return metrics, detail


def pass_wall(passes: list[list[Result]]) -> float:
    """Median over passes of the summed job times."""
    return statistics.median(sum(r.seconds for r in p) for p in passes)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "polarcount").glob("*.py"))


def report(workload: str, seed: int, trace: int, metrics: dict, units: dict, detail: dict, runner: Runner):
    error_rate = len(runner.failures) / runner.attempted
    print(f"== {workload} seed {seed} trace {trace}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"  {'error_rate':28s} {error_rate:14.6g} ratio "
          f"({len(runner.failures)}/{runner.attempted})", file=sys.stderr)
    print("  per-rung median job time:", file=sys.stderr)
    for rung, ms in detail["rung_median_ms"].items():
        print(f"    {rung:40s} {ms:10.2f} ms", file=sys.stderr)
    record = {
        "meta": {
            "workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "src_polarcount_lines": src_lines(),
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "error_rate": error_rate,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "detail": detail,
        "stdout_sha256": {k: d for k, (d, _) in sorted(runner.digests.items())},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": record["metrics"],
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {}
    for w in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        combined[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (used to time set-up in a fresh interpreter)")
    parser.add_argument("--reference-only", action="store_true",
                        help="run the reference loop and exit (the set-up probe's yardstick)")
    args = parser.parse_args(argv)
    if args.reference_only:
        for _ in range(SETUP_REFERENCE_LOOPS):
            reference_seconds()
        return 0
    if args.workload is None:
        return run_all(args)
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner, jobs = setup(args.workload, args.seed)
    if args.setup_only:
        return 0 if not runner.failures else 1
    if args.trace:
        metrics, detail = per_layer(runner, jobs, args.seconds)
        units = per_layer_units()
    else:
        metrics, detail = end_to_end(runner, jobs, args.seconds, args.seed, args.workload)
        units = END_TO_END
    print(json.dumps(report(args.workload, args.seed, args.trace, metrics, units, detail, runner)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

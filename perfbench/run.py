"""Benchmark of the metallicgeo command line: closed-loop jobs with an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. A job is one ``cli.main([...])`` call, the CLI's public
entry point, made in process with its output captured, so that interpreter
start and ``import metallicgeo`` are paid once, in ``setup_s``, and do not
bury small jobs. Load is a closed loop: one client, one job at a time.

The seed generates the job list: per round, fresh ``--seed`` values for the
sample points and fresh interior ``--point`` values for curvature jobs.
Every job, curvature jobs too, carries its own ``--seed``, so the CLI
builds a new bundle for it and no job reads what an earlier one cached;
no argv repeats within a run. One untimed warm-up round comes first. The
timed part runs a fixed number of rounds, set from ``--seconds`` and the
round time measured when the benchmark was defined (2-core x86 box,
Python 3.11, numpy 2.4). The job count then does not depend on how fast
the program is, so ``job_tail_s`` stays at the same rank of the same job
mix when a change speeds the program up.

On a shared box the speed of the same code drifts by 20-40 % within
minutes. The run therefore times a fixed reference kernel (numpy and
Python work, none of the program's code) every ``PROBE_EVERY_S`` seconds
of the job loop, and scales each job's wall time by ``REF_S`` over the
mean of the probes just before and after it: job times are seconds at the
machine speed at which the benchmark was defined. The lines before the
JSON give the unscaled wall figures too. ``jobs_per_s`` is the median over
rounds of the round's job count over its scaled wall time, the oracle
check and the loop's own work included. ``setup_s`` is the median over
fresh interpreters started before and after the timed part, each scaled
by the probes taken just before and just after it.

Every job's answer is checked (see ``check``); a wrong answer counts as a
failed job and never stops the run. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a reader, with
``error_rate`` and the tail's percentile and job count. The exit code is 1
when any job failed.

With ``--trace 0`` the metrics are end to end. With ``--trace 1`` the run
alternates untraced and traced passes, each over ``TRACE_ROUNDS`` rounds of
jobs drawn for that pass alone, and reports per-layer metrics (see
``tracing``); the spans are written to ``.perfbench/trace-<workload>.json``
in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"

# a run times round(seconds / ROUND_S) rounds. ROUND_S is about a round's
# time when the benchmark was defined (0.2, 3.6 and 2.1 s), rounded so that
# at 30 s the rank of job_p50_s and job_tail_s falls well inside one job
# class: verify-zoo times 7 rounds (a "negative" verify job and the median
# verify job of "flat-k2"), verify-spec 14 (an S2xS2 curvature job and the lower
# quartile of the S2xS2 verify jobs)
ROUND_S = {"classify-zoo": 0.2, "verify-zoo": 4.2, "verify-spec": 2.1}
# rounds of the job list that one traced pass runs
TRACE_ROUNDS = {"classify-zoo": 16, "verify-zoo": 1, "verify-spec": 1}
MAX_MEASURE_S = 100.0  # stop measuring here so that a run ends in time
SETUP_PROBES = 5
PROBE_REPS = 6
PROBE_EVERY_S = 0.25  # seconds of job loop between two reference probes
REF_S = 0.0022        # median probe in the job loop when the benchmark was defined

# known scalar curvature of each curvature target
SCALAR = {"flat-k1": 0.0, "flat-k2": 0.0, "flat-k3": 0.0, "torus": 0.0,
          "s2": 2.0, "s6": 30.0, "s2xs2": 4.0}
MIRRORED_SPECS = ("flat-k1", "torus", "s2")
EXPECTED_IDENTITIES = json.loads((BENCH / "expected_identities.json").read_text(encoding="utf-8"))

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Target:
    """One zoo fixture or spec file that jobs run on."""

    name: str
    source: tuple          # ("--zoo", name) or (spec path,)
    verdict: str
    nearly: bool
    region: tuple          # ((lo, hi), ...) the sample points are drawn from
    curvature_points: int  # curvature jobs per round
    jobs: int = 1          # classify or verify jobs per round


@dataclass(frozen=True)
class Job:
    kind: str              # classify | verify | curvature
    argv: tuple
    verdict: str = ""
    nearly: bool = False
    scalar: float = 0.0


# --- set-up ----------------------------------------------------------------------


def import_program():
    """Import metallicgeo from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "metallicgeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import metallicgeo
    if not Path(metallicgeo.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: metallicgeo imported from {metallicgeo.__file__}, not {src}")
    return metallicgeo


def _region(bounds, margin: float) -> tuple:
    return tuple((lo + margin, hi - margin) for lo, hi in bounds)


def setup(workload: str, work: Path) -> list:
    """Import the program, build and validate the fixtures, write spec files."""
    import_program()
    from metallicgeo import zoo
    from metallicgeo.specfile import parse_spec

    if workload in ("classify-zoo", "verify-zoo"):
        targets = []
        for name in zoo.names():
            # the CLI asks for (name, q) positionally; warm exactly that cache entry
            fx = zoo.get(name, zoo.DEFAULT_Q)
            chart = fx.bundle.chart
            curv = 0 if workload == "classify-zoo" or name not in SCALAR else 1
            # three verify jobs of "negative" per round put the median job in
            # the middle of 21 of them (6 curvature jobs per round are faster)
            jobs = 3 if workload == "verify-zoo" and name == "negative" else 1
            targets.append(Target(name, ("--zoo", name), fx.expected_verdict, fx.expected_nearly,
                                  _region(chart.bounds, chart.margin), curv, jobs))
        return targets

    texts = {}
    for name in MIRRORED_SPECS:
        fx = zoo.get(name, zoo.DEFAULT_Q)
        texts[name] = (fx.spec_text, fx.expected_verdict, fx.expected_nearly)
    texts["s2xs2"] = ((BENCH / "specs" / "s2xs2.spec").read_text(encoding="utf-8"),
                      "metallic Kähler", True)
    targets = []
    for name, (text, verdict, nearly) in texts.items():
        path = work / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        spec = parse_spec(text)
        # eight curvature points on S2xS2 and two on each other spec per round
        # put the median job in the middle of the S2xS2 curvature jobs, the
        # most stable class of small jobs that parse, build and evaluate fields
        targets.append(Target(name, (str(path),), verdict, nearly,
                              _region(spec.bounds, spec.margin), 8 if name == "s2xs2" else 2))
    return targets


@contextlib.contextmanager
def workdir():
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def probe_setup(workload: str, seed: int) -> tuple:
    """Seconds from starting a fresh interpreter until its set-up is done.

    Returns the time scaled by the reference probes taken just before and
    just after the interpreter runs, and the wall time.
    """
    before = reference_probe()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", repr(start)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    wall = float(proc.stdout.split()[-1])
    return wall * REF_S / (0.5 * (before + reference_probe())), wall


# --- jobs --------------------------------------------------------------------------


def plan(workload: str, seed: int, targets: list, rounds: int, part: str = "timed") -> list:
    """The job list, round by round, in a fixed order generated by the seed.

    Each ``part`` of a run (warm-up, timed, each traced pass) draws its own
    seeds and points, so no argv repeats within a run.
    """
    rng = random.Random(f"{workload}/{seed}/{part}")
    command = "classify" if workload == "classify-zoo" else "verify"
    jobs = []
    for _ in range(rounds):
        for t in targets:
            for _ in range(t.jobs):
                argv = [command, *t.source, "--seed", str(rng.randrange(2**31)),
                        "--format", "json"]
                if command == "verify":
                    argv[1:1] = ["--suite", "all"]
                jobs.append(Job(command, tuple(argv), verdict=t.verdict, nearly=t.nearly))
            for _ in range(t.curvature_points):
                point = ",".join(repr(rng.uniform(lo, hi)) for lo, hi in t.region)
                # a fresh --seed makes the CLI build a new bundle, so no job
                # reads the curvature an earlier job left in a cached fixture
                jobs.append(Job("curvature",
                                ("curvature", *t.source, f"--point={point}",
                                 "--seed", str(rng.randrange(2**31)), "--format", "json"),
                                scalar=SCALAR[t.name]))
    return jobs


def run_job(job: Job) -> tuple:
    """Run one job in process; returns (seconds, exit code, stdout, stderr)."""
    from metallicgeo import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising job is a failed job; the run goes on
        rc = f"raised {exc!r}"
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def check(job: Job, rc, stdout: str):
    """None when the job's answer is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    try:
        return _check_report(job, report)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"


def _check_report(job: Job, report: dict):
    if job.kind == "curvature":
        scalar = report["curvature"]["scalar"]
        tol = report["tolerances"]["d2"] * max(1.0, abs(job.scalar))
        if not abs(scalar - job.scalar) <= tol:
            return f"scalar {scalar} is not {job.scalar} within {tol:g}"
        return None
    cls = report["classification"]
    if cls["verdict"] != job.verdict or cls["nearly"] != job.nearly:
        return f"verdict {cls['verdict']!r}, nearly {cls['nearly']}"
    if job.kind == "verify":
        failed = [r["id"] for r in report["identities"]
                  if r["asserted"] and not r["skipped"] and not r["passed"]]
        if failed:
            return "failed identities " + ", ".join(failed)
        listing = [[r["id"], r["skipped"]] for r in report["identities"]]
        if listing != EXPECTED_IDENTITIES.get(job.verdict):
            return "identity list differs from the one recorded for the verdict"
    return None


class Tally:
    """Latencies and failures of the jobs run so far."""

    def __init__(self):
        self.latencies: list = []
        self.failures: list = []

    def run(self, job: Job, runner=run_job) -> float:
        dt, rc, stdout, stderr = runner(job)
        self.latencies.append(dt)
        reason = check(job, rc, stdout)
        if reason is not None:
            self.failures.append(f"{' '.join(job.argv)}: {reason} {stderr.strip()}".strip())
        return dt

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# --- machine speed -------------------------------------------------------------------


def reference_probe() -> float:
    """Seconds a fixed numpy and Python kernel takes now, median of PROBE_REPS runs.

    The kernel does the kind of work the program does (small linear algebra
    and Python calls) but none of the program's code, so a change to the
    program never moves it.
    """
    m = np.eye(4) * 2.0 + 0.1
    acc = 0.0
    reps = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        for i in range(120):
            a = np.linalg.inv(m + i * 1e-3)
            acc += float(np.einsum("ij,jk->ik", a, m).trace()) + sum(k * 0.5 for k in range(20))
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


class Clock:
    """Reference probes interleaved with the job loop, and the speed they show."""

    def __init__(self):
        self.probes: list = []     # (perf_counter when taken, probe seconds)
        self._last = -math.inf

    def maybe_probe(self):
        """Take a probe if PROBE_EVERY_S has passed since the last one."""
        now = time.perf_counter()
        if now - self._last >= PROBE_EVERY_S:
            self.probes.append((now, reference_probe()))
            self._last = time.perf_counter()

    def factor(self, t: float) -> float:
        """REF_S over the mean of the probes taken just before and just after ``t``."""
        i = bisect.bisect_right(self.probes, (t, math.inf))
        before = self.probes[max(i - 1, 0)][1]
        after = self.probes[min(i, len(self.probes) - 1)][1]
        return REF_S / (0.5 * (before + after))


# --- runs --------------------------------------------------------------------------


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with ten jobs beyond it, and that percentile."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def timed_run(workload: str, seed: int, seconds: int, targets: list):
    """End-to-end metrics over one pass of a job list in which no argv repeats."""
    tally = Tally()
    for job in plan(workload, seed, targets, 1, "warm-up"):
        tally.run(job)
    setup_samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES // 2)]
    rounds = max(1, round(seconds / ROUND_S[workload]))
    jobs = plan(workload, seed, targets, rounds)
    per_round = len(jobs) // rounds
    clock = Clock()
    rows = []  # (start, latency, seconds until the next job may start) per timed job
    deadline = time.perf_counter() + MAX_MEASURE_S
    for job in jobs:
        clock.maybe_probe()
        if time.perf_counter() > deadline:
            print(f"warning: stopped at the time limit after {len(rows)} jobs", file=sys.stderr)
            break
        t0 = time.perf_counter()
        dt = tally.run(job)
        rows.append((t0, dt, time.perf_counter() - t0))
    clock.probes.append((time.perf_counter(), reference_probe()))
    setup_samples += [probe_setup(workload, seed)
                      for _ in range(SETUP_PROBES - len(setup_samples))]

    factors = [clock.factor(t0) for t0, _, _ in rows]
    latencies = [dt * f for (_, dt, _), f in zip(rows, factors)]
    loops = [busy * f for (_, _, busy), f in zip(rows, factors)]
    full_rounds = range(0, len(rows) - per_round + 1, per_round)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setup_samples),
        "jobs_per_s": statistics.median(per_round / math.fsum(loops[i:i + per_round])
                                        for i in full_rounds),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speed = statistics.median(factors)
    wall = f"scaled by a median machine speed factor of {speed:.3g}; {{:.4g}} {{}} in wall time"
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters; "
                   f"{statistics.median(w for _, w in setup_samples):.4g} s in wall time",
        "jobs_per_s": wall.format(metrics["jobs_per_s"] * speed, "1/s")
                      + f", median of {len(full_rounds)} rounds",
        "job_p50_s": wall.format(metrics["job_p50_s"] / speed, "s"),
        "job_tail_s": f"p{tail_pct:.4g} of {len(rows)} jobs, "
                      + wall.format(tail_s / speed, "s"),
    }
    return tally, {k: (metrics[k], unit) for k, unit in END_TO_END}, notes


def traced_run(workload: str, seed: int, seconds: int, work: Path):
    import tracing

    import_program()
    setup_trace = tracing.Trace()
    with tracing.installed(setup_trace):
        targets = setup_trace.wrap("setup", setup)(workload, work)
    rounds = TRACE_ROUNDS[workload]
    tally = Tally()
    passes, walls = [], [0.0, 0.0]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # each pass runs jobs of its own, so the traced pass starts as cold as the untraced one
        k = len(passes)
        walls[0] += math.fsum(tally.run(job) for job in
                              plan(workload, seed, targets, rounds, f"untraced-{k}"))
        trace = tracing.Trace()
        with tracing.installed(trace):
            walls[1] += math.fsum(
                tally.run(job, functools.partial(trace.job, i, run_job))
                for i, job in enumerate(plan(workload, seed, targets, rounds, f"traced-{k}")))
        passes.append(trace)
    metrics = layer_metrics(setup_trace, passes, walls[1] / walls[0])
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "setup": setup_trace.to_json(),
              "passes": [p.to_json() for p in passes]}
    (OUT / f"trace-{workload}.json").write_text(json.dumps(record), encoding="utf-8")
    notes = {"trace_overhead_ratio": f"{len(passes)} traced passes of {passes[0].jobs} jobs"}
    return tally, metrics, notes


def layer_metrics(setup_trace, passes: list, overhead: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, times from all."""
    first = passes[0]
    n_first = first.jobs
    n_all = sum(p.jobs for p in passes)

    def count(name):
        return first.calls(name) / n_first, "count/job"

    def self_s(name):
        return sum(p.self_s(name) for p in passes) / n_all, "s/job"

    def incl_s(*names):
        return sum(p.incl_s(n) for p in passes for n in names) / n_all, "s/job"

    c = first.counts
    riemann_calls = sum(p.calls("diffcalc.riemann") for p in passes)
    return {
        "geometry.g_evals": (c["g_evals"] / n_first, "count/job"),
        "geometry.jm_evals": (c["jm_evals"] / n_first, "count/job"),
        "geometry.g_distinct_ratio": (c["g_distinct"] / c["g_evals"] if c["g_evals"] else 0.0,
                                      "ratio"),
        "geometry.field_self_s": self_s("geometry.field"),
        "geometry.inverse_metric_calls": count("geometry.inverse_metric"),
        "geometry.inverse_metric_self_s": self_s("geometry.inverse_metric"),
        "exprdsl.eval_calls": count("exprdsl.eval"),
        "exprdsl.eval_self_s": self_s("exprdsl.eval"),
        "specfile.parse_build_s": incl_s("specfile.parse_spec", "specfile.build_bundle"),
        "diffcalc.partial_calls": count("diffcalc.partial"),
        "diffcalc.partial_self_s": self_s("diffcalc.partial"),
        "diffcalc.christoffel_calls": count("diffcalc.christoffel"),
        "diffcalc.christoffel_self_s": self_s("diffcalc.christoffel"),
        "diffcalc.riemann_calls": count("diffcalc.riemann"),
        "diffcalc.riemann_s_per_call": (
            sum(p.incl_s("diffcalc.riemann") for p in passes) / riemann_calls
            if riemann_calls else 0.0, "s/call"),
        "diffcalc.covariant_derivative_self_s": self_s("diffcalc.covariant_derivative"),
        "metallic.classify_s": incl_s("metallic.classify"),
        "metallic.contexts_built": (c["contexts_built"] / n_first, "count/job"),
        "metallic.context_reuse_ratio": (
            1.0 - c["contexts_built"] / c["context_lookups"] if c["context_lookups"] else 0.0,
            "ratio"),
        "identities.suite_metallic_s": incl_s("identities.suite_metallic"),
        "identities.suite_nearly_s": incl_s("identities.suite_nearly"),
        "identities.check_ricci_derivative_cycle_s":
            incl_s("identities.check_ricci_derivative_cycle"),
        "identities.check_divergence_ricci_chain_s":
            incl_s("identities.check_divergence_ricci_chain"),
        "identities.check_curvature_commutation_s":
            incl_s("identities.check_curvature_commutation"),
        "connections.report_s": incl_s("connections.connection_report",
                                       "connections.connection_identity_results"),
        "cli.report_json_s": incl_s("cli.report_json"),
        "zoo.get_s": (setup_trace.incl_s("zoo.get"), "s"),
        "trace_overhead_ratio": (overhead, "ratio"),
    }


# --- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        # a fresh interpreter timing its own set-up from when it was started
        with workdir() as work:
            setup(args.workload, work)
            print(time.monotonic() - args.setup_probe)
        return 0

    with workdir() as work:
        if args.trace:
            tally, metrics, notes = traced_run(args.workload, args.seed, args.seconds, work)
        else:
            tally, metrics, notes = timed_run(args.workload, args.seed, args.seconds,
                                              setup(args.workload, work))

    for reason in tally.failures[:20]:
        print(f"failed job: {reason}", file=sys.stderr)
    failed = len(tally.failures)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {value:.6g} {unit}{note}")
    print(f"{'error_rate':44s} {failed / tally.attempted:.6g} failed/attempted"
          f"  ({failed} of {tally.attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

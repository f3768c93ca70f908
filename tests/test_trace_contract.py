"""The benchmark's tracer still finds the engine's names.

`perfbench/tracing.py` patches module globals of metallicgeo from outside the
package (`metallic.PointContext`, `StructureBundle.context`,
`diffcalc.riemann`, the fields' `__call__`, ...). A rename in the engine
leaves such a patch on a name that nothing calls, and the traced benchmark
then reads zeros. This runs the tracer, imported from its file and left
unchanged, around one `verify` and one `curvature` job, each on a fresh s2
fixture, and around the same two jobs on the s2xs2 spec file, each parsed
afresh, so that no cached context hides the work. Each job asks its bundle
for a context exactly as many times as it builds one, and evaluates g at as
many points as `test_eval_budget` counts for it. Together the zoo and the spec
jobs enter every layer the tracer wraps but the two that read 0 by design, and
raise every counter it keeps, so that a change that routes the engine around a
patched name fails here instead of leaving a benchmark layer at 0.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from metallicgeo import cli, zoo
from test_eval_budget import BUDGET, BUILDERS, S2XS2, SPEC_BUDGET

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_jobs(jobs: dict, fresh) -> tuple:
    """Run each job (kind -> argv) under the tracer, each after fresh(), and check the
    contract every job keeps. Returns the trace, and per kind the job's counts and its
    diffcalc.riemann calls."""
    tracing = load_tracing()
    trace = tracing.Trace()
    seen = {}
    with tracing.installed(trace):
        for job_id, (kind, argv) in enumerate(jobs.items()):
            fresh()  # inside, so that the tracer sees the fields built for the job
            counts, riemann = dict(trace.counts), trace.calls("diffcalc.riemann")
            with redirect_stdout(io.StringIO()):
                assert trace.job(job_id, cli.main, argv) == 0
            seen[kind] = {key: trace.counts[key] - counts[key] for key in counts}
            seen[kind]["riemann"] = trace.calls("diffcalc.riemann") - riemann
    for kind, counts in seen.items():
        assert counts["contexts_built"] > 0, (kind, counts)
        assert counts["riemann"] > 0, (kind, counts)
        assert counts["g_evals"] > 0, (kind, counts)
        # a job asks for the one context it builds once: no look-up by points comes back
        assert counts["context_lookups"] == counts["contexts_built"], (kind, counts)
    return trace, seen


# layers no job enters by design: spec fields run programs, not `Expr.eval`, and the jet
# takes every partial from its own table, not from `diffcalc.partial` (ROADMAP item 1a)
NEVER_ENTERED = {"exprdsl.eval", "diffcalc.partial"}


def test_tracer_counts_the_engine_at_work(monkeypatch):
    current = {}
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: current["fx"])
    jobs = {"verify": ["verify", "--zoo", "s2", "--suite", "all", "--format", "json"],
            "curvature": ["curvature", "--zoo", "s2", "--point=0.1,-0.2", "--format", "json"]}
    _, seen = traced_jobs(jobs, lambda: current.update(fx=BUILDERS["s2"]()))
    assert seen["verify"]["g_evals"] == BUDGET[("verify", "s2")][0], seen


def test_tracer_sees_spec_field_work():
    jobs = {"verify": ["verify", str(S2XS2), "--suite", "all", "--format", "json"],
            "curvature": ["curvature", str(S2XS2), "--point=0.1,0.2,-0.3,0.4", "--format", "json"]}
    try:
        trace, seen = traced_jobs(jobs, cli._parsed_spec.cache_clear)
    finally:
        cli._parsed_spec.cache_clear()
    for kind, counts in seen.items():
        assert counts["g_evals"] == SPEC_BUDGET[(kind, "s2xs2")][0], (kind, counts)
    # spec fields run programs and never call Expr.eval, so the tracer's exprdsl.eval layer
    # reads 0 and their time is geometry.field's: ROADMAP item 1a gives the programs a counter
    assert trace.calls("exprdsl.eval") == 0


def test_zoo_and_spec_jobs_enter_every_traced_layer(monkeypatch):
    monkeypatch.setattr(zoo, "get", lambda name, *args, **kwargs: BUILDERS[name]())
    zoo_jobs = {
        "verify-s2": ["verify", "--zoo", "s2", "--suite", "all", "--format", "json"],
        "verify-s6": ["verify", "--zoo", "s6", "--suite", "all", "--format", "json"],
        "curvature-s2": ["curvature", "--zoo", "s2", "--point=0.1,-0.2", "--format", "json"]}
    spec_jobs = {
        "verify": ["verify", str(S2XS2), "--suite", "all", "--format", "json"],
        "curvature": ["curvature", str(S2XS2), "--point=0.1,0.2,-0.3,0.4", "--format", "json"]}
    try:
        traces = [traced_jobs(zoo_jobs, lambda: None)[0],
                  traced_jobs(spec_jobs, cli._parsed_spec.cache_clear)[0]]
    finally:
        cli._parsed_spec.cache_clear()
    layers = set(traces[0].stats)  # every wrapped layer has an entry from the start
    entered = {name for trace in traces for name, (calls, _, _) in trace.stats.items() if calls}
    assert layers - entered == NEVER_ENTERED, sorted(layers - entered)
    for key in traces[0].counts:
        assert sum(trace.counts[key] for trace in traces) > 0, key

"""The benchmark's tracer still finds the engine's names.

`perfbench/tracing.py` patches module globals of metallicgeo from outside the
package (`metallic.PointContext`, `StructureBundle.context`,
`diffcalc.riemann`, the fields' `__call__`, ...). A rename in the engine
leaves such a patch on a name that nothing calls, and the traced benchmark
then reads zeros. This runs the tracer, imported from its file and left
unchanged, around one `verify` and one `curvature` job, each on a fresh s2
fixture, so that no cached context hides the work. Each job asks its bundle
for a context exactly as many times as it builds one.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from metallicgeo import cli, zoo
from test_eval_budget import BUDGET, BUILDERS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_engine_at_work(monkeypatch):
    tracing = load_tracing()
    trace = tracing.Trace()
    current = {}
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: current["fx"])
    jobs = {"verify": ["verify", "--zoo", "s2", "--suite", "all", "--format", "json"],
            "curvature": ["curvature", "--zoo", "s2", "--point=0.1,-0.2", "--format", "json"]}
    seen = {}
    with tracing.installed(trace):
        for job_id, (kind, argv) in enumerate(jobs.items()):
            current["fx"] = BUILDERS["s2"]()  # built inside, so that the tracer sees its fields
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
    assert seen["verify"]["g_evals"] == BUDGET[("verify", "s2")][0], seen

"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/smoke.py

Checks that each workload prints exactly the metrics BENCHMARK.json names,
with their units, that a wrong answer counts as a failed job, and that the
tracer counts what the benchmark's contract says it counts. Takes about a
minute on a 2-core box.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

run.import_program()
from metallicgeo import zoo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metric_names_and_units(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_trace_counts_repeat_for_a_seed():
    counted = ("_calls", "_evals", "contexts_built")
    first, second = (_run("classify-zoo", 1, seed=5)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items() if k.endswith(counted)}
    assert counts and counts == {k: second[k]["value"] for k in counts}


def test_predictions_cover_the_per_layer_metrics():
    table = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    named = [m for row in table["rows"] for m in row["layer"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    moved = {m["name"] for m in SPEC["end_to_end"]}
    for row in table["rows"]:
        assert set(row["workloads"]) <= workloads and set(row["moves"]) <= moved


@pytest.fixture(scope="module")
def zoo_targets():
    with run.workdir() as work:
        yield run.setup("classify-zoo", work)


def test_wrong_expected_verdict_counts_as_failed(zoo_targets):
    job = run.plan("classify-zoo", 1, zoo_targets, 1)[0]
    tally = run.Tally()
    tally.run(job)
    tally.run(dataclasses.replace(job, verdict="nearly metallic Kähler"))
    assert tally.attempted == 2 and len(tally.failures) == 1
    assert "verdict" in tally.failures[0]


def test_setup_warms_the_cache_entry_the_cli_uses(zoo_targets):
    misses = zoo.get.cache_info().misses
    for job in run.plan("classify-zoo", 2, zoo_targets, 1):
        run.run_job(job)
    assert zoo.get.cache_info().misses == misses


def test_structure_evaluation_counts_once_per_point():
    trace = tracing.Trace()
    with tracing.installed(trace):
        fx = zoo.fixture_sphere2()
        point = fx.bundle.sample_points[0]
        trace.job(0, lambda: [fx.bundle.jm(point), fx.bundle.g(point), fx.bundle.g(point)])
    assert trace.counts["jm_evals"] == 1
    assert trace.counts["g_evals"] == 2 and trace.counts["g_distinct"] == 1
    assert trace.calls("geometry.field") == 3


def test_malformed_report_counts_as_failed(zoo_targets):
    job = run.plan("classify-zoo", 1, zoo_targets, 1)[0]
    tally = run.Tally()
    for stdout in ('{"classification": {"verdict": "metallic K\\u00e4hler"}}', "[]",
                   '{"classification": null}'):
        tally.run(job, lambda _job, out=stdout: (0.01, 0, out, ""))
    curvature = run.Job("curvature", (), scalar=2.0)
    tally.run(curvature, lambda _job: (0.01, 0, '{"curvature": {"scalar": 2.0}}', ""))
    assert tally.attempted == 4 and len(tally.failures) == 4
    assert all("malformed report" in reason for reason in tally.failures)


def test_no_argv_repeats_and_zoo_curvature_jobs_start_cold(zoo_targets):
    with run.workdir() as work:
        targets = run.setup("verify-zoo", work)
    parts = [run.plan("verify-zoo", 3, targets, 2, part) for part in ("timed", "traced-0")]
    argvs = [job.argv for jobs in parts for job in jobs]
    assert len(set(argvs)) == len(argvs)
    job = next(j for j in parts[0] if j.kind == "curvature")
    for _ in range(2):  # the second run of the same argv must redo the curvature
        trace = tracing.Trace()
        with tracing.installed(trace):
            trace.job(0, run.run_job, job)
        assert trace.calls("diffcalc.riemann") > 0 and trace.counts["contexts_built"] > 0

"""Field-evaluation budget and memory of the CLI commands.

Counts the g and J_M evaluations that one CLI run makes on a fresh
fixture: the points evaluated (rows of the stacks the fields are called
with) and the Python-level calls that evaluate them. The bounds are the
counts measured when the test was written; a refactor that evaluates a
nested stencil twice (for example nabla Ricci once per identity row)
exceeds the point bound, and one that falls back to calling a field once
per point exceeds the call bound. Tighten a bound when the engine gets
cheaper; never raise one.
"""

import dataclasses
import gc
import io
import tracemalloc
from contextlib import redirect_stdout

import pytest

from metallicgeo import cli, zoo
from metallicgeo.geometry import TensorField

BUILDERS = {
    "s2": zoo.fixture_sphere2,
    "s6": zoo.fixture_sphere6,
    "flat-k2": lambda: zoo.fixture_flat(2),
    "flat-k3": lambda: zoo.fixture_flat(3),
    "negative": zoo.fixture_negative,
}

# (command, fixture) -> (g points, J_M points, g calls, J_M calls)
BUDGET = {
    ("verify", "s2"): (5868, 1274, 318, 91),
    ("verify", "s6"): (11484, 6066, 81, 63),
    ("verify", "flat-k2"): (47124, 5474, 695, 119),
    ("verify", "flat-k3"): (83900, 6740, 568, 70),
    ("classify", "negative"): (560, 544, 64, 64),
}

# tracemalloc peak of `verify --suite all` on flat-k3, in bytes: 1.7 MB measured,
# 5.1 MB when nabla Ricci's nested Christoffel memo outlives its return
PEAK_BYTES = 2_500_000


def counting_fixture(name, counts):
    """A fresh fixture whose bundle counts the points and calls that evaluate g and J_M."""
    fx = BUILDERS[name]()
    b = fx.bundle

    def counted(fld, key):
        def fn(pts):
            counts[key] += len(pts)
            counts[f"{key}_calls"] += 1
            return fld(pts)

        return TensorField(name=fld.name, sig=fld.sig, fn=fn)

    bundle = dataclasses.replace(b, g=counted(b.g, "g"), jm=counted(b.jm, "jm"))
    return dataclasses.replace(fx, bundle=bundle)


@pytest.mark.parametrize("command,name", sorted(BUDGET))
def test_field_evaluations_within_budget(command, name, monkeypatch):
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0}
    fx = counting_fixture(name, counts)
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    argv = [command, "--zoo", name, "--format", "json"]
    if command == "verify":
        argv += ["--suite", "all"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    g_max, jm_max, g_calls_max, jm_calls_max = BUDGET[(command, name)]
    assert counts["g"] <= g_max, counts
    assert counts["jm"] <= jm_max, counts
    assert counts["g_calls"] <= g_calls_max, counts
    assert counts["jm_calls"] <= jm_calls_max, counts


def test_contexts_keep_only_outer_christoffel_nodes(monkeypatch):
    """nabla Ricci's nested Christoffel values are dropped once it is computed.

    A context's memo holds the point and the 4n outer-tier nodes that
    Riemann and nabla nabla w share; keeping the nodes of every nested
    Riemann as well would grow each context by O(n^2) arrays.
    """
    fx = BUILDERS["flat-k2"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "flat-k2", "--suite", "all", "--format", "json"]) == 0
    for ctx in fx.bundle.contexts():
        assert {"cov_ricci", "covcov_omega"} <= vars(ctx).keys()
        assert len(ctx._gammas) <= 4 * ctx.n + 1


def test_verify_memory_peak_flat_k3(monkeypatch):
    """Nested memos are freed on return, not left for the cyclic garbage collector.

    A Christoffel field that refers to itself (or to its context) forms a
    reference cycle, and nabla Ricci's nested memo then outlives the call
    until the collector runs; the traced peak of one verify grows about
    fourfold.
    """
    fx = BUILDERS["flat-k3"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--zoo", "flat-k3", "--suite", "all", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, peak

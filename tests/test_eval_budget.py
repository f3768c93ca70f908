"""Field-evaluation budget and memory of the CLI commands.

Counts the g and J_M evaluations that one CLI run makes on a fresh
fixture: the points evaluated (rows of the stacks the fields are called
with) and the Python-level calls that evaluate them. The bounds are the
counts measured when the test was written; a refactor that builds a
jet order twice (for example nabla Ricci once per identity row) exceeds
the point bound, and one that falls back to calling a field once per
point exceeds the call bound. Tighten a bound when the engine gets
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
    ("verify", "s2"): (611, 546, 91, 78),
    ("verify", "s6"): (1971, 1962, 54, 54),
    ("verify", "flat-k2"): (3179, 1938, 119, 102),
    ("verify", "flat-k3"): (5510, 2180, 70, 60),
    ("classify", "negative"): (560, 544, 64, 64),
}

# tracemalloc peak of `verify --suite all` on flat-k3, in bytes: 1.2 MB measured (2.2 MB
# when the run also builds the jet's weight tables), 2.4 MB (3.5 MB) when every context
# keeps its order-3 jet
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


def test_verify_memory_peak_flat_k3(monkeypatch):
    """Contexts keep the order-2 jet of g, not the order-3 one.

    nabla Ricci reads d d d g and d d Gamma once; a context that kept them
    would hold n^5 more numbers of each per point, and the traced peak of
    one verify would grow about 2-fold.
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

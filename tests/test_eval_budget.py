"""Field-evaluation budget of the CLI commands.

Counts the g and J_M point evaluations that one CLI run makes on a fresh
fixture. The bounds are the counts measured when the test was written; a
refactor that evaluates a nested stencil twice (for example nabla Ricci
once per identity row) exceeds them. Tighten a bound when the engine gets
cheaper; never raise one.
"""

import dataclasses
import io
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

# (command, fixture) -> (g evaluations, J_M evaluations)
BUDGET = {
    ("verify", "s2"): (5868, 1274),
    ("verify", "s6"): (11484, 6066),
    ("verify", "flat-k2"): (47124, 5474),
    ("verify", "flat-k3"): (83900, 6740),
    ("classify", "negative"): (560, 544),
}


def counting_fixture(name, counts):
    """A fresh fixture whose bundle counts evaluations of g and J_M."""
    fx = BUILDERS[name]()
    b = fx.bundle

    def counted(fld, key):
        def fn(pt):
            counts[key] += 1
            return fld(pt)

        return TensorField(name=fld.name, sig=fld.sig, fn=fn)

    bundle = dataclasses.replace(b, g=counted(b.g, "g"), jm=counted(b.jm, "jm"))
    return dataclasses.replace(fx, bundle=bundle)


@pytest.mark.parametrize("command,name", sorted(BUDGET))
def test_field_evaluations_within_budget(command, name, monkeypatch):
    counts = {"g": 0, "jm": 0}
    fx = counting_fixture(name, counts)
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    argv = [command, "--zoo", name, "--format", "json"]
    if command == "verify":
        argv += ["--suite", "all"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    g_max, jm_max = BUDGET[(command, name)]
    assert counts["g"] <= g_max, counts
    assert counts["jm"] <= jm_max, counts


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

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
    "negative": zoo.fixture_negative,
}

# (command, fixture) -> (g evaluations, J_M evaluations)
BUDGET = {
    ("verify", "s2"): (11817, 1391),
    ("verify", "s6"): (17109, 6291),
    ("verify", "flat-k2"): (93925, 5763),
    ("classify", "negative"): (560, 816),
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

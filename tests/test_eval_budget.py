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

import numpy as np
import numpy.random  # noqa: F401  (not first imported inside the traced run)
import pytest

from metallicgeo import cli, connections, diffcalc, metallic, zoo
from metallicgeo.geometry import TensorField, max_abs

BUILDERS = {
    "s2": zoo.fixture_sphere2,
    "s6": zoo.fixture_sphere6,
    "flat-k2": lambda: zoo.fixture_flat(2),
    "flat-k3": lambda: zoo.fixture_flat(3),
    "negative": zoo.fixture_negative,
}

# (command, fixture) -> (g points, J_M points, g calls, J_M calls)
BUDGET = {
    ("verify", "s2"): (377, 325, 39, 26),
    ("verify", "s6"): (1521, 1521, 18, 18),
    ("verify", "flat-k2"): (2601, 1377, 51, 34),
    ("verify", "flat-k3"): (5010, 1690, 30, 20),
    ("classify", "negative"): (272, 272, 16, 16),
}

# fixture -> (connection_terms calls, first_type calls) in one `verify --suite all`: terms
# once per sample point and constructible connection (s2 has 13 points, s6 9, negative 16
# and a gated second type, whose gate is read off the classification before any term is
# built), the first-type deformation once per point
CONNECTION_BUDGET = {"s2": (26, 13), "s6": (18, 9), "negative": (16, 16)}

# tracemalloc peak of `verify --suite all` on flat-k3 once the jet's weight tables exist, in
# bytes: 1.27 MB measured (the bundle keeps its connection terms), 2.4 MB when every
# context keeps its order-3 jet
PEAK_BYTES = 1_500_000


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
    # the weight tables are built once per process; the order-3 table builds the order-2 one
    diffcalc._jet_table(fx.bundle.chart.dimension, fx.bundle.scheme.h2, 3)
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--zoo", "flat-k3", "--suite", "all", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, peak


def test_one_first_derivative_stencil_per_point(monkeypatch):
    """Every classification residual, nabla w and the curvature of one point call g twice
    (the first-derivative stencil and the order-2 jet), J_M once and invert g once."""
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0, "inverse_metric": 0}
    bundle = counting_fixture("s6", counts).bundle
    inverse_metric = diffcalc.inverse_metric

    def counted_inverse(*args):
        counts["inverse_metric"] += 1
        return inverse_metric(*args)

    monkeypatch.setattr(diffcalc, "inverse_metric", counted_inverse)
    point = bundle.sample_points[0]
    ctx = diffcalc.PointContext(bundle.g, bundle.jm, bundle.params.p, bundle.params.q, point,
                                bundle.scheme)
    for _, _, measure in metallic.RESIDUALS:
        assert np.isfinite(measure(ctx))
    assert max_abs(ctx.cov_omega) > 0.1
    assert ctx.curvature.scalar == pytest.approx(30.0, abs=1e-4)
    assert (counts["g_calls"], counts["jm_calls"], counts["inverse_metric"]) == (2, 1, 1), counts
    assert counts["g"] == counts["jm"] + len(ctx._table(2)[0])


@pytest.mark.parametrize("name", sorted(CONNECTION_BUDGET))
def test_connection_terms_built_once_per_point(name, monkeypatch):
    """The connections suite and the report's connections block read one set of terms,
    and the nearly-case ratio reads the first-type deformation kept with it."""
    counts = {"connection_terms": 0, "first_type": 0}
    for fn_name in counts:
        def counted(*args, _fn=getattr(connections, fn_name), _key=fn_name):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(connections, fn_name, counted)
    fx = BUILDERS[name]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", name, "--suite", "all", "--format", "json"]) == 0
    terms_max, first_max = CONNECTION_BUDGET[name]
    assert counts["connection_terms"] <= terms_max, counts
    assert counts["first_type"] <= first_max, counts

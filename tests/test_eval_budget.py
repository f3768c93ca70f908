"""Field-evaluation budget and memory of the CLI commands.

Counts the g and J_M evaluations that one CLI run makes on a fresh
fixture: the points evaluated (rows of the stacks the fields are called
with) and the Python-level calls that evaluate them. The bounds are the
counts measured when the test was written; a refactor that builds a
jet order twice (for example nabla Ricci once per identity row) exceeds
the point bound, and one that falls back to calling a field once per
point exceeds the call bound. The engine calls each field once per jet
order for the stack of sample points, except in chunks of consecutive
points where a dimension-6 jet would otherwise hold more node values at
once than `diffcalc.CHUNK_BYTES` (order 3 of g, and J_M at the order-2
nodes). Runs on spec files are counted from the moment the bundle is built,
with the expression evaluations (`Expr.eval` calls) behind each field call.
Tighten a bound when the engine gets cheaper; never raise one.

The same runs count the multiply-adds with which the jet applies its
weight tables, which field-evaluation counts cannot see, and one run
checks that the jet stays off BLAS's `tensordot`. A passing run forms no
per-point values: every reported value is reduced straight to its number.
"""

import dataclasses
import gc
import io
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (not first imported inside the traced run)
import pytest

from metallicgeo import cli, connections, diffcalc, exprdsl, identities, metallic, specfile, zoo
from metallicgeo.geometry import TensorField, max_abs, max_abs_per_point

S2XS2 = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "s2xs2.spec"

BUILDERS = {
    "s2": zoo.fixture_sphere2,
    "s6": zoo.fixture_sphere6,
    "flat-k2": lambda: zoo.fixture_flat(2),
    "flat-k3": lambda: zoo.fixture_flat(3),
    "negative": zoo.fixture_negative,
}

# (command, fixture) -> (g points, J_M points, g calls, J_M calls). g: one call for order 1,
# one for the order-2 nodes and, on Kahler bundles (ricci-derivative-cycle), one per chunk
# at order 3: 1 chunk for s2 (13 points), 3 for flat-k2 (17 points of dimension 4), 10 for
# flat-k3 (10 points of dimension 6). J_M: one call for order 1 and one per order-2 chunk of
# nabla nabla w (16 points each at dimension 4, 3 at dimension 6: 2 chunks for flat-k2, 3 for
# s6, 4 for flat-k3).
BUDGET = {
    ("verify", "s2"): (377, 325, 3, 2),
    ("verify", "s6"): (1521, 1521, 2, 4),
    ("verify", "flat-k2"): (2601, 1377, 5, 3),
    ("verify", "flat-k3"): (5010, 1690, 12, 5),
    ("classify", "negative"): (272, 272, 1, 1),
}

# (command, spec file) -> (g points, J_M points, g calls, J_M calls, Expr.eval calls) of a run on
# a spec file, counted from the moment the bundle is built: a field is evaluated only where the
# command reads it, and each group of entries with equal trees once per call (a constant field
# once, at its first call). s2xs2 has 4 g entries (2 distinct) and 4 J entries (2 distinct), the
# s2 spec text 2 g entries (1 distinct) and 2 J entries (2 distinct). curvature: the order-1
# stencil (17 points) and the order-2 nodes (64) of g, the stencil of J_M. A sweep of the spec's
# own sample points when the bundle is built would add 9 g points, 1 g call and 4 evaluations.
SPEC_BUDGET = {
    ("curvature", "s2xs2"): (81, 17, 2, 1, 6),
    ("classify", "s2"): (117, 117, 1, 1, 3),
    ("verify", "s2xs2"): (1377, 729, 4, 2, 12),
}

# (command, fixture) -> multiply-adds of the jet's weight tables, weights.size x value.size per
# `MetricJet._jet` call, measured with one row per distinct partial of each order (padded to
# the widest row, 16 at order 3); the dense tables of one row per ordered multi-index took
# 18 304, 3 545 856, 2 994 176, 40 953 600 and 65 536
JET_MADDS = {
    ("verify", "s2"): 6_656,
    ("verify", "s6"): 139_968,
    ("verify", "flat-k2"): 147_968,
    ("verify", "flat-k3"): 478_080,
    ("classify", "negative"): 16_384,
}

# fixture -> (connection_terms calls, first_type calls) in one `verify --suite all`: the terms
# once per constructible connection, stacked over the sample points (negative has a gated
# second type, whose gate is read off the classification before any term is built), and
# the first-type deformation once
CONNECTION_BUDGET = {"s2": (2, 1), "s6": (2, 1), "negative": (1, 1)}

# tracemalloc peak of `verify --suite all` on flat-k3 once the jet's weight tables exist, in
# bytes: 1.33 MB measured with the stacked context (the bundle keeps its connection terms),
# 1.50 MB with chunks twice as large (CHUNK_BYTES = 2^18), 2.4 MB when every context kept
# its order-3 jet
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
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0, "jet_madds": 0}
    fx = counting_fixture(name, counts)
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    jet = diffcalc.MetricJet._jet

    def counted_jet(self, order, value, *node_values):
        counts["jet_madds"] += self._table(order).weights.size * value.size
        return jet(self, order, value, *node_values)

    monkeypatch.setattr(diffcalc.MetricJet, "_jet", counted_jet)
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
    assert counts["jet_madds"] <= JET_MADDS[(command, name)], counts


@pytest.mark.parametrize("command,name", sorted(SPEC_BUDGET))
def test_spec_field_evaluations_within_budget(command, name, tmp_path, monkeypatch):
    # the zoo builds its spec fixtures through specfile too: fetch the text before counting
    if name == "s2xs2":
        path = S2XS2
    else:
        path = tmp_path / f"{name}.spec"
        path.write_text(zoo.get(name).spec_text, encoding="utf-8")
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0, "eval": 0}
    field = specfile._expr_matrix_field

    def counted_field(fname, *args, **kwargs):
        fld = field(fname, *args, **kwargs)
        key = "g" if fname == "g" else "jm"  # J_M is computed from the structure, call for call

        def fn(pts):
            counts[key] += len(pts)
            counts[f"{key}_calls"] += 1
            return fld.fn(pts)

        return dataclasses.replace(fld, fn=fn)

    expr_eval = exprdsl.Expr.eval

    def counted_eval(self, *args):
        counts["eval"] += 1
        return expr_eval(self, *args)

    monkeypatch.setattr(specfile, "_expr_matrix_field", counted_field)
    monkeypatch.setattr(exprdsl.Expr, "eval", counted_eval)
    argv = {"classify": [], "verify": ["--suite", "all"],
            "curvature": ["--point=0.1,0.2,-0.3,0.4"]}[command]
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, str(path), *argv, "--format", "json"]) == 0
    g_max, jm_max, g_calls_max, jm_calls_max, eval_max = SPEC_BUDGET[(command, name)]
    assert counts["g"] <= g_max, counts
    assert counts["jm"] <= jm_max, counts
    assert counts["g_calls"] <= g_calls_max, counts
    assert counts["jm_calls"] <= jm_calls_max, counts
    assert counts["eval"] <= eval_max, counts


def test_divergence_of_w_computed_once_per_verify(monkeypatch):
    """divergence-ricci-chain forms nabla^m nabla_j w_im once, for its row and its note."""
    calls = []
    divergence = identities._divergence_omega
    monkeypatch.setattr(identities, "_divergence_omega",
                        lambda ctx: calls.append(ctx) or divergence(ctx))
    fx = BUILDERS["s6"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s6", "--suite", "all", "--format", "json"]) == 0
    assert len(calls) == 1


def test_jet_never_calls_tensordot(monkeypatch):
    """Every jet order of a dimension-6 verify, order 3 included, is applied without
    `np.tensordot`, whose multithreaded BLAS time swings with the load on the machine."""

    def no_tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    fx = BUILDERS["flat-k3"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    monkeypatch.setattr(np, "tensordot", no_tensordot)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "flat-k3", "--suite", "all", "--format", "json"]) == 0


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
    """Every classification residual, nabla w and the curvature of all the sample points
    call g twice (the first-derivative stencil and the order-2 jet, each for the whole
    stack), J_M once and invert g once."""
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0, "inverse_metric": 0}
    bundle = counting_fixture("s6", counts).bundle
    inverse_metric = diffcalc.inverse_metric

    def counted_inverse(*args):
        counts["inverse_metric"] += 1
        return inverse_metric(*args)

    monkeypatch.setattr(diffcalc, "inverse_metric", counted_inverse)
    points = bundle.sample_points
    ctx = diffcalc.PointContext(bundle.g, bundle.jm, bundle.params.p, bundle.params.q, points,
                                bundle.scheme)
    for _, _, measure in metallic.RESIDUALS:
        residual = max_abs_per_point(measure(ctx))
        assert residual.shape == (len(points),) and np.isfinite(residual).all()
    assert max_abs(ctx.cov_omega) > 0.1
    assert ctx.curvature.scalar == pytest.approx(np.full(len(points), 30.0), abs=1e-4)
    assert (counts["g_calls"], counts["jm_calls"], counts["inverse_metric"]) == (2, 1, 1), counts
    assert counts["jm"] == len(points) * (1 + 4 * ctx.n)
    assert counts["g"] == counts["jm"] + len(points) * len(ctx._table(2)[0])


@pytest.mark.parametrize("name", sorted(CONNECTION_BUDGET))
def test_connection_terms_built_once_per_point(name, monkeypatch):
    """The connections suite and the report's connections block read one set of terms per
    kind, stacked over the sample points, and the nearly-case ratio reads the first-type
    deformation kept with it."""
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


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("name", zoo.names())
def test_passing_run_forms_no_per_point_values(command, name, monkeypatch):
    """Every reported value of a passing run, the fixture's own check included, is reduced
    straight to its scalar. The per-point values, which only name the point of a value that
    is not finite, are never formed. When each value went through them, a verify on a
    metallic Kahler fixture formed them 118 times and reduced them with `largest` 98 times
    (s6 100 and 87, negative 55 and 49), and a classify 18 and 18."""
    counts = {"max_abs_per_point": 0, "largest": 0}
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "metallicgeo"]:
        for fn_name in counts:
            fn = getattr(module, fn_name, None)
            if callable(fn):
                def counted(*args, _fn=fn, _key=fn_name):
                    counts[_key] += 1
                    return _fn(*args)

                monkeypatch.setattr(module, fn_name, counted)
    argv = [command, "--zoo", name, "--seed", "3", "--format", "json"]
    if command == "verify":
        argv += ["--suite", "all"]
    zoo.get.cache_clear()  # the fixture checks its classification when it is first built
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        zoo.get.cache_clear()
    assert counts == {"max_abs_per_point": 0, "largest": 0}


def test_shared_terms_formed_once(monkeypatch):
    """classify forms the skew part of w once for hyperbolic_direct and omega_skewness, and
    the two ricci-derivative-cycle rows share one set of nabla S terms."""
    calls = {"skew": 0, "cycle": 0}
    skew, cycle = metallic._skew_residual, identities._cycle_terms

    def counted_skew(ctx):
        calls["skew"] += 1
        return skew(ctx)

    def counted_cycle(ctx):
        calls["cycle"] += 1
        return cycle(ctx)

    monkeypatch.setattr(metallic, "RESIDUALS", tuple(
        (name, tier, counted_skew if fn is skew else fn) for name, tier, fn in metallic.RESIDUALS))
    monkeypatch.setattr(identities, "_cycle_terms", counted_cycle)
    fx = BUILDERS["s2"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s2", "--suite", "all", "--format", "json"]) == 0
    assert calls == {"skew": 1, "cycle": 1}


def test_connection_arrays_formed_once(monkeypatch):
    """The connections block and the identity rows reduce the same kept arrays: on s6 the
    -1/3 ratio S_second + 3 S_first twice (block and row), the first type's nabla~ w minus its
    expansion twice (block and row) and the second type's once (block only). When each
    reader formed its own, the block and the rows formed each of these arrays again."""
    kept, reduced = {}, []
    terms = connections.connection_terms

    def recorded_terms(bundle, kind, point):
        kept[kind] = terms(bundle, kind, point)
        return kept[kind]

    monkeypatch.setattr(connections, "connection_terms", recorded_terms)
    for module in (connections, identities):
        def recorded(points, quantity, *arrays, _fn=module.largest_abs):
            reduced.extend(id(a) for a in arrays)
            return _fn(points, quantity, *arrays)

        monkeypatch.setattr(module, "largest_abs", recorded)
    fx = BUILDERS["s6"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s6", "--suite", "all", "--format", "json"]) == 0
    counts = [reduced.count(id(kept["second"]["ratio"])),
              reduced.count(id(kept["first"]["consistency"])),
              reduced.count(id(kept["second"]["consistency"]))]
    assert counts == [2, 2, 1]


def test_ricci_omega_trace_formed_once(monkeypatch):
    """One nearly verify forms the symmetrised Ricci tensor and w^jt once, for the raw trace
    quoted in the note and for the asserted trace; they were formed once for each."""
    calls = []
    trace = identities._ricci_omega_trace

    def counted(ctx):
        calls.append(ctx)
        return trace(ctx)

    monkeypatch.setattr(identities, "_ricci_omega_trace", counted)
    fx = BUILDERS["s6"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s6", "--suite", "all", "--format", "json"]) == 0
    assert len(calls) == 1

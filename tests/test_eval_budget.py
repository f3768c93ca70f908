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
nodes). Runs on spec files parse their text afresh (the CLI's spec cache is
cleared) and are counted from the moment the fields are built, with the
steps that the fields' programs apply behind each field call.
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
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (not first imported inside the traced run)
import pytest

from metallicgeo import cli, connections, diffcalc, identities, metallic, specfile, zoo
from metallicgeo.geometry import contract, max_abs_per_point
from oracles import S2_CUBED_SPEC, count_op_steps, max_abs, observed

S2XS2 = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "s2xs2.spec"

BUILDERS = {
    "s2": zoo.fixture_sphere2,
    "s6": zoo.fixture_sphere6,
    "flat-k2": lambda: zoo.fixture_flat(2),
    "flat-k3": lambda: zoo.fixture_flat(3),
    "negative": zoo.fixture_negative,
}

# (command, fixture) -> (g points, J_M points, g calls, J_M calls). A field that is not
# constant: g one call for order 1, one for the order-2 nodes and, on Kahler bundles
# (ricci-derivative-cycle), one per chunk at order 3 (1 chunk for s2, 13 points); J_M one
# call for order 1 and one per order-2 chunk of nabla nabla w (3 points each at dimension 6:
# 3 chunks for s6). A constant field (g and J_M of flat-k2 and flat-k3, g of negative, J_M of
# s2) is called once, at the sample points. Before constant fields were marked, flat-k2 took
# (2601, 1377, 5, 3), flat-k3 (5010, 1690, 12, 5), s2 (377, 325, 3, 2) and negative
# (272, 272, 1, 1).
BUDGET = {
    ("verify", "s2"): (377, 13, 3, 1),
    ("verify", "s6"): (1521, 1521, 2, 4),
    ("verify", "flat-k2"): (17, 17, 1, 1),
    ("verify", "flat-k3"): (10, 10, 1, 1),
    ("classify", "negative"): (16, 272, 1, 1),
}

# (command, spec file) -> (g points, J_M points, g calls, J_M calls, op steps) of a run on a spec
# file, counted from the moment the bundle is built: a field is evaluated only where the command
# reads it (a constant field is called at the points alone), and each call runs the field's
# program, which applies each distinct unary minus, operator and call of its entries once. s2xs2
# has 4 g entries (2 distinct, of 6 steps each, sharing only leaves) and 4 J entries (-1 and 1:
# 1 step), the s2 spec text 2 equal g entries (6 steps) and 2 J entries (-1 and 1). The op
# steps are the node applications of the tree walk each entry had before its program, counted
# one per node other than a leaf (Expr.eval calls: 6, 3, 12 and 38). curvature: the order-1
# stencil (17 points) and the order-2 nodes (64) of g, and J_M, a constant field, at the point
# alone. A sweep of the spec's own sample points when the bundle is built would add 9 g points,
# 1 g call and 4 evaluations. The constant J_M of each spec took a full stencil before constant
# fields were marked: 17, 117 and 729 J_M points, and 2 J_M calls on s2xs2 verify. s2xs2xs2
# (`oracles.S2_CUBED_SPEC`) builds every jet order of g in dimension 6 at its 10 points: one
# call for order 1, one for the order-2 nodes and one per chunk of one point at order 3.
SPEC_BUDGET = {
    ("curvature", "s2xs2"): (81, 1, 2, 1, 25),
    ("classify", "s2"): (117, 13, 1, 1, 7),
    ("verify", "s2xs2"): (1377, 9, 4, 1, 49),
    ("verify", "s2xs2xs2"): (5010, 10, 12, 1, 217),
}

# (command, fixture) -> multiply-adds of the jet's weight tables, weights.size x value.size per
# `MetricJet._jet` call, measured with one row per distinct partial of each order (padded to
# the widest row, 16 at order 3); the dense tables of one row per ordered multi-index took
# 18 304, 3 545 856, 2 994 176, 40 953 600 and 65 536. A constant field has no jet: before
# constant fields were marked, s2 took 6 656, flat-k2 147 968, flat-k3 478 080 and
# negative 16 384. w has one order-1 jet, d w, and dw is algebra on it; when dw took a jet of
# its own, of the skew part of w, s2 took 6 240, s6 139 968 and negative 12 288.
JET_MADDS = {
    ("verify", "s2"): 5_824,
    ("verify", "s6"): 132_192,
    ("verify", "flat-k2"): 0,
    ("verify", "flat-k3"): 0,
    ("classify", "negative"): 8_192,
}

# fixture -> (connection_terms calls, first_type calls) in one `verify --suite all`: the terms
# once per constructible connection, stacked over the sample points (negative has a gated
# second type, whose gate is read off the classification before any term is built), and
# the first-type deformation once
CONNECTION_BUDGET = {"s2": (2, 1), "s6": (2, 1), "negative": (1, 1)}

# tracemalloc peak of `verify --suite all` on s2xs2xs2 (`oracles.S2_CUBED_SPEC`) once the jet's
# weight tables exist, in bytes: 1.63 MB measured before the contraction kernel and constant
# fields, 1.62 MB after them, 1.99 MB with chunks twice as large (CHUNK_BYTES = 2^18) and
# 2.92 MB when every context kept its order-3 jet
PEAK_BYTES = 1_800_000


def counting_fixture(name, counts):
    """A fresh fixture whose bundle counts the points and calls that evaluate g and J_M."""
    fx = BUILDERS[name]()

    def count(key, pts):
        counts[key] += len(pts)
        counts[f"{key}_calls"] += 1

    return dataclasses.replace(fx, bundle=observed(fx.bundle, count))


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
    elif name == "s2xs2xs2":
        path = s2_cubed_path(tmp_path)
    else:
        path = tmp_path / f"{name}.spec"
        path.write_text(zoo.get(name).spec_text, encoding="utf-8")
    counts = {"g": 0, "jm": 0, "g_calls": 0, "jm_calls": 0, "ops": 0}
    field = specfile._expr_matrix_field

    def counted_field(fname, *args, **kwargs):
        fld = field(fname, *args, **kwargs)
        key = "g" if fname == "g" else "jm"  # J_M is computed from the structure, call for call

        def fn(pts):
            counts[key] += len(pts)
            counts[f"{key}_calls"] += 1
            return fld.fn(pts)

        return dataclasses.replace(fld, fn=fn)

    monkeypatch.setattr(specfile, "_expr_matrix_field", counted_field)
    count_op_steps(monkeypatch, counts)
    argv = {"classify": [], "verify": ["--suite", "all"],
            "curvature": ["--point=0.1,0.2,-0.3,0.4"]}[command]
    # the CLI keeps the spec of a text it has run, with its fields: parse the text afresh so
    # that the run builds counted fields, and keep no counted field after the run
    cli._parsed_spec.cache_clear()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main([command, str(path), *argv, "--format", "json"]) == 0
    finally:
        cli._parsed_spec.cache_clear()
    assert min(counts.values()) > 0, counts  # a bound on a count of 0 would test nothing
    g_max, jm_max, g_calls_max, jm_calls_max, ops_max = SPEC_BUDGET[(command, name)]
    assert counts["g"] <= g_max, counts
    assert counts["jm"] <= jm_max, counts
    assert counts["g_calls"] <= g_calls_max, counts
    assert counts["jm_calls"] <= jm_calls_max, counts
    assert counts["ops"] <= ops_max, counts


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


def s2_cubed_path(tmp_path) -> Path:
    path = tmp_path / "s2xs2xs2.spec"
    path.write_text(S2_CUBED_SPEC, encoding="utf-8")
    return path


def test_jet_never_calls_tensordot(monkeypatch, tmp_path):
    """Every jet order of a dimension-6 verify, order 3 included, is applied without
    `np.tensordot`, whose multithreaded BLAS time swings with the load on the machine."""

    def no_tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    path = s2_cubed_path(tmp_path)
    monkeypatch.setattr(np, "tensordot", no_tensordot)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", str(path), "--suite", "all", "--format", "json"]) == 0


def test_verify_memory_peak_s2_cubed(tmp_path):
    """Contexts keep the order-2 jet of g, not the order-3 one.

    nabla Ricci reads d d d g and d d Gamma once; a context that kept them
    would hold n^5 more numbers of each per point, and the traced peak of
    one verify would grow about 2-fold.
    """
    path = s2_cubed_path(tmp_path)
    # the weight tables are built once per process; the order-3 table builds the order-2 one
    diffcalc._jet_table(6, diffcalc.DiffScheme().h2, 3)
    gc.collect()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(path), "--suite", "all", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES, peak


@pytest.mark.parametrize("case", ["s6", "s2xs2xs2"])
def test_dimension_6_verify_stays_on_one_core(case, tmp_path):
    """A dimension-6 verify takes at most 1.2 times its wall time in process CPU time: the
    batched matrix products of `geometry.contract` are small enough that BLAS runs them on
    the calling thread, where a BLAS thread pool would add its spinning threads' time."""
    argv = ["--zoo", "s6"] if case == "s6" else [str(s2_cubed_path(tmp_path))]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", *argv, "--suite", "all", "--format", "json"]) == 0
        wall, cpu = time.perf_counter(), time.process_time()
        for seed in range(1, 6):
            assert cli.main(["verify", *argv, "--suite", "all", "--format", "json",
                             "--seed", str(seed)]) == 0
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.2 * wall, (cpu, wall)


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
    ctx = diffcalc.PointContext(bundle.g, bundle.jm, bundle.params.q, points, bundle.scheme)
    for row in metallic.CLASSIFICATION:
        residual = max_abs_per_point(*row.fn(ctx))
        assert residual.shape == (len(points),) and np.isfinite(residual).all()
    assert max_abs(ctx.cov_omega) > 0.1
    assert ctx.curvature.scalar == pytest.approx(np.full(len(points), 30.0), abs=1e-4)
    assert (counts["g_calls"], counts["jm_calls"], counts["inverse_metric"]) == (2, 1, 1), counts
    assert counts["jm"] == len(points) * (1 + 4 * ctx.n)
    assert counts["g"] == counts["jm"] + len(points) * len(ctx._table(2)[0])


# (command, fixture) -> (christoffel calls, riemann calls, contractions made inside riemann,
# rows inverted, contexts built) in one `verify --suite all` (the context of the sample
# points) or `curvature` (the context of a point 40 % of the way across each axis) on a fresh
# fixture. A constant metric is flat: it forms no Christoffel symbol, its curvature is the
# zeros `riemann` returns with no algebra, and it inverts g at one point per context; verify
# on negative reads no curvature at all, since its Kähler rows are gated and H and Ricci-star
# are zeros of their own, and neither does verify on flat-k3, whose g and J_M are both
# constant, so that every row reading curvature, the ricci-omega trace included, is recorded
# unformed (before that, its trace read the zeros `riemann` returns: (0, 1, 0, 1, 1)). Before
# the flat rule, verify took (1, 1, 4, 10, 1) on flat-k3 and (1, 1, 4, 16, 1) on negative, one
# row per sample point, and curvature (1, 1, 5, 1, 1) on both. s2 is curved: one stack of
# Christoffel symbols and one Riemann tensor (which forms d Gamma, and in curvature Gamma
# too, on its first read), and every point inverted, as before.
CONNECTION_WORK = {
    ("verify", "flat-k3"): (0, 0, 0, 1, 1),
    ("curvature", "flat-k3"): (0, 1, 0, 1, 1),
    ("verify", "negative"): (0, 0, 0, 1, 1),
    ("curvature", "negative"): (0, 1, 0, 1, 1),
    ("verify", "s2"): (1, 1, 6, 13, 1),
    ("curvature", "s2"): (1, 1, 7, 1, 1),
}


@pytest.mark.parametrize("command,name", sorted(CONNECTION_WORK))
def test_flat_metric_forms_no_connection(command, name, monkeypatch):
    """The Christoffel symbols, Riemann tensors, curvature contractions and inverted rows of
    g of one CLI run."""
    counts = {"christoffel": 0, "riemann": 0, "in_riemann": 0, "rows": 0, "contexts": 0}
    inside = []

    def counted(module, fn_name, key, rows=lambda *args: 1):
        fn = getattr(module, fn_name)

        def call(*args, **kwargs):
            counts[key] += rows(*args)
            inside.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(module, fn_name, call)

    counted(diffcalc, "christoffel", "christoffel")
    counted(diffcalc, "riemann", "riemann")
    counted(diffcalc, "contract", "in_riemann", lambda *args: "riemann" in inside)
    counted(diffcalc, "inverse_metric", "rows", lambda g, *rest: len(g.reshape(-1, *g.shape[-2:])))
    counted(metallic, "PointContext", "contexts")
    fx = BUILDERS[name]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    point = ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in fx.bundle.chart.bounds)
    argv = ["--suite", "all"] if command == "verify" else [f"--point={point}"]
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, "--zoo", name, *argv, "--format", "json"]) == 0
    assert tuple(counts.values()) == CONNECTION_WORK[(command, name)], counts


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
    """Rows of one `evaluate` call that name one function share its arrays: the metallic
    suite forms F's skew part once for covderiv-skew-adjoint and f-skew-last-args, and
    the two ricci-derivative-cycle rows form the cycle once."""
    calls = {"f_skew": 0, "cycle": 0}

    def counted(fn, key):
        def wrapper(ctx):
            calls[key] += 1
            return fn(ctx)
        return wrapper

    for fn, key, tables in ((identities._f_skew, "f_skew", ("COVDERIV", "F_HERMITIAN")),
                            (identities._ricci_cycle, "cycle", ("RICCI_CYCLE",))):
        wrapped = counted(fn, key)
        for table in tables:
            monkeypatch.setattr(identities, table, tuple(
                dataclasses.replace(row, fn=wrapped) if row.fn is fn else row
                for row in getattr(identities, table)))
    fx = BUILDERS["s2"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s2", "--suite", "all", "--format", "json"]) == 0
    assert calls == {"f_skew": 1, "cycle": 1}


def test_connection_arrays_formed_once(monkeypatch):
    """The connections block and the identity rows reduce the kept arrays, each once: on s6
    the -1/3 ratio S_second + 3 S_first and the first type's nabla~ w minus its expansion
    (rows only), and the first type's torsion (block only); the second type forms no
    expansion consistency and no torsion. When each reader formed its own, the block and
    the rows formed each of these arrays again; when the block repeated a row, both reduced
    it. Every reduced array is kept, so the counts compare identities, not ids that a freed
    temporary may hand on."""
    kept, reduced = {}, []
    terms = connections.connection_terms

    def recorded_terms(ctx, kind, levi=False):
        kept[kind] = terms(ctx, kind, levi)
        return kept[kind]

    monkeypatch.setattr(connections, "connection_terms", recorded_terms)
    for module in (connections, identities, metallic):
        def recorded(points, quantity, *arrays, _fn=module.largest_abs):
            reduced.extend(arrays)
            return _fn(points, quantity, *arrays)

        monkeypatch.setattr(module, "largest_abs", recorded)
    fx = BUILDERS["s6"]()
    monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--zoo", "s6", "--suite", "all", "--format", "json"]) == 0
    counts = [sum(a is array for a in reduced)
              for array in (kept["second"]["ratio"], kept["first"]["consistency"],
                            kept["first"]["torsion"])]
    assert counts == [1, 1, 1]
    assert not {"consistency", "torsion", "ng"} & kept["second"].keys()


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


# (command, fixture or spec file holding a fixture's text) -> (contract calls in any module,
# np.einsum calls, covariant_derivative calls, nijenhuis calls) in one job with its own --seed.
# A flat jet takes nabla J_M and nabla w as their partials plus 0.0 and a constant J_M has
# N = 0, each formed with no algebra; when both fields are constant, every row but the
# algebra on g and J_M alone is recorded as 0 without being formed (`metallic.evaluate`), and
# so are the ricci-omega trace and the connections block: no connection term is formed, and
# classify and verify do no algebra, on the zoo fixtures and on the flat-k1 and torus texts
# that verify-spec runs. Before these rules, classify took (4, 3, 1, 1) on flat-k1/2/3 and
# torus, (4, 5, 1, 1) on negative and (5, 5, 1, 1) on s2, and verify --suite all
# (57, 18, 2, 1) on flat-k3 ((48, 14, 0, 0) with the known zeros of the PointContext members
# alone, (14, 3, 0, 0) with those of the d1-d3 rows: the connection terms, the alg rows that
# read them, star-conjugate-contraction and the ricci-omega trace), (22, 14, 2, 1) on negative
# and (80, 32, 4, 1) on s2. s6 has neither field constant.
KNOWN_ZERO_WORK = {
    **{("classify", name): (0, 0, 0, 0) for name in ("flat-k1", "flat-k2", "flat-k3", "torus")},
    **{("verify", name): (0, 0, 0, 0) for name in ("flat-k1", "flat-k2", "flat-k3", "torus",
                                                   "flat-k1.spec", "torus.spec")},
    ("classify", "negative"): (2, 5, 0, 1),
    ("classify", "s2"): (3, 5, 1, 0),
    ("classify", "s6"): (5, 11, 1, 1),
    ("verify", "negative"): (18, 14, 0, 1),
    ("verify", "s2"): (78, 32, 4, 0),
}


@pytest.mark.parametrize("command,name", sorted(KNOWN_ZERO_WORK))
def test_constant_fields_skip_known_algebra(command, name, monkeypatch, tmp_path):
    """The contractions, einsums, covariant derivatives and Nijenhuis tensors of one job."""
    fixture, _, spec = name.partition(".")
    source = ["--zoo", name]
    if spec:
        path = tmp_path / name
        path.write_text(zoo.get(fixture).spec_text, encoding="utf-8")
        source = [str(path)]
    zoo.get(fixture)  # the fixture checks its classification when it is first built
    counts = dict.fromkeys(("contract", "einsum", "covariant_derivative", "nijenhuis"), 0)

    def counted(module, fn_name, key):
        fn = getattr(module, fn_name)

        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, call)

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "metallicgeo"]:
        if getattr(module, "contract", None) is contract:
            counted(module, "contract", "contract")
    counted(np, "einsum", "einsum")
    counted(diffcalc, "covariant_derivative", "covariant_derivative")
    counted(diffcalc, "nijenhuis", "nijenhuis")
    argv = [command, *source, "--seed", "3", "--format", "json"]
    if command == "verify":
        argv += ["--suite", "all"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert tuple(counts.values()) == KNOWN_ZERO_WORK[(command, name)], counts

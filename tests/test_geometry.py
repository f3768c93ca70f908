import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from metallicgeo.geometry import (
    Chart,
    ChartBoundsError,
    NumericalError,
    SingularMetricError,
    TensorField,
    inverse_metric,
    largest,
    largest_abs,
    max_abs_per_point,
)
from metallicgeo import cli, metallic, zoo
from metallicgeo.specfile import SpecFileError, parse_spec
from oracles import reference_fixed_points, reference_sample_points


def test_chart_grid_3x3_gives_9_points():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1)
    pts = chart.sample_points(42)
    assert pts.shape == (9, 2)
    assert np.all(np.abs(pts) <= 0.9 + 1e-12)


def test_chart_determinism_for_fixed_seed():
    mk = lambda: Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=2, n_random=6,
                       margin=0.1).sample_points(42)
    assert np.array_equal(mk(), mk())


def test_chart_named_point_included():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1,
                  named_points={"origin": (0.0, 0.0)})
    pts = chart.sample_points(42)
    assert any(np.allclose(p, [0.0, 0.0]) for p in pts)


SQUARE = dict(dimension=2, bounds=((-1, 1), (-1, 1)), margin=0.1)
SAMPLERS = {
    # grid nodes at -0.9, 0 and 0.9: the origin, its -0.0 spelling and a point 1e-13 off
    # a node are dropped, as is a point named twice
    "named-on-grid-node": dict(SQUARE, grid=3, n_random=4, named_points={
        "a": (0.0, 0.0), "b": (-0.0, 0.9), "c": (0.9 - 1e-13, -0.9), "d": (0.3, 0.2),
        "e": (0.3, 0.2)}),
    "grid-0": dict(SQUARE, grid=0, n_random=8, named_points={"o": (-0.0, 0.0)}),
    "grid-1": dict(dimension=4, bounds=((-1, 1), (0, 2), (-3, 1), (-1, 0)), grid=1, n_random=9,
                   margin=0.2, named_points={"m": (0.0, 1.0, -1.0, -0.5)}),
    "dimension-6-729": dict(dimension=6, bounds=((-1, 1),) * 6, grid=3, n_random=5, margin=0.1,
                            named_points={"o": (-0.0,) * 6, "p": (0.1,) * 6}),
}


@pytest.mark.parametrize("kwargs", SAMPLERS.values(), ids=SAMPLERS)
def test_sample_points_match_the_reference_sampler(kwargs):
    chart = Chart(**kwargs)
    got, want = chart.sample_points(42), reference_sample_points(chart, 42)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", zoo.names())
def test_zoo_sample_points_match_the_reference_sampler(name):
    """One fixture chart serves bundles of every seed: each bundle draws the reference points
    of its seed, read-only, once, and the chart keeps no entry that depends on the seed. A
    policy that draws no random point gives every seed one array."""
    fixture = zoo.get(name).bundle
    chart = fixture.chart
    seed_free = {f.name for f in fields(chart)} | {"_interior", "_fixed_points"}
    drawn = []
    for seed in (0, 1, 7, 12345, 123456, fixture.seed, 2**31 - 1):
        bundle = replace(fixture, seed=seed)
        assert bundle.chart is chart
        got, want = bundle.sample_points, reference_sample_points(chart, seed)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed
        assert not got.flags.writeable and bundle.sample_points is got
        assert set(vars(chart)) <= seed_free, seed
        drawn.append(got)
    assert not chart._fixed_points.flags.writeable
    assert all((got is drawn[0]) == (chart.n_random == 0) for got in drawn[1:])


def _random_charts(seed: int, count: int) -> list:
    """Charts of dimension 2, 4 and 6 with grids 0 to 3 and up to four named points each: a
    grid node, or a point 1e-13 or 5e-12 off one, the origin with -0.0 coordinates, a point
    named twice or a point off the grid, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    charts = []
    while len(charts) < count:
        n, grid = int(rng.choice([2, 4, 6])), int(rng.integers(0, 4))
        lo = rng.uniform(-3.0, -0.5, n)
        hi = rng.uniform(0.5, 3.0, n)
        margin = 0.2
        a, b = lo + margin, hi - margin
        named = {}
        for j in range(int(rng.integers(0, 5))):
            kind = int(rng.integers(0, 4))
            if kind == 0 and grid:
                pt = [np.linspace(a[i], b[i], grid)[rng.integers(grid)] for i in range(n)]
                inward = np.where(np.less(pt, (a + b) / 2), 1.0, -1.0)
                pt = pt + rng.choice([0.0, 1e-13, 5e-12]) * inward
            elif kind == 1:
                pt = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            elif kind == 2 and named:
                pt = next(iter(named.values()))
            else:
                pt = rng.uniform(a, b)
            named[f"p{j}"] = tuple(float(v) for v in pt)
        n_random = 8 if grid**n + len(named) < 8 else int(rng.integers(0, 3))
        charts.append(Chart(dimension=n, bounds=tuple(zip(lo, hi)), grid=grid,
                            n_random=n_random, margin=margin, named_points=named))
    return charts


def test_fixed_points_match_the_reference_rows():
    """The chart's distinct fixed rows, from numpy's meshgrid and first-occurrence unique,
    are the bytes of the per-axis loop and lexsort dedupe they replaced, read-only, on every
    zoo chart and on seeded random charts whose named points sit on or next to grid nodes,
    at -0.0, twice or off the grid."""
    charts = [zoo.get(name).bundle.chart for name in zoo.names()] + _random_charts(57, 200)
    for chart in charts:
        got, want = chart._fixed_points, reference_fixed_points(chart)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), chart
        assert not got.flags.writeable, chart


def test_chart_rejects_odd_dimension():
    with pytest.raises(ValueError):
        Chart(dimension=3, bounds=((-1, 1),) * 3, grid=2, margin=0.1)


def test_chart_rejects_small_sample_budget():
    with pytest.raises(ValueError):
        Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=2, n_random=0, margin=0.1)


CORNER_SPEC = """\
dimension = 2
q = 0.6666666666666666
bounds = -1 1, -1 1
grid = 2
random_points = {n_random}
margin = 0.1
point corner = -0.9 -0.9
structure = J
sign = +
g[0][0] = 1
g[1][1] = 1
j[0][1] = -1
j[1][0] = 1
"""


def test_chart_counts_distinct_sample_points(tmp_path):
    """4 grid nodes, 3 random points and a named point on a grid node are 7 distinct points,
    not the 8 the policy asks for; one more random point makes 8. The distinct points are
    counted when they are drawn: classify and verify reject the policy (exit 2), curvature,
    which reads no sample point, runs."""
    kwargs = dict(dimension=2, bounds=((-1, 1), (-1, 1)), grid=2, margin=0.1,
                  named_points={"corner": (-0.9, -0.9)})
    chart = Chart(n_random=3, **kwargs)
    for _ in range(2):  # a failed draw is not kept
        with pytest.raises(ValueError, match="at least 8 distinct points, got 7"):
            chart.sample_points(42)
    assert len(Chart(n_random=4, **kwargs).sample_points(42)) == 8
    path = tmp_path / "corner.spec"
    path.write_text(CORNER_SPEC.format(n_random=3), encoding="utf-8")
    for argv, code in ((["classify"], 2), (["verify", "--suite", "all"], 2),
                       (["curvature", "--point=0.1,0.2"], 0)):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            assert cli.main([argv[0], str(path), *argv[1:]]) == code, argv
        assert ("at least 8 distinct points, got 7" in err.getvalue()) == (code == 2)
    with redirect_stdout(io.StringIO()):
        path.write_text(CORNER_SPEC.format(n_random=4), encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 0


def test_sample_points_drawn_once_per_bundle(monkeypatch):
    """A bundle draws its sample points once, when they are first asked for, from its chart
    and its seed: the CLI's distinct-count check and the rows of a run with `--seed` read
    one read-only array, drawn on the fixture's chart."""
    drawn = []
    draw = Chart.sample_points

    def counted(chart, seed):
        drawn.append((chart, seed, draw(chart, seed)))
        return drawn[-1][2]

    monkeypatch.setattr(Chart, "sample_points", counted)
    zoo.get.cache_clear()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--zoo", "s2", "--seed", "5", "--format", "json"]) == 0
    finally:
        zoo.get.cache_clear()
    assert [seed for _, seed, _ in drawn] == [11, 5]  # the fixture's bundle, then the run's
    assert drawn[0][0] is drawn[1][0] and not drawn[1][2].flags.writeable


def _counted(counts, key, fn):
    def call(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return call


def test_zoo_seed_job_runs_no_chart_check_and_builds_no_grid(monkeypatch):
    """With the fixtures built, a zoo `classify --seed` job runs no chart check and builds no
    grid row: its chart is the fixture's."""
    for name in zoo.names():
        zoo.get(name, zoo.DEFAULT_Q)
    counts = {"post_init": 0, "linspace": 0}
    monkeypatch.setattr(Chart, "__post_init__", _counted(counts, "post_init", Chart.__post_init__))
    monkeypatch.setattr(np, "linspace", _counted(counts, "linspace", np.linspace))
    for name in zoo.names():
        with redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "--zoo", name, "--seed", "12345", "--format", "json"]) == 0
        assert counts == {"post_init": 0, "linspace": 0}, name


def kept(bundle) -> dict:
    """What a bundle keeps: each member of vars(bundle) by identity, with the kinds of its
    connection terms."""
    return {key: (id(value), tuple(value) if isinstance(value, dict) else ())
            for key, value in vars(bundle).items()}


def test_each_zoo_job_builds_its_own_context_and_classification(monkeypatch):
    """Zoo jobs with one seed, two or no override at all share no context and no
    classification with each other or with the fixture, also where the run's bundle reads the
    fixture's points (flat-k1, and every job with no --seed): a job with no override builds its
    own bundle too, and nothing it computes stays on the fixture."""
    jobs = [["classify", "--zoo", name, "--seed", seed]
            for name, seed in [("flat-k1", "1"), ("flat-k1", "1"), ("flat-k1", "2"), ("s2", "1"),
                               ("s2", "1")]]
    jobs += [["classify", "--zoo", "s2"], ["verify", "--zoo", "s2", "--suite", "all"],
             ["curvature", "--zoo", "s6", "--point=0.1,-0.2,0.05,0.3,-0.1,0.2"],
             ["curvature", "--zoo", "s6", "--point=-0.3,0.1,0.2,0,0.15,-0.25"]]
    fixtures = {name: zoo.get(name, zoo.DEFAULT_Q) for name in ("flat-k1", "s2", "s6")}
    cached = {name: kept(fx.bundle) for name, fx in fixtures.items()}
    counts = {"contexts": 0, "classify": 0}
    monkeypatch.setattr(metallic, "PointContext",
                        _counted(counts, "contexts", metallic.PointContext))
    monkeypatch.setattr(metallic, "classify", _counted(counts, "classify", metallic.classify))
    for argv in jobs:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert counts == {"contexts": len(jobs), "classify": len(jobs) - 2}  # 2 curvature jobs
    assert {name: kept(fx.bundle) for name, fx in fixtures.items()} == cached


@pytest.mark.parametrize("argv", [
    ["classify", "--zoo", "s2"], ["classify", "--zoo", "negative", "--seed", "7"],
    ["verify", "--zoo", "s6", "--suite", "all"], ["verify", "--zoo", "flat-k3", "--suite", "all"],
    ["verify", "--zoo", "s2", "--suite", "all"], ["verify", "--zoo", "negative", "--suite", "all"],
    ["curvature", "--zoo", "s2", "--point=0.1,-0.2"],
], ids=lambda argv: "-".join(argv[:3]))
def test_a_job_looks_up_the_one_context_it_builds(argv, monkeypatch):
    """A classify, verify or curvature job asks its bundle for a context once, and builds one:
    every check and connection reads the bundle's `sample_context`. When the bundle kept its
    contexts keyed by their points, a verify job asked for the one context 11 to 14 times."""
    zoo.get(argv[2], zoo.DEFAULT_Q)  # the fixture's own check builds its context first
    counts = {"context": 0, "built": 0}
    monkeypatch.setattr(metallic.StructureBundle, "context",
                        _counted(counts, "context", metallic.StructureBundle.context))
    monkeypatch.setattr(metallic, "PointContext", _counted(counts, "built", metallic.PointContext))
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert counts == {"context": 1, "built": 1}


def test_bundle_is_frozen_and_keeps_no_context_a_caller_asks_for():
    """`context(point)` builds a new context on every call and the bundle keeps none of them,
    so library calls on a cached fixture leave it as it was; a bundle field cannot be
    assigned."""
    fx = zoo.get("s2")
    fx.bundle.classification()
    before = kept(fx.bundle)
    point = np.array([0.2, -0.1])
    first, second = fx.bundle.context(point), fx.bundle.context(point)
    assert first is not second
    assert first.curvature.scalar == second.curvature.scalar
    fx.bundle.context(fx.bundle.sample_points)
    assert kept(fx.bundle) == before
    with pytest.raises(FrozenInstanceError):
        fx.bundle.seed = 7
    with pytest.raises(FrozenInstanceError):
        fx.bundle.scheme = fx.bundle.scheme


@pytest.mark.parametrize("kwargs,message", [
    (dict(named_points={"a": (0.1,)}), "named point 'a' needs 2 coordinates, got 1"),
    (dict(named_points={"a": (0.1, 0.2, 0.3)}), "named point 'a' needs 2 coordinates, got 3"),
    (dict(grid=-3), "grid must be non-negative, got -3"),
    (dict(bounds=((-1, 1),)), "bounds must provide one (lo, hi) pair per coordinate"),
], ids=["short-point", "long-point", "negative-grid", "one-bounds-pair"])
def test_chart_names_a_malformed_setting(kwargs, message):
    # a 1-coordinate point broadcasts through the bounds check
    with pytest.raises(ValueError, match=re.escape(message)):
        Chart(**{"dimension": 2, "bounds": ((-1, 1), (-1, 1)), "margin": 0.1, **kwargs})


def test_largest_reduces_per_point_values():
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    assert largest([], points[:0], "residual of x") == 0.0
    assert largest(np.array([1.0, 3.0, 2.0]), points, "residual of x") == 3.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("k", [0, 2])
def test_largest_names_the_point_of_a_value_that_is_not_finite(bad, k):
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    values = [1.0, 3.0, 2.0]
    values[k] = bad
    with pytest.raises(NumericalError, match=re.escape(
            f"scale of some-row is {bad:g} at point {points[k].tolist()}")):
        largest(values, points, "scale of some-row")


def reference_largest_abs(points, quantity, *arrays) -> float:
    """What largest_abs reduces straight to its scalar: the per-point values, then `largest`."""
    return largest(max_abs_per_point(*arrays), points, quantity)


@pytest.mark.parametrize("shapes", [[(5,)], [(5, 3, 3)], [(5, 2, 2, 2), (5, 2, 2), (5, 4)]])
def test_largest_abs_is_the_largest_per_point_value_to_the_bit(shapes):
    rng = np.random.default_rng(7)
    points = rng.uniform(-1, 1, size=(5, 2))
    arrays = [rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
              for shape in shapes]
    cases = [arrays, [-a for a in arrays], [np.zeros(shape) for shape in shapes],
             [np.full(shape, -0.0) for shape in shapes], [np.zeros((5, 0))]]
    for case in cases:
        got = largest_abs(points, "residual of x", *case)
        want = reference_largest_abs(points, "residual of x", *case)
        assert type(got) is float and got == want and math.copysign(1.0, got) == 1.0
    assert largest_abs(points, "scale of x") == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [[(0, 3)], [(2, 0)], [(1, 3), (2, 1)]],
                         ids=["first-array", "last-array", "two-arrays"])
def test_largest_abs_names_the_point_as_the_per_point_values_do(bad, where):
    """A value that is not finite names the first point where the largest over all the
    arrays is not finite, even when the first array that holds one holds it at a later
    point."""
    points = np.array([[0.1 * k, 0.2] for k in range(5)])
    arrays = [np.ones((5, 2, 2)), np.ones((5, 3)), np.ones(5)]
    for index, k in where:
        arrays[index].reshape(5, -1)[k, -1] = bad
    with pytest.raises(NumericalError) as want:
        reference_largest_abs(points, "scale of some-row", *arrays)
    with pytest.raises(NumericalError) as got:
        largest_abs(points, "scale of some-row", *arrays)
    assert str(got.value) == str(want.value)
    assert f"at point {points[min(k for _, k in where)].tolist()}" in str(got.value)


def test_inverse_metric_identity_and_diagonal():
    assert np.allclose(inverse_metric(np.eye(4)), np.eye(4))
    assert np.allclose(inverse_metric(np.diag([4.0, 4.0])), np.diag([0.25, 0.25]))


def test_inverse_metric_sphere_conformal_origin():
    # 4/(1+r^2)^2 delta at the origin is 4*delta, so the inverse is delta/4
    g = 4.0 * np.eye(2)
    assert np.allclose(inverse_metric(g), 0.25 * np.eye(2))


def test_inverse_metric_singular_names_point():
    with pytest.raises(SingularMetricError) as err:
        inverse_metric(np.zeros((2, 2)), point=(0.5, -0.5))
    assert "0.5" in str(err.value)


@pytest.mark.parametrize("g", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                               [[1e-320, 0.0], [0.0, 1e-320]]], ids=["nan", "inf", "subnormal"])
def test_inverse_metric_of_a_metric_that_is_not_a_number_is_singular_without_a_warning(g):
    """A NaN or inf entry warned (in det, in divide) before the metric was called singular,
    and the inverse of a subnormal metric overflows: each is singular, named with its point,
    and numpy's warnings decide nothing (the suite turns a warning into an error)."""
    with pytest.raises(SingularMetricError) as err:
        inverse_metric(np.array(g), point=(0.5, -0.5))
    assert err.value.point.tolist() == [0.5, -0.5]


def test_inverse_metric_nondegeneracy_is_scale_invariant():
    # det = 1e-12, far below any absolute threshold, but g is 0.01 times the identity
    assert np.allclose(inverse_metric(0.01 * np.eye(6)), 100.0 * np.eye(6))
    for c in (1e-3, 1.0, 1e3):
        with pytest.raises(SingularMetricError):
            inverse_metric(c * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]))


def test_chart_require_inside_names_the_failure():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1)
    chart.require_inside((0.99, 0.0), reach=0.005)
    with pytest.raises(ChartBoundsError, match="outside the chart"):
        chart.require_inside((5.0, 0.0), reach=0.005)
    with pytest.raises(ChartBoundsError, match="too close to the boundary"):
        chart.require_inside((0.999, 0.0), reach=0.005)
    # a stack is checked at once, and the first point that fails is named
    chart.require_inside([(0.99, 0.0), (-0.5, 0.2)], reach=0.005)
    with pytest.raises(ChartBoundsError, match=re.escape("point [0.999, 0.0] is too close")):
        chart.require_inside([(0.0, 0.0), (0.999, 0.0), (5.0, 0.0)], reach=0.005)
    with pytest.raises(ChartBoundsError, match=re.escape("point [5.0, 0.0] is outside")):
        chart.require_inside([(0.0, 0.0), (5.0, 0.0), (0.999, 0.0)], reach=0.005)


MARGIN_SPEC = (
    "dimension = 2\nq = 0.6666666666666666\nbounds = {lo!r} {hi!r}, {lo!r} {hi!r}\n"
    "margin = {margin!r}\nstructure = J\nsign = +\ng[0][0] = 1\ng[1][1] = 1\n"
    "j[0][1] = -1\nj[1][0] = 1\npoint e = {x!r} {y!r}\n"
)


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("lo,hi,margin", [(-1.0, 1.0, 0.1), (-0.6, 0.6, 0.05), (0.3, 2.7, 0.07)])
def test_margin_edge_is_inside_for_every_bounds_check(lo, hi, margin, side):
    """A coordinate exactly at lo + margin (or hi - margin) passes the named-point check of
    the chart, the spec parser's located check and require_inside(reach=margin); one float
    step further out fails all three."""
    edge = lo + margin if side == "lo" else hi - margin
    past = np.nextafter(edge, -np.inf if side == "lo" else np.inf)
    bounds, mid = ((lo, hi), (lo, hi)), 0.5 * (lo + hi)
    chart = Chart(dimension=2, bounds=bounds, margin=margin)
    for x, inside in ((edge, True), (past, False)):
        point = (float(x), mid)
        text = MARGIN_SPEC.format(lo=lo, hi=hi, margin=margin, x=float(x), y=mid)
        if inside:
            Chart(dimension=2, bounds=bounds, margin=margin, named_points={"e": point})
            assert parse_spec(text).named_points == {"e": point}
            chart.require_inside(point, reach=margin)
            continue
        with pytest.raises(ValueError, match="named point 'e' is not inside the chart margin"):
            Chart(dimension=2, bounds=bounds, margin=margin, named_points={"e": point})
        with pytest.raises(SpecFileError, match="line 11, offset 11: named point 'e' is not inside"):
            parse_spec(text)
        with pytest.raises(ChartBoundsError, match="too close to the boundary"):
            chart.require_inside(point, reach=margin)


def test_inverse_metric_stack_names_the_singular_row():
    g = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    points = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    with pytest.raises(SingularMetricError) as err:
        inverse_metric(g, points)
    assert err.value.point.tolist() == [0.3, -0.4]
    regular = np.delete(g, 1, axis=0)
    for gi, ginv in zip(regular, inverse_metric(regular, np.delete(points, 1, axis=0))):
        assert np.allclose(ginv, inverse_metric(gi))


def test_field_accepts_a_point_or_a_stack():
    field = TensorField("scaled", lambda pts: pts[:, :1, None] * np.eye(2))
    pts = np.array([[2.0, 0.0], [3.0, 1.0]])
    assert field(pts).shape == (2, 2, 2)
    assert np.array_equal(field(pts[1]), 3.0 * np.eye(2))

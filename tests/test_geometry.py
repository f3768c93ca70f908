import math
import re
from dataclasses import replace

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
from metallicgeo import zoo
from metallicgeo.specfile import SpecFileError, parse_spec
from oracles import reference_sample_points


def test_chart_grid_3x3_gives_9_points():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1)
    pts = chart.sample_points()
    assert pts.shape == (9, 2)
    assert np.all(np.abs(pts) <= 0.9 + 1e-12)


def test_chart_determinism_for_fixed_seed():
    mk = lambda: Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=2, n_random=6,
                       seed=42, margin=0.1).sample_points()
    assert np.array_equal(mk(), mk())


def test_chart_named_point_included():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1,
                  named_points={"origin": (0.0, 0.0)})
    pts = chart.sample_points()
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
    got, want = chart.sample_points(), reference_sample_points(chart)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", zoo.names())
def test_zoo_sample_points_match_the_reference_sampler(name):
    for seed in (0, 7, 123456):
        chart = replace(zoo.get(name).bundle.chart, seed=seed)
        got, want = chart.sample_points(), reference_sample_points(chart)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed


def test_chart_rejects_odd_dimension():
    with pytest.raises(ValueError):
        Chart(dimension=3, bounds=((-1, 1),) * 3, grid=2, margin=0.1)


def test_chart_rejects_small_sample_budget():
    with pytest.raises(ValueError):
        Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=2, n_random=0, margin=0.1)


@pytest.mark.parametrize("kwargs,message", [
    (dict(named_points={"a": (0.1,)}), "named point 'a' needs 2 coordinates, got 1"),
    (dict(named_points={"a": (0.1, 0.2, 0.3)}), "named point 'a' needs 2 coordinates, got 3"),
    (dict(grid=-3), "grid must be non-negative, got -3"),
], ids=["short-point", "long-point", "negative-grid"])
def test_chart_names_a_malformed_setting(kwargs, message):
    # a 1-coordinate point broadcasts through the bounds check; (-3)^2 passes the sample count
    with pytest.raises(ValueError, match=re.escape(message)):
        Chart(dimension=2, bounds=((-1, 1), (-1, 1)), margin=0.1, **kwargs)


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

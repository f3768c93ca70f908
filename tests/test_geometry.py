import math
import re
from dataclasses import replace

import numpy as np
import pytest

from metallicgeo.geometry import (
    Chart,
    ChartBoundsError,
    GeometryError,
    NumericalError,
    SingularMetricError,
    TensorField,
    inverse_metric,
    largest,
)
from metallicgeo import zoo
from oracles import const_field, reference_sample_points


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


def test_tensorfield_validates_declared_symmetry():
    bad = TensorField(name="bad", sig="dd", fn=const_field([[0.0, 1.0], [0.0, 0.0]]),
                      symmetric_pairs=((0, 1),))
    with pytest.raises(Exception):
        bad.validate_on(np.zeros((1, 2)))



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
    field = TensorField("scaled", "dd", lambda pts: pts[:, :1, None] * np.eye(2))
    pts = np.array([[2.0, 0.0], [3.0, 1.0]])
    assert field(pts).shape == (2, 2, 2)
    assert np.array_equal(field(pts[1]), 3.0 * np.eye(2))


def test_validate_on_names_the_asymmetric_row():
    def fn(pts):
        out = np.tile(np.eye(2), (len(pts), 1, 1))
        out[:, 0, 1] = pts[:, 0]  # symmetric only where x0 = 0
        return out

    field = TensorField("g", "dd", fn, symmetric_pairs=((0, 1),))
    with pytest.raises(GeometryError, match=r"at \[0\.5, 0\.2\]"):
        field.validate_on(np.array([[0.0, 0.1], [0.5, 0.2], [0.0, 0.3]]))

"""Coordinate invariance: a bundle pulled back by an affine chart change keeps its geometry.

For x = A y + b the pulled-back metric is g'(y) = A^T g(A y + b) A and the
pulled-back structure J'_M(y) = A^-1 J_M(A y + b) A. The verdict, the
nearly flag and the scalar invariants (scalar curvature, scalar* and
|nabla J_M|^2) must not notice the change of coordinates.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from metallicgeo import zoo
from metallicgeo.geometry import Chart, TensorField
from metallicgeo.metallic import StructureBundle


def rotation(angles, n: int) -> np.ndarray:
    """Product of Givens rotations, one per coordinate plane (i, j), i < j."""
    R = np.eye(n)
    for (i, j), th in zip(itertools.combinations(range(n), 2), angles):
        G = np.eye(n)
        G[i, i] = G[j, j] = np.cos(th)
        G[i, j], G[j, i] = -np.sin(th), np.sin(th)
        R = R @ G
    return R


def pull_back(bundle: StructureBundle, A: np.ndarray, b: np.ndarray) -> StructureBundle:
    """The bundle in coordinates y with x = A y + b, on a box that A maps inside the margin."""
    n = A.shape[0]
    Ainv = np.linalg.inv(A)
    chart = bundle.chart
    centre = chart.bounds_array.mean(axis=1)
    half = 0.5 * np.diff(chart.bounds_array, axis=1)[:, 0] - chart.margin
    # |x_i - centre_i| <= |b_i - centre_i| + r sum_j |A_ij| on the box [-r, r]^n
    r = float(np.min((half - np.abs(b - centre)) / np.abs(A).sum(axis=1)))
    g = TensorField("pulled-g", lambda ys: A.T @ bundle.g(ys @ A.T + b) @ A)
    jm = TensorField("pulled-jm", lambda ys: Ainv @ bundle.jm(ys @ A.T + b) @ A)
    box = Chart(dimension=n, bounds=((-r, r),) * n, grid=chart.grid, margin=0.1 * r)
    return StructureBundle(box, g, jm, bundle.params, tolerances=bundle.tolerances)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["s2", "negative"]),
       angles=st.lists(st.floats(-np.pi, np.pi), min_size=6, max_size=6),
       scales=st.lists(st.floats(0.7, 1.4), min_size=4, max_size=4),
       shift=st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4))
def test_affine_pullback_keeps_verdict_and_scalar_invariants(name, angles, scales, shift):
    original = zoo.get(name).bundle
    n = original.chart.dimension
    A = rotation(angles, n) @ np.diag(scales[:n])
    b = original.chart.bounds_array.mean(axis=1) + np.array(shift[:n])
    pulled = pull_back(original, A, b)

    want, got = original.classification(), pulled.classification()
    assert (got.verdict, got.nearly) == (want.verdict, want.nearly)
    tol = original.tolerances.d2
    for y in pulled.sample_points:
        new, old = pulled.context(y), original.context(A @ y + b)
        for key in ("scalar_star", "norm_covJ_sq"):
            assert close(getattr(new, key), getattr(old, key), tol), (key, y)
        assert close(new.curvature.scalar, old.curvature.scalar, tol), ("scalar", y)

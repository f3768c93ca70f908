"""Charts, tensor fields and the inverse metric.

Index conventions used throughout the package:

* a tensor's components are stored in a dense numpy array, one axis per
  slot, with a signature string of 'u' (contravariant) and 'd' (covariant)
  characters aligned with the axes;
* a (1,1) structure tensor J has signature "ud" and J[h, i] is the
  component with upper index h and lower index i, so that J @ v transforms
  a coordinate vector v;
* the metric g has signature "dd" and its inverse "uu".

All pointwise operations here are pure functions of immutable inputs;
field calls, the inverse metric and the chart-bounds check accept a stack
of points as well as one point. `first_outside` is the one chart-bounds
test: the chart applies it to its named points and to every stencil, and
the spec parser to the named points it locates by line. Every reported
value goes through `largest_abs`, which reduces tensors stacked over the
sample points straight to the largest |entry|, one reduction per tensor.
Only when that number is not finite does it form the per-point values
(`max_abs_per_point`) and hand them to `largest`, which names the first
point whose value is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "GeometryError",
    "SingularMetricError",
    "ChartBoundsError",
    "NumericalError",
    "Chart",
    "TensorField",
    "first_outside",
    "inverse_metric",
    "max_abs",
    "max_abs_per_point",
    "largest",
    "largest_abs",
]

DET_TOL = 1e-10  # times Hadamard's bound on |det g|; see inverse_metric


class GeometryError(RuntimeError):
    pass


class SingularMetricError(GeometryError):
    """Metric determinant fell below the nondegeneracy threshold at a point."""

    def __init__(self, point):
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"singular metric (|det g| <= {DET_TOL:g} x product of its row norms)"
                         f" at point {self.point.tolist()}")


class ChartBoundsError(GeometryError):
    """A point (or a finite-difference stencil around it) left the chart."""


class NumericalError(GeometryError):
    """A residual that is not finite, or a check that fails at the given parameters."""


def max_abs(arr) -> float:
    arr = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def max_abs_per_point(*arrays) -> np.ndarray:
    """The largest |entry| at each point of one or more stacks over the same points: each
    |arr| reduced over every axis but the first, from the largest and the smallest entry, so
    that no copy of |arr| is made, then the largest over the stacks (a NaN stays a NaN). An
    all-zero row gives +0.0: np.maximum(0.0, -0.0) is -0.0, so 0.0 is added."""
    per_array = []
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        arr = arr.reshape(len(arr), -1)
        per_array.append(np.maximum(arr.max(axis=1, initial=0.0), -arr.min(axis=1, initial=0.0))
                         + 0.0)
    return np.max(per_array, axis=0)


def largest(values, points, quantity: str) -> float:
    """The largest of non-negative values[k] at points[k] (0.0 for none), from an (m,)
    vector; the first value that is not finite raises NumericalError naming `quantity` and
    its point."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalError(f"{quantity} is {values[k]:g} at point {points[k].tolist()}")
    return float(values.max()) if values.size else 0.0


def largest_abs(points, quantity: str, *arrays) -> float:
    """The largest |entry| of the arrays, each stacked over `points` (point axis first), 0.0
    for none: `largest(max_abs_per_point(*arrays), ...)`, reduced straight to the scalar.

    max is exact and |x| is never -0.0, so the value is the same to the bit. A NaN stays a
    NaN and -inf becomes inf, so a finite result means that every entry is finite. When one
    is not, the per-point values are formed after all, and `largest` raises NumericalError
    naming `quantity` and the first point whose value is not finite.
    """
    worst = 0.0
    for arr in arrays:
        value = float(np.abs(arr).max(initial=0.0))
        if not math.isfinite(value):
            return largest(max_abs_per_point(*arrays), points, quantity)
        worst = max(worst, value)
    return worst


def first_outside(points, bounds, reach: float = 0.0) -> int | None:
    """The index of the first of `points`, one point (n,) or a stack (m, n), with a coordinate
    outside lo + reach <= x <= hi - reach for its (lo, hi) pair of `bounds`; None when every
    point keeps `reach` from the bounds. A NaN coordinate is outside."""
    b = np.asarray(bounds, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, len(b))
    clear = np.all((pts >= b[:, 0] + reach) & (pts <= b[:, 1] - reach), axis=1)
    return None if clear.all() else int(np.argmin(clear))


@dataclass(frozen=True)
class Chart:
    """A single coordinate domain of even dimension with a sampling policy.

    bounds is a (dim, 2) array of closed intervals. Sample points are a
    deterministic per-axis grid, seeded pseudo-random interior points and
    optional named points, all kept at least `margin` away from the bounds
    so finite-difference stencils stay inside.
    """

    dimension: int
    bounds: tuple  # ((lo, hi), ...) per coordinate
    grid: int = 3
    n_random: int = 0
    seed: int = 42
    margin: float = 0.05
    named_points: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 2 or self.dimension % 2 != 0:
            raise ValueError("chart dimension must be an even integer >= 2")
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (self.dimension, 2):
            raise ValueError("bounds must provide one (lo, hi) pair per coordinate")
        if not (np.isfinite(b).all() and np.all(b[:, 0] < b[:, 1])):
            raise ValueError("bounds must be finite, with lo < hi in each pair")
        if not (self.margin > 0 and np.all(2 * self.margin < b[:, 1] - b[:, 0])):
            raise ValueError("margin must be positive and smaller than half of every extent")
        if self.seed < 0 or self.n_random < 0:
            raise ValueError("seed and random_points must be non-negative")
        if self.grid < 0:
            raise ValueError(f"grid must be non-negative, got {self.grid}")
        for name, pt in self.named_points.items():
            if np.shape(pt) != (self.dimension,):
                raise ValueError(f"named point {name!r} needs {self.dimension} coordinates, got {np.size(pt)}")
            if first_outside(pt, b, self.margin) is not None:
                raise ValueError(f"named point {name!r} is not inside the chart margin")
        if self.sample_count() < 8:
            raise ValueError("sample policy must yield at least 8 points")

    @property
    def bounds_array(self) -> np.ndarray:
        return np.asarray(self.bounds, dtype=float)

    def sample_count(self) -> int:
        return self.grid**self.dimension + self.n_random + len(self.named_points)

    def require_inside(self, point, reach: float = 0.0):
        """Raise ChartBoundsError unless point +- reach stays inside the bounds, for one point
        (n,) or each point of a stack (m, n); the error names the first point that fails."""
        k = first_outside(point, self.bounds, reach)
        if k is None:
            return
        bad = np.asarray(point, dtype=float).reshape(-1, self.dimension)[k]
        if first_outside(bad, self.bounds) is not None:
            raise ChartBoundsError(f"point {bad.tolist()} is outside the chart")
        raise ChartBoundsError(f"point {bad.tolist()} is too close to the boundary for reach {reach:g}")

    def sample_points(self) -> np.ndarray:
        """Deterministic sample points: grid, then named (sorted), then random.

        The grid runs over its nodes with the last coordinate fastest. A row
        that equals an earlier one when both are rounded to 12 decimals (a
        named point on a grid node) is dropped; rows are compared by value, so
        -0.0 equals 0.0.
        """
        b = self.bounds_array
        lo = b[:, 0] + self.margin
        hi = b[:, 1] - self.margin
        n, k = self.dimension, self.grid
        axes = np.linspace(lo, hi, k, axis=1)  # row i: the k nodes of axis i
        grid = np.empty((k,) * n + (n,))
        for i in range(n):
            grid[..., i] = axes[i].reshape((k,) + (1,) * (n - 1 - i))
        pts = [grid.reshape(k**n, n)]
        if self.named_points:
            pts.append(np.array([self.named_points[name] for name in sorted(self.named_points)], dtype=float))
        if self.n_random:
            rng = np.random.default_rng(self.seed)
            pts.append(rng.uniform(lo, hi, size=(self.n_random, self.dimension)))
        out = np.concatenate(pts, axis=0)
        rounded = out.round(decimals=12)
        order = np.lexsort(rounded.T)  # stable: equal rows stay in their order
        ordered = rounded[order]
        first = np.ones(len(out), dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        return out[np.sort(order[first])]


@dataclass(frozen=True)
class TensorField:
    """A map from chart points to components of fixed valence.

    sig is the axis signature ('u'/'d' per array axis). fn maps a stack of
    points, shape (m, n), to the stack of their component arrays, shape
    (m, ...); calling the field accepts one point or a stack.
    """

    name: str
    sig: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, point) -> np.ndarray:
        """Components at one point (n,) -> (...), or at a stack (m, n) -> (m, ...)."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim == 1:
            return np.asarray(self.fn(pts[None, :]), dtype=float)[0]
        return np.asarray(self.fn(pts), dtype=float)


def inverse_metric(g: np.ndarray, point=None) -> np.ndarray:
    """Invert the metric at a point or a stack of points; g @ ginv is the identity within 1e-10.

    g is (n, n) or a stack (..., n, n), and point the matching point or
    stack of points, used to name the first row whose metric is singular.
    The metric counts as singular when |det g| is at most DET_TOL times
    Hadamard's bound, the product of the row norms: both scale alike under
    g -> c g, so the test does not depend on the units of the coordinates.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    singular = np.abs(np.linalg.det(g)) <= DET_TOL * np.prod(np.linalg.norm(g, axis=-1), axis=-1)
    if not singular.any():
        ginv = np.linalg.inv(g)
        residual = np.abs(g @ ginv - np.eye(n)).reshape(singular.shape + (-1,)).max(axis=-1)
        singular = residual > 1e-10
        if not singular.any():
            return ginv
    first = np.unravel_index(np.argmax(singular), singular.shape)
    pts = np.full(g.shape[:-1], np.nan) if point is None else np.asarray(point, dtype=float)
    raise SingularMetricError(pts[first])

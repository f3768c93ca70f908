"""Charts, tensor fields, the inverse metric and the contraction kernel.

Index conventions used throughout the package:

* a tensor's components are stored in a dense numpy array, one axis per
  slot; where the valence matters (`diffcalc.covariant_derivative`), a
  signature string of 'u' (contravariant) and 'd' (covariant) characters
  aligned with the axes names it;
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

`contract` is the one kernel for a contraction of two tensors stacked
over points, `np.einsum` subscripts with a leading `...` on each term: one
batched `np.matmul`, whose transposes and reshapes are planned once per
subscripts and shapes. Its blocks are small (at most n^6 multiply-adds
per point in dimension n, 46 656 at n = 6), so BLAS runs each on the
calling thread, and it picks the same path for a point whatever the stack
it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, NamedTuple

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
    "contract",
    "max_abs_per_point",
    "largest",
    "largest_abs",
]

DET_TOL = 1e-10  # times Hadamard's bound on |det g|; see inverse_metric
# most points a sample policy may name: a context keeps g at the order-2 nodes of every
# sample point, 4n^2 n^2 8-byte numbers each (41 KB at n = 6, 170 MB for 4096 points)
MAX_SAMPLE_POINTS = 4096


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
    deterministic per-axis grid, pseudo-random interior points and optional
    named points, all kept at least `margin` away from the bounds so
    finite-difference stencils stay inside. The policy must name at least 8
    points and at most MAX_SAMPLE_POINTS, which the chart checks when it is
    built; at least 8 of the points drawn must be distinct. The chart settles
    its distinct fixed points, the grid and the named points, once; a draw
    appends the random points of its seed. The seed is a run setting, not the
    chart's (`StructureBundle.seed`), so one chart serves every seed.
    """

    dimension: int
    bounds: tuple  # ((lo, hi), ...) per coordinate
    grid: int = 3
    n_random: int = 0
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
        if self.n_random < 0:
            raise ValueError(f"random_points must be non-negative, got {self.n_random}")
        if self.grid < 0:
            raise ValueError(f"grid must be non-negative, got {self.grid}")
        for name, pt in self.named_points.items():
            if np.shape(pt) != (self.dimension,):
                raise ValueError(f"named point {name!r} needs {self.dimension} coordinates, got {np.size(pt)}")
            if first_outside(pt, b, self.margin) is not None:
                raise ValueError(f"named point {name!r} is not inside the chart margin")
        count = self.grid**self.dimension + self.n_random + len(self.named_points)
        if count < 8:
            raise ValueError("sample policy must yield at least 8 points")
        if count > MAX_SAMPLE_POINTS:
            raise ValueError(f"sample policy must yield at most {MAX_SAMPLE_POINTS} points,"
                             f" got {count}")

    @property
    def bounds_array(self) -> np.ndarray:
        return np.asarray(self.bounds, dtype=float)

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

    def sample_points(self, seed: int) -> np.ndarray:
        """Deterministic sample points for `seed`: the chart's fixed points (`_fixed_points`),
        then the n_random points of `np.random.default_rng(seed)`, read-only.

        A policy with no random point returns its fixed points themselves, one
        array for every seed; any other draws again on every call, appending
        the seed's rows to the fixed ones, and keeps nothing that depends on the
        seed. The random rows are uniform doubles inside the margin and are not
        compared with any other row: fewer than 8 points, the fixed ones and
        n_random, raise ValueError.
        """
        count = len(self._fixed_points) + self.n_random
        if count < 8:
            raise ValueError(f"sample policy must yield at least 8 distinct points, got {count}")
        if not self.n_random:
            return self._fixed_points
        lo, hi = self._interior
        rng = np.random.default_rng(seed)
        points = np.concatenate(
            [self._fixed_points, rng.uniform(lo, hi, size=(self.n_random, self.dimension))])
        points.flags.writeable = False
        return points

    @cached_property
    def _interior(self) -> tuple:
        """The lowest and the highest coordinates a sample point may have, per axis."""
        b = self.bounds_array
        return b[:, 0] + self.margin, b[:, 1] - self.margin

    @cached_property
    def _fixed_points(self) -> np.ndarray:
        """The distinct points the policy fixes, whatever the seed, read-only: the grid, with
        the last coordinate fastest, then the named points (sorted). A row that equals an
        earlier one when both are rounded to 12 decimals (a named point on a grid node) is
        dropped; rows are compared by value, so -0.0 equals 0.0."""
        lo, hi = self._interior
        n, k = self.dimension, self.grid
        axes = np.linspace(lo, hi, k, axis=1)  # row i: the k nodes of axis i
        grid = np.empty((k,) * n + (n,))
        for i in range(n):
            grid[..., i] = axes[i].reshape((k,) + (1,) * (n - 1 - i))
        rows = grid.reshape(k**n, n)
        if self.named_points:
            named = np.array([self.named_points[name] for name in sorted(self.named_points)],
                             dtype=float)
            rows = np.concatenate([rows, named], axis=0)
        rounded = rows.round(decimals=12)
        order = np.lexsort(rounded.T)  # stable: equal rows stay in their order
        ordered = rounded[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        points = rows[np.sort(order[first])]
        points.flags.writeable = False
        return points


@dataclass(frozen=True)
class TensorField:
    """A map from chart points to components of fixed valence.

    fn maps a stack of points, shape (m, n), to the stack of their component
    arrays, shape (m, ...); calling the field accepts one point or a stack.
    A field marked `constant` has the same value at every point: the engine
    evaluates it at the points only, and its derivatives are zeros.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    constant: bool = False

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
    The metric counts as singular unless |det g| exceeds DET_TOL times Hadamard's
    bound, the product of the row norms, both taken with each row divided by its
    largest |entry| (a zero row stays zero): that scales both alike, so the test
    depends on no unit and neither number overflows or underflows. Both tests
    pass only on numbers, so a NaN or inf entry of g, or an inverse that is not
    finite (that of a subnormal g overflows), is singular; they run with numpy's
    floating-point warnings off, since the value decides.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    with np.errstate(all="ignore"):
        # each row over its largest |entry|, at least the least subnormal so a zero row stays 0
        unit = g / np.maximum(np.abs(g).max(axis=-1, keepdims=True), 5e-324)
        singular = ~(np.abs(np.linalg.det(unit))
                     > DET_TOL * np.prod(np.linalg.norm(unit, axis=-1), axis=-1))
        if not singular.any():
            ginv = np.linalg.inv(g)
            singular = ~(np.abs(g @ ginv - np.eye(n)).max(axis=(-2, -1)) <= 1e-10)
            if not singular.any():
                return ginv
    first = np.unravel_index(np.argmax(singular), singular.shape)
    pts = np.full(g.shape[:-1], np.nan) if point is None else np.asarray(point, dtype=float)
    raise SingularMetricError(pts[first])


class _Plan(NamedTuple):
    """A two-operand contraction as one batched matrix product: each operand is transposed
    and reshaped to (stack, batch, rows, columns), and the product back to the output."""

    a_axes: tuple
    a_shape: tuple
    b_axes: tuple
    b_shape: tuple
    out_shape: tuple
    out_axes: tuple


@lru_cache(maxsize=1024)
def _plan(subscripts: str, a_shape: tuple, b_shape: tuple) -> _Plan:
    """The `_Plan` of `contract(subscripts, a, b)` for operands of these shapes."""
    inputs, out = subscripts.split("->")
    ops = inputs.split(",")
    if len(ops) != 2 or not all(s.startswith("...") for s in (*ops, out)):
        raise ValueError(f"{subscripts!r}: two operands and an output, each with a leading '...'")
    A, B, C = ops[0][3:], ops[1][3:], out[3:]
    if any(len(set(s)) != len(s) for s in (A, B, C)) or not set(A) ^ set(B) <= set(C) <= set(A + B):
        raise ValueError(f"{subscripts!r}: an index repeats within a term or is summed in one")
    ka, kb = len(a_shape) - len(A), len(b_shape) - len(B)  # stack axes of each operand
    size = dict(zip(A, a_shape[ka:])) | dict(zip(B, b_shape[kb:]))
    batch = [x for x in C if x in A and x in B]
    left = [x for x in C if x not in B]
    right = [x for x in C if x not in A]
    summed = [x for x in A if x not in C]
    stack = np.broadcast_shapes(a_shape[:ka], b_shape[:kb])

    def dims(xs):
        return math.prod(size[x] for x in xs)

    grouped = batch + left + right
    return _Plan(
        a_axes=tuple(range(ka)) + tuple(ka + A.index(x) for x in batch + left + summed),
        a_shape=a_shape[:ka] + (dims(batch), dims(left), dims(summed)),
        b_axes=tuple(range(kb)) + tuple(kb + B.index(x) for x in batch + summed + right),
        b_shape=b_shape[:kb] + (dims(batch), dims(summed), dims(right)),
        out_shape=stack + tuple(size[x] for x in grouped),
        out_axes=tuple(range(len(stack))) + tuple(len(stack) + grouped.index(x) for x in C),
    )


def contract(subscripts: str, a: np.ndarray, b: np.ndarray):
    """`np.einsum(subscripts, a, b)` for two operands that carry their stacks as a leading
    '...', in which no index repeats within a term, as one batched `np.matmul`.

    The indices of the output that both operands carry are the batch, those of one
    operand the rows or the columns, and the rest are summed. The transposes and
    reshapes are planned once per (subscripts, shapes). A point's rows, columns and
    summed length are the same whatever the stack, so a point's value does not
    depend on the stack it is computed in.
    """
    plan = _plan(subscripts, a.shape, b.shape)
    product = np.matmul(a.transpose(plan.a_axes).reshape(plan.a_shape),
                        b.transpose(plan.b_axes).reshape(plan.b_shape))
    out = product.reshape(plan.out_shape).transpose(plan.out_axes)
    return out if out.ndim else out[()]

"""Reference computations shared by the tests; the engine never calls these."""

import numpy as np

from metallicgeo.diffcalc import DiffScheme, christoffel, covariant_derivative, partial_all
from metallicgeo.geometry import max_abs


def central(fn, point, axis: int, h: float, order: int):
    """One central difference along one axis, fn called once per node (+2h, +h, -h, -2h).

    The per-axis form of the engine's stencils; `partial_all` must equal
    `partial_all_per_axis`, built from it, bit for bit.
    """
    point = np.asarray(point, dtype=float)
    e = np.zeros_like(point)
    e[axis] = 1.0
    if order == 2:
        return (np.asarray(fn(point + h * e)) - np.asarray(fn(point - h * e))) / (2.0 * h)
    return (
        -np.asarray(fn(point + 2 * h * e))
        + 8.0 * np.asarray(fn(point + h * e))
        - 8.0 * np.asarray(fn(point - h * e))
        + np.asarray(fn(point - 2 * h * e))
    ) / (12.0 * h)


def partial_all_per_axis(fn, point, scheme: DiffScheme, stage: int) -> np.ndarray:
    """out[a, ...] = d_a fn, axis by axis: order 4 at h1, or Richardson over order 2 at h2, h2/2."""
    point = np.asarray(point, dtype=float)

    def along(axis):
        if stage == 1:
            return central(fn, point, axis, scheme.h1, 4)
        coarse = central(fn, point, axis, scheme.h2, 2)
        fine = central(fn, point, axis, scheme.h2 / 2.0, 2)
        return (4.0 * fine - coarse) / 3.0

    return np.stack([along(a) for a in range(point.size)], axis=0)


def metric_compat_residual(g_fn, point, h: float) -> float:
    """Metric-compatibility residual of the connection built at step h.

    The connection comes from the engine's first-tier stencil at step h,
    while the partial derivatives of g come from the same stencil at the
    default step, whose truncation error is far smaller. Computing both
    sides from one stencil would cancel identically, so this is the
    quantity whose truncation error actually shrinks with h.
    """
    point = np.asarray(point, dtype=float)
    gamma = christoffel(g_fn, point, DiffScheme(h))
    dg_ref = partial_all(g_fn, point, DiffScheme(), stage=1)
    g = np.asarray(g_fn(point), dtype=float)
    corr = np.einsum("tai,tj->aij", gamma, g) + np.einsum("taj,ti->aij", gamma, g)
    return max_abs(dg_ref - corr)


def second_covariant_derivative(fn, sig: str, point, g_fn, scheme=None) -> np.ndarray:
    """Two added covariant slots, outer first: out[a, b, ...] = (nabla_a nabla_b T)_...

    The inner derivative is evaluated as a field with the first-tier stencil;
    the outer differencing uses the second tier (wider step, Richardson).
    """
    scheme = scheme or DiffScheme()

    def cov_fn(p):
        return covariant_derivative(fn, sig, p, christoffel(g_fn, p, scheme), fn(p), scheme)

    point = np.asarray(point, dtype=float)
    return covariant_derivative(cov_fn, "d" + sig, point, christoffel(g_fn, point, scheme),
                                cov_fn(point), scheme, stage=2)


def commutator_residual(bundle, point) -> float:
    """Relative residual of the Ricci identity for J_M at one point:

        (nabla_k nabla_j - nabla_j nabla_k) J_i^h = R_kjt^h J_i^t - R_kji^t J_t^h,

    left side from nested covariant differencing of J_M, right side from
    the curvature pack; the two computations share no code path.
    """
    ctx = bundle.context(point)
    # cc[a, b, h, i]
    cc = second_covariant_derivative(bundle.jm, "ud", point, bundle.g, bundle.scheme)
    commutator = cc - np.einsum("abhi->bahi", cc)
    Rup = ctx.curvature.Rup
    rhs = np.einsum("kjth,ti->kjhi", Rup, ctx.J) - np.einsum("kjit,ht->kjhi", Rup, ctx.J)
    return max_abs(commutator - rhs) / max(1.0, max_abs(rhs))

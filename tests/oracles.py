"""Reference computations shared by the tests; the engine never calls these."""

import numpy as np

from metallicgeo.diffcalc import DiffScheme, christoffel, partial_all, second_covariant_derivative
from metallicgeo.geometry import max_abs


def metric_compat_residual(g_fn, point, h: float) -> float:
    """Metric-compatibility residual of the connection built at step h.

    The connection comes from the engine's first-tier stencil at step h,
    while the partial derivatives of g come from the same stencil at the
    default step, whose truncation error is far smaller. Computing both
    sides from one stencil would cancel identically, so this is the
    quantity whose truncation error actually shrinks with h.
    """
    point = np.asarray(point, dtype=float)
    gamma = christoffel(g_fn, point, DiffScheme.with_h(h))
    dg_ref = partial_all(g_fn, point, DiffScheme(), stage=1)
    g = np.asarray(g_fn(point), dtype=float)
    corr = np.einsum("tai,tj->aij", gamma, g) + np.einsum("taj,ti->aij", gamma, g)
    return max_abs(dg_ref - corr)


def commutator_residual(bundle, point) -> float:
    """Relative residual of the Ricci identity for J_M at one point:

        (nabla_k nabla_j - nabla_j nabla_k) J_i^h = R_kjt^h J_i^t - R_kji^t J_t^h,

    left side from nested covariant differencing of J_M, right side from
    the curvature pack; the two computations share no code path.
    """
    ctx = bundle.context(point)
    cc = second_covariant_derivative(bundle.jm, "ud", point, bundle.g, bundle.scheme,
                                     chart=bundle.chart)  # cc[a, b, h, i]
    commutator = cc - np.einsum("abhi->bahi", cc)
    Rup = ctx.curvature.Rup
    rhs = np.einsum("kjth,ti->kjhi", Rup, ctx.J) - np.einsum("kjit,ht->kjhi", Rup, ctx.J)
    return max_abs(commutator - rhs) / max(1.0, max_abs(rhs))

"""Numerical differentiation engine and curvature machinery.

Conventions (fixed once, used by every checker in the package):

* Christoffel symbols: Gamma^h_ij = 1/2 g^{ht} (d_i g_tj + d_j g_ti - d_t g_ij),
  stored as gamma[h, i, j].
* Curvature: R_kji^h are the components of R(d_k, d_j) d_i, i.e.
  R_kji^h = d_k Gamma^h_ji - d_j Gamma^h_ki + Gamma^t_ji Gamma^h_kt - Gamma^t_ki Gamma^h_jt,
  stored as Rup[k, j, i, h]; lowered Rdown[k, j, i, l] = Rup[k, j, i, t] g_tl.
  Ricci is the trace over the first and the upper slot, ricci[j, i] = Rup[h, j, i, h],
  and scalar = g^{ji} ricci[j, i]. With this sign the unit sphere has positive
  scalar curvature (2 for S^2, 30 for S^6).
* Exterior derivative of a 2-form: dw[a, b, c] = d_a w_bc + d_b w_ca + d_c w_ab.
* Second covariant derivatives store the outer derivative index first:
  covcov[a, b, ...] = (nabla_a nabla_b T)_...

Differencing is central, in two tiers: first derivatives use step h1 at
order 4, nested outer derivatives use step h2 = h1^(5/6) at order 2 with
Richardson extrapolation over h2 and h2/2 (needed to push curvature
truncation error well below the curvature tolerance tier). The bundle
checks the scheme's `reach` once per point, when it builds the
PointContext, so the functions here take no chart and check no bounds.

Fields map a stack of points to a stack of values: fn(pts) with pts of
shape (m, n) returns shape (m, ...), and the functions here call every
field with stacks only (a `TensorField` also accepts a single point).
Every derivative is one stacked stencil (`partial_all`): the 4n nodes
point + (c h) e_a of each base point are built in one numpy operation, in
per-axis order (axis by axis, offsets +2h, +h, -h, -2h at stage 1 and
+h2, -h2, +h2/2, -h2/2 at stage 2), the field is called once for all of
them, and the weights are applied to the stack of values element by
element. `partial_all`, `christoffel` and `covariant_derivative` accept a
point (n,) or a stack of base points (..., n) and prepend the same
leading axes to their result.

What is bit-identical and what is not: the stencil weights are applied
with the arithmetic of a per-axis stencil, so `partial_all` equals
differencing one axis at a time bit for bit whenever the field returns
the same values row by row. The batched contractions (the Christoffel
einsum over a stack, the connection corrections) may sum in another
order than a per-point computation, so their results agree with it to
roundoff only.

Everything here is a pure function of (field, point); per-point caches are
built once and read-only afterwards. A PointContext hands its cached
base-point values (gamma, the field value) to `covariant_derivative`
instead of letting it recompute them, and it computes each Christoffel
value once: gamma, Riemann and nabla nabla w read one memo over the point
and its 4n outer-tier nodes, filled by one batched `christoffel` call per
stack of missing nodes, and nabla Ricci extends a copy of that memo that
it drops on return. A Christoffel value costs 4n + 1 metric evaluations,
so Riemann at a fresh point costs (4n + 1)^2 + 1; nabla Ricci needs at
most 4n more Christoffel values for each of its 4n outer nodes, fewer
where nested stencils share a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np

from .geometry import Chart, inverse_metric, max_abs

__all__ = [
    "DiffScheme",
    "CurvaturePack",
    "partial",
    "partial_all",
    "christoffel",
    "covariant_derivative",
    "riemann",
    "exterior_derivative_2form",
    "nijenhuis",
    "PointContext",
]

DEFAULT_H1 = 1e-3
ORDER1 = 4  # first tier: order-4 central stencil at h1
ORDER2 = 2  # outer tier: order-2 central stencil at h2 and h2/2, Richardson-combined
SKEW_TOL = 1e-8  # relative antisymmetry a 2-form needs before it is differentiated


@dataclass(frozen=True)
class DiffScheme:
    """Finite-difference steps of the two tiers; h2 follows from h1."""

    h1: float = DEFAULT_H1

    def __post_init__(self):
        if self.h1 <= 0:
            raise ValueError("steps must be positive")

    @property
    def h2(self) -> float:
        return self.h1 ** (5.0 / 6.0)  # 10^-2.5 at the default h1

    @property
    def reach(self) -> float:
        """Farthest excursion from the base point of the stencils a PointContext nests.

        Riemann and nabla nabla w put a first-tier stencil (2 h1) at every
        node of an outer one (h2). The reach is never below 2 h2, the bound
        the chart margin is also held to. nabla Ricci nests one level deeper
        and is gated by its identities instead.
        """
        return max(2 * self.h2, self.h2 + 2 * self.h1)

    def check_chart(self, chart: Chart):
        if self.h2 >= chart.margin / 2.0:
            raise ValueError(
                f"step h2={self.h2:g} must stay below half the chart margin {chart.margin:g}"
            )
        if self.reach >= chart.margin:
            raise ValueError(
                f"nested stencil reach {self.reach:g} (h2 + 2 h1) must stay below the chart"
                f" margin {chart.margin:g}"
            )


# node offsets of each tier in units of its step, in evaluation order
STENCIL1 = (2.0, 1.0, -1.0, -2.0)  # order 4 at h1
STENCIL2 = (1.0, -1.0, 0.5, -0.5)  # order 2 at h2, then at h2/2


@lru_cache(maxsize=64)
def _displacements(n: int, h: float, stage: int) -> np.ndarray:
    """disp[a, k] = (c_k h) e_a: every node of a stencil around the origin, axis by axis."""
    steps = np.array(STENCIL1 if stage == 1 else STENCIL2) * h
    disp = np.eye(n)[:, None, :] * steps[None, :, None]
    disp.flags.writeable = False
    return disp


def _at(fn, point) -> np.ndarray:
    """The value of a stacked field at one point."""
    return np.asarray(fn(point[None, :]), dtype=float)[0]


def _nodes(points: np.ndarray, h: float, stage: int) -> np.ndarray:
    """The stencil nodes of every base point, flattened to (count, n) in per-axis order."""
    n = points.shape[-1]
    return (points[..., None, None, :] + _displacements(n, h, stage)).reshape(-1, n)


def _derivatives(values: np.ndarray, lead: tuple, n: int, h: float, stage: int) -> np.ndarray:
    """Apply the stencil weights to the values at `_nodes`: out[..., a, ...] = d_a.

    Stage 1 is the order-4 stencil at h; stage 2 Richardson-extrapolates
    the order-2 stencil at h and h/2, which is accurate to order 4.
    """
    v = np.moveaxis(values.reshape(lead + (n, 4) + values.shape[1:]), len(lead) + 1, 0)
    if stage == 1:
        return (-v[0] + 8.0 * v[1] - 8.0 * v[2] + v[3]) / (12.0 * h)
    coarse = (v[0] - v[1]) / (2.0 * h)
    fine = (v[2] - v[3]) / (2.0 * (h / 2.0))
    return (4.0 * fine - coarse) / 3.0


def partial_all(fn, point, scheme: DiffScheme | None = None, stage: int = 1):
    """Central-difference partial derivatives: out[..., a, ...] = d_a fn.

    point is one point (n,) or a stack of base points (..., n); fn is
    called once, with the stencil nodes of all of them.
    """
    scheme = scheme or DiffScheme()
    point = np.asarray(point, dtype=float)
    h = scheme.h1 if stage == 1 else scheme.h2
    values = np.asarray(fn(_nodes(point, h, stage)), dtype=float)
    return _derivatives(values, point.shape[:-1], point.shape[-1], h, stage)


def partial(fn, point, axis: int, scheme: DiffScheme | None = None, stage: int = 1):
    """One partial derivative d_axis fn at a point, the axis-th slice of `partial_all`."""
    return partial_all(fn, point, scheme, stage)[axis]


def christoffel(g_fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """Levi-Civita coefficients gamma[..., h, i, j] at a point or a stack of points.

    The metric is evaluated in one call, at the points and at the nodes of
    their first-tier stencils together.
    """
    scheme = scheme or DiffScheme()
    point = np.asarray(point, dtype=float)
    lead, n = point.shape[:-1], point.shape[-1]
    flat = point.reshape(-1, n)
    values = np.asarray(g_fn(np.concatenate([flat, _nodes(point, scheme.h1, 1)])), dtype=float)
    g = values[:len(flat)].reshape(lead + (n, n))
    dg = _derivatives(values[len(flat):], lead, n, scheme.h1, 1)  # dg[..., a, i, j]
    ginv = inverse_metric(g, point)
    # dg[i,t,j] + dg[j,t,i] - dg[t,i,j] arranged as [i,t,j]
    return 0.5 * np.einsum("...ht,...itj->...hij", ginv,
                           dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2))


def _cov_correct(value: np.ndarray, sig: str, gamma: np.ndarray) -> np.ndarray:
    """Gamma corrections for every slot; returns corr[..., a, ...] to add to d_a T.

    value and gamma carry the same leading (stack) axes.
    """
    n = gamma.shape[-1]
    lead = gamma.shape[:-3]
    corr = np.zeros(lead + (n,) + value.shape[len(lead):])
    slots = "bcdefg"[:len(sig)]
    for axis, kind in enumerate(sig):
        summed = slots[:axis] + "t" + slots[axis + 1:]
        if kind == "u":
            # + Gamma^h_at T^{...t...}
            corr += np.einsum(f"...{summed},...{slots[axis]}at->...a{slots}", value, gamma)
        else:
            # - Gamma^t_a(axis) T_{...t...}
            corr -= np.einsum(f"...{summed},...ta{slots[axis]}->...a{slots}", value, gamma)
    return corr


def covariant_derivative(fn, sig: str, point, gamma: np.ndarray, value: np.ndarray,
                         scheme: DiffScheme, stage: int = 1) -> np.ndarray:
    """Covariant derivative, one covariant slot prepended: out[..., a, ...] = (nabla_a T)_...

    point is one point or a stack of points; gamma and value are the
    connection coefficients and fn's value there, which every caller
    already holds, so only the stencil nodes evaluate fn.
    """
    dT = partial_all(fn, point, scheme, stage=stage)
    return dT + _cov_correct(value, sig, gamma)


@dataclass(frozen=True)
class CurvaturePack:
    """Riemann (both forms), Ricci and scalar curvature at a point."""

    Rup: np.ndarray    # R_kji^h as [k, j, i, h]
    Rdown: np.ndarray  # R_kjil
    ricci: np.ndarray  # S_ji = R_hji^h
    scalar: float

    def symmetry_residuals(self) -> dict:
        """Algebraic invariants of the lowered tensor, as relative residuals."""
        R = self.Rdown
        scale = max(1.0, max_abs(R))
        first_bianchi = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
        return {
            "antisym_first_pair": max_abs(R + np.transpose(R, (1, 0, 2, 3))) / scale,
            "antisym_last_pair": max_abs(R + np.transpose(R, (0, 1, 3, 2))) / scale,
            "pair_symmetry": max_abs(R - np.transpose(R, (2, 3, 0, 1))) / scale,
            "first_bianchi": max_abs(first_bianchi) / scale,
        }


def riemann(g_fn, point, scheme: DiffScheme | None = None, gamma_fn=None) -> CurvaturePack:
    """Curvature from outer differencing of the Christoffel field.

    gamma_fn is that field; by default `christoffel` of g_fn, and a
    PointContext passes its memoized one so that other consumers at the
    point reuse the same node values.
    """
    scheme = scheme or DiffScheme()
    point = np.asarray(point, dtype=float)
    if gamma_fn is None:
        def gamma_fn(pts):
            return christoffel(g_fn, pts, scheme)

    dGamma = partial_all(gamma_fn, point, scheme, stage=2)  # [k, h, i, j]
    gamma = _at(gamma_fn, point)
    # R_kji^h = d_k G^h_ji - d_j G^h_ki + G^t_ji G^h_kt - G^t_ki G^h_jt
    Rup = (
        np.einsum("khji->kjih", dGamma)
        - np.einsum("jhki->kjih", dGamma)
        + np.einsum("tji,hkt->kjih", gamma, gamma)
        - np.einsum("tki,hjt->kjih", gamma, gamma)
    )
    g = _at(g_fn, point)
    ginv = inverse_metric(g, point)
    Rdown = np.einsum("kjit,tl->kjil", Rup, g)
    ricci = np.einsum("hjih->ji", Rup)
    scalar = float(np.einsum("ji,ji->", ginv, ricci))
    return CurvaturePack(Rup=Rup, Rdown=Rdown, ricci=ricci, scalar=scalar)


def exterior_derivative_2form(omega_fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """dw[a, b, c] = d_a w_bc + d_b w_ca + d_c w_ab; input must be antisymmetric."""
    point = np.asarray(point, dtype=float)
    w = _at(omega_fn, point)
    if max_abs(w + w.T) > SKEW_TOL * max(1.0, max_abs(w)):
        raise ValueError("exterior derivative needs an antisymmetric 2-form")
    dw = partial_all(omega_fn, point, scheme, stage=1)  # dw[a, b, c]
    out = dw + np.einsum("bca->abc", dw) + np.einsum("cab->abc", dw)
    return out


def nijenhuis(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Bracket-formula Nijenhuis tensor of a (1,1) field, N[i, j, h] = N_ij^h.

    Computed from J[h, i] and its plain partials dJ[a, h, i] at a point;
    antisymmetry in (i, j) is structural.
    N_ij^h = J_i^t d_t J_j^h - J_j^t d_t J_i^h + (d_j J_i^t) J_t^h - (d_i J_j^t) J_t^h
    """
    term1 = np.einsum("ti,thj->ijh", J, dJ)
    term3 = np.einsum("jti,ht->ijh", dJ, J)
    return term1 - np.einsum("ijh->jih", term1) + term3 - np.einsum("ijh->jih", term3)


class PointContext:
    """Lazy per-point cache of every derived quantity of a (g, J_M) pair.

    All members are computed at most once; the object is effectively
    immutable after the caches fill, so contexts may be shared freely.
    g_fn and j_fn map stacks of points, and so do the fields built here
    (w, its skew part, nabla w, Ricci). Christoffel values are memoized
    per stencil node (keyed on its exact coordinates), so gamma, Riemann
    and nabla nabla w compute each node once; the memo holds the point and
    the 4n outer-tier nodes around it.
    """

    def __init__(self, g_fn, j_fn, p: float, q: float, point, scheme: DiffScheme | None = None):
        self.g_fn = g_fn
        self.j_fn = j_fn
        self.p = float(p)
        self.q = float(q)
        self.point = np.asarray(point, dtype=float)
        self.scheme = scheme or DiffScheme()
        self.n = self.point.size
        self._gammas: dict = {}  # node coordinates (bytes) -> Christoffel values there

    # --- algebra at the point ---

    @cached_property
    def g(self) -> np.ndarray:
        return _at(self.g_fn, self.point)

    @cached_property
    def ginv(self) -> np.ndarray:
        return inverse_metric(self.g, self.point)

    @cached_property
    def J(self) -> np.ndarray:
        return _at(self.j_fn, self.point)

    @cached_property
    def Jhat(self) -> np.ndarray:
        return self.p * np.eye(self.n) - self.J

    @cached_property
    def omega(self) -> np.ndarray:
        # w_im = (J_M)_i^t g_tm
        return np.einsum("ti,tm->im", self.J, self.g)

    def omega_fn(self, pts) -> np.ndarray:
        """w at a stack of points (m, n) -> (m, n, n)."""
        Jp = np.asarray(self.j_fn(pts), dtype=float)
        gp = np.asarray(self.g_fn(pts), dtype=float)
        return np.einsum("...ti,...tm->...im", Jp, gp)

    # --- first derivatives ---

    def _gamma_field(self, memo: dict):
        """The Christoffel field over stacks, computing each node once and keeping it in memo.

        The rows missing from memo are computed in one `christoffel` call.
        The closure refers to memo but not to itself or to the context, so
        a local memo is freed as soon as the field is dropped.
        """
        g_fn, scheme, n = self.g_fn, self.scheme, self.n

        def gamma_fn(pts):
            rows = pts.reshape(-1, n)
            keys = [row.tobytes() for row in rows]
            missing = {}
            for i, key in enumerate(keys):
                if key not in memo:
                    missing.setdefault(key, i)
            if missing:
                memo.update(zip(missing, christoffel(g_fn, rows[list(missing.values())], scheme)))
            return np.stack([memo[key] for key in keys]).reshape(pts.shape[:-1] + (n, n, n))

        return gamma_fn

    @cached_property
    def gamma_fn(self):
        return self._gamma_field(self._gammas)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _at(self.gamma_fn, self.point)

    @cached_property
    def dJ(self) -> np.ndarray:
        return partial_all(self.j_fn, self.point, self.scheme, stage=1)

    @cached_property
    def covJ(self) -> np.ndarray:
        """covJ[a, h, i] = (nabla_a J)_i^h."""
        return self.dJ + _cov_correct(self.J, "ud", self.gamma)

    @cached_property
    def sym_covJ(self) -> np.ndarray:
        """(nabla_i J)_j^h + (nabla_j J)_i^h, the nearly-vanishing combination."""
        return self.covJ + np.einsum("ahi->iha", self.covJ)

    @cached_property
    def F(self) -> np.ndarray:
        """F[i, j, k] = g((nabla_i J) d_j, d_k) = g_kt (nabla_i J)_j^t."""
        return np.einsum("itj,tk->ijk", self.covJ, self.g)

    @cached_property
    def cov_omega(self) -> np.ndarray:
        """(nabla_a w)_im computed directly from the w field (independent of F)."""
        return covariant_derivative(self.omega_fn, "dd", self.point, self.gamma, self.omega,
                                    self.scheme)

    @cached_property
    def domega(self) -> np.ndarray:
        # differentiates the antisymmetric part of w: identical whenever the
        # bundle is skew-compatible, and still a well-defined 2-form (hence a
        # reportable residual) on bundles that fail that compatibility
        def skew_fn(pts):
            w = self.omega_fn(pts)
            return 0.5 * (w - np.swapaxes(w, -1, -2))

        return exterior_derivative_2form(skew_fn, self.point, self.scheme)

    @cached_property
    def N(self) -> np.ndarray:
        return nijenhuis(self.J, self.dJ)

    # --- curvature ---

    @cached_property
    def curvature(self) -> CurvaturePack:
        return riemann(self.g_fn, self.point, self.scheme, self.gamma_fn)

    @cached_property
    def H(self) -> np.ndarray:
        """H_ji = R_hji^t (J_M)_t^h, the curvature/2-form contraction.

        This is the arrangement that satisfies the contracted commutation
        identity nabla_h nabla_j (J_M)_i^h = S_jt (J_M)_i^t - H_ji; raising
        the 2-form's slots in the opposite order flips the sign.
        """
        return np.einsum("hjit,ht->ji", self.curvature.Rup, self.J)

    @cached_property
    def Sstar(self) -> np.ndarray:
        """Ricci-star: S*_ji = -H_jt (J_M)_i^t."""
        return -np.einsum("jt,ti->ji", self.H, self.J)

    @cached_property
    def scalar_star(self) -> float:
        return float(np.einsum("nj,jn->", self.ginv, self.Sstar))

    @cached_property
    def norm_covJ_sq(self) -> float:
        """g^{km} g_{jt} g^{is} (nabla_m J)_i^t (nabla_k J)_s^j (signed for indefinite g)."""
        return float(
            np.einsum("km,jt,is,mti,kjs->", self.ginv, self.g, self.ginv, self.covJ, self.covJ)
        )

    # --- second derivatives ---

    @cached_property
    def cov_ricci(self) -> np.ndarray:
        """cov_ricci[a, j, i] = (nabla_a S)_ji, outer-tier differencing of the Ricci field.

        The Ricci field at each outer node reads the Christoffel values the
        curvature left in the memo and keeps the nodes around it in a copy
        that is dropped on return, so the context does not hold them. It
        computes one Riemann tensor per row, so the nest of stencils is
        never built as one array.
        """
        ricci = self.curvature.ricci
        gamma_fn = self._gamma_field(dict(self._gammas))

        def ricci_fn(pts):
            return np.stack([riemann(self.g_fn, pt, self.scheme, gamma_fn).ricci for pt in pts])

        return covariant_derivative(ricci_fn, "dd", self.point, self.gamma, ricci, self.scheme,
                                    stage=2)

    @cached_property
    def covcov_omega(self) -> np.ndarray:
        """covcov[a, b, i, m] = (nabla_a nabla_b w)_im.

        The inner nabla w is a field evaluated with the first-tier stencil
        at all 4n outer nodes at once; the outer differencing uses the
        second tier (wider step, Richardson), whose nodes are those of the
        curvature, so their Christoffel values come from the memo.
        """
        scheme = self.scheme

        def cov_omega_fn(pts):
            return covariant_derivative(self.omega_fn, "dd", pts, self.gamma_fn(pts),
                                        self.omega_fn(pts), scheme)

        return covariant_derivative(cov_omega_fn, "ddd", self.point, self.gamma, self.cov_omega,
                                    scheme, stage=2)

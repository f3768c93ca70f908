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

Every derivative is one stacked stencil (`partial_all`): the 4n nodes
point + (c h) e_a are built in one numpy operation, the field is called
once per node (axis by axis, offsets +2h, +h, -h, -2h at stage 1 and
+h2, -h2, +h2/2, -h2/2 at stage 2), and the weights are applied to the
whole stack element by element. The arithmetic is that of a per-axis
stencil, so results are bit-identical to differencing one axis at a time.

Everything here is a pure function of (field, point); per-point caches are
built once and read-only afterwards, so evaluation across sample points
can proceed in parallel with a deterministic reduction order. A
PointContext hands its cached base-point values (gamma, the field value)
to `covariant_derivative` instead of letting it recompute them, and it
computes each Christoffel value once: gamma, Riemann and nabla nabla w
read one memo over the point and its 4n outer-tier nodes, and nabla
Ricci extends a copy of that memo that it drops on return. A Christoffel
value costs 4n + 1 metric evaluations, so Riemann at a fresh point costs
(4n + 1)^2 + 1; nabla Ricci needs at most 4n more Christoffel values for
each of its 4n outer nodes, fewer where nested stencils share a node.
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


def partial_all(fn, point, scheme: DiffScheme | None = None, stage: int = 1):
    """Stack of central-difference partial derivatives: out[a, ...] = d_a fn.

    Every node of the stencil is built at once as point + (c h) e_a, and
    fn is called once per node, axis by axis. Stage 1 is the order-4
    stencil at h1; stage 2 Richardson-extrapolates the order-2 stencil at
    h2 and h2/2, which is accurate to order 4. The weights are applied to
    the whole stack of values, element by element.
    """
    scheme = scheme or DiffScheme()
    point = np.asarray(point, dtype=float)
    n = point.size
    h = scheme.h1 if stage == 1 else scheme.h2
    nodes = point + _displacements(n, h, stage)
    v = np.array([fn(x) for x in nodes.reshape(-1, n)])
    v = v.reshape((n, 4) + v.shape[1:])
    if stage == 1:
        return (-v[:, 0] + 8.0 * v[:, 1] - 8.0 * v[:, 2] + v[:, 3]) / (12.0 * h)
    coarse = (v[:, 0] - v[:, 1]) / (2.0 * h)
    fine = (v[:, 2] - v[:, 3]) / (2.0 * (h / 2.0))
    return (4.0 * fine - coarse) / 3.0


def partial(fn, point, axis: int, scheme: DiffScheme | None = None, stage: int = 1):
    """One partial derivative d_axis fn, the axis-th slice of `partial_all`."""
    return partial_all(fn, point, scheme, stage)[axis]


def christoffel(g_fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """Levi-Civita coefficients gamma[h, i, j] from first derivatives of the metric."""
    point = np.asarray(point, dtype=float)
    g = np.asarray(g_fn(point), dtype=float)
    ginv = inverse_metric(g, point)
    dg = partial_all(g_fn, point, scheme, stage=1)  # dg[a, i, j]
    gamma = 0.5 * np.einsum(
        "ht,itj->hij",
        ginv,
        dg.transpose(0, 1, 2) + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2),
    )
    # dg[i,t,j] + dg[j,t,i] - dg[t,i,j] arranged as [i,t,j]
    return gamma


def _cov_correct(value: np.ndarray, sig: str, gamma: np.ndarray) -> np.ndarray:
    """Gamma corrections for every slot; returns corr[a, ...] to add to d_a T."""
    n = gamma.shape[0]
    corr = np.zeros((n,) + value.shape)
    for axis, kind in enumerate(sig):
        if kind == "u":
            # + Gamma^h_at T^{...t...}
            term = np.tensordot(value, gamma, axes=([axis], [2]))  # (..., h, a) at the end
            term = np.moveaxis(term, -1, 0)  # a first
            corr += np.moveaxis(term, -1, axis + 1)
        else:
            # - Gamma^t_a(axis) T_{...t...}
            term = np.tensordot(value, gamma, axes=([axis], [0]))  # (..., a, j) at the end
            term = np.moveaxis(term, -2, 0)
            corr -= np.moveaxis(term, -1, axis + 1)
    return corr


def covariant_derivative(fn, sig: str, point, gamma: np.ndarray, value: np.ndarray,
                         scheme: DiffScheme, stage: int = 1) -> np.ndarray:
    """Covariant derivative, one covariant slot prepended: out[a, ...] = (nabla_a T)_...

    gamma and value are the connection coefficients and fn's value at the
    point, which every caller already holds; only the stencil nodes around
    the point evaluate fn.
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
        def gamma_fn(p):
            return christoffel(g_fn, p, scheme)

    dGamma = partial_all(gamma_fn, point, scheme, stage=2)  # [k, h, i, j]
    gamma = gamma_fn(point)
    # R_kji^h = d_k G^h_ji - d_j G^h_ki + G^t_ji G^h_kt - G^t_ki G^h_jt
    Rup = (
        np.einsum("khji->kjih", dGamma)
        - np.einsum("jhki->kjih", dGamma)
        + np.einsum("tji,hkt->kjih", gamma, gamma)
        - np.einsum("tki,hjt->kjih", gamma, gamma)
    )
    g = np.asarray(g_fn(point), dtype=float)
    ginv = inverse_metric(g, point)
    Rdown = np.einsum("kjit,tl->kjil", Rup, g)
    ricci = np.einsum("hjih->ji", Rup)
    scalar = float(np.einsum("ji,ji->", ginv, ricci))
    return CurvaturePack(Rup=Rup, Rdown=Rdown, ricci=ricci, scalar=scalar)


def exterior_derivative_2form(omega_fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """dw[a, b, c] = d_a w_bc + d_b w_ca + d_c w_ab; input must be antisymmetric."""
    point = np.asarray(point, dtype=float)
    w = np.asarray(omega_fn(point), dtype=float)
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
    Christoffel values are memoized per stencil node (keyed on its exact
    coordinates), so gamma, Riemann and nabla nabla w compute each node
    once; the memo holds the point and the 4n outer-tier nodes around it.
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
        return np.asarray(self.g_fn(self.point), dtype=float)

    @cached_property
    def ginv(self) -> np.ndarray:
        return inverse_metric(self.g, self.point)

    @cached_property
    def J(self) -> np.ndarray:
        return np.asarray(self.j_fn(self.point), dtype=float)

    @cached_property
    def Jhat(self) -> np.ndarray:
        return self.p * np.eye(self.n) - self.J

    @cached_property
    def omega(self) -> np.ndarray:
        # w_im = (J_M)_i^t g_tm
        return np.einsum("ti,tm->im", self.J, self.g)

    def omega_fn(self, pt) -> np.ndarray:
        Jp = np.asarray(self.j_fn(pt), dtype=float)
        gp = np.asarray(self.g_fn(pt), dtype=float)
        return np.einsum("ti,tm->im", Jp, gp)

    # --- first derivatives ---

    def _gamma_field(self, memo: dict):
        """The Christoffel field, computing each node once and keeping it in memo."""
        g_fn, scheme = self.g_fn, self.scheme

        def gamma_fn(pt):
            key = pt.tobytes()
            gamma = memo.get(key)
            if gamma is None:
                gamma = memo[key] = christoffel(g_fn, pt, scheme)
            return gamma

        return gamma_fn

    @cached_property
    def gamma_fn(self):
        return self._gamma_field(self._gammas)

    @cached_property
    def gamma(self) -> np.ndarray:
        return self.gamma_fn(self.point)

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
        def skew_fn(pt):
            w = self.omega_fn(pt)
            return 0.5 * (w - w.T)

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
        that is dropped on return, so the context does not hold them.
        """
        ricci = self.curvature.ricci
        gamma_fn = self._gamma_field(dict(self._gammas))

        def ricci_fn(pt):
            return riemann(self.g_fn, pt, self.scheme, gamma_fn).ricci

        return covariant_derivative(ricci_fn, "dd", self.point, self.gamma, ricci, self.scheme,
                                    stage=2)

    @cached_property
    def covcov_omega(self) -> np.ndarray:
        """covcov[a, b, i, m] = (nabla_a nabla_b w)_im.

        The inner nabla w is a field evaluated with the first-tier stencil;
        the outer differencing uses the second tier (wider step, Richardson),
        whose nodes are those of the curvature, so their Christoffel values
        come from the memo.
        """
        scheme = self.scheme

        def cov_omega_fn(pt):
            return covariant_derivative(self.omega_fn, "dd", pt, self.gamma_fn(pt),
                                        self.omega_fn(pt), scheme)

        return covariant_derivative(cov_omega_fn, "ddd", self.point, self.gamma, self.cov_omega,
                                    scheme, stage=2)

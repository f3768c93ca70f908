"""Almost complex metallic structures, hyperbolic compatibility, classification.

A metallic structure is a (1,1)-tensor field J_M with

    J_M^2 - p J_M + (3/2) q I = 0,   q > 0,  -sqrt(6q) < p < sqrt(6q),

the conjugate structure is pI - J_M, and an almost complex structure J
corresponds to J_M = (p/2) I +- (sqrt(6q - p^2)/2) J. A metric is
hyperbolic when g(J_M X, Y) = -g(X, J_M Y), which makes the fundamental
2-form w(X, Y) = g(J_M X, Y) skew.

Note on the parameter p: skewness of w forces the g-trace of J_M to
vanish, while the polynomial identity forces trace J_M = p k on a
2k-dimensional chart. A nondegenerate hyperbolic pair therefore requires
p = 0; the classifier stays generic in (p, q) and simply reports the
residuals, and the built-in fixtures use p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .diffcalc import DiffScheme, PointContext
from .geometry import Chart, TensorField, largest, max_abs_per_point

__all__ = [
    "MetallicParams",
    "jm_from_j_matrix",
    "jm_from_j",
    "StructureBundle",
    "Tolerances",
    "ClassificationReport",
    "classify",
    "VERDICT_NONE",
    "VERDICT_HERMITIAN",
    "VERDICT_ALMOST_KAHLER",
    "VERDICT_KAHLER",
    "VERDICT_NEARLY",
]

VERDICT_NONE = "not metallic-Hermitian"
VERDICT_HERMITIAN = "almost metallic Hermitian"
VERDICT_ALMOST_KAHLER = "almost metallic Kähler"
VERDICT_KAHLER = "metallic Kähler"
VERDICT_NEARLY = "nearly metallic Kähler"


@dataclass(frozen=True)
class MetallicParams:
    """Admissible structure parameters: q > 0 and p^2 < 6q, with (3q/2)^2 finite (the
    highest power of q a check forms; past it a residual would overflow to inf or NaN)."""

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.q and math.isfinite(1.5 * self.q * 1.5 * self.q)):
            raise ValueError(f"q must be strictly positive and finite, with (3q/2)^2 finite,"
                             f" got {self.q:g}")
        if not (self.p * self.p < 6.0 * self.q):
            raise ValueError("p must satisfy -sqrt(6q) < p < sqrt(6q)")

    @property
    def coeff(self) -> float:
        """The real coefficient sqrt(6q - p^2)/2 linking J and J_M."""
        return math.sqrt(6.0 * self.q - self.p * self.p) / 2.0


# --- pointwise matrix algebra -----------------------------------------------


def jm_from_j_matrix(J: np.ndarray, params: MetallicParams, sign: int = +1) -> np.ndarray:
    """J_M = (p/2) I + sign * (sqrt(6q - p^2)/2) J for an almost complex J (or a stack of them)."""
    J = np.asarray(J, dtype=float)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return (params.p / 2.0) * np.eye(J.shape[-1]) + sign * params.coeff * J


# --- field-level wrappers ----------------------------------------------------


def jm_from_j(j_field: TensorField, params: MetallicParams, sign: int = +1) -> TensorField:
    def fn(pts):
        return jm_from_j_matrix(j_field(pts), params, sign)

    return TensorField(name=f"{j_field.name}->metallic", sig="ud", fn=fn)


# --- tolerances ----------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    """Residual tiers by derivative depth."""

    alg: float = 1e-8     # no derivatives
    d1: float = 1e-5      # first-derivative identities
    d2: float = 1e-4      # curvature / second derivatives
    d3: float = 1e-3      # third derivatives and large-cancellation relations

    def __post_init__(self):
        for tier, value in vars(self).items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"tolerance {tier} must be positive and finite, got {value:g}")


# --- the bundle ----------------------------------------------------------------


@dataclass(eq=False)
class StructureBundle:
    """Chart + metric + metallic structure, with one cached context of its sample points.

    The bundle owns every setting of a run: the sample points (from the
    chart), the differencing scheme and the tolerances. Immutable after
    construction; classification, contexts and connection terms (one dict of
    arrays stacked over the sample points per kind) are memoized.
    """

    chart: Chart
    g: TensorField
    jm: TensorField
    params: MetallicParams
    scheme: DiffScheme = field(default_factory=DiffScheme)
    tolerances: Tolerances = field(default_factory=Tolerances)
    name: str = "bundle"

    def __post_init__(self):
        self.scheme.check_chart(self.chart)
        self._contexts: dict = {}
        self._classification: Optional[ClassificationReport] = None
        self._connections: dict = {}  # kind -> terms stacked over the sample points

    @classmethod
    def from_j(cls, chart, g, j_field, params, sign=+1, **kw) -> "StructureBundle":
        return cls(chart, g, jm_from_j(j_field, params, sign), params, **kw)

    @cached_property
    def sample_points(self) -> np.ndarray:
        return self.chart.sample_points()

    def context(self, point) -> PointContext:
        """The context of one point (n,) or of a stack of points (m, n), such as the sample
        points; each is built once, after its points pass the chart-bounds check."""
        point = np.asarray(point, dtype=float)
        key = (point.shape, point.tobytes())
        ctx = self._contexts.get(key)
        if ctx is None:
            self.chart.require_inside(point, self.scheme.reach)
            ctx = PointContext(self.g, self.jm, self.params.p, self.params.q, point, self.scheme)
            self._contexts[key] = ctx
        return ctx

    def classification(self) -> "ClassificationReport":
        if self._classification is None:
            self._classification = classify(self)
        return self._classification


# --- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    nearly: bool
    residuals: dict
    near_boundary: tuple
    theorem_dN_equiv_covJ: bool  # closedness+integrability vs parallel structure

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "nearly": self.nearly,
            "residuals": dict(self.residuals),
            "near_boundary": list(self.near_boundary),
            "parallel_equivalence_consistent": self.theorem_dN_equiv_covJ,
        }


def _hyperbolic_derived(ctx) -> np.ndarray:
    """g(J_M X, J_M Y) + p g(X, J_M Y) - (3/2) q g(X, Y), the derived compatibility form."""
    pair = np.einsum("...ib,...bm->...im", np.einsum("...ai,...ab->...ib", ctx.J, ctx.g), ctx.J)
    return max_abs_per_point(pair + ctx.p * np.swapaxes(ctx.omega, -1, -2) - 1.5 * ctx.q * ctx.g)


def _skew_residual(ctx) -> np.ndarray:
    return max_abs_per_point(ctx.omega + np.swapaxes(ctx.omega, -1, -2))


# (residual name, tolerance tier, stacked ctx -> (m,) residual at each point)
RESIDUALS = (
    ("polynomial", "alg", lambda ctx: max_abs_per_point(
        ctx.J @ ctx.J - ctx.p * ctx.J + 1.5 * ctx.q * np.eye(ctx.n))),
    ("conjugate_polynomial", "alg", lambda ctx: max_abs_per_point(
        ctx.Jhat @ ctx.Jhat - ctx.p * ctx.Jhat + 1.5 * ctx.q * np.eye(ctx.n))),
    ("hyperbolic_direct", "alg", _skew_residual),
    ("hyperbolic_derived", "alg", _hyperbolic_derived),
    ("omega_skewness", "alg", _skew_residual),
    ("max_domega", "d1", lambda ctx: max_abs_per_point(ctx.domega)),
    ("max_nijenhuis", "d1", lambda ctx: max_abs_per_point(ctx.N)),
    ("max_cov_jm", "d1", lambda ctx: max_abs_per_point(ctx.covJ)),
    ("max_sym_cov_jm", "d1", lambda ctx: max_abs_per_point(ctx.sym_covJ)),
)


def classify(bundle: StructureBundle) -> ClassificationReport:
    """Compute every classification residual and pick the most specific verdict.

    Verdict ladder: polynomial identity + skew compatibility give almost
    metallic Hermitian; closed fundamental form adds almost metallic
    Kahler; vanishing Nijenhuis tensor on top gives metallic Kahler (with
    the parallel-structure cross-check); a vanishing symmetrized nabla J_M
    gives nearly metallic Kahler, of which metallic Kahler is the special
    case. Residuals within a factor 10 of their threshold are flagged as
    near-boundary rather than silently classified. A residual that is not
    finite at some point raises NumericalError naming that point.
    """
    tol = bundle.tolerances
    ctx = bundle.context(bundle.sample_points)
    res = {name: largest(fn(ctx), bundle.sample_points, f"classification residual {name}")
           for name, _, fn in RESIDUALS}

    hermitian = res["polynomial"] < tol.alg and res["hyperbolic_direct"] < tol.alg
    closed = hermitian and res["max_domega"] < tol.d1
    integrable = hermitian and res["max_nijenhuis"] < tol.d1
    parallel = hermitian and res["max_cov_jm"] < tol.d1
    nearly = hermitian and res["max_sym_cov_jm"] < tol.d1

    if not hermitian:
        verdict = VERDICT_NONE
    elif closed and integrable:
        verdict = VERDICT_KAHLER
    elif nearly:
        verdict = VERDICT_NEARLY
    elif closed:
        verdict = VERDICT_ALMOST_KAHLER
    else:
        verdict = VERDICT_HERMITIAN

    near = tuple(
        name for name, tier, _ in RESIDUALS
        if getattr(tol, tier) / 10.0 <= res[name] <= getattr(tol, tier) * 10.0
    )
    return ClassificationReport(
        verdict=verdict,
        nearly=nearly,
        residuals=res,
        near_boundary=near,
        theorem_dN_equiv_covJ=((closed and integrable) == parallel),
    )

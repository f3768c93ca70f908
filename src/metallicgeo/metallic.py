"""Metallic structures, residual records, classification and the gates that read it.

A metallic structure is a (1,1)-tensor field J_M with

    J_M^2 - p J_M + (3/2) q I = 0,   q > 0,

and a metric is hyperbolic when g(J_M X, Y) = -g(X, J_M Y), which makes the
fundamental 2-form w(X, Y) = g(J_M X, Y) skew.

The engine takes p = 0. Skewness of w forces the g-trace of J_M to
vanish, while the polynomial identity forces trace J_M = p k on a
2k-dimensional chart, so no pair with p != 0 is metallic-Hermitian, and
every term in p would only ever multiply roundoff. At p = 0 the conjugate
structure pI - J_M is -J_M, and an almost complex structure J corresponds
to J_M = +-(sqrt(6q)/2) J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .diffcalc import DiffScheme, PointContext
from .geometry import Chart, TensorField, largest_abs

__all__ = [
    "MetallicParams", "jm_from_j", "StructureBundle", "Tolerances",
    "Identity", "IdentityResult", "evaluate", "ClassificationReport", "CLASSIFICATION",
    "classify", "VERDICT_NONE", "VERDICT_HERMITIAN", "VERDICT_ALMOST_KAHLER", "VERDICT_KAHLER",
    "VERDICT_NEARLY", "not_metallic", "not_hermitian", "not_kahler", "not_nearly",
    "no_second_type",
]

VERDICT_NONE = "not metallic-Hermitian"
VERDICT_HERMITIAN = "almost metallic Hermitian"
VERDICT_ALMOST_KAHLER = "almost metallic Kähler"
VERDICT_KAHLER = "metallic Kähler"
VERDICT_NEARLY = "nearly metallic Kähler"


@dataclass(frozen=True)
class MetallicParams:
    """The structure parameter q: q > 0, with (3q/2)^2 and 2/(3q) finite (the extreme powers
    the report-only Ricci rows form; past them a residual would overflow to inf or NaN).
    Every other row is computed on J = J_M / c and scaled by a power c^k <= c^3. p is 0."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q and math.isfinite(1.5 * self.q * 1.5 * self.q)):
            raise ValueError(f"q must be strictly positive and finite, with (3q/2)^2 finite,"
                             f" got {self.q:g}")
        if not math.isfinite(2.0 / (3.0 * self.q)):
            raise ValueError(f"q is too small: 2/(3q) is not finite, got {self.q:g}")

    @property
    def coeff(self) -> float:
        """The real coefficient sqrt(6q)/2 linking J and J_M."""
        return math.sqrt(6.0 * self.q) / 2.0


# --- field-level wrappers ----------------------------------------------------


def jm_from_j(j_field: TensorField, params: MetallicParams, sign: int = +1) -> TensorField:
    """The J_M field of an almost complex field J, constant when J is; the sign is checked
    here, once, and a call scales J by the one number sign * sqrt(6q)/2."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    factor = sign * params.coeff

    def fn(pts):
        return factor * j_field(pts)

    return TensorField(name=f"{j_field.name}->metallic", fn=fn, constant=j_field.constant)


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

    The bundle owns every setting of a run: the seed of the sample points
    (which the chart draws), the differencing scheme and the tolerances; one
    chart serves bundles of every seed. Immutable after construction; the
    sample points, classification, contexts and connection terms (one dict of
    arrays stacked over the sample points per kind) are memoized.
    """

    chart: Chart
    g: TensorField
    jm: TensorField
    params: MetallicParams
    scheme: DiffScheme = field(default_factory=DiffScheme)
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 42

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.scheme.check_chart(self.chart)
        self._contexts: dict = {}
        self._classification: Optional[ClassificationReport] = None
        self._connections: dict = {}  # kind -> terms stacked over the sample points

    @classmethod
    def from_j(cls, chart, g, j_field, params, sign=+1, **kw) -> "StructureBundle":
        return cls(chart, g, jm_from_j(j_field, params, sign), params, **kw)

    @cached_property
    def sample_points(self) -> np.ndarray:
        return self.chart.sample_points(self.seed)

    def context(self, point) -> PointContext:
        """The context of one point (n,) or of a stack of points (m, n), such as the sample
        points; each is built once, after its points pass the chart-bounds check."""
        point = np.asarray(point, dtype=float)
        key = (point.shape, point.tobytes())
        ctx = self._contexts.get(key)
        if ctx is None:
            self.chart.require_inside(point, self.scheme.reach)
            ctx = PointContext(self.g, self.jm, self.params.q, point, self.scheme)
            self._contexts[key] = ctx
        return ctx

    def classification(self) -> "ClassificationReport":
        if self._classification is None:
            self._classification = classify(self)
        return self._classification


# --- identity records and the one pipeline that evaluates them ----------------


@dataclass(frozen=True)
class Identity:
    """One residual check: fn(stacked values) -> (residual, *terms), arrays stacked over
    the points. The residual is the largest |entry| of the first array, the scale that of
    all the others (0 when there are none).

    gate returns why the bundle is outside the identity's hypothesis class
    ("" when it is inside; None means no gate); tier names the Tolerances
    field that holds the tolerance. fn states the identity on the unit
    structure J = J_M / c, c = sqrt(3q/2), with no q in it; degree is the
    power of c that turns its arrays into those of the metallic form, so
    that both numbers are reported, and judged, as the metallic form's.
    """

    id: str
    gate: Optional[Callable[[StructureBundle], str]]
    tier: str
    fn: Callable
    asserted: bool = True
    note: str = ""
    degree: int = field(kw_only=True)


@dataclass(frozen=True, slots=True)  # built for every row of every run
class IdentityResult:
    id: str
    max_residual: float = 0.0
    scale: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    skipped: bool = False
    asserted: bool = True
    note: str = ""
    absolute: bool = False  # judged on max_residual itself, not on the relative residual

    @property
    def relative(self) -> float:
        return _relative(self.max_residual, self.scale)

    @property
    def judged(self) -> float:
        """The number the record passes on (below its tolerance): `relative`, or the residual
        itself when the record is `absolute`."""
        return _judged(self.max_residual, self.scale, self.absolute)

    @property
    def status(self) -> str:
        """SKIP, pass, FAIL (an asserted check that did not pass: the run fails) or info."""
        if self.skipped:
            return "SKIP"
        if self.passed:
            return "pass"
        return "FAIL" if self.asserted else "info"

    @property
    def near_boundary(self) -> bool:
        """Whether an evaluated record has tol/10 <= `judged` <= 10 tol."""
        return not self.skipped and self.tolerance / 10.0 <= self.judged <= self.tolerance * 10.0

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "max_residual": self.max_residual,
            "scale": self.scale,
            "relative": self.relative,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "skipped": self.skipped,
            "asserted": self.asserted,
            "note": self.note,
        }


def _skip(id_: str, note: str) -> IdentityResult:
    return IdentityResult(id=id_, skipped=True, passed=False, note=note)


def _relative(residual: float, scale: float) -> float:
    return residual / max(1.0, scale)


def _judged(residual: float, scale: float, absolute: bool) -> float:
    return residual if absolute else _relative(residual, scale)


def _result(id_: str, arrays: tuple, points, tol: float, asserted: bool = True,
            note: str = "", absolute: bool = False, factor: float = 1.0) -> IdentityResult:
    """Reduce a row's arrays (residual, *terms), stacked over `points`, with
    `geometry.largest_abs`: the residual first, then the scale over all the terms, each
    times `factor`. The row passes when its relative residual (its residual itself, if
    `absolute`) is below tol. A value that is not finite is a NumericalError naming the
    identity and point, not a failed check."""
    residual, *terms = arrays
    max_residual = factor * largest_abs(points, f"residual of {id_}", residual)
    scale = factor * largest_abs(points, f"scale of {id_}", *terms)
    return IdentityResult(id=id_, max_residual=max_residual, scale=scale, tolerance=tol,
                          passed=_judged(max_residual, scale, absolute) < tol,
                          asserted=asserted, note=note, absolute=absolute)


def evaluate(bundle: StructureBundle, identities, values=None) -> list:
    """Gate, evaluate and aggregate identity records in table order.

    Each row function is called once, with the PointContext of the sample
    points, or with the `values` stacked over them when the caller supplies
    them; rows of one call that name the same function share its arrays.
    Both numbers of a row are c^degree times those of its arrays, which are
    the unit structure's.
    """
    out, arrays = [], {}  # row function -> its arrays, for this call only
    c = bundle.params.coeff
    for ident in identities:
        reason = ident.gate(bundle) if ident.gate else ""
        if reason:
            out.append(_skip(ident.id, reason))
            continue
        if values is None:
            values = bundle.context(bundle.sample_points)
        if ident.fn not in arrays:
            arrays[ident.fn] = ident.fn(values)
        out.append(_result(ident.id, arrays[ident.fn], bundle.sample_points,
                           getattr(bundle.tolerances, ident.tier), ident.asserted, ident.note,
                           factor=c ** ident.degree))
    return out


# --- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    nearly: bool
    rows: dict  # residual name -> its IdentityResult, in CLASSIFICATION order
    theorem_dN_equiv_covJ: bool  # closedness+integrability vs parallel structure

    @property
    def residuals(self) -> dict:
        return {name: row.max_residual for name, row in self.rows.items()}

    @property
    def near_boundary(self) -> tuple:
        return tuple(name for name, row in self.rows.items() if row.near_boundary)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "nearly": self.nearly,
            "residuals": self.residuals,
            "near_boundary": list(self.near_boundary),
            "parallel_equivalence_consistent": self.theorem_dN_equiv_covJ,
        }


def _polynomial(ctx) -> tuple:
    """J^2 + I, c^-2 (J_M^2 + (3/2) q I), which is also the conjugate's: (-J)(-J) = J J to
    the bit."""
    return (ctx.J @ ctx.J + np.eye(ctx.n),)


def _skew_residual(ctx) -> tuple:
    """w + w^T. Given the polynomial, g(J X, J Y) = g(X, Y) holds exactly when this
    vanishes, so no separate row checks that form."""
    return (ctx.omega + np.swapaxes(ctx.omega, -1, -2),)


# The classification residuals: ungated rows with no terms, so each row's scale is 0, its
# relative residual is its (metallic-form) residual and it passes when that is below its tier.
CLASSIFICATION = (
    Identity("polynomial", None, "alg", _polynomial, degree=2),
    Identity("hyperbolic_direct", None, "alg", _skew_residual, degree=1),
    Identity("max_domega", None, "d1", lambda ctx: (ctx.domega,), degree=1),
    Identity("max_nijenhuis", None, "d1", lambda ctx: (ctx.N,), degree=2),
    Identity("max_cov_jm", None, "d1", lambda ctx: (ctx.covJ,), degree=1),
    Identity("max_sym_cov_jm", None, "d1", lambda ctx: (ctx.sym_covJ,), degree=1),
)


def classify(bundle: StructureBundle) -> ClassificationReport:
    """Evaluate the CLASSIFICATION rows and pick the most specific verdict.

    Verdict ladder: polynomial identity + skew compatibility give almost
    metallic Hermitian; closed fundamental form adds almost metallic
    Kahler; vanishing Nijenhuis tensor on top gives metallic Kahler (with
    the parallel-structure cross-check); a vanishing symmetrized nabla J_M
    gives nearly metallic Kahler, of which metallic Kahler is the special
    case. Residuals within a factor 10 of their threshold are flagged as
    near-boundary rather than silently classified. A residual that is not
    finite at some point raises NumericalError naming that point.
    """
    rows = {row.id: row for row in evaluate(bundle, CLASSIFICATION)}
    hermitian = rows["polynomial"].passed and rows["hyperbolic_direct"].passed
    closed = hermitian and rows["max_domega"].passed
    integrable = hermitian and rows["max_nijenhuis"].passed
    parallel = hermitian and rows["max_cov_jm"].passed
    nearly = hermitian and rows["max_sym_cov_jm"].passed

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
    return ClassificationReport(verdict=verdict, nearly=nearly, rows=rows,
                                theorem_dN_equiv_covJ=((closed and integrable) == parallel))


# --- gates: the reason a bundle is outside a hypothesis class, "" inside it; every
# identity row and connection kind names one ---


def _gate(admits: Callable, reason: str) -> Callable[[StructureBundle], str]:
    return lambda bundle: "" if admits(bundle.classification()) else reason


not_metallic = _gate(lambda cls: cls.rows["polynomial"].passed, "needs a metallic structure")
not_hermitian = _gate(lambda cls: cls.verdict != VERDICT_NONE,
                      "needs an almost metallic Hermitian bundle")
not_kahler = _gate(lambda cls: cls.verdict == VERDICT_KAHLER, "needs a metallic Kähler bundle")
not_nearly = _gate(lambda cls: cls.nearly, "needs a nearly metallic Kähler bundle")


def no_second_type(bundle: StructureBundle) -> str:
    """Why the bundle has no second-type connection in closed form, "" when it has one;
    `not_hermitian`'s reason first, so that it decides the second kind alone."""
    reason = not_hermitian(bundle)
    if reason:
        return reason
    cls = bundle.classification()
    if cls.verdict == VERDICT_KAHLER or cls.nearly:
        return ""
    if cls.verdict == VERDICT_ALMOST_KAHLER:
        return ("second-type connection: Levi-Civita preserves w only when nabla J_M = 0, "
                "and no closed form is derived for almost metallic Kähler bundles that are "
                "not metallic Kähler")
    return ("second-type connection has a closed form only on metallic Kähler or "
            "nearly metallic Kähler bundles")

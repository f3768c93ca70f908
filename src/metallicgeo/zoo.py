"""Built-in manifold + structure fixtures with known classifications.

Positive controls: flat charts, a flat torus-style chart, the unit
2-sphere in a stereographic chart (all metallic Kahler) and the unit
6-sphere with the cross-product structure (nearly metallic Kahler but not
metallic Kahler). One negative control is a flat chart with a
position-dependent rotation-conjugated structure that stays Hermitian
pointwise but is neither closed nor integrable.

All fixtures use p = 0 (see the metallic module note on the trace
obstruction); q defaults to 2/3, which makes J_M equal the underlying
almost complex structure. Metrics and structures are closed-form code;
the flat, torus and 2-sphere fixtures also carry a mirrored DSL spec file
used to cross-check the text-format path. Like every field, each maps a
stack of points (m, n) to a stack of component arrays (m, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .geometry import Chart, NumericalError, TensorField
from .metallic import (
    MetallicParams,
    StructureBundle,
    VERDICT_HERMITIAN,
    VERDICT_KAHLER,
    VERDICT_NEARLY,
    VERDICT_NONE,
)
from .octonions import cross7_matrix

__all__ = ["Fixture", "names", "get", "fixture_flat", "fixture_torus",
           "fixture_sphere2", "fixture_sphere6", "fixture_negative"]

DEFAULT_Q = 2.0 / 3.0


@dataclass(frozen=True)
class Fixture:
    name: str
    bundle: StructureBundle
    expected_verdict: str
    expected_nearly: bool
    spec_text: Optional[str] = None
    notes: str = ""

    def validate(self):
        """Self-check of the polynomial identity and the declared verdict (NumericalError)."""
        cls = self.bundle.classification()
        at_q = f"fixture {self.name} at q = {self.bundle.params.q:g}"
        if cls.residuals["polynomial"] > self.bundle.tolerances.alg:
            raise NumericalError(f"{at_q}: polynomial identity fails")
        if cls.verdict != self.expected_verdict:
            raise NumericalError(f"{at_q}: classified {cls.verdict!r}, expected {self.expected_verdict!r}")
        if cls.nearly != self.expected_nearly:
            raise NumericalError(f"{at_q}: nearly flag {cls.nearly} unexpected")
        return self


def _std_complex_structure(k: int) -> np.ndarray:
    """Block-diagonal rotation by +90 degrees on R^{2k}."""
    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.zeros((2 * k, 2 * k))
    for b in range(k):
        J[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = J2
    return J


def _const_field(name: str, sig: str, value: np.ndarray) -> TensorField:
    value = np.asarray(value, dtype=float)
    return TensorField(name=name, sig=sig,
                       fn=lambda pts: np.broadcast_to(value, (len(pts),) + value.shape))


def _delta_metric(n: int) -> TensorField:
    return _const_field("delta", "dd", np.eye(n))


def _conformal_factor(pts: np.ndarray) -> np.ndarray:
    """4/(1+r^2)^2 at each point of a stack."""
    r2 = np.einsum("mi,mi->m", pts, pts)
    return 4.0 / (1.0 + r2) ** 2


def _conformal_round_metric(n: int) -> TensorField:
    """Stereographic pullback of the unit round metric: 4/(1+r^2)^2 delta."""
    eye = np.eye(n)

    def fn(pts):
        return _conformal_factor(pts)[:, None, None] * eye

    return TensorField(name="round-metric", sig="dd", fn=fn)


def _mirror_spec(name, dim, bounds, q, g_entries, j_entries, grid, n_random, seed) -> str:
    lines = [
        f"# mirrored spec for the built-in {name} fixture",
        f"name = {name}",
        f"dimension = {dim}",
        "p = 0.0",
        f"q = {q!r}",
        "bounds = " + ", ".join(f"{lo!r} {hi!r}" for lo, hi in bounds),
        f"grid = {grid}",
        f"random_points = {n_random}",
        f"seed = {seed}",
        "structure = J",
        "sign = +",
    ]
    for (i, j), expr in sorted(g_entries.items()):
        lines.append(f"g[{i}][{j}] = {expr}")
    for (i, j), expr in sorted(j_entries.items()):
        lines.append(f"j[{i}][{j}] = {expr}")
    return "\n".join(lines) + "\n"


def fixture_flat(k: int = 1, q: float = DEFAULT_Q, p: float = 0.0) -> Fixture:
    """Flat R^{2k} with the standard block structure; metallic Kahler for p = 0.

    Requesting p != 0 builds the bundle anyway and documents the trace
    obstruction: the polynomial identity holds but skew compatibility
    cannot, so the expected verdict drops to not metallic-Hermitian.
    """
    n = 2 * k
    params = MetallicParams(p, q)
    grid = {1: 3, 2: 2, 3: 1}.get(k, 1)
    n_random = 0 if grid**n >= 8 else 8
    chart = Chart(dimension=n, bounds=tuple(((-1.0, 1.0),) * n), grid=grid,
                  n_random=n_random, seed=42, margin=0.1,
                  named_points={"origin": (0.0,) * n})
    g = _delta_metric(n)
    j_field = _const_field("J-standard", "ud", _std_complex_structure(k))
    bundle = StructureBundle.from_j(chart, g, j_field, params, name=f"flat-k{k}")
    expected = VERDICT_KAHLER if p == 0.0 else VERDICT_NONE
    spec_text = None
    if p == 0.0:
        J = _std_complex_structure(k)
        g_entries = {(i, i): "1" for i in range(n)}
        j_entries = {(a, b): repr(float(J[a, b]))
                     for a in range(n) for b in range(n) if J[a, b] != 0.0}
        spec_text = _mirror_spec(f"flat-k{k}", n, ((-1.0, 1.0),) * n, q,
                                 g_entries, j_entries, grid, n_random, 42)
    return Fixture(name=f"flat-k{k}", bundle=bundle, expected_verdict=expected,
                   expected_nearly=(p == 0.0), spec_text=spec_text,
                   notes="flat chart, parallel structure" if p == 0.0 else
                         "documents the p != 0 trace obstruction")


def fixture_torus(q: float = DEFAULT_Q) -> Fixture:
    """Flat metric on a periodic-style chart away from the origin."""
    params = MetallicParams(0.0, q)
    bounds = ((0.1, 6.18), (0.1, 6.18))
    chart = Chart(dimension=2, bounds=bounds, grid=3, n_random=2, seed=7, margin=0.1)
    g = _delta_metric(2)
    j_field = _const_field("J-standard", "ud", _std_complex_structure(1))
    bundle = StructureBundle.from_j(chart, g, j_field, params, name="torus")
    spec_text = _mirror_spec("torus", 2, bounds, q,
                             {(0, 0): "1", (1, 1): "1"},
                             {(0, 1): "-1", (1, 0): "1"}, 3, 2, 7)
    return Fixture(name="torus", bundle=bundle, expected_verdict=VERDICT_KAHLER,
                   expected_nearly=True, spec_text=spec_text,
                   notes="flat, compact-style chart with nontrivial coordinates")


def fixture_sphere2(q: float = DEFAULT_Q) -> Fixture:
    """Unit 2-sphere, stereographic chart; scalar curvature 2 everywhere."""
    params = MetallicParams(0.0, q)
    bounds = ((-0.9, 0.9), (-0.9, 0.9))
    chart = Chart(dimension=2, bounds=bounds, grid=3, n_random=4, seed=11, margin=0.09,
                  named_points={"origin": (0.0, 0.0)})
    g = _conformal_round_metric(2)
    j_field = _const_field("J-rot90", "ud", _std_complex_structure(1))
    bundle = StructureBundle.from_j(chart, g, j_field, params, name="s2")
    spec_text = _mirror_spec(
        "s2", 2, bounds, q,
        {(0, 0): "4/(1 + x0^2 + x1^2)^2", (1, 1): "4/(1 + x0^2 + x1^2)^2"},
        {(0, 1): "-1", (1, 0): "1"}, 3, 4, 11)
    return Fixture(name="s2", bundle=bundle, expected_verdict=VERDICT_KAHLER,
                   expected_nearly=True, spec_text=spec_text,
                   notes="curved metallic Kahler control; Ricci equals g")


def _sphere6_embedding(pts: np.ndarray):
    """Inverse stereographic map into the unit sphere in R^7 and its Jacobian.

    pts is a stack (m, 6); returns u (m, 7) and D (m, 7, 6).
    """
    x = np.asarray(pts, dtype=float)
    r2 = np.einsum("mi,mi->m", x, x)
    s = (1.0 + r2)[:, None]
    u = np.concatenate([2.0 * x / s, (1.0 - r2)[:, None] / s], axis=1)
    top = 2.0 * np.eye(6) / s[:, :, None] - 4.0 * np.einsum("mi,mj->mij", x, x) / (s**2)[:, :, None]
    D = np.concatenate([top, (-4.0 * x / s**2)[:, None, :]], axis=1)
    return u, D


def _sphere6_structure() -> TensorField:
    """Cross-product structure pulled back through the stereographic chart.

    At u(x) on the sphere the structure sends a tangent vector w to the
    cross product u x w; the chart representation conjugates by the embedding
    Jacobian D, using (D^T D)^{-1} D^T = D^T / lambda for the conformal
    factor lambda = 4/(1+r^2)^2.
    """

    def fn(pts):
        u, D = _sphere6_embedding(pts)
        return (np.swapaxes(D, 1, 2) @ cross7_matrix(u) @ D) / _conformal_factor(pts)[:, None, None]

    return TensorField(name="J-cross-product", sig="ud", fn=fn)


def fixture_sphere6(q: float = DEFAULT_Q) -> Fixture:
    """Unit 6-sphere with the cross-product structure: nearly but not metallic Kahler."""
    params = MetallicParams(0.0, q)
    # bounds keep |x| <= 0.54*sqrt(6) ~ 1.32 < 1.5 so the pullback stays well conditioned
    bounds = tuple(((-0.6, 0.6),) * 6)
    chart = Chart(dimension=6, bounds=bounds, grid=1, n_random=7, seed=5, margin=0.06,
                  named_points={"origin": (0.0,) * 6})
    g = _conformal_round_metric(6)
    bundle = StructureBundle.from_j(chart, g, _sphere6_structure(), params, name="s6")
    return Fixture(name="s6", bundle=bundle, expected_verdict=VERDICT_NEARLY,
                   expected_nearly=True,
                   notes="canonical nearly Kahler control; scalar curvature 30")


def _rotation_conjugated_structure(rate: float = 0.3) -> TensorField:
    """J(x) = R(theta) J_std R(theta)^T on R^4 with theta = rate * x0.

    The rotation acts in the (e1, e2) plane, which does not commute with
    the block structure, so the conjugated field genuinely varies while
    staying orthogonal-conjugated (hence Hermitian for the flat metric).
    """
    J0 = _std_complex_structure(2)

    def fn(pts):
        th = rate * pts[:, 0]
        R = np.tile(np.eye(4), (len(pts), 1, 1))
        c, s = np.cos(th), np.sin(th)
        R[:, 1, 1], R[:, 1, 2], R[:, 2, 1], R[:, 2, 2] = c, -s, s, c
        return R @ J0 @ np.swapaxes(R, 1, 2)

    return TensorField(name="J-rotated", sig="ud", fn=fn)


def fixture_negative(q: float = DEFAULT_Q) -> Fixture:
    """Pointwise Hermitian but neither closed nor integrable: the control
    that exercises the verdict ladder below metallic Kahler."""
    params = MetallicParams(0.0, q)
    chart = Chart(dimension=4, bounds=tuple(((-1.0, 1.0),) * 4), grid=2,
                  n_random=0, seed=3, margin=0.1)
    g = _delta_metric(4)
    bundle = StructureBundle.from_j(chart, g, _rotation_conjugated_structure(), params,
                                    name="negative")
    return Fixture(name="negative", bundle=bundle, expected_verdict=VERDICT_HERMITIAN,
                   expected_nearly=False,
                   notes="position-dependent rotation conjugation; d-omega and N both large")


_BUILDERS = {
    "flat-k1": lambda q: fixture_flat(1, q),
    "flat-k2": lambda q: fixture_flat(2, q),
    "flat-k3": lambda q: fixture_flat(3, q),
    "torus": fixture_torus,
    "s2": fixture_sphere2,
    "s6": fixture_sphere6,
    "negative": fixture_negative,
}


def names() -> tuple:
    return tuple(sorted(_BUILDERS))


@lru_cache(maxsize=None)
def get(name: str, q: float = DEFAULT_Q) -> Fixture:
    """Fetch (and on first use validate) a fixture by name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(names())}")
    fx = _BUILDERS[name](q).validate()
    if name == "negative":
        cls = fx.bundle.classification()
        worst = max(cls.residuals["max_domega"], cls.residuals["max_nijenhuis"])
        if worst <= 1e-2:
            raise NumericalError(f"negative fixture at q = {q:g} is not negative enough")
    return fx

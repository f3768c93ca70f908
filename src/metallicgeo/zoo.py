"""Built-in manifold + structure fixtures with known classifications.

Positive controls: flat charts, a flat torus-style chart, the unit
2-sphere in a stereographic chart (all metallic Kahler) and the unit
6-sphere with the cross-product structure (nearly metallic Kahler but not
metallic Kahler). One negative control is a flat chart with a
position-dependent rotation-conjugated structure that stays Hermitian
pointwise but is neither closed nor integrable.

All fixtures use p = 0 (see the metallic module note on the trace
obstruction); q defaults to 2/3, which makes J_M equal the underlying
almost complex structure. Six fixtures (flat-k1/2/3, torus, s2 and
negative) are defined once, as manifold spec text (see `specfile`) with
their whole chart: bounds, grid, seed, margin and named points. The text
is the fixture's `spec_text`: a report hashes it into `source.sha256`,
and a spec file holding it gives the same report as `--zoo`. s6 needs
the octonion cross product, which the expression DSL cannot write, so it
is the one fixture given as Python fields; it keeps that path under test.
Like every field, each maps a stack of points (m, n) to a stack of
component arrays (m, ...).
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
from .specfile import build_bundle, parse_spec

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


def _spec_fixture(text: str, expected_verdict: str, expected_nearly: bool, notes: str) -> Fixture:
    """The fixture that spec `text` defines; the text is also its `spec_text`."""
    spec = parse_spec(text)
    return Fixture(name=spec.name, bundle=build_bundle(spec), expected_verdict=expected_verdict,
                   expected_nearly=expected_nearly, spec_text=text, notes=notes)


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


def fixture_flat(k: int = 1, q: float = DEFAULT_Q, p: float = 0.0) -> Fixture:
    """Flat R^{2k} with the standard block structure; metallic Kahler for p = 0.

    Requesting p != 0 builds the bundle anyway and documents the trace
    obstruction: the polynomial identity holds but skew compatibility
    cannot, so the expected verdict drops to not metallic-Hermitian.
    """
    n = 2 * k
    grid = {1: 3, 2: 2, 3: 1}.get(k, 1)
    lines = [f"name = flat-k{k}", f"dimension = {n}", f"p = {p!r}", f"q = {q!r}",
             "bounds = " + ", ".join(["-1 1"] * n), f"grid = {grid}",
             f"random_points = {0 if grid**n >= 8 else 8}", "seed = 42", "margin = 0.1",
             "point origin = " + " ".join(["0"] * n), "structure = J", "sign = +"]
    lines += [f"g[{i}][{i}] = 1" for i in range(n)]
    for b in range(0, n, 2):  # rotation by +90 degrees in each coordinate plane
        lines += [f"j[{b}][{b + 1}] = -1", f"j[{b + 1}][{b}] = 1"]
    kahler = p == 0.0
    return _spec_fixture("\n".join(lines) + "\n", VERDICT_KAHLER if kahler else VERDICT_NONE,
                         kahler, "flat chart, parallel structure" if kahler else
                         "documents the p != 0 trace obstruction")


def fixture_torus(q: float = DEFAULT_Q) -> Fixture:
    """Flat metric on a periodic-style chart away from the origin."""
    return _spec_fixture(f"""\
name = torus
dimension = 2
p = 0.0
q = {q!r}
bounds = 0.1 6.18, 0.1 6.18
grid = 3
random_points = 2
seed = 7
margin = 0.1
structure = J
sign = +
g[0][0] = 1
g[1][1] = 1
j[0][1] = -1
j[1][0] = 1
""", VERDICT_KAHLER, True, "flat, compact-style chart with nontrivial coordinates")


def fixture_sphere2(q: float = DEFAULT_Q) -> Fixture:
    """Unit 2-sphere, stereographic chart; scalar curvature 2 everywhere."""
    # |x|^2 is summed before 1 is added, as `_conformal_factor` (the s6 metric) sums it
    return _spec_fixture(f"""\
name = s2
dimension = 2
p = 0.0
q = {q!r}
bounds = -0.9 0.9, -0.9 0.9
grid = 3
random_points = 4
seed = 11
margin = 0.09
point origin = 0 0
structure = J
sign = +
g[0][0] = 4/(1 + (x0^2 + x1^2))^2
g[1][1] = 4/(1 + (x0^2 + x1^2))^2
j[0][1] = -1
j[1][0] = 1
""", VERDICT_KAHLER, True, "curved metallic Kahler control; Ricci equals g")


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


def fixture_negative(q: float = DEFAULT_Q) -> Fixture:
    """Pointwise Hermitian but neither closed nor integrable: the control
    that exercises the verdict ladder below metallic Kahler.

    J = R J_std R^T on flat R^4, where R rotates the (e1, e2) plane by
    0.3 x0. The rotation does not commute with the block structure, so J
    genuinely varies while staying orthogonally conjugated, hence Hermitian
    for the flat metric.
    """
    return _spec_fixture(f"""\
name = negative
dimension = 4
p = 0.0
q = {q!r}
bounds = -1 1, -1 1, -1 1, -1 1
grid = 2
random_points = 0
seed = 3
margin = 0.1
structure = J
sign = +
g[0][0] = 1
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
j[0][1] = -cos(0.3*x0)
j[0][2] = -sin(0.3*x0)
j[1][0] = cos(0.3*x0)
j[1][3] = sin(0.3*x0)
j[2][0] = sin(0.3*x0)
j[2][3] = -cos(0.3*x0)
j[3][1] = -sin(0.3*x0)
j[3][2] = cos(0.3*x0)
""", VERDICT_HERMITIAN, False, "position-dependent rotation conjugation; d-omega and N both large")


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

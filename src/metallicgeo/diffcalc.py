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
* Derivatives are prepended, the outer one first: dgamma[a, h, i, j] =
  d_a Gamma^h_ij, ddg[a, b, i, j] = d_a d_b g_ij, and second covariant
  derivatives covcov[a, b, ...] = (nabla_a nabla_b T)_...

Differencing is central, and every derivative is one jet order of a field
at a point: its partials of order 1, 2 or 3, from one table of weights
that acts on f(node) - f(point). At one step a partial's weights are a
tensor product of rows of one 1-D table of order-2 central weights
(Fornberg, Math. Comp. 51 (1988) 699-706); the steps h and h/2 are
Richardson-combined to order 4. A table (`JetTable`) holds one row per
distinct partial, a multi-index a <= b (<= c), with only that partial's
nodes and weights (at most 16, at order 3), and an `expand` index from
every ordered multi-index to its row; `MetricJet._jet` weights each row's
node values in one einsum and expands the rows by indexing, so the work
grows with the distinct partials and their nodes (56 rows of 16 of 476
nodes at order 3 in dimension 6), not with a dense (n,)*order table over
all the nodes, and none of it goes through BLAS. Tables are cached per
(n, h, order).

A jet serves one point (n,) or a stack of points (m, n): every member
carries the stack's point axis first, written with leading `...` axes, so
one code path computes both, and scalars become (m,) vectors. Order 1
(everything classification reads: the connection, dJ, dw, nabla w) is
built at h = 2 h1, which is the order-4 axis stencil at h1, nodes
x +- h1 e_a, x +- 2 h1 e_a; each field is called once for it, at every
point and its 4n nodes: a MetricJet evaluates g, a PointContext J_M as
well, and every order-1 quantity is read off those values. They give g,
d g, g^-1 (inverted once) and Gamma (`christoffel`, algebra on g^-1 and
d g); J and d J; and w = J_M g at the points and the nodes, hence d w,
nabla w (`covariant_derivative`: plain partials plus Gamma corrections)
and dw (from the skew part of w). The node values are not kept; a
MetricJet of any field gives its order-1 jet, `dg`. Orders 2 (axis
and face nodes) and 3 (adding axis nodes at 2 h2 and cube nodes) are
built at h = h2. g is evaluated at the order-2 nodes of every point in
one call and kept (nabla nabla w reads them); the order-2 differences,
J_M at the order-2 nodes and all of order 3 are taken one chunk of
consecutive points at a time, as many as keep the node values of one
field under CHUNK_BYTES (the whole stack in dimension 2, one to three
points in dimension 6), and order-3 node values are never kept. The
farthest node lies 2 h2 from its point, the scheme's `reach`, which the
bundle checks for every point when it builds the PointContext; the
functions here check no bounds.

Curvature and its derivatives are algebra on the jet: differentiating
g Gamma = L/2 (L_tij = d_i g_tj + d_j g_ti - d_t g_ij) once and twice
gives d Gamma and d d Gamma, with d g from order 1. Riemann
reads (Gamma, d Gamma), nabla Ricci d d Gamma, and nabla nabla w the
order-2 jet of w = J_M g. The jet agrees with nested stencils to roundoff
and truncation (Riemann to ~1e-10).

Fields map a stack of points (m, n) to a stack of values (m, ...).
Everything is a pure function of (field, points); a MetricJet or
PointContext computes each order once and is read-only afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .geometry import Chart, inverse_metric, max_abs

__all__ = [
    "DiffScheme",
    "CurvaturePack",
    "partial",
    "christoffel",
    "covariant_derivative",
    "riemann",
    "nijenhuis",
    "MetricJet",
    "PointContext",
]

DEFAULT_H1 = 1e-3
ORDER1 = 4  # first derivatives: order-2 stencils at 2 h1 and h1, Richardson-combined
ORDER2 = 2  # jet: order-2 stencils at h2 and h2/2, Richardson-combined
CHUNK_BYTES = 1 << 17  # node values of one field that a chunk of an order-2 or 3 jet holds


@dataclass(frozen=True)
class DiffScheme:
    """Finite-difference steps: h1 for first derivatives, h2 (from h1) for orders 2 and 3."""

    h1: float = DEFAULT_H1

    def __post_init__(self):
        if not 0.0 < self.h1 < np.inf:
            raise ValueError(f"step h must be positive and finite, got {self.h1:g}")
        # a jet weight of order k at step h is at most (4/3) / (h/2)^k: order 1 at 2 h1,
        # orders 2 and 3 at h2 (`_jet_table`)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            steps = np.array([2.0 * self.h1, self.h2, self.h2]) / 2.0
            finite = np.isfinite((4.0 / 3.0) / steps ** np.arange(1, 4)).all()
        if not finite:
            raise ValueError(f"step h={self.h1:g} is too small: the jet weights at h2={self.h2:g}"
                             " are not finite")

    @property
    def h2(self) -> float:
        return self.h1 ** (5.0 / 6.0)  # 10^-2.5 at the default h1

    @property
    def reach(self) -> float:
        """Farthest excursion of a node from its point: 2 h2 (jet axis nodes), or 2 h1 if larger."""
        return 2.0 * max(self.h2, self.h1)

    def check_chart(self, chart: Chart):
        if self.reach >= chart.margin:
            raise ValueError(
                f"step h2={self.h2:g} must stay below half the chart margin {chart.margin:g}:"
                f" the jet reaches {self.reach:g} from each point"
            )


# 1-D central weights at offsets -2..2 (in steps) of the derivative of order m = 1, 2, 3,
# each of order 2: m = 1, 2 on the 3-point stencil, m = 3 on the 5-point one (Fornberg 1988)
WEIGHTS_1D = np.array([
    [0.0, -0.5, 0.0, 0.5, 0.0],
    [0.0, 1.0, -2.0, 1.0, 0.0],
    [-0.5, 1.0, 0.0, -1.0, 0.5],
])
WEIGHTS_1D.flags.writeable = False


def partial(fn, point, axis: int, scheme: DiffScheme | None = None):
    """One partial derivative d_axis fn at a point: the axis-th slice of the order-1 jet of
    fn, `MetricJet(fn, point, scheme).dg`."""
    return MetricJet(fn, point, scheme).dg[axis]


class JetTable(NamedTuple):
    """The nodes a jet order adds and its weights, one row per distinct partial.

    offsets are the nodes of the orders so far in units of h/2, in order,
    and disp the displacements of those this order adds (order 3 extends
    the nodes of order 2). Row r is the r-th multi-index a <= b (<= c) of
    `combinations_with_replacement`: weights[r, j] is the weight of node
    cols[r, j], padded to the widest row with weight 0 on the row's last
    node, and expand[a, b(, c)] is the row of d_a d_b (d_c) in any order
    of its indices. The weights act on f(node) - f(point), so a constant
    field has a jet of zeros.
    """

    disp: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    expand: np.ndarray
    offsets: tuple


@lru_cache(maxsize=16)
def _jet_table(n: int, h: float, order: int) -> JetTable:
    """The `JetTable` of one order at step h, cached per (n, h, order)."""
    index = {o: k for k, o in enumerate(_jet_table(n, h, 2).offsets if order == 3 else ())}
    added = len(index)
    combos = list(combinations_with_replacement(range(n), order))
    rows = []
    for idx in combos:
        axes = sorted(set(idx))
        w1d = [WEIGHTS_1D[idx.count(a) - 1] for a in axes]
        row: dict = {}
        for s, factor in ((1, 4.0 / 3.0), (2, -1.0 / 3.0)):  # steps h/2 and h
            for ks in product(*(np.flatnonzero(w) - 2 for w in w1d)):
                steps = dict(zip(axes, ks))
                offset = tuple(int(steps.get(a, 0)) * s for a in range(n))
                if any(offset):
                    k = index.setdefault(offset, len(index))
                    coef = np.prod([w[j + 2] for w, j in zip(w1d, ks)])
                    row[k] = row.get(k, 0.0) + factor * coef / (s * h / 2.0) ** order
        rows.append(row)
    width = max(map(len, rows))
    cols = np.array([list(row) + [list(row)[-1]] * (width - len(row)) for row in rows])
    weights = np.array([list(row.values()) + [0.0] * (width - len(row)) for row in rows])
    row_of = {idx: r for r, idx in enumerate(combos)}
    expand = np.array([row_of[tuple(sorted(idx))] for idx in product(range(n), repeat=order)])
    expand = expand.reshape((n,) * order)
    disp = np.array(tuple(index)[added:]) * (h / 2.0)
    for arr in (disp, cols, weights, expand):
        arr.flags.writeable = False
    return JetTable(disp, cols, weights, expand, tuple(index))


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """L_tij = d_i g_tj + d_j g_ti - d_t g_ij arranged as [..., i, t, j], from dg[..., a, i, j]."""
    return dg + np.swapaxes(dg, -3, -1) - np.swapaxes(dg, -3, -2)


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients gamma[..., h, i, j] from g^-1 and dg[..., a, i, j] = d_a g_ij."""
    return 0.5 * np.einsum("...ht,...itj->...hij", ginv, _first_kind(dg))


def _cov_correct(value: np.ndarray, sig: str, gamma: np.ndarray) -> np.ndarray:
    """Gamma corrections for every slot; returns corr[..., a, ...] to add to d_a T.

    value and gamma carry the same leading (stack) axes. Each slot's term is
    one batched matrix product over the summed index t, of T with that slot
    last and of Gamma arranged as [t, (a, x)], x the slot's new index.
    """
    n = gamma.shape[-1]
    lead = gamma.shape[:-3]
    k, p = len(lead), len(sig) - 1
    corr = np.zeros(lead + (n,) + value.shape[k:])
    stack = list(range(k))
    for axis, kind in enumerate(sig):
        rest = [k + s for s in range(p + 1) if s != axis]
        moved = value.transpose(stack + rest + [k + axis]).reshape(lead + (-1, n))
        # 'u': + Gamma^x_at T^{...t...}, Gamma as [t, a, x]; 'd': - Gamma^t_ax T_{...t...}
        arranged = np.swapaxes(gamma, -3, -1) if kind == "u" else gamma
        term = (moved @ arranged.reshape(lead + (n, n * n))).reshape(
            lead + tuple(value.shape[r] for r in rest) + (n, n))
        # [..., rest, a, x] -> [..., a, rest before the slot, x, rest after it]
        term = term.transpose(stack + [k + p] + list(range(k, k + axis)) + [k + p + 1]
                              + list(range(k + axis, k + p)))
        if kind == "u":
            corr += term
        else:
            corr -= term
    return corr


def covariant_derivative(d: np.ndarray, value: np.ndarray, sig: str,
                         gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative, one covariant slot prepended: out[..., a, ...] = (nabla_a T)_...

    The plain partials d[..., a, ...] = d_a T plus the connection terms of
    each slot of T (sig: 'u' upper, 'd' lower), from T's value and gamma.
    """
    return d + _cov_correct(value, sig, gamma)


@dataclass(frozen=True)
class CurvaturePack:
    """Riemann (both forms), Ricci and scalar curvature at a point, or at each point of a
    stack (leading point axis; scalar is then an (m,) vector)."""

    Rup: np.ndarray    # R_kji^h as [..., k, j, i, h]
    Rdown: np.ndarray  # R_kjil
    ricci: np.ndarray  # S_ji = R_hji^h
    scalar: float | np.ndarray

    def symmetry_residuals(self) -> dict:
        """Algebraic invariants of the lowered tensor, as relative residuals (largest over
        the pack's points)."""
        R = self.Rdown
        scale = max(1.0, max_abs(R))
        first_bianchi = (R + np.einsum("...jikl->...kjil", R)
                         + np.einsum("...ikjl->...kjil", R))
        return {
            "antisym_first_pair": max_abs(R + np.swapaxes(R, -4, -3)) / scale,
            "antisym_last_pair": max_abs(R + np.swapaxes(R, -2, -1)) / scale,
            "pair_symmetry": max_abs(R - np.einsum("...klij->...ijkl", R)) / scale,
            "first_bianchi": max_abs(first_bianchi) / scale,
        }


def riemann(jet) -> CurvaturePack:
    """Curvature at the point (or the stack of points) of a `MetricJet`, from its connection
    and the connection's derivatives."""
    gamma, dGamma = jet.gamma, jet.dgamma  # dGamma[..., k, h, i, j]
    # R_kji^h = d_k G^h_ji - d_j G^h_ki + G^t_ji G^h_kt - G^t_ki G^h_jt
    Rup = (
        np.einsum("...khji->...kjih", dGamma)
        - np.einsum("...jhki->...kjih", dGamma)
        + np.einsum("...tji,...hkt->...kjih", gamma, gamma)
        - np.einsum("...tki,...hjt->...kjih", gamma, gamma)
    )
    Rdown = np.einsum("...kjit,...tl->...kjil", Rup, jet.g)
    ricci = np.einsum("...hjih->...ji", Rup)
    scalar = np.einsum("...ji,...ji->...", jet.ginv, ricci)
    return CurvaturePack(Rup=Rup, Rdown=Rdown, ricci=ricci, scalar=scalar)


def nijenhuis(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """Bracket-formula Nijenhuis tensor of a (1,1) field, N[..., i, j, h] = N_ij^h.

    Computed from J[..., h, i] and its plain partials dJ[..., a, h, i];
    antisymmetry in (i, j) is structural.
    N_ij^h = J_i^t d_t J_j^h - J_j^t d_t J_i^h + (d_j J_i^t) J_t^h - (d_i J_j^t) J_t^h
    """
    term1 = np.einsum("...ti,...thj->...ijh", J, dJ)
    term3 = np.einsum("...jti,...ht->...ijh", dJ, J)
    return term1 - np.swapaxes(term1, -3, -2) + term3 - np.swapaxes(term3, -3, -2)


def _from_order1(key: str, doc: str | None = None) -> property:
    """A member of a MetricJet read off its order-1 quantities."""
    return property(lambda self: self._order1[key], doc=doc)


def _join(parts) -> np.ndarray:
    """Per-chunk arrays joined on their first (point) axis; a single chunk as it is."""
    parts = list(parts)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class MetricJet:
    """Lazy jet of a metric at one point (n,) or at each point of a stack (m, n); every
    member carries the stack's point axis first. Order 1 evaluates g once, at the points and
    their 4n nodes each, for g, d g, g^-1 and the connection (`christoffel`); order 2
    (d d g, hence d Gamma and Riemann) and order 3 (d d d g, hence d d Gamma and
    nabla Ricci) evaluate g at the nodes they add, one call per chunk of consecutive
    points (`_chunks`). Any field is accepted."""

    def __init__(self, g_fn, point, scheme: DiffScheme | None = None):
        self.g_fn = g_fn
        self.point = np.asarray(point, dtype=float)
        self.scheme = scheme or DiffScheme()
        self.n = self.point.shape[-1]

    def _table(self, order: int) -> JetTable:
        """Order 1 at step 2 h1, so that its nodes lie h1 and 2 h1 from the point; 2 and 3 at h2."""
        return _jet_table(self.n, 2.0 * self.scheme.h1 if order == 1 else self.scheme.h2, order)

    def _jet(self, order: int, value: np.ndarray, *node_values) -> np.ndarray:
        """One jet order, out[..., a, b(, c), ...], from a field's values at the points and at
        their nodes, node_values[k, ...]: each distinct partial from its own nodes, then
        copied to every order of its indices by the table's `expand` index."""
        diff = np.empty((sum(map(len, node_values)),) + value.shape)
        start = 0
        for nodes in node_values:
            np.subtract(nodes, value, out=diff[start:start + len(nodes)])
            start += len(nodes)
        table = self._table(order)
        out = np.einsum("rk,rk...->r...", table.weights, diff[table.cols])[table.expand]
        return np.moveaxis(out, range(order), range(1, order + 1)) if self.point.ndim > 1 else out

    def _nodes(self, disp: np.ndarray, rows=...) -> np.ndarray:
        """nodes[k, ...] = point + disp[k] for every point of `rows`."""
        pts = self.point[rows]
        return pts + disp.reshape(disp.shape[:1] + (1,) * (pts.ndim - 1) + (self.n,))

    def _call(self, fn, nodes: np.ndarray) -> np.ndarray:
        """fn at every node, values[k, ...], from one call."""
        values = np.asarray(fn(nodes.reshape(-1, self.n)), dtype=float)
        return values.reshape(nodes.shape[:-1] + values.shape[1:])

    def _stencil(self, fn) -> np.ndarray:
        """fn at the points (node 0) and at their 4n order-1 nodes."""
        return self._call(fn, np.concatenate([self.point[None], self._nodes(self._table(1).disp)]))

    def _chunks(self, order: int) -> list:
        """Row selections of consecutive points whose g values at the nodes of `order` fit
        CHUNK_BYTES, at least one point each; a one-point jet is one chunk, `...`."""
        if self.point.ndim == 1:
            return [...]
        size = max(1, CHUNK_BYTES // (8 * len(self._table(order).offsets) * self.n * self.n))
        return [slice(k, k + size) for k in range(0, len(self.point), size)]

    @cached_property
    def _order1(self) -> dict:
        """Every order-1 quantity, from one stencil of g; the node values are not kept."""
        return self._first_order(self._stencil(self.g_fn))

    def _first_order(self, g: np.ndarray) -> dict:
        """The order-1 quantities, from g at the points and their nodes (`_stencil`); a
        PointContext adds those of J_M. The value at the points is a copy, so that keeping it
        does not keep the node values."""
        return {"g": g[0].copy(), "dg": self._jet(1, g[0], g[1:])}

    g = _from_order1("g")
    dg = _from_order1("dg", "dg[..., a, i, j] = d_a g_ij.")

    @cached_property
    def ginv(self) -> np.ndarray:
        return inverse_metric(self.g, self.point)

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffel(self.ginv, self.dg)

    @cached_property
    def g_nodes2(self) -> np.ndarray:
        """g at the order-2 nodes of every point, nodes[k, ...], from one call. They are kept
        (nabla nabla w reads them), so evaluating them in chunks would save nothing, and
        joining the chunks would copy a constant field's broadcast values."""
        return self._call(self.g_fn, self._nodes(self._table(2).disp))

    @cached_property
    def ddg(self) -> np.ndarray:
        return _join(self._jet(2, self.g[rows], self.g_nodes2[:, rows]) for rows in self._chunks(2))

    def dddg(self, rows=...) -> np.ndarray:
        """d_a d_b d_c g at the points of `rows`, anew on each call: nabla Ricci reads it once per
        chunk, and a jet keeps none."""
        return self._jet(3, self.g[rows], self.g_nodes2[:, rows],
                         self._call(self.g_fn, self._nodes(self._table(3).disp, rows)))

    @cached_property
    def dgamma(self) -> np.ndarray:
        """dgamma[..., a, h, i, j] = d_a Gamma^h_ij, from g d_a Gamma = d_a L / 2 - d_a g Gamma."""
        rhs = (0.5 * np.einsum("...aitj->...atij", _first_kind(self.ddg))
               - np.einsum("...ats,...sij->...atij", self.dg, self.gamma))
        return np.einsum("...ht,...atij->...ahij", self.ginv, rhs)

    def ddgamma(self, rows=...) -> np.ndarray:
        """ddgamma[..., a, b, h, i, j] = d_a d_b Gamma^h_ij at the points of `rows`, anew on each
        call, like `dddg`, from
        g d_a d_b Gamma = d_a d_b L / 2 - d_a d_b g Gamma - d_a g d_b Gamma - d_b g d_a Gamma."""
        gamma, ginv = self.gamma[rows], self.ginv[rows]
        cross = np.einsum("...ats,...bsij->...abtij", self.dg[rows], self.dgamma[rows])
        rhs = (0.5 * np.einsum("...abitj->...abtij", _first_kind(self.dddg(rows)))
               - np.einsum("...abts,...sij->...abtij", self.ddg[rows], gamma)
               - cross - np.swapaxes(cross, -5, -4))
        return np.einsum("...ht,...abtij->...abhij", ginv, rhs)

    @cached_property
    def curvature(self) -> CurvaturePack:
        return riemann(self)

    @cached_property
    def cov_ricci(self) -> np.ndarray:
        """cov_ricci[..., a, j, i] = (nabla_a S)_ji, with d_a S_ji = d_a R_hji^h from the order-3
        jet, one chunk of points at a time."""
        return _join(self._cov_ricci(rows) for rows in self._chunks(3))

    def _cov_ricci(self, rows) -> np.ndarray:
        G, dG, ddG = self.gamma[rows], self.dgamma[rows], self.ddgamma(rows)
        dS = (np.einsum("...ahhji->...aji", ddG) - np.einsum("...ajhhi->...aji", ddG)
              + np.einsum("...atji,...hht->...aji", dG, G)
              + np.einsum("...tji,...ahht->...aji", G, dG)
              - np.einsum("...athi,...hjt->...aji", dG, G)
              - np.einsum("...thi,...ahjt->...aji", G, dG))
        return covariant_derivative(dS, self.curvature.ricci[rows], "dd", G)


class PointContext(MetricJet):
    """Lazy cache of every derived quantity of a (g, J_M) pair at one point or at each point
    of a stack: the metric's jet and what the structure adds. Every cached member is computed
    at most once; the object is effectively immutable after the caches fill, so contexts may
    be shared freely."""

    def __init__(self, g_fn, j_fn, p: float, q: float, point, scheme: DiffScheme | None = None):
        super().__init__(g_fn, point, scheme)
        self.j_fn = j_fn
        self.p = float(p)
        self.q = float(q)

    def _first_order(self, g: np.ndarray) -> dict:
        """Adds one stencil of J_M, and w = J_M g at the points and their nodes from both."""
        J = self._stencil(self.j_fn)
        w = np.swapaxes(J, -1, -2) @ g
        # dw differentiates the antisymmetric part of w: identical whenever the
        # bundle is skew-compatible, and still a well-defined 2-form (hence a
        # reportable residual) on bundles that fail that compatibility
        skew_w = 0.5 * (w - np.swapaxes(w, -1, -2))
        skew = self._jet(1, skew_w[0], skew_w[1:])
        return super()._first_order(g) | {
            "J": J[0].copy(), "dJ": self._jet(1, J[0], J[1:]),
            "omega": w[0].copy(), "dw": self._jet(1, w[0], w[1:]),
            "domega": skew + np.einsum("...bca->...abc", skew) + np.einsum("...cab->...abc", skew),
        }

    # --- algebra at the points ---

    J = _from_order1("J")

    @cached_property
    def Jhat(self) -> np.ndarray:
        return self.p * np.eye(self.n) - self.J

    omega = _from_order1("omega", "w_im = (J_M)_i^t g_tm.")

    # --- first derivatives ---

    dJ = _from_order1("dJ", "dJ[..., a, h, i] = d_a (J_M)_i^h.")
    dw = _from_order1("dw", "dw[..., a, i, m] = d_a w_im.")
    domega = _from_order1("domega", "domega[..., a, b, c] = d_a w_bc + d_b w_ca + d_c w_ab.")

    @cached_property
    def covJ(self) -> np.ndarray:
        """covJ[..., a, h, i] = (nabla_a J)_i^h."""
        return covariant_derivative(self.dJ, self.J, "ud", self.gamma)

    @cached_property
    def sym_covJ(self) -> np.ndarray:
        """(nabla_i J)_j^h + (nabla_j J)_i^h, the nearly-vanishing combination."""
        return self.covJ + np.einsum("...ahi->...iha", self.covJ)

    @cached_property
    def F(self) -> np.ndarray:
        """F[..., i, j, k] = g((nabla_i J) d_j, d_k) = g_kt (nabla_i J)_j^t."""
        return np.einsum("...itj,...tk->...ijk", self.covJ, self.g)

    @cached_property
    def cov_omega(self) -> np.ndarray:
        """(nabla_a w)_im computed directly from w at the nodes (independent of F)."""
        return covariant_derivative(self.dw, self.omega, "dd", self.gamma)

    @cached_property
    def N(self) -> np.ndarray:
        return nijenhuis(self.J, self.dJ)

    # --- curvature ---

    @cached_property
    def H(self) -> np.ndarray:
        """H_ji = R_hji^t (J_M)_t^h, the curvature/2-form contraction.

        This is the arrangement that satisfies the contracted commutation
        identity nabla_h nabla_j (J_M)_i^h = S_jt (J_M)_i^t - H_ji; raising
        the 2-form's slots in the opposite order flips the sign.
        """
        return np.einsum("...hjit,...ht->...ji", self.curvature.Rup, self.J)

    @cached_property
    def Sstar(self) -> np.ndarray:
        """Ricci-star: S*_ji = -H_jt (J_M)_i^t, as 0 - H J_M, which unlike -(H J_M) gives a
        zero entry as +0.0."""
        return 0.0 - np.einsum("...jt,...ti->...ji", self.H, self.J)

    @cached_property
    def scalar_star(self) -> float | np.ndarray:
        return np.einsum("...nj,...jn->...", self.ginv, self.Sstar)

    @cached_property
    def norm_covJ_sq(self) -> float | np.ndarray:
        """g^{km} g_{jt} g^{is} (nabla_m J)_i^t (nabla_k J)_s^j (signed for indefinite g), as
        one contraction at a time."""
        raised = np.einsum("...km,...mti->...kti", self.ginv, self.covJ)  # nabla^k J
        lowered = np.einsum("...jt,...kti->...kji", self.g, raised)
        return np.einsum("...kji,...kjs,...is->...", lowered, self.covJ, self.ginv)

    # --- second derivatives ---

    @cached_property
    def covcov_omega(self) -> np.ndarray:
        """covcov[..., a, b, i, m] = (nabla_a nabla_b w)_im, one chunk of points at a time."""
        return _join(self._covcov_omega(rows) for rows in self._chunks(2))

    def _covcov_omega(self, rows) -> np.ndarray:
        """nabla nabla w at the points of `rows`, from the order-2 jet of w: d_a (nabla_b w) is
        d_a d_b w plus d_a of the connection terms of nabla_b w."""
        n, gamma, w, dw = self.n, self.gamma[rows], self.omega[rows], self.dw[rows]
        J_nodes = self._call(self.j_fn, self._nodes(self._table(2).disp, rows))
        w_nodes = np.swapaxes(J_nodes, -1, -2) @ self.g_nodes2[:, rows]
        del J_nodes
        ddw = self._jet(2, w, w_nodes)
        stack = gamma.shape[:-3]
        d_cov = (ddw
                 + _cov_correct(dw, "dd", np.broadcast_to(gamma[..., None, :, :, :],
                                                          stack + (n,) + gamma.shape[-3:]))
                 + _cov_correct(np.broadcast_to(w[..., None, :, :], stack + (n,) + w.shape[-2:]),
                                "dd", self.dgamma[rows]))
        return covariant_derivative(d_cov, self.cov_omega[rows], "ddd", gamma)

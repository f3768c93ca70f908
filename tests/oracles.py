"""Reference computations shared by the tests; the engine never calls these.

The engine's fields map stacks of points, (m, n) -> (m, ...). Most
references here are the per-point forms: they take one point at a time,
and the tests assert that the stacked engine agrees with them row by row.
The nested stencils the engine's jet replaced are kept as references too,
and so are stacked first partials (a row loop over the order-1 jet of the
engine's single-point `MetricJet`), the stacked, field-calling Christoffel
coefficients and a test-only curved Kahler fixture whose Ricci tensor has
a closed form. The JSON report writer the CLI replaced (round every float,
then the standard library's indenting encoder) is the reference for
`cli.report_json`, the dense jet weight tables the engine replaced
(one row per ordered multi-index) are the reference for its tables over
distinct multi-indices, the meshgrid and `np.unique` sampler the reference
for `Chart.sample_points`, and the character-class tokenizer the reference
for `exprdsl`'s on ASCII text.
"""

import json
import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from metallicgeo import exprdsl
from metallicgeo.diffcalc import (WEIGHTS_1D, DiffScheme, JetTable, MetricJet, christoffel,
                                  covariant_derivative)
from metallicgeo.geometry import Chart, TensorField, inverse_metric, max_abs
from metallicgeo.metallic import MetallicParams, StructureBundle
from metallicgeo.octonions import cross7_matrix


def at(fn, point) -> np.ndarray:
    """A stacked field's value at one point, from a one-row stack."""
    return np.asarray(fn(np.asarray(point, dtype=float)[None, :]))[0]


def rowwise(fn):
    """The stacked field whose rows are fn evaluated at one point at a time."""
    return lambda pts: np.stack([np.asarray(fn(p), dtype=float) for p in pts])


def const_field(value):
    """The stacked field that is value at every point."""
    value = np.asarray(value, dtype=float)
    return lambda pts: np.broadcast_to(value, (len(pts),) + value.shape)


def central(fn, point, axis: int, h: float, order: int):
    """One central difference along one axis, the stacked field fn called once per node.

    Nodes come in the order +2h, +h, -h, -2h (order 4) or +h, -h (order
    2), each as a one-row stack. The per-axis form of the engine's
    stencils: `MetricJet.dg`, the engine's order-1 jet, evaluates fields at
    the same nodes as `partial_all_per_axis`, built from this, and agrees
    with it to roundoff (it differences f(node) - f(point) and sums in
    another order).
    """
    point = np.asarray(point, dtype=float)
    e = np.zeros_like(point)
    e[axis] = 1.0
    if order == 2:
        return (at(fn, point + h * e) - at(fn, point - h * e)) / (2.0 * h)
    return (
        -at(fn, point + 2 * h * e)
        + 8.0 * at(fn, point + h * e)
        - 8.0 * at(fn, point - h * e)
        + at(fn, point - 2 * h * e)
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


def stacked_partial_all(fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """out[..., a, ...] = d_a fn at a point (n,) or at every point of a stack (..., n).

    A row loop over the engine's single-point order-1 jet, `MetricJet.dg`.
    """
    point = np.asarray(point, dtype=float)
    rows = [MetricJet(fn, p, scheme).dg for p in point.reshape(-1, point.shape[-1])]
    return np.stack(rows).reshape(point.shape[:-1] + rows[0].shape)


@lru_cache(maxsize=16)
def dense_jet_table(n: int, h: float, order: int) -> tuple:
    """The nodes a jet order adds and its weights: (disp, weights, offsets).

    offsets are the nodes of the orders so far in units of h/2, in order,
    and disp the displacements of those this order adds (order 3 extends
    the nodes of order 2). weights[a, b(, c), k] is the weight of node k in
    d_a d_b (d_c); the weights act on f(node) - f(point), so a constant
    field has a jet of zeros.
    """
    index = {o: k for k, o in enumerate(dense_jet_table(n, h, 2)[2] if order == 3 else ())}
    added = len(index)
    rows = {}
    for idx in combinations_with_replacement(range(n), order):
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
        for perm in set(permutations(idx)):
            rows[perm] = row
    weights = np.zeros((n,) * order + (len(index),))
    for perm, row in rows.items():
        weights[perm][list(row)] = list(row.values())
    disp = np.array(tuple(index)[added:]) * (h / 2.0)
    for arr in (disp, weights):
        arr.flags.writeable = False
    return disp, weights, tuple(index)


def expanded_weights(table: JetTable) -> np.ndarray:
    """A jet table's weights as the dense array weights[a, b(, c), k]: each row's weights
    scattered into its node columns (added, so a padding weight 0 leaves its column as it
    is), and the rows indexed by `expand`."""
    rows = np.zeros((len(table.cols), len(table.offsets)))
    np.add.at(rows, (np.arange(len(table.cols))[:, None], table.cols), table.weights)
    return rows[table.expand]


def christoffel_field(g_fn, point, scheme: DiffScheme | None = None) -> np.ndarray:
    """Levi-Civita coefficients gamma[..., h, i, j] of a metric field at a point or a stack.

    The metric is evaluated at the points in one call, and differenced and
    inverted per point.
    """
    point = np.asarray(point, dtype=float)
    lead, n = point.shape[:-1], point.shape[-1]
    g = np.asarray(g_fn(point.reshape(-1, n)), dtype=float).reshape(lead + (n, n))
    return christoffel(inverse_metric(g, point), stacked_partial_all(g_fn, point, scheme))


def metric_compat_residual(g_fn, point, h: float) -> float:
    """Metric-compatibility residual of the connection built at step h.

    The connection comes from the engine's first-tier stencil at step h,
    while the partial derivatives of g come from the same stencil at the
    default step, whose truncation error is far smaller. Computing both
    sides from one stencil would cancel identically, so this is the
    quantity whose truncation error actually shrinks with h.
    """
    point = np.asarray(point, dtype=float)
    gamma = christoffel_field(g_fn, point, DiffScheme(h))
    dg_ref = MetricJet(g_fn, point).dg
    g = at(g_fn, point)
    corr = np.einsum("tai,tj->aij", gamma, g) + np.einsum("taj,ti->aij", gamma, g)
    return max_abs(dg_ref - corr)


def second_covariant_derivative(fn, sig: str, point, g_fn, scheme=None) -> np.ndarray:
    """Two added covariant slots, outer first: out[a, b, ...] = (nabla_a nabla_b T)_...

    Nested stencils, independent of the engine's jet: the inner derivative
    is evaluated as a field with the first-derivative stencil at every node
    of an outer order-2 stencil at h2 and h2/2, Richardson-combined. fn and
    g_fn are stacked fields, and so is the inner derivative.
    """
    scheme = scheme or DiffScheme()

    def cov_fn(pts):
        return covariant_derivative(stacked_partial_all(fn, pts, scheme), fn(pts), sig,
                                    christoffel_field(g_fn, pts, scheme))

    point = np.asarray(point, dtype=float)
    return covariant_derivative(partial_all_per_axis(cov_fn, point, scheme, stage=2),
                                at(cov_fn, point), "d" + sig,
                                christoffel_field(g_fn, point, scheme))


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


# --- per-point forms of the zoo's closed-form fields -------------------------


def round_metric(pt) -> np.ndarray:
    """4/(1+r^2)^2 delta, the stereographic round metric at one point."""
    r2 = float(np.dot(pt, pt))
    return (4.0 / (1.0 + r2) ** 2) * np.eye(len(pt))


def sphere6_embedding(pt):
    """Inverse stereographic map into the unit sphere in R^7 and its Jacobian, at one point."""
    x = np.asarray(pt, dtype=float)
    r2 = float(np.dot(x, x))
    s = 1.0 + r2
    u = np.empty(7)
    u[:6] = 2.0 * x / s
    u[6] = (1.0 - r2) / s
    D = np.zeros((7, 6))
    D[:6, :] = 2.0 * np.eye(6) / s
    D[:6, :] -= 4.0 * np.outer(x, x) / s**2
    D[6, :] = -4.0 * x / s**2
    return u, D


def sphere6_structure(pt) -> np.ndarray:
    """The cross-product structure D^T (u x .) D / lambda at one point of the S^6 chart."""
    u, D = sphere6_embedding(pt)
    r2 = float(np.dot(pt, pt))
    lam = 4.0 / (1.0 + r2) ** 2
    return (D.T @ cross7_matrix(u) @ D) / lam


def rotation_conjugated_structure(pt, rate: float = 0.3) -> np.ndarray:
    """R(theta) J_std R(theta)^T on R^4 with theta = rate * x0, at one point."""
    J0 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    th = rate * float(pt[0])
    R = np.eye(4)
    c, s = math.cos(th), math.sin(th)
    R[1, 1], R[1, 2], R[2, 1], R[2, 2] = c, -s, s, c
    return R @ J0 @ R.T


# --- a curved, non-Einstein Kahler fixture (test-only) --------------------------

KAHLER_EPS = 0.3  # K = |z|^2 + KAHLER_EPS |z|^4 on C^2


def _real_form(H) -> np.ndarray:
    """The real (4, 4) form of a stack of complex (2, 2) matrices H = A + iB, per complex pair.

    With z_j = x_2j + i x_2j+1, the (j, k) block is [[A_jk, B_jk], [-B_jk, A_jk]]: the
    real part of sum_jk H_jk dz_j dzbar_k.
    """
    A, B = H.real, H.imag
    out = np.empty(H.shape[:-2] + (4, 4))
    out[..., 0::2, 0::2] = A
    out[..., 1::2, 1::2] = A
    out[..., 0::2, 1::2] = B
    out[..., 1::2, 0::2] = -B
    return out


def _radial(pts) -> tuple:
    """r^2 = |z|^2 and the matrices zbar_j z_k at a stack of points of R^4 = C^2."""
    z = pts[:, 0::2] + 1j * pts[:, 1::2]
    return np.einsum("mj,mj->m", pts, pts), np.einsum("mj,mk->mjk", z.conj(), z)


def kahler_quartic_metric(pts) -> np.ndarray:
    """g for the potential K = |z|^2 + eps |z|^4: the real form of
    H_jk = d_j d_kbar K = (1 + 2 eps |z|^2) delta_jk + 2 eps zbar_j z_k."""
    r2, zz = _radial(pts)
    eps = KAHLER_EPS
    return _real_form((1.0 + 2 * eps * r2)[:, None, None] * np.eye(2) + 2 * eps * zz)


def kahler_quartic_ricci(pts) -> np.ndarray:
    """The Ricci tensor of `kahler_quartic_metric`, with no Christoffel symbol in sight.

    The Ricci form of a Kahler potential is -i d dbar log det H, and the
    engine's S is twice the real form of -d_j d_kbar log det H. Here
    det H = (1 + 2 eps r^2)(1 + 4 eps r^2) = exp F(r^2), so
    -d_j d_kbar log det H = -(F' delta_jk + F'' zbar_j z_k).
    """
    r2, zz = _radial(pts)
    eps = KAHLER_EPS
    a, b = 2 * eps / (1.0 + 2 * eps * r2), 4 * eps / (1.0 + 4 * eps * r2)  # F' = a + b
    F1, F2 = a + b, -(a * a + b * b)
    return 2.0 * _real_form(-(F1[:, None, None] * np.eye(2) + F2[:, None, None] * zz))


def kahler_quartic_bundle(q: float = 2.0 / 3.0) -> StructureBundle:
    """The Kahler metric of K = |z|^2 + 0.3 |z|^4 on [-0.6, 0.6]^4 with the standard J.

    Scalar curvature -3.2 to -12 at the sample points, Ricci not proportional
    to g and nabla S != 0; the zoo's curved Kahler fixture, s2, has S = g and
    nabla S = 0.
    """
    chart = Chart(dimension=4, bounds=((-0.6, 0.6),) * 4, grid=1, n_random=8, seed=19,
                  margin=0.1)
    J = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    g = TensorField("kahler-quartic", "dd", kahler_quartic_metric)
    return StructureBundle.from_j(chart, g, TensorField("standard-J", "ud", const_field(J)),
                                  MetallicParams(0.0, q))


# --- per-point tree-walking expression evaluator -------------------------------


def eval_per_point(expr, point) -> float:
    """Evaluate a parsed expression at one point with the math module, node by node.

    Raises EvalDomainError (without a point) where the stacked evaluator
    must raise it too.
    """
    def walk(node):
        if isinstance(node, exprdsl.Lit):
            return node.value
        if isinstance(node, exprdsl.Const):
            return exprdsl.CONSTANTS[node.name]
        if isinstance(node, exprdsl.Coord):
            return float(point[node.index])
        if isinstance(node, exprdsl.Neg):
            return -walk(node.operand)
        if isinstance(node, exprdsl.Bin):
            a, b = walk(node.left), walk(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise exprdsl.EvalDomainError("division by zero", node.render())
                return a / b
            if a < 0.0 and b != math.floor(b):
                raise exprdsl.EvalDomainError("non-integer power of a negative base", node.render())
            if a == 0.0 and b < 0.0:
                raise exprdsl.EvalDomainError("negative power of zero", node.render())
            return math.pow(a, b)
        x = walk(node.arg)
        if node.func == "ln":
            if x <= 0.0:
                raise exprdsl.EvalDomainError("logarithm of a non-positive number", node.render())
            return math.log(x)
        if node.func == "sqrt":
            if x < 0.0:
                raise exprdsl.EvalDomainError("square root of a negative number", node.render())
            return math.sqrt(x)
        try:
            return getattr(math, node.func)(x)
        except (ValueError, OverflowError) as exc:
            raise exprdsl.EvalDomainError(str(exc), node.render()) from exc

    return float(walk(expr.root))


# --- reference JSON report writer ----------------------------------------------------


def _sig6(x):
    """Round floats to 6 significant digits for stable reports."""
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    return x


def reference_report_json(report: dict) -> str:
    """The report text `cli.report_json` must reproduce byte for byte (lists, not arrays)."""
    return json.dumps(_sig6(report), ensure_ascii=True, indent=2) + "\n"


# --- reference sampler -----------------------------------------------------------------


def reference_sample_points(chart: Chart) -> np.ndarray:
    """`Chart.sample_points` as per-axis linspace, meshgrid and `np.unique` over rows."""
    b = chart.bounds_array
    lo = b[:, 0] + chart.margin
    hi = b[:, 1] - chart.margin
    axes = [np.linspace(lo[i], hi[i], chart.grid) for i in range(chart.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = [np.stack([m.ravel() for m in mesh], axis=-1)]
    if chart.named_points:
        pts.append(np.array([chart.named_points[k] for k in sorted(chart.named_points)], dtype=float))
    if chart.n_random:
        rng = np.random.default_rng(chart.seed)
        pts.append(rng.uniform(lo, hi, size=(chart.n_random, chart.dimension)))
    out = np.concatenate(pts, axis=0)
    # drop exact duplicates (a named point may coincide with a grid node)
    _, keep = np.unique(out.round(decimals=12), axis=0, return_index=True)
    return out[np.sort(keep)]


# --- reference tokenizer ----------------------------------------------------------------


def reference_tokenize(src: str):
    """`exprdsl`'s tokenizer as a character-class loop (str.isdigit, isalpha, isalnum)."""
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(exprdsl._Tok("op", c, i + 1))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            if not math.isfinite(float(src[i:j])):
                raise exprdsl.ParseError(i + 1, f"a finite number, not {src[i:j]!r}")
            toks.append(exprdsl._Tok("num", src[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(exprdsl._Tok("name", src[i:j], i + 1))
            i = j
            continue
        raise exprdsl.ParseError(i + 1, f"a valid token, not {c!r}")
    toks.append(exprdsl._Tok("eof", "", n + 1))
    return toks

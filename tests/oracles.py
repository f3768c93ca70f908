"""Reference computations shared by the tests; the engine never calls these.

The engine's fields map stacks of points, (m, n) -> (m, ...). Most
references here are the per-point forms: they take one point at a time,
and the tests assert that the stacked engine agrees with them row by row.
The nested stencils the engine's jet replaced are kept as references too,
and so are stacked first partials (a row loop over the order-1 jet of the
engine's single-point `MetricJet`), the stacked, field-calling Christoffel
coefficients, a test-only curved Kahler fixture whose Ricci tensor has
a closed form and a flat bundle that is not metallic-Hermitian because its
metric is not J-invariant. `observed` wraps a bundle's fields to record where the
engine evaluates them. The JSON report writer the CLI replaced (round
every float, then the standard library's indenting encoder) is the
reference for `cli.report_json`, the dense jet weight tables the engine
replaced (one row per ordered multi-index) are the reference for its
tables over distinct multi-indices, the meshgrid and `np.unique` sampler the reference
for `Chart.sample_points`, the per-axis grid loop and `np.lexsort` dedupe the chart
once ran the reference for its fixed rows, the character-class tokenizer the reference
for `exprdsl`'s on ASCII text, and the tree walk `exprdsl` evaluated and
rendered each expression with the reference for its straight-line programs.
`flat_skew_text` reads the flat-skew spec of `tools/report_identity.py`, a
constant pair whose g^-1 has entries of both signs. The octonion algebra,
built by Cayley-Dickson doubling of the quaternions, is the reference for
the Fano-plane table of `zoo`'s cross product.
"""

import dataclasses
import importlib.util
import json
import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import numpy as np

from metallicgeo import exprdsl
from metallicgeo.diffcalc import (WEIGHTS_1D, DiffScheme, JetTable, MetricJet, christoffel,
                                  covariant_derivative)
from metallicgeo.geometry import Chart, TensorField, inverse_metric
from metallicgeo.metallic import MetallicParams, StructureBundle, jm_from_j


def flat_skew_text() -> str:
    """The flat-skew spec of `tools/report_identity.py`: a constant metric whose g^-1 has
    entries of both signs, with a constant J_M."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
    loader = importlib.util.spec_from_file_location("report_identity", tool)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.FLAT_SKEW


def max_abs(arr) -> float:
    """The largest |entry| of an array, 0.0 for an empty one."""
    arr = np.asarray(arr, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


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


def jm_from_j_matrix(J, params: MetallicParams, sign: int = +1) -> np.ndarray:
    """The reference formula J_M = sign * (sqrt(6q)/2) J for an almost complex J (or a stack
    of them)."""
    return sign * (math.sqrt(6.0 * params.q) / 2.0) * np.asarray(J, dtype=float)


def jm_field_at(J, params: MetallicParams, sign: int = +1) -> np.ndarray:
    """J_M as the engine forms it, the field `jm_from_j` of the constant field J, evaluated
    at a point."""
    J = np.asarray(J, dtype=float)
    field = TensorField("J", const_field(J), constant=True)
    return jm_from_j(field, params, sign)(np.zeros(len(J)))


def observed(bundle: StructureBundle, record) -> StructureBundle:
    """The bundle with g and J_M that call record(key, pts), key "g" or "jm", with every stack
    of points they are evaluated at. Each keeps its `constant` mark, so the engine takes the
    path on the observed bundle that it takes on the bundle itself."""
    def wrap(fld, key):
        def fn(pts):
            record(key, pts)
            return fld.fn(pts)

        return TensorField(fld.name, fn, constant=fld.constant)

    return dataclasses.replace(bundle, g=wrap(bundle.g, "g"), structure=wrap(bundle.jm, "jm"),
                               sign=None)


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


def _quaternion_table() -> np.ndarray:
    # t[a, b, c]: e_a e_b = sum_c t[a, b, c] e_c for quaternion units 1, i, j, k
    t = np.zeros((4, 4, 4))
    for a in range(4):
        t[0, a, a] = 1.0
        if a:
            t[a, 0, a], t[a, a, 0] = 1.0, -1.0
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        t[a, b, c], t[b, a, c] = 1.0, -1.0
    return t


def _octonion_table() -> np.ndarray:
    """Structure constants T[a, b, c] with e_a e_b = sum_c T[a, b, c] e_c, by Cayley-Dickson
    doubling of the quaternions: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))."""
    qt = _quaternion_table()
    conj = np.diag([1.0, -1.0, -1.0, -1.0])
    T = np.zeros((8, 8, 8))
    basis = np.eye(4)
    for ia in range(8):
        a, b = (basis[ia], np.zeros(4)) if ia < 4 else (np.zeros(4), basis[ia - 4])
        for ic in range(8):
            c, d = (basis[ic], np.zeros(4)) if ic < 4 else (np.zeros(4), basis[ic - 4])
            first = np.einsum("abc,a,b->c", qt, a, c) - np.einsum("abc,a,b->c", qt, conj @ d, b)
            second = np.einsum("abc,a,b->c", qt, d, a) + np.einsum("abc,a,b->c", qt, b, conj @ c)
            T[ia, ic, :4] = first
            T[ia, ic, 4:] = second
    return T


OCTONION_TABLE = _octonion_table()
# the cross product of imaginary octonions u, v in R^7 is the imaginary part of their
# product: its structure constants on the imaginary units e_1..e_7
CROSS7 = OCTONION_TABLE[1:, 1:, 1:].copy()


def cross7_matrix(u) -> np.ndarray:
    """M with M @ v = u x v, from the octonion table; u is (7,) or a stack (..., 7)."""
    return np.einsum("abc,...a->...cb", CROSS7, np.asarray(u, float))


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
    chart = Chart(dimension=4, bounds=((-0.6, 0.6),) * 4, grid=1, n_random=8, margin=0.1)
    J = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    g = TensorField("kahler-quartic", kahler_quartic_metric)
    return StructureBundle(chart, g, TensorField("standard-J", const_field(J)), MetallicParams(q),
                           seed=19, sign=+1)


def anisotropic_flat_bundle(a: float) -> StructureBundle:
    """flat-k1 with g[0][0] = a: still flat and J_M^2 = -(3q/2) I, but the metric is not
    J-invariant, so for a != 1 the pair is not metallic-Hermitian: |w + w^T| = |a - 1|."""
    from metallicgeo import specfile, zoo

    text = zoo.fixture_flat(1).spec_text.replace("g[0][0] = 1\n", f"g[0][0] = {a!r}\n")
    return specfile.build_bundle(specfile.parse_spec(text))


def _s2_cubed_spec() -> str:
    lines = ["# Product of three unit 2-spheres, each in a stereographic chart, with the",
             "# standard block structure: metallic Kahler, scalar curvature 2 + 2 + 2 = 6.",
             "name = s2xs2xs2", "dimension = 6", "p = 0.0", "q = 0.6666666666666666",
             "bounds = " + ", ".join(["-0.9 0.9"] * 6), "grid = 1", "random_points = 9",
             "seed = 17", "margin = 0.09", "structure = J", "sign = +"]
    for b in range(0, 6, 2):
        lines += [f"g[{i}][{i}] = 4/(1 + x{b}^2 + x{b + 1}^2)^2" for i in (b, b + 1)]
        lines += [f"j[{b}][{b + 1}] = -1", f"j[{b + 1}][{b}] = 1"]
    return "\n".join(lines) + "\n"


# A curved Kahler spec in dimension 6, written like perfbench/specs/s2xs2.spec: its g is not
# constant, so a verify builds every jet order of g at 10 points of dimension 6, order 3
# included, which the flat dimension-6 fixture (constant g and J_M) never builds.
S2_CUBED_SPEC = _s2_cubed_spec()


# --- tree-walking expression evaluators --------------------------------------------


def reference_render(node) -> str:
    """The fully parenthesized text of a parsed tree, by recursion."""
    if isinstance(node, exprdsl.Lit):
        return repr(float(node.value))
    if isinstance(node, exprdsl.Const):
        return node.name
    if isinstance(node, exprdsl.Coord):
        return f"x{node.index}"
    if isinstance(node, exprdsl.Neg):
        return f"(-{reference_render(node.operand)})"
    if isinstance(node, exprdsl.Bin):
        return f"({reference_render(node.left)} {node.op} {reference_render(node.right)})"
    return f"{node.func}({reference_render(node.arg)})"


def reference_eval(node, points: np.ndarray):
    """The values of a parsed tree at a stack of points (m, n), one numpy ufunc per node
    and by recursion, as `exprdsl` evaluated each tree before its programs: an array (m,), or
    a scalar if the tree is constant. A value that is not finite at some point raises the
    EvalDomainError of the first such point, with the reason the node gives there."""
    def finite(value, *operands):
        ok = np.isfinite(value)
        if not ok.all():
            row = int(np.argmin(np.broadcast_to(ok, (len(points),))))
            at_row = [float(v if np.ndim(v) == 0 else v[row]) for v in operands]
            raise exprdsl.EvalDomainError(node.domain_reason(*at_row), reference_render(node),
                                          points[row])
        return value

    if isinstance(node, exprdsl.Lit):
        return node.value
    if isinstance(node, exprdsl.Const):
        return exprdsl.CONSTANTS[node.name]
    if isinstance(node, exprdsl.Coord):
        return points[:, node.index]
    if isinstance(node, exprdsl.Neg):
        return np.negative(reference_eval(node.operand, points))
    with np.errstate(all="ignore"):
        if isinstance(node, exprdsl.Bin):
            a, b = reference_eval(node.left, points), reference_eval(node.right, points)
            return finite(exprdsl._BINARY[node.op](a, b), a, b)
        x = reference_eval(node.arg, points)
        return finite(exprdsl._UNARY[node.func](x), x)


def count_op_steps(monkeypatch, counts: dict, key: str = "ops") -> None:
    """Count in counts[key] every step a program applies that is not a leaf: a unary minus,
    an operator or a call. A program binds its steps when it is built, so this counts the
    programs built after it is called."""
    for cls in (exprdsl.Neg, exprdsl.Bin, exprdsl.Call):
        def counted(self, *args, _apply=cls.apply):
            counts[key] += 1
            return _apply(self, *args)

        monkeypatch.setattr(cls, "apply", counted)


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
                    raise exprdsl.EvalDomainError("division by zero", reference_render(node))
                return a / b
            if a < 0.0 and b != math.floor(b):
                raise exprdsl.EvalDomainError("non-integer power of a negative base",
                                              reference_render(node))
            if a == 0.0 and b < 0.0:
                raise exprdsl.EvalDomainError("negative power of zero", reference_render(node))
            return math.pow(a, b)
        x = walk(node.arg)
        if node.func == "ln":
            if x <= 0.0:
                raise exprdsl.EvalDomainError("logarithm of a non-positive number",
                                              reference_render(node))
            return math.log(x)
        if node.func == "sqrt":
            if x < 0.0:
                raise exprdsl.EvalDomainError("square root of a negative number",
                                              reference_render(node))
            return math.sqrt(x)
        try:
            return getattr(math, node.func)(x)
        except (ValueError, OverflowError) as exc:
            raise exprdsl.EvalDomainError(str(exc), reference_render(node)) from exc

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


def reference_sample_points(chart: Chart, seed: int) -> np.ndarray:
    """`Chart.sample_points(seed)` as per-axis linspace, meshgrid and `np.unique` over rows."""
    b = chart.bounds_array
    lo = b[:, 0] + chart.margin
    hi = b[:, 1] - chart.margin
    axes = [np.linspace(lo[i], hi[i], chart.grid) for i in range(chart.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = [np.stack([m.ravel() for m in mesh], axis=-1)]
    if chart.named_points:
        pts.append(np.array([chart.named_points[k] for k in sorted(chart.named_points)], dtype=float))
    if chart.n_random:
        rng = np.random.default_rng(seed)
        pts.append(rng.uniform(lo, hi, size=(chart.n_random, chart.dimension)))
    out = np.concatenate(pts, axis=0)
    # drop exact duplicates (a named point may coincide with a grid node)
    _, keep = np.unique(out.round(decimals=12), axis=0, return_index=True)
    return out[np.sort(keep)]


def reference_fixed_points(chart: Chart) -> np.ndarray:
    """`Chart._fixed_points` as the chart once formed them: the grid filled one axis at a
    time, then the first of each group of rows equal to 12 decimals, found by a stable
    `np.lexsort` of the rounded rows and a compare of each sorted row with the one before
    (by value, so -0.0 equals 0.0)."""
    b = chart.bounds_array
    lo, hi = b[:, 0] + chart.margin, b[:, 1] - chart.margin
    n, k = chart.dimension, chart.grid
    axes = np.linspace(lo, hi, k, axis=1)  # row i: the k nodes of axis i
    grid = np.empty((k,) * n + (n,))
    for i in range(n):
        grid[..., i] = axes[i].reshape((k,) + (1,) * (n - 1 - i))
    rows = grid.reshape(k**n, n)
    if chart.named_points:
        named = np.array([chart.named_points[name] for name in sorted(chart.named_points)],
                         dtype=float)
        rows = np.concatenate([rows, named], axis=0)
    rounded = rows.round(decimals=12)
    order = np.lexsort(rounded.T)  # stable: equal rows stay in their order
    ordered = rounded[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return rows[np.sort(order[first])]


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

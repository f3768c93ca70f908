import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.diffcalc import (
    DiffScheme,
    MetricJet,
    covariant_derivative,
    nijenhuis,
    partial,
    riemann,
)
from metallicgeo.geometry import Chart, ChartBoundsError, SingularMetricError, TensorField, max_abs
from metallicgeo.metallic import MetallicParams, StructureBundle
from oracles import (
    at,
    christoffel_field,
    commutator_residual,
    const_field,
    metric_compat_residual,
    partial_all_per_axis,
    rowwise,
    second_covariant_derivative,
)


def conformal_phi_grad(pt):
    """Analytic gradient of phi = ln(2/(1+r^2)), the round-metric potential."""
    r2 = float(np.dot(pt, pt))
    return -2.0 * np.asarray(pt) / (1.0 + r2)


def conformal_christoffel_oracle(pt):
    """Closed form for g = e^{2 phi} delta: G^k_ij = d_ik dphi_j + d_jk dphi_i - d_ij dphi_k."""
    n = len(pt)
    dphi = conformal_phi_grad(pt)
    eye = np.eye(n)
    return (np.einsum("ik,j->kij", eye, dphi)
            + np.einsum("jk,i->kij", eye, dphi)
            - np.einsum("ij,k->kij", eye, dphi))


def constant_curvature_oracle(g):
    """Unit-sphere Riemann tensor, lowered, in this package's index order:
    R_kjil = g_ji g_kl - g_ki g_jl."""
    return np.einsum("ji,kl->kjil", g, g) - np.einsum("ki,jl->kjil", g, g)


def round_metric(pts):
    r2 = np.einsum("mi,mi->m", pts, pts)
    return (4.0 / (1.0 + r2) ** 2)[:, None, None] * np.eye(pts.shape[1])


def _stencil_fields(n):
    """Scalar, matrix and rank-3 fields.

    Each is evaluated one row at a time, so a row's value does not depend
    on the stack it comes in, and only the stencil arithmetic is compared.
    """
    w = np.linspace(0.3, 1.1, n)
    return tuple(rowwise(f) for f in (
        lambda p: np.sin(p @ w) + 0.5 * p.sum() * np.exp(p[0]),
        lambda p: np.outer(np.cos(p * w), 1.0 + p ** 2),
        lambda p: np.einsum("i,j,k->ijk", np.tanh(p + 0.1), np.exp(-p * w), p + 1.0),
    ))


def _sorted_rows(rows) -> np.ndarray:
    rows = np.asarray(rows)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_all_bit_identical_to_per_axis_stencils(n):
    """One field call, at the point and at nodes bit-identical (under ==) to the per-axis
    stencil's 4n; the derivatives differ from the per-axis arithmetic by roundoff only,
    within 4 eps max(1, |f|) / h1."""
    rng = np.random.default_rng(n)
    mixed = rng.uniform(-1.0, 1.0, n)
    mixed[0] = -0.0
    points = [rng.uniform(-1.0, 1.0, n), -rng.uniform(0.1, 1.0, n), np.full(n, -0.0), mixed]
    for scheme in (DiffScheme(), DiffScheme(3e-3)):
        for field in _stencil_fields(n):
            for pt in points:
                calls = {"ref": [], "got": []}

                def logged(key):
                    def fn(pts):
                        calls[key].append(np.array(pts))
                        return field(pts)
                    return fn

                ref = partial_all_per_axis(logged("ref"), pt, scheme, stage=1)
                got = MetricJet(logged("got"), pt, scheme).dg
                assert len(calls["got"]) == 1
                rows = calls["got"][0]
                assert len(rows) == 1 + 4 * n and np.array_equal(rows[0], pt)
                assert np.array_equal(_sorted_rows(rows[1:]),
                                      _sorted_rows(np.concatenate(calls["ref"])))
                bound = 4.0 * np.finfo(float).eps * max(1.0, max_abs(field(rows))) / scheme.h1
                assert got.shape == ref.shape and max_abs(got - ref) <= bound


def test_partial_polynomial():
    f = lambda pts: pts[:, 0] ** 2
    assert abs(partial(f, np.array([3.0]), 0) - 6.0) < 1e-8


def test_partial_constant_is_zero():
    f = const_field(5.0)
    assert abs(partial(f, np.array([0.3, 0.4]), 1)) < 1e-12


def test_partial_sin_at_zero():
    f = lambda pts: np.sin(pts[:, 0])
    assert abs(partial(f, np.array([0.0]), 0) - 1.0) < 1e-9


def test_partial_boundary_guard():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.1)
    eye = TensorField("delta", "dd", const_field(np.eye(2)))
    bundle = StructureBundle(chart, eye, eye, MetallicParams(0.0, 2.0 / 3.0))
    with pytest.raises(ChartBoundsError, match="too close to the boundary"):
        bundle.context(np.array([0.9995, 0.0]))


def test_christoffel_flat_zero():
    gamma = christoffel_field(const_field(np.eye(2)), np.array([0.2, -0.3]))
    assert max_abs(gamma) < 1e-12


def test_christoffel_round_metric_origin_zero():
    gamma = christoffel_field(round_metric, np.array([0.0, 0.0]))
    assert max_abs(gamma) < 1e-10


def test_christoffel_round_metric_against_conformal_oracle():
    # spot value: at (1, 0) the coefficient G^0_00 = dphi_0 = -2*1/(1+1) = -1
    pt = np.array([1.0, 0.0])
    gamma = christoffel_field(round_metric, pt)
    assert gamma[0, 0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert max_abs(gamma - conformal_christoffel_oracle(pt)) < 1e-9
    # torsion-free: symmetric in the lower indices
    assert max_abs(gamma - np.swapaxes(gamma, 1, 2)) < 1e-12
    # and at a 6-dimensional point too
    pt6 = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.2])
    assert max_abs(christoffel_field(round_metric, pt6) - conformal_christoffel_oracle(pt6)) < 1e-9


def test_covariant_derivative_of_metric_vanishes():
    for name in ("s2", "s6"):
        bundle = zoo.get(name).bundle
        pt = bundle.sample_points[0]
        ctx = bundle.context(pt)
        res = covariant_derivative(MetricJet(bundle.g, pt, bundle.scheme).dg, ctx.g, "dd",
                                   ctx.gamma)
        assert max_abs(res) < 1e-6


def test_covariant_derivative_constant_tensor_flat():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    pt = np.array([0.1, 0.2])
    gamma = christoffel_field(const_field(np.eye(2)), pt)
    res = covariant_derivative(MetricJet(const_field(J), pt).dg, J, "ud", gamma)
    assert max_abs(res) < 1e-12


def test_cov_jm_on_s6_totally_skew_and_nonzero():
    bundle = zoo.get("s6").bundle
    ctx = bundle.context(np.zeros(6))
    assert max_abs(ctx.sym_covJ) < 1e-5
    assert max_abs(ctx.covJ) > 0.1


def test_second_covariant_derivative_of_constant_scalar():
    res = second_covariant_derivative(const_field(1.0), "", np.array([0.2, 0.1]),
                                      const_field(np.eye(2)))
    assert max_abs(res) < 1e-10


def test_commutation_identity_on_s2():
    """(nabla_k nabla_j - nabla_j nabla_k) J = R-terms, both sides independent."""
    assert commutator_residual(zoo.get("s2").bundle, np.array([0.2, -0.3])) < 1e-4


def test_divergence_of_omega_flat_metallic():
    bundle = zoo.get("flat-k1").bundle
    ctx = bundle.context(np.array([0.1, -0.2]))
    lhs = np.einsum("tjim,mt->ji", ctx.covcov_omega, ctx.ginv)
    assert max_abs(lhs) < 1e-10


def test_riemann_flat_zero():
    pack = riemann(MetricJet(const_field(np.eye(4)), np.array([0.1, 0.2, -0.3, 0.0])))
    assert max_abs(pack.Rdown) < 1e-10
    assert abs(pack.scalar) < 1e-10


def test_riemann_s2_matches_constant_curvature_oracle():
    for pt in (np.array([0.0, 0.0]), np.array([0.4, -0.5])):
        pack = riemann(MetricJet(round_metric, pt))
        g = at(round_metric, pt)
        assert max_abs(pack.Rdown - constant_curvature_oracle(g)) < 1e-6
        assert pack.scalar == pytest.approx(2.0, abs=1e-6)
        assert max_abs(pack.ricci - g) < 1e-8


def test_riemann_s6_scalar_30():
    pt = np.array([0.2, -0.1, 0.3, 0.0, -0.2, 0.1])
    pack = riemann(MetricJet(round_metric, pt))
    assert pack.scalar == pytest.approx(30.0, abs=1e-4)
    g = at(round_metric, pt)
    assert max_abs(pack.Rdown - constant_curvature_oracle(g)) / max_abs(pack.Rdown) < 1e-4


def test_curvature_pack_invariants_across_zoo():
    for name in ("s2", "s6", "torus", "negative"):
        bundle = zoo.get(name).bundle
        for pt in bundle.sample_points[:3]:
            res = bundle.context(pt).curvature.symmetry_residuals()
            for key, val in res.items():
                assert val < 1e-4, (name, key, val)


def test_exterior_derivative_constant_form_flat():
    """flat-k1 has constant g and J_M, so w is the same at every node and dw is exactly 0."""
    bundle = zoo.get("flat-k1").bundle
    ctx = bundle.context(np.array([0.3, 0.4]))
    assert max_abs(ctx.omega) > 0.1
    assert np.array_equal(ctx.domega, np.zeros((2, 2, 2)))


def test_exterior_derivative_closed_on_kahler_s2():
    bundle = zoo.get("s2").bundle
    ctx = bundle.context(np.array([0.3, 0.1]))
    assert max_abs(ctx.domega) < 1e-6


def test_exterior_derivative_totally_antisymmetric():
    bundle = zoo.get("negative").bundle
    dw = bundle.context(bundle.sample_points[0]).domega
    assert max_abs(dw + np.einsum("abc->bac", dw)) < 1e-10
    assert max_abs(dw + np.einsum("abc->acb", dw)) < 1e-10


def test_exterior_cross_check_orientation_on_s6():
    bundle = zoo.get("s6").bundle
    ctx = bundle.context(np.zeros(6))
    cart = (np.einsum("acb->abc", ctx.F) + np.einsum("bac->abc", ctx.F)
            + np.einsum("cba->abc", ctx.F))
    assert max_abs(ctx.domega + cart) / max(1.0, max_abs(cart)) < 1e-5
    assert max_abs(ctx.domega) > 0.1


def test_nijenhuis_constant_structure_zero():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert max_abs(nijenhuis(J, MetricJet(const_field(J), np.array([0.4, 0.2])).dg)) < 1e-12


def test_nijenhuis_s2_integrable():
    bundle = zoo.get("s2").bundle
    assert max_abs(bundle.context(np.array([0.2, 0.5])).N) < 1e-6


def test_nijenhuis_s6_nonintegrable():
    bundle = zoo.get("s6").bundle
    assert max_abs(bundle.context(np.zeros(6)).N) > 0.1


def test_convergence_halving_step_on_s2_and_s6():
    for name, pt in (("s2", np.array([0.3, -0.2])),
                     ("s6", np.array([0.1, -0.2, 0.05, 0.15, -0.1, 0.2]))):
        bundle = zoo.get(name).bundle
        r_h = metric_compat_residual(bundle.g, pt, h=0.02)
        r_h2 = metric_compat_residual(bundle.g, pt, h=0.01)
        assert r_h / r_h2 >= 3.0, (name, r_h, r_h2)


def test_scheme_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DiffScheme(h1=-1.0)
    with pytest.raises(ValueError):
        DiffScheme(h1=0.0)


def test_scheme_step_must_fit_chart_margin():
    chart = Chart(dimension=2, bounds=((-1, 1), (-1, 1)), grid=3, margin=0.004)
    with pytest.raises(ValueError):
        DiffScheme().check_chart(chart)  # h2 ~ 3.2e-3 exceeds margin/2
    DiffScheme(1e-4).check_chart(chart)


def test_christoffel_of_a_stack_matches_each_point():
    pts = np.array([[0.3, -0.2], [1.0, 0.0], [-0.4, 0.5]])
    stacked = christoffel_field(round_metric, pts)
    assert stacked.shape == (3, 2, 2, 2)
    for pt, gamma in zip(pts, stacked):
        assert max_abs(gamma - christoffel_field(round_metric, pt)) < 1e-12
        assert max_abs(gamma - conformal_christoffel_oracle(pt)) < 1e-9


def test_christoffel_stack_names_the_singular_point():
    g = lambda pts: (pts[:, 0] ** 2)[:, None, None] * np.eye(2)  # singular where x0 = 0
    with pytest.raises(SingularMetricError) as err:
        christoffel_field(g, np.array([[0.5, 0.1], [0.0, 0.2], [-0.5, 0.3]]))
    assert err.value.point.tolist() == [0.0, 0.2]

import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.connections import (
    GateError,
    connection_identity_results,
    connection_report,
    connection_terms,
    first_type,
    second_type,
)
from metallicgeo.geometry import Chart, TensorField, max_abs
from metallicgeo.identities import run_suite
from metallicgeo.metallic import MetallicParams, StructureBundle, VERDICT_ALMOST_KAHLER


def by_id(results):
    return {r.id: r for r in results}


def symplectic_shear_bundle():
    """Almost metallic Kähler but not metallic Kähler, on flat-chart R^4.

    g = P^T P and J = P^-1 J0 P with P = I + 0.5 sin(x2) e1 e0^T + 0.3 x0 e3 e2^T.
    Each shear stays inside one block of J0, so w = P^T J0^T P is the
    constant standard form (closed), while the Nijenhuis tensor is not zero.
    """
    J0 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def shear(pts):
        P = np.tile(np.eye(4), (len(pts), 1, 1))
        P[:, 1, 0] = 0.5 * np.sin(pts[:, 2])
        P[:, 3, 2] = 0.3 * pts[:, 0]
        return P

    g = TensorField(name="shear-metric", sig="dd",
                    fn=lambda pts: np.swapaxes(shear(pts), 1, 2) @ shear(pts))
    j_field = TensorField(name="J-shear", sig="ud",
                          fn=lambda pts: np.linalg.solve(shear(pts), J0 @ shear(pts)))
    chart = Chart(dimension=4, bounds=((-1.0, 1.0),) * 4, grid=2, margin=0.1)
    return StructureBundle.from_j(chart, g, j_field, MetallicParams(0.0, 2.0 / 3.0),
                                  name="symplectic-shear")


def test_first_type_equals_levi_civita_on_flat():
    bundle = zoo.get("flat-k1").bundle
    S = first_type(bundle, np.array([0.3, -0.2]))
    assert max_abs(S) < 1e-12
    assert max_abs(S - np.swapaxes(S, 1, 2)) < 1e-12  # torsion


def test_first_type_deformation_formula_s6():
    bundle = zoo.get("s6").bundle
    pt = np.zeros(6)
    S = first_type(bundle, pt)
    ctx = bundle.context(pt)
    q = bundle.params.q
    expected = (1.0 / (3.0 * q)) * np.einsum("ht,itj->hij", ctx.Jhat, ctx.covJ)
    assert max_abs(S - expected) < 1e-10
    # torsion carried by the antisymmetrized deformation
    torsion = S - np.swapaxes(S, 1, 2)
    assert max_abs(torsion) > 0.01
    assert max_abs(connection_terms(bundle, "first", pt)["torsion"]) == max_abs(torsion)


def test_first_type_gate():
    fx = zoo.fixture_flat(1, q=1.0, p=1.0)  # fails skew compatibility
    with pytest.raises(GateError):
        first_type(fx.bundle, np.zeros(2))


def test_second_type_levi_civita_branch_on_s2():
    bundle = zoo.get("s2").bundle
    assert max_abs(second_type(bundle, np.array([0.2, 0.1]))) == 0.0


def test_second_type_nearly_branch_is_minus_three_first():
    bundle = zoo.get("s6").bundle
    pt = np.zeros(6)
    s1 = first_type(bundle, pt)
    s2 = second_type(bundle, pt)
    assert max_abs(s2 + 3.0 * s1) < 1e-10
    assert max_abs(s2) > 0.01


def test_second_type_gate_fails_on_hermitian_only():
    with pytest.raises(GateError):
        second_type(zoo.get("negative").bundle, np.zeros(4))


def test_connection_identity_results_s2():
    res = by_id(connection_identity_results(zoo.get("s2").bundle))
    assert res["first-type-preserves-omega"].relative < 1e-5
    assert res["first-type-metric-theorem"].relative < 1e-5
    assert res["second-type-equals-levi-civita"].passed
    assert res["second-type-preserves-omega"].passed


def test_connection_identity_results_s6():
    res = by_id(connection_identity_results(zoo.get("s6").bundle))
    assert res["first-type-preserves-omega"].relative < 1e-5
    assert res["first-type-pairing-skew"].relative < 1e-8
    assert res["first-type-metric-theorem"].relative < 1e-5  # p = 0: metric compatible
    assert res["second-type-deformation-ratio"].max_residual < 1e-10
    # the nearly-case closed form does not annihilate w; reported, not asserted
    w_res = res["second-type-omega-residual"]
    assert not w_res.asserted
    assert w_res.relative > 0.1
    four = res["second-type-omega-is-4covomega"]
    assert four.passed and four.relative < 1e-8


def test_connection_report_flat_all_zero():
    rep = connection_report(zoo.get("flat-k1").bundle)
    for kind in ("first", "second"):
        rows = rep["connections"][kind]
        assert rows["deformation_norm"] < 1e-12
        assert rows["nabla_omega_residual"] < 1e-12
        assert rows["nabla_g_residual"] < 1e-12


def test_connection_report_s6_ratio_and_residuals():
    rep = connection_report(zoo.get("s6").bundle)
    first = rep["connections"]["first"]
    second = rep["connections"]["second"]
    assert first["nabla_omega_residual"] < 1e-5
    assert first["metric_theorem_residual"] < 1e-5
    assert first["deformation_norm"] > 0.01
    assert second["omega_vs_4covomega"] < 1e-8
    assert rep["deformation_ratio_residual"] < 1e-10
    assert first["expansion_consistency"] < 1e-8
    assert second["expansion_consistency"] < 1e-8


def test_connection_report_negative_second_skipped():
    rep = connection_report(zoo.get("negative").bundle)
    assert "skipped" in rep["connections"]["second"]
    assert rep["connections"]["first"]["nabla_omega_residual"] < 1e-5


def test_second_type_skipped_on_almost_kahler_not_kahler():
    bundle = symplectic_shear_bundle()
    cls = bundle.classification()
    assert cls.verdict == VERDICT_ALMOST_KAHLER
    assert cls.residuals["max_nijenhuis"] > 0.1
    with pytest.raises(GateError, match="Levi-Civita preserves w only when nabla J_M = 0"):
        second_type(bundle, bundle.sample_points[0])
    results = by_id(run_suite(bundle, "connections"))
    assert results["second-type-connection"].skipped
    assert "Levi-Civita" in results["second-type-connection"].note
    assert results["first-type-preserves-omega"].passed
    assert not [r.id for r in results.values() if r.asserted and not r.skipped and not r.passed]
    assert "skipped" in connection_report(bundle)["connections"]["second"]

import numpy as np
import pytest

from metallicgeo import identities, zoo
from metallicgeo.geometry import Chart, TensorField, max_abs
from metallicgeo.identities import (
    check_covderiv_identities,
    check_curvature_commutation,
    check_divergence_ricci_chain,
    check_exterior_cross,
    check_f_nijenhuis_balance,
    check_f_properties,
    check_nearly_nijenhuis,
    check_ricci_derivative_cycle,
    check_ricci_hyperbolic,
    check_ricci_pair_identities,
    check_ricci_star_hyperbolic,
    check_scalar_star,
    check_star_pack,
    run_suite,
)
from metallicgeo.metallic import MetallicParams, StructureBundle
from oracles import const_field


def by_id(results):
    return {r.id: r for r in results}


def algebraic_p1_bundle():
    """Flat, position-dependent structure with p = 1 and a shear conjugation:
    the polynomial identity holds pointwise while skew compatibility fails,
    and the shear makes the failure visible at derivative level too."""
    params = MetallicParams(1.0, 1.0)
    chart = Chart(dimension=4, bounds=((-1.0, 1.0),) * 4, grid=2, margin=0.1)
    g = TensorField(name="delta", sig="dd", fn=const_field(np.eye(4)))
    J0 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def sheared(pts):
        A = np.tile(np.eye(4), (len(pts), 1, 1))
        A[:, 1, 2] = 0.3 * pts[:, 0]
        return A @ J0 @ np.linalg.inv(A)

    j_field = TensorField(name="J-sheared", sig="ud", fn=sheared)
    return StructureBundle.from_j(chart, g, j_field, params, name="algebraic-p1")


# --- first-derivative checks ---------------------------------------------------


def test_covderiv_identities_trivial_on_flat():
    res = by_id(check_covderiv_identities(zoo.get("flat-k1").bundle))
    assert res["covderiv-conjugate-exchange"].max_residual < 1e-12
    assert res["covderiv-skew-adjoint"].max_residual < 1e-12


def test_covderiv_identities_on_s6():
    res = by_id(check_covderiv_identities(zoo.get("s6").bundle))
    assert res["covderiv-conjugate-exchange"].passed
    assert res["covderiv-skew-adjoint"].passed
    assert res["covderiv-conjugate-exchange"].relative < 1e-5


def test_covderiv_exchange_passes_but_skew_fails_for_p1():
    bundle = algebraic_p1_bundle()
    res = by_id(check_covderiv_identities(bundle))
    assert res["covderiv-conjugate-exchange"].passed  # algebraic, holds anyway
    skew = res["covderiv-skew-adjoint"]
    assert not skew.passed
    assert skew.max_residual > 0.05  # p-scale failure, not noise


def test_f_properties_modes_and_gates():
    flat = zoo.get("flat-k1").bundle
    for mode in ("hermitian", "nearly"):
        for r in check_f_properties(flat, mode):
            assert r.passed and r.max_residual < 1e-12
    s2 = by_id(check_f_properties(zoo.get("s2").bundle, "hermitian"))
    assert all(r.passed for r in s2.values())
    s6 = by_id(check_f_properties(zoo.get("s6").bundle, "nearly"))
    assert all(r.passed and r.relative < 1e-5 for r in s6.values())
    # gate: nearly mode on a non-nearly bundle is skipped, never failed
    neg = check_f_properties(zoo.get("negative").bundle, "nearly")
    assert all(r.skipped for r in neg)


def test_f_properties_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_f_properties(zoo.get("flat-k1").bundle, "other")


def test_balance_identity_trivial_flat():
    r = check_f_nijenhuis_balance(zoo.get("flat-k1").bundle)
    assert r.passed and r.max_residual < 1e-12


def test_balance_identity_nontrivial_cancellation_s6():
    r = check_f_nijenhuis_balance(zoo.get("s6").bundle)
    assert r.passed and r.relative < 1e-5
    assert r.scale > 0.1  # individually large terms


def test_balance_identity_on_negative_fixture():
    # nonzero N and nonzero d-omega together, still balances
    r = check_f_nijenhuis_balance(zoo.get("negative").bundle)
    assert r.passed and r.scale > 0.1


def test_exterior_cross_check_matches_minus_orientation():
    r = check_exterior_cross(zoo.get("s6").bundle)
    assert r.passed
    assert "-" in r.note


def test_exterior_cross_check_fails_when_the_cyclic_sum_flips_sign(monkeypatch):
    """Only dw = -cartan-sum is asserted, so a sign error in either path fails the check."""
    cartan_sum = identities._cartan_sum
    monkeypatch.setattr(identities, "_cartan_sum", lambda F: -cartan_sum(F))
    r = check_exterior_cross(zoo.get("s6").bundle)
    assert not r.passed and r.relative > 1.0, r


# --- curvature-tier checks ---------------------------------------------------


def test_curvature_commutation_gated_on_s6():
    res = check_curvature_commutation(zoo.get("s6").bundle)
    assert all(r.skipped for r in res)


def test_curvature_commutation_on_s2_both_q():
    for q in (2.0 / 3.0, 2.0):
        bundle = zoo.get("s2", q).bundle
        res = by_id(check_curvature_commutation(bundle))
        assert res["curvature-structure-commute"].relative < 1e-4
        assert res["curvature-structure-pair"].relative < 1e-4


def test_ricci_pair_identities_report_only():
    res = check_ricci_pair_identities(zoo.get("s2").bundle)
    assert all(not r.asserted for r in res)
    d = by_id(res)
    # at q = 2/3 the stated coefficients do close
    assert d["ricci-structure-pair(stated)"].relative < 1e-4
    assert d["ricci-trace-form(stated)"].relative < 1e-4


def test_ricci_pair_stated_form_fails_at_q2_but_is_not_asserted():
    res = by_id(check_ricci_pair_identities(zoo.get("s2", 2.0).bundle))
    assert not res["ricci-structure-pair(stated)"].passed
    assert not res["ricci-structure-pair(stated)"].asserted


def test_ricci_derivative_cycle_vanishes_on_constant_curvature():
    res = check_ricci_derivative_cycle(zoo.get("s2").bundle)
    assert all(not r.asserted for r in res)
    for r in res:
        assert not r.skipped
        assert r.relative < 1e-3  # parallel Ricci: every term vanishes


def test_ricci_derivative_cycle_zero_on_flat():
    res = check_ricci_derivative_cycle(zoo.get("flat-k1").bundle)
    for r in res:
        assert r.max_residual < 1e-8


# --- star curvature and nearly-tier checks -------------------------------------


def test_star_curvature_flat_all_zero():
    ctx = zoo.get("flat-k1").bundle.context(np.array([0.2, -0.1]))
    assert max_abs(ctx.H) < 1e-10
    assert max_abs(ctx.Sstar) < 1e-10
    assert abs(ctx.scalar_star) < 1e-10
    assert abs(ctx.norm_covJ_sq) < 1e-12


def test_star_curvature_s6_values():
    """Closed-form constants of the unit 6-sphere at q = 2/3: S* = g,
    scalar* = 6, |nabla J|^2 = 24."""
    bundle = zoo.get("s6").bundle
    ctx = bundle.context(np.zeros(6))
    q = bundle.params.q
    assert max_abs(ctx.H + ctx.omega) < 1e-6          # H = -w on the round sphere
    assert max_abs(ctx.Sstar - ctx.g) < 1e-6
    assert ctx.scalar_star == pytest.approx(6.0, abs=1e-6)
    assert ctx.norm_covJ_sq == pytest.approx(24.0, abs=1e-8)
    assert max_abs(ctx.H + ctx.H.T) / max(1.0, max_abs(ctx.H)) < 1e-4
    lhs = np.einsum("jt,ti->ji", ctx.Sstar, ctx.Jhat)
    assert max_abs(lhs + 1.5 * q * ctx.H) / max(1.0, max_abs(lhs)) < 1e-8


def test_star_pack_checks_on_s6():
    res = by_id(check_star_pack(zoo.get("s6").bundle))
    assert res["h-antisymmetry"].relative < 1e-4
    assert res["star-conjugate-contraction"].relative < 1e-8


def test_divergence_ricci_chain_s6():
    r = check_divergence_ricci_chain(zoo.get("s6").bundle)
    assert r.passed and r.relative < 1e-4
    assert "observed" in r.note


def test_divergence_ricci_chain_zero_both_sides_on_metallic_kahler():
    r = check_divergence_ricci_chain(zoo.get("s2").bundle)
    assert r.passed
    assert "observed" in r.note


def test_ricci_hyperbolic_on_s6_and_gate():
    assert check_ricci_hyperbolic(zoo.get("s6").bundle).relative < 1e-4
    assert check_ricci_hyperbolic(zoo.get("negative").bundle).skipped


def test_ricci_star_hyperbolic_on_s6():
    res = by_id(check_ricci_star_hyperbolic(zoo.get("s6").bundle))
    assert res["ricci-star-hyperbolic"].relative < 1e-4
    assert res["star-contraction-cancel"].relative < 1e-4


def test_scalar_star_relation_s6():
    res = by_id(check_scalar_star(zoo.get("s6").bundle))
    rel = res["scalar-star-relation"]
    assert rel.passed and rel.relative < 1e-3
    tr = res["ricci-omega-trace-zero"]
    assert tr.passed and tr.max_residual < 1e-10


def test_nearly_nijenhuis_two_pipelines_s6():
    res = by_id(check_nearly_nijenhuis(zoo.get("s6").bundle))
    cross = res["nijenhuis-covderiv-form"]
    assert cross.passed and cross.relative < 1e-5
    assert cross.scale > 0.1
    assert res["structure-divergence-free"].relative < 1e-5


def test_gate_discipline_reports_skipped_never_failed():
    neg = zoo.get("negative").bundle
    gated = {
        "f-nearly-outer-rescale", "f-nearly-double-structure",
        "nijenhuis-covderiv-form", "structure-divergence-free",
        "divergence-ricci-chain", "ricci-hyperbolic",
        "ricci-star-hyperbolic", "star-contraction-cancel",
        "scalar-star-relation", "ricci-omega-trace-zero",
    }
    for r in run_suite(neg, "nearly"):
        if r.id in gated:
            assert r.skipped, r.id
        else:
            # ungated algebraic facts run anywhere and must not fail
            assert r.skipped or r.passed, r.id


def test_algebraic_identities_pass_on_every_fixture():
    """Purely algebraic consequences hold regardless of geometry."""
    for name in zoo.names():
        bundle = zoo.get(name).bundle
        res = by_id(check_covderiv_identities(bundle))
        assert res["covderiv-conjugate-exchange"].relative < 1e-8, name
        star = by_id(check_star_pack(bundle))
        assert star["star-conjugate-contraction"].relative < 1e-8, name
        q = bundle.params.q
        ctx = bundle.context(bundle.sample_points)
        # structure times conjugate is (3/2) q I
        assert max_abs(ctx.J @ ctx.Jhat - 1.5 * q * np.eye(ctx.n)) < 1e-8, name
        # symmetric Ricci against the doubly raised 2-form vanishes
        ricci_sym = 0.5 * (ctx.curvature.ricci + np.swapaxes(ctx.curvature.ricci, -1, -2))
        w_up = np.einsum("...ji,...tm,...im->...jt", ctx.ginv, ctx.ginv, ctx.omega)
        assert max_abs(np.einsum("...jt,...jt->...", ricci_sym, w_up)) < 1e-10, name


def test_run_suite_all_and_unknown():
    out = run_suite(zoo.get("flat-k1").bundle, "all")
    assert len(out) > 20
    with pytest.raises(KeyError):
        run_suite(zoo.get("flat-k1").bundle, "bogus")

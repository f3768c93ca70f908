import importlib.util
from pathlib import Path

import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.connections import (
    connection_identity_results,
    connection_report,
    connection_terms,
    first_type,
    no_second_type,
    second_type,
)
from metallicgeo.geometry import Chart, TensorField
from metallicgeo.identities import not_hermitian, run_suite
from metallicgeo.metallic import (MetallicParams, StructureBundle, VERDICT_ALMOST_KAHLER,
                                  VERDICT_KAHLER)
from metallicgeo.specfile import build_bundle, parse_spec
from oracles import anisotropic_flat_bundle, max_abs

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"


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

    g = TensorField(name="shear-metric", fn=lambda pts: np.swapaxes(shear(pts), 1, 2) @ shear(pts))
    j_field = TensorField(name="J-shear", fn=lambda pts: np.linalg.solve(shear(pts), J0 @ shear(pts)))
    chart = Chart(dimension=4, bounds=((-1.0, 1.0),) * 4, grid=2, margin=0.1)
    return StructureBundle(chart, g, j_field, MetallicParams(2.0 / 3.0), sign=+1)


def test_first_type_equals_levi_civita_on_flat():
    bundle = zoo.get("flat-k1").bundle
    S = first_type(bundle.context(np.array([0.3, -0.2])))
    assert max_abs(S) < 1e-12
    assert max_abs(S - np.swapaxes(S, 1, 2)) < 1e-12  # torsion


def test_first_type_deformation_formula_s6():
    bundle = zoo.get("s6").bundle
    pt = np.zeros(6)
    ctx = bundle.context(pt)
    S = first_type(ctx)
    q = bundle.params.q
    expected = (1.0 / (3.0 * q)) * np.einsum("ht,itj->hij", -ctx.J, ctx.covJ)  # JMhat = -J_M
    assert max_abs(S - expected) < 1e-10
    # torsion carried by the antisymmetrized deformation
    torsion = S - np.swapaxes(S, 1, 2)
    assert max_abs(torsion) > 0.01
    assert max_abs(connection_terms(ctx, "first")["torsion"]) == max_abs(torsion)


def test_first_type_gate():
    """The first type is gated by `not_hermitian`: the suite skips it with that reason, and
    the report has no block entry for it."""
    bundle = anisotropic_flat_bundle(2.0)  # fails skew compatibility
    reason = not_hermitian(bundle)
    assert reason == "needs an almost metallic Hermitian bundle"
    res = by_id(connection_identity_results(bundle))
    assert res["first-type-preserves-omega"].skipped
    assert res["first-type-preserves-omega"].note == reason
    assert res["second-type-connection"].skipped
    assert connection_report(bundle) == {}


def test_second_type_levi_civita_branch_on_s2():
    bundle = zoo.get("s2").bundle
    levi = bundle.classification().verdict == VERDICT_KAHLER
    assert levi
    assert max_abs(second_type(bundle.context(np.array([0.2, 0.1])), levi)) == 0.0


def test_second_type_nearly_branch_is_minus_three_first():
    bundle = zoo.get("s6").bundle
    assert bundle.classification().verdict != VERDICT_KAHLER
    ctx = bundle.context(np.zeros(6))
    s1 = first_type(ctx)
    s2 = second_type(ctx, levi=False)
    assert max_abs(s2 + 3.0 * s1) < 1e-10
    assert max_abs(s2) > 0.01


def test_second_type_gate_fails_on_hermitian_only():
    """`no_second_type` admits metallic Kahler and nearly bundles only; a gated bundle's
    second type is skipped with the reason in the suite, and the report has no entry for
    it."""
    assert no_second_type(zoo.get("s2").bundle) == ""
    assert no_second_type(zoo.get("s6").bundle) == ""
    bundle = zoo.get("negative").bundle
    reason = no_second_type(bundle)
    assert reason == ("second-type connection has a closed form only on metallic Kähler or "
                      "nearly metallic Kähler bundles")
    res = by_id(connection_identity_results(bundle))
    assert res["second-type-connection"].skipped and res["second-type-connection"].note == reason
    assert not res["first-type-preserves-omega"].skipped
    assert list(connection_report(bundle)) == ["first"]


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
    bundle = zoo.get("flat-k1").bundle
    first = connection_report(bundle)["first"]
    assert first["deformation_norm"] < 1e-12 and first["torsion_norm"] < 1e-12
    res = by_id(connection_identity_results(bundle))
    for id_ in ("first-type-preserves-omega", "first-type-metric-theorem",
                "second-type-preserves-omega"):
        assert res[id_].max_residual < 1e-12


def test_connection_report_s6_ratio_and_residuals():
    """The block holds the two numbers no row reports, which are independent; the rest are
    the rows' residuals."""
    bundle = zoo.get("s6").bundle
    rep = connection_report(bundle)
    assert list(rep) == ["first"]
    first = rep["first"]
    assert list(first) == ["deformation_norm", "torsion_norm"]
    assert abs(first["deformation_norm"] - 1.0) < 1e-6
    assert abs(first["torsion_norm"] - 2.0) < 1e-6
    res = by_id(connection_identity_results(bundle))
    assert res["first-type-preserves-omega"].max_residual < 1e-5
    assert res["first-type-metric-theorem"].max_residual < 1e-5
    assert res["second-type-omega-is-4covomega"].max_residual < 1e-8
    assert res["second-type-deformation-ratio"].max_residual < 1e-10
    assert res["first-type-expansion-consistency"].max_residual < 1e-8


def test_connection_report_negative_second_skipped():
    bundle = zoo.get("negative").bundle
    assert "second" not in connection_report(bundle)
    res = by_id(connection_identity_results(bundle))
    assert res["first-type-preserves-omega"].max_residual < 1e-5


def test_second_type_skipped_on_almost_kahler_not_kahler():
    bundle = symplectic_shear_bundle()
    cls = bundle.classification()
    assert cls.verdict == VERDICT_ALMOST_KAHLER
    assert cls.residuals["max_nijenhuis"] > 0.1
    assert "Levi-Civita preserves w only when nabla J_M = 0" in no_second_type(bundle)
    results = by_id(run_suite(bundle, "connections"))
    assert results["second-type-connection"].skipped
    assert "Levi-Civita" in results["second-type-connection"].note
    assert results["first-type-preserves-omega"].passed
    assert not [r.id for r in results.values() if r.asserted and not r.skipped and not r.passed]
    assert list(connection_report(bundle)) == ["first"]


def load_s2_mutations() -> dict:
    """`tools/report_identity.py`'s S2_MUTATIONS: spec name -> (s2 line, the line replacing
    it), two copies of the s2 spec that are not almost metallic Hermitian."""
    spec = importlib.util.spec_from_file_location("report_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.S2_MUTATIONS


S2_MUTATIONS = load_s2_mutations()
GATED_BUNDLES = {
    "negative": lambda: zoo.get("negative").bundle,
    **{name: lambda line=line, new=new: build_bundle(parse_spec(
        zoo.get("s2").spec_text.replace(line, new))) for name, (line, new) in S2_MUTATIONS.items()},
    "symplectic-shear": symplectic_shear_bundle,
    "s2": lambda: zoo.get("s2").bundle,
    "s6": lambda: zoo.get("s6").bundle,
}


@pytest.mark.parametrize("name", GATED_BUNDLES)
def test_one_gate_per_kind_decides_every_skip(name):
    """The block holds the first type's two norms exactly where `not_hermitian` admits the
    bundle, and a kind that its gate rejects is one skipped record of the suite, with that
    gate's reason as its note: `not_hermitian` for the first kind, `no_second_type` alone for
    the second."""
    bundle = GATED_BUNDLES[name]()
    block = connection_report(bundle)
    assert list(block) == ([] if not_hermitian(bundle) else ["first"])
    assert all(isinstance(value, float) for norms in block.values() for value in norms.values())
    results = run_suite(bundle, "all")
    for kind, gate in (("first", not_hermitian), ("second", no_second_type)):
        records = [r for r in results if r.id.startswith(f"{kind}-type")]
        if gate(bundle):
            assert [(r.skipped, r.note) for r in records] == [(True, gate(bundle))], kind
        else:
            assert records and not any(r.skipped for r in records), kind

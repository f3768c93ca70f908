import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metallicgeo import connections, identities, metallic, zoo
from metallicgeo.connections import connection_terms
from metallicgeo.geometry import Chart, TensorField
from metallicgeo.identities import (
    COVDERIV,
    EXTERIOR_CROSS,
    F_HERMITIAN,
    F_NEARLY,
    F_NIJENHUIS_BALANCE,
    NEARLY_NIJENHUIS,
    RICCI_HYPERBOLIC,
    RICCI_PAIR,
    RICCI_STAR_HYPERBOLIC,
    STAR_PACK,
    check_curvature_commutation,
    check_divergence_ricci_chain,
    check_ricci_derivative_cycle,
    check_scalar_star,
    evaluate,
    not_hermitian,
    not_metallic,
    not_nearly,
    run_suite,
)
from metallicgeo.metallic import Identity, MetallicParams, StructureBundle
from metallicgeo.specfile import build_bundle, parse_spec
from oracles import anisotropic_flat_bundle, const_field, flat_skew_text, max_abs

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected_identities.json"


def by_id(results):
    return {r.id: r for r in results}


def sheared_bundle():
    """Flat, position-dependent structure conjugated by a shear: the polynomial identity
    holds pointwise while skew compatibility fails away from x0 = 0, and the shear makes
    the failure visible at derivative level too."""
    params = MetallicParams(1.0)
    chart = Chart(dimension=4, bounds=((-1.0, 1.0),) * 4, grid=2, margin=0.1)
    g = TensorField(name="delta", fn=const_field(np.eye(4)))
    J0 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def sheared(pts):
        A = np.tile(np.eye(4), (len(pts), 1, 1))
        A[:, 1, 2] = 0.3 * pts[:, 0]
        return A @ J0 @ np.linalg.inv(A)

    j_field = TensorField(name="J-sheared", fn=sheared)
    return StructureBundle(chart, g, j_field, params, sign=+1)


# --- first-derivative checks ---------------------------------------------------


def test_covderiv_identities_trivial_on_flat():
    res = by_id(evaluate(zoo.get("flat-k1").bundle, COVDERIV))
    assert res["covderiv-conjugate-exchange"].max_residual < 1e-12
    assert res["covderiv-skew-adjoint"].max_residual < 1e-12


def test_covderiv_identities_on_s6():
    res = by_id(evaluate(zoo.get("s6").bundle, COVDERIV))
    assert res["covderiv-conjugate-exchange"].passed
    assert res["covderiv-skew-adjoint"].passed
    assert res["covderiv-conjugate-exchange"].relative < 1e-5


def test_covderiv_exchange_passes_but_skew_fails_on_a_shear():
    """The polynomial identity holds and skew compatibility does not: the exchange row, which
    needs only the first, runs and passes; the skew row is gated by the second."""
    bundle = sheared_bundle()
    assert not_metallic(bundle) == ""
    res = by_id(evaluate(bundle, COVDERIV))
    assert res["covderiv-conjugate-exchange"].passed  # algebraic, holds anyway
    skew = res["covderiv-skew-adjoint"]
    assert skew.skipped and skew.note == not_hermitian(bundle)
    assert skew.note == "needs an almost metallic Hermitian bundle"


def test_every_identities_row_names_a_gate():
    """One gate rule for every row: no row of a table of the `identities` module is ungated,
    so an asserted row runs only inside its hypothesis class."""
    gates = {identities.not_metallic, identities.not_hermitian, identities.not_kahler,
             identities.not_nearly}
    tables = {name: table for name, table in vars(identities).items()
              if isinstance(table, tuple) and table
              and all(isinstance(row, Identity) for row in table)}
    assert set(tables) == {"COVDERIV", "F_HERMITIAN", "F_NIJENHUIS_BALANCE", "EXTERIOR_CROSS",
                           "CURVATURE_COMMUTATION", "RICCI_PAIR", "RICCI_CYCLE", "F_NEARLY",
                           "NEARLY_NIJENHUIS", "STAR_PACK", "RICCI_HYPERBOLIC",
                           "RICCI_STAR_HYPERBOLIC"}
    for name, table in tables.items():
        for row in table:
            assert row.gate in gates, (name, row.id)


def test_gates_live_beside_the_ladder_and_connections_does_not_import_identities():
    """The gates are `metallic`'s, which `identities` and `connections` import; importing
    `connections` alone loads no `identities`."""
    assert identities.not_hermitian is metallic.not_hermitian
    assert connections.no_second_type is metallic.no_second_type
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import metallicgeo.connections; "
            "assert 'metallicgeo.identities' not in sys.modules")
    src = Path(metallic.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)


def test_connections_suite_looks_up_the_connection_rows_when_it_runs(monkeypatch):
    """The suite reads `connections.connection_identity_results` at call time, so a function
    patched onto that module (as a tracer does) is the one that runs."""
    monkeypatch.setattr(connections, "connection_identity_results", lambda bundle: ["patched"])
    assert run_suite(zoo.get("s2").bundle, "connections") == ["patched"]


def test_f_properties_modes_and_gates():
    flat = zoo.get("flat-k1").bundle
    for table in (F_HERMITIAN, F_NEARLY):
        for r in evaluate(flat, table):
            assert r.passed and r.max_residual < 1e-12
    s2 = by_id(evaluate(zoo.get("s2").bundle, F_HERMITIAN))
    assert all(r.passed for r in s2.values())
    s6 = by_id(evaluate(zoo.get("s6").bundle, F_NEARLY))
    assert all(r.passed and r.relative < 1e-5 for r in s6.values())
    # gate: the nearly table on a non-nearly bundle is skipped, never failed
    neg = evaluate(zoo.get("negative").bundle, F_NEARLY)
    assert all(r.skipped for r in neg)


def test_f_tables_skip_with_their_gate_reason():
    """Each F table is gated by one reason function, and a gated row carries its reason."""
    assert {r.gate for r in F_HERMITIAN} == {not_hermitian}
    assert {r.gate for r in F_NEARLY} == {not_nearly}
    neg = zoo.get("negative").bundle  # almost metallic Hermitian, not nearly
    assert not any(r.skipped for r in evaluate(neg, F_HERMITIAN))
    assert [r.note for r in evaluate(neg, F_NEARLY)] == ["needs a nearly metallic Kähler bundle"] * 2
    anisotropic = anisotropic_flat_bundle(2.0)  # fails skew compatibility
    notes = {r.note for r in evaluate(anisotropic, F_HERMITIAN + F_NIJENHUIS_BALANCE)}
    assert notes == {"needs an almost metallic Hermitian bundle"}
    assert (evaluate(anisotropic, EXTERIOR_CROSS)[0].note
            == "needs an almost metallic Hermitian bundle")


def test_balance_identity_trivial_flat():
    r = evaluate(zoo.get("flat-k1").bundle, F_NIJENHUIS_BALANCE)[0]
    assert r.passed and r.max_residual < 1e-12


def test_balance_identity_nontrivial_cancellation_s6():
    r = evaluate(zoo.get("s6").bundle, F_NIJENHUIS_BALANCE)[0]
    assert r.passed and r.relative < 1e-5
    assert r.scale > 0.1  # individually large terms


def test_balance_identity_on_negative_fixture():
    # nonzero N and nonzero d-omega together, still balances
    r = evaluate(zoo.get("negative").bundle, F_NIJENHUIS_BALANCE)[0]
    assert r.passed and r.scale > 0.1


def test_exterior_cross_check_matches_minus_orientation():
    r = evaluate(zoo.get("s6").bundle, EXTERIOR_CROSS)[0]
    assert r.passed
    assert "-" in r.note


def test_exterior_cross_check_fails_when_the_cyclic_sum_flips_sign(monkeypatch):
    """Only dw = -cartan-sum is asserted, so a sign error in either path fails the check."""
    cartan_sum = identities._cartan_sum
    monkeypatch.setattr(identities, "_cartan_sum", lambda F: -cartan_sum(F))
    r = evaluate(zoo.get("s6").bundle, EXTERIOR_CROSS)[0]
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
    res = evaluate(zoo.get("s2").bundle, RICCI_PAIR)
    assert all(not r.asserted for r in res)
    d = by_id(res)
    # at q = 2/3 the stated coefficients do close
    assert d["ricci-structure-pair(stated)"].relative < 1e-4
    assert d["ricci-trace-form(stated)"].relative < 1e-4


def test_ricci_pair_stated_form_fails_at_q2_but_is_not_asserted():
    res = by_id(evaluate(zoo.get("s2", 2.0).bundle, RICCI_PAIR))
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
    lhs = np.einsum("jt,ti->ji", ctx.Sstar, -ctx.J)  # S* JMhat, JMhat = -J_M
    assert max_abs(lhs + 1.5 * q * ctx.H) / max(1.0, max_abs(lhs)) < 1e-8


def test_star_pack_checks_on_s6():
    res = by_id(evaluate(zoo.get("s6").bundle, STAR_PACK))
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
    assert evaluate(zoo.get("s6").bundle, RICCI_HYPERBOLIC)[0].relative < 1e-4
    assert evaluate(zoo.get("negative").bundle, RICCI_HYPERBOLIC)[0].skipped


def test_ricci_star_hyperbolic_on_s6():
    res = by_id(evaluate(zoo.get("s6").bundle, RICCI_STAR_HYPERBOLIC))
    assert res["ricci-star-hyperbolic"].relative < 1e-4
    assert res["star-contraction-cancel"].relative < 1e-4


def test_scalar_star_relation_s6():
    res = by_id(check_scalar_star(zoo.get("s6").bundle))
    rel = res["scalar-star-relation"]
    assert rel.passed and rel.relative < 1e-3
    tr = res["ricci-omega-trace-zero"]
    assert tr.passed and tr.max_residual < 1e-10


def test_nearly_nijenhuis_two_pipelines_s6():
    res = by_id(evaluate(zoo.get("s6").bundle, NEARLY_NIJENHUIS))
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
            # rows behind a weaker gate, which the Hermitian bundle passes, must not fail
            assert r.skipped or r.passed, r.id


def test_algebraic_identities_pass_on_every_fixture():
    """Purely algebraic consequences hold regardless of geometry."""
    for name in zoo.names():
        bundle = zoo.get(name).bundle
        res = by_id(evaluate(bundle, COVDERIV))
        assert res["covderiv-conjugate-exchange"].relative < 1e-8, name
        star = by_id(evaluate(bundle, STAR_PACK))
        assert star["star-conjugate-contraction"].relative < 1e-8, name
        q = bundle.params.q
        ctx = bundle.context(bundle.sample_points)
        # structure times conjugate -J_M is (3/2) q I
        assert max_abs(ctx.J @ -ctx.J - 1.5 * q * np.eye(ctx.n)) < 1e-8, name
        # symmetric Ricci against the doubly raised 2-form vanishes
        ricci_sym = 0.5 * (ctx.curvature.ricci + np.swapaxes(ctx.curvature.ricci, -1, -2))
        w_up = np.einsum("...ji,...tm,...im->...jt", ctx.ginv, ctx.ginv, ctx.omega)
        assert max_abs(np.einsum("...jt,...jt->...", ricci_sym, w_up)) < 1e-10, name


def test_run_suite_all_and_unknown():
    out = run_suite(zoo.get("flat-k1").bundle, "all")
    assert len(out) > 20
    with pytest.raises(KeyError):
        run_suite(zoo.get("flat-k1").bundle, "bogus")


@pytest.mark.parametrize("name", zoo.names())
def test_row_order_is_the_benchmarks(name):
    """Every zoo fixture gives the rows the benchmark expects of its verdict, in order and
    with their skipped flags, so a reshuffled table fails here and not only in the
    benchmark."""
    fx = zoo.get(name)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[fx.expected_verdict]
    assert [[r.id, r.skipped] for r in run_suite(fx.bundle, "all")] == expected


# --- known zeros of a constant (g, J_M) pair ---------------------------------------


def identity_tables(module) -> dict:
    """name -> table of every module-level tuple of `Identity` rows."""
    return {name: table for name, table in vars(module).items() if isinstance(table, tuple)
            and table and all(isinstance(row, Identity) for row in table)}


CONSTANT_PAIRS = {
    **{f"{name}@{q:g}": lambda name=name, q=q: zoo.get(name, q).bundle
       for name in ("flat-k1", "flat-k2", "flat-k3", "torus") for q in (2.0 / 3.0, 1.5)},
    "flat-skew": lambda: build_bundle(parse_spec(flat_skew_text())),
}
FIELD_ALGEBRA = ["polynomial", "hyperbolic_direct"]


def every_row(bundle, monkeypatch) -> list:
    """(row, values it reads) for every row of every table: the classification, the tables
    of `identities` and the connection tables on their kind's terms, formed directly with
    `connection_terms`, plus the rows that `check_divergence_ricci_chain` and
    `check_scalar_star` build, caught on their way to `evaluate`. The connections block reads
    the norms of the first kind's terms, not the terms: its rows are not here."""
    ctx = bundle.sample_context
    rows = [(row, ctx) for table in (metallic.CLASSIFICATION,
                                     *identity_tables(identities).values()) for row in table]
    levi = connections._levi(bundle)
    for name, table in identity_tables(connections).items():
        if table is not connections.CONNECTION_BLOCK:
            kind = "first" if name == "FIRST_TYPE_IDENTITIES" else "second"
            rows += [(row, connection_terms(ctx, kind, levi)) for row in table]
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(identities, "evaluate",
                      lambda b, table, values=None: built.extend(table) or evaluate(b, table))
        check_divergence_ricci_chain(bundle)
        check_scalar_star(bundle)
    assert [row.id for row in built] == ["divergence-ricci-chain", "scalar-star-relation"]
    return rows + [(row, ctx) for row in built]


@pytest.mark.parametrize("name", CONSTANT_PAIRS)
def test_every_derivative_tier_array_is_zero_on_a_constant_pair(name, monkeypatch):
    """The premise of the known-zero rule of `evaluate`: on a pair whose two fields are
    constant, every row but the two of algebra on g and J_M alone is built from a derivative
    of g or J_M, so its residual and every term but a constant one are exactly 0, and its
    scale is the `constant_scale` it declares (1 for second-type-equals-levi-civita, whose
    scale is the constant 1, 0 for every other). So is every connection term of both kinds
    and each array of the ricci-omega trace."""
    bundle = CONSTANT_PAIRS[name]()
    ctx, c = bundle.sample_context, bundle.params.coeff
    assert ctx.w_constant
    rows = every_row(bundle, monkeypatch)
    assert len(rows) == 39
    assert [row.id for row, _ in rows if row.constant_scale is None] == FIELD_ALGEBRA
    for row, values in rows:
        if row.constant_scale is not None:
            residual, *terms = row.fn(values)
            assert not np.any(residual), row.id
            scale = max((max_abs(term) for term in terms), default=0.0)
            assert c ** row.degree * scale == row.constant_scale, row.id
    assert {row.id for row, _ in rows if row.constant_scale} == {
        "second-type-equals-levi-civita"}
    for kind, levi in (("first", False), ("second", False), ("second", True)):
        for key, term in connection_terms(ctx, kind, levi).items():
            assert not np.any(term), (kind, levi, key)
    assert not any(np.any(array) for array in identities._ricci_omega_trace(ctx))


@pytest.mark.parametrize("name", CONSTANT_PAIRS)
def test_a_constant_pair_records_derivative_tier_rows_unformed(name, monkeypatch):
    """`evaluate` on a constant pair calls the function of no row but the two of algebra on
    g and J_M alone: each is recorded as residual 0.0 and its `constant_scale`, passed, with
    its own tolerance, note and assertion. The classification, `run_suite(bundle, "all")` and
    `connection_report` on a fresh bundle then call no such row function, form no connection
    term and no ricci-omega trace, and report the same records."""
    bundle = CONSTANT_PAIRS[name]()

    def raises(*args):
        raise AssertionError("a known-zero row was formed")

    for row, values in every_row(bundle, monkeypatch):
        known = row.constant_scale is not None
        probe = dataclasses.replace(row, fn=raises) if known else row
        read = None if values is bundle.sample_context else lambda values=values: values
        result = evaluate(bundle, [probe], read)[0]
        tol = getattr(bundle.tolerances, row.tier)
        assert (result.id, result.tolerance, result.asserted, result.note) == (
            row.id, tol, row.asserted, row.note)
        if known:
            assert (result.max_residual, result.scale, result.passed) == (
                0.0, row.constant_scale, True)
    expected = [r.as_dict() for r in run_suite(bundle, "all")]
    fresh = dataclasses.replace(bundle)  # nothing classified, no term kept
    for module in (metallic, identities, connections):
        for table_name, table in identity_tables(module).items():
            monkeypatch.setattr(module, table_name, tuple(
                row if row.constant_scale is None else dataclasses.replace(row, fn=raises)
                for row in table))
    for fn_name in ("_terms", "connection_terms"):
        monkeypatch.setattr(connections, fn_name, raises)
    for fn_name in ("_divergence_omega", "_scalar_star_relation", "_ricci_omega_trace"):
        monkeypatch.setattr(identities, fn_name, raises)
    assert fresh.classification().verdict == metallic.VERDICT_KAHLER
    results = run_suite(fresh, "all")
    assert [r.as_dict() for r in results] == expected
    results = by_id(results)
    assert results["divergence-ricci-chain"].note == (
        "observed |nabla^m nabla_j w_im| = 0 (reported, not asserted)")
    assert results["scalar-star-relation"].passed
    assert results["ricci-omega-trace-zero"].note == "raw (unsymmetrized) trace observation: 0"
    assert results["second-type-equals-levi-civita"].scale == 1.0
    assert connections.connection_report(fresh) == {
        "first": {"deformation_norm": 0.0, "torsion_norm": 0.0}}

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from metallicgeo import cli, zoo
from metallicgeo.geometry import max_abs
from metallicgeo.metallic import VERDICT_KAHLER, VERDICT_NEARLY, VERDICT_HERMITIAN, jm_from_j_matrix
from metallicgeo.specfile import build_bundle, parse_spec

import oracles


def test_all_fixtures_self_validate():
    for name in zoo.names():
        zoo.get(name)  # validation runs at first load


def test_expected_verdicts():
    expected = {
        "flat-k1": VERDICT_KAHLER,
        "flat-k2": VERDICT_KAHLER,
        "flat-k3": VERDICT_KAHLER,
        "torus": VERDICT_KAHLER,
        "s2": VERDICT_KAHLER,
        "s6": VERDICT_NEARLY,
        "negative": VERDICT_HERMITIAN,
    }
    for name, verdict in expected.items():
        assert zoo.get(name).bundle.classification().verdict == verdict, name


def test_flat_k2_polynomial_with_q_2():
    # (sqrt(3) J)^2 = -3 I = -(3/2) * 2 * I
    fx = zoo.fixture_flat(2, q=2.0)
    pt = np.zeros(4)
    JM = fx.bundle.jm(pt)
    assert np.allclose(JM @ JM, -3.0 * np.eye(4))
    assert fx.bundle.classification().verdict == VERDICT_KAHLER


def test_flat_p_nonzero_documents_obstruction():
    fx = zoo.fixture_flat(1, q=1.0, p=1.0)
    cls = fx.bundle.classification()
    assert cls.residuals["polynomial"] < 1e-12
    assert cls.residuals["hyperbolic_direct"] > 0.9
    assert fx.expected_verdict == cls.verdict


def test_s2_scalar_curvature_everywhere():
    bundle = zoo.get("s2").bundle
    for pt in bundle.sample_points:
        assert bundle.context(pt).curvature.scalar == pytest.approx(2.0, abs=1e-6)


def test_s2_ricci_equals_metric():
    bundle = zoo.get("s2").bundle
    for pt in bundle.sample_points:
        ctx = bundle.context(pt)
        assert max_abs(ctx.curvature.ricci - ctx.g) < 1e-5


def test_s2_structure_parallel():
    bundle = zoo.get("s2").bundle
    assert bundle.classification().residuals["max_cov_jm"] < 1e-6


def test_torus_flat_and_integrable():
    bundle = zoo.get("torus").bundle
    ctx = bundle.context(bundle.sample_points[0])
    assert max_abs(ctx.curvature.Rdown) < 1e-10
    assert max_abs(ctx.N) < 1e-12


def test_s6_named_origin_is_sampled():
    pts = zoo.get("s6").bundle.sample_points
    assert any(np.allclose(p, np.zeros(6)) for p in pts)
    assert len(pts) >= 8


def test_s6_structure_squares_to_minus_identity():
    from metallicgeo.zoo import _sphere6_structure

    j_field = _sphere6_structure()
    for pt in zoo.get("s6").bundle.sample_points:
        J = j_field(pt)
        assert max_abs(J @ J + np.eye(6)) < 1e-8


def test_s6_pullback_metric_matches_jacobian_gram():
    from metallicgeo.zoo import _sphere6_embedding

    bundle = zoo.get("s6").bundle
    pts = bundle.sample_points[:4]
    us, Ds = _sphere6_embedding(pts)
    for pt, u, D in zip(pts, us, Ds):
        assert abs(u @ u - 1.0) < 1e-12
        assert max_abs(D.T @ D - bundle.g(pt)) < 1e-12


def test_s6_nearly_but_not_parallel():
    cls = zoo.get("s6").bundle.classification()
    assert cls.residuals["max_sym_cov_jm"] < 1e-5
    assert cls.residuals["max_cov_jm"] > 0.1
    assert cls.residuals["max_nijenhuis"] > 0.1


def test_s6_scalar_curvature_30():
    bundle = zoo.get("s6").bundle
    for pt in bundle.sample_points:
        assert bundle.context(pt).curvature.scalar == pytest.approx(30.0, abs=1e-4)


def test_negative_fixture_large_residuals():
    cls = zoo.get("negative").bundle.classification()
    assert max(cls.residuals["max_domega"], cls.residuals["max_nijenhuis"]) > 1e-2
    assert cls.residuals["polynomial"] < 1e-12
    assert cls.residuals["hyperbolic_direct"] < 1e-12


def test_parallel_equivalence_threshold_property():
    """closed + integrable at 1e-5 exactly when the structure is parallel at 1e-5."""
    for name in zoo.names():
        cls = zoo.get(name).bundle.classification()
        res = cls.residuals
        lhs = res["max_domega"] < 1e-5 and res["max_nijenhuis"] < 1e-5
        rhs = res["max_cov_jm"] < 1e-5
        assert lhs == rhs, name


def test_mirrored_specs_exist_for_representable_fixtures():
    for name in ("flat-k1", "flat-k2", "flat-k3", "torus", "s2", "negative"):
        assert zoo.get(name).spec_text
    assert zoo.get("s6").spec_text is None


def test_zoo_and_its_spec_file_give_one_report(tmp_path):
    """A fixture's spec text, written to a file, is the whole fixture: the file gives the
    `--zoo` report, apart from the source's kind and name, and its chart, which no report
    of a flat fixture shows."""
    checked = 0
    for name in zoo.names():
        text = zoo.get(name).spec_text
        if text is None:
            continue
        assert build_bundle(parse_spec(text)).chart == zoo.get(name).bundle.chart, name
        path = tmp_path / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        reports = []
        for source in (["--zoo", name], [str(path)]):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(["verify", *source, "--suite", "all", "--format", "json"]) == 0
            report = json.loads(buf.getvalue())
            del report["timing_s"], report["source"]["kind"], report["source"]["name"]
            reports.append(report)
        assert reports[0] == reports[1], name
        checked += 1
    assert checked == 6


def test_unknown_fixture_raises():
    with pytest.raises(KeyError):
        zoo.get("does-not-exist")


def test_metric_fields_validate_at_every_sample_point():
    for name in zoo.names():
        bundle = zoo.get(name).bundle
        g = bundle.g(bundle.sample_points)
        assert g.shape == bundle.sample_points.shape + (bundle.chart.dimension,)
        assert np.array_equal(g, np.swapaxes(g, 1, 2)), name
        for pt in bundle.sample_points:
            ctx = bundle.context(pt)  # ginv raises if g ginv != I at 1e-10
            assert max_abs(ctx.g @ ctx.ginv - np.eye(bundle.chart.dimension)) < 1e-10
            assert max_abs(ctx.J - bundle.jm(pt)) == 0.0


def test_curvature_invariants_every_sample_point_every_fixture():
    for name in zoo.names():
        bundle = zoo.get(name).bundle
        for pt in bundle.sample_points:
            for key, val in bundle.context(pt).curvature.symmetry_residuals().items():
                assert val < 1e-4, (name, pt.tolist(), key, val)


def test_stacked_fields_match_per_point_formulas():
    rng = np.random.default_rng(17)
    s2, s6, negative = (zoo.get(name).bundle for name in ("s2", "s6", "negative"))
    s2_pts = np.concatenate([s2.sample_points, rng.uniform(-0.8, 0.8, (20, 2))])
    s6_pts = np.concatenate([s6.sample_points, rng.uniform(-0.54, 0.54, (20, 6))])
    neg_pts = np.concatenate([negative.sample_points, rng.uniform(-0.9, 0.9, (20, 4))])
    cases = [
        (s2.g, oracles.round_metric, s2_pts),
        (s6.g, oracles.round_metric, s6_pts),
        (zoo._sphere6_structure(), oracles.sphere6_structure, s6_pts),
        (s6.jm, lambda p: jm_from_j_matrix(oracles.sphere6_structure(p), s6.params), s6_pts),
        (negative.jm, lambda p: jm_from_j_matrix(oracles.rotation_conjugated_structure(p),
                                                 negative.params), neg_pts),
    ]
    for field, per_point, pts in cases:
        for pt, value in zip(pts, field(pts)):
            want = per_point(pt)
            assert max_abs(value - want) <= 1e-14 * max(1.0, max_abs(want)), (field.name, pt)
    us, Ds = zoo._sphere6_embedding(s6_pts)
    for pt, u, D in zip(s6_pts, us, Ds):
        want_u, want_D = oracles.sphere6_embedding(pt)
        assert max_abs(u - want_u) <= 1e-14 and max_abs(D - want_D) <= 1e-14

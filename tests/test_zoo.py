import dataclasses
import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from metallicgeo import cli, metallic, zoo
from metallicgeo.geometry import NumericalError
from metallicgeo.metallic import (VERDICT_KAHLER, VERDICT_NEARLY, VERDICT_HERMITIAN, VERDICT_NONE,
                                  MetallicParams, Tolerances)
from metallicgeo.specfile import build_bundle, parse_spec

import oracles
from oracles import max_abs


def test_all_fixtures_self_validate():
    for name in zoo.names():
        zoo.get(name)  # validation runs at first load


def test_get_returns_one_fixture_however_q_is_passed():
    """The cache holds the default-q fixtures, one per name, not per spelling of the call:
    the default q, q given by position and q given by keyword are one entry, so the fixture
    is built and validated once. A fixture at any other q is validated for its run and not
    kept."""
    zoo.get.cache_clear()
    fx = zoo.get("s2")
    assert zoo.get("s2", zoo.DEFAULT_Q) is fx
    assert zoo.get("s2", q=zoo.DEFAULT_Q) is fx
    info = zoo.get.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    for _ in range(2):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["classify", "--zoo", "s2", "--q", "1.5"]) == 0
    assert zoo.get.cache_info().currsize == 1


def test_q_is_a_setting_of_the_bundle():
    """A bundle derives J_M from the structure it was given and its q, so the checked
    fixture's bundle at another q is one `replace`: it classifies as the fixture at that q
    does, where a J_M built for the default q made it not metallic-Hermitian."""
    at_q = dataclasses.replace(zoo.get("s2").bundle, params=MetallicParams(1.5))
    assert at_q.classification().verdict == VERDICT_KAHLER
    assert zoo.get("s2", 1.5).bundle.classification().verdict == VERDICT_KAHLER
    assert np.array_equal(at_q.jm(np.zeros(2)), 1.5 * zoo.get("s2").bundle.jm(np.zeros(2)))


def test_a_fixture_at_another_q_parses_no_spec_and_builds_no_chart(monkeypatch):
    """The fixture at another q is the checked fixture on its chart, fields and text: asking
    for it again parses no spec text, where each call parsed the text and built a chart."""
    fx = zoo.get("s2")
    zoo.get("s2", 1.5)
    parsed = []
    monkeypatch.setattr(zoo, "parse_spec", lambda text: parsed.append(text) or parse_spec(text))
    at_q = zoo.get("s2", 1.5)
    assert parsed == []
    assert (at_q.bundle.chart, at_q.bundle.g, at_q.bundle.structure, at_q.spec_text) == (
        fx.bundle.chart, fx.bundle.g, fx.bundle.structure, fx.spec_text)
    assert at_q.bundle.params.q == 1.5 and at_q.bundle is not fx.bundle


def test_a_fixture_at_another_q_is_classified_once(monkeypatch):
    """A fresh fixture at another q is checked at that q alone: one classification, where the
    fixture was first checked at the default q, a classification the caller never read. After
    `get.cache_clear()` each fresh call parses the spec text once, and the fixture at the
    default q is classified on its first call only."""
    calls, parsed = [], []
    classify = metallic.classify
    monkeypatch.setattr(metallic, "classify", lambda bundle: calls.append(bundle.params.q)
                        or classify(bundle))
    monkeypatch.setattr(zoo, "parse_spec", lambda text: parsed.append(text) or parse_spec(text))
    for _ in range(2):
        zoo.get.cache_clear()
        assert zoo.get("s2", 1.5).bundle.classification().verdict == VERDICT_KAHLER
        assert (calls, len(parsed)) == ([1.5], 1)
        calls.clear(), parsed.clear()
    for _ in range(2):
        zoo.get("s2")
        assert (calls, parsed) == ([zoo.DEFAULT_Q], [])


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
    fx = zoo.get("flat-k2", 2.0)
    pt = np.zeros(4)
    JM = fx.bundle.jm(pt)
    assert np.allclose(JM @ JM, -3.0 * np.eye(4))
    assert fx.bundle.classification().verdict == VERDICT_KAHLER


def test_flat_anisotropic_metric_is_not_hermitian():
    """A metric that is not J-invariant breaks skew compatibility and keeps the polynomial
    identity: the verdict drops to the lowest rung."""
    cls = oracles.anisotropic_flat_bundle(2.0).classification()
    assert cls.residuals["polynomial"] < 1e-12
    assert cls.residuals["hyperbolic_direct"] > 0.9
    assert cls.verdict == VERDICT_NONE


def test_self_check_reads_the_polynomial_as_the_verdict_ladder_does():
    """A polynomial residual equal to tol.alg fails the identity on the ladder, so the
    self-check names the identity, not the verdict it brings down."""
    fx = zoo.fixture_sphere6()
    residual = fx.bundle.classification().residuals["polynomial"]  # 8.9e-16
    bundle = dataclasses.replace(fx.bundle, tolerances=Tolerances(alg=residual))
    with pytest.raises(NumericalError, match="polynomial identity fails"):
        dataclasses.replace(fx, bundle=bundle).validate()


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
    `--zoo` report, apart from the source's kind and name, and its chart and seed, which no
    report of a flat fixture shows; so does each with a `--seed`, which the spec-file path
    writes into the spec and the zoo path into the fixture's bundle, and with a `--q`, which
    the zoo path writes into the checked fixture's bundle and which keeps the fixture's
    text, and so its hash."""
    checked = 0
    for name in zoo.names():
        text = zoo.get(name).spec_text
        if text is None:
            continue
        built, fixture = build_bundle(parse_spec(text)), zoo.get(name).bundle
        assert (built.chart, built.seed) == (fixture.chart, fixture.seed), name
        path = tmp_path / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--seed", "4"], ["--q", "1.5"]):
            reports = []
            for source in (["--zoo", name], [str(path)]):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    assert cli.main(["verify", *source, *flags, "--suite", "all",
                                     "--format", "json"]) == 0
                report = json.loads(buf.getvalue())
                del report["timing_s"], report["source"]["kind"], report["source"]["name"]
                reports.append(report)
            assert reports[0] == reports[1], (name, flags)
            assert reports[0]["seed"] == (4 if "--seed" in flags else fixture.seed)
            assert reports[0]["params"]["q"] == (1.5 if "--q" in flags else 0.666667)
            checked += 1
    assert checked == 18


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
        (s6.jm, lambda p: oracles.jm_from_j_matrix(oracles.sphere6_structure(p), s6.params),
         s6_pts),
        (negative.jm, lambda p: oracles.jm_from_j_matrix(
            oracles.rotation_conjugated_structure(p), negative.params), neg_pts),
    ]
    for field, per_point, pts in cases:
        for pt, value in zip(pts, field(pts)):
            want = per_point(pt)
            assert max_abs(value - want) <= 1e-14 * max(1.0, max_abs(want)), (field.name, pt)
    us, Ds = zoo._sphere6_embedding(s6_pts)
    for pt, u, D in zip(s6_pts, us, Ds):
        want_u, want_D = oracles.sphere6_embedding(pt)
        assert max_abs(u - want_u) <= 1e-14 and max_abs(D - want_D) <= 1e-14

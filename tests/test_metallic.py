import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.geometry import NumericalError, TensorField
from metallicgeo.metallic import (
    MetallicParams,
    VERDICT_HERMITIAN,
    VERDICT_KAHLER,
    VERDICT_NEARLY,
    VERDICT_NONE,
    IdentityResult,
    StructureBundle,
    _result,
)
from oracles import anisotropic_flat_bundle, jm_field_at, jm_from_j_matrix, max_abs

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def polynomial_residual(JM, params):
    eye = np.eye(JM.shape[0])
    return max_abs(JM @ JM + 1.5 * params.q * eye)


def quadratic_root_oracle(q):
    """Independent quadratic-formula root of z^2 + (3/2) q with positive imaginary part."""
    disc = cmath.sqrt(complex(-6.0 * q, 0.0))
    r1, r2 = disc / 2.0, -disc / 2.0
    return r1 if r1.imag > 0 else r2


def test_params_admissibility():
    MetallicParams(1.0)
    for q in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            MetallicParams(q)


def test_metallic_mean_golden_case():
    # the metallic mean is the root i coeff of z^2 + (3/2) q; at q = 5/6 its coefficient
    # sqrt(5)/2 is the golden ratio less 1/2
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert MetallicParams(5.0 / 6.0).coeff == pytest.approx(golden - 0.5)


def test_metallic_mean_reduces_to_i():
    assert MetallicParams(2.0 / 3.0).coeff == pytest.approx(1.0)


def test_metallic_mean_against_quadratic_oracle():
    for q in (1.0, 0.3, 2.0):
        m = complex(0.0, MetallicParams(q).coeff)
        assert m == pytest.approx(quadratic_root_oracle(q), abs=1e-12)
        for root in (m, -m):  # both signs of the structure
            assert root ** 2 + 1.5 * q == pytest.approx(0.0, abs=1e-12)


def test_jm_from_j_q_two_thirds_is_identity_map():
    params = MetallicParams(2.0 / 3.0)
    assert np.allclose(jm_field_at(J2, params, +1), J2)


def test_jm_from_j_golden_brute_force():
    params = MetallicParams(5.0 / 6.0)
    for sign in (+1, -1):
        JM = jm_field_at(J2, params, sign)
        assert np.array_equal(JM, jm_from_j_matrix(J2, params, sign))
        assert np.allclose(JM, sign * (math.sqrt(5.0) / 2.0) * J2)
        # brute-force 2x2 polynomial check: (3/2) q = 5/4
        assert max_abs(JM @ JM + 1.25 * np.eye(2)) < 1e-12


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_a_bad_sign_is_rejected_when_the_bundle_is_built(sign):
    """The sign of J_M = sign * sqrt(6q)/2 J is checked when the bundle is built, where it
    derives J_M, not at the field's first call inside a job."""
    chart = zoo.get("flat-k1").bundle.chart
    field = TensorField("J", lambda pts: np.broadcast_to(J2, (len(pts), 2, 2)))
    g = TensorField("g", lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)))
    with pytest.raises(ValueError, match="sign must be \\+1 or -1"):
        StructureBundle(chart, g, field, MetallicParams(2.0 / 3.0), sign=sign)


def test_signs_give_mutual_conjugates():
    params = MetallicParams(5.0 / 6.0)
    plus = jm_field_at(J2, params, +1)
    minus = jm_field_at(J2, params, -1)
    assert np.array_equal(minus, -plus)  # the conjugate pI - J_M at p = 0


def test_round_trip_random_structures():
    rng = np.random.default_rng(3)
    for case in range(100):
        k = int(rng.choice([1, 2, 3]))
        n = 2 * k
        q = float(rng.uniform(0.1, 4.0))
        sign = (+1, -1)[case % 2]
        params = MetallicParams(q)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Jstd = np.kron(np.eye(k), J2)
        J = Q @ Jstd @ Q.T
        JM = jm_field_at(J, params, sign)
        assert polynomial_residual(JM, params) < 1e-12
        back = JM / (sign * params.coeff)
        assert max_abs(back - J) < 1e-12


def test_conjugate_involution_and_product():
    params = MetallicParams(5.0 / 6.0)
    for sign in (+1, -1):
        JM = jm_field_at(J2, params, sign)
        hat = -JM
        assert np.allclose(JM @ hat, 1.25 * np.eye(2))          # (3/2) q I with q = 5/6
        assert np.allclose(hat @ JM, 1.25 * np.eye(2))
        assert polynomial_residual(hat, params) < 1e-12


def test_check_hyperbolic_flat_skew_case():
    res = zoo.get("flat-k1").bundle.classification().residuals
    assert res["hyperbolic_direct"] < 1e-12


def test_check_hyperbolic_fails_with_the_metric_anisotropy():
    # flat-k1 with g = diag(a, 1): w = J^T g = [[0, 1], [-a, 0]], so w + w^T has a - 1 off
    # the diagonal, while the polynomial identity still holds
    bundle = anisotropic_flat_bundle(3.0)
    cls = bundle.classification()
    assert cls.residuals["hyperbolic_direct"] == pytest.approx(2.0, abs=1e-12)
    assert cls.residuals["polynomial"] < 1e-12
    assert cls.verdict == VERDICT_NONE


def test_check_hyperbolic_s6():
    res = zoo.get("s6").bundle.classification().residuals
    assert res["hyperbolic_direct"] < 1e-8


def test_hyperbolicity_quartet_vanishes_for_p_zero():
    # J, its conjugate -J, J_M and its conjugate pI - J_M = -J_M are all skew-compatible;
    # the s2 fixture's J is the constant rotation J2
    bundle = zoo.get("s2").bundle
    ctx = bundle.context(bundle.sample_points)
    for A in (J2, -J2, ctx.J, -ctx.J):
        w = np.einsum("...ti,...tm->...im", A, ctx.g)
        assert max_abs(w + np.swapaxes(w, -1, -2)) < 1e-8


def test_fundamental_form_flat():
    ctx = zoo.get("flat-k1").bundle.context(np.array([0.2, 0.3]))
    w = ctx.omega
    assert max_abs(w + w.T) < 1e-12
    # w(e0, e1) = g(J e0, e1) = +1 for the standard rotation structure
    assert w[0, 1] == pytest.approx(1.0)
    assert np.allclose(w, J2.T)  # w[i, m] = (J_M)_i^t delta_tm lays out J transposed


def test_fundamental_form_skew_on_random_vectors_s6():
    w = zoo.get("s6").bundle.context(np.zeros(6)).omega
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=6)
        assert abs(x @ w @ x) < 1e-8


def test_fundamental_form_index_round_trip():
    bundle = zoo.get("s6").bundle
    ctx = bundle.context(np.zeros(6))
    up = np.einsum("hi,lm,im->hl", ctx.ginv, ctx.ginv, ctx.omega)
    back = np.einsum("hl,hi,lm->im", up, ctx.g, ctx.g)
    assert max_abs(back - ctx.omega) < 1e-10


def test_f_tensor_zero_on_flat():
    bundle = zoo.get("flat-k2").bundle
    assert max_abs(bundle.context(np.array([0.1, 0.2, -0.3, 0.4])).F) < 1e-12


def test_f_tensor_skew_and_matches_cov_omega_s2():
    ctx = zoo.get("s2").bundle.context(np.array([0.4, -0.2]))
    F = ctx.F
    assert max_abs(F + np.einsum("ijk->ikj", F)) < 1e-5
    assert max_abs(F - ctx.cov_omega) < 1e-5


def test_f_tensor_vs_cov_omega_two_paths_s6():
    bundle = zoo.get("s6").bundle
    ctx = bundle.context(np.zeros(6))
    assert max_abs(ctx.F - ctx.cov_omega) / max(1.0, max_abs(ctx.F)) < 1e-5
    assert max_abs(ctx.F) > 0.1


def test_classify_verdicts():
    assert zoo.get("flat-k1").bundle.classification().verdict == VERDICT_KAHLER
    assert zoo.get("s6").bundle.classification().verdict == VERDICT_NEARLY
    negative = zoo.get("negative").bundle.classification()
    assert negative.verdict == VERDICT_HERMITIAN
    assert negative.residuals["max_domega"] > 1e-2
    assert not negative.nearly


def test_classify_parallel_equivalence_flag():
    for name in ("flat-k1", "torus", "s2", "s6", "negative"):
        assert zoo.get(name).bundle.classification().theorem_dN_equiv_covJ, name


def test_classify_names_the_point_of_a_nan_residual():
    """A NaN at one sample point is a located numerical failure, not a verdict (the
    builtin max keeps its first argument against a NaN, so it would drop this one)."""
    bundle = zoo.fixture_sphere2().bundle
    bad = bundle.sample_points[3]

    def jm(pts):
        out = np.array(bundle.jm(pts))
        out[np.all(pts == bad, axis=1)] = np.nan
        return out

    broken = dataclasses.replace(bundle, structure=TensorField(name="jm", fn=jm), sign=None)
    with pytest.raises(NumericalError, match=re.escape(f"is nan at point {bad.tolist()}")):
        broken.classification()


@pytest.mark.parametrize("residual,near", [(1e-10, True), (1e-8, False)])
def test_near_boundary_reads_the_number_the_row_is_judged_on(residual, near):
    """An absolute row (ricci-omega-trace-zero passes on its raw residual, with a scale of 20
    on s6) is near the boundary when its raw residual lies within [tol/10, 10 tol], whatever
    its relative residual: 1e-10 is near 1e-10 while 5e-12 is not, and 1e-8 is 100 tol while
    5e-10 is near."""
    points = np.zeros((2, 2))
    record = _result("raw", (np.array([residual, 0.0]), np.array([20.0, 1.0])), points, 1e-10,
                     absolute=True)
    tol = record.tolerance
    assert (record.max_residual, record.scale, record.judged) == (residual, 20.0, residual)
    assert (tol / 10.0 <= record.relative <= 10.0 * tol) is not near
    assert record.near_boundary is near
    assert record.passed is (residual < tol)
    relative = _result("rel", (np.array([residual, 0.0]), np.array([20.0, 1.0])), points, 1e-10)
    assert (relative.judged, relative.near_boundary) == (relative.relative, not near)
    assert record.as_dict() == dict(relative.as_dict(), id="raw", passed=record.passed)


@pytest.mark.parametrize("numbers,passed", [
    (dict(max_residual=2e-6, scale=3.0, tolerance=1e-6), True),  # relative 6.7e-7
    (dict(max_residual=4e-6, scale=3.0, tolerance=1e-6), False),  # relative 1.3e-6
    (dict(max_residual=1e-6, scale=0.5, tolerance=1e-6), False),  # relative 1e-6, not below
    (dict(max_residual=2e-6, scale=3.0, tolerance=1e-6, absolute=True), False),
    (dict(max_residual=5e-7, scale=3.0, tolerance=1e-6, absolute=True), True),
    (dict(tolerance=1.0, skipped=True, note="needs a metallic Kähler bundle"), False),
    (dict(scale=1.0, tolerance=1e-5), True),  # a constant pair's row: residual 0, unformed
], ids=["relative-below", "relative-above", "relative-at", "absolute-above", "absolute-below",
        "skipped", "constant-pair"])
def test_a_record_passes_on_its_numbers(numbers, passed):
    """`passed` is not an argument: a record passes exactly when it is evaluated and the
    number it is judged on is below its tolerance."""
    record = IdentityResult("row", **numbers)
    assert record.passed is passed
    assert record.as_dict()["passed"] is passed
    assert record.status == ("SKIP" if record.skipped else "pass" if passed else "FAIL")
    with pytest.raises(TypeError):
        IdentityResult("row", passed=not passed, **numbers)


def test_constant_pair_rows_pass_unformed():
    """On flat-k1 every classification row of a derivative is recorded without being formed:
    residual 0 and the row's constant scale, and it passes on those numbers."""
    rows = zoo.get("flat-k1").bundle.classification().rows
    for name in ("max_domega", "max_nijenhuis", "max_cov_jm", "max_sym_cov_jm"):
        assert (rows[name].max_residual, rows[name].passed) == (0.0, True), name

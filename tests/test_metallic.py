import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.geometry import NumericalError, TensorField, max_abs
from metallicgeo.metallic import (
    MetallicParams,
    VERDICT_HERMITIAN,
    VERDICT_KAHLER,
    VERDICT_NEARLY,
    VERDICT_NONE,
    jm_from_j_matrix,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def polynomial_residual(JM, params):
    eye = np.eye(JM.shape[0])
    return max_abs(JM @ JM - params.p * JM + 1.5 * params.q * eye)


def quadratic_root_oracle(p, q):
    """Independent quadratic-formula root of z^2 - p z + (3/2) q."""
    disc = cmath.sqrt(complex(p * p - 6.0 * q, 0.0))
    r1 = (p + disc) / 2.0
    r2 = (p - disc) / 2.0
    return r1 if r1.imag > 0 else r2


def test_params_admissibility():
    MetallicParams(1.0, 1.0)
    with pytest.raises(ValueError):
        MetallicParams(1.0, 0.0)
    with pytest.raises(ValueError):
        MetallicParams(3.0, 1.0)  # 9 > 6


def test_metallic_mean_golden_case():
    # the metallic mean is the root p/2 + i coeff of z^2 - p z + (3/2) q
    assert MetallicParams(1.0, 1.0).coeff == pytest.approx(math.sqrt(5.0) / 2.0)


def test_metallic_mean_reduces_to_i():
    assert MetallicParams(0.0, 2.0 / 3.0).coeff == pytest.approx(1.0)


def test_metallic_mean_against_quadratic_oracle():
    for p, q in [(2.0, 1.0), (0.5, 0.3), (-1.0, 2.0)]:
        m = complex(p / 2.0, MetallicParams(p, q).coeff)
        assert m == pytest.approx(quadratic_root_oracle(p, q), abs=1e-12)
        assert m ** 2 - p * m + 1.5 * q == pytest.approx(0.0, abs=1e-12)


def test_jm_from_j_q_two_thirds_is_identity_map():
    params = MetallicParams(0.0, 2.0 / 3.0)
    assert np.allclose(jm_from_j_matrix(J2, params, +1), J2)


def test_jm_from_j_golden_brute_force():
    params = MetallicParams(1.0, 1.0)
    JM = jm_from_j_matrix(J2, params, +1)
    expected = 0.5 * np.eye(2) + (math.sqrt(5.0) / 2.0) * J2
    assert np.allclose(JM, expected)
    # brute-force 2x2 polynomial check
    assert max_abs(JM @ JM - JM + 1.5 * np.eye(2)) < 1e-12


def test_signs_give_mutual_conjugates():
    params = MetallicParams(1.0, 1.0)
    plus = jm_from_j_matrix(J2, params, +1)
    minus = jm_from_j_matrix(J2, params, -1)
    assert np.allclose(minus, params.p * np.eye(2) - plus)


def test_round_trip_random_structures():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.choice([1, 2, 3]))
        n = 2 * k
        q = float(rng.uniform(0.1, 4.0))
        p = float(rng.uniform(-1, 1)) * 0.95 * math.sqrt(6.0 * q)
        params = MetallicParams(p, q)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Jstd = np.kron(np.eye(k), J2)
        J = Q @ Jstd @ Q.T
        JM = jm_from_j_matrix(J, params, +1)
        assert polynomial_residual(JM, params) < 1e-12
        back = (JM - (p / 2.0) * np.eye(n)) / params.coeff
        assert max_abs(back - J) < 1e-12


def test_conjugate_involution_and_product():
    params = MetallicParams(1.0, 1.0)
    JM = jm_from_j_matrix(J2, params, +1)
    hat = params.p * np.eye(2) - JM
    assert np.allclose(JM @ hat, 1.5 * np.eye(2))          # (3/2) q I with q = 1
    assert np.allclose(hat @ JM, 1.5 * np.eye(2))
    assert polynomial_residual(hat, params) < 1e-12


def test_check_hyperbolic_flat_skew_case():
    res = zoo.get("flat-k1").bundle.classification().residuals
    assert res["hyperbolic_direct"] < 1e-12 and res["hyperbolic_derived"] < 1e-12


def test_check_hyperbolic_p_nonzero_fails_with_p_scale():
    # flat bundle with p = 1: the symmetric part of w equals p * g
    from metallicgeo.zoo import fixture_flat

    fx = fixture_flat(1, q=1.0, p=1.0)
    cls = fx.bundle.classification()
    assert cls.residuals["hyperbolic_direct"] == pytest.approx(1.0, abs=1e-12)  # p * delta diagonal
    assert cls.verdict == VERDICT_NONE


def test_check_hyperbolic_s6():
    res = zoo.get("s6").bundle.classification().residuals
    assert res["hyperbolic_direct"] < 1e-8 and res["hyperbolic_derived"] < 1e-8


def test_hyperbolicity_quartet_vanishes_for_p_zero():
    # J, its conjugate -J, J_M and its conjugate pI - J_M are all skew-compatible;
    # the s2 fixture's J is the constant rotation J2
    bundle = zoo.get("s2").bundle
    ctx = bundle.context(bundle.sample_points)
    for A in (J2, -J2, ctx.J, ctx.Jhat):
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


def test_classify_skewness_equals_direct_residual():
    cls = zoo.get("negative").bundle.classification()
    assert cls.residuals["omega_skewness"] == cls.residuals["hyperbolic_direct"]


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

    broken = dataclasses.replace(bundle, jm=TensorField(name="jm", sig="ud", fn=jm))
    with pytest.raises(NumericalError, match=re.escape(f"is nan at point {bad.tolist()}")):
        broken.classification()

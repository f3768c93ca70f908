"""q is a unit: every row is computed on J = J_M / c, c = sqrt(3q/2), and scaled by c^degree.

At the default q = 2/3, c is exactly 1.0, so a wrong degree changes no
report there. The scales of the rows of `verify --suite all` at q = 1.5, the
residuals that do not vanish (those of the report-only rows, whose
coefficients mix degrees), and the q-dependent entries of a `curvature`
block are pinned to the values the engine gave when every row was still
written with J_M and explicit powers of q, to 6 significant digits: a wrong
degree moves a value by a factor of at least c = 1.5. Scales below 1e-6 and
residuals below 1e-3 (roundoff and truncation) are left out.

Scaling once also keeps roundoff from growing with q before it is judged:
where J is a signed permutation, J^2 + I is exact zeros at every q, so the
flat fixtures and s2 keep their declared verdicts at extreme q.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from metallicgeo import cli, zoo
from metallicgeo.identities import check_ricci_derivative_cycle
from oracles import kahler_quartic_bundle

# fixture -> identity id -> scale of `verify --zoo NAME --q 1.5 --suite all`, every row >= 1e-6
SCALES_AT_Q15 = {
    "s2": {
        "curvature-structure-commute": 4.0,
        "curvature-structure-pair": 9.0,
        "ricci-structure-pair(stated)": 20.25,
        "ricci-trace-form(stated)": 13.0,
        "ricci-trace-form(derived)": 8.0,
        "h-antisymmetry": 6.0,
        "star-conjugate-contraction": 13.5,
        "ricci-hyperbolic": 6.0,
        "ricci-star-hyperbolic": 13.5,
        "star-contraction-cancel": 13.5,
        "scalar-star-relation": 4.5,
        "ricci-omega-trace-zero": 4.0,
        "second-type-equals-levi-civita": 1.0,
    },
    "s6": {
        "covderiv-conjugate-exchange": 4.5,
        "covderiv-skew-adjoint": 12.0,
        "f-skew-last-args": 12.0,
        "f-structure-pair-rescale": 27.0,
        "f-nijenhuis-dw-balance": 162.0,
        "dw-cartan-cross-check": 36.0,
        "f-nearly-outer-rescale": 27.0,
        "f-nearly-double-structure": 27.0,
        "nijenhuis-covderiv-form": 18.0,
        "structure-divergence-free": 3.0,
        "h-antisymmetry": 6.0,
        "star-conjugate-contraction": 13.5,
        "divergence-ricci-chain": 24.0,
        "ricci-hyperbolic": 30.0,
        "ricci-star-hyperbolic": 13.5,
        "star-contraction-cancel": 13.5,
        "scalar-star-relation": 67.5,
        "ricci-omega-trace-zero": 20.0,
        "first-type-preserves-omega": 12.0,
        "first-type-pairing-skew": 6.0,
        "second-type-pairing-outer-skew": 18.0,
        "second-type-deformation-ratio": 3.0,
        "second-type-omega-residual": 18.0,
        "second-type-omega-is-4covomega": 48.0,
    },
    "negative": {
        "covderiv-conjugate-exchange": 0.675,
        "covderiv-skew-adjoint": 0.433697,
        "f-skew-last-args": 0.433697,
        "f-structure-pair-rescale": 0.975818,
        "f-nijenhuis-dw-balance": 0.975818,
        "dw-cartan-cross-check": 0.433697,
        "first-type-preserves-omega": 0.433697,
        "first-type-pairing-skew": 0.216848,
    },
}

# fixture -> identity id -> max_residual of the same runs, every row >= 1e-3
RESIDUALS_AT_Q15 = {
    "s2": {"ricci-structure-pair(stated)": 11.25, "ricci-trace-form(stated)": 5.0,
           "ricci-trace-form(derived)": 13.5},
    "s6": {"second-type-omega-residual": 48.0},
    "negative": {},
}

# the largest |entry| of the q-dependent entries of `curvature --zoo s6 --q 1.5` at CURVATURE_POINT
CURVATURE_POINT = "0.1,-0.2,0.15,0.05,-0.1,0.2"
CURVATURE_AT_Q15 = {"H": 4.10864, "ricci_star": 7.11111, "scalar_star": 13.5,
                    "norm_nabla_jm_sq": 54.0}

SWEEP_FIXTURES = ("flat-k1", "flat-k2", "flat-k3", "torus", "s2")
SWEEP_QS = ("1e-6", "1e9", "1e10", "1e12", "1e13", "1e20")


def report(*argv) -> dict:
    text = io.StringIO()
    with redirect_stdout(text):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0, argv
    return json.loads(text.getvalue())


@pytest.mark.parametrize("name", sorted(SCALES_AT_Q15))
def test_row_numbers_keep_their_metallic_form(name):
    rows = report("verify", "--zoo", name, "--q", "1.5", "--suite", "all")["identities"]
    scales = {r["id"]: r["scale"] for r in rows if r["scale"] >= 1e-6}
    residuals = {r["id"]: r["max_residual"] for r in rows if r["max_residual"] >= 1e-3}
    assert scales == pytest.approx(SCALES_AT_Q15[name], rel=2e-5)
    assert residuals == pytest.approx(RESIDUALS_AT_Q15[name], rel=2e-5)


def test_curvature_block_keeps_its_metallic_form():
    block = report("curvature", "--zoo", "s6", "--q", "1.5", f"--point={CURVATURE_POINT}")
    got = {key: float(np.max(np.abs(block["curvature"][key]))) for key in CURVATURE_AT_Q15}
    assert got == pytest.approx(CURVATURE_AT_Q15, rel=2e-5)


def test_cycle_rows_keep_their_metallic_form():
    """s2 has nabla S = 0, so its cycle rows are zeros whatever their coefficients; on the
    quartic Kahler bundle they close with a scale of 17.6087 at q = 1.5."""
    for row in check_ricci_derivative_cycle(kahler_quartic_bundle(1.5)):
        assert row.scale == pytest.approx(17.6087, rel=2e-5)
        assert row.relative < 1e-6


@pytest.mark.parametrize("q", SWEEP_QS)
@pytest.mark.parametrize("name", SWEEP_FIXTURES)
def test_extreme_q_keeps_the_declared_verdict(name, q):
    fx = zoo.get(name, float(q))
    for command in (["classify"], ["verify", "--suite", "all"]):
        cls = report(*command, "--zoo", name, "--q", q)["classification"]
        assert (cls["verdict"], cls["nearly"]) == (fx.expected_verdict, fx.expected_nearly)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced. Every tolerance is pinned here; nothing is deferred.
"""

import json
import random

import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.cli import main as cli_main
from metallicgeo.connections import connection_identity_results, first_type, second_type
from metallicgeo.exprdsl import parse
from metallicgeo.geometry import max_abs
from metallicgeo.identities import (
    COVDERIV,
    F_HERMITIAN,
    F_NEARLY,
    F_NIJENHUIS_BALANCE,
    NEARLY_NIJENHUIS,
    RICCI_HYPERBOLIC,
    RICCI_STAR_HYPERBOLIC,
    STAR_PACK,
    check_curvature_commutation,
    check_divergence_ricci_chain,
    check_scalar_star,
    evaluate,
)
from metallicgeo.metallic import (
    MetallicParams,
    VERDICT_HERMITIAN,
    VERDICT_KAHLER,
    VERDICT_NEARLY,
)
from oracles import commutator_residual, jm_field_at, metric_compat_residual

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_algebra_suite():
    rng = np.random.default_rng(2024)
    worst_rt, worst_poly, worst_prod = 0.0, 0.0, 0.0
    for case in range(50):
        k = (case % 3) + 1
        n = 2 * k
        q = float(rng.uniform(0.1, 4.0))
        sign = (+1, -1)[case % 2]
        params = MetallicParams(q)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        J = Q @ np.kron(np.eye(k), J2) @ Q.T
        JM = jm_field_at(J, params, sign)
        back = JM / (sign * params.coeff)
        worst_rt = max(worst_rt, max_abs(back - J))
        hat = -JM  # the conjugate pI - J_M at p = 0
        for M in (JM, hat):
            worst_poly = max(worst_poly, max_abs(M @ M + 1.5 * q * np.eye(n)))
        worst_prod = max(worst_prod, max_abs(JM @ hat - 1.5 * q * np.eye(n)),
                         max_abs(hat @ JM - 1.5 * q * np.eye(n)))
    ok = worst_rt < 1e-12 and worst_poly < 1e-12 and worst_prod < 1e-12
    report(1, "algebra suite (50 random q, both signs, k in {1,2,3})", ok,
           f"round-trip {worst_rt:.2e}, polynomial {worst_poly:.2e}, product {worst_prod:.2e}")


def test_criterion_2_classification_oracle():
    expected = {
        "flat-k1": VERDICT_KAHLER, "flat-k2": VERDICT_KAHLER, "flat-k3": VERDICT_KAHLER,
        "torus": VERDICT_KAHLER, "s2": VERDICT_KAHLER,
        "s6": VERDICT_NEARLY, "negative": VERDICT_HERMITIAN,
    }
    ok = True
    details = []
    for name, want in expected.items():
        cls = zoo.get(name).bundle.classification()
        good = cls.verdict == want
        if name == "s6":
            good = good and cls.verdict != VERDICT_KAHLER
        ok &= good
        if not good:
            details.append(f"{name}: {cls.verdict}")
    # parallel-structure biconditional at 1e-5 on the five fixture families
    for name in ("flat-k1", "torus", "s2", "s6", "negative"):
        res = zoo.get(name).bundle.classification().residuals
        lhs = res["max_domega"] < 1e-5 and res["max_nijenhuis"] < 1e-5
        rhs = res["max_cov_jm"] < 1e-5
        if lhs != rhs:
            ok = False
            details.append(f"{name}: biconditional broken")
    report(2, "classification oracle + parallel biconditional", ok, "; ".join(details))


def test_criterion_3_curvature_oracles():
    ok = True
    details = []
    s2 = zoo.get("s2").bundle
    for pt in s2.sample_points:
        ctx = s2.context(pt)
        if abs(ctx.curvature.scalar - 2.0) >= 1e-6:
            ok = False
            details.append(f"s2 scalar at {pt.tolist()}: {ctx.curvature.scalar}")
        if max_abs(ctx.curvature.ricci - ctx.g) >= 1e-5:
            ok = False
            details.append("s2 ricci != g")
    s6 = zoo.get("s6").bundle
    for pt in s6.sample_points:
        if abs(s6.context(pt).curvature.scalar - 30.0) >= 1e-4:
            ok = False
            details.append(f"s6 scalar at {pt.round(2).tolist()}")
    for name in ("flat-k1", "flat-k2", "flat-k3", "torus"):
        b = zoo.get(name).bundle
        for pt in b.sample_points:
            pack = b.context(pt).curvature
            if max_abs(pack.Rdown) >= 1e-8 or abs(pack.scalar) >= 1e-8:
                ok = False
                details.append(f"{name} curvature not flat at {pt.tolist()}")
    report(3, "curvature oracles (S2: 2 and Ricci=g; S6: 30; flat: 0)", ok, "; ".join(details))


def test_criterion_4_metallic_identity_suite_on_s2():
    ok = True
    details = []
    for q in (2.0 / 3.0, 2.0):
        bundle = zoo.get("s2", q).bundle
        results = (evaluate(bundle, COVDERIV + F_HERMITIAN + F_NIJENHUIS_BALANCE)
                   + check_curvature_commutation(bundle))
        for r in results:
            if r.skipped or r.relative >= 1e-4:
                ok = False
                details.append(f"q={q:g} {r.id}: rel={r.relative:.2e}")
    report(4, "metallic identity suite on S2, q in {2/3, 2}, rel < 1e-4", ok, "; ".join(details))


def test_criterion_5_nearly_identity_suite_on_s6():
    bundle = zoo.get("s6").bundle
    ok = True
    details = []

    def need(cond, label):
        nonlocal ok
        if not cond:
            ok = False
            details.append(label)

    for r in evaluate(bundle, F_NEARLY):
        need((not r.skipped) and r.relative < 1e-5, f"{r.id} rel")
    nij = {r.id: r for r in evaluate(bundle, NEARLY_NIJENHUIS)}
    cross = nij["nijenhuis-covderiv-form"]
    need(cross.relative < 1e-5, "nijenhuis cross-pipeline")
    need(cross.scale > 0.1, "nijenhuis term norms > 0.1")
    chain = check_divergence_ricci_chain(bundle)
    need(chain.relative < 1e-4, "divergence-ricci chain")
    need(evaluate(bundle, RICCI_HYPERBOLIC)[0].relative < 1e-4, "ricci hyperbolic")
    star_hyp = {r.id: r for r in evaluate(bundle, RICCI_STAR_HYPERBOLIC)}
    need(star_hyp["ricci-star-hyperbolic"].relative < 1e-4, "ricci* hyperbolic")
    star = {r.id: r for r in evaluate(bundle, STAR_PACK)}
    need(star["star-conjugate-contraction"].relative < 1e-8, "conjugate contraction (algebraic)")
    scal = {r.id: r for r in check_scalar_star(bundle)}
    need(scal["scalar-star-relation"].relative < 1e-3, "scalar* relation")
    need(scal["ricci-omega-trace-zero"].max_residual < 1e-10, "S w mixed trace")
    report(5, "nearly identity suite on S6 (q = 2/3)", ok, "; ".join(details))


def test_criterion_6_connection_suite():
    ok = True
    details = []

    def need(cond, label):
        nonlocal ok
        if not cond:
            ok = False
            details.append(label)

    for name in ("s2", "s6"):
        res = {r.id: r for r in connection_identity_results(zoo.get(name).bundle)}
        need(res["first-type-preserves-omega"].relative < 1e-5, f"{name} first w")
        need(res["first-type-metric-theorem"].relative < 1e-5, f"{name} metric theorem")
    for name in ("flat-k1", "flat-k2", "torus", "s2"):
        bundle = zoo.get(name).bundle
        for pt in bundle.sample_points[:3]:
            d1 = max_abs(first_type(bundle, pt))
            d2 = max_abs(second_type(bundle, pt))
            need(d1 < 1e-8 and d2 < 1e-8, f"{name} connections != Levi-Civita")
    s6 = zoo.get("s6").bundle
    gap = 0.0
    for pt in s6.sample_points:
        gap = max(gap, max_abs(second_type(s6, pt) + 3.0 * first_type(s6, pt)))
    need(gap < 1e-10, f"deformation ratio gap {gap:.2e}")
    report(6, "connection suite (first-type w and metric theorem; ratio -3)", ok,
           "; ".join(details))


def test_criterion_7_numerics():
    ok = True
    details = []
    for name, pt in (("s2", np.array([0.3, -0.2])),
                     ("s6", np.array([0.1, -0.2, 0.05, 0.15, -0.1, 0.2]))):
        g = zoo.get(name).bundle.g
        r1 = metric_compat_residual(g, pt, h=0.02)
        r2 = metric_compat_residual(g, pt, h=0.01)
        if r1 / r2 < 3.0:
            ok = False
            details.append(f"{name} convergence ratio {r1 / r2:.2f}")
    resid = commutator_residual(zoo.get("s2").bundle, np.array([0.2, -0.3]))
    if resid >= 1e-4:
        ok = False
        details.append(f"commutator residual {resid:.2e}")
    report(7, "numerics (step halving >= 3x; commutation check < 1e-4)", ok, "; ".join(details))


def _random_safe_expr(rng, depth):
    if depth == 0:
        return rng.choice([repr(rng.uniform(-2, 2)), f"x{rng.randrange(4)}", "pi"])
    a = _random_safe_expr(rng, depth - 1)
    b = _random_safe_expr(rng, depth - 1)
    return rng.choice([
        f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"(-{a})",
        f"sin({a})", f"cos({b})", f"({a} / (1 + ({b})^2))", f"sqrt(1 + ({a})^2)",
    ])


def test_criterion_8_parser_and_cli():
    ok = True
    details = []
    rng = random.Random(99)
    for _ in range(100):
        src = _random_safe_expr(rng, rng.randrange(1, 4))
        e1 = parse(src)
        e2 = parse(e1.render())
        for _ in range(5):
            ptv = tuple(rng.uniform(-1, 1) for _ in range(4))
            v1, v2 = e1.eval(ptv), e2.eval(ptv)
            if not (v2 == pytest.approx(v1, rel=1e-15, abs=1e-300)):
                ok = False
                details.append(f"round trip drift for {src!r}")
    # deterministic JSON for a fixed seed (timing excluded)
    import io
    from contextlib import redirect_stdout

    dumps = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["verify", "--zoo", "torus", "--suite", "metallic",
                             "--format", "json", "--seed", "7"])
        if code != 0:
            ok = False
            details.append("verify exit code")
        data = json.loads(buf.getvalue())
        data.pop("timing_s")
        dumps.append(json.dumps(data))
    if dumps[0] != dumps[1]:
        ok = False
        details.append("JSON not deterministic")
    # exit-code contract on a malformed spec
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        bad = os.path.join(td, "bad.spec")
        with open(bad, "w") as fh:
            fh.write("dimension = 2\nbounds = -1 1, -1 1\nstructure = JM\njm[0][0] = 4/(1 +\n")
        import contextlib

        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            code = cli_main(["classify", bad])
        if code != 2:
            ok = False
            details.append(f"malformed spec exit {code}")
    report(8, "parser property, spec round trip, deterministic JSON, exit codes", ok,
           "; ".join(details))

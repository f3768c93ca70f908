import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tomllib
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import metallicgeo
from metallicgeo import cli, connections, diffcalc, identities, metallic, zoo
from metallicgeo.cli import main, make_parser, report_json
from metallicgeo.metallic import Tolerances
from metallicgeo.specfile import build_bundle, parse_spec, spec_sha256

S2XS2 = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "s2xs2.spec"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_zoo_s6(capsys):
    code, out, _ = run(capsys, "classify", "--zoo", "s6")
    assert code == 0
    assert "nearly metallic Kähler" in out


def test_classify_zoo_flat(capsys):
    code, out, _ = run(capsys, "classify", "--zoo", "flat-k1")
    assert code == 0
    assert "metallic Kähler" in out


# the d1 residuals of the negative fixture are max_domega = max_cov_jm = 0.289,
# max_nijenhuis = 0.3 and max_sym_cov_jm = 0.578; a residual r is near the boundary when
# tol/10 <= r <= 10 tol, so max_nijenhuis is flagged for 0.03 <= tol <= 3
@pytest.mark.parametrize("tol_d1,near", [
    ("1e-05", []),
    ("0.0295", ["max_domega", "max_cov_jm"]),
    ("0.0305", ["max_domega", "max_nijenhuis", "max_cov_jm"]),
    ("2.95", ["max_nijenhuis", "max_sym_cov_jm"]),
    ("3.05", ["max_sym_cov_jm"]),
])
def test_near_boundary_residuals_on_both_sides_of_each_edge(tol_d1, near, capsys):
    code, out, _ = run(capsys, "classify", "--zoo", "negative", "--tol-d1", tol_d1,
                       "--format", "json")
    cls = json.loads(out)["classification"]
    assert code == 0
    assert cls["residuals"]["max_nijenhuis"] == pytest.approx(0.3)
    assert cls["near_boundary"] == near
    code, out, _ = run(capsys, "classify", "--zoo", "negative", "--tol-d1", tol_d1)
    lines = [line for line in out.splitlines() if line.startswith("near-boundary residuals")]
    assert (code, lines) == (0, ["near-boundary residuals: " + ", ".join(near)] if near else [])


def test_report_version_is_the_package_version(capsys):
    """A report's `version`, its one schema marker, is the package's own version, and the
    packaging metadata states the same."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == metallicgeo.__version__
    code, out, _ = run(capsys, "classify", "--zoo", "flat-k1", "--format", "json")
    assert (code, json.loads(out)["version"]) == (0, metallicgeo.__version__)


def test_classify_malformed_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("dimension = 2\nbounds = -1 1, -1 1\nstructure = JM\njm[0][0] = sin(x0\n")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "offset" in err


# at the default q = 2/3 the coefficients 3q/2, 2/(3q) and sqrt(6q)/2 are all exactly 1.0,
# so a dropped factor of q shows only at another q
OTHER_Q = pytest.mark.parametrize("extra", [[], ["--q", "1.5", "--suite", "all"]],
                                  ids=["default-q", "q-1.5"])


@OTHER_Q
def test_verify_s2_metallic_all_pass(extra, capsys):
    code, out, _ = run(capsys, "verify", "--zoo", "s2", "--suite", "metallic", *extra)
    assert code == 0
    assert "0 failed" in out


@OTHER_Q
def test_verify_s6_nearly_all_pass(extra, capsys):
    code, out, _ = run(capsys, "verify", "--zoo", "s6", "--suite", "nearly", *extra)
    assert code == 0
    assert "0 failed" in out


def test_verify_negative_skips_are_not_failures(capsys):
    code, out, _ = run(capsys, "verify", "--zoo", "negative", "--suite", "metallic")
    assert code == 0
    assert "SKIP" in out


def test_verify_exit_1_when_an_asserted_check_fails(capsys, tmp_path):
    # force a failure by making the curvature tolerance absurdly tight
    # (tightening d1 would change the classification gates instead)
    code, out, _ = run(capsys, "verify", "--zoo", "s6", "--suite", "nearly",
                       "--tol-d2", "1e-18")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("q", ["1.5", "0.3"])
def test_q_applies_to_a_spec_file(q, tmp_path, capsys):
    """--q replaces a spec file's own q, as it does a zoo fixture's: s2's spec text in a file
    gives the `--zoo s2` report at the same q, apart from the source and the timing."""
    path = tmp_path / "s2.spec"
    path.write_text(zoo.get("s2").spec_text, encoding="utf-8")
    reports = []
    for source in (["--zoo", "s2"], [str(path)]):
        code, out, _ = run(capsys, "verify", *source, "--q", q, "--suite", "all", "--format", "json")
        assert code == 0
        report = json.loads(out)
        del report["source"], report["timing_s"]
        reports.append(report)
    assert reports[0]["params"]["q"] == float(q)
    assert reports[0] == reports[1]


def test_curvature_s2_origin(capsys):
    code, out, _ = run(capsys, "curvature", "--zoo", "s2", "--point", "0,0")
    assert code == 0
    assert "2" in out.split("scalar curvature:")[1].splitlines()[0]


def test_curvature_flat_zeros(capsys):
    code, out, _ = run(capsys, "curvature", "--zoo", "flat-k1", "--point", "0.3,0.4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["curvature"]["scalar"] == 0.0


def test_curvature_s6_scalar_30(capsys):
    code, out, _ = run(capsys, "curvature", "--zoo", "s6", "--point", "0,0,0,0,0,0",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["curvature"]["scalar"] - 30.0) < 1e-4
    assert abs(data["curvature"]["scalar_star"] - 6.0) < 1e-4
    assert abs(data["curvature"]["norm_nabla_jm_sq"] - 24.0) < 1e-4


def test_curvature_point_outside_chart_exit_3(capsys):
    code, _, err = run(capsys, "curvature", "--zoo", "s2", "--point", "5,5")
    assert code == 3
    assert "chart" in err or "boundary" in err
    code, _, err = run(capsys, "curvature", "--zoo", "s2", "--point", "5,0")
    assert code == 3
    assert "outside the chart" in err


@pytest.mark.parametrize("value", ["abc", "0.1", "0.1,0.2,0.3"])
def test_curvature_malformed_point_exit_2(value, capsys):
    code, out, err = run(capsys, "curvature", "--zoo", "s2", "--point", value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value,message", [
    ("a,0.1", "error: --point needs comma-separated numbers\n"),
    ("0.1", "error: point has 1 coordinates, chart dimension is 2\n"),
], ids=["not-a-number", "one-coordinate"])
def test_curvature_malformed_point_message(value, message, capsys):
    assert run(capsys, "curvature", "--zoo", "s2", f"--point={value}") == (2, "", message)


# a sample policy of 40^6 grid points (dimension 6) or 10^12 random points made numpy fail to
# allocate the sample points (183 GiB, 14.6 TiB), a MemoryError with a traceback, exit 1
@pytest.mark.parametrize("name,old,new,count", [
    ("flat-k3", "grid = 1\n", "grid = 40\n", 40**6 + 8 + 1),
    ("s2", "random_points = 4\n", "random_points = 1000000000000\n", 3**2 + 10**12 + 1),
], ids=["grid-40-dimension-6", "random-points-1e12"])
def test_oversized_sample_policy_exit_2(name, old, new, count, tmp_path, capsys):
    text = zoo.get(name).spec_text
    assert old in text
    path = tmp_path / f"{name}.spec"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: sample policy must yield at most 4096 points, got {count}\n")


@pytest.mark.parametrize("value", ["-0.18,-0.18", "-.18,0.2"])
def test_curvature_point_with_negative_first_coordinate(value, capsys):
    reports = []
    for point_args in (["--point", value], [f"--point={value}"]):
        code, out, err = run(capsys, "curvature", "--zoo", "s2", *point_args, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        report.pop("timing_s")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["point"] == [float(v) for v in value.split(",")]


def test_text_curvature_leaves_numpy_print_options_alone(capsys):
    """The text output sets its own precision, whatever numpy's options are, and restores them."""
    argv = ("curvature", "--zoo", "s2", "--point", "0.1,-0.2")
    before = np.get_printoptions()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and np.get_printoptions() == before
    with np.printoptions(precision=2, suppress=True):
        inside = np.get_printoptions()
        assert run(capsys, *argv)[1] == out
        assert np.get_printoptions() == inside
    # Ricci = g on s2: 4 / (1 + |x|^2)^2 = 3.6281179... at this point, printed to 6 decimals
    assert "ricci:\n[[3.628118 0.      ]\n" in out


SPEC_2D = (
    "dimension = {dim}\nq = {q}\nbounds = {bounds}\nstructure = JM\n"
    "g[0][0] = {g00}\ng[1][1] = 1\njm[0][1] = -1\njm[1][0] = 1\n"
)
GOOD = dict(dim=2, q="0.6666666666666666", bounds="-1 1, -1 1", g00="1")
GOOD_SPEC = SPEC_2D.format(**GOOD)
P_REASON = ("line 9, offset 5: p must be 0: a skew fundamental form needs tr J_M = 0, and the"
            " polynomial gives tr J_M = p\u00b7dimension/2")
OWN_STEP_TOO_BIG = "margin = 0.09\nh = 0.5\n"  # h2 = 0.5^(5/6) = 0.561 reaches past the margin
# a metric defined only on |x0| <= 1: a stencil that leaves the chart evaluates it outside
DISK = (
    "dimension = 2\nq = 0.6666666666666666\nbounds = -1 1, -1 1\nmargin = 0.1\n"
    "structure = J\nsign = +\ng[0][0] = 1 + sqrt(1 - x0^2)\ng[1][1] = 1 + sqrt(1 - x0^2)\n"
    "j[0][1] = -1\nj[1][0] = 1\n"
)
NESTED_TOO_DEEP = "line 5, offset {}: parse error at offset {}: expected nesting at most 100 deep"
# 2998 x0 then 1e308 + 1e308: the last + overflows, and its sub-expression is the whole chain
LONG_CHAIN = "+".join(["x0"] * 2998 + ["1e308"] * 2)
LONG_CHAIN_TEXT = "(" * 2999 + "x0 + x0)" + " + x0)" * 2996 + " + 1e+308)" * 2
S2_TIMES_1E307 = re.sub(r"^(g\[\d\]\[\d\] = )", r"\g<1>1e307*", zoo.get("s2").spec_text,
                        flags=re.M)


@pytest.mark.parametrize("spec,argv,code,message", [
    (dict(GOOD, g00="ln(x0)"), [], 3, "ln(x0)"),
    (dict(GOOD, dim=3, bounds="-1 1, -1 1, -1 1"), [], 2, "even integer"),
    (dict(GOOD, q="-1"), [], 2, "q must be strictly positive"),
    (None, ["classify", "--zoo", "s2", "--q", "-1"], 2, "q must be strictly positive"),
    (None, ["verify", "--zoo", "s2", "--h", "0.05"], 2, "half the chart margin"),
    # h2 = 0.05005: the jet's axis nodes at 2 h2 = 0.1001 would leave the chart, where the
    # metric is undefined (at --h 0.027 the jet reaches 0.0986, and verify runs)
    (DISK, ["verify", "SPEC", "--suite", "all", "--h", "0.0275"], 2, "the jet reaches 0.100109"),
    (dict(GOOD, g00="1 + (3 + x0)^700"), [], 3,
     "non-finite value in sub-expression '((3.0 + x0) ^ 700.0)' at point [0.0, -0.95]"),
    (dict(GOOD, g00="1e200 * 1e200 * (1 + x0^2)"), [], 3,
     "non-finite value in sub-expression '(1e+200 * 1e+200)' at point [-0.95, -0.95]"),
    # a constant field is evaluated once, at the first sample point
    (dict(GOOD, g00="1/(1-1)"), [], 3,
     "division by zero in sub-expression '(1.0 / (1.0 - 1.0))' at point [-0.95, -0.95]"),
    (dict(GOOD, g00="1 + 1e400*0"), [], 2, "line 5, offset 15: parse error at offset 5:"
                                           " expected a finite number, not '1e400'"),
    (dict(GOOD, g00="1 + x0\u00b2"), [], 2, "line 5, offset 17: parse error at offset 7:"
                                             " expected a valid token, not '\u00b2'"),
    (dict(GOOD, g00="1 + x0 + \u0663"), [], 2, "line 5, offset 20: parse error at offset 10:"
                                               " expected a valid token, not '\u0663'"),
    (dict(GOOD, bounds="-1 nan, -1 1"), [], 2, "bounds must be finite"),
    (dict(GOOD, bounds="-1 inf, -1 1"), [], 2, "bounds must be finite"),
    (GOOD_SPEC + "margin = nan\n", [], 2, "margin must be positive"),
    (GOOD_SPEC + "h = nan\n", [], 2, "step h must be positive and finite, got nan"),
    (GOOD_SPEC + "h = 0\n", [], 2, "step h must be positive and finite, got 0"),
    (None, ["verify", "--zoo", "s2", "--h", "nan"], 2, "step h must be positive and finite"),
    # (h2/2)^3 underflows, so the order-3 jet weights are inf: the cycle rows were NaN, exit 3
    (None, ["verify", "--zoo", "s2", "--h", "1e-130"], 2,
     "step h=1e-130 is too small: the jet weights at h2=4.64159e-109 are not finite"),
    (GOOD_SPEC + "tol_d3 = -1\n", [], 2, "tolerance d3 must be positive and finite"),
    (None, ["verify", "--zoo", "s2", "--tol-d1", "-1"], 2, "tolerance d1 must be positive"),
    (None, ["verify", "--zoo", "s2", "--tol-d1", "0"], 2, "tolerance d1 must be positive"),
    (None, ["verify", "--zoo", "s2", "--tol-d1", "nan"], 2, "tolerance d1 must be positive"),
    (None, ["verify", "--zoo", "s2", "--seed", "-1"], 2, "seed must be non-negative, got -1"),
    # flat-k1 draws no random point, so its seed is checked for its own sake
    (None, ["classify", "--zoo", "flat-k1", "--seed", "-1"], 2,
     "seed must be non-negative, got -1"),
    (None, ["verify", "--zoo", "s2", "--q", "inf"], 2, "q must be strictly positive and finite"),
    # 6q overflows; (3q/2)^2, which the Ricci pair rows form, overflows; the roundoff of
    # J^2 + I on s6, whose J is no signed permutation, times c^2 = 3q/2 exceeds the absolute
    # algebraic tier (s2's J^2 + I is exact zeros, so s2 passes at this q)
    (None, ["classify", "--zoo", "s2", "--q", "1e308"], 2, "with (3q/2)^2 finite, got 1e+308"),
    (None, ["classify", "--zoo", "s2", "--q", "1e307"], 2, "with (3q/2)^2 finite, got 1e+307"),
    # the fixture's self-check runs by its own tiers, before --tol-alg reaches the run
    (None, ["classify", "--zoo", "s6", "--q", "1e10", "--tol-alg", "1"], 3,
     "fixture s6 at q = 1e+10: polynomial identity fails by the fixture's own tolerances"
     " (--tol-* applies only after this self-check)"),
    # 2/(3q) overflows: the Ricci pair and chain rows were NaN, with a RuntimeWarning, exit 3
    (None, ["verify", "--zoo", "s2", "--q", "1e-320"], 2,
     "q is too small: 2/(3q) is not finite, got 9.99989e-321"),
    # Hadamard's bound underflows to 0 and g^-1 holds inf: g @ g^-1 warned and held NaN, and
    # max_cov_jm was blamed for it
    (dict(GOOD, g00="1e-320"), ["verify", "SPEC", "--suite", "all"], 3,
     "singular metric (|det g| <= 1e-10 x product of its row norms) at point [-0.95, -0.95]"),
    (SPEC_2D.format(**dict(GOOD, dim=4, bounds="-1 1, -1 1, -1 1, -1 1")) + "point a = 0.1 0.2\n",
     [], 2, "line 9, offset 11: named point 'a' needs 4 coordinates, got 2"),
    (GOOD_SPEC + "point a = 0.1\n", [], 2,
     "line 9, offset 11: named point 'a' needs 2 coordinates, got 1"),
    (GOOD_SPEC + "grid = -3\n", [], 2, "grid must be non-negative, got -3"),
    (GOOD_SPEC + "seed = -1\n", [], 2, "seed must be non-negative, got -1"),
    (GOOD_SPEC + "random_points = -1\n", [], 2, "random_points must be non-negative, got -1"),
    (GOOD_SPEC + "seed = 1e3\n", [], 2, "line 9, offset 8: expected an int, got '1e3'"),
    (GOOD_SPEC + "point a = 5 5\n", [], 2,
     "line 9, offset 11: named point 'a' is not inside the chart margin"),
    # a later value silently replaced the first: g[0][0] = 0 gave a singular metric, exit 3
    (GOOD_SPEC + "g[0][0] = 0\n", [], 2,
     "line 9, offset 1: repeated key 'g[0][0]', first given on line 5"),
    (GOOD_SPEC + "jm[1][0] = 2\n", [], 2,
     "line 9, offset 1: repeated key 'jm[1][0]', first given on line 8"),
    (GOOD_SPEC + "point a = 0.1 0.2\npoint a = 0.3 0.4\n", [], 2,
     "line 10, offset 1: repeated key 'point a', first given on line 9"),
    (GOOD_SPEC + "q = 1.5\n", [], 2, "line 9, offset 1: repeated key 'q', first given on line 2"),
    # the engine takes p = 0, so any other value, however small, names its line and the reason
    (GOOD_SPEC + "p = 0.5\n", [], 2, P_REASON),
    (GOOD_SPEC + "p = -1e-9\n", [], 2, P_REASON),
    # the run's bundle is built with the run's settings only: the spec's own step, too large
    # for its margin, is never checked against it when --h replaces it
    (GOOD_SPEC + OWN_STEP_TOO_BIG, ["classify", "SPEC", "--h", "1e-3"], 0, ""),
    (GOOD_SPEC + OWN_STEP_TOO_BIG, [], 2,
     "step h2=0.561231 must stay below half the chart margin 0.09"),
    # numpy warned three times (overflow in the Christoffel symbols, in a contraction and in
    # Riemann) before this line; under `python -W error` the run ended in a traceback
    (S2_TIMES_1E307, ["verify", "SPEC"], 3,
     "residual of curvature-structure-commute is nan at point [-0.81, -0.81]"),
    (GOOD_SPEC + "grid 3\n", [], 2, "line 9, offset 7: expected 'key = value'"),
    (dict(GOOD, q=""), [], 2, "line 2, offset 5: missing value for 'q'"),
    (dict(GOOD, bounds="-1 1, -1 1, -1 1"), [], 2, "bounds must list 2 pairs"),
    (GOOD_SPEC.replace("jm[", "j["), [], 2, "structure = JM but entries use another key"),
    (GOOD_SPEC.replace("jm[0][1] = -1\njm[1][0] = 1\n", ""), [], 2,
     "no structure components given"),
    (GOOD_SPEC + "g[0][2] = 1\n", [], 2, "component index [0][2] outside dimension 2"),
    (dict(GOOD, g00="x0 x1"), [], 2,
     "line 5, offset 14: parse error at offset 4: expected end of input or an operator"),
    (dict(GOOD, g00="sin + 1"), [], 2,
     "line 5, offset 15: parse error at offset 5: expected '(' after function 'sin'"),
    (dict(GOOD, g00="(x0 - x0)^(-1)"), [], 3,
     "negative power of zero in sub-expression '((x0 - x0) ^ (-1.0))' at point [-0.95, -0.95]"),
    # the checked fixture's bundle at q, self-checked with the negative control's margin
    (None, ["classify", "--zoo", "negative", "--q", "1e-6"], 3,
     "negative fixture at q = 1e-06 is not negative enough"),
    # each of these ended in a RecursionError traceback, exit 1
    (dict(GOOD, g00="(" * 3000 + "1" + ")" * 3000), [], 2, NESTED_TOO_DEEP.format(111, 101)),
    (dict(GOOD, g00="-" * 3000 + "1"), [], 2, NESTED_TOO_DEEP.format(111, 101)),
    (dict(GOOD, g00="^".join(["1"] * 3000)), [], 2, NESTED_TOO_DEEP.format(212, 202)),
    (dict(GOOD, g00=LONG_CHAIN), [], 3, f"numerical failure: non-finite value in sub-expression"
                                        f" '{LONG_CHAIN_TEXT}' at point [-0.95, -0.95]\n"),
], ids=["ln-domain", "odd-dimension", "negative-q-spec", "negative-q-zoo", "step-too-big",
        "jet-too-big", "power-overflow", "product-overflow", "constant-domain", "literal-overflow",
        "superscript-digit", "non-ascii-digit",
        "nan-bound", "infinite-bound", "nan-margin", "nan-step-spec", "zero-step-spec",
        "nan-step-flag", "tiny-step-flag", "negative-tolerance-spec", "negative-tolerance-flag",
        "zero-tolerance-flag", "nan-tolerance-flag", "negative-seed", "negative-seed-random-free",
        "infinite-q",
        "q-1e308", "q-1e307", "q-1e10", "q-1e-320", "subnormal-metric", "short-point-4d", "short-point-2d", "negative-grid",
        "negative-seed-spec", "negative-random-points-spec", "float-seed-spec",
        "point-outside-margin", "repeated-metric-entry", "repeated-structure-entry",
        "repeated-point", "repeated-setting", "nonzero-p", "tiny-nonzero-p",
        "own-step-overridden", "own-step-too-big", "metric-overflow", "no-equals-sign",
        "missing-value", "extra-bounds-pair", "structure-key-mismatch", "no-structure-entries",
        "index-outside-dimension", "two-operands", "function-without-call", "zero-to-negative-power",
        "negative-not-negative-enough", "deep-parentheses", "deep-unary-minus", "deep-power",
        "long-chain-overflow"])
def test_bad_input_exit_code_without_traceback(spec, argv, code, message, tmp_path, capsys):
    if spec is not None:
        path = tmp_path / "bad.spec"
        path.write_text(spec if isinstance(spec, str) else SPEC_2D.format(**spec), encoding="utf-8")
        argv = [str(path) if a == "SPEC" else a for a in argv] or ["classify", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *argv)
    assert got == code
    assert message in err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    assert [str(w.message) for w in caught] == []
    if code == 3:
        assert err.startswith("numerical failure:")


@pytest.mark.parametrize("tier", [tier.name for tier in fields(Tolerances)])
def test_every_tier_is_a_flag_and_a_spec_key(tier, tmp_path, capsys):
    """Each field of `Tolerances` is a --tol-TIER flag and a tol_TIER spec key, and both
    reach the same check."""
    path = tmp_path / "bad.spec"
    path.write_text(GOOD_SPEC + f"tol_{tier} = -1\n", encoding="utf-8")
    for argv in (["verify", "--zoo", "s2", f"--tol-{tier}", "-1"], ["verify", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"tolerance {tier} must be positive and finite, got -1" in err


def test_tol_d3_judges_the_scalar_star_relation(capsys):
    """The paper's nearly-Kähler relation S* = S - |nabla J|^2 is the one asserted d3 row of
    the nearly suite on s6: a d3 tier below its residual fails it and nothing else."""
    code, out, err = run(capsys, "verify", "--zoo", "s6", "--suite", "nearly", "--tol-d3",
                         "1e-18", "--format", "json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["identities"]
    assert [r["id"] for r in rows if r["asserted"] and not r["passed"] and not r["skipped"]] == [
        "scalar-star-relation"]
    assert [r["tolerance"] for r in rows if r["id"] == "scalar-star-relation"] == [1e-18]


def test_an_entry_of_600_terms_classifies(tmp_path, capsys):
    """A polynomial entry of 600 terms, sum of (x0/2)^k for k < 600, is a chain of 599 +
    steps: it evaluates to its closed form (1 - (x0/2)^600) / (1 - x0/2) and classifies with
    exit 0. The tree walk recursed once per + and ended in a RecursionError, exit 1."""
    poly = "+".join(["1"] + [f"x0^{k}/2^{k}" for k in range(1, 600)])
    text = SPEC_2D.format(**dict(GOOD, g00=poly)).replace("g[1][1] = 1", f"g[1][1] = {poly}")
    x0 = np.linspace(-0.95, 0.95, 21)
    g = parse_spec(text).g_field(np.stack([x0, np.zeros_like(x0)], axis=1))
    closed = (1 - (x0 / 2) ** 600) / (1 - x0 / 2)
    assert g[:, 0, 0] == pytest.approx(closed, rel=1e-14, abs=0)
    assert np.array_equal(g[:, 1, 1], g[:, 0, 0])
    path = tmp_path / "poly.spec"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "classify", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["classification"]["verdict"] == metallic.VERDICT_KAHLER


def scaled_metric(name: str, factor: str, tmp_path) -> str:
    """A spec file holding zoo fixture `name`'s text with each metric entry times `factor`."""
    path = tmp_path / f"{name}-x{factor}.spec"
    path.write_text(re.sub(r"^(g\[\d\]\[\d\] = )", rf"\g<1>{factor}*", zoo.get(name).spec_text,
                           flags=re.M), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name,factor", [("flat-k2", "1e80"), ("flat-k2", "1e-90"),
                                         ("torus", "1e160"), ("torus", "1e300")])
def test_a_homothety_of_a_kahler_metric_stays_metallic_kahler(name, factor, tmp_path, capsys):
    """g -> c g keeps a metallic Kähler pair metallic Kähler, with no RuntimeWarning. The
    singularity test of g^-1 divides each row by its largest |entry| first; on the raw rows
    |det g| or the product of the row norms overflowed or underflowed, and each of these
    metrics was called singular at its first point (exit 3)."""
    spec = scaled_metric(name, factor, tmp_path)
    for argv in (["classify"], ["verify", "--suite", "all"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv[0], spec, *argv[1:], "--format", "json")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["classification"]["verdict"] == metallic.VERDICT_KAHLER, argv


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_curvature_value_that_is_not_finite_names_its_point(fmt, tmp_path, capsys):
    """Every number of the curvature block is checked before the report is written: on s2 with
    g x 1e307 the lowered Riemann tensor overflows, and the run exits 3 naming it and the
    point, where it wrote 34 NaN tokens with exit 0."""
    spec = scaled_metric("s2", "1e307", tmp_path)
    code, out, err = run(capsys, "curvature", spec, "--point=0.2,0.1", "--format", fmt)
    assert (code, out) == (3, "")
    assert err == "numerical failure: curvature riemann_lowered is nan at point [0.2, 0.1]\n"


def test_curvature_symmetry_residual_that_is_not_finite_names_its_point(monkeypatch, capsys):
    """The symmetry residuals are numbers of the curvature block too: one that is not finite
    exits 3 naming them and the point."""
    residuals = diffcalc.CurvaturePack.symmetry_residuals
    monkeypatch.setattr(diffcalc.CurvaturePack, "symmetry_residuals",
                        lambda pack: dict(residuals(pack), pair_symmetry=math.inf))
    code, out, err = run(capsys, "curvature", "--zoo", "s2", "--point=0.1,-0.2")
    assert (code, out) == (3, "")
    assert err == "numerical failure: curvature symmetry_residuals is inf at point [0.1, -0.2]\n"


@pytest.mark.parametrize("value", ["0", "0.0", "-0.0"])
def test_zero_p_is_accepted(value, tmp_path, capsys):
    """The engine takes p = 0, which a spec may spell as it likes; any other value is a parse
    error (test_bad_input_exit_code_without_traceback)."""
    path = tmp_path / "p.spec"
    path.write_text(GOOD_SPEC + f"p = {value}\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    assert '"p": 0.0,' in out and json.loads(out)["params"]["p"] == 0.0


# bounds +-0.01 with margin 0.005: the default step, h2 = 0.00316, leaves the chart
TINY = (
    "dimension = 2\nq = 0.6666666666666666\nbounds = -0.01 0.01, -0.01 0.01\nmargin = 0.005\n"
    "random_points = 2\nstructure = J\nsign = +\ng[0][0] = 1 + x0^2\ng[1][1] = 1 + x0^2\n"
    "j[0][1] = -1\nj[1][0] = 1\n"
)


def test_command_line_settings_replace_the_spec_settings_before_the_chart_check(tmp_path, capsys):
    """--h, --seed and --tol-* give the report that the same settings written in the spec
    give: the spec's own step, which does not fit the chart, is never checked."""
    flags, in_file = tmp_path / "flags.spec", tmp_path / "in-file.spec"
    flags.write_text(TINY)
    in_file.write_text(TINY + "h = 1e-4\nseed = 5\ntol_d1 = 2e-5\ntol_d3 = 2e-3\n")
    code, _, err = run(capsys, "classify", str(flags))
    assert code == 2 and "must stay below half the chart margin" in err
    reports = []
    for argv in ([str(flags), "--h", "1e-4", "--seed", "5", "--tol-d1", "2e-5", "--tol-d3", "2e-3"],
                 [str(in_file)]):
        code, out, err = run(capsys, "verify", *argv, "--suite", "all", "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        del report["timing_s"], report["source"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert (reports[0]["seed"], reports[0]["scheme"]["h1"], reports[0]["tolerances"]["d1"],
            reports[0]["tolerances"]["d3"]) == (5, 1e-4, 2e-5, 2e-3)


# g is defined for x0 >= -0.6710630390134659 only: the spec's seed, 42, samples a point with
# x0 = -0.771, seed 4 none below x0 = -0.132
HALF_PLANE = (
    "dimension = 2\nq = 0.6666666666666666\nbounds = -1 1, -1 1\ngrid = 0\nrandom_points = 8\n"
    "structure = J\nsign = +\ng[0][0] = 1 + sqrt(x0 - (-0.6710630390134659))\n"
    "g[1][1] = 1 + sqrt(x0 - (-0.6710630390134659))\nj[0][1] = -1\nj[1][0] = 1\n"
)


def test_spec_fields_are_evaluated_only_where_the_command_reads_them(tmp_path, capsys):
    """A run reads the metric at its own sample points or around its point, never at the
    sample points of the spec's seed."""
    spec = tmp_path / "half-plane.spec"
    spec.write_text(HALF_PLANE)
    assert run(capsys, "classify", str(spec), "--seed", "4")[::2] == (0, "")
    assert run(capsys, "curvature", str(spec), "--point=0.2,0.1")[::2] == (0, "")
    assert run(capsys, "classify", str(spec))[::2] == (
        3, "numerical failure: square root of a negative number in sub-expression"
           " 'sqrt((x0 - (-0.6710630390134659)))' at point [-0.7710630390134658, 0.9036824681098363]\n")


def with_bad_entry(array, points, value: float, row=None) -> np.ndarray:
    """A copy of `array`, stacked over `points`, with the last entry at the origin (or at
    points[row]) set to value."""
    origin = ~np.any(points, axis=-1)
    assert origin.sum() == 1
    out = np.array(array, dtype=float)
    out.reshape(len(out), -1)[origin if row is None else row, -1] = value
    return out


def spoil_classification(value, monkeypatch):
    """max_nijenhuis, a classification residual."""
    def spoiled(fn):
        return lambda ctx: (with_bad_entry(fn(ctx)[0], ctx.point, value),)

    monkeypatch.setattr(metallic, "CLASSIFICATION", tuple(
        dataclasses.replace(row, fn=spoiled(row.fn)) if row.id == "max_nijenhuis" else row
        for row in metallic.CLASSIFICATION))


def spoil_row_array(index: int, first_point_too: int = None):
    """The array at `index` of the residual-and-terms arrays of star-conjugate-contraction,
    and the one at `first_point_too` at the first sample point."""
    def spoil(value, monkeypatch):
        row = identities._star_contraction

        def spoiled_row(ctx):
            arrays = list(row(ctx))
            arrays[index] = with_bad_entry(arrays[index], ctx.point, value)
            if first_point_too is not None:
                arrays[first_point_too] = with_bad_entry(arrays[first_point_too], ctx.point,
                                                         value, row=0)
            return tuple(arrays)

        monkeypatch.setattr(identities, "STAR_PACK", tuple(
            dataclasses.replace(ident, fn=spoiled_row) if ident.fn is row else ident
            for ident in identities.STAR_PACK))

    return spoil


def spoil_note(value, monkeypatch):
    """The raw Ricci trace quoted in the note of ricci-omega-trace-zero."""
    trace = identities._ricci_omega_trace

    def spoiled(ctx):
        raw, *rest = trace(ctx)
        return (with_bad_entry(raw, ctx.point, value), *rest)

    monkeypatch.setattr(identities, "_ricci_omega_trace", spoiled)


def spoil_connections_block(value, monkeypatch):
    """The first-type torsion, which the connections block reads and no identity record."""
    terms = connections.connection_terms

    def spoiled(ctx, kind, levi=False):
        out = terms(ctx, kind, levi)
        if kind == "first":
            out = dict(out, torsion=with_bad_entry(out["torsion"], ctx.point, value))
        return out

    monkeypatch.setattr(connections, "connection_terms", spoiled)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spoil,command,message,first", [
    (spoil_classification, "classify", "residual of max_nijenhuis", False),
    (spoil_row_array(0), "verify", "residual of star-conjugate-contraction", False),
    # the residual is checked before the scale, which is not finite at an earlier point
    (spoil_row_array(0, first_point_too=1), "verify", "residual of star-conjugate-contraction",
     False),
    # the residual is formed before the terms are spoiled, so only the scale is not finite
    (spoil_row_array(2), "verify", "scale of star-conjugate-contraction", False),
    # the scale at each point is the largest over all the terms: the first point where it is
    # not finite is the first sample point, not the origin where the first term is spoiled
    (spoil_row_array(1, first_point_too=2), "verify", "scale of star-conjugate-contraction",
     True),
    (spoil_note, "verify", "raw (unsymmetrized) trace S_jt w^jt", False),
    (spoil_connections_block, "verify", "first-type connection torsion_norm", False),
], ids=["classification", "identity-residual", "identity-residual-before-scale",
        "identity-scale-one-term", "identity-scale-two-terms", "note", "connections-block"])
def test_value_that_is_not_finite_names_its_point(spoil, command, message, first, value,
                                                  monkeypatch, capsys):
    """A reported value that is not finite at one sample point, the origin of s6, is a
    numerical failure naming the value, what it is and that point."""
    spoil(value, monkeypatch)
    # the cached s6 bundle memoizes its values: build it afresh so that the spoiled function
    # runs, and drop it afterwards so that no later test reads the spoiled values
    zoo.get.cache_clear()
    try:
        argv = ["--suite", "all"] if command == "verify" else []
        code, out, err = run(capsys, command, "--zoo", "s6", *argv, "--format", "json")
    finally:
        zoo.get.cache_clear()
    point = zoo.get("s6").bundle.sample_points[0].tolist() if first else [0.0] * 6
    assert (code, out) == (3, "")
    assert err == f"numerical failure: {message} is {value} at point {point}\n"


# s2 with one entry changed. g00 = 1e5 keeps the polynomial identity and breaks skew
# compatibility; the sheared j01 breaks both. The classifier calls either bundle "not
# metallic-Hermitian", and each row listed here ran outside its hypothesis and failed
# (exit 1, an asserted identity failed) until it was gated.
@pytest.mark.parametrize("old,new,gated", [
    ("g[0][0] = 4/(1 + (x0^2 + x1^2))^2", "g[0][0] = 1e5",
     {"covderiv-skew-adjoint": identities.not_hermitian,
      "h-antisymmetry": identities.not_hermitian}),
    ("j[0][1] = -1", "j[0][1] = -1 - 0.3*x0",
     {"covderiv-conjugate-exchange": identities.not_metallic,
      "covderiv-skew-adjoint": identities.not_hermitian,
      "h-antisymmetry": identities.not_hermitian,
      "star-conjugate-contraction": identities.not_metallic}),
], ids=["skew-compatibility-fails", "polynomial-fails"])
def test_rows_outside_their_hypothesis_skip_with_its_reason(old, new, gated, tmp_path, capsys):
    text = zoo.get("s2").spec_text
    assert old in text
    path = tmp_path / "s2-mutated.spec"
    path.write_text(text.replace(old, new), encoding="utf-8")
    bundle = build_bundle(parse_spec(path.read_text(encoding="utf-8")))
    code, out, err = run(capsys, "verify", str(path), "--suite", "all", "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["classification"]["verdict"] == metallic.VERDICT_NONE
    rows = {row["id"]: row for row in report["identities"]}
    for id_, gate in gated.items():
        assert gate(bundle), id_
        assert (rows[id_]["skipped"], rows[id_]["note"]) == (True, gate(bundle)), id_
    assert all(row["skipped"] for row in rows.values() if not row["passed"])


def test_classify_singular_metric_exit_3(tmp_path, capsys):
    """A constant singular metric is flat, so no Christoffel symbol is formed from it, yet
    each command inverts it and fails at the first point it reads: the first sample point
    (grid 3 on [-1, 1]^2, margin 0.05), or the point curvature is asked for. With J_M constant
    too, the first derivative-tier row, which is recorded as 0 without being formed, reads
    g^-1 first; every suite begins with classification, whose first such row is max_domega."""
    spec = tmp_path / "singular.spec"
    spec.write_text(
        "dimension = 2\nq = 0.6666666666666666\nbounds = -1 1, -1 1\n"
        "structure = JM\ng[0][0] = 0\ng[1][1] = 1\njm[0][1] = -1\njm[1][0] = 1\n"
    )
    message = "numerical failure: singular metric (|det g| <= 1e-10 x product of its row norms)"
    for argv, point in ((["classify"], [-0.95, -0.95]),
                        (["classify", "--format", "json"], [-0.95, -0.95]),
                        (["verify", "--suite", "all"], [-0.95, -0.95]),
                        (["verify", "--suite", "metallic"], [-0.95, -0.95]),
                        (["verify", "--suite", "nearly"], [-0.95, -0.95]),
                        (["verify", "--suite", "connections"], [-0.95, -0.95]),
                        (["curvature", "--point", "0.1,0.2"], [0.1, 0.2])):
        code, out, err = run(capsys, argv[0], str(spec), *argv[1:])
        assert (code, out, err) == (3, "", f"{message} at point {point}\n"), argv


def test_json_report_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--zoo", "torus", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert json.loads(json.dumps(data)) == data
    assert data["classification"]["verdict"] == "metallic Kähler"


def test_json_deterministic_excluding_timing(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--zoo", "s2", "--suite", "metallic",
                           "--format", "json", "--seed", "11")
        assert code == 0
        data = json.loads(out)
        data.pop("timing_s")
        outs.append(json.dumps(data, sort_keys=False))
    assert outs[0] == outs[1]


def test_classify_rescaled_metric_is_not_singular(tmp_path, capsys):
    # det g = 1e-12 for g = 0.01 delta in dimension 6; the scale of g is no degeneracy
    entries = "".join(f"g[{i}][{i}] = 0.01\n" for i in range(6))
    entries += "".join(f"j[{a}][{a + 1}] = -1\nj[{a + 1}][{a}] = 1\n" for a in (0, 2, 4))
    spec = tmp_path / "small.spec"
    spec.write_text("dimension = 6\nq = 0.6666666666666666\nbounds = " + ", ".join(["-1 1"] * 6)
                    + "\ngrid = 1\nrandom_points = 8\nstructure = J\nsign = +\n" + entries)
    code, out, _ = run(capsys, "classify", str(spec))
    assert code == 0
    assert out.splitlines()[0] == "verdict: metallic Kähler"


def test_report_json_rounds_to_six_digits():
    text = report_json({"a": 1.23456789, "b": [2.0000004, {"c": 3}]})
    assert json.loads(text) == {"a": 1.23457, "b": [2.0, {"c": 3}]}


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main builds its parser once; a parse error between two runs changes neither answer."""
    classify = ("classify", "--zoo", "s6")
    verify = ("verify", "--zoo", "s2", "--suite", "metallic")
    make_parser.cache_clear()
    first = [run(capsys, *argv) for argv in (classify, verify)]
    parser = make_parser()
    bad_spec = tmp_path / "bad.spec"
    bad_spec.write_text(GOOD_SPEC + "point a = 5 5\n")
    assert run(capsys, "classify", str(bad_spec))[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--zoo", "s2", "--suite", "no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in (classify, verify)] == first
    assert first[0][0] == 0 and first[1][0] == 0
    assert make_parser() is parser


def test_one_job_parses_its_argv_once(monkeypatch, capsys):
    """The subcommand named first parses the rest of argv; the top-level parser does not
    parse it first (which took a second `parse_known_args` call, through argparse's
    subparser action)."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, "classify", "--zoo", "s2", "--format", "json")[0] == 0
    assert calls == ["metallicgeo classify"]


TOP_USAGE = "usage: metallicgeo [-h] [--version] {classify,verify,curvature} ...\n"


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"
                " (choose from 'classify', 'verify', 'curvature')"),
    (["classify", "--zoo", "s2", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_top_level_parse_errors_keep_their_text(argv, message, capsys):
    """An argv that names no subcommand, and a token the subcommand leaves over, are
    reported by the top-level parser with its usage line, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{TOP_USAGE}metallicgeo: error: {message}\n")


def test_spec_file_is_closed_after_reading(tmp_path):
    """A run on a spec file leaves no unclosed file: under -X dev with ResourceWarning as an
    error, classify exits 0 and writes nothing to stderr."""
    spec = tmp_path / "good.spec"
    spec.write_text(GOOD_SPEC)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-m", "metallicgeo", "classify", str(spec)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("command", ["classify", "verify", "curvature"])
@pytest.mark.parametrize("spec", ["directory", "missing"])
def test_unreadable_spec_exit_2_without_traceback(command, spec, tmp_path, capsys):
    """A SPEC that is a directory or does not exist is bad input: exit 2, `error: ` and the
    operating system's message, which names the path."""
    path = tmp_path / "specs" if spec == "directory" else tmp_path / "absent.spec"
    if spec == "directory":
        path.mkdir()
    argv = [command, str(path)] + (["--point=0.1,0.2"] if command == "curvature" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


# --- one parse per spec text ---------------------------------------------------------


def test_runs_of_one_spec_text_parse_it_once(tmp_path, monkeypatch, capsys):
    """Three runs of one spec file parse its text once, and each builds a bundle and a context
    of its own. A file rewritten between two runs is parsed afresh: the report names the new
    text and gives its verdict."""
    text = zoo.get("s2").spec_text
    parses, bundles, contexts = [], [], []
    parse, build, point_context = cli.parse_spec, cli.build_bundle, metallic.PointContext
    monkeypatch.setattr(cli, "parse_spec", lambda text: parses.append(text) or parse(text))
    monkeypatch.setattr(cli, "build_bundle",
                        lambda spec, **settings: bundles.append(build(spec, **settings))
                        or bundles[-1])
    monkeypatch.setattr(metallic, "PointContext",
                        lambda *args: contexts.append(point_context(*args)) or contexts[-1])
    cli._parsed_spec.cache_clear()
    path = tmp_path / "s2.spec"
    path.write_text(text, encoding="utf-8")
    for _ in range(3):
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        report = json.loads(out)
        assert (code, report["source"]["sha256"]) == (0, spec_sha256(text))
        assert report["classification"]["verdict"] == metallic.VERDICT_KAHLER
    assert parses == [text]
    assert len({id(b) for b in bundles}) == len(bundles) == 3
    assert len({id(c) for c in contexts}) == len(contexts) == 3
    mutated = text.replace("g[0][0] = 4/(1 + (x0^2 + x1^2))^2", "g[0][0] = 1e5")
    path.write_text(mutated, encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    report = json.loads(out)
    assert (code, report["source"]["sha256"]) == (0, spec_sha256(mutated))
    assert report["classification"]["verdict"] == metallic.VERDICT_NONE
    assert parses == [text, mutated]


@pytest.mark.parametrize("argv", [["classify"], ["verify", "--suite", "all"],
                                  ["curvature", "--point=0.1,0.2,-0.3,0.4"]],
                         ids=["classify", "verify", "curvature"])
def test_warm_run_reports_as_a_cold_run(argv, capsys):
    """A run of a spec text the process has already run, with other settings in between,
    writes the report of a run on a fresh cache byte for byte (timing_s apart)."""
    def report(*settings):
        code, out, err = run(capsys, argv[0], str(S2XS2), *argv[1:], *settings,
                             "--format", "json")
        return code, err, re.sub(r'"timing_s": .*', "", out)

    cli._parsed_spec.cache_clear()
    cold = report()
    assert cold[:2] == (0, "")
    other = report("--q", "1.5", "--seed", "4", "--h", "0.002", "--tol-d1", "2e-5")
    assert other[:2] == (0, "") and other != cold
    assert report() == cold


def test_spec_cache_keeps_the_last_16_texts(tmp_path, capsys):
    cli._parsed_spec.cache_clear()
    path = tmp_path / "named.spec"
    for k in range(20):
        path.write_text(GOOD_SPEC + f"name = text-{k}\n", encoding="utf-8")
        assert run(capsys, "classify", str(path))[0] == 0
    info = cli._parsed_spec.cache_info()
    assert (info.misses, info.currsize) == (20, 16)

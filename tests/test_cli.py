import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metallicgeo import connections, identities, metallic, zoo
from metallicgeo.cli import main, make_parser, report_json


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
# a metric defined only on |x0| <= 1: a stencil that leaves the chart evaluates it outside
DISK = (
    "dimension = 2\nq = 0.6666666666666666\nbounds = -1 1, -1 1\nmargin = 0.1\n"
    "structure = J\nsign = +\ng[0][0] = 1 + sqrt(1 - x0^2)\ng[1][1] = 1 + sqrt(1 - x0^2)\n"
    "j[0][1] = -1\nj[1][0] = 1\n"
)


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
    (None, ["verify", "--zoo", "s2", "--seed", "-1"], 2, "seed and random_points must be"),
    (None, ["verify", "--zoo", "s2", "--q", "inf"], 2, "q must be strictly positive and finite"),
    # 6q overflows; (3q/2)^2, which the Ricci pair rows form, overflows; roundoff of the
    # order of q eps in J_M^2 + (3/2) q I exceeds the algebraic tier
    (None, ["classify", "--zoo", "s2", "--q", "1e308"], 2, "with (3q/2)^2 finite, got 1e+308"),
    (None, ["classify", "--zoo", "s2", "--q", "1e307"], 2, "with (3q/2)^2 finite, got 1e+307"),
    (None, ["classify", "--zoo", "s2", "--q", "1e10"], 3,
     "fixture s2 at q = 1e+10: polynomial identity fails"),
    (SPEC_2D.format(**dict(GOOD, dim=4, bounds="-1 1, -1 1, -1 1, -1 1")) + "point a = 0.1 0.2\n",
     [], 2, "line 9, offset 11: named point 'a' needs 4 coordinates, got 2"),
    (GOOD_SPEC + "point a = 0.1\n", [], 2,
     "line 9, offset 11: named point 'a' needs 2 coordinates, got 1"),
    (GOOD_SPEC + "grid = -3\n", [], 2, "grid must be non-negative, got -3"),
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
], ids=["ln-domain", "odd-dimension", "negative-q-spec", "negative-q-zoo", "step-too-big",
        "jet-too-big", "power-overflow", "product-overflow", "constant-domain", "literal-overflow",
        "superscript-digit", "non-ascii-digit",
        "nan-bound", "infinite-bound", "nan-margin", "nan-step-spec", "zero-step-spec",
        "nan-step-flag", "tiny-step-flag", "negative-tolerance-spec", "negative-tolerance-flag",
        "zero-tolerance-flag", "nan-tolerance-flag", "negative-seed", "infinite-q",
        "q-1e308", "q-1e307", "q-1e10", "short-point-4d", "short-point-2d", "negative-grid",
        "point-outside-margin", "repeated-metric-entry", "repeated-structure-entry",
        "repeated-point", "repeated-setting"])
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
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 3:
        assert err.startswith("numerical failure:")


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
    in_file.write_text(TINY + "h = 1e-4\nseed = 5\ntol_d1 = 2e-5\n")
    code, _, err = run(capsys, "classify", str(flags))
    assert code == 2 and "must stay below half the chart margin" in err
    reports = []
    for argv in ([str(flags), "--h", "1e-4", "--seed", "5", "--tol-d1", "2e-5"], [str(in_file)]):
        code, out, err = run(capsys, "verify", *argv, "--suite", "all", "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        del report["timing_s"], report["source"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert (reports[0]["seed"], reports[0]["scheme"]["h1"], reports[0]["tolerances"]["d1"]) == (
        5, 1e-4, 2e-5)


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
        return lambda ctx: with_bad_entry(fn(ctx), ctx.point, value)

    monkeypatch.setattr(metallic, "RESIDUALS", tuple(
        (name, tier, spoiled(fn) if name == "max_nijenhuis" else fn)
        for name, tier, fn in metallic.RESIDUALS))


def spoil_zero_argument(index: int, first_point_too: int = None):
    """The array at `index` of the residual-and-terms arrays of star-conjugate-contraction,
    and the one at `first_point_too` at the first sample point."""
    def spoil(value, monkeypatch):
        row, zero = identities._star_contraction, identities._zero

        def spoiled_row(ctx):
            def spoiled_zero(*arrays):
                arrays = list(arrays)
                arrays[index] = with_bad_entry(arrays[index], ctx.point, value)
                if first_point_too is not None:
                    arrays[first_point_too] = with_bad_entry(arrays[first_point_too],
                                                             ctx.point, value, row=0)
                return zero(*arrays)

            monkeypatch.setattr(identities, "_zero", spoiled_zero)
            try:
                return row(ctx)
            finally:
                monkeypatch.setattr(identities, "_zero", zero)

        monkeypatch.setattr(identities, "_star_contraction", spoiled_row)

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

    def spoiled(bundle, kind, point):
        out = terms(bundle, kind, point)
        if kind == "first":
            out = dict(out, torsion=with_bad_entry(out["torsion"], point, value))
        return out

    monkeypatch.setattr(connections, "connection_terms", spoiled)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spoil,command,message,first", [
    (spoil_classification, "classify", "classification residual max_nijenhuis", False),
    (spoil_zero_argument(0), "verify", "residual of star-conjugate-contraction", False),
    # the residual is checked before the scale, which is not finite at an earlier point
    (spoil_zero_argument(0, first_point_too=1), "verify", "residual of star-conjugate-contraction",
     False),
    # the residual is formed before the terms are spoiled, so only the scale is not finite
    (spoil_zero_argument(2), "verify", "scale of star-conjugate-contraction", False),
    # the scale at each point is the largest over all the terms: the first point where it is
    # not finite is the first sample point, not the origin where the first term is spoiled
    (spoil_zero_argument(1, first_point_too=2), "verify", "scale of star-conjugate-contraction",
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


def test_classify_singular_metric_exit_3(tmp_path, capsys):
    spec = tmp_path / "singular.spec"
    spec.write_text(
        "dimension = 2\nq = 0.6666666666666666\nbounds = -1 1, -1 1\n"
        "structure = JM\ng[0][0] = 0\ng[1][1] = 1\njm[0][1] = -1\njm[1][0] = 1\n"
    )
    code, _, err = run(capsys, "classify", str(spec))
    assert code == 3
    assert "singular" in err


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

"""Metamorphic trust table: changes of input that must not move the answer.

No oracle gives the verdict of an arbitrary spec, but the geometry relates the answers of
related inputs (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998). A text case
takes the spec text of a zoo fixture and changes it in one of two ways:

* g -> lam g with the same J keeps the Levi-Civita connection and N and scales w and dw
  by lam, so the class is the same and the scalar curvature is divided by lam;
* the pull-back by x -> x/L, a change of chart, keeps the class and the scalar curvature:
  each coordinate xi of an expression becomes (xi/L), every g entry is divided by L^2 (J is
  unchanged, the map scales every axis alike), and bounds, margin and named points are
  multiplied by L.

A text case passes when `verify --suite all` exits 0 with the fixture's declared verdict, and
`curvature`, at the point 40 % of the way across each axis, exits 0 with a scalar within
1e-3 (relative) of its known value: 2 on s2 (the unit sphere), 0 on the flat fixtures,
divided by lam under the homothety.

A flag case runs a zoo fixture, all seven, with one numerical setting: `--q` (q is a unit:
every row is c^k times a q-free row), `--h`, or a `--tol-TIER` at 10 times and at a tenth
of its default, one per `Tolerances` field. The answer is the same as without the flag:
`verify --suite all` exits 0 with the declared verdict, and `curvature` at the point 40 %
across each axis exits 0 with a scalar within 1e-3 (relative) of 0, 2 on s2 or 30 on s6.
`curvature` reads no tolerance, so a `--tol-*` case runs `verify` only. A run may instead
refuse the setting: exit 2 with a message that names it.

Any other outcome is a wrong answer. The cases that are wrong today are strict xfails that
name the ROADMAP item that owns them, so a change that mends one must turn it into a pass,
and a passing case cannot go wrong unseen. Every case runs in-process through `cli.main`.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest

from metallicgeo import cli, zoo
from metallicgeo.metallic import Tolerances
from metallicgeo.specfile import parse_spec

FIXTURES = ("flat-k1", "flat-k2", "flat-k3", "torus", "s2", "negative")
SCALAR = {"s2": 2.0, "s6": 30.0}  # the unit spheres; every other fixture is flat
HOMOTHETIES = (1e-8, 1e-5, 1e8, 1e20)
PULLBACKS = (1e2, 1e4)

XFAIL = {
    ("s2", "g*1e+20"): "item 33: both preserves-omega rows fail, exit 1",
    ("s2", "x/1e+04"): "item 13: scalar 2.0098 where it is 2",
    ("negative", "g*1e-08"): "items 12 and 33: classifies almost metallic Kahler",
    ("negative", "g*1e-05"): "items 12 and 33: classifies almost metallic Kahler",
    ("negative", "x/1e+02"): "items 12 and 33: classifies almost metallic Kahler",
    ("negative", "x/1e+04"): "items 12 and 33: classifies almost metallic Kahler",
    ("negative", "g*1e+20"): "items 20 and 33: first-type-metric-theorem fails, exit 1",
}


def _numbers(line: str, factor: float) -> str:
    """A `key = v v, v v` line with every number multiplied by factor."""
    key, values = line.split("=", 1)
    return key + "= " + ", ".join(" ".join(repr(float(v) * factor) for v in pair.split())
                                  for pair in values.split(","))


def homothety(text: str, lam: float) -> str:
    """The spec text with g -> lam g."""
    return re.sub(r"^(g\[\d+\]\[\d+\] = )(.*)$", lambda m: f"{m[1]}{lam!r}*({m[2]})", text,
                  flags=re.M)


def pullback(text: str, length: float) -> str:
    """The spec text pulled back by x -> x/length."""
    lines = []
    for line in text.splitlines():
        if line.startswith(("bounds", "margin", "point ")):
            line = _numbers(line, length)
        elif line.startswith(("g[", "j[")):
            key, expr = line.split(" = ", 1)
            expr = re.sub(r"\bx\d+\b", lambda m: f"({m[0]}/{length!r})", expr)
            line = f"{key} = ({expr})/{length**2!r}" if line[0] == "g" else f"{key} = {expr}"
        lines.append(line)
    return "\n".join(lines) + "\n"


TRANSFORMS = {f"g*{lam:.0e}": (lambda text, lam=lam: homothety(text, lam), 1.0 / lam)
              for lam in HOMOTHETIES}
TRANSFORMS |= {f"x/{length:.0e}": (lambda text, length=length: pullback(text, length), 1.0)
               for length in PULLBACKS}
CASES = [pytest.param(name, key, id=f"{name}-{key}",
                      marks=[pytest.mark.xfail(strict=True, reason=XFAIL[name, key])]
                      if (name, key) in XFAIL else [])
         for name in FIXTURES for key in TRANSFORMS]


FLAG_VALUES = {"--q": ("1e-06", "0.001", "1.5", "1000", "1e+07", "1e+12"),
               "--h": ("1e-14", "1e-08", "0.004")}
FLAG_VALUES |= {f"--tol-{tier.name}": (f"{10 * tier.default:g}", f"{tier.default / 10:g}")
                for tier in fields(Tolerances)}
# what a refusal's message says to name the setting
SETTING = {"--q": "q ", "--h": "step h"} | {f"--tol-{tier.name}": f"tolerance {tier.name}"
                                            for tier in fields(Tolerances)}

FLAG_XFAIL = {
    ("negative", "--q", "1e-06"): "item 12: exit 3, the fixture's self-check rejects this q",
    ("negative", "--q", "1e+12"): "item 12: exit 3, the fixture's polynomial self-check fails",
    ("s6", "--q", "1e+07"): "item 12: exit 3, the fixture's polynomial self-check fails",
    ("s6", "--q", "1e+12"): "item 12: exit 3, the fixture's polynomial self-check fails",
    ("negative", "--h", "1e-14"): "item 13: four d1 rows fail below the roundoff floor, exit 1",
    ("s6", "--h", "1e-14"): "item 13: nine rows fail below the roundoff floor, exit 1",
    ("s2", "--h", "1e-14"): "item 13: scalar 1.74e8 where it is 2",
    ("s6", "--h", "1e-08"): "item 13: divergence-ricci-chain, ricci-hyperbolic and"
                            " scalar-star-relation fail, exit 1; scalar 29.85 where it is 30",
}
FLAG_CASES = [pytest.param(name, flag, value, id=f"{name}{flag}={value}",
                           marks=[pytest.mark.xfail(strict=True, reason=FLAG_XFAIL[case])]
                           if (case := (name, flag, value)) in FLAG_XFAIL else [])
              for name in zoo.names() for flag, values in FLAG_VALUES.items() for value in values]


def run(argv: list) -> tuple:
    """The exit code of `cli.main(argv)`, its JSON report (None when it wrote none) and what
    it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


@pytest.mark.parametrize("name,key", CASES)
def test_the_answer_does_not_move(name, key, tmp_path):
    fx = zoo.get(name)
    transform, scalar_factor = TRANSFORMS[key]
    path = tmp_path / f"{name}.spec"
    text = transform(fx.spec_text)
    path.write_text(text, encoding="utf-8")
    code, report, _ = run(["verify", str(path), "--suite", "all", "--format", "json"])
    assert (code, report and report["classification"]["verdict"]) == (0, fx.expected_verdict)
    point = ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in parse_spec(text).bounds)
    code, report, _ = run(["curvature", str(path), f"--point={point}", "--format", "json"])
    assert code == 0
    want = SCALAR.get(name, 0.0) * scalar_factor
    assert report["curvature"]["scalar"] == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("name,flag,value", FLAG_CASES)
def test_a_numerical_setting_does_not_move_the_answer(name, flag, value):
    fx = zoo.get(name)
    point = ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in fx.bundle.chart.bounds)
    runs = [["verify", "--suite", "all"]]
    if not flag.startswith("--tol-"):  # curvature reads no tolerance
        runs.append(["curvature", f"--point={point}"])
    for command, *argv in runs:
        code, report, err = run([command, "--zoo", name, flag, value, *argv, "--format", "json"])
        if code == 2:  # a refusal that names the setting
            assert SETTING[flag] in err, err
            return
        assert code == 0, (command, code, err)
        if command == "verify":
            assert report["classification"]["verdict"] == fx.expected_verdict
        else:
            want = SCALAR.get(name, 0.0)
            assert report["curvature"]["scalar"] == pytest.approx(want, rel=1e-3)

"""Metamorphic trust table: changes of input that must not move the answer.

No oracle gives the verdict of an arbitrary spec, but the geometry relates the answers of
related inputs (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998). Each case
takes the spec text of a zoo fixture and changes it in one of two ways:

* g -> lam g with the same J keeps the Levi-Civita connection and N and scales w and dw
  by lam, so the class is the same and the scalar curvature is divided by lam;
* the pull-back by x -> x/L, a change of chart, keeps the class and the scalar curvature:
  each coordinate xi of an expression becomes (xi/L), every g entry is divided by L^2 (J is
  unchanged, the map scales every axis alike), and bounds, margin and named points are
  multiplied by L.

A case passes when `verify --suite all` exits 0 with the fixture's declared verdict, and
`curvature`, at the point 40 % of the way across each axis, exits 0 with a scalar within
1e-3 (relative) of its known value: 2 on s2 (the unit sphere), 0 on the flat fixtures,
divided by lam under the homothety. Any other outcome is a wrong answer. The cases that are
wrong today are strict xfails that name the ROADMAP item that owns them, so a change that
mends one must turn it into a pass, and a passing case cannot go wrong unseen. Every case
runs in-process through `cli.main`.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from metallicgeo import cli, zoo
from metallicgeo.specfile import parse_spec

FIXTURES = ("flat-k1", "flat-k2", "flat-k3", "torus", "s2", "negative")
SCALAR = {"s2": 2.0}  # the unit sphere; every other fixture is flat
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


def run(argv: list) -> tuple:
    """The exit code of `cli.main(argv)` and its JSON report (None when it wrote none)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@pytest.mark.parametrize("name,key", CASES)
def test_the_answer_does_not_move(name, key, tmp_path):
    fx = zoo.get(name)
    transform, scalar_factor = TRANSFORMS[key]
    path = tmp_path / f"{name}.spec"
    text = transform(fx.spec_text)
    path.write_text(text, encoding="utf-8")
    code, report = run(["verify", str(path), "--suite", "all", "--format", "json"])
    assert (code, report and report["classification"]["verdict"]) == (0, fx.expected_verdict)
    point = ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in parse_spec(text).bounds)
    code, report = run(["curvature", str(path), f"--point={point}", "--format", "json"])
    assert code == 0
    want = SCALAR.get(name, 0.0) * scalar_factor
    assert report["curvature"]["scalar"] == pytest.approx(want, rel=1e-3)

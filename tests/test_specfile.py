import numpy as np
import pytest

from metallicgeo import zoo
from metallicgeo.metallic import VERDICT_KAHLER
from metallicgeo.specfile import (
    SpecFileError,
    build_bundle,
    parse_spec,
    spec_sha256,
)

GOOD = """
# a 2-sphere chart
name = little-sphere
dimension = 2
p = 0.0
q = 0.6666666666666666
bounds = -0.9 0.9, -0.9 0.9
grid = 3
random_points = 4
seed = 11
structure = J
sign = +
g[0][0] = 4/(1 + x0^2 + x1^2)^2
g[1][1] = 4/(1 + x0^2 + x1^2)^2
j[0][1] = -1
j[1][0] = 1
point origin = 0 0
"""


def test_parse_good_spec():
    spec = parse_spec(GOOD)
    assert spec.dimension == 2
    assert spec.structure == "J"
    assert spec.named_points["origin"] == (0.0, 0.0)
    assert (0, 1) in spec.s_entries


def test_build_bundle_classifies_like_zoo():
    bundle = build_bundle(parse_spec(GOOD))
    assert bundle.classification().verdict == VERDICT_KAHLER
    pt = np.array([0.2, -0.1])
    assert bundle.context(pt).curvature.scalar == pytest.approx(2.0, abs=1e-6)


def test_missing_dimension_is_located_error():
    with pytest.raises(SpecFileError):
        parse_spec("p = 0\nq = 1\n")


def test_expression_error_carries_line_and_offset():
    bad = "dimension = 2\nbounds = -1 1, -1 1\nstructure = JM\njm[0][1] = sin(x0\n"
    with pytest.raises(SpecFileError) as err:
        parse_spec(bad)
    assert err.value.line == 4
    # offset points inside the expression text on that line
    assert err.value.offset >= 13


def test_unknown_key_rejected():
    with pytest.raises(SpecFileError) as err:
        parse_spec("dimension = 2\nfrobnicate = 1\n")
    assert err.value.line == 2


def test_lower_triangle_metric_rejected():
    bad = GOOD + "g[1][0] = 0\n"
    with pytest.raises(SpecFileError):
        parse_spec(bad)


def test_coordinate_out_of_dimension_rejected():
    bad = GOOD.replace("j[0][1] = -1", "j[0][1] = -1 * (1 + 0*x5)")
    with pytest.raises(SpecFileError):
        parse_spec(bad)


def test_mixed_structure_keys_rejected():
    bad = GOOD + "jm[0][1] = -1\n"
    with pytest.raises(SpecFileError):
        parse_spec(bad)


def test_sha256_stable():
    assert spec_sha256(GOOD) == spec_sha256(GOOD)
    assert spec_sha256(GOOD) != spec_sha256(GOOD + " ")


def test_zoo_mirrors_reproduce_verdicts():
    for name in ("flat-k1", "torus", "s2"):
        fx = zoo.get(name)
        bundle = build_bundle(parse_spec(fx.spec_text))
        assert bundle.classification().verdict == fx.expected_verdict, name


def test_tolerance_and_h_overrides():
    text = GOOD + "tol_d1 = 1e-4\nh = 0.002\n"
    spec = parse_spec(text)
    bundle = build_bundle(spec)
    assert bundle.tolerances.d1 == 1e-4
    assert bundle.scheme.h1 == 0.002

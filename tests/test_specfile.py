import numpy as np
import pytest

from metallicgeo import exprdsl
from metallicgeo.metallic import VERDICT_KAHLER, jm_from_j_matrix
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


def test_tolerance_and_h_overrides():
    text = GOOD + "tol_d1 = 1e-4\nh = 0.002\n"
    spec = parse_spec(text)
    bundle = build_bundle(spec)
    assert bundle.tolerances.d1 == 1e-4
    assert bundle.scheme.h1 == 0.002


SHARED = """
dimension = 2
q = 0.6666666666666666
bounds = -1 1, -1 1
structure = J
sign = +
g[1][1] = sqrt(x1) + 1
g[0][0] = 1 + sqrt(x0)
g[0][1] = sqrt(x1)+1
j[0][1] = -1
j[1][0] = 1
j[0][0] = 0 * sqrt(x1) - 0
j[1][1] = 0 * sqrt(x1) - 0
"""


def test_equal_entries_share_one_parse_and_one_evaluation(monkeypatch):
    """Entries with the same text share one Expr, and entries with the same tree one
    evaluation per field call; the value lands in every slot."""
    counts = {"parse": 0, "eval": 0}
    parse, expr_eval = exprdsl.parse, exprdsl.Expr.eval

    def counted_parse(src):
        counts["parse"] += 1
        return parse(src)

    def counted_eval(self, *args):
        counts["eval"] += 1
        return expr_eval(self, *args)

    monkeypatch.setattr(exprdsl, "parse", counted_parse)
    spec = parse_spec(SHARED)
    assert counts["parse"] == 6  # 7 entries; j[0][0] and j[1][1] have the same text
    assert spec.s_entries[(0, 0)] is spec.s_entries[(1, 1)]
    monkeypatch.setattr(exprdsl.Expr, "eval", counted_eval)
    bundle = build_bundle(spec)
    pts = np.array([[0.25, 0.64], [0.5, 0.09]])
    g = bundle.g(pts)
    assert counts["eval"] == 2  # 1 + sqrt(x0), and sqrt(x1) + 1 in two spellings
    counts["eval"] = 0
    jm = bundle.jm(pts)
    assert counts["eval"] == 3  # -1, 1 and 0 * sqrt(x1) - 0
    J = np.zeros((2, 2, 2))
    for (a, b), expr in spec.g_entries.items():
        assert np.array_equal(g[:, a, b], expr_eval(expr, pts))
        assert np.array_equal(g[:, b, a], expr_eval(expr, pts))
    for (a, b), expr in spec.s_entries.items():
        J[:, a, b] = expr_eval(expr, pts)
    assert np.array_equal(jm, jm_from_j_matrix(J, bundle.params))


def test_first_failing_entry_in_file_order_is_named():
    """At a point where every sqrt fails, the error names sqrt(x1), whose first entry,
    g[1][1], comes first in the file, though g[0][0] has the lower slot."""
    bundle = build_bundle(parse_spec(SHARED))
    with pytest.raises(exprdsl.EvalDomainError) as err:
        bundle.g(np.array([[0.5, 0.5], [-0.5, -0.5]]))
    assert err.value.subexpr == "sqrt(x1)"
    assert err.value.point.tolist() == [-0.5, -0.5]


CONSTANT = """
dimension = 2
q = 0.6666666666666666
bounds = -1 1, -1 1
structure = JM
g[0][0] = 2
g[0][1] = 1/2
g[1][1] = 1
jm[0][1] = -1
jm[1][0] = 1
"""


def test_constant_field_is_one_read_only_value(monkeypatch):
    """A field none of whose entries references a coordinate is evaluated once, at the first
    point it is called at; every call returns a read-only broadcast of that value."""
    counts = {"eval": 0}
    expr_eval = exprdsl.Expr.eval

    def counted_eval(self, *args):
        counts["eval"] += 1
        return expr_eval(self, *args)

    monkeypatch.setattr(exprdsl.Expr, "eval", counted_eval)
    bundle = build_bundle(parse_spec(CONSTANT))
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    for field, want, evals in ((bundle.g, [[2.0, 0.5], [0.5, 1.0]], 3),
                               (bundle.jm, [[0.0, -1.0], [1.0, 0.0]], 2)):
        counts["eval"] = 0
        for stack in (pts, pts[1:], pts[0]):
            value = field(stack)
            assert not value.flags.writeable
            assert np.array_equal(value, np.broadcast_to(want, np.shape(stack)[:-1] + (2, 2)))
        assert counts["eval"] == evals  # one per distinct entry, at the first call only

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from metallicgeo import exprdsl, zoo
from metallicgeo.diffcalc import DiffScheme
from metallicgeo.metallic import VERDICT_KAHLER, Tolerances
from metallicgeo.specfile import (
    SpecFileError,
    build_bundle,
    parse_spec,
    spec_sha256,
)
from oracles import S2_CUBED_SPEC, count_op_steps, jm_from_j_matrix, reference_eval

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


def test_spec_is_immutable_and_shares_its_chart_and_fields():
    """A spec cannot be changed, nor can its mappings; every bundle built from it is new, with
    its own settings, on the one chart and the two fields the spec built."""
    spec = parse_spec(GOOD)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.q = 1.5
    for mapping in (spec.g_entries, spec.s_entries, spec.named_points, spec.tol):
        with pytest.raises(TypeError):
            mapping["other"] = 0.0
    own = build_bundle(spec)
    run = build_bundle(spec, q=1.5, seed=4, h=0.002, tol={"d1": 2e-5})
    assert own is not run and build_bundle(spec) is not own
    assert own.chart is run.chart is spec.chart and own.g is run.g is spec.g_field
    assert (own.params.q, own.seed, own.scheme, own.tolerances) == (
        spec.q, 11, DiffScheme(), Tolerances())
    assert (run.params.q, run.seed, run.scheme, run.tolerances) == (
        1.5, 4, DiffScheme(0.002), Tolerances(d1=2e-5))


def test_chart_the_engine_rejects_raises_on_every_build():
    spec = parse_spec(GOOD + "margin = 0.9\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="margin must be positive and smaller"):
            build_bundle(spec)


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


def test_equal_sub_expressions_share_one_evaluation(monkeypatch):
    """A field call runs one program over the field's entries: each distinct sub-expression
    is applied once, and each entry's value lands in its slots. SHARED's entries share no
    sub-tree but a leaf, so its fields apply what a walk of each distinct entry did; the J
    of `negative` shares 0.3*x0 and both cos(0.3*x0) and sin(0.3*x0), and applies 5 steps
    where one walk per distinct entry applied 10."""
    counts = {"ops": 0}
    count_op_steps(monkeypatch, counts)
    spec = parse_spec(SHARED)
    bundle = build_bundle(spec)
    pts = np.array([[0.25, 0.64], [0.5, 0.09]])
    g = bundle.g(pts)
    assert counts["ops"] == 4  # sqrt(x1) + 1 in two spellings, and 1 + sqrt(x0)
    counts["ops"] = 0
    jm = bundle.jm(pts)
    assert counts["ops"] == 4  # -1, and 0 * sqrt(x1) - 0
    J = np.zeros((2, 2, 2))
    for (a, b), expr in spec.g_entries.items():
        assert np.array_equal(g[:, a, b], expr.eval(pts))
        assert np.array_equal(g[:, b, a], expr.eval(pts))
    for (a, b), expr in spec.s_entries.items():
        J[:, a, b] = expr.eval(pts)
    assert np.array_equal(jm, jm_from_j_matrix(J, bundle.params))
    negative = parse_spec(zoo.get("negative").spec_text)
    counts["ops"] = 0
    negative.s_field(np.zeros((3, 4)))
    assert counts["ops"] == 5


SPEC_TEXTS = {**{name: zoo.get(name).spec_text for name in zoo.names() if zoo.get(name).spec_text},
              "s2xs2": (Path(__file__).resolve().parents[1] / "perfbench" / "specs"
                        / "s2xs2.spec").read_text(encoding="utf-8"),
              "s2xs2xs2": S2_CUBED_SPEC}


@pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
def test_fields_match_the_tree_walk_bit_for_bit(name):
    """Each field of a spec text holds, slot by slot, the values the tree walk gives its
    entries, bit for bit, at points across the chart."""
    spec = parse_spec(SPEC_TEXTS[name])
    lo, hi = np.array(spec.bounds).T
    pts = np.random.default_rng(7).uniform(lo, hi, (40, spec.dimension))
    for fld, entries, symmetric in ((spec.g_field, spec.g_entries, True),
                                    (spec.s_field, spec.s_entries, False)):
        want = np.zeros((len(pts), spec.dimension, spec.dimension))
        for (i, j), expr in entries.items():
            want[:, i, j] = reference_eval(expr.root, pts)
            if symmetric:
                want[:, j, i] = want[:, i, j]
        assert fld(pts).tobytes() == want.tobytes()


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


def test_constant_field_is_marked_and_evaluated_like_any_other(monkeypatch):
    """A field none of whose entries references a coordinate is marked constant. Like any
    field, each call runs its program, applying every step once, and returns a fresh array
    holding the value at every point of its stack. One entry that references a coordinate
    leaves the field unmarked."""
    counts = {"ops": 0}
    count_op_steps(monkeypatch, counts)
    bundle = build_bundle(parse_spec(CONSTANT))
    assert bundle.g.constant and bundle.jm.constant
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    for field, want, ops in ((bundle.g, [[2.0, 0.5], [0.5, 1.0]], 1),
                             (bundle.jm, [[0.0, -1.0], [1.0, 0.0]], 1)):
        counts["ops"] = 0
        for stack in (pts, pts[1:], pts[0]):
            value = field(stack)
            assert np.array_equal(value, np.broadcast_to(want, np.shape(stack)[:-1] + (2, 2)))
            value[...] = np.nan  # no later call shares it
        assert counts["ops"] == 3 * ops  # 1/2 and -1, once per call
    curved = CONSTANT.replace("g[1][1] = 1\n", "g[1][1] = 1 + x0^2\n")
    assert not build_bundle(parse_spec(curved)).g.constant

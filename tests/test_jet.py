"""The jet: its weight tables, its curvature on a curved Kahler fixture, and its reach."""

import dataclasses
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from metallicgeo import cli, zoo
from metallicgeo.diffcalc import DiffScheme, MetricJet, _jet_table, covariant_derivative
from metallicgeo.geometry import TensorField, first_outside, max_abs
from metallicgeo.identities import check_ricci_derivative_cycle
from metallicgeo.metallic import VERDICT_KAHLER
from oracles import (christoffel_field, dense_jet_table, expanded_weights,
                     kahler_quartic_bundle, kahler_quartic_ricci, observed,
                     partial_all_per_axis, stacked_partial_all)
from test_cli import DISK

# --- weight tables -------------------------------------------------------------

K = np.array([0.7 + 0.4j, -0.5 + 0.9j, 0.3 - 0.6j, 1.1 + 0.2j])
POINT = np.array([0.2, -0.1, 0.3, 0.05])


def analytic(pts):
    """Im exp(k.x), whose partials are Im(k_a k_b ... exp(k.x))."""
    return np.exp(pts @ K).imag


def analytic_partials():
    e = np.exp(POINT @ K)
    kk = np.multiply.outer(K, K)
    return (kk * e).imag, (np.multiply.outer(kk, K) * e).imag


def jet_errors(h2) -> tuple:
    """Largest error of the order-2 and the order-3 jet of `analytic` at step h2."""
    d2, d3 = analytic_partials()
    jet = MetricJet(analytic, POINT, DiffScheme(h2 ** 1.2))  # h2 = h1^(5/6)
    return max_abs(jet.ddg - d2), max_abs(jet.dddg() - d3)


@pytest.mark.parametrize("n", range(1, 7))
def test_order_one_table_is_the_order_four_axis_stencil(n):
    """The table of order 1 at step 2h is (-f(x + 2h e_a) + 8 f(x + h e_a) - 8 f(x - h e_a)
    + f(x - 2h e_a)) / (12 h) on every axis: Richardson over central differences at h, 2h."""
    h = 1e-3
    table = _jet_table(n, 2.0 * h, 1)
    disp, weights = table.disp, expanded_weights(table)
    expected = np.zeros(weights.shape)
    for a in range(n):
        for step, weight in ((2.0, -1.0), (1.0, 8.0), (-1.0, -8.0), (-2.0, 1.0)):
            k = [j for j, d in enumerate(disp) if np.array_equal(d, step * h * np.eye(n)[a])]
            assert len(k) == 1
            expected[a, k[0]] = weight / (12.0 * h)
    assert len(disp) == 4 * n
    np.testing.assert_allclose(weights, expected, rtol=4.0 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("order", (1, 2, 3))
@pytest.mark.parametrize("n", range(1, 7))
def test_distinct_row_table_expands_to_the_dense_table(n, order):
    """Scattering each row's weights into its node columns and indexing the rows by
    `expand` gives the dense table exactly, with the same nodes in the same order."""
    h = 3e-3
    table = _jet_table(n, h, order)
    disp, weights, offsets = dense_jet_table(n, h, order)
    assert table.offsets == offsets
    np.testing.assert_array_equal(table.disp, disp)
    np.testing.assert_array_equal(expanded_weights(table), weights)
    assert table.weights.shape == table.cols.shape
    assert len(table.cols) == math.comb(n + order - 1, order)  # one row per distinct partial


def test_jet_of_a_cubic_is_exact():
    """Every stencil of the table is exact on cubics, so only roundoff is left."""
    rng = np.random.default_rng(3)
    n = 4
    A = rng.normal(size=(2, n, n))
    A = A + np.swapaxes(A, -1, -2)
    T = rng.normal(size=(2, n, n, n))
    T = sum(np.transpose(T, (0,) + p) for p in
            ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))) / 6.0

    def cubic(pts):  # two components, f_m = 1 + x_0 + x A_m x + T_m(x, x, x)
        return (1.0 + pts[:, :1] @ np.ones((1, 2)) + np.einsum("pa,mab,pb->pm", pts, A, pts)
                + np.einsum("pa,pb,pc,mabc->pm", pts, pts, pts, T))

    jet = MetricJet(cubic, POINT)
    d2 = 2.0 * np.moveaxis(A, 0, -1) + 6.0 * np.einsum("mabc,c->abm", T, POINT)
    assert max_abs(jet.ddg - d2) < 1e-8 * max_abs(d2)
    assert max_abs(jet.dddg() - 6.0 * np.moveaxis(T, 0, -1)) < 1e-6 * max_abs(6.0 * T)


def test_richardson_jet_is_of_order_four():
    """Halving h2 shrinks the error of the second and third partials 16-fold."""
    coarse, fine = jet_errors(0.2), jet_errors(0.1)
    for c, f in zip(coarse, fine):
        assert 12.0 < c / f < 20.0, (c, f)


def test_third_derivative_step_sweep():
    """The sweep behind the third-derivative step, on Im exp(k.x):

        h2       1e-1    1e-2     10^-2.5  1e-3
        d d d f  1.7e-6  6.4e-10  4.3e-8   8.8e-7

    Truncation falls as h2^4 down to h2 ~ 1e-2; below it, roundoff grows as
    eps / h^3 (about 30-fold per half decade). The order-3 nodes stay inside
    the jet's reach 2 h2, so the step is h2 itself: at the default h2 the
    error is roundoff, four orders of magnitude below the d3 tier, and on the
    curved Kahler fixture nabla S is within 3.2e-7 of its closed form.
    """
    errors = {h2: jet_errors(h2)[1] for h2 in (1e-2, 10 ** -2.5, 1e-3)}
    assert errors[1e-3] > 10.0 * errors[10 ** -2.5] > 10.0 * errors[1e-2]
    assert errors[10 ** -2.5] < 1e-7  # the default h2


# --- a curved Kahler fixture: S not proportional to g, nabla S != 0 ---------------


@pytest.fixture(scope="module")
def quartic():
    bundle = kahler_quartic_bundle()
    assert bundle.classification().verdict == VERDICT_KAHLER
    return bundle


def test_jet_ricci_matches_christoffel_free_oracle(quartic):
    for pt in quartic.sample_points:
        ricci = quartic.context(pt).curvature.ricci
        assert max_abs(ricci - kahler_quartic_ricci(pt[None])[0]) < 1e-8


def test_quartic_ricci_is_not_proportional_to_g(quartic):
    for pt in quartic.sample_points:
        ctx = quartic.context(pt)
        trace_free = ctx.curvature.ricci - ctx.curvature.scalar / ctx.n * ctx.g
        assert max_abs(trace_free) > 0.1


def test_ricci_derivative_cycle_compares_nonzero_terms(quartic):
    for result in check_ricci_derivative_cycle(quartic):
        assert not result.skipped and result.passed, result
        assert result.scale > 1.0, result


def test_jet_nabla_ricci_matches_central_difference_of_oracle(quartic):
    for pt in quartic.sample_points:
        ctx = quartic.context(pt)
        ref = covariant_derivative(MetricJet(kahler_quartic_ricci, pt).dg,
                                   kahler_quartic_ricci(pt[None])[0], "dd", ctx.gamma)
        assert max_abs(ref) > 1.0
        assert max_abs(ctx.cov_ricci - ref) < 1e-6


def test_second_partials_of_connection_are_symmetric(quartic):
    """d_a d_b Gamma from the jet is symmetric in (a, b) and matches nested differencing.

    Its formula has the pair d_a g d_b Gamma + d_b g d_a Gamma, the
    counterpart of the pair in d_a d_b (g^-1). Writing one of them with a
    and b swapped breaks both properties, while verify still exits 0 on
    every zoo fixture, since the nabla S rows are report-only.
    """
    scheme = DiffScheme()

    def d_gamma(pts):  # d_b Gamma at a stack of points, first-derivative stencils
        return stacked_partial_all(lambda q: christoffel_field(quartic.g, q, scheme), pts, scheme)

    for pt in quartic.sample_points[:3]:
        dd = MetricJet(quartic.g, pt).ddgamma()
        assert max_abs(dd - np.swapaxes(dd, 0, 1)) < 1e-12 * max_abs(dd)
        nested = partial_all_per_axis(d_gamma, pt, scheme, stage=2)
        assert max_abs(dd - nested) < 1e-5 * max_abs(dd)


# --- every node a verify evaluates lies within the scheme's reach ------------------


def recording(bundle, nodes: list):
    """The bundle with g and J_M that append every point they are evaluated at to nodes."""
    return observed(bundle, lambda key, pts: nodes.append(np.array(pts, dtype=float)))


@pytest.mark.parametrize("case", ["s2", "kahler-quartic", "disk-spec"])
def test_every_node_lies_within_reach(case, monkeypatch, tmp_path):
    nodes: list = []
    if case == "disk-spec":
        path = tmp_path / "disk.spec"
        path.write_text(DISK)
        build = cli.build_bundle
        monkeypatch.setattr(cli, "build_bundle",
                            lambda spec, **settings: recording(build(spec, **settings), nodes))
        argv, scheme = [str(path), "--h", "0.027"], DiffScheme(0.027)
        bundle = build(cli.parse_spec(DISK))
    else:
        bundle = zoo.fixture_sphere2().bundle if case == "s2" else kahler_quartic_bundle()
        fx = dataclasses.replace(zoo.get("s2"), bundle=recording(bundle, nodes))
        monkeypatch.setattr(zoo, "get", lambda *args, **kwargs: fx)
        argv, scheme = ["--zoo", "s2"], bundle.scheme
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", *argv, "--suite", "all", "--format", "json"]) == 0
    pts = np.concatenate(nodes)
    assert 2.0 * scheme.h2 > 2.0 * scheme.h1 and scheme.reach == 2.0 * scheme.h2
    chart, centers = bundle.chart, bundle.sample_points
    box = np.abs(pts[:, None, :] - centers[None, :, :]).max(axis=-1).min(axis=-1)
    assert box.max() <= scheme.reach * (1 + 1e-12)
    assert box.max() >= scheme.reach * (1 - 1e-12)  # the order-3 axis nodes are evaluated
    assert first_outside(pts, chart.bounds) is None


# --- constant fields -----------------------------------------------------------------

MEMBERS = ("g", "dg", "ddg", "ginv", "gamma", "dgamma", "J", "dJ", "omega", "dw", "domega",
           "covJ", "cov_omega", "cov_ricci", "covcov_omega", "H", "Sstar", "scalar_star",
           "norm_covJ_sq", "N")


def members(ctx) -> dict:
    """Every array a context computes, the order-3 ones and the curvature included."""
    pack = ctx.curvature
    return {**{name: getattr(ctx, name) for name in MEMBERS}, "dddg": ctx.dddg(),
            "ddgamma": ctx.ddgamma(), "Rup": pack.Rup, "Rdown": pack.Rdown,
            "ricci": pack.ricci, "scalar": pack.scalar}


def unmarked(fld) -> TensorField:
    return dataclasses.replace(fld, constant=False)


@pytest.mark.parametrize("name,g_constant,jm_constant", [
    ("flat-k1", True, True), ("flat-k3", True, True), ("torus", True, True),
    ("negative", True, False), ("s2", False, True)])
def test_constant_field_is_called_at_the_points_alone(name, g_constant, jm_constant):
    """A constant spec field is evaluated at the points of a context and at no node, its
    jets are exact zeros (+0.0), and every member of the context equals, to the bit, what
    the same field computes when it is not marked constant (the jets of its values at the
    nodes are exactly 0 too, and so are the connection and the curvature of a constant g).
    Bits are compared as bytes: `np.array_equal` takes -0.0 for 0.0, which a report spells
    apart."""
    bundle = zoo.get(name).bundle
    assert (bundle.g.constant, bundle.jm.constant) == (g_constant, jm_constant)
    calls = {"g": [], "jm": []}
    marked = observed(bundle, lambda key, pts: calls[key].append(np.array(pts)))
    plain = dataclasses.replace(bundle, g=unmarked(bundle.g), jm=unmarked(bundle.jm))
    points = bundle.sample_points
    for where in (points, points[0]):
        got, want = members(marked.context(where)), members(plain.context(where))
        for key, value in got.items():
            value, other = np.asarray(value), np.asarray(want[key])
            assert (value.shape, value.dtype) == (other.shape, other.dtype), key
            assert value.tobytes() == other.tobytes(), key
        zero = {"dg", "ddg", "dddg", "gamma", "dgamma", "ddgamma", "Rup", "H", "Sstar",
                "cov_ricci"} if g_constant else set()
        zero |= {"dJ"} if jm_constant else set()
        for key in zero:
            assert not got[key].any() and not np.signbit(got[key]).any(), key
    for key, constant in (("g", g_constant), ("jm", jm_constant)):
        if constant:
            assert [len(pts) for pts in calls[key]] == [len(points), 1]
            assert np.array_equal(calls[key][0], points) and np.array_equal(calls[key][1][0],
                                                                              points[0])


@pytest.mark.parametrize("name", zoo.names())
def test_a_field_is_constant_when_no_entry_references_a_coordinate(name):
    """flat-k* and torus have constant g and J_M; negative's J_M and s2's g each have entries
    that reference a coordinate; s6 is given as Python fields, which are never constant."""
    bundle = zoo.get(name).bundle
    expected = {"negative": (True, False), "s2": (False, True), "s6": (False, False)}
    assert (bundle.g.constant, bundle.jm.constant) == expected.get(name, (True, True))

"""The contraction kernel: `geometry.contract` against `np.einsum`.

Every stacked two-operand contraction of the engine goes through one
batched matrix product. It must agree with `np.einsum` to roundoff on every
subscripts string it serves, and a point's value must not depend on the
stack it is computed in: the row of a stack, the point alone and the point
as a stack of one are equal to the bit.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from metallicgeo import cli, geometry, zoo
from metallicgeo.geometry import contract
from oracles import S2_CUBED_SPEC

SRC = Path(__file__).resolve().parents[1] / "src" / "metallicgeo"


def literal_subscripts() -> set:
    """The subscripts of every `contract("...")` call written out in src/."""
    found = set()
    for path in SRC.glob("*.py"):
        found.update(re.findall(r'contract\("([^"]+)"', path.read_text(encoding="utf-8")))
    return found


@pytest.fixture(scope="module")
def served() -> set:
    """The subscripts that `contract` serves in a verify and a curvature run on every zoo
    fixture, including those `_cov_correct` composes; every literal one in src/ is among
    them."""
    seen = set()
    plan = geometry._plan

    def recording(subscripts, *shapes):
        seen.add(subscripts)
        return plan(subscripts, *shapes)

    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()):
        mp.setattr(geometry, "_plan", recording)
        for name in zoo.names():
            assert cli.main(["verify", "--zoo", name, "--suite", "all", "--q", "1.5"]) == 0
            point = ",".join(["0.1"] * zoo.get(name).bundle.chart.dimension)
            if name == "torus":
                point = "1,1"
            assert cli.main(["curvature", "--zoo", name, f"--point={point}"]) == 0
    literal = literal_subscripts()
    assert "...ht,...itj->...hij" in literal and literal <= seen, literal - seen
    return seen


def operands(subscripts: str, n: int, m: int, rng) -> tuple:
    """Random operands of `subscripts` with per-point axes of length n over a stack of m."""
    terms = subscripts.split("->")[0].split(",")
    return tuple(rng.standard_normal((m,) + (n,) * (len(term) - 3)) for term in terms)


def test_served_subscripts_include_the_composed_ones(served):
    # the lower-slot corrections of nabla w (first slot) and of nabla nabla w (second slot)
    assert {"...tc,...tab->...abc", "...btd,...tac->...abcd"} <= served


@pytest.mark.parametrize("n", [2, 6])
def test_contract_matches_einsum(served, n):
    rng = np.random.default_rng(7)
    for subscripts in sorted(served):
        a, b = operands(subscripts, n, 5, rng)
        want = np.einsum(subscripts, a, b)
        got = contract(subscripts, a, b)
        assert got.shape == want.shape, subscripts
        scale = np.einsum(subscripts, np.abs(a), np.abs(b))
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale), subscripts


def test_a_point_alone_equals_its_row_of_a_stack(served):
    rng = np.random.default_rng(11)
    for subscripts in sorted(served):
        a, b = operands(subscripts, 6, 7, rng)
        stack = contract(subscripts, a, b)
        for k in range(len(a)):
            alone = contract(subscripts, a[k], b[k])
            one = contract(subscripts, a[k:k + 1], b[k:k + 1])
            assert np.array_equal(stack[k], alone) and np.array_equal(stack[k], one[0]), \
                (subscripts, k)


def test_stacks_broadcast_like_einsum():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 1, 6, 6))
    b = rng.standard_normal((4, 5, 6, 6, 6))
    want = np.einsum("...tm,...tab->...abm", a, b)
    assert np.allclose(contract("...tm,...tab->...abm", a, b), want, rtol=1e-13, atol=1e-13)
    scalar = contract("...ji,...ji->...", a[0, 0], b[0, 0, 0])
    assert np.ndim(scalar) == 0 and np.isclose(scalar, np.einsum("ji,ji->", a[0, 0], b[0, 0, 0]))


@pytest.mark.parametrize("subscripts", [
    "...ij,...jk", "ij,...jk->...ik", "...ij,...jk,...kl->...il", "...ii,...ij->...j",
    "...ij,...jk->...iik", "...ij,...kl->...il",
])
def test_contract_refuses_what_it_does_not_serve(subscripts):
    """One '...' stack on each of two operands and the output; no index repeated within a
    term, and none summed inside one operand."""
    a = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        contract(subscripts, a, a)


def test_curved_dimension_6_spec_serves_order_3(tmp_path):
    """nabla Ricci, read off the order-3 jet, contracts dimension-6 operands through the
    kernel on the curved dimension-6 spec (the flat dimension-6 fixture has no such jet)."""
    path = tmp_path / "s2xs2xs2.spec"
    path.write_text(S2_CUBED_SPEC, encoding="utf-8")
    seen = []
    plan = geometry._plan

    def recording(subscripts, *shapes):
        seen.append((subscripts, shapes))
        return plan(subscripts, *shapes)

    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()):
        mp.setattr(geometry, "_plan", recording)
        assert cli.main(["verify", str(path), "--suite", "metallic", "--format", "json"]) == 0
    assert any(sub == "...athi,...hjt->...aji" and shapes[0][-4:] == (6,) * 4
               for sub, shapes in seen)

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metallicgeo import exprdsl
from metallicgeo.exprdsl import EvalDomainError, ParseError, parse
from oracles import eval_per_point, reference_tokenize


def test_literal():
    assert parse("1").eval(()) == 1.0


def test_conformal_factor_values_by_hand():
    # the sphere-chart conformal factor: by hand, 4/(1+0+0)^2 = 4 at the
    # origin and 4/(1+1)^2 = 1 at unit radius
    e = parse("4/(1 + x0^2 + x1^2)^2")
    assert e.eval((0.0, 0.0)) == pytest.approx(4.0, abs=0)
    assert e.eval((1.0, 0.0)) == pytest.approx(1.0, abs=0)


def test_unbalanced_parenthesis_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(x0")
    assert err.value.offset == 7  # 1-based, just past the input


def test_eval_product():
    assert parse("x0*x1").eval((2.0, 3.0)) == 6.0


def test_eval_pi():
    assert parse("pi").eval(()) == 3.141592653589793


def test_sqrt_negative_domain_error():
    with pytest.raises(EvalDomainError) as err:
        parse("sqrt(0 - 1)").eval(())
    assert "sqrt" in err.value.subexpr


def test_division_by_zero_names_subexpression():
    with pytest.raises(EvalDomainError) as err:
        parse("1/(x0 - 1)").eval((1.0,))
    assert "x0" in err.value.subexpr


def test_power_negative_base_integer_ok():
    assert parse("(0 - 2)^3").eval(()) == -8.0


def test_power_negative_base_fractional_rejected():
    with pytest.raises(EvalDomainError):
        parse("(0 - 2)^0.5").eval(())


def test_precedence_pow_tightest_right_assoc():
    assert parse("2^3^2").eval(()) == 2.0 ** 9
    assert parse("-x^2").eval((3.0,)) == -9.0
    assert parse("2*3^2").eval(()) == 18.0


def test_unary_minus_above_mul():
    # -a*b parses as (-a)*b
    assert parse("-2*3").eval(()) == -6.0
    assert parse("2--3").eval(()) == 5.0


def test_aliases_map_to_first_four_coordinates():
    assert parse("x + 2*y + 3*z + 4*w").eval((1.0, 1.0, 1.0, 1.0)) == 10.0
    assert parse("x17").max_coord() == 17


def test_unknown_symbol():
    with pytest.raises(ParseError) as err:
        parse("2 * foo")
    assert err.value.offset == 5


def test_arity_error():
    with pytest.raises(ParseError):
        parse("pi(3)")


def test_missing_point_coordinate():
    with pytest.raises(ValueError):
        parse("x3").eval((1.0, 2.0))


def test_eval_does_not_walk_the_tree_for_its_coordinates(monkeypatch):
    """The largest coordinate index is found once, when the Expr is made."""
    expr = parse("sin(x0) * (x2 + 1)")

    def walked(_node):
        raise AssertionError("max_coord walked the tree")

    for node in (exprdsl.Coord, exprdsl.Bin, exprdsl.Call, exprdsl.Neg):
        monkeypatch.setattr(node, "max_coord", walked)
    assert expr.max_coord() == 2
    assert expr.eval((0.0, 5.0, 1.0)) == 0.0
    with pytest.raises(ValueError, match="references x2"):
        expr.eval((1.0, 2.0))


def test_functions_match_math_module():
    """Each name applies its numpy ufunc exactly, and that ufunc is the math function.

    numpy's sinh differs from math.sinh in the last bit at 0.7, so the
    exact comparison is with the ufunc the evaluator applies.
    """
    point = (0.7,)
    for name in exprdsl.FUNCTIONS:
        fn = math.log if name == "ln" else getattr(math, name)
        ufunc = np.log if name == "ln" else getattr(np, name)
        value = parse(f"{name}(x0)").eval(point)
        assert value == ufunc(0.7)
        assert math.isclose(value, fn(0.7), rel_tol=1e-15)


# --- render / parse round trip ---------------------------------------------------

SAFE_TEMPLATES = (
    "sin", "cos", "exp", "sinh", "cosh", "tan",
)


def random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice([
            repr(rng.uniform(-2.5, 2.5)),
            f"x{rng.randrange(4)}",
            "pi", "e",
        ])
    kind = rng.randrange(7)
    a = random_expr(rng, depth - 1)
    b = random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"(-{a})"
    if kind == 4:
        return f"{rng.choice(('sin', 'cos'))}({a})"
    if kind == 5:
        return f"({a} / (1 + ({b})^2))"
    return f"ln(1 + ({a})^2)"


def test_render_parse_eval_round_trip_100_cases():
    rng = random.Random(20240817)
    for _ in range(100):
        src = random_expr(rng, rng.randrange(1, 4))
        e1 = parse(src)
        e2 = parse(e1.render())
        for _ in range(10):
            pt = tuple(rng.uniform(-1, 1) for _ in range(4))
            v1, v2 = e1.eval(pt), e2.eval(pt)
            assert v2 == pytest.approx(v1, rel=1e-15, abs=1e-300)


@given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_precedence_property(a, b, c):
    lhs = parse(f"({a!r}) + ({b!r}) * ({c!r})").eval(())
    rhs = parse(f"({a!r}) + (({b!r}) * ({c!r}))").eval(())
    assert lhs == rhs


@given(st.integers(0, 3), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_coordinate_eval_property(idx, val):
    pt = [0.0, 0.0, 0.0, 0.0]
    pt[idx] = val
    assert parse(f"x{idx}").eval(tuple(pt)) == val


# --- stacked evaluation ------------------------------------------------------------


def test_stacked_eval_matches_per_point_evaluator():
    rng = random.Random(20240818)
    for _ in range(200):
        expr = parse(random_expr(rng, rng.randrange(1, 4)))
        pts = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(12)])
        got = expr.eval(pts)
        assert got.shape == (12,)
        for pt, value in zip(pts, got):
            assert value == pytest.approx(eval_per_point(expr, pt), rel=1e-13, abs=1e-13)


def test_constant_expression_fills_the_stack():
    assert parse("2 * pi").eval(np.zeros((3, 2))).tolist() == [2 * math.pi] * 3


@pytest.mark.parametrize("src,bad,subexpr", [
    ("ln(x0)", -0.5, "ln(x0)"),
    ("1 + sqrt(x0)", -0.5, "sqrt(x0)"),
    ("1/(x0 - 0.25)", 0.25, "(1.0 / (x0 - 0.25))"),
    ("x0^0.5", -0.5, "(x0 ^ 0.5)"),
    ("1 + exp(800*x0)", 1.0, "exp((800.0 * x0))"),
])
def test_domain_error_names_the_failing_row_of_a_stack(src, bad, subexpr):
    pts = np.array([[0.5], [0.75], [bad], [0.5]])  # only the third row is out of domain
    expr = parse(src)
    for pt in np.delete(pts, 2, axis=0):
        expr.eval(pt)
    with pytest.raises(EvalDomainError) as err:
        expr.eval(pts)
    assert err.value.subexpr == subexpr
    assert err.value.point.tolist() == [bad]
    assert f"at point [{bad!r}]" in str(err.value)


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ParseError as exc:
        return exc.offset, exc.expected


@given(st.text(alphabet="0123456789.eE+-*/^()_xyzwpisn \t\x0b\x1c\x1f", max_size=24)
       | st.text(alphabet=st.characters(max_codepoint=127), max_size=24))
@settings(max_examples=400, deadline=None)
def test_ascii_tokens_match_the_reference_tokenizer(src):
    """ASCII text gives the tokens, offsets and errors of the character-class tokenizer."""
    assert _tokens_or_error(exprdsl._tokenize, src) == _tokens_or_error(reference_tokenize, src)


@pytest.mark.parametrize("src,offset", [
    ("1 + x0\u00b2", 7),           # superscript two: str.isdigit accepts it
    ("1 + x0 + \u0663", 10),       # Arabic-Indic three: float() reads it as 3
    ("x\u00e9 + 1", 2),            # a letter outside ASCII
    ("1\u00a0+ x0", 2),            # no-break space: str.isspace accepts it
])
def test_non_ascii_character_is_a_parse_error_at_its_offset(src, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.offset, err.value.expected) == (offset, f"a valid token, not {src[offset - 1]!r}")

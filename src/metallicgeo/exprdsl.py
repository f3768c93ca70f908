"""Scalar expression DSL over chart coordinates.

Expressions define metric and structure components inside manifold spec
files. They are parsed once into an immutable AST and evaluated in IEEE
double precision, at one chart point or at a stack of points at once: each
node maps the whole stack with one numpy ufunc. No symbolic
differentiation is done here (derivatives are taken numerically
downstream).

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | call | name | "(" expr ")" ;
    call    = FUNC "(" expr ")" ;
    NUMBER  = digits [ "." [digits] ] [ ("e"|"E") ["+"|"-"] digits ] ;

A NUMBER that overflows a double, such as 1e400, is a parse error.
Precedence: "^" binds tightest and associates to the right, unary minus
binds above "*" and "/", which bind above "+" and "-".

Names: coordinates are x0 .. x{n-1}; the aliases x, y, z, w map to
x0 .. x3. Constants: pi, e. Functions (one argument each): sin, cos, tan,
exp, ln, sqrt, sinh, cosh.

"^" accepts non-integer exponents only for positive bases; anything else
(and ln/sqrt of a negative number, division by zero, and any sub-expression
whose value is not finite, such as an overflow) raises a domain error
naming the offending sub-expression and the first point of the stack at
which it fails. All offsets reported in errors are 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ParseError",
    "EvalDomainError",
    "parse",
    "FUNCTIONS",
    "CONSTANTS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh")
CONSTANTS = {"pi": math.pi, "e": math.e}
COORD_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


class ParseError(ValueError):
    """Syntax error with a 1-based offset and a description of what was expected."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain; carries the offending sub-expression and point."""

    def __init__(self, message: str, subexpr: str, point=None):
        self.subexpr = subexpr
        self.point = None if point is None else np.asarray(point, dtype=float)
        where = "" if point is None else f" at point {self.point.tolist()}"
        super().__init__(f"{message} in sub-expression {subexpr!r}{where}")


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_UNARY = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
          "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh}


def _finite(node: "_Node", points: np.ndarray, value, *operands):
    """value, unless it is not finite at some point of the stack.

    Every domain error (division by zero, ln or sqrt of a negative number,
    a negative base to a non-integer power, zero to a negative power) gives
    a non-finite value, so one mask finds them all; the first point where
    it holds is named, with the reason the node gives for its operands
    there.
    """
    finite = np.isfinite(value)
    if not finite.all():
        row = int(np.argmin(np.broadcast_to(finite, (len(points),))))
        at_row = [float(v if np.ndim(v) == 0 else v[row]) for v in operands]
        raise EvalDomainError(node.domain_reason(*at_row), node.render(), points[row])
    return value


# --- AST nodes -------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    def eval(self, points):  # pragma: no cover - overridden
        """Values at a stack of points (m, n): an array (m,), or a scalar if constant."""
        raise NotImplementedError

    def render(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def max_coord(self) -> int:
        """Largest coordinate index referenced, -1 if none."""
        return -1


@dataclass(frozen=True)
class Lit(_Node):
    value: float

    def eval(self, points):
        return self.value

    def render(self):
        return repr(float(self.value))


@dataclass(frozen=True)
class Const(_Node):
    name: str

    def eval(self, points):
        return CONSTANTS[self.name]

    def render(self):
        return self.name


@dataclass(frozen=True)
class Coord(_Node):
    index: int

    def eval(self, points):
        return points[:, self.index]

    def render(self):
        return f"x{self.index}"

    def max_coord(self):
        return self.index


@dataclass(frozen=True)
class Neg(_Node):
    operand: _Node

    def eval(self, points):
        return np.negative(self.operand.eval(points))

    def render(self):
        return f"(-{self.operand.render()})"

    def max_coord(self):
        return self.operand.max_coord()


@dataclass(frozen=True)
class Bin(_Node):
    op: str
    left: _Node
    right: _Node

    def eval(self, points):
        a = self.left.eval(points)
        b = self.right.eval(points)
        return _finite(self, points, _BINARY[self.op](a, b), a, b)

    def domain_reason(self, a, b):
        if self.op == "/" and b == 0.0:
            return "division by zero"
        if self.op == "^" and a < 0.0 and b != math.floor(b):
            return "non-integer power of a negative base"
        if self.op == "^" and a == 0.0 and b < 0.0:
            return "negative power of zero"
        return "non-finite value"

    def render(self):
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def max_coord(self):
        return max(self.left.max_coord(), self.right.max_coord())


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: _Node

    def eval(self, points):
        x = self.arg.eval(points)
        return _finite(self, points, _UNARY[self.func](x), x)

    def domain_reason(self, x):
        if self.func == "ln" and x <= 0.0:
            return "logarithm of a non-positive number"
        if self.func == "sqrt" and x < 0.0:
            return "square root of a negative number"
        return "non-finite value"

    def render(self):
        return f"{self.func}({self.arg.render()})"

    def max_coord(self):
        return self.arg.max_coord()


class Expr:
    """An immutable parsed expression.

    Pure value object: evaluation has no side effects, so one Expr may be
    evaluated from many threads concurrently. The largest coordinate index
    the tree references is found once, here, not on every evaluation.
    """

    __slots__ = ("root", "source", "_max_coord")

    def __init__(self, root: _Node, source: str = ""):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_max_coord", root.max_coord())

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def eval(self, point=()):
        """Evaluate at one point (n,) -> float, or at a stack of points (m, n) -> array (m,)."""
        pts = np.asarray(point, dtype=float)
        stack = pts.reshape(1, -1) if pts.ndim == 1 else pts
        n = self._max_coord + 1
        if stack.shape[1] < n:
            raise ValueError(
                f"expression references x{n - 1} but the point has only"
                f" {stack.shape[1]} coordinate(s)"
            )
        with np.errstate(all="ignore"):  # domain errors are found from masks instead
            value = self.root.eval(stack)
        values = np.full(len(stack), value) if np.ndim(value) == 0 else np.array(value, dtype=float)
        return float(values[0]) if pts.ndim == 1 else values

    def render(self) -> str:
        """Fully parenthesized text form; parse(render()) evaluates identically."""
        return self.root.render()

    def max_coord(self) -> int:
        """Largest coordinate index referenced, -1 if none (a constant expression)."""
        return self._max_coord

    def __repr__(self):
        return f"Expr({self.render()})"


# --- tokenizer -------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # "num", "name", "op", "eof"
    text: str
    offset: int  # 1-based


# one token, or a run of the whitespace str.isspace accepts in ASCII, at a given offset
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|[\t-\r\x1c-\x20]+")


def _tokenize(src: str):
    """Tokens of ASCII text; any other character is a ParseError at its offset."""
    toks = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise ParseError(i + 1, f"a valid token, not {src[i]!r}")
        kind, text = m.lastgroup, m.group()
        if kind == "num" and not math.isfinite(float(text)):
            raise ParseError(i + 1, f"a finite number, not {text!r}")
        if kind is not None:
            toks.append(_Tok(kind, text, i + 1))
        i = m.end()
    toks.append(_Tok("eof", "", len(src) + 1))
    return toks


# --- recursive descent parser ----------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "op" or t.text != op:
            raise ParseError(t.offset, f"'{op}'")
        return self.advance()

    def parse(self) -> _Node:
        node = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(t.offset, "end of input or an operator")
        return node

    def expr(self) -> _Node:
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.advance()
                node = Bin(t.text, node, self.term())
            else:
                return node

    def term(self) -> _Node:
        node = self.unary()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "*/":
                self.advance()
                node = Bin(t.text, node, self.unary())
            else:
                return node

    def unary(self) -> _Node:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> _Node:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Lit(float(t.text))
        if t.kind == "op" and t.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if t.kind == "name":
            self.advance()
            return self.name_atom(t)
        raise ParseError(t.offset, "a number, name or '('")

    def name_atom(self, t: _Tok) -> _Node:
        name = t.text
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "(":
            if name not in FUNCTIONS:
                raise ParseError(t.offset, f"a function name, not {name!r}")
            self.advance()
            arg = self.expr()
            self.expect_op(")")
            return Call(name, arg)
        if name in CONSTANTS:
            return Const(name)
        if name in COORD_ALIASES:
            return Coord(COORD_ALIASES[name])
        if name[0] == "x" and name[1:].isdigit():
            return Coord(int(name[1:]))
        if name in FUNCTIONS:
            raise ParseError(self.peek().offset, f"'(' after function {name!r}")
        raise ParseError(t.offset, f"a known symbol, not {name!r}")


def parse(src: str) -> Expr:
    """Parse DSL text into an Expr; raises ParseError with a 1-based offset."""
    return Expr(_Parser(src).parse(), src)

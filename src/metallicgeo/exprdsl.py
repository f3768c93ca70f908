"""Scalar expression DSL over chart coordinates.

Expressions define metric and structure components inside manifold spec
files. They are parsed once into an immutable AST and evaluated in IEEE
double precision, at one chart point or at a stack of points at once. A
`Program` is the one way trees are evaluated and rendered: it numbers the
distinct sub-trees of one or more trees (the entries of a field, or the one
tree of an `Expr`) and applies each once per run, one numpy ufunc over the
whole stack. No method walks a tree by recursion, so an expression of any
length evaluates. No symbolic differentiation is done here (derivatives are
taken numerically downstream).

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;
    atom    = NUMBER | call | name | "(" expr ")" ;
    call    = FUNC "(" expr ")" ;
    NUMBER  = digits [ "." [digits] ] [ ("e"|"E") ["+"|"-"] digits ] ;

A NUMBER that overflows a double, such as 1e400, is a parse error, and so
is nesting deeper than 100 levels of parentheses, calls, unary minuses and
"^" exponents (the parser recurses once per level).
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
    "Program",
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


class _NotFinite(Exception):
    """A step's value is not finite at `point`; the program names the step's sub-expression."""

    def __init__(self, reason: str, point):
        self.reason, self.point = reason, point


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
        raise _NotFinite(node.domain_reason(*at_row), points[row])
    return value


# --- AST nodes -------------------------------------------------------------


class _Node:
    """A node of a parsed tree; it knows its own fields only.

    `apply(points, *operand values)` maps the values of its operands at a
    stack of points (m, n) to its value: an array (m,), or a scalar if
    constant. `pieces(*operand steps)` spells its text around the steps of
    its operands. Neither looks at an operand's node, so no node method
    walks a tree: `Program` does, once, without recursion.
    """


@dataclass(frozen=True, eq=False, repr=False)
class Lit(_Node):
    value: float

    def apply(self, points):
        return self.value

    def pieces(self):
        return (repr(float(self.value)),)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    name: str

    def apply(self, points):
        return CONSTANTS[self.name]

    def pieces(self):
        return (self.name,)


@dataclass(frozen=True, eq=False, repr=False)
class Coord(_Node):
    index: int

    def apply(self, points):
        return points[:, self.index]

    def pieces(self):
        return (f"x{self.index}",)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: _Node

    def apply(self, points, x):
        return np.negative(x)

    def pieces(self, x):
        return ("(-", x, ")")


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str
    left: _Node
    right: _Node

    def apply(self, points, a, b):
        return _finite(self, points, _BINARY[self.op](a, b), a, b)

    def domain_reason(self, a, b):
        if self.op == "/" and b == 0.0:
            return "division by zero"
        if self.op == "^" and a < 0.0 and b != math.floor(b):
            return "non-integer power of a negative base"
        if self.op == "^" and a == 0.0 and b < 0.0:
            return "negative power of zero"
        return "non-finite value"

    def pieces(self, a, b):
        return ("(", a, f" {self.op} ", b, ")")


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    func: str
    arg: _Node

    def apply(self, points, x):
        return _finite(self, points, _UNARY[self.func](x), x)

    def domain_reason(self, x):
        if self.func == "ln" and x <= 0.0:
            return "logarithm of a non-positive number"
        if self.func == "sqrt" and x < 0.0:
            return "square root of a negative number"
        return "non-finite value"

    def pieces(self, x):
        return (f"{self.func}(", x, ")")


class Program:
    """One straight-line program over the distinct sub-trees of some expression trees.

    Two sub-trees are one step when they have the same node type, the same
    own fields and the same operand steps (value numbering). Steps are
    numbered in the order in which a left-to-right depth-first walk of the
    roots, in the order given, completes them, so every step comes after its
    operands, and the first step whose value is not finite is the node a
    walk of each tree in turn would meet first: a repeated sub-tree was
    finite where it was first met. A run evaluates the leaves (literals,
    constants, coordinates) and then every other step once, in that order,
    and its domain error names that step's sub-expression and the first
    point of the stack at which it fails.

    A run keeps its values to itself, so one program may run from many
    threads at once.
    """

    def __init__(self, roots):
        roots = tuple(roots)
        steps, number, step_of = [], {}, {}  # number: key -> step, step_of: id(node) -> step
        for root in roots:
            todo = [root]
            while todo:
                node = todo[-1]
                fields = tuple(vars(node).values())
                waiting = [f for f in fields if isinstance(f, _Node) and id(f) not in step_of]
                if waiting:
                    todo.extend(reversed(waiting))
                    continue
                todo.pop()
                args = tuple(step_of[id(f)] for f in fields if isinstance(f, _Node))
                key = (type(node), *(f for f in fields if not isinstance(f, _Node)), args)
                k = step_of[id(node)] = number.setdefault(key, len(steps))
                if k == len(steps):
                    steps.append((node, args))
        self.steps = tuple(steps)  # (node, operand steps)
        self.roots = tuple(step_of[id(root)] for root in roots)
        self.max_coord = max((node.index for node, _ in steps if isinstance(node, Coord)),
                             default=-1)
        self._leaves = tuple((k, node) for k, (node, args) in enumerate(steps) if not args)
        # unary steps carry None as their second operand, so that `run` calls by arity
        self._ops = tuple((k, node.apply, args[0], args[1] if len(args) > 1 else None)
                          for k, (node, args) in enumerate(steps) if args)

    def run(self, points: np.ndarray) -> list:
        """The value of each root at a stack of points (m, n): an array (m,), or a scalar
        if the root is constant."""
        values = [None] * len(self.steps)
        with np.errstate(all="ignore"):  # domain errors are found from masks instead
            for k, leaf in self._leaves:
                values[k] = leaf.apply(points)
            try:
                for k, apply, a, b in self._ops:
                    values[k] = (apply(points, values[a]) if b is None
                                 else apply(points, values[a], values[b]))
            except _NotFinite as exc:
                raise EvalDomainError(exc.reason, self.render(k), exc.point) from None
        return [values[r] for r in self.roots]

    def render(self, step: int) -> str:
        """The fully parenthesized text of one step, spelled from the steps."""
        out, todo = [], [step]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            else:
                node, args = self.steps[item]
                todo.extend(reversed(node.pieces(*args)))
        return "".join(out)


class Expr:
    """An immutable parsed expression: its tree and the one-root program that evaluates it.

    Pure value object: evaluation has no side effects, so one Expr may be
    evaluated from many threads concurrently. The largest coordinate index
    the tree references is found once, here, not on every evaluation.
    """

    __slots__ = ("root", "source", "_program")

    def __init__(self, root: _Node, source: str = ""):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_program", Program((root,)))

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def eval(self, point=()):
        """Evaluate at one point (n,) -> float, or at a stack of points (m, n) -> array (m,)."""
        pts = np.asarray(point, dtype=float)
        stack = pts.reshape(1, -1) if pts.ndim == 1 else pts
        n = self._program.max_coord + 1
        if stack.shape[1] < n:
            raise ValueError(
                f"expression references x{n - 1} but the point has only"
                f" {stack.shape[1]} coordinate(s)"
            )
        value, = self._program.run(stack)
        values = np.full(len(stack), value) if np.ndim(value) == 0 else np.array(value, dtype=float)
        return float(values[0]) if pts.ndim == 1 else values

    def render(self) -> str:
        """Fully parenthesized text form; parse(render()) evaluates identically."""
        return self._program.render(self._program.roots[0])

    def max_coord(self) -> int:
        """Largest coordinate index referenced, -1 if none (a constant expression)."""
        return self._program.max_coord

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


# deepest nesting of parentheses, calls, unary minuses and "^" exponents: the parser
# recurses once per level, and Python's stack is bounded
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def nested(self, t: _Tok, parse):
        """parse(), one level of nesting deeper; past _MAX_NESTING levels, a ParseError at t."""
        if self.depth == _MAX_NESTING:
            raise ParseError(t.offset, f"nesting at most {_MAX_NESTING} deep")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

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
            return Neg(self.nested(t, self.unary))
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            return Bin("^", base, self.nested(t, self.unary))
        return base

    def atom(self) -> _Node:
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return Lit(float(t.text))
        if t.kind == "op" and t.text == "(":
            self.advance()
            node = self.nested(t, self.expr)
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
            arg = self.nested(nxt, self.expr)
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

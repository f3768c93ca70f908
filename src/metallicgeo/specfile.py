"""Manifold spec files: a flat key-value text format for (chart, g, J_M).

One `key = value` assignment per line; `#` starts a comment. Keys:

    name = my-manifold                  optional label
    dimension = 2                       even, >= 2
    p = 0.0                             optional; any other value is an error
    q = 0.6666666666666666
    bounds = -1 1, -1 1                 one "lo hi" pair per coordinate
    grid = 3                            per-axis grid count        (default 3)
    random_points = 0                   seeded interior samples    (default 0)
    seed = 42                                                       (default 42)
    margin = 0.05                       distance kept from bounds  (default 0.05)
    g[i][j] = <expression>              upper triangle; symmetric completion
                                        implied, missing entries are 0
    structure = J | JM                  how the structure is given
    sign = + | -                        required when structure = J
    j[a][b] = <expression>              components of J  (rows act on vectors)
    jm[a][b] = <expression>             components of J_M when structure = JM
    point NAME = 0.1 -0.2               named sample point (repeatable, one per NAME)
    h = 0.001                           optional differencing step override
    tol_TIER = 1e-5                     optional; TIER is a field of `Tolerances`

The structure parameter p must be 0: a skew fundamental form needs
tr J_M = 0, and the polynomial identity gives tr J_M = p * dimension/2.
The key is kept so that spec text written with `p = 0.0` stays valid.

Component expressions use the DSL of `exprdsl` (coordinates x0..x{n-1}).
Each entry is parsed on its own; the g entries, and the structure entries,
each make one `exprdsl.Program`, so a field call evaluates every distinct
sub-expression of the field once, wherever entries repeat it.
`j[a][b]`/`jm[a][b]` is the matrix entry in row a, column b of the matrix
acting on coordinate vectors: (J v)^a = sum_b J[a][b] v^b. Parse failures
carry the 1-based line number and offset. A key given twice, a component
or a named point too, is a parse failure on its second line.

A parsed `ManifoldSpec` is immutable. It builds its chart and its g and
structure fields once, on first use, and `build_bundle` builds a new bundle
on them with a run's own q, seed, step and tolerances. The CLI keeps the
spec of each text it reads, keyed by the text (`cli._parsed_spec`), so a
process parses a text and builds its chart and fields once, however many
runs read it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import exprdsl
from .diffcalc import DiffScheme
from .geometry import Chart, TensorField, first_outside
from .metallic import MetallicParams, StructureBundle, Tolerances

__all__ = ["SpecFileError", "ManifoldSpec", "parse_spec", "build_bundle", "spec_sha256"]


class SpecFileError(ValueError):
    """Located parse failure inside a manifold spec file."""

    def __init__(self, line: int, offset: int, message: str):
        self.line = line
        self.offset = offset
        super().__init__(f"line {line}, offset {offset}: {message}")


_INDEXED = re.compile(r"^(g|j|jm)\[(\d+)\]\[(\d+)\]$")
_POINT = re.compile(r"^point\s+(\S+)$")

_SCALARS = {"dimension", "p", "q", "grid", "random_points", "seed", "margin", "h",
            "structure", "sign", "name", *(f"tol_{tier.name}" for tier in fields(Tolerances))}


@dataclass(frozen=True)
class ManifoldSpec:
    """A parsed spec, immutable: its mappings are read-only views. The chart and the two
    expression fields are built on first use and kept, so that every bundle built from one
    spec shares them; a chart the engine rejects raises on every use."""

    dimension: int = 0
    q: float = 0.0
    bounds: tuple = ()
    grid: int = 3
    random_points: int = 0
    seed: int = 42
    margin: float = 0.05
    name: str = "spec"
    structure: str = ""          # "J" or "JM"
    sign: int = +1
    g_entries: Mapping = field(kw_only=True)  # (i, j) -> parsed exprdsl.Expr
    s_entries: Mapping = field(kw_only=True)  # (a, b) -> parsed exprdsl.Expr
    named_points: Mapping = field(kw_only=True)
    h: float | None = None
    tol: Mapping = field(kw_only=True)

    @cached_property
    def chart(self) -> Chart:
        return Chart(dimension=self.dimension, bounds=self.bounds, grid=self.grid,
                     n_random=self.random_points, margin=self.margin,
                     named_points=self.named_points)

    @cached_property
    def g_field(self) -> TensorField:
        return _expr_matrix_field("g", self.dimension, self.g_entries, symmetric=True)

    @cached_property
    def s_field(self) -> TensorField:
        """The structure as given: J or J_M, as `structure` says."""
        return _expr_matrix_field("structure", self.dimension, self.s_entries, symmetric=False)


def _parse_number(text: str, line_no: int, col: int, kind=float):
    try:
        return kind(text)
    except ValueError:
        article = "an" if kind is int else "a"
        raise SpecFileError(line_no, col, f"expected {article} {kind.__name__}, got {text!r}") from None


def _given_once(given_at: dict, key: str, line_no: int) -> None:
    """Record that `key` is given on line_no; a key given before is a SpecFileError, where a
    later value would silently replace the earlier one."""
    if key in given_at:
        raise SpecFileError(line_no, 1, f"repeated key {key!r}, first given on line {given_at[key]}")
    given_at[key] = line_no


def parse_spec(text: str) -> ManifoldSpec:
    """Parse spec text into a new ManifoldSpec; raises SpecFileError with line/offset on
    failure. Nothing is cached here: a caller that runs one text many times keeps the spec
    (as `cli` does, per text), and with it the chart and fields the spec builds once."""
    values, g_entries, s_entries, named_points, tol = {}, {}, {}, {}, {}
    seen_structure_keys, point_at = set(), {}  # point_at: named point -> (line, offset)
    given_at = {}  # key (a component as g[i][j], a point as "point NAME") -> its line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise SpecFileError(line_no, len(line.rstrip()) + 1, "expected 'key = value'")
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        value = value_part.strip()
        value_col = raw.index("=") + 2 + (len(value_part) - len(value_part.lstrip()))
        if not value:
            raise SpecFileError(line_no, value_col, f"missing value for {key!r}")

        m = _INDEXED.match(key)
        if m:
            what, i, j = m.group(1), int(m.group(2)), int(m.group(3))
            _given_once(given_at, f"{what}[{i}][{j}]", line_no)
            try:
                expr = exprdsl.parse(value)
            except exprdsl.ParseError as exc:
                raise SpecFileError(line_no, value_col + exc.offset - 1, str(exc)) from exc
            if what == "g":
                if j < i:
                    raise SpecFileError(line_no, 1, "metric entries use the upper triangle (i <= j)")
                g_entries[(i, j)] = expr
            else:
                seen_structure_keys.add(what)
                s_entries[(i, j)] = expr
            continue

        m = _POINT.match(key)
        if m:
            _given_once(given_at, f"point {m.group(1)}", line_no)
            try:
                named_points[m.group(1)] = tuple(float(tok) for tok in value.split())
            except ValueError:
                raise SpecFileError(line_no, value_col, "named point needs space-separated numbers") from None
            point_at[m.group(1)] = (line_no, value_col)
            continue

        _given_once(given_at, key, line_no)
        if key == "bounds":
            pairs = []
            for chunk in value.split(","):
                toks = chunk.split()
                if len(toks) != 2:
                    raise SpecFileError(line_no, value_col, "bounds need 'lo hi' pairs separated by commas")
                pairs.append((_parse_number(toks[0], line_no, value_col),
                              _parse_number(toks[1], line_no, value_col)))
            values[key] = tuple(pairs)
            continue

        if key not in _SCALARS:
            raise SpecFileError(line_no, 1, f"unknown key {key!r}")
        if key == "name":
            values[key] = value
        elif key == "structure":
            if value not in ("J", "JM"):
                raise SpecFileError(line_no, value_col, "structure must be J or JM")
            values[key] = value
        elif key == "sign":
            if value not in ("+", "-"):
                raise SpecFileError(line_no, value_col, "sign must be + or -")
            values[key] = +1 if value == "+" else -1
        elif key in ("dimension", "grid", "random_points", "seed"):
            values[key] = _parse_number(value, line_no, value_col, int)
        elif key.startswith("tol_"):
            tol[key[4:]] = _parse_number(value, line_no, value_col)
        elif key == "p":
            if _parse_number(value, line_no, value_col) != 0.0:
                raise SpecFileError(line_no, value_col, "p must be 0: a skew fundamental form"
                                    " needs tr J_M = 0, and the polynomial gives"
                                    " tr J_M = p·dimension/2")
        else:
            values[key] = _parse_number(value, line_no, value_col)

    spec = ManifoldSpec(**values, g_entries=MappingProxyType(g_entries),
                        s_entries=MappingProxyType(s_entries),
                        named_points=MappingProxyType(named_points), tol=MappingProxyType(tol))
    if spec.dimension <= 0:
        raise SpecFileError(1, 1, "missing or invalid 'dimension'")
    if len(spec.bounds) != spec.dimension:
        raise SpecFileError(1, 1, f"bounds must list {spec.dimension} pairs")
    if spec.structure not in ("J", "JM"):
        raise SpecFileError(1, 1, "missing 'structure = J' or 'structure = JM'")
    if len(seen_structure_keys) > 1:
        raise SpecFileError(1, 1, "give either j[..] or jm[..] entries, not both")
    if seen_structure_keys and seen_structure_keys != {spec.structure.lower()}:
        raise SpecFileError(1, 1, f"structure = {spec.structure} but entries use another key")
    if not spec.s_entries:
        raise SpecFileError(1, 1, "no structure components given")
    n = spec.dimension
    # bounds or a margin that the chart rejects are reported by the chart itself
    checkable = np.isfinite(spec.bounds).all() and np.isfinite(spec.margin)
    for name, pt in spec.named_points.items():
        if len(pt) != n:
            raise SpecFileError(*point_at[name], f"named point {name!r} needs {n} coordinates, got {len(pt)}")
        if checkable and first_outside(pt, spec.bounds, spec.margin) is not None:
            raise SpecFileError(*point_at[name], f"named point {name!r} is not inside the chart margin")
    for (i, j) in list(spec.g_entries) + list(spec.s_entries):
        if not (0 <= i < n and 0 <= j < n):
            raise SpecFileError(1, 1, f"component index [{i}][{j}] outside dimension {n}")
    for expr in list(spec.g_entries.values()) + list(spec.s_entries.values()):
        if expr.max_coord() >= n:
            raise SpecFileError(1, 1, f"expression {expr.source!r} references x{expr.max_coord()}"
                                       f" but the dimension is {n}")
    return spec


def spec_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expr_matrix_field(name: str, n: int, entries: dict, symmetric: bool) -> TensorField:
    """The matrix field of `entries`, (row, column) -> Expr.

    The entries, in file order, make one `exprdsl.Program`. A call runs it
    once, so every distinct sub-expression of the field is evaluated once
    and the first entry that fails to evaluate is the first in file order.
    Each entry's value goes to its slot, and to the mirror slot of an
    off-diagonal metric entry.

    A field none of whose entries references a coordinate is marked constant
    (`TensorField.constant`), so that the engine evaluates it at the points
    alone; it is evaluated like any other field, at every point it is called at.
    """
    program = exprdsl.Program(expr.root for expr in entries.values())
    slots = [((i, j), (j, i)) if symmetric and i != j else ((i, j),) for i, j in entries]

    def fn(pts):
        out = np.zeros((len(pts), n, n))
        for entry_slots, v in zip(slots, program.run(pts)):
            for i, j in entry_slots:
                out[:, i, j] = v
        return out

    return TensorField(name=name, fn=fn, constant=program.max_coord < 0)


def build_bundle(spec: ManifoldSpec, *, q: float | None = None, seed: int | None = None,
                 h: float | None = None, tol: Mapping | None = None) -> StructureBundle:
    """Materialize a new StructureBundle of `spec` without evaluating a field.

    q, seed and h, when given, replace the spec's own settings, and each tier
    in `tol` the spec's tolerance of that tier: the bundle is built with the
    run's settings only, never first with the spec's. It is built on the
    chart and the g and structure fields the spec built once, with the
    structure as the spec gives it (J with its sign, or J_M); the bundle
    derives J_M, which depends on q. Checks run in this order: the
    structure parameter, the chart (by its constructor, on first use), the
    step, the tolerances, then the seed and the step against the chart
    margin (by the bundle). The fields are evaluated only where a command
    reads them: `classify` and `verify` at the run's sample points, as node 0
    of the order-1 stencil, and `curvature` around its point. A domain error,
    a non-finite value or a singular metric is raised there and names its
    point. The metric needs no symmetry check: one value fills both
    triangles of each entry.
    """
    params = MetallicParams(spec.q if q is None else q)
    chart, g, struct = spec.chart, spec.g_field, spec.s_field
    h = spec.h if h is None else h
    scheme = DiffScheme() if h is None else DiffScheme(h)
    tolerances = Tolerances(**{**spec.tol, **(tol or {})})
    return StructureBundle(chart, g, struct, params, scheme=scheme, tolerances=tolerances,
                           seed=spec.seed if seed is None else seed,
                           sign=spec.sign if spec.structure == "J" else None)

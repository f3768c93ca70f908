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
    tol_alg | tol_d1 | tol_d2 | tol_d3  optional tolerance overrides

The structure parameter p must be 0: a skew fundamental form needs
tr J_M = 0, and the polynomial identity gives tr J_M = p * dimension/2.
The key is kept so that spec text written with `p = 0.0` stays valid.

Component expressions use the DSL of `exprdsl` (coordinates x0..x{n-1}).
`j[a][b]`/`jm[a][b]` is the matrix entry in row a, column b of the matrix
acting on coordinate vectors: (J v)^a = sum_b J[a][b] v^b. Parse failures
carry the 1-based line number and offset. A key given twice, a component
or a named point too, is a parse failure on its second line.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field as dc_field

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
            "tol_alg", "tol_d1", "tol_d2", "tol_d3", "structure", "sign", "name"}


@dataclass
class ManifoldSpec:
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
    g_entries: dict = dc_field(default_factory=dict)   # (i, j) -> parsed exprdsl.Expr
    s_entries: dict = dc_field(default_factory=dict)   # (a, b) -> parsed exprdsl.Expr
    named_points: dict = dc_field(default_factory=dict)
    h: float | None = None
    tol: dict = dc_field(default_factory=dict)


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
    """Parse spec text; raises SpecFileError with line/offset on failure."""
    spec = ManifoldSpec()
    seen_structure_keys, point_at = set(), {}  # point_at: named point -> (line, offset)
    parsed = {}  # expression text -> Expr: entries with the same text share one
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
            expr = parsed.get(value)
            if expr is None:
                try:
                    expr = parsed[value] = exprdsl.parse(value)
                except exprdsl.ParseError as exc:
                    raise SpecFileError(line_no, value_col + exc.offset - 1, str(exc)) from exc
            if what == "g":
                if j < i:
                    raise SpecFileError(line_no, 1, "metric entries use the upper triangle (i <= j)")
                spec.g_entries[(i, j)] = expr
            else:
                seen_structure_keys.add(what)
                spec.s_entries[(i, j)] = expr
            continue

        m = _POINT.match(key)
        if m:
            _given_once(given_at, f"point {m.group(1)}", line_no)
            try:
                spec.named_points[m.group(1)] = tuple(float(tok) for tok in value.split())
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
            spec.bounds = tuple(pairs)
            continue

        if key not in _SCALARS:
            raise SpecFileError(line_no, 1, f"unknown key {key!r}")
        if key == "name":
            spec.name = value
        elif key == "structure":
            if value not in ("J", "JM"):
                raise SpecFileError(line_no, value_col, "structure must be J or JM")
            spec.structure = value
        elif key == "sign":
            if value not in ("+", "-"):
                raise SpecFileError(line_no, value_col, "sign must be + or -")
            spec.sign = +1 if value == "+" else -1
        elif key in ("dimension", "grid", "random_points", "seed"):
            setattr(spec, key, _parse_number(value, line_no, value_col, int))
        elif key.startswith("tol_"):
            spec.tol[key[4:]] = _parse_number(value, line_no, value_col)
        elif key == "h":
            spec.h = _parse_number(value, line_no, value_col)
        elif key == "p":
            if _parse_number(value, line_no, value_col) != 0.0:
                raise SpecFileError(line_no, value_col, "p must be 0: a skew fundamental form"
                                    " needs tr J_M = 0, and the polynomial gives"
                                    " tr J_M = p·dimension/2")
        else:
            setattr(spec, key, _parse_number(value, line_no, value_col))

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

    Entries whose parsed trees are equal form one group, in the file order of
    their first entry: a call evaluates each group once and writes its value
    to every slot of the group (both triangles of an off-diagonal metric
    entry), so the first entry that fails to evaluate is still the first in
    file order.

    A field none of whose entries references a coordinate is marked constant
    (`TensorField.constant`), so that the engine evaluates it at the points
    alone; it is evaluated like any other field, at every point it is called at.
    """
    groups = {}  # tree -> (expr, slots)
    for (i, j), expr in entries.items():
        slots = groups.setdefault(expr.root, (expr, []))[1]
        slots.append((i, j))
        if symmetric and i != j:
            slots.append((j, i))

    def fn(pts):
        out = np.zeros((len(pts), n, n))
        for expr, slots in groups.values():
            v = expr.eval(pts)
            for i, j in slots:
                out[:, i, j] = v
        return out

    constant = all(expr.max_coord() < 0 for expr, _ in groups.values())
    return TensorField(name=name, fn=fn, constant=constant)


def build_bundle(spec: ManifoldSpec) -> StructureBundle:
    """Materialize a StructureBundle without evaluating a field.

    The chart, step, parameters and tolerances are checked here, by their own
    constructors, and the seed by the bundle, which carries it beside the step
    and the tolerances. The fields are evaluated only where a command reads
    them: `classify` and `verify` at the run's sample points (after any --seed,
    --h and tolerance overrides), as node 0 of the order-1 stencil, and
    `curvature` around its point. A domain error, a non-finite value or a
    singular metric is raised there and names its point. The metric needs no
    symmetry check: one value fills both triangles of each entry.
    """
    params = MetallicParams(spec.q)
    chart = Chart(dimension=spec.dimension, bounds=spec.bounds, grid=spec.grid,
                  n_random=spec.random_points, margin=spec.margin,
                  named_points=spec.named_points)
    g = _expr_matrix_field("g", spec.dimension, spec.g_entries, symmetric=True)
    scheme = DiffScheme(spec.h) if spec.h is not None else DiffScheme()
    tol = Tolerances(**{k: v for k, v in spec.tol.items()}) if spec.tol else Tolerances()
    struct = _expr_matrix_field("structure", spec.dimension, spec.s_entries, symmetric=False)
    if spec.structure == "J":
        return StructureBundle.from_j(chart, g, struct, params, sign=spec.sign,
                                      scheme=scheme, tolerances=tol, seed=spec.seed)
    return StructureBundle(chart, g, struct, params, scheme=scheme, tolerances=tol, seed=spec.seed)

"""Command-line front end.

    metallicgeo classify  (SPEC | --zoo NAME) [options]
    metallicgeo verify    (SPEC | --zoo NAME) --suite all|metallic|nearly|connections
    metallicgeo curvature (SPEC | --zoo NAME) --point x0,x1,...

Exit codes: 0 successful run (for verify: every asserted, non-skipped check
passed), 1 at least one asserted identity failed, 2 invalid input (a spec
file that cannot be read, a spec parse error, with file, line and offset
printed, or a chart, structure parameter, differencing step or tolerance
the engine rejects), 3 numerical failure (singular metric, a point outside
the chart, an expression evaluated outside its domain or to a non-finite
value, a reported value that is not finite, named with its point, or a zoo
fixture whose self-check fails at the given q).

JSON reports are deterministic for a fixed spec and seed: fields are
emitted in a fixed order, and every float is rounded to 6 significant
digits and spelled as Python's json module spells the rounded value (its
repr, or NaN, Infinity, -Infinity). `report_json` writes a report in one
walk, indented by two spaces as `json.dumps(..., indent=2)` would, and
spells the entries of a float array (the curvature tensors) in one pass.
The timing field (seconds of `time.perf_counter`) is informational and
excluded from the determinism guarantee.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, zoo
from .diffcalc import ORDER1, ORDER2, DiffScheme
from .exprdsl import EvalDomainError
from .geometry import ChartBoundsError, NumericalError, SingularMetricError, largest_abs
from .identities import run_suite
from .connections import connection_report
from .metallic import StructureBundle
from .specfile import ManifoldSpec, SpecFileError, build_bundle, parse_spec, spec_sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    """A spec file that cannot be read, a chart, structure parameter, step or tolerance
    that the engine rejects, or a `--point` that is not numbers or has the wrong number of
    coordinates (exit 2)."""


def _bundle_from_args(args, draw_samples: bool = True) -> tuple[StructureBundle, dict]:
    """The run's bundle and source; a setting the engine rejects is an InputError (exit 2).
    --q, --seed, --h and --tol-* replace the source's own settings before the bundle checks
    its chart against its step. A spec file is read on every run and its text parsed once
    per process (`_parsed_spec`); the run's bundle is built by `build_bundle` with the
    overrides, on the chart and fields the spec built once. A zoo fixture is checked with
    its own settings, at --q when it is given (`zoo.get`: the checked fixture's bundle at
    that q), and the run's bundle is always its own: one `replace` of the checked bundle, on
    its chart, with the overrides and empty caches, so that nothing the run computes stays
    on the fixture. Either way `source.sha256` is the hash of the one text of the source,
    whatever the flags. classify and verify read the sample points, so they are drawn here,
    where a policy with fewer than 8 distinct points is rejected too; curvature draws none."""
    seed, h = args.seed, args.h
    tol = {k: getattr(args, f"tol_{k}") for k in ("alg", "d1", "d2")}
    tol = {k: v for k, v in tol.items() if v is not None}
    try:
        if args.zoo:
            fx = zoo.get(args.zoo, zoo.DEFAULT_Q if args.q is None else args.q)
            checked = fx.bundle
            bundle = replace(
                checked, seed=checked.seed if seed is None else seed,
                scheme=checked.scheme if h is None else DiffScheme(h),
                tolerances=replace(checked.tolerances, **tol) if tol else checked.tolerances)
            source = {"kind": "zoo", "name": fx.name,
                      "sha256": spec_sha256(fx.spec_text or fx.name)}
        else:
            try:
                text = Path(args.spec).read_text(encoding="utf-8")
            except OSError as exc:  # missing, a directory, unreadable
                raise InputError(str(exc)) from exc
            bundle = build_bundle(_parsed_spec(text), q=args.q, seed=seed, h=h, tol=tol)
            source = {"kind": "file", "name": args.spec, "sha256": spec_sha256(text)}
        if draw_samples:
            bundle.sample_points
        return bundle, source
    except SpecFileError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


@functools.lru_cache(maxsize=16)
def _parsed_spec(text: str) -> ManifoldSpec:
    """The spec of `text`, parsed on first use and kept for the last 16 texts; a text that
    fails to parse is parsed, and fails, again on every run. The key is the text, not a path,
    so an edited file is parsed afresh. A kept spec is immutable and holds no engine result,
    only its chart and fields: each run builds its own bundle on them with its own settings.
    `_parsed_spec.cache_info()` and `_parsed_spec.cache_clear()` read and clear the cache."""
    return parse_spec(text)


def _base_report(bundle: StructureBundle, source: dict) -> dict:
    return {
        "version": __version__,
        "source": source,
        "params": {"p": 0.0, "q": bundle.params.q,
                   "dimension": bundle.chart.dimension},
        "seed": bundle.seed,
        "scheme": {"h1": bundle.scheme.h1, "order1": ORDER1,
                   "h2": bundle.scheme.h2, "order2": ORDER2, "richardson2": True},
        "tolerances": dict(vars(bundle.tolerances)),
    }


_ENCODE_STR = json.encoder.encode_basestring_ascii  # the C function json.dumps uses
_FLOAT_REPR = float.__repr__
# json text of the %.6g tokens that are not finite, and of the zeros %.6g writes without ".0"
_TOKEN_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "0": "0.0", "-0": "-0.0"}


def report_json(report: dict) -> str:
    """The report as ``json.dumps(report, ensure_ascii=True, indent=2) + "\\n"`` writes it,
    with every float, a float array's entries too, rounded to 6 significant digits first.

    One walk rounds and writes each value. Dict keys must be strings, a float
    array is written as its nested lists, and any other type raises TypeError.
    """
    out = []
    _write(report, "", out)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    """x rounded to 6 significant digits, spelled as json.dumps spells that float."""
    text = "%.6g" % x
    # |x| < 999999.5 rounds below 1e6, where %.6g and repr both switch to an exponent only
    # under 1e-4: a token with a point or an exponent is then the repr of a normal value
    if 1e-300 < abs(x) < 999999.5 and ("." in text or "e" in text):
        return text
    return _TOKEN_TEXT.get(text) or _FLOAT_REPR(float(text))


_LEAF_TEXT = {str: _ENCODE_STR, float: _float_text, int: int.__repr__,
              bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _write(x, indent: str, out: list) -> None:
    """Append the json text of x to out; indent is the indentation of x's own line."""
    leaf = _LEAF_TEXT.get(type(x))
    if leaf is not None:
        out.append(leaf(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in x.items():
            out.append(sep + _ENCODE_STR(key) + ": ")
            _write(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in x:
            out.append(sep)
            _write(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(x, np.ndarray) and x.dtype.kind == "f":
        out.append(_float_array_text(x, indent))
    else:  # a subclass of a leaf type, such as np.float64, is written as its base
        for base in (str, float, int):
            if isinstance(x, base):
                out.append(_LEAF_TEXT[base](x))
                return
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _float_array_text(a: np.ndarray, indent: str) -> str:
    """A float array as _write writes the nested lists of its rounded entries.

    One %.6g pass spells every entry. A token is already the text of its
    rounded value unless that value is integral ("12" for "12.0"), 1e6 or
    more ("1e+06" for "1000000.0"), subnormal or not finite. A mask finds a
    superset of those entries, and only they are spelled again: |x| capped
    at the integer 5e4 (nan too) puts large and non-finite entries among the
    integers; rounding to 6 digits moves x by at most 5e-6 |x|, so an entry
    that rounds to an integer lies within 1e-5 |x| of one; the 1e-300 adds
    zeros and subnormals.
    """
    flat = np.asarray(a, dtype=float).ravel()
    values = flat.tolist()
    tokens = ("%.6g," * len(values) % tuple(values)).split(",")[:-1]
    mag = np.fmin(np.abs(flat), 5e4)
    respell = np.abs(mag - np.rint(mag)) <= 1e-5 * mag + 1e-300
    for i in np.flatnonzero(respell).tolist():
        tok = tokens[i]
        tokens[i] = _TOKEN_TEXT.get(tok) or _FLOAT_REPR(float(tok))
    return _layout(a.shape, indent) % tuple(tokens)


@functools.lru_cache(maxsize=64)
def _layout(shape: tuple, indent: str) -> str:
    """The %s template of an array of this shape whose first line is indented by indent."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    item = _layout(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + indent + "]"


def _print_classification(cls_dict: dict, stream):
    print(f"verdict: {cls_dict['verdict']}", file=stream)
    print(f"nearly:  {cls_dict['nearly']}", file=stream)
    for key, val in cls_dict["residuals"].items():
        print(f"  {key:24s} {val:.6g}", file=stream)
    if cls_dict["near_boundary"]:
        print("near-boundary residuals: " + ", ".join(cls_dict["near_boundary"]), file=stream)


def cmd_classify(args) -> int:
    t0 = time.perf_counter()
    bundle, source = _bundle_from_args(args)
    cls = bundle.classification()
    report = _base_report(bundle, source)
    report["classification"] = cls.as_dict()
    report["timing_s"] = time.perf_counter() - t0
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        _print_classification(report["classification"], sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    bundle, source = _bundle_from_args(args)
    cls = bundle.classification()
    results = run_suite(bundle, args.suite)
    report = _base_report(bundle, source)
    report["classification"] = cls.as_dict()
    report["suite"] = args.suite
    report["identities"] = [r.as_dict() for r in results]
    report["connections"] = connection_report(bundle) if args.suite in ("all", "connections") else None
    report["timing_s"] = time.perf_counter() - t0
    failed = [r for r in results if r.status == "FAIL"]
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        _print_classification(report["classification"], sys.stdout)
        print(f"suite: {args.suite}", file=sys.stdout)
        for r in results:
            line = f"  {r.id:36s} {r.status:4s} rel={r.relative:.6g} tol={r.tolerance:.6g}"
            if r.note:
                line += f"  ({r.note})"
            print(line, file=sys.stdout)
        print(f"{len(results)} checks, {len(failed)} failed", file=sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_curvature(args) -> int:
    t0 = time.perf_counter()
    bundle, source = _bundle_from_args(args, draw_samples=False)
    try:
        point = np.array([float(tok) for tok in args.point.split(",")], dtype=float)
    except ValueError:
        raise InputError("--point needs comma-separated numbers") from None
    if point.size != bundle.chart.dimension:
        raise InputError(f"point has {point.size} coordinates, chart dimension is "
                         f"{bundle.chart.dimension}")
    ctx = bundle.context(point)
    pack = ctx.curvature
    c = bundle.params.coeff  # the context's H is of degree 1 in J_M = c J, the rest of 2
    report = _base_report(bundle, source)
    report["point"] = [float(v) for v in point]
    report["curvature"] = block = {
        "riemann_lowered": pack.Rdown,
        "ricci": pack.ricci,
        "scalar": pack.scalar,
        "H": c * ctx.H,
        "ricci_star": c * c * ctx.Sstar,
        "scalar_star": c * c * ctx.scalar_star,
        "norm_nabla_jm_sq": c * c * ctx.norm_covJ_sq,
        "symmetry_residuals": pack.symmetry_residuals(),
    }
    numbers = [np.ravel(list(v.values()) if isinstance(v, dict) else v) for v in block.values()]
    if not np.isfinite(np.concatenate(numbers)).all():  # name the first value not finite
        for key, value in zip(block, numbers):
            largest_abs(point[None], f"curvature {key}", value[None])
    report["timing_s"] = time.perf_counter() - t0
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        print(f"point: {point.tolist()}")
        print(f"scalar curvature:  {pack.scalar:.6g}")
        print(f"scalar* curvature: {block['scalar_star']:.6g}")
        print(f"|nabla J_M|^2:     {block['norm_nabla_jm_sq']:.6g}")
        with np.printoptions(precision=6, suppress=False):
            print("ricci:"); print(np.array2string(pack.ricci))
            print("ricci*:"); print(np.array2string(block["ricci_star"]))
            print("H:"); print(np.array2string(block["H"]))
            print("riemann (lowered):"); print(np.array2string(pack.Rdown))
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and never changed after; its
    `commands` maps each subcommand's name to the parser that `main` gives the rest of argv."""
    parser = argparse.ArgumentParser(
        prog="metallicgeo",
        description="Classify and verify metallic Kahler structures on coordinate charts.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("spec", nargs="?", help="manifold spec file")
        src.add_argument("--zoo", choices=zoo.names(), help="built-in fixture")
        p.add_argument("--q", type=float, default=None, help="structure parameter q override")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None, help="sample-point seed override")
        p.add_argument("--h", type=float, default=None, help="first-derivative step override")
        p.add_argument("--tol-alg", type=float, default=None)
        p.add_argument("--tol-d1", type=float, default=None)
        p.add_argument("--tol-d2", type=float, default=None)

    p_classify = sub.add_parser("classify", help="classification verdict and residuals")
    common(p_classify)
    p_classify.set_defaults(fn=cmd_classify)

    p_verify = sub.add_parser("verify", help="run gated identity suites")
    common(p_verify)
    p_verify.add_argument("--suite", choices=("all", "metallic", "nearly", "connections"),
                          default="all")
    p_verify.set_defaults(fn=cmd_verify)

    p_curv = sub.add_parser("curvature", help="curvature pack at one point")
    common(p_curv)
    p_curv.add_argument("--point", required=True, help="comma-separated coordinates")
    p_curv.set_defaults(fn=cmd_curvature)
    parser.commands = {"classify": p_classify, "verify": p_verify, "curvature": p_curv}
    return parser


def _join_point_value(argv: list) -> list:
    """Write `--point -0.18,0.2` as `--point=-0.18,0.2`.

    argparse takes a token that starts with '-' and is not a plain number
    (a comma makes it one) for an option, so a point whose first coordinate
    is negative would leave --point without its value.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--point" and re.match(r"-\.?\d", tok):
            out[-1] = f"--point={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` by default) and return its exit code.

    argv is parsed once: when it starts with a subcommand's name, that subcommand's parser
    parses the rest, as argparse's subparser action would, and the top-level parser reports
    any token left over ("unrecognized arguments", exit 2). Any other argv (empty, `-h`,
    `--version`, an unknown name, an option first) goes to the top-level parser, which can
    only print help, the version or an error for it.

    The command runs with numpy's floating-point warnings off. Every number a report carries
    is judged by its value (one that is not finite is a numerical failure, exit 3, named
    with its point), so a warning would decide nothing, and under `python -W error` it
    would end the run in a traceback instead.
    """
    parser = make_parser()
    argv = _join_point_value(sys.argv[1:] if argv is None else list(argv))
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        with np.errstate(all="ignore"):  # every reported number is judged by its value
            return args.fn(args)
    except SpecFileError as exc:
        name = getattr(args, "spec", None) or "<spec>"
        print(f"parse error: {name}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SingularMetricError, ChartBoundsError, EvalDomainError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

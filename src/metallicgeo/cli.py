"""Command-line front end.

    metallicgeo classify  (SPEC | --zoo NAME) [options]
    metallicgeo verify    (SPEC | --zoo NAME) --suite all|metallic|nearly|connections
    metallicgeo curvature (SPEC | --zoo NAME) --point x0,x1,...

Exit codes: 0 successful run (for verify: every asserted, non-skipped check
passed), 1 at least one asserted identity failed, 2 invalid input (a spec
parse error, with file, line and offset printed, or a chart, structure
parameter, differencing step or tolerance the engine rejects), 3 numerical
failure (singular metric, a point outside the chart, an expression
evaluated outside its domain or to a non-finite value, a reported value
that is not finite, named with its point, or a zoo fixture whose
self-check fails at the given q).

JSON reports are deterministic for a fixed spec and seed: fields are
emitted in a fixed order and every residual is rounded to 6 significant
digits. The timing field is informational and excluded from the
determinism guarantee.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, zoo
from .diffcalc import ORDER1, ORDER2, DiffScheme
from .exprdsl import EvalDomainError
from .geometry import ChartBoundsError, NumericalError, SingularMetricError
from .identities import run_suite
from .connections import connection_report
from .metallic import StructureBundle
from .specfile import SpecFileError, build_bundle, parse_spec, spec_sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


def _sig6(x):
    """Round floats to 6 significant digits for stable reports."""
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    return x


class InputError(Exception):
    """A chart, structure parameter, step or tolerance that the engine rejects (exit 2)."""


def _bundle_from_args(args) -> tuple[StructureBundle, dict]:
    try:
        return _build_bundle(args)
    except SpecFileError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _build_bundle(args) -> tuple[StructureBundle, dict]:
    if args.zoo:
        q = args.q if args.q is not None else zoo.DEFAULT_Q
        fx = zoo.get(args.zoo, q)
        bundle = fx.bundle
        source = {"kind": "zoo", "name": fx.name, "sha256": spec_sha256(fx.spec_text or fx.name)}
    else:
        text = open(args.spec, "r", encoding="utf-8").read()
        bundle = build_bundle(parse_spec(text))
        source = {"kind": "file", "name": args.spec, "sha256": spec_sha256(text)}
    tol = {k: getattr(args, f"tol_{k}") for k in ("alg", "d1", "d2")}
    tol = {k: v for k, v in tol.items() if v is not None}
    overrides = {}
    if args.seed is not None:
        overrides["chart"] = replace(bundle.chart, seed=args.seed)
    if args.h is not None:
        overrides["scheme"] = DiffScheme(args.h)
    if tol:
        overrides["tolerances"] = replace(bundle.tolerances, **tol)
    if overrides:
        bundle = replace(bundle, **overrides)
    return bundle, source


def _base_report(bundle: StructureBundle, source: dict) -> dict:
    return {
        "version": __version__,
        "source": source,
        "params": {"p": bundle.params.p, "q": bundle.params.q,
                   "dimension": bundle.chart.dimension},
        "seed": bundle.chart.seed,
        "scheme": {"h1": bundle.scheme.h1, "order1": ORDER1,
                   "h2": bundle.scheme.h2, "order2": ORDER2, "richardson2": True},
        "tolerances": {"alg": bundle.tolerances.alg, "d1": bundle.tolerances.d1,
                       "d2": bundle.tolerances.d2, "d3": bundle.tolerances.d3},
    }


def report_json(report: dict) -> str:
    return json.dumps(_sig6(report), ensure_ascii=True, indent=2) + "\n"


def _print_classification(cls_dict: dict, stream):
    print(f"verdict: {cls_dict['verdict']}", file=stream)
    print(f"nearly:  {cls_dict['nearly']}", file=stream)
    for key, val in cls_dict["residuals"].items():
        print(f"  {key:24s} {val:.6g}", file=stream)
    if cls_dict["near_boundary"]:
        print("near-boundary residuals: " + ", ".join(cls_dict["near_boundary"]), file=stream)


def cmd_classify(args) -> int:
    t0 = time.time()
    bundle, source = _bundle_from_args(args)
    cls = bundle.classification()
    report = _base_report(bundle, source)
    report["classification"] = cls.as_dict()
    report["timing_s"] = time.time() - t0
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        _print_classification(report["classification"], sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    bundle, source = _bundle_from_args(args)
    cls = bundle.classification()
    results = run_suite(bundle, args.suite)
    report = _base_report(bundle, source)
    report["classification"] = cls.as_dict()
    report["suite"] = args.suite
    report["identities"] = [r.as_dict() for r in results]
    report["connections"] = connection_report(bundle) if args.suite in ("all", "connections") else None
    report["timing_s"] = time.time() - t0
    failed = [r for r in results if (not r.skipped) and r.asserted and not r.passed]
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        _print_classification(report["classification"], sys.stdout)
        print(f"suite: {args.suite}", file=sys.stdout)
        for r in results:
            if r.skipped:
                status = "SKIP"
            elif r.passed:
                status = "pass"
            else:
                status = "FAIL" if r.asserted else "info"
            line = f"  {r.id:36s} {status:4s} rel={r.relative:.6g} tol={r.tolerance:.6g}"
            if r.note:
                line += f"  ({r.note})"
            print(line, file=sys.stdout)
        print(f"{len(results)} checks, {len(failed)} failed", file=sys.stdout)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_curvature(args) -> int:
    t0 = time.time()
    bundle, source = _bundle_from_args(args)
    try:
        point = np.array([float(tok) for tok in args.point.split(",")], dtype=float)
    except ValueError:
        print("error: --point needs comma-separated numbers", file=sys.stderr)
        return EXIT_PARSE
    if point.size != bundle.chart.dimension:
        print(f"error: point has {point.size} coordinates, chart dimension is "
              f"{bundle.chart.dimension}", file=sys.stderr)
        return EXIT_PARSE
    ctx = bundle.context(point)
    pack = ctx.curvature
    report = _base_report(bundle, source)
    report["point"] = [float(v) for v in point]
    report["curvature"] = {
        "riemann_lowered": pack.Rdown.tolist(),
        "ricci": pack.ricci.tolist(),
        "scalar": pack.scalar,
        "H": ctx.H.tolist(),
        "ricci_star": ctx.Sstar.tolist(),
        "scalar_star": ctx.scalar_star,
        "norm_nabla_jm_sq": ctx.norm_covJ_sq,
        "symmetry_residuals": pack.symmetry_residuals(),
    }
    report["timing_s"] = time.time() - t0
    if args.format == "json":
        sys.stdout.write(report_json(report))
    else:
        np.set_printoptions(precision=6, suppress=False)
        print(f"point: {point.tolist()}")
        print(f"scalar curvature:  {pack.scalar:.6g}")
        print(f"scalar* curvature: {ctx.scalar_star:.6g}")
        print(f"|nabla J_M|^2:     {ctx.norm_covJ_sq:.6g}")
        print("ricci:"); print(np.array2string(pack.ricci))
        print("ricci*:"); print(np.array2string(ctx.Sstar))
        print("H:"); print(np.array2string(ctx.H))
        print("riemann (lowered):"); print(np.array2string(pack.Rdown))
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and never changed after."""
    parser = argparse.ArgumentParser(
        prog="metallicgeo",
        description="Classify and verify metallic Kahler structures on coordinate charts.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("spec", nargs="?", help="manifold spec file")
        src.add_argument("--zoo", choices=zoo.names(), help="built-in fixture")
        p.add_argument("--q", type=float, default=None, help="zoo structure parameter q")
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
    parser = make_parser()
    args = parser.parse_args(_join_point_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except SpecFileError as exc:
        name = getattr(args, "spec", None) or "<spec>"
        print(f"parse error: {name}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SingularMetricError, ChartBoundsError, EvalDomainError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Snapshot every CLI report of a checkout, to prove that a refactor changes no output.

    python3 tools/report_identity.py --out before.json --repo PATH/TO/OLD/CHECKOUT
    python3 tools/report_identity.py --out after.json
    cmp before.json after.json

The snapshot holds 62 runs of ``metallicgeo.cli.main``, each with its argv,
exit code, stderr and JSON report (``timing_s`` removed, the one field the
report does not promise to repeat):

* ``classify`` and ``verify --suite all|metallic|nearly|connections`` on
  the 7 zoo fixtures, on the spec files that mirror flat-k1, torus and s2,
  and on ``perfbench/specs/s2xs2.spec``;
* ``curvature`` on each zoo fixture at one interior point.

Spec files are copied into a fresh directory that becomes the working
directory and are named by bare file name, so ``source.name`` in the
reports does not depend on where either checkout lives. The zoo cache is
cleared before every run, so each run builds its bundle the way a fresh
CLI process does. Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

MIRRORED = ("flat-k1", "torus", "s2")
SUITES = ("all", "metallic", "nearly", "connections")


def import_cli(repo: Path):
    """Import metallicgeo from ``repo``/src and nowhere else."""
    src = (repo / "src").resolve()
    if not (src / "metallicgeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no metallicgeo package under {src}")
    sys.path.insert(0, str(src))
    import metallicgeo
    from metallicgeo import cli, zoo

    if not Path(metallicgeo.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: metallicgeo imported from {metallicgeo.__file__}, not {src}")
    return cli, zoo


def interior_point(bounds) -> str:
    """A fixed point 40 % of the way across each axis."""
    return ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in bounds)


def runs(repo: Path, zoo) -> tuple:
    """(spec file name -> text, argv list) in a fixed order."""
    specs = {f"{name}.spec": zoo.get(name).spec_text for name in MIRRORED}
    specs["s2xs2.spec"] = (repo / "perfbench" / "specs" / "s2xs2.spec").read_text(encoding="utf-8")
    sources = [["--zoo", name] for name in zoo.names()] + [[name] for name in specs]
    argvs = []
    for source in sources:
        argvs.append(["classify", *source, "--format", "json"])
        argvs += [["verify", *source, "--suite", s, "--format", "json"] for s in SUITES]
    for name in zoo.names():
        point = interior_point(zoo.get(name).bundle.chart.bounds)
        argvs.append(["curvature", "--zoo", name, f"--point={point}", "--format", "json"])
    return specs, argvs


def run_one(cli, zoo, argv) -> dict:
    zoo.get.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    text = out.getvalue()
    try:
        report = json.loads(text)
        report.pop("timing_s", None)
    except json.JSONDecodeError:
        report = text
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(), "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="snapshot file to write")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    out_path = Path(args.out).resolve()
    repo = Path(args.repo).resolve()
    cli, zoo = import_cli(repo)
    specs, argvs = runs(repo, zoo)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in specs.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            records = [run_one(cli, zoo, a) for a in argvs]
        finally:
            os.chdir(cwd)
    out_path.write_text(json.dumps(records, ensure_ascii=True, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} reports written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

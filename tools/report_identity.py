"""Snapshot every CLI report of a checkout, to prove that a refactor changes no output.

    python3 tools/report_identity.py --out before.json --repo PATH/TO/OLD/CHECKOUT
    python3 tools/report_identity.py --out after.json
    cmp before.json after.json                                         # byte-identical, or
    python3 tools/report_identity.py --compare before.json after.json  # within tiers

The snapshot holds 104 runs of ``metallicgeo.cli.main``, each with its argv,
exit code, stderr, raw stdout and parsed JSON report. ``timing_s`` is the
one field a report does not promise to repeat: its value is masked in the
stdout and the field is removed from the parsed report. The raw stdout
makes ``cmp`` a byte check: it sees a change of indentation, whitespace or
number spelling (``1e-05`` against ``1.0e-05``) that parses to the same
report. The runs are:

* ``classify`` and ``verify --suite all|metallic|nearly|connections`` on
  the 7 zoo fixtures, on spec files holding the spec text of flat-k1,
  torus and s2, and on ``perfbench/specs/s2xs2.spec``;
* ``curvature`` on each zoo fixture and on each of the 4 spec files at one
  interior point;
* ``classify`` and ``verify --suite all`` on ``s2xs2.spec`` and on each
  zoo fixture with a ``--seed`` override, so that the run's own sample
  points, not the spec's, are the ones read, and a zoo bundle is rebuilt
  with the command line's settings, as every benchmark zoo job rebuilds it;
* ``verify --suite all`` on s2 with ``--h`` and ``--tol-d1`` overrides, and
  ``classify`` on negative with a ``--tol-d1`` that puts three of its
  residuals near the boundary, so that ``near_boundary`` is not empty;
* ``verify --suite all`` on each zoo fixture at ``--q 1.5``. At the default
  q = 2/3 the coefficients 3q/2, 2/(3q) and sqrt(6q)/2 are all exactly 1.0,
  so a dropped or misplaced factor of q changes no report there;
* the s2 spec file with a named point exactly lo + margin from its first
  bound (``verify --suite all``, accepted) and one float step further out
  (``classify``, a located parse error, exit 2), so that the chart-bounds
  check is pinned at its edge;
* ``classify``, ``verify --suite all`` (also at ``--q 1.5``) and
  ``curvature`` on ``flat-skew.spec`` (``FLAT_SKEW``), a constant metric
  with off-diagonal entries of both signs in dimension 4. Its g^-1 has
  signs too, so an entry of a zero contraction could round to ``-0.0``,
  which a report spells apart from ``0.0``;
* ``classify`` and ``verify --suite all`` on two copies of the s2 spec with one entry
  changed (``S2_MUTATIONS``), so that the lowest verdict, "not metallic-Hermitian", is
  covered: ``g[0][0] = 1e5`` keeps the polynomial identity and breaks skew compatibility,
  and a sheared ``j[0][1]`` breaks both. Every asserted row these bundles are outside of
  is reported skipped with its gate's reason;
* one ``--format text`` run of each command on a zoo fixture.

Spec files are copied into a fresh directory that becomes the working
directory and are named by bare file name, so ``source.name`` in the
reports does not depend on where either checkout lives. The zoo cache is
cleared before every run, so each run builds its bundle the way a fresh
CLI process does. Uses the standard library and numpy only.

A change that reorders floating-point sums (batched contractions, numpy
ufuncs instead of the math module) moves residuals by roundoff, so ``cmp``
no longer applies; ``--compare`` checks the parsed reports of two snapshots
(not their raw stdout) with a fixed rule taken from each report's own
``tolerances`` block:

* argv, exit code, stderr and every non-numeric field (verdict, nearly
  flag, ``near_boundary``, identity ids, passed/skipped/asserted flags,
  notes) are equal, and so is every number that is a setting rather than
  a result (parameters, steps, tolerances, points);
* both reports hold the same classification residual keys, each a row of
  the checkout's ``metallic.CLASSIFICATION``, and the same keys in their
  connections block; a run where they differ is a problem that names the
  keys, and its numbers are not compared;
* every numeric result moves by at most 1e-3 x its tier's tolerance x
  max(1, scale). The tier and scale of an identity are its own
  ``tolerance`` and ``scale`` (a skipped identity has tolerance 0, so its
  zeros must stay exact). A note quotes observations of second
  derivatives (the raw Ricci trace, nabla nabla w), so the numbers in it
  are held to tier d2 and their own magnitude, and its words must stay
  equal; a classification residual has the tier of
  its row in ``metallic.CLASSIFICATION`` and its own magnitude as scale; the
  curvature block is tier d2 (``norm_nabla_jm_sq``, a first-derivative
  quantity, d1) and the connections block d1, each field scaled by its
  largest entry.

It prints the largest shift as a fraction of its allowance and exits 1
if any rule fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

MIRRORED = ("flat-k1", "torus", "s2")
SUITES = ("all", "metallic", "nearly", "connections")
SHIFT = 1e-3  # allowed shift of a numeric result, in units of tier tolerance x max(1, scale)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")  # a number quoted in a note
# g = Q^T Q and J = Q^-1 J0 Q for the standard J0 and an integer Q of determinant 1, so that the
# pair is metallic Kahler with integer entries: g^-1 = [[2, 0, 1, 0], [0, 1, 0, 0],
# [1, 0, 2, -1], [0, 0, -1, 1]]
FLAT_SKEW = """name = flat-skew
dimension = 4
p = 0.0
q = 0.6666666666666666
bounds = -1 1, -1 1, -1 1, -1 1
grid = 2
random_points = 3
seed = 5
margin = 0.1
structure = J
sign = +
g[0][0] = 1
g[0][2] = -1
g[0][3] = -1
g[1][1] = 1
g[2][2] = 2
g[2][3] = 2
g[3][3] = 3
j[0][1] = -1
j[0][3] = -1
j[1][0] = 1
j[1][2] = -1
j[1][3] = -1
j[2][2] = -1
j[2][3] = -2
j[3][2] = 1
j[3][3] = 1
"""
# spec file name -> (the s2 spec line it replaces, the new line)
S2_MUTATIONS = {"s2-skew-broken.spec": ("g[0][0] = 4/(1 + (x0^2 + x1^2))^2", "g[0][0] = 1e5"),
                "s2-sheared.spec": ("j[0][1] = -1", "j[0][1] = -1 - 0.3*x0")}
TIMING = re.compile(r'^(\s*"timing_s": ).*$', re.MULTILINE)  # its value is masked in stdout


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
    from metallicgeo.specfile import parse_spec

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
    for name, text in specs.items():
        point = interior_point(parse_spec(text).bounds)
        argvs.append(["curvature", name, f"--point={point}", "--format", "json"])
    for source in [["s2xs2.spec"]] + [["--zoo", name] for name in zoo.names()]:
        argvs += [["classify", *source, "--seed", "4", "--format", "json"],
                  ["verify", *source, "--seed", "4", "--suite", "all", "--format", "json"]]
    argvs.append(["verify", "--zoo", "s2", "--h", "0.002", "--tol-d1", "2e-5", "--suite", "all",
                  "--format", "json"])
    argvs.append(["classify", "--zoo", "negative", "--tol-d1", "0.05", "--format", "json"])
    argvs += [["verify", "--zoo", name, "--q", "1.5", "--suite", "all", "--format", "json"]
              for name in zoo.names()]
    s2 = parse_spec(specs["s2.spec"])
    edge = s2.bounds[0][0] + s2.margin
    specs["s2-edge.spec"] = specs["s2.spec"] + f"point edge = {edge!r} 0.0\n"
    specs["s2-past-edge.spec"] = (specs["s2.spec"]
                                  + f"point edge = {math.nextafter(edge, -math.inf)!r} 0.0\n")
    argvs += [["verify", "s2-edge.spec", "--suite", "all", "--format", "json"],
              ["classify", "s2-past-edge.spec", "--format", "json"]]
    specs["flat-skew.spec"] = FLAT_SKEW
    point = interior_point(parse_spec(FLAT_SKEW).bounds)
    argvs += [["classify", "flat-skew.spec", "--format", "json"],
              ["verify", "flat-skew.spec", "--suite", "all", "--format", "json"],
              ["verify", "flat-skew.spec", "--q", "1.5", "--suite", "all", "--format", "json"],
              ["curvature", "flat-skew.spec", f"--point={point}", "--format", "json"]]
    for name, (line, mutated) in S2_MUTATIONS.items():
        specs[name] = specs["s2.spec"].replace(line, mutated)
        argvs += [["classify", name, "--format", "json"],
                  ["verify", name, "--suite", "all", "--format", "json"]]
    point = interior_point(zoo.get("s2").bundle.chart.bounds)
    argvs += [["classify", "--zoo", "negative", "--format", "text"],
              ["verify", "--zoo", "s6", "--suite", "all", "--format", "text"],
              ["curvature", "--zoo", "s2", f"--point={point}", "--format", "text"]]
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
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(),
            "stdout": TIMING.sub(r"\1#", text), "report": report}


def _max_abs(value) -> float:
    if isinstance(value, list):
        return max((_max_abs(v) for v in value), default=0.0)
    return abs(value)


def result_fields(report: dict, residual_tiers: dict):
    """Yield (path, value, tier tolerance, scale) for every numeric result of a report."""
    tol = report["tolerances"]
    cls = report.get("classification")
    if cls:
        for name, value in cls["residuals"].items():
            yield ("classification", "residuals", name), value, tol[residual_tiers[name]], abs(value)
    for i, rec in enumerate(report.get("identities") or ()):
        for key in ("max_residual", "scale", "relative"):
            yield ("identities", i, key), rec[key], rec["tolerance"], rec["scale"]
        quoted = _value_at(rec, ("note",))
        if quoted:
            yield ("identities", i, "note"), quoted, tol["d2"], _max_abs(quoted)
    for key, value in (report.get("curvature") or {}).items():
        tier = tol["d1"] if key == "norm_nabla_jm_sq" else tol["d2"]
        for sub, v in (value.items() if isinstance(value, dict) else [(None, value)]):
            path = ("curvature", key) if sub is None else ("curvature", key, sub)
            yield path, v, tier, _max_abs(v)

    def numbers(node, path):
        if isinstance(node, dict):
            for key, v in node.items():
                yield from numbers(v, path + (key,))
        elif isinstance(node, float):
            yield path, node, tol["d1"], abs(node)

    yield from numbers(report.get("connections") or {}, ("connections",))


def _value_at(node, path):
    """The value at path; for a note, the list of numbers it quotes."""
    for key in path:
        node = node[key]
    return [float(x) for x in NUMBER.findall(node)] if isinstance(node, str) else node


def _masked(report: dict, paths) -> dict:
    """A copy of report without the numeric results at paths (a note keeps its words)."""
    out = json.loads(json.dumps(report))
    for path in paths:
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        parent[path[-1]] = NUMBER.sub("#", value) if isinstance(value, str) else None
    return out


def _shift(before, after) -> float:
    """Largest entrywise |after - before|; inf where the shapes or types differ."""
    if isinstance(before, list):
        if not isinstance(after, list) or len(before) != len(after):
            return math.inf
        return max((_shift(b, a) for b, a in zip(before, after)), default=0.0)
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return math.inf
    return abs(after - before)


def _residual_keys(report: dict) -> list:
    return list((report.get("classification") or {}).get("residuals", ()))


def _block_keys(report: dict) -> list:
    """The dotted path of every entry of the report's connections block."""
    def paths(node, prefix):
        if isinstance(node, dict) and node:
            for key, value in node.items():
                yield from paths(value, f"{prefix}.{key}" if prefix else key)
        elif prefix:
            yield prefix

    return list(paths(report.get("connections") or {}, ""))


def _key_change(b: list, a: list, *extra) -> str:
    """The keys that only one of the key lists b (before) and a (after) holds, and any
    (label, keys) of extra, as one line; "" when there are none."""
    parts = [f"{label} {', '.join(keys)}" for label, keys in (
        ("only before:", [k for k in b if k not in a]),
        ("only after:", [k for k in a if k not in b]), *extra) if keys]
    return "; ".join(parts)


def _residual_key_change(before: dict, after: dict, residual_tiers: dict) -> str:
    """The classification residual keys that only one report holds, or that no row of
    ``metallic.CLASSIFICATION`` gives a tier for; "" when there are none."""
    b, a = _residual_keys(before), _residual_keys(after)
    return _key_change(b, a, ("no row in this checkout:",
                              [k for k in b if k in a and k not in residual_tiers]))


def compare(before: list, after: list, residual_tiers: dict) -> tuple:
    """(problems, largest shift as a fraction of its allowance, where) for two snapshots."""
    if [r["argv"] for r in before] != [r["argv"] for r in after]:
        return ["the snapshots hold different runs"], math.inf, ""
    problems, worst, worst_at = [], 0.0, ""
    for b, a in zip(before, after):
        run = " ".join(b["argv"])
        if (b["exit"], b["stderr"]) != (a["exit"], a["stderr"]):
            problems.append(f"{run}: exit/stderr {b['exit']!r} {b['stderr']!r} -> "
                            f"{a['exit']!r} {a['stderr']!r}")
            continue
        if not (isinstance(b["report"], dict) and isinstance(a["report"], dict)):
            if b["report"] != a["report"]:
                problems.append(f"{run}: the non-JSON output differs")
            continue
        changed = _residual_key_change(b["report"], a["report"], residual_tiers)
        if changed:
            problems.append(f"{run}: classification residual keys differ: {changed}")
            continue
        changed = _key_change(_block_keys(b["report"]), _block_keys(a["report"]))
        if changed:
            problems.append(f"{run}: connections block keys differ: {changed}")
            continue
        fields = list(result_fields(b["report"], residual_tiers))
        paths = [path for path, *_ in fields]
        try:
            same_rest = _masked(b["report"], paths) == _masked(a["report"], paths)
        except (KeyError, IndexError, TypeError):
            same_rest = False
        if not same_rest:
            problems.append(f"{run}: a non-numeric field or a setting differs")
            continue
        for path, value, tier, scale in fields:
            shift = _shift(value, _value_at(a["report"], path))
            allowance = SHIFT * tier * max(1.0, scale)  # 0 for a skipped identity: exact
            frac = shift / allowance if allowance else (0.0 if shift == 0.0 else math.inf)
            where = f"{run}: {'.'.join(map(str, path))}"
            if frac > 1.0:
                problems.append(f"{where} moved {frac:.3g} x its allowance")
            if frac > worst:
                worst, worst_at = frac, where
    return problems, worst, worst_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="snapshot file to write")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="check two snapshots with the tier rule instead")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    repo = Path(args.repo).resolve()
    if args.compare:
        import_cli(repo)
        from metallicgeo.metallic import CLASSIFICATION

        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        problems, worst, worst_at = compare(before, after,
                                            {row.id: row.tier for row in CLASSIFICATION})
        for line in problems:
            print(line)
        print(f"{len(before)} reports compared; largest shift {worst:.3g} of its allowance"
              + (f" ({worst_at})" if worst_at else ""))
        return 1 if problems else 0
    out_path = Path(args.out).resolve()
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

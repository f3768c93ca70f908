"""The snapshot tool that proves a refactor changes no report, run on this checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"


def tool(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """The snapshot of this checkout's 104 runs, written once for the module."""
    work = tmp_path_factory.mktemp("snapshot")
    snap = work / "snap.json"
    written = tool("--out", snap, cwd=work)
    assert (written.returncode, written.stderr) == (0, ""), written.stderr
    assert written.stdout == f"104 reports written to {snap.resolve()}\n"
    return snap


def test_snapshot_of_this_checkout_compares_equal_to_itself(snapshot, tmp_path):
    """--out writes the 104 runs of this checkout, and --compare of that snapshot with
    itself finds no shift."""
    records = json.loads(snapshot.read_text(encoding="utf-8"))
    assert len(records) == 104
    assert {r["exit"] for r in records} == {0, 2}  # s2-past-edge.spec is the one exit 2
    compared = tool("--compare", snapshot, snapshot, cwd=tmp_path)
    assert (compared.returncode, compared.stderr) == (0, ""), compared.stderr
    assert compared.stdout == "104 reports compared; largest shift 0 of its allowance\n"


def test_compare_names_a_changed_set_of_classification_residuals(snapshot, tmp_path):
    """A snapshot whose reports hold a classification residual that this checkout has no row
    for is compared, not a KeyError: each such run is a problem naming the keys, exit 1."""
    records = json.loads(snapshot.read_text(encoding="utf-8"))
    changed = 0
    for rec in records:
        if isinstance(rec["report"], dict) and "classification" in rec["report"]:
            rec["report"]["classification"]["residuals"]["retired_residual"] = 0.0
            changed += 1
    old = tmp_path / "old.json"
    old.write_text(json.dumps(records), encoding="utf-8")
    compared = tool("--compare", old, snapshot, cwd=tmp_path)
    assert (compared.returncode, compared.stderr) == (1, ""), compared.stderr
    *problems, summary = compared.stdout.splitlines()
    assert len(problems) == changed > 0
    assert all(line.endswith(": classification residual keys differ: only before: "
                             "retired_residual") for line in problems), problems[0]
    assert summary.startswith("104 reports compared")
    # in both snapshots, the key is still one this checkout has no row for
    compared = tool("--compare", old, old, cwd=tmp_path)
    assert compared.returncode == 1 and compared.stderr == ""
    assert compared.stdout.splitlines()[0].endswith(
        ": classification residual keys differ: no row in this checkout: retired_residual")


def test_compare_names_changed_connections_block_keys(snapshot, tmp_path):
    """A snapshot whose connections blocks hold a key that the other's do not is a problem
    naming the key by its path in the block, exit 1, not "a non-numeric field differs"."""
    records = json.loads(snapshot.read_text(encoding="utf-8"))
    changed = 0
    for rec in records:
        block = rec["report"].get("connections") if isinstance(rec["report"], dict) else None
        if block:
            block["first"]["retired_norm"] = 0.0
            changed += 1
    old = tmp_path / "old.json"
    old.write_text(json.dumps(records), encoding="utf-8")
    compared = tool("--compare", old, snapshot, cwd=tmp_path)
    assert (compared.returncode, compared.stderr) == (1, ""), compared.stderr
    *problems, summary = compared.stdout.splitlines()
    assert len(problems) == changed > 0
    assert all(line.endswith(": connections block keys differ: only before: "
                             "first.retired_norm") for line in problems), problems[0]
    assert summary.startswith("104 reports compared")

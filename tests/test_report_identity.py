"""The snapshot tool that proves a refactor changes no report, run on this checkout."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"


def tool(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


def test_snapshot_of_this_checkout_compares_equal_to_itself(tmp_path):
    """--out writes the 104 runs of this checkout, and --compare of that snapshot with
    itself finds no shift."""
    snap = tmp_path / "snap.json"
    written = tool("--out", snap, cwd=tmp_path)
    assert (written.returncode, written.stderr) == (0, ""), written.stderr
    assert written.stdout == f"104 reports written to {snap.resolve()}\n"
    records = json.loads(snap.read_text(encoding="utf-8"))
    assert len(records) == 104
    assert {r["exit"] for r in records} == {0, 2}  # s2-past-edge.spec is the one exit 2
    compared = tool("--compare", snap, snap, cwd=tmp_path)
    assert (compared.returncode, compared.stderr) == (0, ""), compared.stderr
    assert compared.stdout == "104 reports compared; largest shift 0 of its allowance\n"

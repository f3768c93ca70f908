"""The paired A/B tool on two rounds of the plan: equal sides compare equal, every report
field is there, and a side whose reports differ is named and exits 1. No timing is gated."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"
ROW = {"pairs", "base_median", "change_median", "shift", "ci95", "won"}


def ab(base, change, cwd):
    proc = subprocess.run([sys.executable, str(TOOL), "--workload", "classify-zoo", "--seed", "1",
                           "--rounds", "2", "--base", str(base), "--change", str(change)],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc


def check_fields(report):
    assert report["workload"] == "classify-zoo" and report["seed"] == 1
    assert report["jobs"] == 14  # two rounds of the 7 zoo fixtures
    assert report["blocks"] == 2  # one round per fresh worker pair
    assert set(report["kinds"]) == {"classify", "all"}
    for row in (*report["kinds"].values(), report["rounds"]):
        assert set(row) >= ROW
        lo, hi = row["ci95"]
        assert lo <= hi and 0 <= row["won"] <= row["pairs"]
    assert report["kinds"]["all"]["pairs"] == 14
    assert report["rounds"]["pairs"] == 2 and report["rounds"]["jobs_per_round"] == 7


def test_head_against_head(tmp_path):
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True).returncode:
        pytest.skip("no git, or not a git checkout with a commit")
    code, report, proc = ab("HEAD", "HEAD", tmp_path)
    assert code == 0, proc.stderr
    assert report["equal"] is True and report["differing"] == []
    assert report["failed"] == {"base": [], "change": []}
    check_fields(report)


def test_a_side_whose_reports_differ_is_named(tmp_path):
    """Both sides are checkout directories, one with another version string, which every
    report carries: the runs are not equal, and the tool exits 1."""
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    init = other / "src" / "metallicgeo" / "__init__.py"
    text = init.read_text(encoding="utf-8")
    assert "__version__ = " in text
    init.write_text(text.replace("__version__ = ", "__version__ = 'other-' + "), encoding="utf-8")
    code, report, proc = ab(ROOT, other, tmp_path)
    assert code == 1, proc.stderr
    assert report["equal"] is False and len(report["differing"]) == 5
    assert report["differing"][0][:2] == ["classify", "--zoo"]
    check_fields(report)


def test_worker_pair_bias_widens_the_interval():
    """Four worker pairs whose speeds differ by up to 5 %: the interval over blocks, then
    pairs, holds that spread; pooling the pairs as one block hides it."""
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    noise = np.random.default_rng(1).standard_normal((4, 30))
    change = (np.array([[0.95], [1.0], [1.05], [1.0]]) * (1 + 0.01 * noise)).ravel()
    base = np.ones_like(change)
    blocks = np.repeat(np.arange(4), 30)
    lo, hi = tool.shift(base, change, blocks, np.random.default_rng(0))["ci95"]
    assert lo < -0.04 and hi > 0.04
    lo, hi = tool.shift(base, change, np.zeros(120), np.random.default_rng(0))["ci95"]
    assert -0.01 < lo < hi < 0.01

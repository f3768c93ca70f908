"""The pytest configuration of this repository reports a failing property test as a failure,
an xfail that passes as a failure, and a mistyped marker as a collection error.

`pyproject.toml` turns every warning into an error. Hypothesis imports libcst to report a
failing example, and that import warns from mypy_extensions; unless the configuration lets
that one warning pass, the report hook raises and the session ends in INTERNALERROR, with
every later result lost. Every xfail is strict, so a case marked wrong that passes must be
turned into a pass. A marker that no plugin registers, which would otherwise mark nothing,
fails collection: `--strict-markers` refuses it, and where a pytest version does not apply
that flag from `addopts` (9.0.3 does not), the unknown-mark warning is an error all the same.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


XPASS_TESTS = '''
import pytest


@pytest.mark.xfail(reason="wrong when it was marked")
def test_mended():
    pass
'''

MISTYPED_MARKER_TESTS = '''
import pytest


@pytest.mark.xfial(reason="a typo of xfail")
def test_marked():
    pass
'''


def inner_session(tmp_path, tests: str) -> subprocess.CompletedProcess:
    """A pytest session, under this repository's configuration, of one file holding `tests`."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_inner.py").write_text(tests, encoding="utf-8")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_inner.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    proc = inner_session(tmp_path, PROPERTY_TESTS)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout


def test_an_xfail_that_passes_fails_the_session(tmp_path):
    proc = inner_session(tmp_path, XPASS_TESTS)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "[XPASS(strict)] wrong when it was marked" in proc.stdout, proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed"), proc.stdout


def test_a_mistyped_marker_fails_collection(tmp_path):
    proc = inner_session(tmp_path, MISTYPED_MARKER_TESTS)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "ERROR collecting test_inner.py" in proc.stdout, proc.stdout
    assert "xfial" in proc.stdout, proc.stdout

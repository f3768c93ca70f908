"""`cli.report_json` writes exactly what the reference writer in `oracles` writes.

The reference rounds every float to 6 significant digits and hands the
result to `json.dumps(..., ensure_ascii=True, indent=2)`; it takes lists
where the CLI passes float arrays.
"""

import math
import re

import numpy as np
import pytest

from metallicgeo import cli, zoo
from oracles import reference_report_json

FLOATS = [
    0.0, -0.0, 1.0, -3.0, 12.0, 999999.0, 12.0000001, -0.99999996,  # integral once rounded
    999999.7, 999999.5, 1e6, 1234567.8, -4.5e10, 9.9999995e15,      # [1e6, 1e16) and the edge
    1e16, 1.2345678e20, -1e300,                                     # >= 1e16
    5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300,             # subnormal and near it
    1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    1 / 3, -2.5, 1e-5, 1.5e-7, 0.0001, 9.9999996e-5, 49999.99999, 50000.5, 123456.5,
    np.float64(0.1), np.float64(-2.0), np.float64(math.nan),
]


def as_lists(x):
    """x with every array replaced by its nested lists, the reference's input."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: as_lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [as_lists(v) for v in x]
    return x


def assert_matches_reference(report):
    assert cli.report_json(report) == reference_report_json(as_lists(report))


@pytest.mark.parametrize("value", FLOATS, ids=repr)
def test_float_matches_reference(value):
    assert_matches_reference({"value": value, "in_list": [value], "alone": {"x": value}})
    assert cli.report_json(value) == reference_report_json(value)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 2), (2, 2, 2, 2), (2, 0), (len(FLOATS),)],
                         ids=str)
def test_float_array_matches_reference(shape):
    size = math.prod(shape)
    values = np.array([FLOATS[(7 * i) % len(FLOATS)] for i in range(size)]).reshape(shape)
    assert_matches_reference({"array": values, "nested": [{"again": values}, values]})


def test_float32_array_matches_reference():
    # 1e-40 is subnormal as a float32 and normal as the float64 the writer reads
    values = np.array([[0.1, -2.0], [1e-40, 3e38]], dtype=np.float32)
    assert_matches_reference({"float32": values})


def test_containers_strings_and_other_leaves_match_reference():
    assert_matches_reference({
        "empty_dict": {}, "empty_list": [], "empty_tuple": (),
        "nested": {"a": [1, [2.5, {}], {"b": [[]]}], "c": {"d": {"e": None}}},
        "text": "metallic Kähler, ∇ω \"quoted\"\n\ttab",
        "flags": [True, False, None],
        "ints": [0, -7, 2**70],
        "tuple": (1.5, "x", (2, 3.25)),
    })
    assert_matches_reference({})


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), np.float32(1.5), {1, 2},
                                   object(), np.array([1, 2]), np.array(["a"])],
                         ids=lambda v: type(v).__name__)
def test_unsupported_type_raises_type_error(value):
    with pytest.raises(TypeError):
        cli.report_json({"x": [value]})


def test_non_string_key_raises_type_error():
    with pytest.raises(TypeError):
        cli.report_json({1: 2.0})


def _reports(monkeypatch, argv):
    """The report dicts the CLI hands to report_json while running argv."""
    seen, write = [], cli.report_json

    def capture(report):
        seen.append(report)
        return write(report)

    monkeypatch.setattr(cli, "report_json", capture)
    assert cli.main(argv) == cli.EXIT_OK
    monkeypatch.undo()
    return seen


def _zoo_reports(name, monkeypatch, capsys) -> list:
    """The classify, verify --suite all and curvature reports of one zoo fixture."""
    bounds = zoo.get(name).bundle.chart.bounds
    point = ",".join(repr(0.6 * lo + 0.4 * hi) for lo, hi in bounds)
    runs = (["classify", "--zoo", name], ["verify", "--zoo", name, "--suite", "all"],
            ["curvature", "--zoo", name, f"--point={point}"])
    reports = [r for argv in runs for r in _reports(monkeypatch, [*argv, "--format", "json"])]
    capsys.readouterr()
    return reports


@pytest.mark.parametrize("name", zoo.names())
def test_zoo_reports_match_reference(name, monkeypatch, capsys):
    reports = _zoo_reports(name, monkeypatch, capsys)
    assert len(reports) == 3
    assert isinstance(reports[2]["curvature"]["riemann_lowered"], np.ndarray)
    for report in reports:
        report["timing_s"] = 0.0123456789
        assert_matches_reference(report)


@pytest.mark.parametrize("name", zoo.names())
def test_zoo_reports_have_no_negative_zero(name, monkeypatch, capsys):
    """A max-abs residual of exact zeros, or a zero tensor entry, is written as 0.0, not -0.0."""
    for report in _zoo_reports(name, monkeypatch, capsys):
        text = cli.report_json(report)
        assert not re.search(r"-0\.0(?!\d)", text), report["source"]

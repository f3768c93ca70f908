"""Each number a `verify` report prints is computed once: no entry repeats another.

The entries of a report are its classification residuals, the numbers of its
connections block and the `max_residual` of each evaluated identity row. Over
`verify --suite all` on every zoo fixture, and the same report of
`oracles.kahler_quartic_bundle`, at three values of q, two entries repeat
each other when they appear together on at least two reports, are non-zero
on at least one and are equal on every report where both appear. A new row
or block entry that restates an old one then fails here at once. The
quartic bundle is a curved Kähler bundle whose Ricci tensor is not a
multiple of g; without it s2 is the only one, and there rows that state
different facts all read the same roundoff.
"""

import io
import itertools
import json
from contextlib import redirect_stdout

import pytest

from metallicgeo import cli, zoo
from metallicgeo.connections import connection_report
from metallicgeo.identities import run_suite
from oracles import kahler_quartic_bundle

QS = (2.0 / 3.0, 1.5, 0.3)

# Pairs of identity rows that are known to repeat each other, with the reason.
ALLOWED = {
    frozenset({"identity covderiv-skew-adjoint", "identity f-skew-last-args"}):
        "both state F(X,Y,Z) = -F(X,Z,Y) and name one function; their ids are pinned by "
        "perfbench/expected_identities.json until the benchmark renames identity ids",
    frozenset({"identity ricci-derivative-cycle(stated)",
               "identity ricci-derivative-cycle(derived)"}):
        "at p = 0 both name one function; their ids are pinned by "
        "perfbench/expected_identities.json until the benchmark renames identity ids",
}


def entries(report: dict) -> dict:
    """entry name -> the number the report prints for it."""
    out = {f"classification {k}": v for k, v in report["classification"]["residuals"].items()}
    out.update((f"identity {rec['id']}", rec["max_residual"])
               for rec in report["identities"] if not rec["skipped"])

    def block(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                block(value, f"{path} {key}")
        elif isinstance(node, float):
            out[path] = node

    block(report["connections"], "connections")
    return out


@pytest.fixture(scope="module")
def reports() -> list:
    out = []
    for name, q in itertools.product(zoo.names(), QS):
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.main(["verify", "--zoo", name, "--q", repr(q), "--suite", "all",
                             "--format", "json"])
        assert code == 0, (name, q)
        out.append(entries(json.loads(text.getvalue())))
    for q in QS:
        bundle = kahler_quartic_bundle(q)
        results = run_suite(bundle, "all")
        assert not [r.id for r in results if r.status == "FAIL"], q
        report = {"classification": bundle.classification().as_dict(),
                  "identities": [r.as_dict() for r in results],
                  "connections": connection_report(bundle)}
        out.append(entries(json.loads(cli.report_json(report))))  # rounded as verify rounds
    return out


def repeated_pairs(reports: list) -> set:
    """The pairs of entries that repeat each other over the reports."""
    values: dict = {}  # entry name -> {report index: value}
    for i, report in enumerate(reports):
        for name, value in report.items():
            values.setdefault(name, {})[i] = value
    pairs = set()
    for a, b in itertools.combinations(sorted(values), 2):
        both = values[a].keys() & values[b].keys()
        if (len(both) >= 2 and any(values[a][i] != 0.0 for i in both)
                and all(values[a][i] == values[b][i] for i in both)):
            pairs.add(frozenset({a, b}))
    return pairs


def test_no_report_entry_repeats_another(reports):
    assert len(reports) == (len(zoo.names()) + 1) * len(QS)
    extra = repeated_pairs(reports) - ALLOWED.keys()
    assert not extra, "entries that repeat each other: " + "; ".join(
        " = ".join(sorted(pair)) for pair in sorted(extra, key=sorted))


def test_every_allowed_pair_still_repeats(reports):
    """An allowed pair that no longer repeats is taken off the list."""
    assert ALLOWED.keys() <= repeated_pairs(reports)

"""The stacked engine mixes nothing across points.

Every check runs on one PointContext of a bundle's stacked sample points.
Row k of each stacked quantity must equal what a context of the point
sample_points[k] alone gives: every classification residual, every
identity row's (residual, scale), nabla S, nabla nabla w and each
connection term. The two differ only in how sums are grouped, so the
tolerance is fixed beforehand at the `tools/report_identity.py --compare`
allowance, 1e-3 x tier x max(1, scale).
"""

import dataclasses

import numpy as np
import pytest

from metallicgeo import connections, identities, zoo
from metallicgeo.connections import GateError, connection_terms
from metallicgeo.geometry import max_abs
from metallicgeo.metallic import RESIDUALS

SHIFT = 1e-3


def close(got, want, tol: float, what):
    allowance = SHIFT * tol * max(1.0, max_abs(want))
    assert max_abs(np.asarray(got) - np.asarray(want)) <= allowance, what


def identity_rows(bundle, monkeypatch) -> list:
    """(identity, values) of every row `run_suite(bundle, "all")` evaluates."""
    rows = []
    evaluate = identities.evaluate

    def recording(b, table, values=None):
        table = list(table)
        rows.extend((ident, values) for ident in table
                    if not (ident.gate and ident.gate(b)))
        return evaluate(b, table, values)

    monkeypatch.setattr(identities, "evaluate", recording)
    monkeypatch.setattr(connections, "evaluate", recording)
    identities.run_suite(bundle, "all")
    return rows


@pytest.mark.parametrize("name", zoo.names())
def test_each_row_of_the_stack_is_its_own_point(name, monkeypatch):
    bundle = dataclasses.replace(zoo.get(name).bundle)  # nothing cached yet
    tol, points = bundle.tolerances, bundle.sample_points
    stack = bundle.context(points)
    rows = identity_rows(bundle, monkeypatch)
    assert rows
    kinds = {}
    for kind in ("first", "second"):
        try:
            kinds[kind] = connections._terms(bundle, kind)
        except GateError:
            pass
    for k, point in enumerate(points):
        alone = bundle.context(points[k:k + 1])  # the point as a stack of one
        single = bundle.context(point)           # the point as one point
        for res, tier, fn in RESIDUALS:
            close(fn(stack)[k], fn(alone)[0], getattr(tol, tier), (name, k, res))
        for ident, values in rows:
            if values is None:
                one = ident.fn(alone)
            else:
                kind = next(kd for kd, terms in kinds.items() if terms is values)
                one = ident.fn(connection_terms(bundle, kind, points[k:k + 1]))
            many = ident.fn(stack if values is None else values)
            scale = max(1.0, one[1][0])
            for got, want in zip(many, one):
                assert abs(got[k] - want[0]) <= SHIFT * getattr(tol, ident.tier) * scale, \
                    (name, k, ident.id)
        close(stack.cov_ricci[k], single.cov_ricci, tol.d3, (name, k, "nabla S"))
        close(stack.covcov_omega[k], single.covcov_omega, tol.d2, (name, k, "nabla nabla w"))
        for kind, terms in kinds.items():
            for key, value in connection_terms(bundle, kind, point).items():
                close(terms[key][k], value, tol.d1, (name, k, kind, key))

"""Linear connections with torsion that preserve the fundamental 2-form.

Both connections deform Levi-Civita by a (1,2)-tensor S, written with the
conjugate structure JMhat = pI - J_M, which is -J_M since p = 0 (see
metallic):

* first type: S(X, Y) = (1/3q) JMhat (nabla_X J_M) Y, defined on any
  skew-compatible bundle; it annihilates w, its deformation pairing
  S_J(X,Y,Z) = g(S(X,Y), J_M Z) is skew in (Y, Z), and it is metric;
* second type: the deformation pairing is skew in the outer arguments
  (X, Z). On a metallic Kahler bundle it is S = 0, Levi-Civita itself,
  which preserves w because nabla J_M = 0. On a nearly metallic Kahler
  bundle the closed form S(X, Y) = -(1/q) JMhat (nabla_X J_M) Y is used;
  note that this deformation does NOT annihilate w (one computes
  nabla~ w = 4 nabla w from the deformation-pairing expansion), so its
  w-residual is reported without being asserted while the derived
  4 nabla w consistency is. Levi-Civita does not preserve w on an almost
  metallic Kahler bundle that is not metallic Kahler, and no closed form
  is derived there or outside the two classes above.

With J_M = c J, c^2 = 3q/2, both deformations are free of q:
S_first = -(1/2) J (nabla J) and S_second = (3/2) J (nabla J), so they are
computed on the unit structure J of the PointContext and this module reads
no q. S and its torsion are of degree 0 in c, and the pairing and every w
term of degree 1; each row declares its degree, as every identity row does.

Each kind is gated as every identity row is, by a function that returns why
the bundle is outside its class ("" inside it): `not_hermitian` for the first
type, `no_second_type` for the second, both from `metallic`. The suite reads
that reason alone and skips a gated kind with it; `first_type` and
`second_type` hold only the formulas on a PointContext, the second with a
flag saying whether it is Levi-Civita (`_levi`).

`connection_terms` computes every quantity of one connection that a row or
the report reads from a context: S, the pairing, nabla~ w and the
kind-specific terms. The bundle keeps them as one dict per kind of arrays
stacked over the sample points, built once from the bundle's
`sample_context` when a formed row first reads them; the identity records
of `connection_identity_results` and the JSON block of `connection_report`
both read those dicts through `evaluate` and reduce them straight to their
largest |entry| with `geometry.largest_abs`, so every array either reads,
the -1/3 ratio of the two kinds' S included, is formed once. The block holds
the two numbers no row reports, the first type's deformation and torsion
norms, as the residuals of two rows (`CONNECTION_BLOCK`): the second type's
are 0 where S = 0 and 3 x the first type's where S_second = -3 S_first, and
a gated kind's reason is the suite's skip record. Every row and the block
are built from nabla J_M, so on a pair whose g and J_M are both constant
`evaluate` records them as 0 and no term is formed. A connection is
Levi-Civita plus its deformation, so `first_type` and `second_type` return S
alone, and torsion and the symmetry checks are exact algebra over the
computed nabla J_M.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .diffcalc import PointContext
from .geometry import contract, largest_abs
from .metallic import (Identity, StructureBundle, VERDICT_KAHLER, _result, _skip, evaluate,
                       no_second_type, not_hermitian)

__all__ = ["first_type", "second_type", "connection_terms", "connection_report",
           "connection_identity_results"]


def _levi(bundle: StructureBundle) -> bool:
    """Whether the second-type connection is Levi-Civita itself (S = 0)."""
    return bundle.classification().verdict == VERDICT_KAHLER


def first_type(ctx: PointContext) -> np.ndarray:
    """Deformation S[..., h, i, j] = (1/3q) JMhat (nabla J_M) = -(1/2) J (nabla J) on `ctx`, of
    a point or a stack. It is a connection of the bundle where `not_hermitian` gives no reason."""
    return -0.5 * contract("...ht,...itj->...hij", ctx.J, ctx.covJ)


def second_type(ctx: PointContext, levi: bool) -> np.ndarray:
    """Deformation S[..., h, i, j] of the second-type connection where `no_second_type` gives
    no reason, on `ctx`; `levi` says whether the bundle is metallic Kahler (`_levi`).

    Metallic Kahler: S = 0 (Levi-Civita exactly). Nearly metallic Kahler:
    S = -(1/q) JMhat (nabla J_M) = (3/2) J (nabla J).
    """
    if levi:
        return np.zeros_like(ctx.gamma)
    return 1.5 * contract("...ht,...itj->...hij", ctx.J, ctx.covJ)


def connection_terms(ctx: PointContext, kind: str, levi: bool = False) -> dict:
    """Every term of the `kind` ("first" or "second") connection on `ctx`; `levi` as above.

    S is the deformation S[..., h, i, j], SJ the pairing S_J[..., i, j, k] =
    g(S(d_i, d_j), J d_k), nw the residual (nabla~_i w)_jk, sym the
    pairing's defining symmetry (zero when it holds) and cov_omega the
    Levi-Civita nabla w. First type adds torsion, ng = (nabla~_i g)_jk and
    consistency, nabla~ w minus its expansion through the pairing; second
    type adds four = nabla~ w - 4 nabla w.
    """
    S = first_type(ctx) if kind == "first" else second_type(ctx, levi)
    w, g, cov_omega = ctx.omega, ctx.g, ctx.cov_omega
    SJ = contract("...tij,...kt->...ijk", S, w)
    nw = (cov_omega - contract("...tij,...tk->...ijk", S, w)
          - contract("...tik,...jt->...ijk", S, w))
    terms = {
        "S": S, "SJ": SJ, "nw": nw,
        "sym": SJ + np.einsum("...ijk->...ikj" if kind == "first" else "...ijk->...kji", SJ),
        "cov_omega": cov_omega,
    }
    if kind == "first":
        # Levi-Civita is symmetric, so torsion is carried by the deformation
        terms["torsion"] = S - np.swapaxes(S, -2, -1)
        terms["ng"] = (-contract("...tij,...tk->...ijk", S, g)
                       - contract("...tik,...jt->...ijk", S, g))
        terms["consistency"] = nw - (cov_omega + SJ - np.einsum("...ijk->...ikj", SJ))
    else:
        terms["four"] = nw - 4.0 * cov_omega
    return terms


def _terms(bundle: StructureBundle, kind: str) -> dict:
    """The terms stacked over the sample points of a kind the bundle's gate admits. On a
    nearly bundle the second kind adds ratio = S_second + 3 S_first, which vanishes."""
    if kind not in bundle._connections:
        terms = connection_terms(bundle.sample_context, kind, _levi(bundle))
        if kind == "second" and not _levi(bundle):
            terms["ratio"] = terms["S"] + 3.0 * _terms(bundle, "first")["S"]
        bundle._connections[kind] = terms
    return bundle._connections[kind]


def _norms(bundle: StructureBundle) -> dict:
    """The first type's deformation and torsion norms, each reduced under its block name."""
    terms = _terms(bundle, "first")
    return {key: largest_abs(bundle.sample_points, f"first-type connection {key}", terms[term])
            for key, term in (("deformation_norm", "S"), ("torsion_norm", "torsion"))}


# The connections block as rows whose residuals are its two norms, so that `evaluate`
# decides whether they are formed.
CONNECTION_BLOCK = tuple(
    Identity(key, None, "d1", lambda norms, key=key: (norms[key],), degree=0)
    for key in ("deformation_norm", "torsion_norm"))


def connection_report(bundle: StructureBundle) -> dict:
    """The first-type connection's deformation and torsion norms on a bundle `not_hermitian`
    admits, which no identity row reports; {} otherwise."""
    if not_hermitian(bundle):
        return {}
    rows = evaluate(bundle, CONNECTION_BLOCK, partial(_norms, bundle))
    return {"first": {row.id: row.max_residual for row in rows}}


def _preserves_omega(t: dict) -> tuple:
    return t["nw"], t["cov_omega"], t["SJ"]


def _pairing_symmetry(t: dict) -> tuple:
    return t["sym"], t["SJ"]


# S and g are of degree 0 in c, and w, nabla w, the pairing and nabla~ w of degree 1.
FIRST_TYPE_IDENTITIES = (
    Identity("first-type-preserves-omega", None, "d1", _preserves_omega, degree=1),
    Identity("first-type-pairing-skew", None, "alg", _pairing_symmetry, degree=1),
    Identity("first-type-metric-theorem", None, "d1", lambda t: (t["ng"], t["ng"]), degree=0),
    Identity("first-type-expansion-consistency", None, "alg",
             lambda t: (t["consistency"], t["nw"]), degree=1),
)
SECOND_TYPE_SKEW = (
    Identity("second-type-pairing-outer-skew", None, "d1", _pairing_symmetry, degree=1),
)
SECOND_TYPE_LEVI = (
    Identity("second-type-equals-levi-civita", None, "alg",
             lambda t: (t["S"], np.ones(len(t["S"]))), degree=0, constant_scale=1.0),
    Identity("second-type-preserves-omega", None, "d1", _preserves_omega, degree=1),
)
SECOND_TYPE_NEARLY = (
    Identity("second-type-omega-residual", None, "d1", _preserves_omega, asserted=False,
             note="report-only: the nearly-case closed form does not "
                  "annihilate w; see second-type-omega-is-4covomega", degree=1),
    Identity("second-type-omega-is-4covomega", None, "alg",
             lambda t: (t["four"], t["nw"]),
             note="derived consistency of the nearly-case closed form", degree=1),
)


def connection_identity_results(bundle: StructureBundle) -> list:
    """The connection suite as IdentityResult records (shared gating rules)."""
    reason = not_hermitian(bundle)
    results = ([_skip("first-type-preserves-omega", reason)] if reason
               else evaluate(bundle, FIRST_TYPE_IDENTITIES, partial(_terms, bundle, "first")))
    reason = no_second_type(bundle)
    if reason:
        return results + [_skip("second-type-connection", reason)]
    second = partial(_terms, bundle, "second")
    results += evaluate(bundle, SECOND_TYPE_SKEW, second)
    if _levi(bundle):
        return results + evaluate(bundle, SECOND_TYPE_LEVI, second)
    terms = second()
    ratio = _result("second-type-deformation-ratio", (terms["ratio"], terms["S"]),
                    bundle.sample_points, 1e-10, note="second deformation = -3 x first")
    return results + [ratio] + evaluate(bundle, SECOND_TYPE_NEARLY, second)

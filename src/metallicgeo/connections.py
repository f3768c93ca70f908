"""Linear connections with torsion that preserve the fundamental 2-form.

Both connections deform Levi-Civita by a (1,2)-tensor S:

* first type: S(X, Y) = (1/3q) JMhat (nabla_X J_M) Y, defined on any
  skew-compatible bundle; it annihilates w, its deformation pairing
  S_J(X,Y,Z) = g(S(X,Y), J_M Z) is skew in (Y, Z), and its metric residual
  is (p/3q) g(Y, (nabla_X J_M) Z), so it is metric on every bundle it is
  built on (skew compatibility forces p = 0);
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

Each kind is gated as every identity row is, by a function that returns why
the bundle is outside its class ("" inside it): `not_hermitian` for the first
type, `no_second_type` for the second. The report and the suite read that
reason and skip a gated kind with it; `first_type` and `second_type` hold
only the formulas.

`connection_terms` computes every quantity of one connection at a point or
at each point of a stack: S, the pairing, nabla~ w, nabla~ g and the
kind-specific terms. The bundle keeps them as one dict per kind of arrays
stacked over the sample points, built once from the PointContext of those
points; the JSON block of `connection_report` and the identity records of
`connection_identity_results` both read those dicts and reduce them
straight to their largest |entry| with `geometry.largest_abs`, so every
array either reads, the -1/3 ratio of the two kinds' S included, is formed
once. A connection is Levi-Civita plus its deformation, so `first_type`
and `second_type` return S alone, and torsion and the symmetry checks are
exact algebra over the computed nabla J_M.
"""

from __future__ import annotations

import numpy as np

from .geometry import contract, largest_abs
from .identities import not_hermitian
from .metallic import (Identity, StructureBundle, VERDICT_ALMOST_KAHLER, VERDICT_KAHLER, _result,
                       _skip, evaluate)

__all__ = ["first_type", "second_type", "no_second_type", "connection_terms",
           "connection_report", "connection_identity_results"]


def no_second_type(bundle: StructureBundle) -> str:
    """Why the bundle has no second-type connection in closed form, "" when it has one."""
    cls = bundle.classification()
    if cls.verdict == VERDICT_KAHLER or cls.nearly:
        return ""
    if cls.verdict == VERDICT_ALMOST_KAHLER:
        return ("second-type connection: Levi-Civita preserves w only when nabla J_M = 0, "
                "and no closed form is derived for almost metallic Kähler bundles that are "
                "not metallic Kähler")
    return ("second-type connection has a closed form only on almost metallic Kähler or "
            "nearly metallic Kähler bundles")


# kind -> why the bundle has no connection of that kind, "" when it has one
_GATES = {"first": lambda bundle: not_hermitian(bundle) and f"connection {not_hermitian(bundle)}",
          "second": no_second_type}


def _levi(bundle: StructureBundle) -> bool:
    """Whether the second-type connection is Levi-Civita itself (S = 0)."""
    return bundle.classification().verdict == VERDICT_KAHLER


def first_type(bundle: StructureBundle, point) -> np.ndarray:
    """Deformation S[..., h, i, j] = (1/3q) JMhat (nabla J_M) at a point or a stack of points.
    It is a connection of the bundle where `not_hermitian` gives no reason."""
    ctx = bundle.context(point)
    q = bundle.params.q
    return (1.0 / (3.0 * q)) * contract("...ht,...itj->...hij", ctx.Jhat, ctx.covJ)


def second_type(bundle: StructureBundle, point) -> np.ndarray:
    """Deformation S[..., h, i, j] of the second-type connection where `no_second_type` gives
    no reason.

    Metallic Kahler: S = 0 (Levi-Civita exactly). Nearly metallic Kahler:
    S = -(1/q) JMhat (nabla J_M).
    """
    ctx = bundle.context(point)
    if _levi(bundle):
        return np.zeros_like(ctx.gamma)
    q = bundle.params.q
    return -(1.0 / q) * contract("...ht,...itj->...hij", ctx.Jhat, ctx.covJ)


def connection_terms(bundle: StructureBundle, kind: str, point) -> dict:
    """Every term of the `kind` ("first" or "second") connection at a point or a stack.

    S is the deformation S[..., h, i, j], SJ the pairing S_J[..., i, j, k] =
    g(S(d_i, d_j), J_M d_k), nw and ng the residuals (nabla~_i w)_jk and
    (nabla~_i g)_jk, sym the pairing's defining symmetry (zero when it
    holds), consistency nabla~ w minus its expansion through the pairing
    and cov_omega the Levi-Civita nabla w. Second type adds
    four = nabla~ w - 4 nabla w.
    """
    S = (first_type if kind == "first" else second_type)(bundle, point)
    ctx = bundle.context(point)
    w, g, cov_omega = ctx.omega, ctx.g, ctx.cov_omega
    SJ = contract("...tij,...kt->...ijk", S, w)
    nw = (cov_omega - contract("...tij,...tk->...ijk", S, w)
          - contract("...tik,...jt->...ijk", S, w))
    terms = {
        # Levi-Civita is symmetric, so torsion is carried by the deformation
        "S": S, "torsion": S - np.swapaxes(S, -2, -1), "SJ": SJ, "nw": nw,
        "ng": -contract("...tij,...tk->...ijk", S, g) - contract("...tik,...jt->...ijk", S, g),
        "sym": SJ + np.einsum("...ijk->...ikj" if kind == "first" else "...ijk->...kji", SJ),
        "consistency": nw - (cov_omega + SJ - np.einsum("...ijk->...ikj", SJ)),
        "cov_omega": cov_omega,
    }
    if kind == "second":
        terms["four"] = nw - 4.0 * cov_omega
    return terms


def _terms(bundle: StructureBundle, kind: str) -> dict:
    """The terms stacked over the sample points of a kind the bundle's gate admits. On a
    nearly bundle the second kind adds ratio = S_second + 3 S_first, which vanishes."""
    if kind not in bundle._connections:
        terms = connection_terms(bundle, kind, bundle.sample_points)
        if kind == "second" and not _levi(bundle):
            terms["ratio"] = terms["S"] + 3.0 * _terms(bundle, "first")["S"]
        bundle._connections[kind] = terms
    return bundle._connections[kind]


# (report key, key of the terms whose largest entry over the points is reported)
_REPORT_ROWS = (("deformation_norm", "S"), ("torsion_norm", "torsion"),
                ("nabla_omega_residual", "nw"), ("nabla_g_residual", "ng"),
                ("pairing_symmetry_residual", "sym"), ("expansion_consistency", "consistency"))
_KIND_REPORT_ROWS = {"first": (("metric_theorem_residual", "ng"),),
                     "second": (("omega_vs_4covomega", "four"),)}


def connection_report(bundle: StructureBundle) -> dict:
    """Tabulated residuals for every constructible connection on the bundle.

    Per connection: deformation and torsion norms, the w- and g-residuals,
    the defining symmetry of the pairing, the derivation-consistency
    expansion, plus the first-type metric theorem residual and, when both
    connections exist with nonzero deformation, the -1/3 deformation ratio.
    """
    out: dict = {"connections": {}, "notes": []}
    points = bundle.sample_points
    for kind in ("first", "second"):
        reason = _GATES[kind](bundle)
        if reason:
            out["connections"][kind] = {"skipped": reason}
            out["notes"].append(f"{kind}: {reason}")
            continue
        terms = _terms(bundle, kind)
        out["connections"][kind] = {
            key: largest_abs(points, f"{kind}-type connection {key}", terms[term])
            for key, term in _REPORT_ROWS + _KIND_REPORT_ROWS[kind]
        }
        if "ratio" in terms:
            out["deformation_ratio_residual"] = largest_abs(
                points, "deformation ratio residual", terms["ratio"])
    return out


def _preserves_omega(t: dict) -> tuple:
    return t["nw"], t["cov_omega"], t["SJ"]


def _pairing_symmetry(t: dict) -> tuple:
    return t["sym"], t["SJ"]


FIRST_TYPE_IDENTITIES = (
    Identity("first-type-preserves-omega", None, "d1", _preserves_omega),
    Identity("first-type-pairing-skew", None, "alg", _pairing_symmetry),
    Identity("first-type-metric-theorem", None, "d1", lambda t: (t["ng"], t["ng"])),
    Identity("first-type-expansion-consistency", None, "alg",
             lambda t: (t["consistency"], t["nw"])),
)
SECOND_TYPE_SKEW = (
    Identity("second-type-pairing-outer-skew", None, "d1", _pairing_symmetry),
)
SECOND_TYPE_LEVI = (
    Identity("second-type-equals-levi-civita", None, "alg",
             lambda t: (t["S"], np.ones(len(t["S"])))),
    Identity("second-type-preserves-omega", None, "d1", _preserves_omega),
)
SECOND_TYPE_NEARLY = (
    Identity("second-type-omega-residual", None, "d1", _preserves_omega, asserted=False,
             note="report-only: the nearly-case closed form does not "
                  "annihilate w; see second-type-omega-is-4covomega"),
    Identity("second-type-omega-is-4covomega", None, "alg",
             lambda t: (t["four"], t["nw"]),
             note="derived consistency of the nearly-case closed form"),
)


def connection_identity_results(bundle: StructureBundle) -> list:
    """The connection suite as IdentityResult records (shared gating rules)."""
    reason = not_hermitian(bundle)
    if reason:
        return [_skip("first-type-preserves-omega", reason),
                _skip("second-type-connection", reason)]
    results = evaluate(bundle, FIRST_TYPE_IDENTITIES, values=_terms(bundle, "first"))
    reason = no_second_type(bundle)
    if reason:
        return results + [_skip("second-type-connection", reason)]
    second = _terms(bundle, "second")
    results += evaluate(bundle, SECOND_TYPE_SKEW, values=second)
    if _levi(bundle):
        return results + evaluate(bundle, SECOND_TYPE_LEVI, values=second)
    ratio = _result("second-type-deformation-ratio", (second["ratio"], second["S"]),
                    bundle.sample_points, 1e-10, note="second deformation = -3 x first")
    return results + [ratio] + evaluate(bundle, SECOND_TYPE_NEARLY, values=second)

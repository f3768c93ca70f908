"""Residual checkers for the tensor identities of metallic Kahler geometry.

Every checker returns IdentityResult records carrying the raw maximum
residual over the sample points, the scale (largest norm of any term of
the identity), the relative residual max/max(1, scale) and a pass flag at
the identity's tolerance tier. A checker whose hypothesis class is not
met reports skipped, never failed. Checkers marked asserted=False are
report-only: they evaluate statements whose classical coefficients are
known to close only for special parameter values, so their pass flags are
informational and do not drive exit codes.

Each identity is one `Identity` record: its gate, its tolerance tier and
the arrays of its residual and of the terms behind its scale, computed
from the one PointContext of the stacked sample points (every member
carries the point axis first). `evaluate` applies the gates, calls each
record once and reduces its arrays straight to the two numbers with
`geometry.largest_abs`, as it does the observations quoted in notes; the
per-point values are formed only to name the point of a value that is not
finite. So every checker below is its table plus, where an identity does
not fit a record, a few explicit lines.

Conventions: see diffcalc. In particular H_ji = R_hji^t (J_M)_t^h and
S*_ji = -H_jt (J_M)_i^t, the arrangement under which the contracted
commutation chain

    nabla^m nabla_j w_im = S_jt (J_M)_i^t + (2/3q) S*_jt (JMhat)_i^t

closes, and dw_abc denotes the coordinate exterior derivative
d_a w_bc + d_b w_ca + d_c w_ab.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .geometry import largest_abs
from .metallic import StructureBundle, VERDICT_KAHLER, VERDICT_NONE

__all__ = [
    "IdentityResult",
    "Identity",
    "evaluate",
    "not_hermitian",
    "not_kahler",
    "not_nearly",
    "check_covderiv_identities",
    "check_f_properties",
    "check_f_nijenhuis_balance",
    "check_curvature_commutation",
    "check_ricci_pair_identities",
    "check_ricci_derivative_cycle",
    "check_divergence_ricci_chain",
    "check_ricci_hyperbolic",
    "check_ricci_star_hyperbolic",
    "check_scalar_star",
    "check_star_pack",
    "check_nearly_nijenhuis",
    "check_exterior_cross",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class IdentityResult:
    id: str
    max_residual: float = 0.0
    scale: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    skipped: bool = False
    asserted: bool = True
    note: str = ""

    @property
    def relative(self) -> float:
        return self.max_residual / max(1.0, self.scale)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "max_residual": self.max_residual,
            "scale": self.scale,
            "relative": self.relative,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "skipped": self.skipped,
            "asserted": self.asserted,
            "note": self.note,
        }


def _skip(id_: str, note: str) -> IdentityResult:
    return IdentityResult(id=id_, skipped=True, passed=False, note=note)


def _result(id_: str, arrays: tuple, points, tol: float, asserted: bool = True,
            note: str = "") -> IdentityResult:
    """Reduce a row's arrays (residual, *terms), stacked over `points`, with
    `geometry.largest_abs`: the residual first, then the scale over all the terms. A value
    that is not finite is a NumericalError naming the identity and point, not a failed
    check."""
    residual, *terms = arrays
    max_res = largest_abs(points, f"residual of {id_}", residual)
    scale = largest_abs(points, f"scale of {id_}", *terms)
    rel = max_res / max(1.0, scale)
    return IdentityResult(
        id=id_, max_residual=max_res, scale=scale, tolerance=tol,
        passed=rel < tol, asserted=asserted, note=note,
    )


# --- gates: the reason a bundle is outside a hypothesis class, "" inside it ---


def _gate(admits: Callable, reason: str) -> Callable[[StructureBundle], str]:
    return lambda bundle: "" if admits(bundle.classification()) else reason


not_hermitian = _gate(lambda cls: cls.verdict != VERDICT_NONE,
                      "needs an almost metallic Hermitian bundle")
not_kahler = _gate(lambda cls: cls.verdict == VERDICT_KAHLER, "needs a metallic Kähler bundle")
not_nearly = _gate(lambda cls: cls.nearly, "needs a nearly metallic Kähler bundle")


@dataclass(frozen=True)
class Identity:
    """One residual check: fn(stacked values) -> (residual, *terms), arrays stacked over
    the points. The residual is the largest |entry| of the first array, the scale that of
    all the others.

    gate returns why the bundle is outside the identity's hypothesis class
    ("" when it is inside; None means no gate); tier names the Tolerances
    field that holds the tolerance.
    """

    id: str
    gate: Optional[Callable[[StructureBundle], str]]
    tier: str
    fn: Callable
    asserted: bool = True
    note: str = ""


def evaluate(bundle: StructureBundle, identities, values=None) -> list:
    """Gate, evaluate and aggregate identity records in table order.

    Each record is called once, with the PointContext of the sample points,
    or with the `values` stacked over them when the caller supplies them.
    """
    out = []
    for ident in identities:
        reason = ident.gate(bundle) if ident.gate else ""
        if reason:
            out.append(_skip(ident.id, reason))
            continue
        if values is None:
            values = bundle.context(bundle.sample_points)
        out.append(_result(ident.id, ident.fn(values), bundle.sample_points,
                           getattr(bundle.tolerances, ident.tier), ident.asserted, ident.note))
    return out


def _zero(residual: np.ndarray, *terms) -> tuple:
    """The arrays of `residual = 0`, with the largest entry of any of the terms as its
    scale."""
    return (residual, *terms)


def _diff(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Residual of lhs = rhs with the larger side's norm as its scale."""
    return _zero(lhs - rhs, lhs, rhs)


def _skew_part(M: np.ndarray) -> tuple:
    """Residual of M = -M^T with the norm of M as its scale."""
    return _zero(M + np.swapaxes(M, -1, -2), M)


def _structure_pair(T: np.ndarray, J: np.ndarray) -> np.ndarray:
    """T(X, J_M Y, J_M Z) = T[..., i, a, b] J[..., a, j] J[..., b, k], one slot at a time."""
    return np.einsum("...ijb,...bk->...ijk", np.einsum("...iab,...aj->...ijb", T, J), J)


def _cartan_sum(F: np.ndarray) -> np.ndarray:
    """The displayed covariant cyclic sum: cart[..., a,b,c] = F[a,c,b] + F[b,a,c] + F[c,b,a]."""
    return (np.einsum("...acb->...abc", F) + np.einsum("...bac->...abc", F)
            + np.einsum("...cba->...abc", F))


# --- first-derivative identities -------------------------------------------------


def check_covderiv_identities(bundle: StructureBundle) -> list:
    """Two facts about nabla J_M on a skew-compatible bundle.

    (i) (nabla_X J_M) J_M Y = (pI - J_M)(nabla_X J_M) Y is algebraic: it only
    needs the polynomial identity, so it is checked on any bundle that
    satisfies it. (ii) g((nabla_X J_M) Y, Z) = -g(Y, (nabla_X J_M) Z)
    additionally needs skew compatibility; on a non-hyperbolic bundle it is
    still evaluated so the failure scale is visible in the report.
    """
    exchange, skew = evaluate(bundle, (
        Identity("covderiv-conjugate-exchange", None, "d1",
                 lambda ctx: _diff(np.einsum("...aht,...tj->...ajh", ctx.covJ, ctx.J),
                                   np.einsum("...ht,...atj->...ajh", ctx.Jhat, ctx.covJ))),
        Identity("covderiv-skew-adjoint", None, "d1",
                 lambda ctx: _zero(ctx.F + np.einsum("...ajk->...akj", ctx.F), ctx.F)),
    ))
    if not_hermitian(bundle):
        skew = replace(skew, note="requires skew compatibility")
    return [exchange, skew]


def check_f_properties(bundle: StructureBundle, mode: str) -> list:
    """Structure-rescaling properties of F(X, Y, Z) = g((nabla_X J_M) Y, Z).

    hermitian mode: F(X,Y,Z) = -F(X,Z,Y) and F(X, J_M Y, J_M Z) = (3/2) q F(X,Z,Y).
    nearly mode: F(J_M X, Y, J_M Z) = (3q/2) F(Y,X,Z) and
    F(J_M X, J_M Y, Z) = (3q/2) F(Y,X,Z) (the p-term of the general form
    vanishes: the gates admit only skew-compatible pairs, hence p = 0).
    """
    if mode == "hermitian":
        return evaluate(bundle, (
            Identity("f-skew-last-args", not_hermitian, "d1",
                     lambda ctx: _zero(ctx.F + np.einsum("...ijk->...ikj", ctx.F), ctx.F)),
            Identity("f-structure-pair-rescale", not_hermitian, "d1",
                     lambda ctx: _diff(_structure_pair(ctx.F, ctx.J),
                                       1.5 * ctx.q * np.einsum("...ikj->...ijk", ctx.F))),
        ))
    if mode == "nearly":
        return evaluate(bundle, (
            Identity("f-nearly-outer-rescale", not_nearly, "d1",
                     lambda ctx: _diff(np.einsum("...ijc,...ck->...ijk",
                                                 np.einsum("...ajc,...ai->...ijc", ctx.F, ctx.J),
                                                 ctx.J),
                                       1.5 * ctx.q * np.einsum("...jik->...ijk", ctx.F))),
            Identity("f-nearly-double-structure", not_nearly, "d1",
                     lambda ctx: _diff(np.einsum("...ibk,...bj->...ijk",
                                                 np.einsum("...abk,...ai->...ibk", ctx.F, ctx.J),
                                                 ctx.J),
                                       1.5 * ctx.q * np.einsum("...jik->...ijk", ctx.F))),
        ))
    raise ValueError("mode must be 'hermitian' or 'nearly'")


def _balance(ctx) -> tuple:
    cart = _cartan_sum(ctx.F)
    Jhat_g = np.einsum("...ai,...at->...it", ctx.Jhat, ctx.g)
    left = 3.0 * ctx.q * ctx.F + np.einsum("...it,...jkt->...ijk", Jhat_g, ctx.N)
    right = _structure_pair(cart, ctx.J) - 1.5 * ctx.q * cart
    return _diff(left, right)


def check_f_nijenhuis_balance(bundle: StructureBundle) -> IdentityResult:
    """Balance between F, the Nijenhuis tensor and the covariant cyclic sum:

        3q F(X,Y,Z) + g(JMhat X, N(Y,Z))
            = cart(X, J_M Y, J_M Z) - (3q/2) cart(X,Y,Z),

    where cart is the displayed cyclic sum g(Y,(nabla_X J_M)Z) + cycles
    (equal to minus the coordinate dw on a skew-compatible bundle). A
    nontrivial cancellation when N and dw are both large.
    """
    return evaluate(bundle, [Identity("f-nijenhuis-dw-balance", not_hermitian, "d1", _balance)])[0]


def check_exterior_cross(bundle: StructureBundle) -> IdentityResult:
    """Coordinate exterior derivative vs the covariant cyclic sum.

    Two independent computation paths for the same 3-form content. With the
    conventions of this package the coordinate dw equals MINUS the displayed
    cyclic sum; that one orientation is asserted, so a sign error in either
    path fails the check.
    """
    return evaluate(bundle, [Identity(
        "dw-cartan-cross-check",
        lambda b: not_hermitian(b) and "the cyclic-sum form needs skew compatibility", "d1",
        lambda ctx: _diff(ctx.domega, -_cartan_sum(ctx.F)),
        note="matching orientation: dw = -cartan-sum")])[0]


# --- curvature-tier identities ---------------------------------------------------


def check_curvature_commutation(bundle: StructureBundle) -> list:
    """Parallel-structure curvature identities (p = 0 behind the Kahler gate):

        R(X,Y) J_M Z = J_M R(X,Y) Z,
        R(J_M X, J_M Y) Z = (3q/2) R(X,Y) Z.
    """
    return evaluate(bundle, (
        Identity("curvature-structure-commute", not_kahler, "d2",
                 lambda ctx: _zero(np.einsum("...ti,...kjth->...kjih", ctx.J, ctx.curvature.Rup)
                                   - np.einsum("...kjit,...ht->...kjih", ctx.curvature.Rup, ctx.J),
                                   ctx.curvature.Rup)),
        Identity("curvature-structure-pair", not_kahler, "d2",
                 lambda ctx: _diff(np.einsum("...bj,...kbih->...kjih", ctx.J,
                                             np.einsum("...ak,...abih->...kbih",
                                                       ctx.J, ctx.curvature.Rup)),
                                   1.5 * ctx.q * ctx.curvature.Rup)),
    ))


def _ricci_pair(ctx, row: str) -> tuple:
    """One of the three Ricci contractions reported by check_ricci_pair_identities."""
    p, q = ctx.p, ctx.q
    S, J, Jhat, Rup = ctx.curvature.ricci, ctx.J, ctx.Jhat, ctx.curvature.Rup
    SXJY = np.einsum("...ia,...aj->...ij", S, J)
    if row == "pair":
        SJJ = np.einsum("...ib,...bj->...ij", np.einsum("...ab,...ai->...ib", S, J), J)
        c1 = p * p - 9 * q * q * p * p / 4 + 9 * q * q / 4
        c2 = 3 * p * q / 2 - 9 * q * q * p / 4
        r1 = SJJ - c1 * S - c2 * SXJY
        return _zero(r1, SJJ, c1 * S, c2 * SXJY)
    TR = np.einsum("...ib,...bj->...ij", np.einsum("...ibtm,...tm->...ib", Rup, Jhat), J)
    if row == "trace-stated":
        r2 = (1 + 1.5 * q) * S - p * SXJY + (2.0 / (3 * q)) * TR
        return _zero(r2, (1 + 1.5 * q) * S, (2.0 / (3 * q)) * TR)
    r3 = S + (2.0 / (3 * q)) * TR + p * SXJY - 1.5 * q * SXJY
    return _zero(r3, S, (2.0 / (3 * q)) * TR)


def check_ricci_pair_identities(bundle: StructureBundle) -> list:
    """Ricci contractions of the parallel-structure identities, report-only.

    The classical statements of both contractions rely on substituting the
    frame e_i -> J_M e_i inside a trace without the (3q/2) normalization,
    so they close only for special parameter values (q = 2/3 with p = 0).
    Three residuals are reported and none is asserted: the pair identity and
    the trace identity in their stated forms, and the derivation-level
    variant of the trace identity.
    """
    note = "report-only: the stated coefficients close only for special (p, q)"
    return evaluate(bundle, (
        Identity("ricci-structure-pair(stated)", not_kahler, "d2",
                 lambda ctx: _ricci_pair(ctx, "pair"), asserted=False, note=note),
        Identity("ricci-trace-form(stated)", not_kahler, "d2",
                 lambda ctx: _ricci_pair(ctx, "trace-stated"), asserted=False, note=note),
        Identity("ricci-trace-form(derived)", not_kahler, "d2",
                 lambda ctx: _ricci_pair(ctx, "trace-derived"), asserted=False, note=note),
    ))


def _cycle_terms(ctx) -> tuple:
    """The terms both cycle rows share: the left side, the right side's common part, that
    part plus the JMhat term, (nabla_{J_M Y} S)(X, B) and the JMhat term itself."""
    p, q = ctx.p, ctx.q
    covS, J, Jhat = ctx.cov_ricci, ctx.J, ctx.Jhat
    a = 1 + 1.5 * q
    covS_J = np.einsum("...zxa,...ay->...zxy", covS, J)       # (nabla_Z S)(X, J_M Y)
    lhs = a * covS - p * covS_J                       # [z, x, y]
    rhs_common = (a * np.einsum("...xzy->...zxy", covS)
                  - p * np.einsum("...xza,...ay->...zxy", covS, J))
    # (nabla_{J_M Y} S)(X, B) = J[a, y] covS[a, x, b]
    covS_JY = np.einsum("...ay,...axb->...yxb", J, covS)
    term_hat = np.einsum("...yxb,...bz->...zxy", covS_JY, Jhat)
    return lhs, rhs_common, rhs_common + (2.0 / (3 * q) + 1) * term_hat, covS_JY, term_hat


def _ricci_cycle(ctx, shared: tuple, derived: bool) -> tuple:
    lhs, rhs_common, rhs, covS_JY, term_hat = shared
    last = np.einsum("...yxz->...zxy", covS_JY) if derived else term_hat
    return _zero(lhs - (rhs - ctx.p * last), lhs, rhs_common, term_hat)


def check_ricci_derivative_cycle(bundle: StructureBundle) -> list:
    """Second-Bianchi-style cycle for nabla S on a metallic Kahler bundle.

    As stated:
        (1+3q/2)(nabla_Z S)(X,Y) - p (nabla_Z S)(X, J_M Y)
      = (1+3q/2)(nabla_X S)(Z,Y) - p (nabla_X S)(Z, J_M Y)
        + (2/3q + 1)(nabla_{J_M Y} S)(X, JMhat Z) - p (nabla_{J_M Y} S)(X, JMhat Z),
    and the derivation-level variant with (nabla_{J_M Y} S)(X, Z) in the
    last term. Third derivatives of g: loosest tier, report-only. Both
    rows read the cached nabla S of the stacked context, and the terms they
    share are formed once per context.
    """
    note = "report-only: statement and derivation disagree in one argument"
    terms = functools.cache(_cycle_terms)
    return evaluate(bundle, (
        Identity("ricci-derivative-cycle(stated)", not_kahler, "d3",
                 lambda ctx: _ricci_cycle(ctx, terms(ctx), derived=False),
                 asserted=False, note=note),
        Identity("ricci-derivative-cycle(derived)", not_kahler, "d3",
                 lambda ctx: _ricci_cycle(ctx, terms(ctx), derived=True),
                 asserted=False, note=note),
    ))


# --- star curvature and the nearly-tier identities --------------------------------


def _star_contraction(ctx) -> tuple:
    lhs = np.einsum("...jt,...ti->...ji", ctx.Sstar, ctx.Jhat)
    return _zero(lhs + 1.5 * ctx.q * ctx.H, lhs, 1.5 * ctx.q * ctx.H)


def check_star_pack(bundle: StructureBundle) -> list:
    """H antisymmetry (curvature tier) and the purely algebraic conjugate
    contraction S*_jt (JMhat)_i^t = -(3/2) q H_ji (algebraic tier)."""
    return evaluate(bundle, (
        Identity("h-antisymmetry", None, "d2", lambda ctx: _skew_part(ctx.H)),
        Identity("star-conjugate-contraction", None, "alg", _star_contraction),
    ))


def _divergence_omega(ctx) -> np.ndarray:
    """nabla^m nabla_j w_im from the second covariant derivative of w."""
    return np.einsum("...tjim,...mt->...ji", ctx.covcov_omega, ctx.ginv)


def check_divergence_ricci_chain(bundle: StructureBundle) -> IdentityResult:
    """Contracted commutation chain on a nearly metallic Kahler bundle:

        nabla^m nabla_j w_im  =  S_jt (J_M)_i^t + (2/3q) S*_jt (JMhat)_i^t,

    left side from the order-2 jet of w, right side from curvature
    contractions. The observed norm of the left side itself is reported
    (its vanishing is equivalent to S J_M = -(2/3q) S* JMhat) but not
    asserted.
    """
    kept = {}  # the left side of the row's last evaluation, for the note

    def residual(ctx):
        kept["lhs"] = lhs = _divergence_omega(ctx)
        return _diff(lhs, np.einsum("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J)
                     + (2.0 / (3 * ctx.q)) * np.einsum("...jt,...ti->...ji", ctx.Sstar, ctx.Jhat))

    chain = evaluate(bundle, [Identity("divergence-ricci-chain", not_nearly, "d2", residual)])[0]
    if chain.skipped:
        return chain
    obs = largest_abs(bundle.sample_points, "observed |nabla^m nabla_j w_im|", kept["lhs"])
    return replace(chain,
                   note=f"observed |nabla^m nabla_j w_im| = {obs:.6g} (reported, not asserted)")


def check_ricci_hyperbolic(bundle: StructureBundle) -> IdentityResult:
    """S_ti (J_M)_j^t = -S_jt (J_M)_i^t on a nearly metallic Kahler bundle."""
    return evaluate(bundle, [Identity(
        "ricci-hyperbolic", not_nearly, "d2",
        lambda ctx: _skew_part(np.einsum("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J)))])[0]


def _ricci_star_hyperbolic(ctx) -> tuple:
    A = np.einsum("...jm,...mi->...ji", ctx.Sstar, ctx.Jhat)
    B = -np.einsum("...mi,...mj->...ji", ctx.Sstar, ctx.Jhat)
    return _zero(A - B, A)


def check_ricci_star_hyperbolic(bundle: StructureBundle) -> list:
    """S*_jm (JMhat)_i^m = -S*_mi (JMhat)_j^m, plus the intermediate
    cancellation of the two curvature contractions behind it."""
    return evaluate(bundle, (
        Identity("ricci-star-hyperbolic", not_nearly, "d2", _ricci_star_hyperbolic),
        Identity("star-contraction-cancel", not_nearly, "d2",
                 lambda ctx: _skew_part(np.einsum("...jm,...mi->...ji", ctx.Sstar, ctx.Jhat))),
    ))


def _scalar_star_relation(ctx) -> tuple:
    q = ctx.q
    lhs = ctx.scalar_star
    rhs = 1.5 * q * ctx.curvature.scalar - ctx.norm_covJ_sq
    return _zero(lhs - rhs, lhs, 1.5 * q * ctx.curvature.scalar, ctx.norm_covJ_sq)


def _ricci_omega_trace(ctx) -> tuple:
    """(raw trace, trace, symmetrised Ricci): S_jt w^jt with the raw Ricci tensor and with its
    symmetric part."""
    # the Ricci tensor is symmetric by theorem; its raw finite-difference
    # asymmetry is measured by the curvature invariants, so the mixed trace
    # is taken against the symmetric part (and the raw value observed)
    ricci_sym = 0.5 * (ctx.curvature.ricci + np.swapaxes(ctx.curvature.ricci, -1, -2))
    w_up = np.einsum("...jm,...tm->...jt", np.einsum("...ji,...im->...jm", ctx.ginv, ctx.omega),
                     ctx.ginv)
    raw = np.einsum("...jt,...jt->...", ctx.curvature.ricci, w_up)
    return raw, np.einsum("...jt,...jt->...", ricci_sym, w_up), ricci_sym


def check_scalar_star(bundle: StructureBundle) -> list:
    """Scalar vs scalar-star relation on a nearly metallic Kahler bundle:

        S*_c = (3/2) q S_c - |nabla J_M|^2,

    left and right sides from independent pipelines (the general form adds
    p S_jt w^jt, zero behind the gate, where p = 0). The mixed trace
    S_jt w^jt pairs a symmetric with an antisymmetric tensor and must
    vanish on any bundle; it is asserted as a sub-check whose raw residual
    must stay below a fixed 1e-10.
    """
    relation = evaluate(bundle, [Identity("scalar-star-relation", not_nearly, "d3",
                                          _scalar_star_relation)])[0]
    id_ = "ricci-omega-trace-zero"
    if relation.skipped:
        return [relation, _skip(id_, relation.note)]
    points = bundle.sample_points
    raw, trace, ricci_sym = _ricci_omega_trace(bundle.context(points))
    raw_obs = largest_abs(points, "raw (unsymmetrized) trace S_jt w^jt", raw)
    row = _result(id_, (trace, ricci_sym), points, 1e-10,
                  note=f"raw (unsymmetrized) trace observation: {raw_obs:.3g}")
    return [relation, replace(row, passed=row.max_residual < 1e-10)]


def check_nearly_nijenhuis(bundle: StructureBundle) -> list:
    """Two independent pipelines for N on a nearly metallic Kahler bundle:

        N(X, Y) = -4 J_M (nabla_X J_M) Y,

    bracket formula (plain partials) against the covariant-derivative form
    (the general form 2 (p I - 2 J_M)(nabla_X J_M) Y, at p = 0, which the
    gate implies), plus the coordinate trace (nabla_i J_M)_j^i = 0.
    """
    return evaluate(bundle, (
        Identity("nijenhuis-covderiv-form", not_nearly, "d1",
                 lambda ctx: _diff(ctx.N,
                                   -4.0 * np.einsum("...ht,...itj->...ijh", ctx.J, ctx.covJ))),
        Identity("structure-divergence-free", not_nearly, "d1",
                 lambda ctx: _zero(np.einsum("...iij->...j", ctx.covJ), ctx.covJ)),
    ))


# --- suites ----------------------------------------------------------------------


def suite_metallic(bundle: StructureBundle) -> list:
    return [
        *check_covderiv_identities(bundle),
        *check_f_properties(bundle, "hermitian"),
        check_f_nijenhuis_balance(bundle),
        check_exterior_cross(bundle),
        *check_curvature_commutation(bundle),
        *check_ricci_pair_identities(bundle),
        *check_ricci_derivative_cycle(bundle),
    ]


def suite_nearly(bundle: StructureBundle) -> list:
    return [
        *check_f_properties(bundle, "nearly"),
        *check_nearly_nijenhuis(bundle),
        *check_star_pack(bundle),
        check_divergence_ricci_chain(bundle),
        check_ricci_hyperbolic(bundle),
        *check_ricci_star_hyperbolic(bundle),
        *check_scalar_star(bundle),
    ]


def suite_connections(bundle: StructureBundle) -> list:
    from .connections import connection_identity_results

    return connection_identity_results(bundle)


SUITES: dict[str, Callable] = {
    "metallic": suite_metallic,
    "nearly": suite_nearly,
    "connections": suite_connections,
}


def run_suite(bundle: StructureBundle, suite: str) -> list:
    """Run one named suite, or all of them in a fixed order."""
    if suite == "all":
        out = []
        for name in ("metallic", "nearly", "connections"):
            out.extend(SUITES[name](bundle))
        return out
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; available: all, " + ", ".join(sorted(SUITES)))
    return SUITES[suite](bundle)

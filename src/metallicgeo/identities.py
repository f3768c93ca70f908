"""Residual checks for the tensor identities of metallic Kahler geometry.

Each identity is one `Identity` row: its id, its gate, its tolerance tier
and a function that gives the arrays of its residual and of the terms
behind its scale, computed from the one PointContext of the stacked sample
points (every member carries the point axis first). The rows live in
module-level tables, and the suites hand those tables to `evaluate`, the
one pipeline: it applies the gates, calls each row once and reduces its
arrays straight to the two numbers with `geometry.largest_abs`, as it does
the observations quoted in notes; the per-point values are formed only to
name the point of a value that is not finite. Every result carries the raw
maximum residual over the sample points, the scale (largest norm of any
term of the identity), the relative residual max/max(1, scale) and a pass
flag at the identity's tier. `Identity`, `IdentityResult` and `evaluate` live
in `metallic`, whose classification residuals are one more such table.

One gate rule holds for every row, the connection rows included: a gate is
a function of the bundle that returns why the bundle is outside the row's
hypothesis class ("" inside it), and a gated row is reported skipped with
that reason, never failed. Rows marked asserted=False are report-only:
they evaluate statements whose classical coefficients are known to close
only for special parameter values, so their pass flags are informational
and do not drive exit codes. A check is a function only where a table
does not suffice: a conditional note (`check_covderiv_identities`), an
absolute bound (`check_scalar_star`), an observation quoted in a note
(`check_divergence_ricci_chain`), and the checks that
`perfbench/tracing.py` times by name, which the suites call as module
globals so that its patches take effect.

Conventions: see diffcalc. In particular H_ji = R_hji^t (J_M)_t^h and
S*_ji = -H_jt (J_M)_i^t, the arrangement under which the contracted
commutation chain

    nabla^m nabla_j w_im = S_jt (J_M)_i^t + (2/3q) S*_jt (JMhat)_i^t

closes, and dw_abc denotes the coordinate exterior derivative
d_a w_bc + d_b w_ca + d_c w_ab.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable

import numpy as np

from .geometry import contract, largest_abs
from .metallic import (Identity, IdentityResult, StructureBundle, VERDICT_KAHLER, VERDICT_NONE,
                       _result, _skip, evaluate)

__all__ = [
    "not_hermitian", "not_kahler", "not_nearly",
    "F_HERMITIAN", "F_NIJENHUIS_BALANCE", "EXTERIOR_CROSS", "RICCI_PAIR", "F_NEARLY",
    "NEARLY_NIJENHUIS", "STAR_PACK", "RICCI_HYPERBOLIC", "RICCI_STAR_HYPERBOLIC",
    "check_covderiv_identities", "check_curvature_commutation", "check_ricci_derivative_cycle",
    "check_divergence_ricci_chain", "check_scalar_star", "run_suite", "SUITES",
]


# --- gates: the reason a bundle is outside a hypothesis class, "" inside it ---


def _gate(admits: Callable, reason: str) -> Callable[[StructureBundle], str]:
    return lambda bundle: "" if admits(bundle.classification()) else reason


not_hermitian = _gate(lambda cls: cls.verdict != VERDICT_NONE,
                      "needs an almost metallic Hermitian bundle")
not_kahler = _gate(lambda cls: cls.verdict == VERDICT_KAHLER, "needs a metallic Kähler bundle")
not_nearly = _gate(lambda cls: cls.nearly, "needs a nearly metallic Kähler bundle")


def _diff(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Residual of lhs = rhs with the larger side's norm as its scale."""
    return lhs - rhs, lhs, rhs


def _skew_part(M: np.ndarray) -> tuple:
    """Residual of M = -M^T with the norm of M as its scale."""
    return M + np.swapaxes(M, -1, -2), M


def _structure_pair(T: np.ndarray, J: np.ndarray) -> np.ndarray:
    """T(X, J_M Y, J_M Z) = T[..., i, a, b] J[..., a, j] J[..., b, k], one slot at a time."""
    return contract("...ijb,...bk->...ijk", contract("...iab,...aj->...ijb", T, J), J)


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
                 lambda ctx: _diff(contract("...aht,...tj->...ajh", ctx.covJ, ctx.J),
                                   contract("...ht,...atj->...ajh", ctx.Jhat, ctx.covJ))),
        Identity("covderiv-skew-adjoint", None, "d1",
                 lambda ctx: (ctx.F + np.einsum("...ajk->...akj", ctx.F), ctx.F)),
    ))
    if not_hermitian(bundle):
        skew = replace(skew, note="requires skew compatibility")
    return [exchange, skew]


# F(X, Y, Z) = g((nabla_X J_M) Y, Z) under structure rescaling, on an almost metallic
# Hermitian bundle: F(X,Y,Z) = -F(X,Z,Y) and F(X, J_M Y, J_M Z) = (3/2) q F(X,Z,Y).
F_HERMITIAN = (
    Identity("f-skew-last-args", not_hermitian, "d1",
             lambda ctx: (ctx.F + np.einsum("...ijk->...ikj", ctx.F), ctx.F)),
    Identity("f-structure-pair-rescale", not_hermitian, "d1",
             lambda ctx: _diff(_structure_pair(ctx.F, ctx.J),
                               1.5 * ctx.q * np.einsum("...ikj->...ijk", ctx.F))),
)


def _balance(ctx) -> tuple:
    cart = _cartan_sum(ctx.F)
    Jhat_g = contract("...ai,...at->...it", ctx.Jhat, ctx.g)
    left = 3.0 * ctx.q * ctx.F + contract("...it,...jkt->...ijk", Jhat_g, ctx.N)
    right = _structure_pair(cart, ctx.J) - 1.5 * ctx.q * cart
    return _diff(left, right)


# Balance between F, the Nijenhuis tensor and the covariant cyclic sum:
#
#     3q F(X,Y,Z) + g(JMhat X, N(Y,Z)) = cart(X, J_M Y, J_M Z) - (3q/2) cart(X,Y,Z),
#
# where cart is the displayed cyclic sum g(Y,(nabla_X J_M)Z) + cycles (equal to minus the
# coordinate dw on a skew-compatible bundle). A nontrivial cancellation when N and dw are
# both large.
F_NIJENHUIS_BALANCE = (Identity("f-nijenhuis-dw-balance", not_hermitian, "d1", _balance),)

# Coordinate exterior derivative against the covariant cyclic sum: two independent
# computation paths for the same 3-form content. With the conventions of this package the
# coordinate dw equals MINUS the displayed cyclic sum; that one orientation is asserted, so
# a sign error in either path fails the row.
EXTERIOR_CROSS = (Identity(
    "dw-cartan-cross-check",
    lambda b: not_hermitian(b) and "the cyclic-sum form needs skew compatibility", "d1",
    lambda ctx: _diff(ctx.domega, -_cartan_sum(ctx.F)),
    note="matching orientation: dw = -cartan-sum"),)


# --- curvature-tier identities ---------------------------------------------------


def check_curvature_commutation(bundle: StructureBundle) -> list:
    """Parallel-structure curvature identities (p = 0 behind the Kahler gate):

        R(X,Y) J_M Z = J_M R(X,Y) Z,
        R(J_M X, J_M Y) Z = (3q/2) R(X,Y) Z.
    """
    return evaluate(bundle, (
        Identity("curvature-structure-commute", not_kahler, "d2",
                 lambda ctx: (contract("...ti,...kjth->...kjih", ctx.J, ctx.curvature.Rup)
                              - contract("...kjit,...ht->...kjih", ctx.curvature.Rup, ctx.J),
                              ctx.curvature.Rup)),
        Identity("curvature-structure-pair", not_kahler, "d2",
                 lambda ctx: _diff(contract("...bj,...kbih->...kjih", ctx.J,
                                             contract("...ak,...abih->...kbih",
                                                       ctx.J, ctx.curvature.Rup)),
                                   1.5 * ctx.q * ctx.curvature.Rup)),
    ))


def _ricci_j(ctx) -> np.ndarray:
    """S(X, J_M Y)."""
    return contract("...ia,...aj->...ij", ctx.curvature.ricci, ctx.J)


def _trace_rj(ctx) -> np.ndarray:
    """TR_ij = tr(R(X, J_M Y) o JMhat)."""
    return contract("...ib,...bj->...ij",
                     contract("...ibtm,...tm->...ib", ctx.curvature.Rup, ctx.Jhat), ctx.J)


def _ricci_structure_pair(ctx) -> tuple:
    p, q, S = ctx.p, ctx.q, ctx.curvature.ricci
    SXJY = _ricci_j(ctx)
    SJJ = contract("...ib,...bj->...ij", contract("...ab,...ai->...ib", S, ctx.J), ctx.J)
    c1 = p * p - 9 * q * q * p * p / 4 + 9 * q * q / 4
    c2 = 3 * p * q / 2 - 9 * q * q * p / 4
    r1 = SJJ - c1 * S - c2 * SXJY
    return r1, SJJ, c1 * S, c2 * SXJY


def _ricci_trace_stated(ctx) -> tuple:
    p, q, S = ctx.p, ctx.q, ctx.curvature.ricci
    TR = (2.0 / (3 * q)) * _trace_rj(ctx)
    return (1 + 1.5 * q) * S - p * _ricci_j(ctx) + TR, (1 + 1.5 * q) * S, TR


def _ricci_trace_derived(ctx) -> tuple:
    p, q, S = ctx.p, ctx.q, ctx.curvature.ricci
    SXJY, TR = _ricci_j(ctx), (2.0 / (3 * q)) * _trace_rj(ctx)
    return S + TR + p * SXJY - 1.5 * q * SXJY, S, TR


# Ricci contractions of the parallel-structure identities, report-only. The classical
# statements of both contractions rely on substituting the frame e_i -> J_M e_i inside a
# trace without the (3q/2) normalization, so they close only for special parameter values
# (q = 2/3 with p = 0). Three residuals are reported and none is asserted: the pair
# identity and the trace identity in their stated forms, and the derivation-level variant
# of the trace identity.
_PAIR_NOTE = "report-only: the stated coefficients close only for special (p, q)"
RICCI_PAIR = (
    Identity("ricci-structure-pair(stated)", not_kahler, "d2", _ricci_structure_pair,
             asserted=False, note=_PAIR_NOTE),
    Identity("ricci-trace-form(stated)", not_kahler, "d2", _ricci_trace_stated,
             asserted=False, note=_PAIR_NOTE),
    Identity("ricci-trace-form(derived)", not_kahler, "d2", _ricci_trace_derived,
             asserted=False, note=_PAIR_NOTE),
)


def _cycle_terms(ctx) -> tuple:
    """The terms both cycle rows share: the left side, the right side's common part, that
    part plus the JMhat term, (nabla_{J_M Y} S)(X, B) and the JMhat term itself."""
    p, q = ctx.p, ctx.q
    covS, J, Jhat = ctx.cov_ricci, ctx.J, ctx.Jhat
    a = 1 + 1.5 * q
    covS_J = contract("...zxa,...ay->...zxy", covS, J)       # (nabla_Z S)(X, J_M Y)
    lhs = a * covS - p * covS_J                       # [z, x, y]
    rhs_common = (a * np.einsum("...xzy->...zxy", covS)
                  - p * contract("...xza,...ay->...zxy", covS, J))
    # (nabla_{J_M Y} S)(X, B) = J[a, y] covS[a, x, b]
    covS_JY = contract("...ay,...axb->...yxb", J, covS)
    term_hat = contract("...yxb,...bz->...zxy", covS_JY, Jhat)
    return lhs, rhs_common, rhs_common + (2.0 / (3 * q) + 1) * term_hat, covS_JY, term_hat


def _ricci_cycle(ctx, shared: tuple, derived: bool) -> tuple:
    lhs, rhs_common, rhs, covS_JY, term_hat = shared
    last = np.einsum("...yxz->...zxy", covS_JY) if derived else term_hat
    return lhs - (rhs - ctx.p * last), lhs, rhs_common, term_hat


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


# F under structure rescaling on a nearly metallic Kahler bundle:
# F(J_M X, Y, J_M Z) = (3q/2) F(Y,X,Z) and F(J_M X, J_M Y, Z) = (3q/2) F(Y,X,Z). The p-term
# of the general form vanishes: the gate admits only skew-compatible pairs, hence p = 0.
F_NEARLY = (
    Identity("f-nearly-outer-rescale", not_nearly, "d1",
             lambda ctx: _diff(contract("...ijc,...ck->...ijk",
                                         contract("...ajc,...ai->...ijc", ctx.F, ctx.J), ctx.J),
                               1.5 * ctx.q * np.einsum("...jik->...ijk", ctx.F))),
    Identity("f-nearly-double-structure", not_nearly, "d1",
             lambda ctx: _diff(contract("...ibk,...bj->...ijk",
                                         contract("...abk,...ai->...ibk", ctx.F, ctx.J), ctx.J),
                               1.5 * ctx.q * np.einsum("...jik->...ijk", ctx.F))),
)

# Two independent pipelines for N on a nearly metallic Kahler bundle,
#
#     N(X, Y) = -4 J_M (nabla_X J_M) Y:
#
# the bracket formula (plain partials) against the covariant-derivative form (the general
# form 2 (p I - 2 J_M)(nabla_X J_M) Y at p = 0, which the gate implies), plus the
# coordinate trace (nabla_i J_M)_j^i = 0.
NEARLY_NIJENHUIS = (
    Identity("nijenhuis-covderiv-form", not_nearly, "d1",
             lambda ctx: _diff(ctx.N, -4.0 * contract("...ht,...itj->...ijh", ctx.J, ctx.covJ))),
    Identity("structure-divergence-free", not_nearly, "d1",
             lambda ctx: (np.einsum("...iij->...j", ctx.covJ), ctx.covJ)),
)


def _star_contraction(ctx) -> tuple:
    lhs = contract("...jt,...ti->...ji", ctx.Sstar, ctx.Jhat)
    return lhs + 1.5 * ctx.q * ctx.H, lhs, 1.5 * ctx.q * ctx.H


# H antisymmetry (curvature tier) and the purely algebraic conjugate contraction
# S*_jt (JMhat)_i^t = -(3/2) q H_ji (algebraic tier), on every bundle.
STAR_PACK = (
    Identity("h-antisymmetry", None, "d2", lambda ctx: _skew_part(ctx.H)),
    Identity("star-conjugate-contraction", None, "alg", _star_contraction),
)


def _divergence_omega(ctx) -> np.ndarray:
    """nabla^m nabla_j w_im from the second covariant derivative of w."""
    return contract("...tjim,...mt->...ji", ctx.covcov_omega, ctx.ginv)


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
        return _diff(lhs, contract("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J)
                     + (2.0 / (3 * ctx.q)) * contract("...jt,...ti->...ji", ctx.Sstar, ctx.Jhat))

    chain = evaluate(bundle, [Identity("divergence-ricci-chain", not_nearly, "d2", residual)])[0]
    if chain.skipped:
        return chain
    obs = largest_abs(bundle.sample_points, "observed |nabla^m nabla_j w_im|", kept["lhs"])
    return replace(chain,
                   note=f"observed |nabla^m nabla_j w_im| = {obs:.6g} (reported, not asserted)")


# S_ti (J_M)_j^t = -S_jt (J_M)_i^t on a nearly metallic Kahler bundle.
RICCI_HYPERBOLIC = (Identity(
    "ricci-hyperbolic", not_nearly, "d2",
    lambda ctx: _skew_part(contract("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J))),)


def _ricci_star_hyperbolic(ctx) -> tuple:
    A = contract("...jm,...mi->...ji", ctx.Sstar, ctx.Jhat)
    B = -contract("...mi,...mj->...ji", ctx.Sstar, ctx.Jhat)
    return A - B, A


# S*_jm (JMhat)_i^m = -S*_mi (JMhat)_j^m on a nearly metallic Kahler bundle, plus the
# intermediate cancellation of the two curvature contractions behind it.
RICCI_STAR_HYPERBOLIC = (
    Identity("ricci-star-hyperbolic", not_nearly, "d2", _ricci_star_hyperbolic),
    Identity("star-contraction-cancel", not_nearly, "d2",
             lambda ctx: _skew_part(contract("...jm,...mi->...ji", ctx.Sstar, ctx.Jhat))),
)


def _scalar_star_relation(ctx) -> tuple:
    q = ctx.q
    lhs = ctx.scalar_star
    rhs = 1.5 * q * ctx.curvature.scalar - ctx.norm_covJ_sq
    return lhs - rhs, lhs, 1.5 * q * ctx.curvature.scalar, ctx.norm_covJ_sq


def _ricci_omega_trace(ctx) -> tuple:
    """(raw trace, trace, symmetrised Ricci): S_jt w^jt with the raw Ricci tensor and with its
    symmetric part."""
    # the Ricci tensor is symmetric by theorem; its raw finite-difference
    # asymmetry is measured by the curvature invariants, so the mixed trace
    # is taken against the symmetric part (and the raw value observed)
    ricci_sym = 0.5 * (ctx.curvature.ricci + np.swapaxes(ctx.curvature.ricci, -1, -2))
    w_up = contract("...jm,...tm->...jt", contract("...ji,...im->...jm", ctx.ginv, ctx.omega),
                     ctx.ginv)
    raw = contract("...jt,...jt->...", ctx.curvature.ricci, w_up)
    return raw, contract("...jt,...jt->...", ricci_sym, w_up), ricci_sym


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
    return [relation, _result(id_, (trace, ricci_sym), points, 1e-10, absolute=True,
                              note=f"raw (unsymmetrized) trace observation: {raw_obs:.3g}")]


# --- suites ----------------------------------------------------------------------


def suite_metallic(bundle: StructureBundle) -> list:
    return [
        *check_covderiv_identities(bundle),
        *evaluate(bundle, F_HERMITIAN + F_NIJENHUIS_BALANCE + EXTERIOR_CROSS),
        *check_curvature_commutation(bundle),
        *evaluate(bundle, RICCI_PAIR),
        *check_ricci_derivative_cycle(bundle),
    ]


def suite_nearly(bundle: StructureBundle) -> list:
    return [
        *evaluate(bundle, F_NEARLY + NEARLY_NIJENHUIS + STAR_PACK),
        check_divergence_ricci_chain(bundle),
        *evaluate(bundle, RICCI_HYPERBOLIC + RICCI_STAR_HYPERBOLIC),
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

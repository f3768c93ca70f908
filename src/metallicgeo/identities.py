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
that reason, never failed. Every row of a table here names one of the
gates of `metallic`, so an asserted row fails only inside its
hypothesis. Rows marked asserted=False are report-only: they evaluate
statements whose classical coefficients close only at special parameter
values or at none, so their pass flags are informational and do not
drive exit codes. A check is a function only where a table does not suffice: an
absolute bound (`check_scalar_star`) and an observation quoted in a note
(`check_divergence_ricci_chain`). `check_curvature_commutation` and
`check_ricci_derivative_cycle` are each one `evaluate` call on a module table
(`CURVATURE_COMMUTATION`, `RICCI_CYCLE`), kept as functions because
`perfbench/tracing.py` times them by name; the suites call them as module
globals so that its patches take effect, and `suite_connections` looks up
`connections.connection_identity_results` on that module for the same
reason.

Conventions: see diffcalc. The structure parameter p is 0 (see metallic),
so J_M = c J with c = sqrt(3q/2) and J^2 = -I, and the conjugate structure
JMhat = pI - J_M is -J_M. Every asserted row is stated on the unit
structure J of the PointContext, with no q in it: a metallic identity
whose terms are all of degree k in J_M is c^k times the identity on J, so
a row declares k as its `degree` and `evaluate` reports c^k times its
numbers, those of the metallic form. The report-only rows mix degrees and
form their metallic numbers from q themselves. H_ji = R_hji^t J_t^h and
S*_ji = -H_jt J_i^t, the arrangement under which the contracted
commutation chain

    nabla^m nabla_j w_im = S_jt J_i^t - S*_jt J_i^t

closes, and dw_abc denotes the coordinate exterior derivative
d_a w_bc + d_b w_ca + d_c w_ab.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from . import connections
from .geometry import contract, largest_abs
from .metallic import (Identity, IdentityResult, StructureBundle, _result, _skip, evaluate,
                       not_hermitian, not_kahler, not_metallic, not_nearly)

__all__ = [
    "COVDERIV", "F_HERMITIAN", "F_NIJENHUIS_BALANCE", "EXTERIOR_CROSS", "RICCI_PAIR", "F_NEARLY",
    "NEARLY_NIJENHUIS", "STAR_PACK", "RICCI_HYPERBOLIC", "RICCI_STAR_HYPERBOLIC",
    "CURVATURE_COMMUTATION", "RICCI_CYCLE", "check_curvature_commutation",
    "check_ricci_derivative_cycle", "check_divergence_ricci_chain", "check_scalar_star", "run_suite", "SUITES",
]


def _diff(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """Residual of lhs = rhs with the larger side's norm as its scale."""
    return lhs - rhs, lhs, rhs


def _skew_part(M: np.ndarray) -> tuple:
    """Residual of M = -M^T with the norm of M as its scale."""
    return M + np.swapaxes(M, -1, -2), M


def _structure_pair(T: np.ndarray, J: np.ndarray) -> np.ndarray:
    """T(X, J Y, J Z) = T[..., i, a, b] J[..., a, j] J[..., b, k], one slot at a time."""
    return contract("...ijb,...bk->...ijk", contract("...iab,...aj->...ijb", T, J), J)


def _cartan_sum(F: np.ndarray) -> np.ndarray:
    """The displayed covariant cyclic sum: cart[..., a,b,c] = F[a,c,b] + F[b,a,c] + F[c,b,a]."""
    return (np.einsum("...acb->...abc", F) + np.einsum("...bac->...abc", F)
            + np.einsum("...cba->...abc", F))


# --- first-derivative identities -------------------------------------------------


def _f_skew(ctx) -> tuple:
    """F(X,Y,Z) = -F(X,Z,Y), with the norm of F as its scale."""
    return _skew_part(ctx.F)


# Two facts about nabla J. (nabla_X J) J Y = -J (nabla_X J) Y is the derivative of the
# polynomial identity J^2 + I = 0 alone, so it needs only a metallic structure.
# g((nabla_X J) Y, Z) = -g(Y, (nabla_X J) Z) also needs skew compatibility: it states
# F(X,Y,Z) = -F(X,Z,Y), as f-skew-last-args does, so both rows name one function and
# `evaluate` forms its array once.
COVDERIV = (
    Identity("covderiv-conjugate-exchange", not_metallic, "d1",
             lambda ctx: _diff(contract("...aht,...tj->...ajh", ctx.covJ, ctx.J),
                               -contract("...ht,...atj->...ajh", ctx.J, ctx.covJ)), degree=2),
    Identity("covderiv-skew-adjoint", not_hermitian, "d1", _f_skew, degree=1),
)


# F(X, Y, Z) = g((nabla_X J) Y, Z) under the structure, on an almost metallic Hermitian
# bundle: F(X,Y,Z) = -F(X,Z,Y) and F(X, J Y, J Z) = F(X,Z,Y), which is
# F(X, J_M Y, J_M Z) = (3/2) q F(X,Z,Y) in the metallic form.
F_HERMITIAN = (
    Identity("f-skew-last-args", not_hermitian, "d1", _f_skew, degree=1),
    Identity("f-structure-pair-rescale", not_hermitian, "d1",
             lambda ctx: _diff(_structure_pair(ctx.F, ctx.J),
                               np.einsum("...ikj->...ijk", ctx.F)), degree=3),
)


def _balance(ctx) -> tuple:
    cart = _cartan_sum(ctx.F)
    J_g = contract("...ai,...at->...it", ctx.J, ctx.g)
    left = 2.0 * ctx.F - contract("...it,...jkt->...ijk", J_g, ctx.N)
    right = _structure_pair(cart, ctx.J) - cart
    return _diff(left, right)


# Balance between F, the Nijenhuis tensor and the covariant cyclic sum:
#
#     2 F(X,Y,Z) - g(J X, N(Y,Z)) = cart(X, J Y, J Z) - cart(X,Y,Z),
#
# the metallic 3q F - g(J_M X, N) = cart(X, J_M Y, J_M Z) - (3q/2) cart divided by c^3,
# where cart is the displayed cyclic sum g(Y,(nabla_X J)Z) + cycles (equal to minus the
# coordinate dw on a skew-compatible bundle). A nontrivial cancellation when N and dw are
# both large.
F_NIJENHUIS_BALANCE = (Identity("f-nijenhuis-dw-balance", not_hermitian, "d1", _balance,
                                degree=3),)

# Coordinate exterior derivative against the covariant cyclic sum: two independent
# computation paths for the same 3-form content. With the conventions of this package the
# coordinate dw equals MINUS the displayed cyclic sum; that one orientation is asserted, so
# a sign error in either path fails the row.
EXTERIOR_CROSS = (Identity("dw-cartan-cross-check", not_hermitian, "d1",
                           lambda ctx: _diff(ctx.domega, -_cartan_sum(ctx.F)),
                           note="matching orientation: dw = -cartan-sum", degree=1),)


# --- curvature-tier identities ---------------------------------------------------


def _commute(ctx) -> tuple:
    """R(X,Y) + J R(X,Y) J, with the norm of R as its scale."""
    Rup = ctx.curvature.Rup
    RJ = contract("...ti,...kjth->...kjih", ctx.J, Rup)
    return Rup + contract("...kjit,...ht->...kjih", RJ, ctx.J), Rup


# Parallel-structure curvature identities on a metallic Kahler bundle:
#
#     R(X,Y) J Z = J R(X,Y) Z, stated as R(X,Y) + J R(X,Y) J = 0 (J^2 = -I), whose both
#       sides are of degree 0 in c, as the scale |R| is,
#     R(J X, J Y) Z = R(X,Y) Z, that is R(J_M X, J_M Y) Z = (3q/2) R(X,Y) Z.
CURVATURE_COMMUTATION = (
    Identity("curvature-structure-commute", not_kahler, "d2", _commute, degree=0),
    Identity("curvature-structure-pair", not_kahler, "d2",
             lambda ctx: _diff(contract("...bj,...kbih->...kjih", ctx.J,
                                         contract("...ak,...abih->...kbih",
                                                   ctx.J, ctx.curvature.Rup)),
                               ctx.curvature.Rup), degree=2),
)


def check_curvature_commutation(bundle: StructureBundle) -> list:
    return evaluate(bundle, CURVATURE_COMMUTATION)


def _ricci_j(ctx) -> np.ndarray:
    """S(X, J Y)."""
    return contract("...ia,...aj->...ij", ctx.curvature.ricci, ctx.J)


def _trace_rj(ctx) -> np.ndarray:
    """TR_ij = tr(R(X, J Y) o J), which is minus the trace with -J."""
    return contract("...ib,...bj->...ij",
                     contract("...ibtm,...tm->...ib", ctx.curvature.Rup, ctx.J), ctx.J)


# The report-only rows below mix degrees in c, so each declares degree 0 and forms its
# metallic numbers itself: a term of degree k in J_M is (3q/2)^(k/2) times its value on J.


def _ricci_structure_pair(ctx) -> tuple:
    q, S = ctx.q, ctx.curvature.ricci
    SJJ = 1.5 * q * contract("...ib,...bj->...ij",
                             contract("...ab,...ai->...ib", S, ctx.J), ctx.J)
    c1 = 9 * q * q / 4
    return SJJ - c1 * S, SJJ, c1 * S


def _ricci_trace_stated(ctx) -> tuple:
    q, S = ctx.q, ctx.curvature.ricci
    TR = _trace_rj(ctx)  # (2/3q) tr(R(X, J_M Y) o J_M)
    return (1 + 1.5 * q) * S - TR, (1 + 1.5 * q) * S, TR


def _ricci_trace_derived(ctx) -> tuple:
    q, S = ctx.q, ctx.curvature.ricci
    TR = _trace_rj(ctx)
    return S - TR - (1.5 * q) ** 1.5 * _ricci_j(ctx), S, TR  # (3q/2) S(X, J_M Y)


# Ricci contractions of the parallel-structure identities, report-only. The classical
# statements of both contractions rely on substituting the frame e_i -> J_M e_i inside a
# trace without the (3q/2) normalization, so they close only where 3q/2 = 1, at q = 2/3.
# The derivation-level variant of the trace identity closes at no q on a curved bundle
# (relative residual 0.5 at q = 2/3 and 0.3 and 1.69 at q = 1.5 on s2). Three residuals
# are reported and none is asserted.
_STATED_NOTE = "report-only: the stated coefficients close only at q = 2/3"
RICCI_PAIR = (
    Identity("ricci-structure-pair(stated)", not_kahler, "d2", _ricci_structure_pair,
             asserted=False, note=_STATED_NOTE, degree=0),
    Identity("ricci-trace-form(stated)", not_kahler, "d2", _ricci_trace_stated,
             asserted=False, note=_STATED_NOTE, degree=0),
    Identity("ricci-trace-form(derived)", not_kahler, "d2", _ricci_trace_derived,
             asserted=False, note="report-only: the derived coefficients close at no q",
             degree=0),
)


def _ricci_cycle(ctx) -> tuple:
    """The cycle's residual, its left side, the right side's first term and its last term
    (nabla_{J_M Y} S)(X, J_M Z), all indexed [z, x, y]."""
    q, covS, J = ctx.q, ctx.cov_ricci, ctx.J
    a = 1 + 1.5 * q
    lhs = a * covS
    rhs_common = a * np.einsum("...xzy->...zxy", covS)
    # (nabla_{J_M Y} S)(X, J_M Z) = (3q/2) J[a, y] covS[a, x, b] J[b, z]
    term = 1.5 * q * contract("...yxb,...bz->...zxy",
                              contract("...ay,...axb->...yxb", J, covS), J)
    return lhs - (rhs_common - (2.0 / (3 * q) + 1) * term), lhs, rhs_common, term


# Second-Bianchi-style cycle for nabla S on a metallic Kahler bundle:
#
#     (1+3q/2)(nabla_Z S)(X,Y)
#   = (1+3q/2)(nabla_X S)(Z,Y) + (2/3q + 1)(nabla_{J_M Y} S)(X, JMhat Z),
#
# with JMhat = -J_M. The statement and the derivation-level variant differ only in a term
# proportional to p, which is 0, so both rows name one function and `evaluate` forms its
# arrays once. Third derivatives of g: loosest tier, report-only; they read the cached
# nabla S of the stacked context.
_CYCLE_NOTE = "report-only: at p = 0 statement and derivation are one cycle"
RICCI_CYCLE = (
    Identity("ricci-derivative-cycle(stated)", not_kahler, "d3", _ricci_cycle,
             asserted=False, note=_CYCLE_NOTE, degree=0),
    Identity("ricci-derivative-cycle(derived)", not_kahler, "d3", _ricci_cycle,
             asserted=False, note=_CYCLE_NOTE, degree=0),
)


def check_ricci_derivative_cycle(bundle: StructureBundle) -> list:
    return evaluate(bundle, RICCI_CYCLE)


# --- star curvature and the nearly-tier identities --------------------------------


# F under the structure on a nearly metallic Kahler bundle: F(J X, Y, J Z) = F(Y,X,Z) and
# F(J X, J Y, Z) = F(Y,X,Z), that is F(J_M X, Y, J_M Z) = (3q/2) F(Y,X,Z) and
# F(J_M X, J_M Y, Z) = (3q/2) F(Y,X,Z) in the metallic form.
F_NEARLY = (
    Identity("f-nearly-outer-rescale", not_nearly, "d1",
             lambda ctx: _diff(contract("...ijc,...ck->...ijk",
                                         contract("...ajc,...ai->...ijc", ctx.F, ctx.J), ctx.J),
                               np.einsum("...jik->...ijk", ctx.F)), degree=3),
    Identity("f-nearly-double-structure", not_nearly, "d1",
             lambda ctx: _diff(contract("...ibk,...bj->...ijk",
                                         contract("...abk,...ai->...ibk", ctx.F, ctx.J), ctx.J),
                               np.einsum("...jik->...ijk", ctx.F)), degree=3),
)

# Two independent pipelines for N on a nearly metallic Kahler bundle,
#
#     N(X, Y) = -4 J (nabla_X J) Y:
#
# the bracket formula (plain partials) against the covariant-derivative form, plus the
# coordinate trace (nabla_i J)_j^i = 0.
NEARLY_NIJENHUIS = (
    Identity("nijenhuis-covderiv-form", not_nearly, "d1",
             lambda ctx: _diff(ctx.N, -4.0 * contract("...ht,...itj->...ijh", ctx.J, ctx.covJ)),
             degree=2),
    Identity("structure-divergence-free", not_nearly, "d1",
             lambda ctx: (np.einsum("...iij->...j", ctx.covJ), ctx.covJ), degree=1),
)


def _star_contraction(ctx) -> tuple:
    return _diff(ctx.H, contract("...jt,...ti->...ji", ctx.Sstar, ctx.J))


# H antisymmetry (curvature tier), which needs skew compatibility, and the conjugate
# contraction S*_jt (-J)_i^t = -H_ji, that is S*_jt J_i^t = H_ji, or
# S*_jt (J_M)_i^t = (3/2) q H_ji in the metallic form (algebraic tier), which follows from
# J (-J) = I, the polynomial identity alone.
STAR_PACK = (
    Identity("h-antisymmetry", not_hermitian, "d2", lambda ctx: _skew_part(ctx.H), degree=1),
    Identity("star-conjugate-contraction", not_metallic, "alg", _star_contraction, degree=3),
)


def _divergence_omega(ctx) -> np.ndarray:
    """nabla^m nabla_j w_im from the second covariant derivative of w."""
    return contract("...tjim,...mt->...ji", ctx.covcov_omega, ctx.ginv)


def check_divergence_ricci_chain(bundle: StructureBundle) -> IdentityResult:
    """Contracted commutation chain on a nearly metallic Kahler bundle:

        nabla^m nabla_j w_im  =  S_jt J_i^t - S*_jt J_i^t,

    which is nabla^m nabla_j (w_M)_im = S_jt (J_M)_i^t - (2/3q) (S*_M)_jt (J_M)_i^t
    divided by c, left side from the order-2 jet of w, right side from
    curvature contractions. The observed norm of the left side itself, in
    the metallic form, is reported (its vanishing is equivalent to
    S J = S* J) but not asserted.
    """
    kept = {}  # the left side of the row's last evaluation, for the note

    def residual(ctx):
        kept["lhs"] = lhs = _divergence_omega(ctx)
        return _diff(lhs, contract("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J)
                     - contract("...jt,...ti->...ji", ctx.Sstar, ctx.J))

    chain = evaluate(bundle, [Identity("divergence-ricci-chain", not_nearly, "d2", residual,
                                       degree=1)])[0]
    if chain.skipped:
        return chain
    obs = bundle.params.coeff * largest_abs(bundle.sample_points,
                                            "observed |nabla^m nabla_j w_im|", kept["lhs"])
    return replace(chain,
                   note=f"observed |nabla^m nabla_j w_im| = {obs:.6g} (reported, not asserted)")


# S_ti J_j^t = -S_jt J_i^t on a nearly metallic Kahler bundle.
RICCI_HYPERBOLIC = (Identity(
    "ricci-hyperbolic", not_nearly, "d2",
    lambda ctx: _skew_part(contract("...jt,...ti->...ji", ctx.curvature.ricci, ctx.J)),
    degree=1),)


def _ricci_star_hyperbolic(ctx) -> tuple:
    A = contract("...jm,...mi->...ji", ctx.Sstar, ctx.J)
    B = -contract("...mi,...mj->...ji", ctx.Sstar, ctx.J)
    return A - B, A


# S*_jm (-J)_i^m = -S*_mi (-J)_j^m on a nearly metallic Kahler bundle, with J in place of
# -J on both sides, plus the intermediate cancellation of the two curvature contractions
# behind it.
RICCI_STAR_HYPERBOLIC = (
    Identity("ricci-star-hyperbolic", not_nearly, "d2", _ricci_star_hyperbolic, degree=3),
    Identity("star-contraction-cancel", not_nearly, "d2",
             lambda ctx: _skew_part(contract("...jm,...mi->...ji", ctx.Sstar, ctx.J)),
             degree=3),
)


def _scalar_star_relation(ctx) -> tuple:
    lhs = ctx.scalar_star
    rhs = ctx.curvature.scalar - ctx.norm_covJ_sq
    return lhs - rhs, lhs, ctx.curvature.scalar, ctx.norm_covJ_sq


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

        S*_c = S_c - |nabla J|^2,

    which is S*_c = (3/2) q S_c - |nabla J_M|^2 divided by c^2, left and
    right sides from independent pipelines. The mixed trace S_jt w^jt pairs
    a symmetric with an antisymmetric tensor and must vanish on any bundle;
    it is asserted as a sub-check whose raw residual, that of the metallic
    w_M = c w, must stay below a fixed 1e-10.
    """
    relation = evaluate(bundle, [Identity("scalar-star-relation", not_nearly, "d3",
                                          _scalar_star_relation, degree=2)])[0]
    id_ = "ricci-omega-trace-zero"
    if relation.skipped:
        return [relation, _skip(id_, relation.note)]
    points, c = bundle.sample_points, bundle.params.coeff
    raw, trace, ricci_sym = _ricci_omega_trace(bundle.context(points))
    raw_obs = c * largest_abs(points, "raw (unsymmetrized) trace S_jt w^jt", raw)
    return [relation, _result(id_, (c * trace, ricci_sym), points, 1e-10, absolute=True,
                              note=f"raw (unsymmetrized) trace observation: {raw_obs:.3g}")]


# --- suites ----------------------------------------------------------------------


def suite_metallic(bundle: StructureBundle) -> list:
    return [
        *evaluate(bundle, COVDERIV + F_HERMITIAN + F_NIJENHUIS_BALANCE + EXTERIOR_CROSS),
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
    return connections.connection_identity_results(bundle)


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

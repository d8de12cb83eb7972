"""Shift-stable representations of perturbed-Toeplitz kernels.

Each supported symbol class admits a representation of the kernel as
f = sum_j A_j k_j with the coefficient tuple (k_0, ..., k_m) ranging over
the nullspace of a small family of linear clauses.  This module builds the
slot maps A_j and the clause family for every branch and verifies both
directions against the computed kernel on the clause nullspace T, taken
at a column cap per direction: the image of all of T must lie in the
kernel and T must be S*-invariant, and every kernel basis vector must be
the image of a tuple in T, found by one least-squares solve on T.  A tuple
is always one stacked column, slot blocks one above the other.

Every slot map and clause block is a Toeplitz operator held as its circle
symbol: A_j is multiplication by an analytic function, and a clause block
is a row band of T_conj(a) T_f = T_{conj(a) f} (Brown & Halmos, J. reine
angew. Math. 213, 1964).  Blocks are built only at the column cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import BlaschkeProduct, blaschke_expand
from .defects import DIVISIBILITY_TOL, Instance, model_space
from .errors import (
    DegenerateBranchError,
    HeadroomError,
    HypothesisViolationError,
    InputError,
)
from .operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    Symbol,
    ZeroSymbol,
    toeplitz_block,
)
from .series import (
    AnalyticSeries,
    LaurentSeries,
    backshift,
    conj_on_circle,
    embed,
    inner_product,
    laurent_shift,
    multiply,
    multiply_analytic,
    riesz_project,
    shift,
)
from .subspaces import (
    Subspace,
    complement_within,
    contains,
    direct_sum,
    null_space,
    principal_angles,
    project,
    span,
)

# Scalar branch decisions (a mean or pairing counting as zero).
DEGENERATE_BRANCH_TOL = 1e-10
# Below this the branch scalars are considered genuinely ill-posed.
DENOMINATOR_FLOOR = 1e-14
NORM_IDENTITY_TOL = 1e-10
INNER_MODULUS_TOL = 1e-8
# Kernel-membership residual and clause violation counting as zero.
MEMBERSHIP_TOL = 1e-8
CONSTRAINT_TOL = 1e-8
# Largest principal angle between the representation image and the kernel.
ANGLE_AUDIT_TOL = 1e-6
# Rows of every moment clause: <k_j, z^n v_j> summed over slots, n < MOMENT_DEPTH.
MOMENT_DEPTH = 48
_PAD_TOL = 1e-12


def _abs_squared(f: AnalyticSeries) -> LaurentSeries:
    return multiply(embed(f), conj_on_circle(f))


def is_numerically_inner(f: AnalyticSeries) -> bool:
    """Whether |f| = 1 on the 4N-point circle grid, up to INNER_MODULUS_TOL.

    One FFT evaluates f on the grid, visiting its points in conjugate order.
    """
    values = np.fft.fft(f.coeffs, 4 * f.truncation)
    return bool(np.max(np.abs(np.abs(values) - 1.0)) < INNER_MODULUS_TOL)


@dataclass(frozen=True)
class LinearClause:
    """One linear condition on the coefficient tuple.

    symbols holds one circle symbol per slot; None marks a slot the clause
    does not touch.  The clause reads: sum_j (T_{symbols[j]} k_j)[rows] = 0.
    """

    label: str
    rows: range
    symbols: tuple


def ip_family_clause(
    vectors: Sequence[AnalyticSeries | None], depth: int
) -> LinearClause:
    """Rows <k_j, z^n v_j> summed over slots, for n = 0 .. depth-1: the
    first depth rows of T_conj(v_j), all of them zero from N on."""
    symbols = tuple(
        None if v is None or v.norm() == 0.0 else conj_on_circle(v) for v in vectors
    )
    truncation = next(v.truncation for v in vectors if v is not None)
    return LinearClause("moment-family", range(min(depth, truncation)), symbols)


def model_membership_clause(
    theta_exp: AnalyticSeries, factors: Sequence[AnalyticSeries | None]
) -> LinearClause:
    """sum_j factor_j * k_j must lie in the kernel of T_conj(theta), whose
    slot blocks T_conj(theta) T_f are T_{conj(theta) f}."""
    conj_theta = conj_on_circle(theta_exp)
    symbols = tuple(
        None if f is None else multiply(conj_theta, embed(f)) for f in factors
    )
    return LinearClause("model-space", range(theta_exp.truncation), symbols)


def constant_value_clause(factors: Sequence[AnalyticSeries | None]) -> LinearClause:
    """sum_j factor_j * k_j must be a constant function: rows 1 .. N-1 of T_f."""
    symbols = tuple(None if f is None else embed(f) for f in factors)
    truncation = next(f.truncation for f in factors if f is not None)
    return LinearClause("constant-value", range(1, truncation), symbols)


def zero_slot_clause(slot_count: int, slot: int, truncation: int) -> LinearClause:
    symbols = [None] * slot_count
    symbols[slot] = embed(AnalyticSeries.one(truncation))
    return LinearClause("zero-slot", range(truncation), tuple(symbols))


@dataclass(frozen=True)
class CgpFrame:
    """Slot maps, clause family, and invariants for one kernel representation.

    slot_maps holds the circle symbol of each A_j, an analytic function.
    """

    case_tag: str
    branch: str
    truncation: int
    slot_maps: tuple
    clauses: tuple
    f0: AnalyticSeries
    constraint_vectors: tuple = ()
    isometric: bool = False
    expected_trivial: bool = False
    notes: tuple = ()

    @property
    def slot_count(self) -> int:
        return len(self.slot_maps)

    @property
    def degree_pad(self) -> int:
        """Highest degree any slot map adds to a constant coefficient."""
        pad = 0
        for g in self.slot_maps:
            nz = np.nonzero(np.abs(g.analytic_part()) > _PAD_TOL)[0]
            if nz.size:
                pad = max(pad, int(nz[-1]))
        return pad


def projection_of_one(m: Subspace) -> AnalyticSeries:
    return project(m, AnalyticSeries.one(m.truncation))


def w_theta(theta_v: AnalyticSeries, u_theta: AnalyticSeries) -> complex:
    """1 + <theta v, u_theta>, the split-branch selector, from the product theta v."""
    return 1.0 + complex(inner_product(theta_v, u_theta))


def rho_theta(
    theta_exp: AnalyticSeries,
    v: AnalyticSeries,
    u1: AnalyticSeries,
    wt: complex,
) -> complex:
    den = u1.norm() ** 2 + abs(wt) ** 2 * v.norm() ** 2
    if den < DENOMINATOR_FLOOR:
        raise DegenerateBranchError("projection coefficient denominator vanishes")
    num = np.conj(u1.coeffs[0]) + np.conj(theta_exp.coeffs[0] * v.coeffs[0]) * wt
    return complex(num / den)


def _single_term(pert: PerturbationSpec) -> tuple[AnalyticSeries, AnalyticSeries]:
    if pert.rank_bound != 1:
        raise HypothesisViolationError(
            "kernel representation needs a rank-one perturbation"
        )
    u, v = pert.terms[0]
    if backshift(v).norm() <= 1e-14 * max(1.0, v.norm()):
        raise HypothesisViolationError("kernel representation needs a nonconstant v")
    return u, v


def _trivial_frame(case_tag: str, truncation: int, reason: str) -> CgpFrame:
    return CgpFrame(
        case_tag=case_tag,
        branch="trivial-kernel",
        truncation=truncation,
        slot_maps=(),
        clauses=(),
        f0=AnalyticSeries.zero(truncation),
        expected_trivial=True,
        notes=(reason,),
    )


def _zero_symbol_frame(pert: PerturbationSpec, truncation: int) -> CgpFrame:
    u, _ = _single_term(pert)
    one = AnalyticSeries.one(truncation)
    f0 = one - np.conj(u.coeffs[0]) * u
    v0 = riesz_project(embed(u) - _abs_squared(u) * u.coeffs[0])
    v1 = riesz_project(laurent_shift(_abs_squared(u), -1))
    a_shift_u = embed(shift(u))
    if f0.norm() <= DEGENERATE_BRANCH_TOL:
        return CgpFrame(
            case_tag="hyperplane",
            branch="vanishing-projection",
            truncation=truncation,
            slot_maps=(a_shift_u,),
            clauses=(ip_family_clause([v1], MOMENT_DEPTH),),
            f0=AnalyticSeries.zero(truncation),
            constraint_vectors=(("v1", v1),),
            isometric=is_numerically_inner(u),
        )
    return CgpFrame(
        case_tag="hyperplane",
        branch="full",
        truncation=truncation,
        slot_maps=(embed(f0), a_shift_u),
        clauses=(ip_family_clause([v0, v1], MOMENT_DEPTH),),
        f0=f0,
        constraint_vectors=(("v0", v0), ("v1", v1)),
    )


def _kernel_line_frame(
    case_tag: str,
    q: AnalyticSeries,
    base: AnalyticSeries,
    degeneracy: complex,
    truncation: int,
) -> CgpFrame:
    """Shared inner/invertible construction: the kernel lives on the q line."""
    if abs(degeneracy) > DEGENERATE_BRANCH_TOL:
        return _trivial_frame(
            case_tag, truncation, "pairing 1 + <q, u> does not vanish"
        )
    one = AnalyticSeries.one(truncation)
    a0 = q.coeffs[0]
    q_s = backshift(q - a0 * base)
    nqs = q_s.norm()
    if abs(a0) > DEGENERATE_BRANCH_TOL:
        f0 = (np.conj(a0) / q.norm() ** 2) * q
        if nqs > 0.0:
            a1 = embed(shift(q_s * (1.0 / nqs)))
        else:
            a1 = LaurentSeries.zero(truncation)
        return CgpFrame(
            case_tag=case_tag,
            branch="nonvanishing-mean",
            truncation=truncation,
            slot_maps=(embed(f0), a1),
            clauses=(
                constant_value_clause([one, None]),
                zero_slot_clause(2, 1, truncation),
            ),
            f0=f0,
            isometric=abs(f0.norm() - 1.0) < DEGENERATE_BRANCH_TOL,
        )
    return CgpFrame(
        case_tag=case_tag,
        branch="vanishing-mean",
        truncation=truncation,
        slot_maps=(embed(q * (1.0 / nqs)),),
        clauses=(constant_value_clause([one]),),
        f0=AnalyticSeries.zero(truncation),
        isometric=abs(q.norm() / nqs - 1.0) < DEGENERATE_BRANCH_TOL,
    )


def _inner_frame(inst: Instance) -> CgpFrame:
    _, v = _single_term(inst.perturbation)
    truncation = inst.truncation
    q = AnalyticSeries(inst.corrected_v[:, 0], truncation)
    rebuilt = multiply_analytic(inst.theta, q)
    if (rebuilt - v).norm() > DEGENERATE_BRANCH_TOL * max(1.0, v.norm()):
        return _trivial_frame("inner-line", truncation, "inner factor does not divide v")
    c = 1.0 + complex(inst.pairing[0, 0])
    return _kernel_line_frame(
        "inner-line", q, AnalyticSeries.one(truncation), c, truncation
    )


def _invertible_frame(inst: Instance) -> CgpFrame:
    _single_term(inst.perturbation)  # rank one with a nonconstant v, or raise
    q = AnalyticSeries(inst.corrected_v[:, 0], inst.truncation)
    c = 1.0 + complex(inst.pairing[0, 0])
    return _kernel_line_frame("invertible-line", q, inst.f1_inv, c, inst.truncation)


def _conj_inner_frame(inst: Instance) -> CgpFrame:
    u, v = _single_term(inst.perturbation)
    truncation = inst.truncation
    one = AnalyticSeries.one(truncation)
    theta_exp = inst.theta
    theta0 = theta_exp.coeffs[0]
    u1 = inst.model_parts[0]
    theta_v = AnalyticSeries(inst.corrected_v[:, 0], truncation)
    v_at_zero = v.coeffs[0]
    nsv = backshift(v).norm()
    p_model = one - np.conj(theta0) * theta_exp
    divisible = u1.norm() <= DIVISIBILITY_TOL * u.norm()
    if divisible and abs(1.0 + complex(inst.pairing[0, 0])) > DEGENERATE_BRANCH_TOL:
        return CgpFrame(
            case_tag="conj-inner",
            branch="model-space",
            truncation=truncation,
            slot_maps=(embed(p_model),),
            clauses=(model_membership_clause(theta_exp, [p_model]),),
            f0=p_model,
        )
    # Shared by the extended, split and orthogonal-split branches: the
    # theta v coefficient of the projection of 1, the theta (v - v(0)) slot
    # and the factors of its model-membership and constant-value clauses.
    c_tv = np.conj(theta0 * v_at_zero) / v.norm() ** 2
    p_ambient = p_model + c_tv * theta_v
    a1 = embed(multiply_analytic(theta_exp, v - v_at_zero * one) * (1.0 / nsv))
    model_factors = [p_model, theta_exp * (-v_at_zero / nsv)]
    value_factors = [one * c_tv, one * (1.0 / nsv)]
    if divisible:
        return CgpFrame(
            case_tag="conj-inner",
            branch="extended-model-space",
            truncation=truncation,
            slot_maps=(embed(p_ambient), a1),
            clauses=(
                model_membership_clause(theta_exp, model_factors),
                constant_value_clause(value_factors),
            ),
            f0=p_ambient,
        )
    wt = w_theta(theta_v, u - u1)
    nu1 = u1.norm()
    e2 = u1 * (1.0 / nu1)
    a2 = embed(shift(e2))
    v2 = riesz_project(laurent_shift(_abs_squared(u1), -1)) * (1.0 / nu1)
    membership = model_membership_clause(theta_exp, model_factors + [None])
    if abs(wt) > DEGENERATE_BRANCH_TOL:
        if abs(v.norm() - 1.0) > DEGENERATE_BRANCH_TOL:
            raise InputError(
                "split-branch representation is stated for a unit-norm v; "
                "rescale the perturbation before building the frame"
            )
        rho = rho_theta(theta_exp, v, u1, wt)
        removed = u1 + np.conj(wt) * theta_v
        f0 = p_ambient - rho * removed
        v0 = riesz_project(
            embed(removed)
            - embed(v) * (theta0 * np.conj(wt))
            + _abs_squared(v) * (theta0 * v_at_zero * np.conj(wt) / v.norm() ** 2)
            - _abs_squared(removed) * np.conj(rho)
        )
        v1 = riesz_project(
            multiply(embed(v), conj_on_circle(v - v_at_zero * one))
        ) * (np.conj(wt) / nsv)
        return CgpFrame(
            case_tag="conj-inner",
            branch="split",
            truncation=truncation,
            slot_maps=(embed(f0), a1, a2),
            clauses=(
                membership,
                constant_value_clause(
                    value_factors
                    + [AnalyticSeries.monomial(1, truncation, -np.conj(wt) / nu1)]
                ),
                ip_family_clause([v0, v1, v2], MOMENT_DEPTH),
            ),
            f0=f0,
            constraint_vectors=(("v0", v0), ("v1", v1), ("v2", v2)),
        )
    f0 = (
        p_model
        - (np.conj(u1.coeffs[0]) / nu1**2) * u1
        + c_tv * theta_v
    )
    v0 = riesz_project(embed(u1) - _abs_squared(u1) * (u1.coeffs[0] / nu1**2))
    notes = ()
    if u1.degree(DEGENERATE_BRANCH_TOL) < 1:
        notes = ("constant model component of u leaves the final slot unconstrained",)
    return CgpFrame(
        case_tag="conj-inner",
        branch="orthogonal-split",
        truncation=truncation,
        slot_maps=(embed(f0), a1, a2),
        clauses=(
            membership,
            constant_value_clause(value_factors + [None]),
            ip_family_clause([v0, None, v2], MOMENT_DEPTH),
        ),
        f0=f0,
        constraint_vectors=(("v0", v0), ("v2", v2)),
        notes=notes,
    )


def build_cgp_frame(sym: Symbol, pert: PerturbationSpec, truncation: int) -> CgpFrame:
    """Representation frame for the kernel of the perturbed operator."""
    return _instance_frame(Instance(sym, pert, truncation))


def _instance_frame(inst: Instance) -> CgpFrame:
    sym = inst.symbol
    if isinstance(sym, ZeroSymbol):
        return _zero_symbol_frame(inst.perturbation, inst.truncation)
    if isinstance(sym, InnerSymbol):
        return _inner_frame(inst)
    if isinstance(sym, InvertibleProductSymbol):
        return _invertible_frame(inst)
    if isinstance(sym, ConjInnerSymbol):
        return _conj_inner_frame(inst)
    raise InputError(
        f"no kernel representation for symbol class {type(sym).__name__!r}"
    )


def _monomial_split_setup(power: int, pert: PerturbationSpec, truncation: int):
    """u, v resized, theta = z^power, the split selector and theta v."""
    u, v = _single_term(pert)
    u, v = u.resized(truncation), v.resized(truncation)
    if power < 1:
        raise InputError("monomial instance needs power >= 1")
    theta_exp = AnalyticSeries.monomial(power, truncation)
    u2 = AnalyticSeries(
        np.concatenate([np.zeros(power, dtype=np.complex128), u.coeffs[power:]]),
        truncation,
    )
    theta_v = multiply_analytic(theta_exp, v)
    return u, v, theta_exp, w_theta(theta_v, u2), theta_v


def build_monomial_split_frame(
    power: int, pert: PerturbationSpec, truncation: int
) -> CgpFrame:
    """The worked monomial instance of the split branch, built verbatim.

    Expects u = z^(power-1)/4 + u2 with u2 supported on degrees >= power and
    a unit-norm v; the constant slot is multiplied by 1 rather than by the
    projection vector, so the frame is non-orthogonal but still exact.

    The paper's third slot map is
    M(S z^(power-1)) + M(S 4 conj(w) theta v) - 4 conj(w) M(S theta v),
    with S the shift; its last two terms cancel, so it is built as the first.
    """
    u, v, theta_exp, wt, theta_v = _monomial_split_setup(power, pert, truncation)
    head = np.zeros(power, dtype=np.complex128)
    head[-1] = 0.25
    if np.max(np.abs(u.coeffs[:power] - head)) > 1e-12:
        raise InputError("monomial instance expects u to start with z^(power-1)/4")
    if abs(v.norm() - 1.0) > DEGENERATE_BRANCH_TOL:
        raise InputError("monomial instance expects a unit-norm v")
    if abs(wt) <= DEGENERATE_BRANCH_TOL:
        raise InputError("monomial instance needs a nonzero split selector")
    one = AnalyticSeries.one(truncation)
    v_at_zero = v.coeffs[0]
    nsv = backshift(v).norm()
    a1 = embed(multiply_analytic(theta_exp, v - v_at_zero * one) * (1.0 / nsv))
    a2 = embed(shift(AnalyticSeries.monomial(power - 1, truncation)))
    v0 = AnalyticSeries.monomial(power - 1, truncation, 0.25) + np.conj(wt) * theta_v
    v1 = riesz_project(
        multiply(embed(v), conj_on_circle(v - v_at_zero * one))
    ) * (np.conj(wt) / nsv)
    return CgpFrame(
        case_tag="monomial-split",
        branch="split",
        truncation=truncation,
        slot_maps=(embed(one), a1, a2),
        clauses=(
            model_membership_clause(
                theta_exp, [one, theta_exp * (-v_at_zero / nsv), None]
            ),
            constant_value_clause(
                [None, one * (1.0 / nsv), AnalyticSeries.monomial(1, truncation, -4.0 * np.conj(wt))]
            ),
            ip_family_clause([v0, v1, None], MOMENT_DEPTH),
        ),
        f0=AnalyticSeries.zero(truncation),
        constraint_vectors=(("v0", v0), ("v1", v1)),
        notes=("constant slot multiplied by 1 in place of the projection vector",),
    )


def monomial_split_expected_kernel(
    power: int, pert: PerturbationSpec, truncation: int
) -> Subspace:
    """span{1, .., z^(power-1)} + span{z^power v} minus the removed direction."""
    _, _, _, wt, theta_v = _monomial_split_setup(power, pert, truncation)
    polys = span(
        [AnalyticSeries.monomial(j, truncation) for j in range(power)], truncation
    )
    ambient = direct_sum(polys, span([theta_v], truncation))
    removed = AnalyticSeries.monomial(power - 1, truncation, 0.25) + np.conj(wt) * theta_v
    return complement_within(ambient, span([removed], truncation))


def _stack_clauses(frame: CgpFrame, cap: int) -> np.ndarray:
    """Every clause's row band of its slot blocks, each block cap columns wide."""
    blocks = []
    for clause in frame.clauses:
        if all(g is None for g in clause.symbols):
            continue
        rows = clause.rows
        parts = [
            np.zeros((len(rows), cap), dtype=np.complex128)
            if g is None
            else toeplitz_block(g, rows.stop, cap)[rows.start :]
            for g in clause.symbols
        ]
        blocks.append(np.hstack(parts))
    if not blocks:
        return np.zeros((0, frame.slot_count * cap), dtype=np.complex128)
    return np.vstack(blocks)


def _tuple_space(
    frame: CgpFrame, cap: int, rank_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked clauses, an orthonormal basis of their nullspace, and the
    stacked slot map, for tuples supported on coefficients [0, cap).

    The nullspace is the tuple space T of the corollary; the slot map sends
    a stacked tuple to sum_j A_j k_j.
    """
    clauses = _stack_clauses(frame, cap)
    n = frame.truncation
    big = np.hstack([toeplitz_block(g, n, cap) for g in frame.slot_maps])
    return clauses, null_space(clauses, rank_tol)[0], big


def _clause_violation(clauses: np.ndarray, solution: np.ndarray) -> float:
    """|clauses @ solution|_2 over max(1, |solution|_2), in spectral norms."""
    if not clauses.size:
        return 0.0
    worst = np.linalg.norm(clauses @ solution, 2)
    return float(worst / max(1.0, np.linalg.norm(solution, 2)))


def _reverse_fit(
    frame: CgpFrame, targets: np.ndarray, cap: int, rank_tol: float
) -> tuple[np.ndarray, float, float]:
    """Slot tuples for every column of targets, with the fit and violation.

    Every tuple is the least-squares fit within the clause nullspace B:
    solution = B @ lstsq(big @ B, targets), one solve for all columns
    (the null-space method, Golub & Van Loan, Matrix Computations, sec.
    6.2).  An empty nullspace gives zero tuples.  The fit is the spectral
    norm of big @ solution - targets.  The solution is linear in the
    targets, so for an orthonormal frame of targets neither the fit nor
    the violation depends on the frame's basis.
    """
    clauses, basis, big = _tuple_space(frame, cap, rank_tol)
    reduced, *_ = np.linalg.lstsq(big @ basis, targets, rcond=None)
    solution = basis @ reduced
    fit = float(np.linalg.norm(big @ solution - targets, 2))
    return solution, fit, _clause_violation(clauses, solution)


@dataclass(frozen=True)
class RepresentationReport:
    case_tag: str
    branch: str
    kernel_dim: int
    k_dim_sampled: int
    forward_max_residual: float
    backshift_max_violation: float
    reverse_max_residual: float
    constraint_max_violation: float
    f0_membership_residual: float
    norm_identity_max_error: float | None
    subspace_angle_audit: float | None
    passed: bool
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "case_tag": self.case_tag,
            "branch": self.branch,
            "kernel_dim": self.kernel_dim,
            "k_dim_sampled": self.k_dim_sampled,
            "forward_max_residual": self.forward_max_residual,
            "backshift_max_violation": self.backshift_max_violation,
            "reverse_max_residual": self.reverse_max_residual,
            "constraint_max_violation": self.constraint_max_violation,
            "f0_membership_residual": self.f0_membership_residual,
            "norm_identity_max_error": self.norm_identity_max_error,
            "subspace_angle_audit": self.subspace_angle_audit,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def check_corollary(
    inst: Instance, *, frame: CgpFrame | None = None
) -> RepresentationReport:
    """Bidirectional check of the kernel representation on an instance.

    The kernel is the instance's, extracted on the interior window
    truncation // 2, which keeps band-cutoff artifacts out of the comparison.
    frame defaults to the instance's own representation frame; pass one to
    check another representation of the same kernel.  Coefficient tuples
    are stacked slot blocks throughout, one column per tuple.  The forward
    direction reads tuples on [0, min(MOMENT_DEPTH, N - pad)), the reverse
    fit on [0, min(N - pad, max(MOMENT_DEPTH, N // 2))), each with its own
    nullspace SVD; the moment rows stop at MOMENT_DEPTH in both.
    """
    truncation = inst.truncation
    rank_tol = inst.rank_tol
    m = inst.kernel
    if frame is None:
        frame = _instance_frame(inst)
    notes = list(frame.notes)
    if frame.expected_trivial:
        passed = m.dim == 0
        if not passed:
            notes.append(f"kernel has dimension {m.dim}, expected trivial")
        return RepresentationReport(
            case_tag=frame.case_tag,
            branch=frame.branch,
            kernel_dim=m.dim,
            k_dim_sampled=0,
            forward_max_residual=0.0,
            backshift_max_violation=0.0,
            reverse_max_residual=0.0,
            constraint_max_violation=0.0,
            f0_membership_residual=0.0,
            norm_identity_max_error=None,
            subspace_angle_audit=None,
            passed=passed,
            notes=tuple(notes),
        )
    f0_resid = 0.0
    if frame.f0.norm() > 1e-12:
        _, f0_resid = contains(m, frame.f0, MEMBERSHIP_TOL)
    # Forward tuples may use any support that keeps the assembled series
    # in-band; the interior column cap only governs kernel extraction.
    cap_fwd = min(MOMENT_DEPTH, truncation - frame.degree_pad)
    if cap_fwd < 2:
        raise HeadroomError(
            "column cap leaves no room for forward coefficient support"
        )
    cap_rev = min(truncation - frame.degree_pad, max(MOMENT_DEPTH, inst.column_cap))
    # Forward: the image of the whole tuple space must lie in ker R, and the
    # tuple space must be S*-invariant; both are 2-norms over orthonormal
    # frames, so neither depends on the nullspace basis.  The operator
    # residual avoids comparing against a column-capped kernel basis that
    # may omit genuine high-degree directions.
    clauses_fwd, null_fwd, big_fwd = _tuple_space(frame, cap_fwd, rank_tol)
    k_dim = null_fwd.shape[1]
    image = span((big_fwd @ null_fwd).T, truncation, rank_tol)
    forward_max = float(np.linalg.norm(inst.apply(image.frame), 2))
    # S* moves every slot block of a tuple down one coefficient.
    blocks = null_fwd.reshape(frame.slot_count, cap_fwd, k_dim)
    shifted = np.zeros_like(blocks)
    shifted[:, :-1] = blocks[:, 1:]
    backshift_max = float(
        np.linalg.norm(clauses_fwd @ shifted.reshape(null_fwd.shape), 2)
    )
    if k_dim > image.dim:
        notes.append(f"{k_dim - image.dim} tuple directions assemble to zero")
    reverse_max = 0.0
    constraint_max = 0.0
    norm_err: float | None = 0.0 if frame.isometric else None
    if m.dim:
        solution, reverse_max, constraint_max = _reverse_fit(
            frame, m.frame, cap_rev, rank_tol
        )
        if frame.isometric:
            # sum_j <k_j, k'_j> is the inner product of the stacked tuples,
            # so their Gram matrix must be the kernel frame's.
            gram_gap = solution.conj().T @ solution - m.frame.conj().T @ m.frame
            norm_err = float(np.linalg.norm(gram_gap, 2))
    audit: float | None = None
    if image.dim and m.dim:
        if image.dim == m.dim:
            audit = float(principal_angles(image, m)[-1])
        else:
            notes.append(
                f"representation image spans {image.dim} of {m.dim} "
                "kernel directions"
            )
    passed = (
        forward_max < MEMBERSHIP_TOL
        and reverse_max < MEMBERSHIP_TOL
        and constraint_max < CONSTRAINT_TOL
        and backshift_max < CONSTRAINT_TOL
        and f0_resid < MEMBERSHIP_TOL
        and (norm_err is None or norm_err < NORM_IDENTITY_TOL)
        and (audit is None or audit < ANGLE_AUDIT_TOL)
    )
    return RepresentationReport(
        case_tag=frame.case_tag,
        branch=frame.branch,
        kernel_dim=m.dim,
        k_dim_sampled=k_dim,
        forward_max_residual=forward_max,
        backshift_max_violation=backshift_max,
        reverse_max_residual=reverse_max,
        constraint_max_violation=constraint_max,
        f0_membership_residual=float(f0_resid),
        norm_identity_max_error=None if norm_err is None else float(norm_err),
        subspace_angle_audit=audit,
        passed=passed,
        notes=tuple(notes),
    )


def verify_corollary(
    sym: Symbol,
    pert: PerturbationSpec,
    truncation: int,
    *,
    frame: CgpFrame | None = None,
) -> RepresentationReport:
    """check_corollary on a fresh instance built from raw operator data."""
    return check_corollary(Instance(sym, pert, truncation), frame=frame)


def remark_projection_formula(
    theta: BlaschkeProduct,
    v: AnalyticSeries,
    g: AnalyticSeries,
    mu: complex,
    truncation: int,
) -> AnalyticSeries:
    """Closed form for the projection of 1 after removing one direction.

    The ambient space is the model space plus the theta*v line; the removed
    direction is g + mu*theta*v with g from the model space.
    """
    v, g = v.resized(truncation), g.resized(truncation)
    theta_exp = blaschke_expand(theta, truncation)
    theta0 = theta_exp.coeffs[0]
    one = AnalyticSeries.one(truncation)
    theta_v = multiply_analytic(theta_exp, v)
    removed = g + mu * theta_v
    if removed.norm() < 1e-14:
        raise InputError("removed direction must be nonzero")
    p_model = one - np.conj(theta0) * theta_exp
    p_ambient = p_model + (np.conj(theta0 * v.coeffs[0]) / v.norm() ** 2) * theta_v
    numerator = complex(inner_product(p_model, g)) + np.conj(
        theta0 * v.coeffs[0] * mu
    )
    denominator = g.norm() ** 2 + abs(mu) ** 2 * v.norm() ** 2
    return p_ambient - (numerator / denominator) * removed


def remark_projection_direct(
    theta: BlaschkeProduct,
    v: AnalyticSeries,
    g: AnalyticSeries,
    mu: complex,
    truncation: int,
) -> AnalyticSeries:
    """The same projection computed from explicit orthonormal frames."""
    v, g = v.resized(truncation), g.resized(truncation)
    theta_exp = blaschke_expand(theta, truncation)
    k_theta = model_space(theta, truncation)
    ok, resid = contains(k_theta, g, MEMBERSHIP_TOL)
    if not ok:
        raise InputError(
            f"g must lie in the model space (residual {resid:.2e})"
        )
    theta_v = multiply_analytic(theta_exp, v)
    ambient = direct_sum(k_theta, span([theta_v], truncation))
    removed = span([g + mu * theta_v], truncation)
    m = complement_within(ambient, removed)
    return projection_of_one(m)

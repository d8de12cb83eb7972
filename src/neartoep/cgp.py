"""Shift-stable representations of perturbed-Toeplitz kernels.

Each supported symbol class admits a representation of the kernel as
f = sum_j A_j k_j with the coefficient tuple (k_0, ..., k_m) ranging over
the nullspace of a small family of linear clauses.  This module builds the
slot maps A_j and the clause family for every branch, decomposes kernel
vectors back into coefficient tuples, and verifies both directions against
the computed kernel.
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
    toeplitz_matrix,
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
    DEFAULT_RANK_TOL,
    Subspace,
    _fix_phases,
    _right_svd,
    complement_within,
    contains,
    direct_sum,
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
SAMPLE_CAP = 32
DEFAULT_INNER_TRUNCATION = 48
_PAD_TOL = 1e-12


def mult_matrix(f: AnalyticSeries) -> np.ndarray:
    """Truncated matrix of multiplication by the analytic function f."""
    return toeplitz_matrix(embed(f)).entries


def conj_mult_matrix(f: AnalyticSeries) -> np.ndarray:
    """Truncated matrix of the Toeplitz operator with symbol conj(f)."""
    return toeplitz_matrix(conj_on_circle(f)).entries


def _abs_squared(f: AnalyticSeries) -> LaurentSeries:
    return multiply(embed(f), conj_on_circle(f))


def is_numerically_inner(f: AnalyticSeries) -> bool:
    """Whether |f| = 1 on a circle grid, up to INNER_MODULUS_TOL."""
    grid = 4 * f.truncation
    angles = 2.0 * np.pi * np.arange(grid) / grid
    vand = np.exp(1j * np.outer(angles, np.arange(f.truncation)))
    values = vand @ f.coeffs
    return bool(np.max(np.abs(np.abs(values) - 1.0)) < INNER_MODULUS_TOL)


@dataclass(frozen=True)
class LinearClause:
    """One linear condition on the coefficient tuple.

    mats holds one rows-by-truncation block per slot; None marks a slot the
    clause does not touch.  The clause reads: sum_j mats[j] @ k_j = 0.
    """

    label: str
    mats: tuple

    def __post_init__(self) -> None:
        rows = {m.shape[0] for m in self.mats if m is not None}
        if len(rows) > 1:
            raise InputError(f"clause {self.label!r} mixes row counts {sorted(rows)}")
        for m in self.mats:
            if m is not None:
                m.flags.writeable = False

    @property
    def row_count(self) -> int:
        for m in self.mats:
            if m is not None:
                return int(m.shape[0])
        return 0

    def residual(self, k_vectors: Sequence[np.ndarray]) -> float:
        acc = None
        for mat, k in zip(self.mats, k_vectors):
            if mat is None:
                continue
            term = mat @ k
            acc = term if acc is None else acc + term
        if acc is None:
            return 0.0
        return float(np.max(np.abs(acc)))


def ip_family_clause(
    vectors: Sequence[AnalyticSeries | None], depth: int
) -> LinearClause:
    """Rows <k_j, z^n v_j> summed over slots, for n = 0 .. depth-1."""
    mats = []
    for v in vectors:
        if v is None or v.norm() == 0.0:
            mats.append(None)
            continue
        n = v.truncation
        rows = np.zeros((depth, n), dtype=np.complex128)
        for r in range(min(depth, n)):
            rows[r, r:] = np.conj(v.coeffs[: n - r])
        mats.append(rows)
    return LinearClause("moment-family", tuple(mats))


def model_membership_clause(
    theta_exp: AnalyticSeries, factors: Sequence[AnalyticSeries | None]
) -> LinearClause:
    """sum_j factor_j * k_j must lie in the kernel of the conj-inner operator."""
    tmat = conj_mult_matrix(theta_exp)
    mats = tuple(
        None if f is None else tmat @ mult_matrix(f) for f in factors
    )
    return LinearClause("model-space", mats)


def constant_value_clause(factors: Sequence[AnalyticSeries | None]) -> LinearClause:
    """sum_j factor_j * k_j must be a constant function."""
    mats = tuple(
        None if f is None else mult_matrix(f)[1:, :] for f in factors
    )
    return LinearClause("constant-value", mats)


def zero_slot_clause(slot_count: int, slot: int, truncation: int) -> LinearClause:
    mats = [None] * slot_count
    mats[slot] = np.eye(truncation, dtype=np.complex128)
    return LinearClause("zero-slot", tuple(mats))


@dataclass(frozen=True)
class CgpFrame:
    """Slot maps, clause family, and invariants for one kernel representation."""

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

    def __post_init__(self) -> None:
        for m in self.slot_maps:
            m.flags.writeable = False

    @property
    def slot_count(self) -> int:
        return len(self.slot_maps)

    @property
    def degree_pad(self) -> int:
        """Highest degree any slot map adds to a constant coefficient."""
        pad = 0
        for mat in self.slot_maps:
            nz = np.nonzero(np.abs(mat[:, 0]) > _PAD_TOL)[0]
            if nz.size:
                pad = max(pad, int(nz[-1]))
        return pad


def projection_of_one(m: Subspace) -> AnalyticSeries:
    return project(m, AnalyticSeries.one(m.truncation))


def w_theta(
    theta_exp: AnalyticSeries, v: AnalyticSeries, u_theta: AnalyticSeries
) -> complex:
    """1 + <theta v, u_theta>, the split-branch selector."""
    return 1.0 + complex(inner_product(multiply_analytic(theta_exp, v), u_theta))


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


def _zero_symbol_frame(
    pert: PerturbationSpec, truncation: int, inner_truncation: int
) -> CgpFrame:
    u, _ = _single_term(pert)
    one = AnalyticSeries.one(truncation)
    f0 = one - np.conj(u.coeffs[0]) * u
    v0 = riesz_project(embed(u) - _abs_squared(u) * u.coeffs[0])
    v1 = riesz_project(laurent_shift(_abs_squared(u), -1))
    a_shift_u = mult_matrix(shift(u))
    if f0.norm() <= DEGENERATE_BRANCH_TOL:
        return CgpFrame(
            case_tag="hyperplane",
            branch="vanishing-projection",
            truncation=truncation,
            slot_maps=(a_shift_u,),
            clauses=(ip_family_clause([v1], inner_truncation),),
            f0=AnalyticSeries.zero(truncation),
            constraint_vectors=(("v1", v1),),
            isometric=is_numerically_inner(u),
        )
    return CgpFrame(
        case_tag="hyperplane",
        branch="full",
        truncation=truncation,
        slot_maps=(mult_matrix(f0), a_shift_u),
        clauses=(ip_family_clause([v0, v1], inner_truncation),),
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
            a1 = mult_matrix(shift(q_s * (1.0 / nqs)))
        else:
            a1 = np.zeros((truncation, truncation), dtype=np.complex128)
        return CgpFrame(
            case_tag=case_tag,
            branch="nonvanishing-mean",
            truncation=truncation,
            slot_maps=(mult_matrix(f0), a1),
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
        slot_maps=(mult_matrix(q * (1.0 / nqs)),),
        clauses=(constant_value_clause([one]),),
        f0=AnalyticSeries.zero(truncation),
        isometric=abs(q.norm() / nqs - 1.0) < DEGENERATE_BRANCH_TOL,
    )


def _inner_frame(inst: Instance) -> CgpFrame:
    u, v = _single_term(inst.perturbation)
    truncation = inst.truncation
    theta_exp = inst.theta
    q = riesz_project(multiply(conj_on_circle(theta_exp), embed(v)))
    rebuilt = multiply_analytic(theta_exp, q)
    if (rebuilt - v).norm() > DEGENERATE_BRANCH_TOL * max(1.0, v.norm()):
        return _trivial_frame("inner-line", truncation, "inner factor does not divide v")
    c = 1.0 + complex(inner_product(q, u))
    return _kernel_line_frame(
        "inner-line", q, AnalyticSeries.one(truncation), c, truncation
    )


def _invertible_frame(inst: Instance) -> CgpFrame:
    u, v = _single_term(inst.perturbation)
    t = riesz_project(multiply(conj_on_circle(inst.f2_inv), embed(v)))
    q = multiply_analytic(inst.f1_inv, t)
    c = 1.0 + complex(inner_product(q, u))
    return _kernel_line_frame("invertible-line", q, inst.f1_inv, c, inst.truncation)


def _conj_inner_frame(inst: Instance, inner_truncation: int) -> CgpFrame:
    u, v = _single_term(inst.perturbation)
    truncation = inst.truncation
    one = AnalyticSeries.one(truncation)
    theta_exp = inst.theta
    theta0 = theta_exp.coeffs[0]
    u1 = inst.model_parts[0]
    theta_v = multiply_analytic(theta_exp, v)
    v_at_zero = v.coeffs[0]
    nsv = backshift(v).norm()
    p_model = one - np.conj(theta0) * theta_exp
    divisible = u1.norm() <= DIVISIBILITY_TOL * u.norm()
    if divisible and abs(1.0 + complex(inner_product(theta_v, u))) > DEGENERATE_BRANCH_TOL:
        return CgpFrame(
            case_tag="conj-inner",
            branch="model-space",
            truncation=truncation,
            slot_maps=(mult_matrix(p_model),),
            clauses=(model_membership_clause(theta_exp, [p_model]),),
            f0=p_model,
        )
    # Shared by the extended, split and orthogonal-split branches: the
    # theta v coefficient of the projection of 1, the theta (v - v(0)) slot
    # and the factors of its model-membership and constant-value clauses.
    c_tv = np.conj(theta0 * v_at_zero) / v.norm() ** 2
    p_ambient = p_model + c_tv * theta_v
    a1 = mult_matrix(multiply_analytic(theta_exp, v - v_at_zero * one) * (1.0 / nsv))
    model_factors = [p_model, theta_exp * (-v_at_zero / nsv)]
    value_factors = [one * c_tv, one * (1.0 / nsv)]
    if divisible:
        return CgpFrame(
            case_tag="conj-inner",
            branch="extended-model-space",
            truncation=truncation,
            slot_maps=(mult_matrix(p_ambient), a1),
            clauses=(
                model_membership_clause(theta_exp, model_factors),
                constant_value_clause(value_factors),
            ),
            f0=p_ambient,
        )
    wt = w_theta(theta_exp, v, u - u1)
    nu1 = u1.norm()
    e2 = u1 * (1.0 / nu1)
    a2 = mult_matrix(shift(e2))
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
            slot_maps=(mult_matrix(f0), a1, a2),
            clauses=(
                membership,
                constant_value_clause(
                    value_factors
                    + [AnalyticSeries.monomial(1, truncation, -np.conj(wt) / nu1)]
                ),
                ip_family_clause([v0, v1, v2], inner_truncation),
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
        slot_maps=(mult_matrix(f0), a1, a2),
        clauses=(
            membership,
            constant_value_clause(value_factors + [None]),
            ip_family_clause([v0, None, v2], inner_truncation),
        ),
        f0=f0,
        constraint_vectors=(("v0", v0), ("v2", v2)),
        notes=notes,
    )


def build_cgp_frame(
    sym: Symbol,
    pert: PerturbationSpec,
    truncation: int,
    inner_truncation: int = DEFAULT_INNER_TRUNCATION,
) -> CgpFrame:
    """Representation frame for the kernel of the perturbed operator."""
    return _instance_frame(Instance(sym, pert, truncation), inner_truncation)


def _instance_frame(inst: Instance, inner_truncation: int) -> CgpFrame:
    sym = inst.symbol
    if isinstance(sym, ZeroSymbol):
        return _zero_symbol_frame(inst.perturbation, inst.truncation, inner_truncation)
    if isinstance(sym, InnerSymbol):
        return _inner_frame(inst)
    if isinstance(sym, InvertibleProductSymbol):
        return _invertible_frame(inst)
    if isinstance(sym, ConjInnerSymbol):
        return _conj_inner_frame(inst, inner_truncation)
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
    return u, v, theta_exp, w_theta(theta_exp, v, u2), multiply_analytic(theta_exp, v)


def build_monomial_split_frame(
    power: int,
    pert: PerturbationSpec,
    truncation: int,
    inner_truncation: int = DEFAULT_INNER_TRUNCATION,
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
    a1 = mult_matrix(multiply_analytic(theta_exp, v - v_at_zero * one) * (1.0 / nsv))
    a2 = mult_matrix(shift(AnalyticSeries.monomial(power - 1, truncation)))
    v0 = AnalyticSeries.monomial(power - 1, truncation, 0.25) + np.conj(wt) * theta_v
    v1 = riesz_project(
        multiply(embed(v), conj_on_circle(v - v_at_zero * one))
    ) * (np.conj(wt) / nsv)
    return CgpFrame(
        case_tag="monomial-split",
        branch="split",
        truncation=truncation,
        slot_maps=(np.eye(truncation, dtype=np.complex128), a1, a2),
        clauses=(
            model_membership_clause(
                theta_exp, [one, theta_exp * (-v_at_zero / nsv), None]
            ),
            constant_value_clause(
                [None, one * (1.0 / nsv), AnalyticSeries.monomial(1, truncation, -4.0 * np.conj(wt))]
            ),
            ip_family_clause([v0, v1, None], inner_truncation),
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
    blocks = []
    for clause in frame.clauses:
        rows = clause.row_count
        if rows == 0:
            continue
        parts = [
            np.zeros((rows, cap), dtype=np.complex128) if m is None else m[:, :cap]
            for m in clause.mats
        ]
        blocks.append(np.hstack(parts))
    if not blocks:
        return np.zeros((0, frame.slot_count * cap), dtype=np.complex128)
    return np.vstack(blocks)


def _nullspace(matrix: np.ndarray, rank_tol: float) -> np.ndarray:
    cols = matrix.shape[1]
    if matrix.shape[0] == 0:
        return np.eye(cols, dtype=np.complex128)
    svals, vh = _right_svd(matrix)
    if svals.size == 0 or svals[0] == 0.0:
        return np.eye(cols, dtype=np.complex128)
    rank = int(np.sum(svals > rank_tol * svals[0]))
    basis = vh.conj().T[:, rank:]
    return _fix_phases(basis)


def _split_stacked(k_stacked: np.ndarray, slots: int, cap: int, truncation: int) -> list:
    out = []
    for j in range(slots):
        full = np.zeros(truncation, dtype=np.complex128)
        full[:cap] = k_stacked[j * cap : (j + 1) * cap]
        out.append(full)
    return out


def _assemble(frame: CgpFrame, k_vectors: Sequence[np.ndarray]) -> np.ndarray:
    acc = np.zeros(frame.truncation, dtype=np.complex128)
    for mat, k in zip(frame.slot_maps, k_vectors):
        acc = acc + mat @ k
    return acc


def _constraint_violation(frame: CgpFrame, k_vectors: Sequence[np.ndarray]) -> float:
    scale = max(1.0, float(np.sqrt(sum(np.linalg.norm(k) ** 2 for k in k_vectors))))
    worst = 0.0
    for clause in frame.clauses:
        worst = max(worst, clause.residual(k_vectors) / scale)
    return worst


def k_membership(
    frame: CgpFrame, k_list: Sequence[AnalyticSeries]
) -> tuple[bool, float]:
    """Whether the coefficient tuple satisfies every clause of the frame."""
    if len(k_list) != frame.slot_count:
        raise InputError(
            f"expected {frame.slot_count} coefficient slots, got {len(k_list)}"
        )
    vectors = [k.resized(frame.truncation).coeffs for k in k_list]
    worst = _constraint_violation(frame, vectors)
    return worst < CONSTRAINT_TOL, worst


def cgp_decompose(
    f: AnalyticSeries,
    frame: CgpFrame,
    inner_truncation: int = DEFAULT_INNER_TRUNCATION,
) -> tuple[list, float]:
    """Minimum-norm coefficient tuple with f = sum_j A_j k_j.

    Coefficients are supported below inner_truncation; the support plus the
    slot-map degree pad must fit inside the truncation order.
    """
    if frame.slot_count == 0:
        raise InputError("frame has no slots to decompose against")
    n = frame.truncation
    if inner_truncation + frame.degree_pad > n:
        raise HeadroomError(
            f"coefficient support {inner_truncation} plus multiplier degree "
            f"{frame.degree_pad} exceeds truncation {n}"
        )
    cap = inner_truncation
    big = np.hstack([m[:, :cap] for m in frame.slot_maps])
    solution, fit = _slot_fit(big, f.resized(n).coeffs[:, None])
    k_vectors = _split_stacked(solution[:, 0], frame.slot_count, cap, n)
    return [AnalyticSeries(k, n) for k in k_vectors], float(fit[0])


def _slot_fit(big: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solutions of big @ x = t for every column t of targets.

    Returns the stacked solutions, one column per target, and each column's
    residual norm relative to max(1, |t|).  One lstsq call serves every
    column: the minimum-norm solution of a column does not depend on the
    others (Golub & Van Loan, Matrix Computations, sec. 5.5).
    """
    solution, *_ = np.linalg.lstsq(big, targets, rcond=None)
    return solution, _relative_fit(big, solution, targets)


def _relative_fit(big: np.ndarray, solution: np.ndarray, targets: np.ndarray) -> np.ndarray:
    residual = np.linalg.norm(big @ solution - targets, axis=0)
    return residual / np.maximum(1.0, np.linalg.norm(targets, axis=0))


def _clause_violation(clauses: np.ndarray, solution: np.ndarray) -> np.ndarray:
    """Per column: largest clause residual over max(1, |stacked tuple|)."""
    worst = np.max(np.abs(clauses @ solution), axis=0, initial=0.0)
    return worst / np.maximum(1.0, np.linalg.norm(solution, axis=0))


def _reverse_fit(
    frame: CgpFrame,
    targets: np.ndarray,
    cap: int,
    rank_tol: float,
    constraint_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot tuples for every column of targets, with fits and violations.

    Every column gets the minimum-norm tuple; the columns whose tuple breaks
    a clause by more than constraint_tol are refit together on the clause
    nullspace, when it is not empty.
    """
    big = np.hstack([m[:, :cap] for m in frame.slot_maps])
    clauses = _stack_clauses(frame, cap)
    solution, fit = _slot_fit(big, targets)
    violation = _clause_violation(clauses, solution)
    broken = violation > constraint_tol
    if broken.any():
        null_basis = _nullspace(clauses, rank_tol)
        if null_basis.shape[1]:
            reduced, *_ = np.linalg.lstsq(
                big @ null_basis, targets[:, broken], rcond=None
            )
            stacked = null_basis @ reduced
            solution[:, broken] = stacked
            fit[broken] = _relative_fit(big, stacked, targets[:, broken])
            violation[broken] = _clause_violation(clauses, stacked)
    return solution, fit, violation


@dataclass(frozen=True)
class RepresentationReport:
    case_tag: str
    branch: str
    kernel_dim: int
    k_dim_sampled: int
    forward_samples: int
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
            "forward_samples": self.forward_samples,
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


def verify_corollary(
    sym: Symbol,
    pert: PerturbationSpec,
    truncation: int,
    inner_truncation: int = DEFAULT_INNER_TRUNCATION,
    rank_tol: float = DEFAULT_RANK_TOL,
    membership_tol: float = MEMBERSHIP_TOL,
    constraint_tol: float = CONSTRAINT_TOL,
    seed: int = 0,
    frame: CgpFrame | None = None,
) -> RepresentationReport:
    """Bidirectional check of the kernel representation for one instance.

    The kernel is the instance's, extracted on the interior window
    truncation // 2, which keeps band-cutoff artifacts out of the comparison.
    frame defaults to the instance's own representation frame; pass one to
    check another representation of the same kernel.
    """
    inst = Instance(sym, pert, truncation, rank_tol)
    m = inst.kernel
    if frame is None:
        frame = _instance_frame(inst, inner_truncation)
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
            forward_samples=0,
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
        _, f0_resid = contains(m, frame.f0, membership_tol)
    # Forward tuples may use any support that keeps the assembled series
    # in-band; the interior column cap only governs kernel extraction.
    cap_fwd = min(inner_truncation, truncation - frame.degree_pad)
    if cap_fwd < 2:
        raise HeadroomError(
            "column cap leaves no room for forward coefficient support"
        )
    cap_rev = min(truncation - frame.degree_pad, max(inner_truncation, inst.column_cap))
    null_fwd = _nullspace(_stack_clauses(frame, cap_fwd), rank_tol)
    k_dim = null_fwd.shape[1]
    samples = [null_fwd[:, j] for j in range(min(k_dim, SAMPLE_CAP))]
    if k_dim > 1:
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((k_dim, 4)) + 1j * rng.standard_normal((k_dim, 4))
        mixed = null_fwd @ mix
        for j in range(mixed.shape[1]):
            col = mixed[:, j]
            samples.append(col / np.linalg.norm(col))
    forward_max = 0.0
    backshift_max = 0.0
    zero_images = 0
    image_vectors = []
    for stacked in samples:
        k_vectors = _split_stacked(stacked, frame.slot_count, cap_fwd, truncation)
        f = _assemble(frame, k_vectors)
        fnorm = np.linalg.norm(f)
        if fnorm > 1e-12:
            # Soundness is membership in ker R; the operator residual avoids
            # comparing against a column-capped kernel basis that may omit
            # genuine high-degree directions.
            resid = float(np.linalg.norm(inst.operator.entries @ f) / fnorm)
            forward_max = max(forward_max, resid)
            image_vectors.append(f / fnorm)
        else:
            zero_images += 1
        shifted = [np.concatenate([k[1:], [0.0]]) for k in k_vectors]
        backshift_max = max(backshift_max, _constraint_violation(frame, shifted))
    if zero_images:
        notes.append(f"{zero_images} sampled tuples assemble to zero")
    reverse_max = 0.0
    constraint_max = 0.0
    norm_err: float | None = 0.0 if frame.isometric else None
    if m.dim:
        solution, fit, violation = _reverse_fit(
            frame, m.frame, cap_rev, rank_tol, constraint_tol
        )
        reverse_max = float(np.max(fit))
        constraint_max = float(np.max(violation))
        if frame.isometric:
            # sum_j |k_j|^2 is the squared norm of the stacked tuple.
            target_sq = np.linalg.norm(m.frame, axis=0) ** 2
            tuple_sq = np.linalg.norm(solution, axis=0) ** 2
            norm_err = float(np.max(np.abs(target_sq - tuple_sq)))
    audit: float | None = None
    if image_vectors and k_dim <= SAMPLE_CAP and m.dim > 0:
        image_span = span(
            [AnalyticSeries(vec, truncation) for vec in image_vectors],
            truncation,
            rank_tol,
        )
        if image_span.dim == m.dim:
            audit = float(principal_angles(image_span, m)[-1])
        else:
            notes.append(
                f"representation image spans {image_span.dim} of {m.dim} "
                "kernel directions"
            )
    passed = (
        forward_max < membership_tol
        and reverse_max < membership_tol
        and constraint_max < constraint_tol
        and backshift_max < constraint_tol
        and f0_resid < membership_tol
        and (norm_err is None or norm_err < NORM_IDENTITY_TOL)
        and (audit is None or audit < 1e-6)
    )
    return RepresentationReport(
        case_tag=frame.case_tag,
        branch=frame.branch,
        kernel_dim=m.dim,
        k_dim_sampled=k_dim,
        forward_samples=len(samples),
        forward_max_residual=float(forward_max),
        backshift_max_violation=float(backshift_max),
        reverse_max_residual=float(reverse_max),
        constraint_max_violation=float(constraint_max),
        f0_membership_residual=float(f0_resid),
        norm_identity_max_error=None if norm_err is None else float(norm_err),
        subspace_angle_audit=audit,
        passed=passed,
        notes=tuple(notes),
    )


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

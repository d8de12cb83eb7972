"""Case-specific defect spaces and witnesses for perturbed-Toeplitz kernels.

An Instance holds one operator R = T_g + sum v_i <., u_i> at a truncation
order and builds each object derived from it (kernel, model space, defect
space F, ...) once.  For each supported symbol class this module builds
the predicted defect space F, constructs the witness w that returns
S*h + w to the kernel, and runs the end-to-end check: computed minimal
defect against the predicted bound, residual directions against F, and
the witness contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct, blaschke_expand
from .errors import HypothesisViolationError, InputError
from .operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    OperatorMatrix,
    PerturbationSpec,
    Symbol,
    ZeroSymbol,
    perturbed_matrix,
    symbol_fourier,
    toeplitz_matrix,
)
from .series import (
    AnalyticSeries,
    backshift,
    conj_on_circle,
    embed,
    multiply,
    multiply_analytic,
    riesz_project,
    taylor_invert,
)
from .subspaces import (
    DEFAULT_RANK_TOL,
    DefectReport,
    Subspace,
    kernel_subspace,
    minimal_defect,
    project,
    relative_residuals,
    span,
    vanish_at_zero,
)

# Relative projection-norm threshold deciding whether an inner function
# divides u (projection onto the model space below it counts as zero).
DIVISIBILITY_TOL = 1e-8

WITNESS_KERNEL_TOL = 1e-8

_DEFECT_CASES = (ZeroSymbol, InnerSymbol, InvertibleProductSymbol, ConjInnerSymbol)


def _require_defect_case(sym: Symbol) -> None:
    if not isinstance(sym, _DEFECT_CASES):
        raise InputError(
            f"no defect theorem for symbol class {type(sym).__name__!r}"
        )


def model_space(
    theta: BlaschkeProduct, truncation: int, rank_tol: float = 1e-9
) -> Subspace:
    """Kernel of the conjugate-inner Toeplitz matrix (truncated model space)."""
    sym = conj_on_circle(blaschke_expand(theta, truncation))
    return kernel_subspace(toeplitz_matrix(sym), rank_tol)


def conj_toeplitz_apply(f: AnalyticSeries, h: AnalyticSeries) -> AnalyticSeries:
    """Apply the Toeplitz operator with symbol conj(f) to h."""
    return riesz_project(multiply(conj_on_circle(f), embed(h)))


def lambda_set(k_theta: Subspace, u_list: list[AnalyticSeries]) -> set[int]:
    """1-based indices k with nonzero model-space component of u_k (theta does not divide u_k)."""
    out = set()
    for idx, u in enumerate(u_list, start=1):
        part = project(k_theta, u)
        if part.norm() > DIVISIBILITY_TOL * max(u.norm(), 1e-300):
            out.add(idx)
    return out


@dataclass(frozen=True, eq=False)
class Instance:
    """R = T_g + sum v_i <., u_i> at one truncation order N.

    The perturbation is kept resized to N.  Every derived object is
    computed the first time it is read and kept on the instance, so checks
    that share an instance never rebuild it.  The kernel is extracted on
    the interior window N // 2, which keeps band-cutoff artifacts at the
    top of the matrix out of it.
    """

    symbol: Symbol
    perturbation: PerturbationSpec
    truncation: int
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "perturbation", self.perturbation.resized(self.truncation)
        )

    @property
    def column_cap(self) -> int:
        return self.truncation // 2

    @cached_property
    def operator(self) -> OperatorMatrix:
        return perturbed_matrix(
            toeplitz_matrix(symbol_fourier(self.symbol, self.truncation)),
            self.perturbation,
        )

    @cached_property
    def kernel(self) -> Subspace:
        return kernel_subspace(self.operator, self.rank_tol, column_cap=self.column_cap)

    @cached_property
    def vanishing(self) -> Subspace:
        """Kernel members with vanishing constant coefficient."""
        return vanish_at_zero(self.kernel)

    @cached_property
    def defect(self) -> DefectReport:
        """Minimal near-invariance defect of the kernel."""
        return minimal_defect(self.kernel, self.vanishing)

    @cached_property
    def theta(self) -> AnalyticSeries:
        """Taylor expansion of the inner or conjugated inner symbol."""
        return blaschke_expand(self.symbol.product, self.truncation)

    @cached_property
    def k_theta(self) -> Subspace:
        return model_space(self.symbol.product, self.truncation, self.rank_tol)

    @cached_property
    def model_parts(self) -> tuple[AnalyticSeries, ...]:
        """Projection of each u_i onto the model space."""
        return tuple(project(self.k_theta, u) for u, _ in self.perturbation.terms)

    @cached_property
    def lambda_set(self) -> set[int]:
        return lambda_set(self.k_theta, [u for u, _ in self.perturbation.terms])

    @cached_property
    def f1_inv(self) -> AnalyticSeries:
        return taylor_invert(self.symbol.f1.resized(self.truncation))

    @cached_property
    def f2_inv(self) -> AnalyticSeries:
        return taylor_invert(self.symbol.f2.resized(self.truncation))

    @cached_property
    def shifted_images(self) -> np.ndarray:
        """The case's corrector applied to each S*v_i, one column per term (not for g = 0).

        T_conj(theta) for an inner symbol, T_{1/f1} T_conj(1/f2) for an
        invertible product, multiplication by theta for a conjugate-inner
        symbol.  F is spanned by the columns (plus model parts), and a
        witness combines them with the weights <h, u_i>.
        """
        terms = self.perturbation.terms
        out = np.zeros((self.truncation, len(terms)), dtype=np.complex128)
        for i, (_, v) in enumerate(terms):
            sv = backshift(v)
            if isinstance(self.symbol, InnerSymbol):
                image = conj_toeplitz_apply(self.theta, sv)
            elif isinstance(self.symbol, InvertibleProductSymbol):
                image = multiply_analytic(self.f1_inv, conj_toeplitz_apply(self.f2_inv, sv))
            else:
                image = multiply_analytic(self.theta, sv)
            out[:, i] = image.coeffs
        out.setflags(write=False)
        return out

    @cached_property
    def negative_frame(self) -> np.ndarray:
        """Orthonormal frame of conj(theta) (model part of u_i), i in the lambda-set.

        Read only when the lambda-set is nonempty.  Membership matches the
        divisibility call used by the bound, so numerically-zero parts
        never contribute junk directions.
        """
        theta_bar = conj_on_circle(self.theta)
        b_vectors = [
            multiply(theta_bar, embed(self.model_parts[idx - 1])).coeffs
            for idx in sorted(self.lambda_set)
        ]
        q, _ = np.linalg.qr(np.column_stack(b_vectors))
        return q

    @cached_property
    def negative_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, Q^H E) for the negative frame Q, read with a nonempty lambda-set.

        A = P+(theta Q) is N x |lambda| and E holds the circle series
        embed(S*v_i).  The third map of the witness, Q^H C with C the
        multiplication of analytic vectors by conj(theta), is A^H: for x
        analytic, <conj(theta) x, q> = <x, theta q> and only the indices
        0..N-1 of theta q meet x.
        """
        n, q = self.truncation, self.negative_frame
        theta_q = np.column_stack(
            [np.convolve(self.theta.coeffs, col)[n : 2 * n] for col in q.T]
        )
        shifted_v = _backshift_columns(self.perturbation.v_matrix(n))
        return theta_q, q[n : 2 * n].conj().T @ shifted_v

    @cached_property
    def defect_space(self) -> Subspace:
        """The predicted defect space F."""
        return theorem_defect_space(self)

    @cached_property
    def defect_bound(self) -> int:
        return theorem_defect_bound(self)

    @cached_property
    def doubled(self) -> "Instance":
        """The same operator data at truncation 2N."""
        return Instance(
            self.symbol, self.perturbation, 2 * self.truncation, self.rank_tol
        )


def theorem_defect_space(inst: Instance) -> Subspace:
    """The predicted defect space F for the instance's symbol class."""
    _require_defect_case(inst.symbol)
    n, terms = inst.truncation, inst.perturbation.terms
    if not terms:
        return Subspace.zero(n, inst.rank_tol)
    if isinstance(inst.symbol, ZeroSymbol):
        return span([u for u, _ in terms], n, inst.rank_tol)
    vectors = list(inst.shifted_images.T)
    if isinstance(inst.symbol, ConjInnerSymbol):
        vectors += [inst.model_parts[idx - 1] for idx in sorted(inst.lambda_set)]
    return span(vectors, n, inst.rank_tol)


def theorem_defect_bound(inst: Instance) -> int:
    _require_defect_case(inst.symbol)
    n = inst.perturbation.rank_bound
    if isinstance(inst.symbol, ConjInnerSymbol) and n:
        return n + len(inst.lambda_set)
    return n


def _backshift_columns(mat: np.ndarray) -> np.ndarray:
    """S* on every column: coefficients move down one index."""
    out = np.zeros_like(mat)
    out[:-1] = mat[1:]
    return out


def defect_witnesses(
    inst: Instance,
    hs: np.ndarray,
    kernel_tol: float = WITNESS_KERNEL_TOL,
) -> np.ndarray:
    """The proof's corrector w for every column h of an N x k frame, as N x k.

    Each S*h + w lies back in the kernel.  Requires every h in the kernel
    with h(0) = 0 (validated).  w is linear in h, so all witnesses come
    from a few matrix products; the conjugate-inner case removes the
    component of conj(theta) S*h + sum <h, u_i> S*v_i along the negative
    frame explicitly.
    """
    _require_defect_case(inst.symbol)
    n = inst.truncation
    hs = np.asarray(hs, dtype=np.complex128)
    if hs.ndim != 2 or hs.shape[0] != n or not np.all(np.isfinite(hs)):
        raise InputError(f"witness frame {hs.shape} is not a finite {n} x k array")
    scale = kernel_tol * np.maximum(1.0, np.linalg.norm(hs, axis=0))
    if np.any(np.abs(hs[0]) > scale):
        raise HypothesisViolationError("witness needs h(0) = 0")
    if np.any(np.linalg.norm(inst.operator.entries @ hs, axis=0) > scale):
        raise HypothesisViolationError("witness needs h in the kernel")
    if not inst.perturbation.terms:
        return np.zeros_like(hs)
    u = inst.perturbation.u_matrix(n)
    shifted = _backshift_columns(hs)
    if isinstance(inst.symbol, ZeroSymbol):
        return -(u @ (u.conj().T @ shifted))
    weights = u.conj().T @ hs
    ws = inst.shifted_images @ weights
    if not isinstance(inst.symbol, ConjInnerSymbol) or not inst.lambda_set:
        return ws
    # Remove theta times the analytic part of the negative-frame component.
    theta_q, q_on_v = inst.negative_maps
    return ws - theta_q @ (theta_q.conj().T @ shifted + q_on_v @ weights)


def defect_witness(
    inst: Instance,
    h: AnalyticSeries,
    kernel_tol: float = WITNESS_KERNEL_TOL,
) -> AnalyticSeries:
    """The witness of one h: defect_witnesses on a one-column frame."""
    return AnalyticSeries(
        defect_witnesses(inst, h.coeffs[:, None], kernel_tol)[:, 0], h.truncation
    )


@dataclass(frozen=True)
class WitnessEntry:
    witness: AnalyticSeries
    membership_residual: float
    w_in_space_residual: float

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness.to_json_dict(),
            "membership_residual": self.membership_residual,
            "w_in_space_residual": self.w_in_space_residual,
        }


@dataclass(frozen=True)
class WitnessReport:
    entries: tuple[WitnessEntry, ...]

    @property
    def max_membership_residual(self) -> float:
        return max((e.membership_residual for e in self.entries), default=0.0)

    @property
    def max_w_in_space_residual(self) -> float:
        return max((e.w_in_space_residual for e in self.entries), default=0.0)

    def passed(self, tol: float) -> bool:
        """Every S*h + w lies in the kernel and every w in F, both below tol."""
        return self.max_membership_residual < tol and self.max_w_in_space_residual < tol

    def to_json_dict(self) -> dict:
        return {
            "max_membership_residual": self.max_membership_residual,
            "max_w_in_space_residual": self.max_w_in_space_residual,
            "entries": [e.to_json_dict() for e in self.entries],
        }


def check_defect_theorem(
    inst: Instance,
    containment_tol: float = 1e-7,
    witness_tol: float = WITNESS_KERNEL_TOL,
) -> tuple[DefectReport, WitnessReport]:
    """End-to-end check of the defect prediction on an instance's kernel.

    Failures land in the report fields; only malformed inputs raise.
    """
    _require_defect_case(inst.symbol)
    n = inst.truncation
    m = inst.kernel
    base = inst.defect
    f_space = inst.defect_space
    # S*M sits inside M + F; residual directions are orthogonal to M already,
    # so containment is tested against the joint span, not F alone.
    joint = span(np.hstack((m.frame, f_space.frame)).T, n, rank_tol=inst.rank_tol)
    outside = relative_residuals(joint, base.residual_frame.frame)
    worst_outside = float(outside.max(initial=0.0))
    report = DefectReport(
        defect_dim=base.defect_dim,
        residual_frame=base.residual_frame,
        singular_values=base.singular_values,
        bound_from_theorem=inst.defect_bound,
        contained_in_theorem_space=worst_outside < containment_tol,
        max_residual_outside_theorem_space=worst_outside,
    )
    hs = inst.vanishing.frame
    ws = defect_witnesses(inst, hs, kernel_tol=witness_tol)
    candidates = _backshift_columns(hs) + ws
    scale = np.maximum(1.0, np.linalg.norm(candidates, axis=0))
    membership = np.linalg.norm(inst.operator.entries @ candidates, axis=0) / scale
    w_resid = relative_residuals(f_space, ws)
    entries = tuple(
        WitnessEntry(AnalyticSeries(ws[:, j], n), float(membership[j]), float(w_resid[j]))
        for j in range(ws.shape[1])
    )
    return report, WitnessReport(entries)


def verify_defect_theorem(
    sym: Symbol,
    pert: PerturbationSpec,
    truncation: int,
    rank_tol: float = 1e-9,
    containment_tol: float = 1e-7,
    witness_tol: float = WITNESS_KERNEL_TOL,
) -> tuple[DefectReport, WitnessReport]:
    """check_defect_theorem on a fresh instance built from raw operator data."""
    return check_defect_theorem(
        Instance(sym, pert, truncation, rank_tol), containment_tol, witness_tol
    )

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
from typing import NamedTuple

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import HypothesisViolationError, InputError
from .operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    OperatorMatrix,
    PerturbationSpec,
    Symbol,
    TrigPolySymbol,
    ZeroSymbol,
    perturbed_matrix,
    symbol_fourier,
    toeplitz_columns,
    toeplitz_matrix,
)
from .series import (
    AnalyticSeries,
    LaurentSeries,
    cauchy_product,
    conj_on_circle,
    embed,
    laurent_conj,
    multiply,
    powers,
    riesz_project,
    taylor_invert,
)
from .subspaces import (
    DEFAULT_RANK_TOL,
    ZERO_OPERATOR_FLOOR,
    DefectReport,
    Subspace,
    cofinite_defect,
    kernel_subspace,
    minimal_defect,
    null_space,
    project,
    rank_cut,
    rank_threshold,
    relative_residuals,
    residuals_outside_sum,
    span,
    vanish_at_zero,
)

# Relative projection-norm threshold deciding whether an inner function
# divides u (projection onto the model space below it counts as zero).
DIVISIBILITY_TOL = 1e-8

WITNESS_KERNEL_TOL = 1e-8

# Largest relative residual of a minimal-defect direction outside M + F.
CONTAINMENT_TOL = 1e-7

_DEFECT_CASES = (ZeroSymbol, InnerSymbol, InvertibleProductSymbol, ConjInnerSymbol)


def _require_defect_case(sym: Symbol) -> None:
    if not isinstance(sym, _DEFECT_CASES):
        raise InputError(
            f"no defect theorem for symbol class {type(sym).__name__!r}"
        )


def model_space(
    theta: BlaschkeProduct, truncation: int, rank_tol: float = DEFAULT_RANK_TOL
) -> Subspace:
    """Truncated model space K_theta = H^2 (-) theta H^2 from its Takenaka-Malmquist basis.

    Writing theta as z^m times elementary factors b_a = (a - z)/(1 - conj(a) z),
    K_theta is the orthogonal sum of prefix * K_b over the factors b taken in
    turn, where prefix is the product of the factors before b: K_z is the
    constants and K_{b_a} is spanned by k_a = sum conj(a)^n z^n
    (Garcia-Mashreghi-Ross, Introduction to Model Spaces and their
    Operators, 2016, ch. 5).  The deg theta basis vectors are cut to the
    truncation and orthonormalized, with no Toeplitz matrix and no N x N
    SVD, so the dimension is deg theta at every truncation.  A kernel cut
    from the truncated T_conj(theta) loses directions where max |a|^N is
    far from round-off.
    """
    n = truncation
    prefix = np.zeros(n, dtype=np.complex128)
    prefix[0] = 1.0
    basis = []
    for _ in range(theta.z_power):
        basis.append(prefix)
        prefix = cauchy_product(prefix, [0.0, 1.0], n)
    for point, multiplicity in theta.zeros:
        kernel_dir = powers(np.conj(point), n)
        for _ in range(multiplicity):
            basis.append(cauchy_product(prefix, kernel_dir, n))
            # prefix * b_a = (prefix * k_a) * (a - z)
            prefix = cauchy_product(basis[-1], [point, -1.0], n)
    return span(basis, n, rank_tol)


def lambda_set(k_theta: Subspace, u_list: list[AnalyticSeries]) -> set[int]:
    """1-based indices k with nonzero model-space component of u_k (theta does not divide u_k)."""
    out = set()
    for idx, u in enumerate(u_list, start=1):
        part = project(k_theta, u)
        if part.norm() > DIVISIBILITY_TOL * max(u.norm(), 1e-300):
            out.add(idx)
    return out


class KernelSolution(NamedTuple):
    """The kernel on the column window, its tail beyond the window, and its cut.

    tail is the largest norm beyond the window of a unit kernel vector:
    the window holds the kernel only while it is near round-off.  cut is
    the threshold at or below which the kernel's svals counted as zero.
    """

    space: Subspace
    tail: float
    cut: float


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
    def symbol_series(self) -> LaurentSeries:
        """g's Fourier coefficients -N..N: every T_g the instance applies reads them."""
        return symbol_fourier(self.symbol, self.truncation)

    @cached_property
    def operator(self) -> OperatorMatrix:
        """The dense N x N matrix of R, from symbol_series.

        Only trigonometric-polynomial symbols read it (their kernel); the
        four defect families work from the symbol's structure.
        """
        return perturbed_matrix(toeplitz_matrix(self.symbol_series), self.perturbation)

    @cached_property
    def u_matrix(self) -> np.ndarray:
        """U: the u_i as columns, N x r, read-only."""
        return _read_only(self.perturbation.u_matrix(self.truncation))

    @cached_property
    def v_matrix(self) -> np.ndarray:
        """V: the v_i as columns, N x r, read-only."""
        return _read_only(self.perturbation.v_matrix(self.truncation))

    @property
    def kernel(self) -> Subspace:
        """The kernel on the column window [0, N // 2): structured_kernel's space."""
        return self.structured_kernel.space

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """R X = T_g X + V (U^H X) for an N x k block X.

        T_g X is toeplitz_columns on symbol_series for every symbol; a
        symbol with no nonzero coefficient (g = 0) skips it.
        """
        out = self.v_matrix @ (self.u_matrix.conj().T @ cols)
        if self.symbol_series.coeffs.any():
            out += toeplitz_columns(self.symbol_series, cols)
        return out

    @cached_property
    def _zero_window(self) -> tuple[np.ndarray, np.ndarray, float]:
        """B's singular values, zero_complement and the cut (zero symbol only)."""
        q, r_u = np.linalg.qr(self.u_matrix[: self.column_cap])
        _, s, vh = np.linalg.svd(self.v_matrix @ r_u.conj().T, full_matrices=False)
        comp = _read_only(q @ vh[: rank_cut(s, self.rank_tol)].conj().T)
        return s, comp, rank_threshold(s, self.rank_tol)

    @property
    def zero_complement(self) -> np.ndarray:
        """The zero symbol's window complement from the r-wide side, cap x rank.

        R = V U^H, so with the thin QR U[:cap] = Q R_u the window R[:, :cap]
        is B Q^H for the N x r matrix B = V R_u^H.  The window's singular
        values are B's, so the rank cut sees the same values as an SVD of
        the window even when the v_i differ greatly in norm, and its
        range-side right singular vectors are Q times B's.  The kernel is
        the window's part orthogonal to this frame: dim cap - rank, with
        nothing beyond the window.  Neither the operator nor an N-wide SVD
        is formed.
        """
        return self._zero_window[1]

    @cached_property
    def vanishing(self) -> Subspace:
        """Kernel members with vanishing constant coefficient."""
        return vanish_at_zero(self.kernel)

    @cached_property
    def defect(self) -> DefectReport:
        """Minimal near-invariance defect of the kernel, on its column window.

        The zero symbol's cofinite kernel reads it from zero_complement
        alone (cofinite_defect), with no kernel or vanishing frame; a
        finite kernel from its frame (minimal_defect).
        """
        if isinstance(self.symbol, ZeroSymbol):
            return cofinite_defect(self.zero_complement, self.truncation, self.rank_tol)
        return minimal_defect(self.kernel, self.vanishing)

    @property
    def kernel_dim(self) -> int:
        """The kernel's dim; the zero symbol's is cap - rank, with no frame built."""
        if isinstance(self.symbol, ZeroSymbol):
            return self.column_cap - self.zero_complement.shape[1]
        return self.kernel.dim

    @property
    def window_tail(self) -> float:
        """structured_kernel's tail; 0 for the zero symbol, with no frame built."""
        if isinstance(self.symbol, ZeroSymbol):
            return 0.0
        return self.structured_kernel.tail

    @cached_property
    def theta(self) -> AnalyticSeries:
        """The inner function: the analytic part of g, or of conj(g) for a conjugate-inner g."""
        g = self.symbol_series
        return riesz_project(laurent_conj(g) if isinstance(self.symbol, ConjInnerSymbol) else g)

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

    def _corrected(self, cols: np.ndarray) -> np.ndarray:
        """The case's corrector applied to every column of an N x k array (not for g = 0).

        T_conj(g), the adjoint of T_g, for a unimodular g (inner or
        conjugate inner), and T_{1/f1} T_conj(1/f2) for g = f1 conj(f2).
        Each maps T_g x back to x up to ker T_g.
        """
        if isinstance(self.symbol, InvertibleProductSymbol):
            inverted = toeplitz_columns(conj_on_circle(self.f2_inv), cols)
            return toeplitz_columns(embed(self.f1_inv), inverted)
        return toeplitz_columns(laurent_conj(self.symbol_series), cols)

    @cached_property
    def corrected_v(self) -> np.ndarray:
        """C V: the corrector applied to each v_i, N x r (not for g = 0)."""
        return _read_only(self._corrected(self.v_matrix))

    @cached_property
    def pairing(self) -> np.ndarray:
        """U^H C V, r x r: entry (i, j) is <C v_j, u_i> (not for g = 0)."""
        return _read_only(self.u_matrix.conj().T @ self.corrected_v)

    @cached_property
    def shifted_images(self) -> np.ndarray:
        """The corrector applied to each S*v_i, one column per term (not for g = 0).

        F is spanned by the columns (plus model parts), and a witness
        combines them with the weights <h, u_i>.
        """
        return _read_only(self._corrected(_backshift_columns(self.v_matrix)))

    @cached_property
    def structured_kernel(self) -> KernelSolution:
        """The window kernel solved from the operator's structure, with its tail and cut.

        The zero symbol's R = V U^H, so its kernel is the window's part
        orthogonal to zero_complement, of dim cap - rank and tail 0; its
        svals are B's padded by exact zeros, which are the window's own.
        With U, V holding the u_i, v_i, K the model-space frame and C the
        corrector, R x = 0 otherwise reduces to a small system in c = U^H x:
        - inner theta: theta x = -V c, so V c lies in theta H^2
          (K^H V c = 0), x = -C V c and (I + U^H C V) c = 0;
        - invertible f1 conj(f2): x = -C V c and (I + U^H C V) c = 0;
        - conjugate inner: x = -C V c + K b, the second term spanning
          ker T_conj(theta), and (I + U^H C V) c = U^H K b.
        The solutions are orthonormalized over all N coefficients, cut to
        the column window [0, N // 2) and orthonormalized there by a thin
        QR, so the kernel records its window and keeps only its frame, the
        thin side; svals are the system's singular values, one per unknown
        (exact zeros pad a wide system), cut at rank_tol * max(1, s0).
        Trigonometric-polynomial symbols take the SVD of the operator's
        N x N // 2 window (kernel_subspace), tail 0.
        """
        sym, n, cap = self.symbol, self.truncation, self.column_cap
        if isinstance(sym, TrigPolySymbol):
            m = kernel_subspace(self.operator, self.rank_tol, column_cap=cap)
            return KernelSolution(m, 0.0, rank_threshold(m.svals, self.rank_tol))
        if isinstance(sym, ZeroSymbol):
            s, comp, cut = self._zero_window
            svals = np.pad(s, (0, cap - s.size))
            rank = comp.shape[1]
            frame = np.zeros((n, cap - rank), dtype=np.complex128)
            frame[:cap] = np.linalg.qr(comp, mode="complete")[0][:, rank:]
            kernel = Subspace(
                frame, n, self.rank_tol, degenerate=svals[0] <= ZERO_OPERATOR_FLOOR,
                svals=tuple(svals), window=cap,
            )
            return KernelSolution(kernel, 0.0, cut)
        cv = self.corrected_v
        i_plus = np.eye(cv.shape[1]) + self.pairing
        if isinstance(sym, InvertibleProductSymbol):
            system, solutions = i_plus, cv
        elif isinstance(sym, InnerSymbol):
            system = np.vstack((self.k_theta.frame.conj().T @ self.v_matrix, i_plus))
            solutions = cv
        else:
            k = self.k_theta.frame
            system = np.hstack((i_plus, -(self.u_matrix.conj().T @ k)))
            solutions = np.hstack((-cv, k))
        # floor 1, as in minimal_defect: the systems are built from
        # unit-scale data, and one that is exactly zero has s0 at round-off.
        null, svals, cut = null_space(system, self.rank_tol, floor=1.0)
        q, _ = np.linalg.qr(solutions @ null)
        dim = q.shape[1]
        tail = float(np.linalg.norm(q[cap:], 2)) if dim else 0.0
        frame = np.zeros((n, dim), dtype=np.complex128)
        frame[:cap] = np.linalg.qr(q[:cap])[0]
        kernel = Subspace(frame, n, self.rank_tol, svals=tuple(svals), window=cap)
        return KernelSolution(kernel, tail, cut)

    @cached_property
    def negative_frame(self) -> np.ndarray:
        """Orthonormal frame of g (model part of u_i), i in the lambda-set; g = conj(theta).

        Read only when the lambda-set is nonempty.  Membership matches the
        divisibility call used by the bound, so numerically-zero parts
        never contribute junk directions.
        """
        b_vectors = [
            multiply(self.symbol_series, embed(self.model_parts[idx - 1])).coeffs
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
        theta_q = cauchy_product(self.theta.coeffs, q, 2 * n)[n:]
        return theta_q, q[n : 2 * n].conj().T @ _backshift_columns(self.v_matrix)

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
    hs = _vanishing_frame(inst, hs, kernel_tol)
    if np.any(_kernel_residuals(inst, hs) > kernel_tol):
        raise HypothesisViolationError("witness needs h in the kernel")
    return _witnesses(inst, hs)


def _vanishing_frame(inst: Instance, hs: np.ndarray, tol: float) -> np.ndarray:
    """hs as a finite N x k array whose columns vanish at 0 to tol (validated)."""
    _require_defect_case(inst.symbol)
    n = inst.truncation
    hs = np.asarray(hs, dtype=np.complex128)
    if hs.ndim != 2 or hs.shape[0] != n or not np.all(np.isfinite(hs)):
        raise InputError(f"witness frame {hs.shape} is not a finite {n} x k array")
    if np.any(np.abs(hs[0]) > tol * np.maximum(1.0, np.linalg.norm(hs, axis=0))):
        raise HypothesisViolationError("witness needs h(0) = 0")
    return hs


def _kernel_residuals(inst: Instance, cols: np.ndarray) -> np.ndarray:
    """||R x|| / max(1, ||x||) for every column x."""
    scale = np.maximum(1.0, np.linalg.norm(cols, axis=0))
    return np.linalg.norm(inst.apply(cols), axis=0) / scale


def _witnesses(inst: Instance, hs: np.ndarray) -> np.ndarray:
    """defect_witnesses without the validation."""
    if not inst.perturbation.terms:
        return np.zeros_like(hs)
    u = inst.u_matrix
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
    """The residuals of one witness: S*h + w in the kernel, w in F, and h in the kernel.

    The last is the witness's hypothesis on the kernel frame's column h.
    It fails when the kernel reaches past the column window, whose cut
    of the kernel is then not in it.
    """

    membership_residual: float
    w_in_space_residual: float
    kernel_residual: float


@dataclass(frozen=True)
class WitnessReport:
    """The residuals of every witness of an instance, in column order.

    The witness vectors are defect_witnesses(inst, inst.vanishing.frame).
    """

    entries: tuple[WitnessEntry, ...]

    @property
    def max_membership_residual(self) -> float:
        return max((e.membership_residual for e in self.entries), default=0.0)

    @property
    def max_w_in_space_residual(self) -> float:
        return max((e.w_in_space_residual for e in self.entries), default=0.0)

    @property
    def max_kernel_residual(self) -> float:
        return max((e.kernel_residual for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        """Every residual of every witness below WITNESS_KERNEL_TOL."""
        return (
            self.max_membership_residual < WITNESS_KERNEL_TOL
            and self.max_w_in_space_residual < WITNESS_KERNEL_TOL
            and self.max_kernel_residual < WITNESS_KERNEL_TOL
        )

    def to_json_dict(self) -> dict:
        return {
            "entries": len(self.entries),
            "max_membership_residual": self.max_membership_residual,
            "max_w_in_space_residual": self.max_w_in_space_residual,
            "max_kernel_residual": self.max_kernel_residual,
            "per_entry_residuals": [
                [e.membership_residual, e.w_in_space_residual, e.kernel_residual]
                for e in self.entries
            ],
        }


def check_defect_theorem(
    inst: Instance,
    containment_tol: float = CONTAINMENT_TOL,
    witness_tol: float = WITNESS_KERNEL_TOL,
) -> tuple[DefectReport, WitnessReport]:
    """End-to-end check of the defect prediction on an instance's kernel.

    Failures land in the report fields; only malformed inputs raise.
    Containment measures each residual direction outside M + F from the
    part of F orthogonal to M (residuals_outside_sum), and kernel
    membership of every S*h + w is one Instance.apply.  The witnesses are
    built on the kernel's members vanishing at 0, whose kernel residuals
    are reported rather than raised: a kernel that reaches past the
    column window fails them.  witness_tol is the tolerance of the
    h(0) = 0 hypothesis; the witness pass rule is WitnessReport.passed.
    """
    _require_defect_case(inst.symbol)
    base = inst.defect
    f_space = inst.defect_space
    # S*M sits inside M + F; residual directions are orthogonal to M already,
    # so containment is tested against M + F, not F alone.
    outside = residuals_outside_sum(inst.kernel, f_space, base.residual_frame.frame)
    worst_outside = float(outside.max(initial=0.0))
    report = DefectReport(
        defect_dim=base.defect_dim,
        residual_frame=base.residual_frame,
        singular_values=base.singular_values,
        bound_from_theorem=inst.defect_bound,
        contained_in_theorem_space=worst_outside < containment_tol,
        max_residual_outside_theorem_space=worst_outside,
    )
    hs = _vanishing_frame(inst, inst.vanishing.frame, witness_tol)
    ws = _witnesses(inst, hs)
    membership = _kernel_residuals(inst, _backshift_columns(hs) + ws)
    w_resid = relative_residuals(f_space, ws)
    in_kernel = _kernel_residuals(inst, hs)
    entries = tuple(
        WitnessEntry(float(m_res), float(w_res), float(k_res))
        for m_res, w_res, k_res in zip(membership, w_resid, in_kernel)
    )
    return report, WitnessReport(entries)


def verify_defect_theorem(
    sym: Symbol,
    pert: PerturbationSpec,
    truncation: int,
    rank_tol: float = DEFAULT_RANK_TOL,
    containment_tol: float = CONTAINMENT_TOL,
    witness_tol: float = WITNESS_KERNEL_TOL,
) -> tuple[DefectReport, WitnessReport]:
    """check_defect_theorem on a fresh instance built from raw operator data."""
    return check_defect_theorem(
        Instance(sym, pert, truncation, rank_tol), containment_tol, witness_tol
    )

"""Orthonormal-frame subspaces of the truncated coefficient space.

Frames are N x d complex matrices with orthonormal columns.  Rank
decisions run through SVDs with a relative threshold, singular-value
profiles are kept so borderline decisions stay auditable, and frame
phases are pinned (largest entry real positive) for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConditioningError, InputError
from .operators import OperatorMatrix
from .series import AnalyticSeries

DEFAULT_RANK_TOL = 1e-9

DIRECT_SUM_MIN_ANGLE = 1e-8

# Below this largest singular value a matrix is treated as identically zero.
ZERO_OPERATOR_FLOOR = 1e-250


def _fix_phases(frame: np.ndarray) -> np.ndarray:
    out = np.array(frame, dtype=np.complex128)
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    nonzero = pivots != 0
    # Scalar factors: the array form np.conj(p) / np.abs(p) rounds differently.
    out[:, nonzero] *= np.array([np.conj(p) / abs(p) for p in pivots[nonzero]])
    return out


def _right_svd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (one per column) and cols x cols right singular vectors of mat.

    Rows that are exactly zero are dropped first (no tolerance, so no new
    rank decision): they add nothing to mat^H mat, so the singular values
    and right singular subspaces are unchanged, and the values they remove
    are exact zeros, which pad s back to one value per column.  A block
    that keeps at least twice as many rows as columns is reduced to its R
    factor first (Chan, ACM TOMS 8(1), 1982), and no Q is formed.  A block
    with fewer rows than columns takes the full vh, whose trailing rows
    span the rest of the null space.
    """
    keep = mat.any(axis=1)
    if not keep.all():
        mat = mat[keep]
    rows, cols = mat.shape
    if rows >= 2 * cols:
        mat = scipy.linalg.qr(mat, mode="r")[0][:cols]
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    return np.pad(s, (0, cols - s.size)), vh


@dataclass(frozen=True)
class Subspace:
    """Subspace given by an orthonormal column frame."""

    frame: np.ndarray
    truncation: int
    rank_tol: float = DEFAULT_RANK_TOL
    degenerate: bool = False
    svals: tuple[float, ...] = field(default=(), compare=False)
    # Orthonormal frame of the window's range side for a kernel cut from
    # coefficients [0, cap): cap x (cap - dim), so frame and complement
    # together span the window.  None for subspaces built any other way.
    complement: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.frame, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != self.truncation:
            raise InputError(f"frame shape {arr.shape} disagrees with truncation")
        if arr.shape[1]:
            gram = arr.conj().T @ arr
            if np.max(np.abs(gram - np.eye(arr.shape[1]))) > 1e-10:
                raise InputError("frame columns are not orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "frame", arr)
        object.__setattr__(self, "svals", tuple(float(s) for s in self.svals))
        if self.complement is not None:
            comp = np.asarray(self.complement, dtype=np.complex128)
            if comp.ndim != 2 or comp.shape[0] > self.truncation:
                raise InputError(f"complement shape {comp.shape} disagrees with truncation")
            comp.setflags(write=False)
            object.__setattr__(self, "complement", comp)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def zero(cls, truncation: int, rank_tol: float = DEFAULT_RANK_TOL) -> "Subspace":
        return cls(np.zeros((truncation, 0), dtype=np.complex128), truncation, rank_tol)

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "dim": self.dim,
            "rank_tol": self.rank_tol,
            "degenerate": self.degenerate,
            "singular_values": list(self.svals),
            "frame": [
                [[float(x.real), float(x.imag)] for x in self.frame[:, j]]
                for j in range(self.dim)
            ],
        }


def span(
    vectors,
    truncation: int | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> Subspace:
    """Orthonormalize a set of coefficient vectors or series into a Subspace."""
    cols = []
    for vec in vectors:
        if isinstance(vec, AnalyticSeries):
            if truncation is None:
                truncation = vec.truncation
            cols.append(vec.resized(truncation).coeffs)
        else:
            arr = np.asarray(vec, dtype=np.complex128)
            if truncation is None:
                truncation = arr.shape[0]
            if arr.shape[0] != truncation:
                raise InputError("span vectors must share one truncation")
            cols.append(arr)
    if truncation is None:
        raise InputError("span needs at least one vector or an explicit truncation")
    if not cols:
        return Subspace.zero(truncation, rank_tol)
    mat = np.column_stack(cols)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= ZERO_OPERATOR_FLOOR:
        return Subspace.zero(truncation, rank_tol)
    keep = s > rank_tol * s[0]
    return Subspace(_fix_phases(u[:, keep]), truncation, rank_tol, svals=tuple(s))


def kernel_subspace(
    op: OperatorMatrix,
    rank_tol: float = DEFAULT_RANK_TOL,
    column_cap: int | None = None,
) -> Subspace:
    """Numerical kernel via SVD: right singular directions below rank_tol.

    column_cap restricts the domain to coefficients below that degree
    (the headroom interior); the returned frame lives in the full space.
    An identically zero operator yields the whole (capped) space with the
    degenerate flag set.  The range-side right singular vectors of the same
    SVD are kept as the subspace's complement inside the window.
    """
    n = op.truncation
    cap = n if column_cap is None else int(column_cap)
    if not 0 < cap <= n:
        raise InputError(f"column cap {cap} outside 1..{n}")
    s, vh = _right_svd(op.entries[:, :cap])
    if s[0] <= ZERO_OPERATOR_FLOOR:
        frame = np.zeros((n, cap), dtype=np.complex128)
        frame[:cap, :cap] = np.eye(cap)
        return Subspace(
            frame, n, rank_tol, degenerate=True, svals=tuple(s),
            complement=np.zeros((cap, 0), dtype=np.complex128),
        )
    # s is sorted descending, so the null rows of vh are a suffix.
    rank = int(np.count_nonzero(s >= rank_tol * s[0]))
    frame = np.zeros((n, cap - rank), dtype=np.complex128)
    frame[:cap, :] = vh[rank:][::-1].conj().T
    return Subspace(
        _fix_phases(frame), n, rank_tol, svals=tuple(s),
        complement=vh[:rank].conj().T,
    )


def vanish_at_zero(m: Subspace) -> Subspace:
    """Subspace of members with vanishing constant coefficient.

    With x the conjugate of the frame's first row, the Householder
    reflector H = I - 2 w w^H / |w|^2 that maps x onto the first axis
    (Golub-Van Loan, Matrix Computations, sec. 5.1) has its other columns
    orthonormal and orthogonal to x, so the frame times H[:, 1:] is an
    orthonormal frame of the members vanishing at zero, built in O(N d).
    """
    if m.dim == 0:
        return m
    x = m.frame[0].conj()
    norm = np.linalg.norm(x)
    if norm <= m.rank_tol:
        return m
    w = x.copy()
    # alpha = -sign(x0) |x|, so w0 = x0 - alpha does not cancel.
    w[0] += norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
    scale = 2.0 / np.vdot(w, w).real
    frame = m.frame[:, 1:] - np.outer(m.frame @ w, scale * w[1:].conj())
    return Subspace(_fix_phases(frame), m.truncation, m.rank_tol)


def contains(m: Subspace, f, tol: float = 1e-8) -> tuple[bool, float]:
    """Membership up to relative residual; the zero vector always belongs."""
    vec = f.coeffs if isinstance(f, AnalyticSeries) else np.asarray(f, dtype=np.complex128)
    if vec.shape[0] != m.truncation:
        raise InputError("vector truncation disagrees with subspace")
    nv = np.linalg.norm(vec)
    if nv == 0.0:
        return True, 0.0
    resid = vec - m.frame @ (m.frame.conj().T @ vec)
    rel = float(np.linalg.norm(resid) / nv)
    return rel < tol, rel


def relative_residuals(m: Subspace, cols: np.ndarray) -> np.ndarray:
    """contains' relative residual for every column of cols; zero columns give 0."""
    if cols.ndim != 2 or cols.shape[0] != m.truncation:
        raise InputError("column truncation disagrees with subspace")
    norms = np.linalg.norm(cols, axis=0)
    resid = np.linalg.norm(cols - m.frame @ (m.frame.conj().T @ cols), axis=0)
    return np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0)


def project(m: Subspace, f: AnalyticSeries) -> AnalyticSeries:
    if f.truncation != m.truncation:
        raise InputError("vector truncation disagrees with subspace")
    return AnalyticSeries(m.frame @ (m.frame.conj().T @ f.coeffs), m.truncation)


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Angles (ascending, radians) between two frames; min(dim, dim) values.

    Cosines come from the SVD of the cross-Gram matrix clipped to [0, 1].
    Angles below pi/4 are re-derived from the sine (SVD of the projection
    residual): plain arccos cannot resolve angles under sqrt(eps), and the
    oracle-equivalence gate needs accuracy down to 1e-10.
    """
    if a.truncation != b.truncation:
        raise InputError("subspaces live at different truncations")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    cross = a.frame.conj().T @ b.frame
    sigma = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    theta = np.arccos(sigma)
    small = sigma**2 >= 0.5
    if small.any():
        if a.dim >= b.dim:
            resid = b.frame - a.frame @ cross
        else:
            resid = a.frame - b.frame @ cross.conj().T
        sines = np.linalg.svd(resid, compute_uv=False)[::-1]
        theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
    return theta


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Combine two frames; near-parallel inputs raise ConditioningError."""
    if a.truncation != b.truncation:
        raise InputError("subspaces live at different truncations")
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    angles = principal_angles(a, b)
    if angles.size and float(angles[0]) < DIRECT_SUM_MIN_ANGLE:
        raise ConditioningError(
            f"direct sum ill-conditioned: min principal angle {float(angles[0]):.3e}"
        )
    mat = np.column_stack([a.frame, b.frame])
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    keep = s > a.rank_tol * s[0]
    if int(keep.sum()) != a.dim + b.dim:
        raise ConditioningError("direct sum lost rank during orthonormalization")
    return Subspace(_fix_phases(u[:, keep]), a.truncation, a.rank_tol, svals=tuple(s))


def complement_within(ambient: Subspace, removed: Subspace) -> Subspace:
    """Orthogonal complement of `removed` inside `ambient` (removed must sit inside)."""
    if removed.dim == 0:
        return ambient
    coords = ambient.frame.conj().T @ removed.frame
    for j in range(removed.dim):
        inside = np.linalg.norm(coords[:, j])
        if abs(inside - 1.0) > 1e-8:
            raise InputError("removed subspace does not lie inside the ambient one")
    keep = scipy.linalg.null_space(coords.conj().T)
    return Subspace(
        _fix_phases(ambient.frame @ keep), ambient.truncation, ambient.rank_tol
    )


@dataclass(frozen=True)
class DefectReport:
    """Outcome of the minimal near-invariance defect computation."""

    defect_dim: int
    residual_frame: Subspace
    singular_values: tuple[float, ...]
    bound_from_theorem: int | None = None
    contained_in_theorem_space: bool | None = None
    max_residual_outside_theorem_space: float | None = None

    @property
    def passed(self) -> bool:
        """Within the theorem's bound, with every residual direction inside F."""
        return (
            self.bound_from_theorem is not None
            and self.defect_dim <= self.bound_from_theorem
            and bool(self.contained_in_theorem_space)
        )

    def to_json_dict(self) -> dict:
        return {
            "defect_dim": self.defect_dim,
            "singular_values": list(self.singular_values),
            "bound_from_theorem": self.bound_from_theorem,
            "contained_in_theorem_space": self.contained_in_theorem_space,
            "max_residual_outside_theorem_space": self.max_residual_outside_theorem_space,
            "residual_dim": self.residual_frame.dim,
        }


def minimal_defect(m: Subspace, w: Subspace) -> DefectReport:
    """Rank of the part of S*w sticking out of m, for w = vanish_at_zero(m).

    m must be a kernel_subspace result: inside its column window
    [0, cap) the complement frame C spans the orthogonal complement of m,
    and S*w stays in the window, so the part outside m is C (C^H S*w).
    Its singular values and left singular vectors come from the small
    (cap - dim m) x dim w matrix C^H S*w, which gives
    min(cap - dim m, dim w) singular values.  The threshold is
    absolute-normalized (frames are orthonormal, so backshifted columns
    have norm at most one); an empty or fully invariant input reports
    defect 0.
    """
    comp = m.complement
    if comp is None:
        raise InputError("minimal_defect needs a kernel subspace with its window complement")
    tol = m.rank_tol
    cap = comp.shape[0]
    # On the window S*w is w's rows 1..cap-1 followed by a zero row: w
    # vanishes from row cap on, and at cap = N the shift drops the top row.
    u, s, _ = np.linalg.svd(comp[:-1].conj().T @ w.frame[1:cap], full_matrices=False)
    threshold = tol * max(1.0, float(s[0]) if s.size else 0.0)
    keep = s > threshold
    frame = np.zeros((m.truncation, int(keep.sum())), dtype=np.complex128)
    frame[:cap] = comp @ u[:, keep]
    return DefectReport(
        frame.shape[1],
        Subspace(_fix_phases(frame), m.truncation, tol),
        tuple(float(x) for x in s),
    )

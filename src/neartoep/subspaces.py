"""Orthonormal-frame subspaces of the truncated coefficient space.

Frames are N x d complex matrices with orthonormal columns.  Every rank
decision is one call to rank_cut on an SVD's singular values,
singular-value profiles are kept so borderline decisions stay auditable,
and frame phases are pinned (largest entry real positive) for
determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, InputError
from .operators import OperatorMatrix
from .series import AnalyticSeries

DEFAULT_RANK_TOL = 1e-9

DIRECT_SUM_MIN_ANGLE = 1e-8

# Below this largest singular value a matrix is treated as identically zero.
ZERO_OPERATOR_FLOOR = 1e-250


def rank_cut(s: np.ndarray, tol: float, floor: float = 0.0) -> int:
    """Numerical rank of descending singular values: the count of s > tol * max(floor, s0).

    The single relative rule behind every rank decision (Hansen,
    Rank-Deficient and Discrete Ill-Posed Problems, SIAM 1998, ch. 3).
    floor = 1 makes the cut absolute for data of unit scale, whose s0 may
    sit at round-off.  Values at or below the cut count as zero, and a
    profile whose s0 is at most ZERO_OPERATOR_FLOOR has rank 0.
    """
    if len(s) == 0 or s[0] <= ZERO_OPERATOR_FLOOR:
        return 0
    return int(np.count_nonzero(s > rank_threshold(s, tol, floor)))


def rank_threshold(s, tol: float, floor: float = 0.0) -> float:
    """rank_cut's cut, tol * max(floor, s0): values at or below it count as zero."""
    return tol * max(floor, float(s[0]) if len(s) else 0.0)


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
    factor first (Chan, ACM TOMS 8(1), 1982), and no Q is formed; a
    non-finite entry there raises ValueError.  A block with fewer rows
    than columns takes the full vh, whose trailing rows span the rest of
    the null space.
    """
    keep = mat.any(axis=1)
    if not keep.all():
        mat = mat[keep]
    rows, cols = mat.shape
    if rows >= 2 * cols:
        if not np.isfinite(mat).all():
            raise ValueError("array must not contain infs or NaNs")
        mat = np.linalg.qr(mat, mode="r")
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
    # The column cap of a kernel cut from coefficients [0, cap): its frame
    # vanishes from row cap on.  None for subspaces built any other way.
    window: int | None = field(default=None, compare=False)
    # Orthonormal frame of the window's part of the orthogonal complement,
    # cap x (cap - dim), kept where it is the thin side or comes for free:
    # a cofinite kernel's and kernel_subspace's.  None otherwise.
    complement: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.frame, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != self.truncation:
            raise InputError(f"frame shape {arr.shape} disagrees with truncation")
        if arr.shape[1]:
            # Rows past the last nonzero one add exact zeros to the Gram matrix.
            nonzero = np.flatnonzero(arr.any(axis=1))
            used = arr[: nonzero[-1] + 1 if nonzero.size else 0]
            gram = used.conj().T @ used
            if np.max(np.abs(gram - np.eye(arr.shape[1]))) > 1e-10:
                raise InputError("frame columns are not orthonormal")
        arr.setflags(write=False)
        object.__setattr__(self, "frame", arr)
        object.__setattr__(self, "svals", tuple(float(s) for s in self.svals))
        if self.window is not None and not 0 < self.window <= self.truncation:
            raise InputError(f"window {self.window} outside 1..{self.truncation}")
        if self.complement is not None:
            comp = np.asarray(self.complement, dtype=np.complex128)
            if comp.ndim != 2 or comp.shape[0] != self.window:
                raise InputError(f"complement shape {comp.shape} disagrees with the window")
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
    rank = rank_cut(s, rank_tol)
    return Subspace(_fix_phases(u[:, :rank]), truncation, rank_tol, svals=tuple(s))


def kernel_subspace(
    op: OperatorMatrix,
    rank_tol: float = DEFAULT_RANK_TOL,
    column_cap: int | None = None,
) -> Subspace:
    """Numerical kernel via SVD: right singular directions at or below rank_cut's cut.

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
            frame, n, rank_tol, degenerate=True, svals=tuple(s), window=cap,
            complement=np.zeros((cap, 0), dtype=np.complex128),
        )
    # s is sorted descending, so the null rows of vh are a suffix.
    rank = rank_cut(s, rank_tol)
    frame = np.zeros((n, cap - rank), dtype=np.complex128)
    frame[:cap, :] = vh[rank:][::-1].conj().T
    return Subspace(
        _fix_phases(frame), n, rank_tol, svals=tuple(s), window=cap,
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
    rel = float(relative_residuals(m, vec[:, None])[0])
    return rel < tol, rel


def relative_residuals(m: Subspace, cols: np.ndarray) -> np.ndarray:
    """contains' relative residual for every column of cols; zero columns give 0."""
    if cols.ndim != 2 or cols.shape[0] != m.truncation:
        raise InputError("column truncation disagrees with subspace")
    return _relative_norms(cols - m.frame @ (m.frame.conj().T @ cols), cols)


def _relative_norms(outside: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column norms of outside over those of cols, 0 where a column of cols is zero."""
    norms = np.linalg.norm(cols, axis=0)
    resid = np.linalg.norm(outside, axis=0)
    return np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0)


def residuals_outside_sum(m: Subspace, f: Subspace, cols: np.ndarray) -> np.ndarray:
    """Relative residual of every column of cols outside M + F; zero columns give 0.

    The part of F orthogonal to M, G = F - M (M^H F), is N x dim F; its
    left singular vectors above rank_cut's cut (floor 1, since F's frame is
    orthonormal and G's values are at most one) complete M to a frame of
    M + F.  This is O(N dim M dim F) work, with no SVD of the N x
    (dim M + dim F) joint span.
    """
    if cols.ndim != 2 or cols.shape[0] != m.truncation or f.truncation != m.truncation:
        raise InputError("column truncation disagrees with subspace")
    g = f.frame - m.frame @ (m.frame.conj().T @ f.frame)
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    g = u[:, : rank_cut(s, m.rank_tol, floor=1.0)]
    outside = cols - m.frame @ (m.frame.conj().T @ cols) - g @ (g.conj().T @ cols)
    return _relative_norms(outside, cols)


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
    rank = rank_cut(s, a.rank_tol)
    if rank != a.dim + b.dim:
        raise ConditioningError("direct sum lost rank during orthonormalization")
    return Subspace(_fix_phases(u[:, :rank]), a.truncation, a.rank_tol, svals=tuple(s))


def complement_within(ambient: Subspace, removed: Subspace) -> Subspace:
    """Orthogonal complement of `removed` inside `ambient` (removed must sit inside)."""
    if removed.dim == 0:
        return ambient
    coords = ambient.frame.conj().T @ removed.frame
    for j in range(removed.dim):
        inside = np.linalg.norm(coords[:, j])
        if abs(inside - 1.0) > 1e-8:
            raise InputError("removed subspace does not lie inside the ambient one")
    _, s, vh = np.linalg.svd(coords.conj().T, full_matrices=True)
    rank = rank_cut(s, np.finfo(float).eps * max(coords.shape))
    keep = vh[rank:].conj().T
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

    m must be a kernel cut from a column window [0, cap) (m.window); S*w
    stays in the window, so only its cap rows are read.  With Y = S*w
    there, the part outside m is Y - M (M^H Y), cap x dim w, for M m's
    frame.  Where m keeps a window complement C (a cofinite kernel's, or
    kernel_subspace's), it is C (C^H Y) instead, whose small
    (cap - dim m) x dim w factor has the same singular values.  Either
    way there are min(cap - dim m, dim w) of them: the part outside m
    has no more nonzero ones, and the rest of the thin side's are
    round-off.  The cut is rank_cut's with floor 1 (frames are
    orthonormal, so backshifted columns have norm at most one); an empty
    or fully invariant input reports defect 0.
    """
    cap = m.window
    if cap is None:
        raise InputError("minimal_defect needs a kernel subspace cut from a column window")
    tol = m.rank_tol
    # On the window S*w is w's rows 1..cap-1 followed by a zero row: w
    # vanishes from row cap on, and at cap = N the shift drops the top row.
    comp = m.complement
    if comp is None:
        shifted = np.zeros((cap, w.dim), dtype=np.complex128)
        shifted[:-1] = w.frame[1:cap]
        inside = m.frame[:cap]
        outside = shifted - inside @ (inside.conj().T @ shifted)
        u, s, _ = np.linalg.svd(outside, full_matrices=False)
        s = s[: min(cap - m.dim, w.dim)]
    else:
        u, s, _ = np.linalg.svd(comp[:-1].conj().T @ w.frame[1:cap], full_matrices=False)
    rank = rank_cut(s, tol, floor=1.0)
    frame = np.zeros((m.truncation, rank), dtype=np.complex128)
    frame[:cap] = u[:, :rank] if comp is None else comp @ u[:, :rank]
    return DefectReport(
        frame.shape[1],
        Subspace(_fix_phases(frame), m.truncation, tol),
        tuple(float(x) for x in s),
    )


def complement_defect_dim(comp: np.ndarray, rank_tol: float) -> int:
    """minimal_defect's defect dim for the window kernel whose complement frame is comp.

    comp is an orthonormal cap x rank frame C, and the kernel is the part
    of the window [0, cap) orthogonal to it, with projector P = I - C C^H.
    Its members vanishing at 0 have projector P - q q^H for q the unit
    vector of P e0, or P itself when |P e0| <= rank_tol, vanish_at_zero's
    rule.  C^H S* (P - q q^H) is minimal_defect's matrix C^H S* W times W^H,
    so it has the same nonzero singular values and the same cut.  Its
    adjoint (P - q q^H) S C is formed from C alone, cap x rank, in
    O(cap rank^2), with no kernel frame.
    """
    cap, rank = comp.shape
    if rank == 0:
        return 0
    # S C on the window: each column moves up one degree, dropping degree cap - 1.
    shifted = np.zeros((cap, rank), dtype=np.complex128)
    shifted[1:] = comp[:-1]
    mat = shifted - comp @ (comp.conj().T @ shifted)
    q = -(comp @ comp[0].conj())
    q[0] += 1.0
    norm = np.linalg.norm(q)
    if norm > rank_tol:
        q /= norm
        mat -= np.outer(q, q.conj() @ shifted)
    return rank_cut(np.linalg.svd(mat, compute_uv=False), rank_tol, floor=1.0)

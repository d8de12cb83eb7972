"""Seeded instance builders shared across the test modules.

Random draws always honor the perturbation invariants (orthonormal u_i,
pairwise orthogonal nonzero v_i) so that construction never raises.
"""

import importlib.util
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS threads are pinned before anything imports numpy, as in the benchmark
# (perfbench/run.py), so tier-1 runs the small SVDs the way it does.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from neartoep.blaschke import BlaschkeProduct, blaschke_expand  # noqa: E402
from neartoep.operators import PerturbationSpec, toeplitz_matrix  # noqa: E402
from neartoep.series import AnalyticSeries, conj_on_circle, embed  # noqa: E402
from neartoep.subspaces import kernel_subspace, rank_cut  # noqa: E402

NORM_FLOOR = 1e-3
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def random_series(rng, truncation, max_degree, min_degree=0):
    """Complex polynomial of degree within [min_degree, max_degree]."""
    width = max_degree - min_degree + 1
    coeffs = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[min_degree : max_degree + 1] = coeffs
    return AnalyticSeries(arr, truncation)


def _gram_schmidt(vectors, normalize):
    out = []
    for vec in vectors:
        arr = vec.coeffs.copy()
        for prev in out:
            arr -= prev * np.vdot(prev, arr) / np.vdot(prev, prev)
        if np.linalg.norm(arr) < NORM_FLOOR:
            return None
        if normalize:
            arr /= np.linalg.norm(arr)
        out.append(arr)
    return out


def seeded_perturbation(rng, truncation, rank, max_degree=8, vanishing_v=False):
    """Rank-`rank` spec with polynomial data of degree at most max_degree.

    Orthogonalization mixes the draws but cannot raise the degree.  With
    vanishing_v the v-draws are supported on degrees >= 1.
    """
    while True:
        us = _gram_schmidt(
            [random_series(rng, truncation, max_degree) for _ in range(rank)],
            normalize=True,
        )
        vs = _gram_schmidt(
            [
                random_series(
                    rng, truncation, max_degree, min_degree=1 if vanishing_v else 0
                )
                for _ in range(rank)
            ],
            normalize=False,
        )
        if us is None or vs is None:
            continue
        return PerturbationSpec(
            tuple(
                (AnalyticSeries(u, truncation), AnalyticSeries(v, truncation))
                for u, v in zip(us, vs)
            )
        )


def random_blaschke(rng, max_degree=3, max_modulus=0.7, allow_z_power=True):
    """Finite Blaschke product with 1 <= degree <= max_degree."""
    degree = int(rng.integers(1, max_degree + 1))
    z_power = int(rng.integers(0, degree + 1)) if allow_z_power else 0
    points = []
    for _ in range(degree - z_power):
        radius = max_modulus * np.sqrt(rng.uniform(0.05, 1.0))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        points.append(radius * np.exp(1j * angle))
    return BlaschkeProduct.from_points(points, z_power=z_power)


def toeplitz_model_space(theta, truncation, rank_tol=1e-9):
    """K_theta as the kernel of the truncated Toeplitz matrix T_conj(theta).

    An independent reference for model_space, which builds K_theta from its
    Takenaka-Malmquist basis instead: one N x N SVD, whose dimension is
    deg theta only once max |a|^N over the zeros is near round-off.
    """
    sym = conj_on_circle(blaschke_expand(theta, truncation))
    return kernel_subspace(toeplitz_matrix(sym), rank_tol)


def svd_kernel(inst):
    """The dense reference for inst.kernel: the SVD of the operator's column
    window [0, N // 2), which the library takes only for
    trigonometric-polynomial symbols."""
    return kernel_subspace(inst.operator, inst.rank_tol, column_cap=inst.column_cap)


def window_complement(m):
    """The window's part of the orthogonal complement of the kernel m,
    cap x (cap - dim m) for cap = m.window, from a complete QR of the
    frame's window rows: the frame the library kept for every finite kernel
    before it kept only the thin side."""
    return np.linalg.qr(m.frame[: m.window], mode="complete")[0][:, m.dim :]


def complete_qr_defect(m, w):
    """The reference minimal defect of the kernel m with w = vanish_at_zero(m):
    the SVD of C^H S*w for C = window_complement(m), as minimal_defect took it
    from a complete QR of every finite kernel's window.  Returns the residual
    frame (N x defect dim, unphased) and the min(cap - dim m, dim w)
    singular values."""
    cap = m.window
    comp = window_complement(m)
    u, s, _ = np.linalg.svd(comp[:-1].conj().T @ w.frame[1:cap], full_matrices=False)
    rank = rank_cut(s, m.rank_tol, floor=1.0)
    frame = np.zeros((m.truncation, rank), dtype=np.complex128)
    frame[:cap] = comp @ u[:, :rank]
    return frame, s


def dense_clause_mats(builder, args):
    """The slot blocks of a cgp clause as full N-column matrices, built the
    dense way from the clause builder's own arguments: the reference for the
    row bands of Toeplitz blocks that cgp builds from circle symbols.  None
    marks a slot the clause does not touch.

    A model-space block is the product T_conj(theta) T_f taken at 2N and cut
    to N x N.  theta and f stop at degree N - 1, so at 2N the product drops
    no term; an N x N product drops conj(theta[l - i]) f[l - k] for l >= N.
    """

    def mult(f):
        return toeplitz_matrix(embed(f)).entries

    if builder == "ip_family_clause":
        vectors, depth = args
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
        return mats
    if builder == "model_membership_clause":
        theta_exp, factors = args
        n = theta_exp.truncation
        tmat = toeplitz_matrix(conj_on_circle(theta_exp.resized(2 * n))).entries
        return [None if f is None else (tmat @ mult(f.resized(2 * n)))[:n, :n] for f in factors]
    if builder == "constant_value_clause":
        (factors,) = args
        return [None if f is None else mult(f)[1:, :] for f in factors]
    slot_count, slot, truncation = args  # zero_slot_clause
    mats = [None] * slot_count
    mats[slot] = np.eye(truncation, dtype=np.complex128)
    return mats


def disk_invertible_poly(rng, truncation, max_degree=3):
    """1 + tail with total tail mass below 1, hence zero-free on the disk."""
    degree = int(rng.integers(1, max_degree + 1))
    tail = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    tail *= 0.8 / max(1.0, np.abs(tail).sum() * 1.25)
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[0] = 1.0
    arr[1 : degree + 1] = tail
    return AnalyticSeries(arr, truncation)


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name.

    The counting wrapper replaces the function under every name a neartoep
    module holds it by, so calls through `from ... import` bindings count
    too.  Returns the list of (args, kwargs) pairs, filled as calls happen.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "neartoep" or key.startswith("neartoep.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def linalg_calls(monkeypatch, name):
    """Record the arguments of every call to numpy.linalg.name.

    Library code looks the function up on numpy.linalg at each call, so it
    is patched there (count_calls rebinds only names held by neartoep
    modules).  Returns the list of (args, kwargs) pairs, filled as calls
    happen.
    """
    original = getattr(np.linalg, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def load_perfbench_workloads(monkeypatch):
    """perfbench/workloads.py loaded by path, read-only, for the benchmark gates."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up by name while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module

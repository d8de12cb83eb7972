"""The kernel and R X of the four defect families against the dense operator.

Instance.kernel is solved from the operator's structure (structured_kernel
for the inner, invertible and conjugate-inner symbols, the window
complement of zero_complement for the zero symbol), and Instance.apply
forms R X = T_g X + V (U^H X) column by column, so neither builds the
N x N operator.  These tests hold both to the dense reference, the SVD of
the operator's window and the matrix product, on the shapes of the
defect-suite benchmark (perfbench/workloads.py) at three truncations.
They read perfbench/ and write nothing there.
"""

import numpy as np
import pytest

from conftest import (
    complete_qr_defect,
    load_perfbench_workloads,
    seeded_perturbation,
    svd_kernel,
)
from neartoep.defects import Instance
from neartoep.operators import ConjInnerSymbol, PerturbationSpec, ZeroSymbol

# Projector gap allowed between the structured and the SVD kernel.
KERNEL_GAP_TOL = 1e-10
APPLY_TOL = 1e-13
# Thin-side defect against the complete-QR reference.
DEFECT_SVAL_TOL = 1e-13
DEFECT_GAP_TOL = 1e-12


def _defect_suite_instances(monkeypatch, seed, truncation):
    workloads = load_perfbench_workloads(monkeypatch)
    for index in range(workloads.DEFECT_SUITE_SIZE):
        shape = workloads.defect_suite_shape(index)
        scenario = workloads.scenario(seed, index, shape, truncation, ("defect",))
        yield Instance(scenario.symbol, scenario.perturbation, truncation)


def _projector_gap(a, b):
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T, 2))


def _assert_apply_matches_the_dense_product(inst, rng):
    n = inst.truncation
    cols = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    got = inst.apply(cols)
    expected = inst.operator.entries @ cols
    assert got.shape == expected.shape
    assert np.linalg.norm(got - expected) <= APPLY_TOL * np.linalg.norm(expected)


@pytest.mark.parametrize("truncation", [64, 128, 256])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_and_apply_match_the_dense_operator_on_the_defect_suite(
    monkeypatch, seed, truncation
):
    rng = np.random.default_rng([seed, truncation])
    cut_off = []
    for inst in _defect_suite_instances(monkeypatch, seed, truncation):
        _assert_apply_matches_the_dense_product(inst, rng)
        m, tail, _ = inst.structured_kernel
        assert m is inst.kernel
        if tail > inst.rank_tol:
            # The window does not hold this kernel, so the SVD may lose a
            # direction of it (ROADMAP item 9).
            cut_off.append(inst.symbol)
            continue
        reference = svd_kernel(inst)
        assert m.dim == reference.dim
        if isinstance(inst.symbol, ZeroSymbol):
            # The cofinite kernel is compared on its thin side.
            assert _projector_gap(m.complement, reference.complement) <= KERNEL_GAP_TOL
        elif m.dim:
            assert _projector_gap(m.frame, reference.frame) <= KERNEL_GAP_TOL
    # Only conjugate-inner kernels reach past the window, and none at N = 256.
    assert all(isinstance(sym, ConjInnerSymbol) for sym in cut_off)
    assert truncation < 256 or not cut_off


def test_zero_symbol_kernel_is_exactly_u_perp_with_v_norms_a_million_apart():
    n = 64
    pert = seeded_perturbation(np.random.default_rng(808), n, rank=2, max_degree=6)
    (u1, v1), (u2, v2) = pert.terms
    terms = ((u1, v1 * (1.0 / v1.norm())), (u2, v2 * (1e-6 / v2.norm())))
    inst = Instance(ZeroSymbol(), PerturbationSpec(terms), n)
    m = inst.kernel
    assert m.dim == inst.column_cap - 2
    # The N-wide SVD of the window resolves u-perp only to about
    # eps * s0 / s1 = 1e-10; the reduction to B = V R_u^H is exact.
    cap = inst.column_cap
    assert np.abs(inst.u_matrix[:cap].conj().T @ m.frame[:cap]).max() <= 1e-14


@pytest.mark.parametrize("doubled", [False, True], ids=["N", "2N"])
@pytest.mark.parametrize("truncation", [64, 128, 256])
@pytest.mark.parametrize("seed", range(3))
def test_thin_side_defect_matches_the_complete_qr_reference_on_the_defect_suite(
    monkeypatch, seed, truncation, doubled
):
    for inst in _defect_suite_instances(monkeypatch, seed, truncation):
        if doubled:
            inst = inst.doubled
        report = inst.defect
        frame, svals = complete_qr_defect(inst.kernel, inst.vanishing)
        assert report.defect_dim == report.residual_frame.dim == frame.shape[1]
        assert len(report.singular_values) == svals.size
        if svals.size:
            assert np.abs(np.array(report.singular_values) - svals).max() <= DEFECT_SVAL_TOL
        # For orthonormal frames of one dim the projector gap is the sine of
        # their largest principal angle, ||(I - B B^H) A||, with no N x N matrix.
        got = report.residual_frame.frame
        assert np.linalg.norm(got - frame @ (frame.conj().T @ got), 2) <= DEFECT_GAP_TOL

"""The zero symbol's 2N stability audit, read from its r-wide window complement.

For the zero symbol R = V U^H the 2N audit forms only the cap x rank
complement of the doubled window (Instance.zero_complement) and the defect
dim it implies (subspaces.complement_defect_dim): no 2N operator, kernel
frame or vanishing frame.  These tests hold that audit to the SVD
reference at 2N, the window SVD of the doubled operator with its minimal
defect, which builds all three, on the zero-symbol shapes of the
defect-suite benchmark and on three edge cases.  The tests read
perfbench/ and write nothing there.
"""

import numpy as np
import pytest

from conftest import load_perfbench_workloads, seeded_perturbation, svd_kernel
from neartoep.defects import Instance
from neartoep.operators import PerturbationSpec, ZeroSymbol
from neartoep.runner import kernel_profile, stability_summary, structured_profile
from neartoep.series import AnalyticSeries
from neartoep.subspaces import minimal_defect, vanish_at_zero

N = 64


def _assert_audit_matches_the_svd_reference(inst, angle_tol=1e-12):
    summary = stability_summary(inst)
    doubled = inst.doubled
    comp = doubled.zero_complement
    reference = svd_kernel(doubled)
    dim, cap = reference.dim, doubled.column_cap
    defect = minimal_defect(reference, vanish_at_zero(reference)).defect_dim
    assert structured_profile(doubled) == (dim, cap, defect, 0.0)
    assert kernel_profile(doubled) == (dim, cap, defect)
    assert summary["kernel_dim_doubled"] == dim
    assert summary["kernel_codim_doubled"] == cap - dim
    assert summary["defect_dim_doubled"] == defect
    assert summary["stable_at_double"]
    # The same range side as the 2N window's SVD, not just the same rank.
    reference = reference.complement
    assert comp.shape == reference.shape == (cap, cap - dim)
    gap = comp @ comp.conj().T - reference @ reference.conj().T
    assert np.linalg.norm(gap) <= angle_tol
    return summary


@pytest.mark.parametrize("truncation", [64, 128])
@pytest.mark.parametrize("seed", range(3))
def test_zero_symbol_audit_matches_the_svd_reference_on_the_defect_suite(
    monkeypatch, seed, truncation
):
    workloads = load_perfbench_workloads(monkeypatch)
    checked = 0
    for index in range(workloads.DEFECT_SUITE_SIZE):
        shape = workloads.defect_suite_shape(index)
        if shape[0] != "zero":
            continue
        scenario = workloads.scenario(seed, index, shape, truncation, ("defect",))
        inst = Instance(scenario.symbol, scenario.perturbation, truncation)
        summary = _assert_audit_matches_the_svd_reference(inst)
        assert summary["defect_dim_doubled"] == summary["defect_dim"] > 0
        checked += 1
    assert checked == workloads.DEFECT_SUITE_SIZE // len(workloads.FAMILIES)


def test_zero_symbol_audit_of_an_empty_perturbation():
    inst = Instance(ZeroSymbol(), PerturbationSpec(()), N)
    summary = _assert_audit_matches_the_svd_reference(inst)
    assert inst.doubled.kernel.degenerate and svd_kernel(inst.doubled).degenerate
    assert summary["kernel_dim_doubled"] == N and summary["defect_dim_doubled"] == 0


def test_zero_symbol_audit_when_every_kernel_member_vanishes_at_zero():
    u = AnalyticSeries.monomial(0, N)
    v = AnalyticSeries.from_coeffs([0.5, 1.0, -0.3j, 0.2], N)
    inst = Instance(ZeroSymbol(), PerturbationSpec(((u, v),)), N)
    summary = _assert_audit_matches_the_svd_reference(inst)
    # u_1 = 1 makes the kernel {x : x(0) = 0}, so vanish_at_zero keeps all of it.
    assert inst.doubled.vanishing.dim == inst.doubled.kernel.dim == N - 1
    assert summary["defect_dim_doubled"] == 1


def test_zero_symbol_audit_with_v_norms_a_million_apart():
    pert = seeded_perturbation(np.random.default_rng(808), N, rank=2, max_degree=6)
    (u1, v1), (u2, v2) = pert.terms
    terms = ((u1, v1 * (1.0 / v1.norm())), (u2, v2 * (1e-6 / v2.norm())))
    inst = Instance(ZeroSymbol(), PerturbationSpec(terms), N)
    # The N-wide reference SVD resolves the weak direction only to about
    # eps * s0 / s1 = 1e-10, so the range sides agree to that, not to 1e-12.
    summary = _assert_audit_matches_the_svd_reference(inst, angle_tol=1e-9)
    assert summary["kernel_codim_doubled"] == 2


@pytest.mark.parametrize("case", ["u-beyond-the-window", "v-below-the-cut"])
def test_zero_complement_matches_the_svd_complement_when_the_window_loses_rank(case):
    # At the working order the window can lose a direction: a u_i supported
    # beyond it, or a v_i below the cut, leaves rank 1 of r = 2.  The cut
    # reads B = V R_u^H, whose values are the window's.
    pert = seeded_perturbation(np.random.default_rng(909), N, rank=2, max_degree=6)
    (a, v1), (c, v2) = pert.terms
    beyond = AnalyticSeries.monomial(N // 2 + 3, N)
    if case == "u-beyond-the-window":
        terms = ((a, v1), (beyond, v2))
    else:
        # Orthonormal u_i whose window parts are not orthogonal, so R_u is
        # not diagonal, and the strong term is the second one.
        u1 = (a + beyond) * (1 / np.sqrt(2))
        u2 = a * 0.5j + c * (1 / np.sqrt(2)) + beyond * -0.5j
        terms = ((u1, v1 * (1e-12 * v2.norm() / v1.norm())), (u2, v2))
    inst = Instance(ZeroSymbol(), PerturbationSpec(terms), N)
    comp, reference = inst.zero_complement, svd_kernel(inst).complement
    assert comp.shape == reference.shape == (N // 2, 1)
    assert np.linalg.norm(comp @ comp.conj().T - reference @ reference.conj().T) <= 1e-12

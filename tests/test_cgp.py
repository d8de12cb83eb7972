"""Slot-coefficient kernel representations: frames, membership, round trips."""

import numpy as np
import pytest

from conftest import linalg_calls, seeded_perturbation
from neartoep import cgp
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.cgp import (
    build_cgp_frame,
    build_monomial_split_frame,
    monomial_split_expected_kernel,
    remark_projection_direct,
    remark_projection_formula,
    verify_corollary,
    w_theta,
)
from neartoep.defects import Instance
from neartoep.errors import HypothesisViolationError, InputError
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    PerturbationSpec,
    TrigPolySymbol,
    ZeroSymbol,
    perturbed_matrix,
    symbol_fourier,
    toeplitz_matrix,
)
from neartoep.series import (
    AnalyticSeries,
    LaurentSeries,
    backshift,
    inner_product,
    multiply_analytic,
    reproducing_kernel,
    shift,
)
from neartoep.subspaces import kernel_subspace, principal_angles

CLOSED_FORM_TOL = 1e-12
FORMULA_TOL = 1e-10
GAP_FLOOR = 1e-3
N = 64
INNER = 24


def unit(coeffs, n=N):
    f = AnalyticSeries.from_coeffs(coeffs, n)
    return f * (1.0 / f.norm())


def rank_one(u, v):
    return PerturbationSpec(((u, v),))


def binomial_direction(k, n=N):
    arr = np.zeros(n, dtype=np.complex128)
    arr[0] = arr[k] = 1.0 / np.sqrt(2.0)
    return AnalyticSeries(arr, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_binomial_direction_closed_forms(k):
    u = binomial_direction(k)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N, INNER)
    assert frame.branch == "full"
    # f0 = (1 - z^k)/2
    want_f0 = np.zeros(N, dtype=np.complex128)
    want_f0[0], want_f0[k] = 0.5, -0.5
    assert np.max(np.abs(frame.f0.coeffs - want_f0)) < CLOSED_FORM_TOL
    vectors = dict(frame.constraint_vectors)
    # v0 = z^k/(2 sqrt 2), v1 = z^(k-1)/2
    want_v0 = np.zeros(N, dtype=np.complex128)
    want_v0[k] = 1.0 / (2.0 * np.sqrt(2.0))
    want_v1 = np.zeros(N, dtype=np.complex128)
    want_v1[k - 1] = 0.5
    assert np.max(np.abs(vectors["v0"].coeffs - want_v0)) < CLOSED_FORM_TOL
    assert np.max(np.abs(vectors["v1"].coeffs - want_v1)) < CLOSED_FORM_TOL


def test_kernel_point_direction_closed_forms():
    alpha = 0.5
    u = reproducing_kernel(alpha, N, normalized=True)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N, INNER)
    # f0 = conj(alpha) (alpha - z)/(1 - conj(alpha) z), here alpha real
    b = blaschke_expand(BlaschkeProduct.from_points([alpha]), N)
    assert np.max(np.abs(frame.f0.coeffs - alpha * b.coeffs)) < CLOSED_FORM_TOL
    vectors = dict(frame.constraint_vectors)
    assert vectors["v0"].norm() < CLOSED_FORM_TOL
    want_v1 = alpha * reproducing_kernel(alpha, N).coeffs
    assert np.max(np.abs(vectors["v1"].coeffs - want_v1)) < CLOSED_FORM_TOL


def test_constant_direction_constraints_are_vacuous():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 0.5], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N, INNER)
    assert frame.branch == "vanishing-projection"
    assert frame.isometric
    rng = np.random.default_rng(2)
    arbitrary = AnalyticSeries(
        rng.standard_normal(N) + 1j * rng.standard_normal(N), N
    )
    clauses = cgp._stack_clauses(frame, N)
    assert cgp._clause_violation(clauses, arbitrary.coeffs[:, None])[0] < 1e-12


def test_decompose_shifted_space_recovers_coefficients():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 0.5], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N, INNER)
    q = AnalyticSeries.from_coeffs([1.0, -2.0, 3j], N)
    f = shift(q)
    solution, fit, _ = cgp._reverse_fit(
        frame, f.coeffs[:, None], INNER, 1e-9, cgp.CONSTRAINT_TOL
    )
    assert fit[0] < 1e-12
    assert np.max(np.abs(solution[:4, 0] - q.coeffs[:4])) < 1e-10


def test_decompose_f0_fits_exactly():
    u = binomial_direction(2)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N, INNER)
    solution, fit, violation = cgp._reverse_fit(
        frame, frame.f0.coeffs[:, None], INNER, 1e-9, cgp.CONSTRAINT_TOL
    )
    assert fit[0] < 1e-12 and violation[0] < cgp.CONSTRAINT_TOL
    rebuilt = np.hstack([m[:, :INNER] for m in frame.slot_maps]) @ solution[:, 0]
    assert np.max(np.absolute(rebuilt - frame.f0.coeffs)) < 1e-10


def _inner_line_instance(n, head):
    # v = kappa * theta * p with kappa tuned so 1 + <T_conj(theta) v, u> = 0
    theta = BlaschkeProduct(z_power=1)
    theta_exp = blaschke_expand(theta, n)
    p = AnalyticSeries.from_coeffs(head, n)
    u = unit([1.0, 0.2, 0.1], n)
    kappa = -1.0 / complex(inner_product(p, u))
    v = kappa * multiply_analytic(theta_exp, p)
    return InnerSymbol(theta), rank_one(u, v)


def test_inner_line_membership_follows_constant_times_zero():
    sym, pert = _inner_line_instance(N, [1.0, 0.5])
    frame = build_cgp_frame(sym, pert, N, INNER)
    assert frame.branch == "nonvanishing-mean"
    clauses = cgp._stack_clauses(frame, N)
    assert clauses.shape[1] == 2 * N
    const = AnalyticSeries.from_coeffs([2.0], N).coeffs
    zero = AnalyticSeries.zero(N).coeffs
    z_slot = AnalyticSeries.from_coeffs([0, 1.0], N).coeffs
    tuples = np.column_stack([np.concatenate(t) for t in ((const, zero), (zero, z_slot))])
    member, outsider = cgp._clause_violation(clauses, tuples)
    assert member < cgp.CONSTRAINT_TOL
    assert outsider > 0.1


def test_trivial_branch_reports_empty_kernel():
    theta = BlaschkeProduct(z_power=1)
    u = unit([1.0, 0.3], N)
    v = multiply_analytic(blaschke_expand(theta, N), AnalyticSeries.from_coeffs([1.0, 0.5], N))
    rep = verify_corollary(InnerSymbol(theta), rank_one(u, v), N, INNER)
    assert rep.branch == "trivial-kernel"
    assert rep.kernel_dim == 0
    assert rep.passed


def test_verify_corollary_isometric_case_checks_norm_identity():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 0.5], N)
    rep = verify_corollary(ZeroSymbol(), rank_one(u, v), N, INNER)
    assert rep.passed
    assert rep.norm_identity_max_error is not None
    assert rep.norm_identity_max_error < 1e-10
    assert rep.backshift_max_violation < 1e-8


def test_verify_corollary_binomial_case_passes_bidirectionally():
    u = binomial_direction(3)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    rep = verify_corollary(ZeroSymbol(), rank_one(u, v), N, INNER)
    assert rep.passed
    assert rep.reverse_max_residual < 1e-8
    assert rep.forward_max_residual < 1e-8
    assert rep.constraint_max_violation < 1e-8


def test_rank_two_perturbation_rejected_for_representation():
    u1 = AnalyticSeries.from_coeffs([1.0], N)
    u2 = AnalyticSeries.from_coeffs([0, 1.0], N)
    v1 = AnalyticSeries.from_coeffs([0, 1.0], N)
    v2 = AnalyticSeries.from_coeffs([0, 0, 1.0], N)
    pert = PerturbationSpec(((u1, v1), (u2, v2)))
    with pytest.raises(HypothesisViolationError):
        build_cgp_frame(ZeroSymbol(), pert, N, INNER)
    sym = TrigPolySymbol(LaurentSeries.from_pairs([(1, 1.0), (-1, 1.0)], N))
    with pytest.raises(InputError):
        build_cgp_frame(sym, rank_one(u1, v1), N, INNER)


def _monomial_split_instance(n, m_pow, head=0.0):
    # head != 0 leaves the printed moment family inexact on purpose
    v_coeffs = [head, 0.5, -0.3, 0.2, 0.1]
    v = unit(v_coeffs, n)
    u2 = np.zeros(n, dtype=np.complex128)
    u2[m_pow : m_pow + 4] = [0.4, -0.2, 0.3, 0.1]
    u2 = AnalyticSeries(u2, n)
    u2 = u2 * (np.sqrt(15.0) / 4.0 / u2.norm())
    u = AnalyticSeries.monomial(m_pow - 1, n, 0.25) + u2
    return ConjInnerSymbol(BlaschkeProduct(z_power=m_pow)), rank_one(u, v)


def test_monomial_split_kernel_matches_displayed_span():
    m_pow = 2
    sym, pert = _monomial_split_instance(N, m_pow)
    expected = monomial_split_expected_kernel(m_pow, pert.resized(N), N)
    op = perturbed_matrix(toeplitz_matrix(symbol_fourier(sym, N)), pert.resized(N))
    computed = kernel_subspace(op, 1e-9, column_cap=N // 2)
    assert expected.dim == computed.dim
    assert float(principal_angles(expected, computed).max(initial=0.0)) < 1e-7

    frame = build_monomial_split_frame(m_pow, pert, N, INNER)
    rep = verify_corollary(sym, pert, N, INNER, frame=frame)
    assert rep.passed


def test_split_selector_value():
    theta_exp = blaschke_expand(BlaschkeProduct(z_power=1), 16)
    v = AnalyticSeries.from_coeffs([0, -1.0], 16)
    u = AnalyticSeries.from_coeffs([1.0], 16)
    # u has no part above theta: u_theta = 0, so the selector stays 1
    assert w_theta(theta_exp, v, AnalyticSeries.zero(16)) == pytest.approx(1.0)
    # pairing <theta v, u> shifts the selector by that inner product
    assert w_theta(theta_exp, v, u) == pytest.approx(1.0 + 0.0)


def test_generic_head_gap_persists():
    # nonzero v(0) breaks the printed moment family; the discrepancy is a
    # stable feature of the branch, not a resolution artifact
    sym, pert = _monomial_split_instance(N, 1, head=0.5)

    frame_n = build_monomial_split_frame(1, pert, N, INNER)
    frame_2n = build_monomial_split_frame(1, pert.resized(2 * N), 2 * N, INNER)
    rep_n = verify_corollary(sym, pert, N, INNER, frame=frame_n)
    rep_2n = verify_corollary(sym, pert.resized(2 * N), 2 * N, INNER, frame=frame_2n)
    assert not rep_n.passed and not rep_2n.passed
    assert rep_n.forward_max_residual > GAP_FLOOR
    assert rep_2n.forward_max_residual > GAP_FLOOR
    # the gap does not shrink with resolution
    assert rep_2n.forward_max_residual > 0.5 * rep_n.forward_max_residual


def _orthogonal_split_instance(n=N):
    th = BlaschkeProduct(z_power=3)
    th_exp = blaschke_expand(th, n)
    s = AnalyticSeries.from_coeffs([0.0, 1.0, 0.5], n)
    v = 2.0 * s
    kappa = np.conj(-1.0 / complex(inner_product(v, s)))
    u_theta = kappa * multiply_analytic(th_exp, s)
    u1 = s * (np.sqrt(1.0 - u_theta.norm() ** 2) / s.norm())
    return ConjInnerSymbol(th), rank_one(u1 + u_theta, v)


def test_orthogonal_split_gap_persists():
    rep = verify_corollary(*_orthogonal_split_instance(), N, INNER)
    assert rep.branch == "orthogonal-split"
    assert not rep.passed
    assert rep.forward_max_residual > GAP_FLOOR


def test_remark_projection_formula_matches_direct():
    theta = BlaschkeProduct.from_points([0.3], z_power=1)
    k_theta_dim = theta.degree()
    assert k_theta_dim == 2
    v = AnalyticSeries.from_coeffs([0.2, 1.0], N)
    # g built inside the model space: backshift of the inner function
    g = backshift(blaschke_expand(theta, N))
    mu = 0.7 - 0.2j
    lhs = remark_projection_formula(theta, v, g, mu, N)
    rhs = remark_projection_direct(theta, v, g, mu, N)
    assert (lhs - rhs).norm() < FORMULA_TOL


def _slot_vectors(frame, stacked, cap):
    """Each slot's full-length coefficient vector, zero above the cap."""
    k_vectors = np.zeros((frame.slot_count, frame.truncation), dtype=np.complex128)
    k_vectors[:, :cap] = stacked.reshape(frame.slot_count, cap)
    return k_vectors


def _per_slot_violation(frame, k_vectors):
    """Largest clause residual, clause by clause and slot by slot, over max(1, |tuple|)."""
    worst = 0.0
    for clause in frame.clauses:
        terms = [mat @ k for mat, k in zip(clause.mats, k_vectors) if mat is not None]
        if terms:
            worst = max(worst, float(np.max(np.abs(sum(terms)))))
    return worst / max(1.0, float(np.linalg.norm(k_vectors)))


def _per_column_reverse_fit(frame, targets, cap, rank_tol, constraint_tol):
    """Reference: one lstsq per column, with the clauses applied slot by slot."""
    big = np.hstack([m[:, :cap] for m in frame.slot_maps])

    def violation(stacked):
        return _per_slot_violation(frame, _slot_vectors(frame, stacked, cap))

    null_basis = None
    solutions, fits, violations, refit = [], [], [], 0
    for target in targets.T:
        stacked = np.linalg.lstsq(big, target, rcond=None)[0]
        worst = violation(stacked)
        if worst > constraint_tol:
            refit += 1
            if null_basis is None:
                null_basis = cgp._nullspace(cgp._stack_clauses(frame, cap), rank_tol)
            if null_basis.shape[1]:
                reduced = np.linalg.lstsq(big @ null_basis, target, rcond=None)[0]
                stacked = null_basis @ reduced
                worst = violation(stacked)
        solutions.append(stacked)
        fits.append(np.linalg.norm(big @ stacked - target) / max(1.0, np.linalg.norm(target)))
        violations.append(worst)
    return np.column_stack(solutions), np.array(fits), np.array(violations), refit


def _zero_symbol_binomial():
    return ZeroSymbol(), rank_one(binomial_direction(2), AnalyticSeries.from_coeffs([0, 1.0], N))


@pytest.mark.parametrize(
    "instance",
    [_zero_symbol_binomial, lambda: _monomial_split_instance(N, 2)],
    ids=["zero-symbol", "conj-inner-split"],
)
def test_batched_reverse_fit_matches_per_column_reference(instance):
    # both instances (zero symbol; conj-inner split branch) have columns
    # whose minimum-norm tuple breaks a clause, so the refit path runs too
    sym, pert = instance()
    inst = Instance(sym, pert, N)
    frame = cgp._instance_frame(inst, INNER)
    targets = inst.kernel.frame
    assert targets.shape[1] > 1
    cap = min(N - frame.degree_pad, max(INNER, inst.column_cap))
    args = (frame, targets, cap, inst.rank_tol, cgp.CONSTRAINT_TOL)
    solution, fit, violation = cgp._reverse_fit(*args)
    ref_solution, ref_fit, ref_violation, refit = _per_column_reverse_fit(*args)
    assert refit > 0
    scale = np.linalg.norm(ref_solution, axis=0)
    assert np.all(np.linalg.norm(solution - ref_solution, axis=0) <= 1e-12 * scale)
    assert np.max(np.abs(fit - ref_fit)) < 1e-14
    assert np.max(np.abs(violation - ref_violation)) < 1e-14


def _per_tuple_forward_check(inst, frame, seed):
    """Reference: the forward check one sampled tuple at a time, each slot a
    full-length vector, S* applied to every slot."""
    cap = min(INNER, inst.truncation - frame.degree_pad)
    null_fwd = cgp._nullspace(cgp._stack_clauses(frame, cap), inst.rank_tol)
    k_dim = null_fwd.shape[1]
    samples = [null_fwd[:, j] for j in range(min(k_dim, cgp.SAMPLE_CAP))]
    if k_dim > 1:
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((k_dim, 4)) + 1j * rng.standard_normal((k_dim, 4))
        samples += [col / np.linalg.norm(col) for col in (null_fwd @ mix).T]
    forward, backshift_worst = 0.0, 0.0
    for stacked in samples:
        k_vectors = _slot_vectors(frame, stacked, cap)
        f = sum(mat @ k for mat, k in zip(frame.slot_maps, k_vectors))
        fnorm = np.linalg.norm(f)
        if fnorm > 1e-12:
            forward = max(forward, np.linalg.norm(inst.operator.entries @ f) / fnorm)
        shifted = [np.append(k[1:], 0.0) for k in k_vectors]
        backshift_worst = max(backshift_worst, _per_slot_violation(frame, shifted))
    return forward, backshift_worst, len(samples)


@pytest.mark.parametrize(
    "instance",
    [_zero_symbol_binomial, lambda: _monomial_split_instance(N, 2), _orthogonal_split_instance],
    ids=["zero-symbol", "conj-inner-split", "orthogonal-split-gap"],
)
def test_stacked_forward_check_matches_per_tuple_reference(instance):
    inst = Instance(*instance(), N)
    frame = cgp._instance_frame(inst, INNER)
    rep = cgp.check_corollary(inst, INNER, seed=5)
    forward, backshift_worst, samples = _per_tuple_forward_check(inst, frame, 5)
    assert rep.forward_samples == samples > 1
    assert abs(rep.forward_max_residual - forward) <= 1e-14 * max(1.0, forward)
    assert abs(rep.backshift_max_violation - backshift_worst) < 1e-14


def test_zero_symbol_reverse_fit_makes_at_most_two_lstsq_calls(monkeypatch):
    calls = linalg_calls(monkeypatch, "lstsq")
    sym, pert = _zero_symbol_binomial()
    rep = verify_corollary(sym, pert, N, INNER)
    assert rep.passed and rep.kernel_dim > 2
    # one solve for every kernel column, one for the constrained columns
    assert len(calls) <= 2
    assert calls[0][0][1].shape[1] == rep.kernel_dim


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(a): zero-symbol rank-one data fails the reverse fit "
    "at N = 64 though N = 64 clears the headroom floor (residual 4.6e-3 for "
    "degree 8, 2.1e-5 to 8.1e-3 for degree 4); all pass at N = 128",
)
@pytest.mark.parametrize("seed, degree", [(7, 8)] + [(s, 4) for s in range(6)])
def test_zero_symbol_degree_eight_verifies_at_n64(seed, degree):
    pert = seeded_perturbation(np.random.default_rng(seed), 64, 1, degree)
    assert verify_corollary(ZeroSymbol(), pert, 64).passed

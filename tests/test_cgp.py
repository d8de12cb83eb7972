"""Slot-coefficient kernel representations: frames, membership, round trips."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import count_calls, dense_clause_mats, linalg_calls, seeded_perturbation
from neartoep import cgp, operators
from neartoep.catalogue import run_catalogue
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
# Column cap of the hand-built reverse fits below.
CAP = 24


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
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N)
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
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N)
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
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N)
    assert frame.branch == "vanishing-projection"
    assert frame.isometric
    rng = np.random.default_rng(2)
    arbitrary = AnalyticSeries(
        rng.standard_normal(N) + 1j * rng.standard_normal(N), N
    )
    clauses = cgp._stack_clauses(frame, N)
    assert cgp._clause_violation(clauses, arbitrary.coeffs[:, None]) < 1e-12


def test_is_numerically_inner_on_a_blaschke_expansion_and_a_polynomial():
    theta = BlaschkeProduct.from_points([0.5, -0.3j], z_power=1)
    assert cgp.is_numerically_inner(blaschke_expand(theta, N))
    # unit norm, but |0.6 + 0.8i z| runs from 0.2 to 1.4 on the circle
    assert not cgp.is_numerically_inner(AnalyticSeries.from_coeffs([0.6, 0.8j], N))


def test_decompose_shifted_space_recovers_coefficients():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 0.5], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N)
    q = AnalyticSeries.from_coeffs([1.0, -2.0, 3j], N)
    f = shift(q)
    solution, fit, _ = cgp._reverse_fit(frame, f.coeffs[:, None], CAP, 1e-9)
    assert fit < 1e-12
    assert np.max(np.abs(solution[:4, 0] - q.coeffs[:4])) < 1e-10


def test_decompose_f0_fits_exactly():
    u = binomial_direction(2)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    frame = build_cgp_frame(ZeroSymbol(), rank_one(u, v), N)
    solution, fit, violation = cgp._reverse_fit(frame, frame.f0.coeffs[:, None], CAP, 1e-9)
    assert fit < 1e-12 and violation < cgp.CONSTRAINT_TOL
    rebuilt = cgp._tuple_space(frame, CAP, 1e-9)[2] @ solution[:, 0]
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
    frame = build_cgp_frame(sym, pert, N)
    assert frame.branch == "nonvanishing-mean"
    clauses = cgp._stack_clauses(frame, N)
    assert clauses.shape[1] == 2 * N
    const = AnalyticSeries.from_coeffs([2.0], N).coeffs
    zero = AnalyticSeries.zero(N).coeffs
    z_slot = AnalyticSeries.from_coeffs([0, 1.0], N).coeffs
    tuples = np.column_stack([np.concatenate(t) for t in ((const, zero), (zero, z_slot))])
    member, outsider = (cgp._clause_violation(clauses, t[:, None]) for t in tuples.T)
    assert member < cgp.CONSTRAINT_TOL
    assert outsider > 0.1


def test_trivial_branch_reports_empty_kernel():
    theta = BlaschkeProduct(z_power=1)
    u = unit([1.0, 0.3], N)
    v = multiply_analytic(blaschke_expand(theta, N), AnalyticSeries.from_coeffs([1.0, 0.5], N))
    rep = verify_corollary(InnerSymbol(theta), rank_one(u, v), N)
    assert rep.branch == "trivial-kernel"
    assert rep.kernel_dim == 0
    assert rep.passed


def test_verify_corollary_isometric_case_checks_norm_identity():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 0.5], N)
    rep = verify_corollary(ZeroSymbol(), rank_one(u, v), N)
    assert rep.passed
    assert rep.norm_identity_max_error is not None
    assert rep.norm_identity_max_error < 1e-10
    assert rep.backshift_max_violation < 1e-8


def test_verify_corollary_binomial_case_passes_bidirectionally():
    u = binomial_direction(3)
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    rep = verify_corollary(ZeroSymbol(), rank_one(u, v), N)
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
        build_cgp_frame(ZeroSymbol(), pert, N)
    sym = TrigPolySymbol(LaurentSeries.from_pairs([(1, 1.0), (-1, 1.0)], N))
    with pytest.raises(InputError):
        build_cgp_frame(sym, rank_one(u1, v1), N)


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

    frame = build_monomial_split_frame(m_pow, pert, N)
    rep = verify_corollary(sym, pert, N, frame=frame)
    assert rep.passed


def test_split_selector_value():
    theta_exp = blaschke_expand(BlaschkeProduct(z_power=1), 16)
    v = AnalyticSeries.from_coeffs([0, -1.0], 16)
    u = AnalyticSeries.from_coeffs([1.0], 16)
    # u has no part above theta: u_theta = 0, so the selector stays 1
    theta_v = multiply_analytic(theta_exp, v)
    assert w_theta(theta_v, AnalyticSeries.zero(16)) == pytest.approx(1.0)
    # pairing <theta v, u> shifts the selector by that inner product
    assert w_theta(theta_v, u) == pytest.approx(1.0 + 0.0)


def test_generic_head_gap_persists():
    # nonzero v(0) breaks the printed moment family; the discrepancy is a
    # stable feature of the branch, not a resolution artifact
    sym, pert = _monomial_split_instance(N, 1, head=0.5)

    frame_n = build_monomial_split_frame(1, pert, N)
    frame_2n = build_monomial_split_frame(1, pert.resized(2 * N), 2 * N)
    rep_n = verify_corollary(sym, pert, N, frame=frame_n)
    rep_2n = verify_corollary(sym, pert.resized(2 * N), 2 * N, frame=frame_2n)
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
    rep = verify_corollary(*_orthogonal_split_instance(), N)
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


def _full_length(frame, stacked, cap):
    """The stacked tuples with every slot block zero-padded from cap to N."""
    blocks = stacked.reshape(frame.slot_count, cap, -1)
    full = np.zeros((frame.slot_count, frame.truncation, blocks.shape[2]), dtype=np.complex128)
    full[:, :cap] = blocks
    return full.reshape(frame.slot_count * frame.truncation, -1)


def _per_column_reverse_fit(frame, targets, cap, rank_tol):
    """Reference: one constrained lstsq per column on the clause nullspace,
    with the clauses applied to every tuple zero-padded to N coefficients
    per slot.  Returns the solutions, the residual block and the clause
    residual block."""
    _, null_basis, big = cgp._tuple_space(frame, cap, rank_tol)
    clauses_n = cgp._stack_clauses(frame, frame.truncation)
    solutions, residuals = [], []
    for target in targets.T:
        reduced = np.linalg.lstsq(big @ null_basis, target, rcond=None)[0]
        stacked = null_basis @ reduced
        solutions.append(stacked)
        residuals.append(big @ stacked - target)
    solution = np.column_stack(solutions)
    return solution, np.column_stack(residuals), clauses_n @ _full_length(frame, solution, cap)


def _zero_symbol_binomial():
    return ZeroSymbol(), rank_one(binomial_direction(2), AnalyticSeries.from_coeffs([0, 1.0], N))


@pytest.mark.parametrize(
    "instance",
    [_zero_symbol_binomial, lambda: _monomial_split_instance(N, 2)],
    ids=["zero-symbol", "conj-inner-split"],
)
def test_batched_reverse_fit_matches_per_column_reference(instance):
    # both instances (zero symbol; conj-inner split branch) have several
    # kernel columns and a nontrivial clause family
    sym, pert = instance()
    inst = Instance(sym, pert, N)
    frame = cgp._instance_frame(inst)
    targets = inst.kernel.frame
    assert targets.shape[1] > 1
    cap = min(N - frame.degree_pad, max(cgp.MOMENT_DEPTH, inst.column_cap))
    args = (frame, targets, cap, inst.rank_tol)
    solution, fit, violation = cgp._reverse_fit(*args)
    ref_solution, residuals, clause_residuals = _per_column_reverse_fit(*args)
    scale = np.linalg.norm(ref_solution, axis=0)
    assert np.all(np.linalg.norm(solution - ref_solution, axis=0) <= 1e-12 * scale)
    assert abs(fit - np.linalg.norm(residuals, 2)) < 1e-14
    ref_violation = np.linalg.norm(clause_residuals, 2) / max(1.0, np.linalg.norm(ref_solution, 2))
    assert abs(violation - ref_violation) < 1e-14


def _per_tuple_forward_check(inst, frame):
    """Reference: the forward check one nullspace column at a time, each slot
    a full-length vector, S* applied to every slot; the residuals are 2-norms
    over an orthonormal frame of the images and over all shifted tuples."""
    n = inst.truncation
    cap = min(cgp.MOMENT_DEPTH, n - frame.degree_pad)
    null_fwd = cgp._tuple_space(frame, cap, inst.rank_tol)[1]
    clauses_n, _, big_n = cgp._tuple_space(frame, n, inst.rank_tol)
    images, shifted_residuals = [], []
    for stacked in null_fwd.T:
        k_vectors = _full_length(frame, stacked, cap).reshape(frame.slot_count, n)
        images.append(big_n @ k_vectors.reshape(-1))
        shifted = [np.append(k[1:], 0.0) for k in k_vectors]
        shifted_residuals.append(clauses_n @ np.concatenate(shifted))
    image_frame = scipy.linalg.orth(np.column_stack(images))
    forward = np.linalg.norm(inst.operator.entries @ image_frame, 2)
    backshift_worst = np.linalg.norm(np.column_stack(shifted_residuals), 2)
    return forward, backshift_worst, null_fwd.shape[1]


@pytest.mark.parametrize(
    "instance",
    [_zero_symbol_binomial, lambda: _monomial_split_instance(N, 2), _orthogonal_split_instance],
    ids=["zero-symbol", "conj-inner-split", "orthogonal-split-gap"],
)
def test_stacked_forward_check_matches_per_tuple_reference(instance):
    inst = Instance(*instance(), N)
    frame = cgp._instance_frame(inst)
    rep = cgp.check_corollary(inst)
    forward, backshift_worst, k_dim = _per_tuple_forward_check(inst, frame)
    assert rep.k_dim_sampled == k_dim > 1
    assert abs(rep.forward_max_residual - forward) <= 1e-14 * max(1.0, forward)
    assert abs(rep.backshift_max_violation - backshift_worst) < 1e-14


def test_forward_check_does_not_depend_on_the_nullspace_basis(monkeypatch):
    # the known-gap row's data; a check that samples basis columns and
    # random mixes reads 0.69 here and 0.70 to 0.77 under these rotations
    inst = Instance(*_orthogonal_split_instance(128), 128)
    base = cgp.check_corollary(inst)
    nullspace = cgp.null_space
    rng = np.random.default_rng(11)

    def rotated(matrix, rank_tol):
        basis, svals, cut = nullspace(matrix, rank_tol)
        k = basis.shape[1]
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        return basis @ q, svals, cut

    monkeypatch.setattr(cgp, "null_space", rotated)
    for _ in range(3):
        rep = cgp.check_corollary(inst)
        for name in ("forward_max_residual", "backshift_max_violation"):
            want, got = getattr(base, name), getattr(rep, name)
            assert abs(got - want) <= 1e-12 * max(1.0, want), name
    assert base.forward_max_residual > 0.99


def test_zero_symbol_reverse_fit_makes_one_lstsq_call(monkeypatch):
    calls = linalg_calls(monkeypatch, "lstsq")
    sym, pert = _zero_symbol_binomial()
    rep = verify_corollary(sym, pert, N)
    assert rep.passed and rep.kernel_dim > 2
    # one solve on the clause nullspace serves every kernel column
    assert len(calls) == 1
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


def _moment_rows_read_in_full(frame, cap):
    """The frame's moment clause at every row r that reads its slots in full
    on tuples supported on [0, cap): r + deg v_j < cap for each slot j.

    Row 0 of ip_family_clause holds conj(v_j) in slot j, so the vectors are
    read back from the frame's own clause, stacked at full width.
    """
    n = frame.truncation
    clause = next(c for c in frame.clauses if c.label == "moment-family")
    row0 = cgp._stack_clauses(dataclasses.replace(frame, clauses=(clause,)), n)[0]
    vectors = [
        None if g is None else AnalyticSeries(row0[j * n : (j + 1) * n].conj(), n)
        for j, g in enumerate(clause.symbols)
    ]
    depth = cap - max(v.degree() for v in vectors if v is not None)
    full = cgp.ip_family_clause(vectors, depth)
    return cgp._stack_clauses(dataclasses.replace(frame, clauses=(full,)), cap)


def _zero_symbol_catalogue_generic(n):
    u = unit([1.0, 0.5, -0.25, 0.2], n)
    return rank_one(u, AnalyticSeries.from_coeffs([0.3, -0.4, 0.25, 0.1, 0.05], n))


def _zero_symbol_catalogue_binomial(n):
    u = AnalyticSeries.from_coeffs([1 / np.sqrt(2.0), 0.0, 1 / np.sqrt(2.0)], n)
    return rank_one(u, AnalyticSeries.from_coeffs([0.3, 0.2, -0.4, 0.15], n))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 1(a) and 3: the moment rows stop at MOMENT_DEPTH = 48 "
    "while the reverse fit reads tuples on 64 coefficients at N = 128, so the "
    "fitted tuples break the deeper rows (0.21 to 0.87) though the check passes",
)
def test_reverse_fit_tuples_meet_every_moment_row_they_read_in_full():
    n = 128
    perts = {
        "rep-annihilator-generic": _zero_symbol_catalogue_generic(n),
        "rep-annihilator-binomial-direction": _zero_symbol_catalogue_binomial(n),
        "seeded degree 4": seeded_perturbation(np.random.default_rng(0), n, 1, 4),
    }
    worst = {}
    for name, pert in perts.items():
        inst = Instance(ZeroSymbol(), pert, n)
        assert cgp.check_corollary(inst).passed, name
        frame = cgp._instance_frame(inst)
        cap = min(n - frame.degree_pad, max(cgp.MOMENT_DEPTH, inst.column_cap))
        solution = cgp._reverse_fit(frame, inst.kernel.frame, cap, inst.rank_tol)[0]
        rows = _moment_rows_read_in_full(frame, cap)
        worst[name] = cgp._clause_violation(rows, solution)
    assert all(v < cgp.CONSTRAINT_TOL for v in worst.values()), worst


CLAUSE_BUILDERS = (
    "ip_family_clause",
    "model_membership_clause",
    "constant_value_clause",
    "zero_slot_clause",
)


@pytest.mark.parametrize("n", [64, 128])
def test_catalogue_blocks_match_the_dense_construction(monkeypatch, n):
    """Every slot-map and clause block the catalogue's checks build at their
    column caps equals the dense construction cut to the cap: exactly, and
    the model-space blocks T_{conj(theta) f} to round-off, since the dense
    product T_conj(theta) T_f sums in another order."""
    built = {}
    for name in CLAUSE_BUILDERS:

        def recorded(*args, _name=name, _original=getattr(cgp, name)):
            clause = _original(*args)
            built[id(clause)] = (_name, args)
            return clause

        monkeypatch.setattr(cgp, name, recorded)
    spaces = []
    tuple_space = cgp._tuple_space

    def recorded_space(frame, cap, rank_tol):
        out = tuple_space(frame, cap, rank_tol)
        spaces.append((frame, cap, out[0], out[2]))
        return out

    monkeypatch.setattr(cgp, "_tuple_space", recorded_space)
    run_catalogue(n)
    assert spaces
    model_gap = 0.0
    for frame, cap, clauses, big in spaces:
        assert cap < n
        want_big = np.hstack([toeplitz_matrix(g).entries[:, :cap] for g in frame.slot_maps])
        assert np.array_equal(big, want_big)
        row = 0
        for clause in frame.clauses:
            mats = dense_clause_mats(*built[id(clause)])
            if all(m is None for m in mats):
                continue
            height = next(m.shape[0] for m in mats if m is not None)
            want = np.hstack([
                np.zeros((height, cap), dtype=np.complex128) if m is None else m[:, :cap]
                for m in mats
            ])
            got = clauses[row : row + height]
            row += height
            if clause.label == "model-space":
                model_gap = max(model_gap, float(np.max(np.abs(got - want))))
            else:
                assert np.array_equal(got, want), clause.label
        assert row == clauses.shape[0]
    assert model_gap < 1e-13


def test_catalogue_builds_no_full_width_toeplitz_block(monkeypatch):
    blocks = count_calls(monkeypatch, operators, "toeplitz_block")
    matrices = count_calls(monkeypatch, operators, "toeplitz_matrix")
    run_catalogue(64)
    assert blocks
    assert all(args[2] < 64 for args, _ in blocks)
    assert not matrices


REVERSE_FIELDS = ("reverse_max_residual", "constraint_max_violation", "norm_identity_max_error")


def test_reverse_numbers_do_not_depend_on_the_kernel_basis(monkeypatch):
    """Every rep-* row read again with its kernel frame turned by a seeded
    random unitary: the reverse-direction numbers are spectral norms over
    the frame, so they stay put, and so does every verdict."""
    base = {row.row_id: row for row in run_catalogue(64)}
    kernel = Instance.kernel
    rng = np.random.default_rng(3)

    def rotated(inst):
        m = kernel.fget(inst)
        k = m.dim
        gauss = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return dataclasses.replace(m, frame=m.frame @ np.linalg.qr(gauss)[0])

    monkeypatch.setattr(Instance, "kernel", property(rotated))
    turned = {row.row_id: row for row in run_catalogue(64)}
    rep_rows = [row_id for row_id in base if row_id.startswith("rep-")]
    assert rep_rows
    for row_id, row in base.items():
        assert turned[row_id].passed == row.passed, row_id
    for row_id in rep_rows:
        want = base[row_id].details["representation"]
        got = turned[row_id].details["representation"]
        assert got["passed"] == want["passed"], row_id
        for name in REVERSE_FIELDS:
            if want[name] is None:
                assert got[name] is None, (row_id, name)
            else:
                assert abs(got[name] - want[name]) <= 1e-13, (row_id, name)
    constant = base["rep-annihilator-constant-direction"].details["representation"]
    assert constant["norm_identity_max_error"] is not None

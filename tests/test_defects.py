"""Near backward-shift invariance: predicted defect spaces and witnesses."""

import numpy as np
import pytest

from conftest import (
    count_calls,
    disk_invertible_poly,
    random_blaschke,
    seeded_perturbation,
)
from neartoep import defects, operators, series, subspaces
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.defects import (
    Instance,
    WitnessEntry,
    WitnessReport,
    check_defect_theorem,
    defect_witness,
    defect_witnesses,
    lambda_set,
    model_space,
    theorem_defect_bound,
    theorem_defect_space,
    verify_defect_theorem,
)
from neartoep.errors import HypothesisViolationError, InputError
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    TrigPolySymbol,
    ZeroSymbol,
    apply,
    symbol_fourier,
    toeplitz_matrix,
)
from neartoep.series import (
    AnalyticSeries,
    LaurentSeries,
    backshift,
    conj_on_circle,
    embed,
    inner_product,
    multiply,
    multiply_analytic,
    riesz_project,
    shift,
)
from neartoep.subspaces import contains, kernel_subspace, principal_angles, span

CONTAINMENT_TOL = 1e-7
WITNESS_TOL = 1e-8
ANGLE_TOL = 1e-10
N = 64


def unit(coeffs, n=N):
    f = AnalyticSeries.from_coeffs(coeffs, n)
    return f * (1.0 / f.norm())


def test_model_space_dimension_equals_degree():
    assert model_space(BlaschkeProduct(z_power=3), N).dim == 3
    theta = BlaschkeProduct.from_points([0.4, -0.2 + 0.1j], z_power=1)
    assert model_space(theta, N).dim == 3


def test_monomial_model_space_is_low_degree_polynomials():
    m = model_space(BlaschkeProduct(z_power=2), N)
    poly = span([AnalyticSeries.monomial(j, N) for j in range(2)], N)
    assert float(principal_angles(m, poly).max(initial=0.0)) < ANGLE_TOL


def test_backshifted_inner_function_lies_in_model_space():
    theta = BlaschkeProduct.from_points([0.5, -0.3], z_power=1)
    k_theta = model_space(theta, 128)
    s_theta = backshift(blaschke_expand(theta, 128))
    ok, resid = contains(k_theta, s_theta, 1e-8)
    assert ok, resid


def test_lambda_set_tracks_divisibility():
    theta = BlaschkeProduct(z_power=2)
    theta_exp = blaschke_expand(theta, N)
    divisible = multiply_analytic(theta_exp, unit([0.5, 1.0]))
    mixed = unit([1.0, 0.25])
    k_theta = model_space(theta, N)
    assert lambda_set(k_theta, [divisible]) == set()
    assert lambda_set(k_theta, [mixed]) == {1}
    assert lambda_set(k_theta, [divisible, mixed]) == {2}


def test_zero_symbol_defect_space_is_the_pairing_span():
    u = unit([1.0, 0.5, -0.25])
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    pert = PerturbationSpec(((u, v),))
    f = theorem_defect_space(Instance(ZeroSymbol(), pert, N))
    want = span([u], N)
    assert f.dim == 1
    assert float(principal_angles(f, want).max()) < ANGLE_TOL
    assert theorem_defect_bound(Instance(ZeroSymbol(), pert, N)) == 1


def test_monomial_symbol_defect_space_is_shifted_replacement():
    m = 2
    u = unit([1.0])
    v = AnalyticSeries.from_coeffs([0.5, 0, 0, 0, 1.0], N)
    pert = PerturbationSpec(((u, v),))
    sym = InnerSymbol(BlaschkeProduct(z_power=m))
    f = theorem_defect_space(Instance(sym, pert, N))
    shifted = v
    for _ in range(m + 1):
        shifted = backshift(shifted)
    assert float(principal_angles(f, span([shifted], N)).max()) < ANGLE_TOL


def test_conj_inner_bound_counts_model_components():
    theta = BlaschkeProduct(z_power=2)
    theta_exp = blaschke_expand(theta, N)
    u_div = multiply_analytic(theta_exp, unit([1.0, 0.3]))
    u_div = u_div * (1.0 / u_div.norm())
    u_mix = unit([1.0, 0, 0, 0.2])
    u_mix = u_mix - u_div * complex(np.vdot(u_div.coeffs, u_mix.coeffs))
    u_mix = u_mix * (1.0 / u_mix.norm())
    v1 = AnalyticSeries.from_coeffs([0, 1.0], N)
    v2 = AnalyticSeries.from_coeffs([0, 0, 0, 0.5], N)
    sym = ConjInnerSymbol(theta)
    pert_div = PerturbationSpec(((u_div, v1),))
    assert theorem_defect_bound(Instance(sym, pert_div, N)) == 1
    pert_both = PerturbationSpec(((u_div, v1), (u_mix, v2)))
    assert theorem_defect_bound(Instance(sym, pert_both, N)) == 3


def test_witness_validates_its_hypotheses():
    u = unit([1.0])
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    pert = PerturbationSpec(((u, v),))
    nonvanishing = AnalyticSeries.from_coeffs([1.0, 1.0], N)
    with pytest.raises(HypothesisViolationError):
        defect_witness(Instance(ZeroSymbol(), pert, N), nonvanishing)
    outside = AnalyticSeries.from_coeffs([0, 1.0], N)  # <z, 1> = 0 but R z = v != 0
    with pytest.raises(HypothesisViolationError):
        defect_witness(Instance(InnerSymbol(BlaschkeProduct(z_power=1)), pert, N), outside)


def test_batched_witnesses_reject_a_frame_with_one_bad_column():
    pert = seeded_perturbation(np.random.default_rng(101), N, rank=2, max_degree=6)
    inst = Instance(ZeroSymbol(), pert, N)
    first, last = inst.vanishing.frame[:, 0], inst.vanishing.frame[:, 1]
    kernel = inst.kernel.frame
    at_zero = kernel[:, np.argmax(np.abs(kernel[0]))]  # in the kernel, h(0) != 0
    assert abs(at_zero[0]) > 1e-3
    with pytest.raises(HypothesisViolationError, match=r"h\(0\) = 0"):
        defect_witnesses(inst, np.column_stack([first, at_zero, last]))
    outside = AnalyticSeries.monomial(1, N).coeffs  # vanishes at 0, R z = sum v_i conj(u_i[1])
    assert np.linalg.norm(inst.operator.entries @ outside) > 1e-3
    with pytest.raises(HypothesisViolationError, match="kernel"):
        defect_witnesses(inst, np.column_stack([first, outside, last]))


def test_unsupported_symbol_rejected():
    u = unit([1.0])
    v = AnalyticSeries.from_coeffs([0, 1.0], N)
    pert = PerturbationSpec(((u, v),))
    sym = TrigPolySymbol(LaurentSeries.from_pairs([(-1, 1.0), (2, 1.0)], N))
    with pytest.raises(InputError):
        verify_defect_theorem(sym, pert, N)


CASE_SEEDS = {"zero": 101, "inner": 202, "invertible": 303, "conj_inner": 404}


@pytest.mark.parametrize("case", ["zero", "inner", "invertible", "conj_inner"])
def test_verify_defect_theorem_seeded_instance(case):
    rng = np.random.default_rng(CASE_SEEDS[case])
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    if case == "zero":
        sym = ZeroSymbol()
    elif case == "inner":
        sym = InnerSymbol(random_blaschke(rng))
    elif case == "invertible":
        sym = InvertibleProductSymbol(
            disk_invertible_poly(rng, N), disk_invertible_poly(rng, N)
        )
    else:
        sym = ConjInnerSymbol(random_blaschke(rng, max_degree=2))
    report, witness = verify_defect_theorem(sym, pert, N)
    assert report.bound_from_theorem is not None
    assert report.defect_dim <= report.bound_from_theorem
    assert report.contained_in_theorem_space
    assert report.max_residual_outside_theorem_space < CONTAINMENT_TOL
    assert witness.max_membership_residual < WITNESS_TOL
    assert witness.max_w_in_space_residual < WITNESS_TOL


def test_check_on_an_instance_matches_the_raw_data_wrapper():
    n = 128
    pert = seeded_perturbation(np.random.default_rng(505), n, rank=3, max_degree=6)
    sym = ConjInnerSymbol(BlaschkeProduct.from_points([0.3, -0.4j], z_power=4))
    checked = check_defect_theorem(Instance(sym, pert, n), CONTAINMENT_TOL, WITNESS_TOL)
    verified = verify_defect_theorem(
        sym, pert, n, containment_tol=CONTAINMENT_TOL, witness_tol=WITNESS_TOL
    )
    assert checked[1].entries
    for a, b in zip(checked, verified):
        assert a.to_json_dict() == b.to_json_dict()


def test_conj_inner_check_builds_the_model_space_once(monkeypatch):
    n = 128
    rng = np.random.default_rng(505)
    pert = seeded_perturbation(rng, n, rank=3, max_degree=6)
    sym = ConjInnerSymbol(BlaschkeProduct.from_points([0.3, -0.4j], z_power=4))
    calls = count_calls(monkeypatch, defects, "model_space")
    report, witness = verify_defect_theorem(sym, pert, n)
    assert report.passed and witness.entries
    assert len(calls) == 1


def test_invertible_check_inverts_each_factor_once(monkeypatch):
    rng = np.random.default_rng(303)
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    sym = InvertibleProductSymbol(
        disk_invertible_poly(rng, N), disk_invertible_poly(rng, N)
    )
    calls = count_calls(monkeypatch, series, "taylor_invert")
    report, _ = verify_defect_theorem(sym, pert, N)
    assert report.passed
    assert len(calls) == 2


def test_zero_symbol_check_restricts_the_kernel_to_h0_zero_once(monkeypatch):
    rng = np.random.default_rng(202)
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    calls = count_calls(monkeypatch, subspaces, "vanish_at_zero")
    report, witness = verify_defect_theorem(ZeroSymbol(), pert, N)
    assert report.passed and witness.entries
    assert len(calls) == 1


def test_zero_symbol_check_builds_its_witnesses_without_per_h_calls(monkeypatch):
    pert = seeded_perturbation(np.random.default_rng(202), N, rank=2, max_degree=6)
    applied = count_calls(monkeypatch, operators, "apply")
    paired = count_calls(monkeypatch, series, "inner_product")
    single = count_calls(monkeypatch, defects, "defect_witness")
    report, witness = verify_defect_theorem(ZeroSymbol(), pert, N)
    assert report.passed and witness.entries
    assert (len(applied), len(paired), len(single)) == (0, 0, 0)


def _reference_witness(inst, h):
    """The per-h construction that defect_witnesses batches."""
    n = h.truncation
    terms = inst.perturbation.terms
    if not terms:
        return AnalyticSeries.zero(n)
    if isinstance(inst.symbol, ZeroSymbol):
        sh = backshift(h)
        acc = AnalyticSeries.zero(n)
        for u, _ in terms:
            acc = acc + inner_product(sh, u) * u
        return -acc
    weights = [inner_product(h, u) for u, _ in terms]
    acc = AnalyticSeries.zero(n)
    for wgt, image in zip(weights, inst.shifted_images.T):
        acc = acc + wgt * AnalyticSeries(image, n)
    if not isinstance(inst.symbol, ConjInnerSymbol) or not inst.lambda_set:
        return acc
    psi = multiply(conj_on_circle(inst.theta), embed(backshift(h)))
    for wgt, (_, v) in zip(weights, terms):
        psi = psi + wgt * embed(backshift(v))
    q = inst.negative_frame
    psi1 = LaurentSeries(q @ (q.conj().T @ psi.coeffs), n)
    return acc - riesz_project(multiply(embed(inst.theta), psi1))


def _reference_check(inst):
    """Worst containment residual and per-h (witness, membership, w-in-F)
    triples, computed one column at a time."""
    n, f_space = inst.truncation, inst.defect_space
    joint = span(list(inst.kernel.frame.T) + list(f_space.frame.T), n, inst.rank_tol)
    worst = 0.0
    for col in inst.defect.residual_frame.frame.T:
        worst = max(worst, contains(joint, col, CONTAINMENT_TOL)[1])
    entries = []
    for col in inst.vanishing.frame.T:
        h = AnalyticSeries(col.copy(), n)
        w = _reference_witness(inst, h)
        candidate = backshift(h) + w
        membership = apply(inst.operator, candidate).norm() / max(1.0, candidate.norm())
        w_resid = 0.0 if w.norm() == 0.0 else contains(f_space, w, WITNESS_TOL)[1]
        entries.append((w.coeffs, membership, w_resid))
    return worst, entries


def _kernel_spanned_by(sym, us):
    """Instance whose kernel is span(us): v_i = -T_g u_i, so R = T_g (1 - P_U).

    The T_g u_i must come out pairwise orthogonal; a single u, or an inner
    g (an isometry), ensures that.
    """
    base = toeplitz_matrix(symbol_fourier(sym, N)).entries
    terms = tuple((u, AnalyticSeries(-(base @ u.coeffs), N)) for u in us)
    return Instance(sym, PerturbationSpec(terms), N)


def _equivalence_instance(case):
    rng = np.random.default_rng(CASE_SEEDS.get(case, 606))
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    vanishing_us = [shift(u) for u, _ in pert.terms]
    if case == "zero":
        return Instance(ZeroSymbol(), pert, N)
    if case == "inner":
        theta = BlaschkeProduct.from_points([0.3, -0.2j], z_power=1)
        return _kernel_spanned_by(InnerSymbol(theta), vanishing_us)
    if case == "invertible":
        sym = InvertibleProductSymbol(
            disk_invertible_poly(rng, N), disk_invertible_poly(rng, N)
        )
        return _kernel_spanned_by(sym, vanishing_us[:1])
    if case == "conj_inner":
        theta = BlaschkeProduct.from_points([0.3, -0.4j], z_power=1)
        return Instance(ConjInnerSymbol(theta), pert, N)
    theta = BlaschkeProduct(z_power=2)  # conj_inner with every u_i divisible by theta
    u = multiply_analytic(blaschke_expand(theta, N), unit([1.0, 0.3]))
    pert = PerturbationSpec(((u * (1.0 / u.norm()), AnalyticSeries.monomial(1, N)),))
    return Instance(ConjInnerSymbol(theta), pert, N)


@pytest.mark.parametrize(
    "case", ["zero", "inner", "invertible", "conj_inner", "conj_inner_divisible"]
)
def test_batched_witnesses_match_the_per_h_construction(case):
    inst = _equivalence_instance(case)
    if case.startswith("conj_inner"):
        assert bool(inst.lambda_set) == (case == "conj_inner")
    report, witness = check_defect_theorem(inst, CONTAINMENT_TOL, WITNESS_TOL)
    worst, expected = _reference_check(inst)
    assert report.passed and witness.passed(WITNESS_TOL)
    assert len(witness.entries) == len(expected) > 0
    assert abs(report.max_residual_outside_theorem_space - worst) <= 1e-14
    for entry, (w, membership, w_resid) in zip(witness.entries, expected):
        assert np.linalg.norm(entry.witness.coeffs - w) <= 1e-12 * np.linalg.norm(w)
        assert abs(entry.membership_residual - membership) <= 1e-14
        assert abs(entry.w_in_space_residual - w_resid) <= 1e-14
    h = AnalyticSeries(inst.vanishing.frame[:, 0].copy(), N)
    single = defect_witness(inst, h, WITNESS_TOL).coeffs
    assert np.linalg.norm(single - expected[0][0]) <= 1e-12 * np.linalg.norm(expected[0][0])


def test_trivial_kernel_gives_an_empty_witness_report():
    rng = np.random.default_rng(CASE_SEEDS["inner"])
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    inst = Instance(InnerSymbol(random_blaschke(rng)), pert, N)
    report, witness = check_defect_theorem(inst, CONTAINMENT_TOL, WITNESS_TOL)
    assert inst.kernel.dim == 0 and report.passed
    assert witness.entries == ()
    assert defect_witnesses(inst, inst.vanishing.frame).shape == (N, 0)


def test_witness_pass_rule_is_strict():
    zero = AnalyticSeries.zero(4)
    report = WitnessReport((WitnessEntry(zero, 1e-8, 0.0), WitnessEntry(zero, 0.0, 5e-9)))
    assert not report.passed(1e-8)
    assert report.passed(1.0000001e-8)
    assert not WitnessReport((WitnessEntry(zero, 0.0, 2e-8),)).passed(2e-8)
    assert WitnessReport(()).passed(1e-8)


def test_defect_matches_brute_force_on_small_case():
    # rank-one annihilator perturbation: kernel is the hyperplane u-perp
    u = unit([1.0, 0.5])
    v = AnalyticSeries.from_coeffs([0, 0, 1.0], N)
    pert = PerturbationSpec(((u, v),))
    report, _ = verify_defect_theorem(ZeroSymbol(), pert, N)
    assert report.defect_dim == 1
    from neartoep.operators import perturbed_matrix, symbol_fourier, toeplitz_matrix

    op = perturbed_matrix(toeplitz_matrix(symbol_fourier(ZeroSymbol(), N)), pert)
    m = kernel_subspace(op, 1e-9, column_cap=N // 2)
    # brute force: S* applied to each vanishing basis vector, residual rank
    from neartoep.subspaces import vanish_at_zero

    w = vanish_at_zero(m)
    resid = []
    for j in range(w.dim):
        h = AnalyticSeries(w.frame[:, j].copy(), N)
        sh = backshift(h)
        resid.append(sh.coeffs - m.frame @ (m.frame.conj().T @ sh.coeffs))
    rank = np.linalg.matrix_rank(np.column_stack(resid), tol=1e-9)
    assert rank == report.defect_dim


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the 6th kernel singular value (5.8e-9) sits in "
    "the rank-ambiguity band, so N = 64 reports defect 4 and a residual of "
    "1.2e-3 outside F where N >= 96 reports defect 5 inside it",
)
def test_conj_inner_defect_is_contained_at_n64():
    theta = BlaschkeProduct.from_points([0.3, -0.4j], z_power=4)
    pert = seeded_perturbation(np.random.default_rng(505), 64, 3, 6)
    report, _ = verify_defect_theorem(ConjInnerSymbol(theta), pert, 64)
    assert report.passed

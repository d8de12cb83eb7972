"""Near backward-shift invariance: predicted defect spaces and witnesses."""

import json

import numpy as np
import pytest

from conftest import (
    count_calls,
    disk_invertible_poly,
    random_blaschke,
    seeded_perturbation,
    svd_kernel,
    toeplitz_model_space,
    window_complement,
)
from neartoep import catalogue, cli, defects, operators, series, subspaces
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.defects import (
    WITNESS_KERNEL_TOL,
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
from neartoep.runner import Scenario, run_scenario
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
from neartoep.subspaces import (
    contains,
    kernel_subspace,
    minimal_defect,
    principal_angles,
    span,
    vanish_at_zero,
)

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


@pytest.mark.parametrize(
    "points, n",
    [([0.5, -0.5j, 0.3], 32), ([0.7, -0.7j, 0.3], 32), ([0.9, -0.9j, 0.3], 128)],
)
def test_model_space_keeps_its_dimension_at_low_resolution(points, n):
    # max |a|^N is far above round-off here, and a Toeplitz-kernel cut at
    # this N finds only 2, 1 and 1 of the 3 directions.
    theta = BlaschkeProduct.from_points(points)
    k_theta = model_space(theta, n)
    assert k_theta.dim == 3
    resolved = toeplitz_model_space(theta, 512)
    assert resolved.dim == 3
    reference = span(resolved.frame[:n].T, n)
    assert float(principal_angles(k_theta, reference).max()) < ANGLE_TOL


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


def _seeded_case(case, n=N):
    rng = np.random.default_rng(CASE_SEEDS[case])
    pert = seeded_perturbation(rng, n, rank=2, max_degree=6)
    if case == "zero":
        sym = ZeroSymbol()
    elif case == "inner":
        sym = InnerSymbol(random_blaschke(rng))
    elif case == "invertible":
        sym = InvertibleProductSymbol(
            disk_invertible_poly(rng, n), disk_invertible_poly(rng, n)
        )
    else:
        sym = ConjInnerSymbol(random_blaschke(rng, max_degree=2))
    return sym, pert


@pytest.mark.parametrize(
    "case, n",
    [("zero", N), ("inner", N), ("invertible", N), ("conj_inner", 128)],
    ids=["zero", "inner", "invertible", "conj_inner-128"],
)
def test_verify_defect_theorem_seeded_instance(case, n):
    sym, pert = _seeded_case(case, n)
    report, witness = verify_defect_theorem(sym, pert, n)
    assert report.bound_from_theorem is not None
    assert report.defect_dim <= report.bound_from_theorem
    assert report.contained_in_theorem_space
    assert report.max_residual_outside_theorem_space < CONTAINMENT_TOL
    assert witness.max_membership_residual < WITNESS_TOL
    assert witness.max_w_in_space_residual < WITNESS_TOL
    if case == "conj_inner":
        assert Instance(sym, pert, n).kernel.dim == 2 and witness.entries


def test_seeded_conj_inner_instance_fails_its_witness_check_at_n64(tmp_path):
    # The kernel has dim 2 with a tail of 1.2e-5 beyond the window N/2 = 32,
    # so its window cut is not in the kernel to the witness tolerance: the
    # witness check fails on the kernel residuals (exit 1).  (A window SVD
    # found dim 0 here, and the check passed on no witnesses.)
    sym, pert = _seeded_case("conj_inner")
    inst = Instance(sym, pert, N)
    assert inst.kernel.dim == 2 and inst.structured_kernel.tail > 1e-6
    _, witness = verify_defect_theorem(sym, pert, N)
    assert witness.entries and not witness.passed
    assert witness.max_kernel_residual >= WITNESS_KERNEL_TOL
    path = tmp_path / "conj-inner-n64.json"
    scenario = Scenario(sym, pert, truncation=N, checks=("defect", "witness"))
    path.write_text(json.dumps(scenario.to_json_dict()), encoding="utf-8")
    assert cli.main(["defect", str(path)]) == cli.EXIT_VERIFICATION_FAILED


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
    if case == "trig_poly":
        coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        series = LaurentSeries.from_pairs(zip(range(-5, 6), coeffs), 8)
        return Instance(TrigPolySymbol(series), pert, N)
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
    assert report.passed and witness.passed
    assert len(witness.entries) == len(expected) > 0
    assert abs(report.max_residual_outside_theorem_space - worst) <= 1e-14
    # The report keeps residuals only; the vectors it judged are the batch.
    ws = defect_witnesses(inst, inst.vanishing.frame)
    for j, (entry, (w, membership, w_resid)) in enumerate(zip(witness.entries, expected)):
        assert np.linalg.norm(ws[:, j] - w) <= 1e-12 * np.linalg.norm(w)
        assert abs(entry.membership_residual - membership) <= 1e-14
        assert abs(entry.w_in_space_residual - w_resid) <= 1e-14
    h = AnalyticSeries(inst.vanishing.frame[:, 0].copy(), N)
    single = defect_witness(inst, h, WITNESS_TOL).coeffs
    assert np.linalg.norm(single - expected[0][0]) <= 1e-12 * np.linalg.norm(expected[0][0])


def _joint_span_residuals(inst):
    """Containment residuals of the defect directions from the SVD of the
    joint span [M F]: the reference for the check's M + F residuals."""
    m, f_space = inst.kernel, inst.defect_space
    joint = span(np.hstack((m.frame, f_space.frame)).T, inst.truncation, inst.rank_tol)
    return subspaces.relative_residuals(joint, inst.defect.residual_frame.frame)


FAMILY_CASES = ["zero", "inner", "invertible", "conj_inner"]


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_containment_matches_the_joint_span_reference(case):
    inst = _equivalence_instance(case)
    expected = _joint_span_residuals(inst)
    got = subspaces.residuals_outside_sum(
        inst.kernel, inst.defect_space, inst.defect.residual_frame.frame
    )
    report, _ = check_defect_theorem(inst)
    assert inst.defect.defect_dim == got.size > 0
    assert float(np.max(np.abs(got - expected))) <= 1e-12
    assert abs(report.max_residual_outside_theorem_space - float(expected.max())) <= 1e-12


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_containment_fails_when_f_loses_a_direction(monkeypatch, case):
    assert check_defect_theorem(_equivalence_instance(case))[0].contained_in_theorem_space
    inst = _equivalence_instance(case)
    full = theorem_defect_space(inst)
    reduced = subspaces.Subspace(full.frame[:, 1:], full.truncation, full.rank_tol)
    monkeypatch.setattr(Instance, "defect_space", property(lambda self: reduced))
    report, _ = check_defect_theorem(inst)
    assert report.defect_dim >= 1
    assert not report.contained_in_theorem_space


@pytest.mark.parametrize("empty", [False, True], ids=["seeded", "empty"])
@pytest.mark.parametrize("case", FAMILY_CASES + ["trig_poly"])
def test_apply_matches_the_dense_operator(case, empty):
    inst = _equivalence_instance(case)
    if empty:
        inst = Instance(inst.symbol, PerturbationSpec(()), N)
    rng = np.random.default_rng(909)
    cols = rng.standard_normal((N, 5)) + 1j * rng.standard_normal((N, 5))
    got = inst.apply(cols)
    expected = inst.operator.entries @ cols
    assert got.shape == expected.shape
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("family", [InnerSymbol, ConjInnerSymbol])
def test_theta_is_the_blaschke_expansion_bit_for_bit(family):
    # theta is read off the symbol's Fourier window, not expanded again
    product = BlaschkeProduct.from_points([0.3, -0.4j], z_power=2, const=np.exp(0.7j))
    inst = Instance(family(product), PerturbationSpec(()), N)
    for one in (inst, inst.doubled):
        expected = blaschke_expand(product, one.truncation).coeffs
        assert np.array_equal(one.theta.coeffs, expected)


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_each_instance_reads_the_symbol_fourier_window_once(monkeypatch, case):
    n = 128
    sym, pert = _seeded_case(case, n)
    (u, v), _ = pert.terms
    # one term with a unit v, so every check applies
    scenario = Scenario(sym, PerturbationSpec(((u, v * (1.0 / v.norm())),)), truncation=n)
    calls = count_calls(monkeypatch, operators, "symbol_fourier")
    run_scenario(scenario, stabilize=True)
    # One call per Instance: the four checks share the one at N.  The 2N
    # audit's doubled instance makes its own where it applies a T_g (the
    # unimodular correctors); the zero and invertible audits read no window.
    expected = [n] if case in ("zero", "invertible") else [n, 2 * n]
    assert [args[1] for args, _ in calls] == expected


def _conj_toeplitz_series(f, h):
    """T_conj(f) h as a product of circle series, one vector at a time."""
    return riesz_project(multiply(conj_on_circle(f), embed(h)))


def _reference_corrected(inst, cols):
    """The family's corrector built column by column from series products:
    the reference for Instance's array form."""
    n = inst.truncation
    out = np.zeros(cols.shape, dtype=np.complex128)
    for i, col in enumerate(cols.T):
        h = AnalyticSeries(col, n)
        if isinstance(inst.symbol, InnerSymbol):
            image = _conj_toeplitz_series(inst.theta, h)
        elif isinstance(inst.symbol, InvertibleProductSymbol):
            image = multiply_analytic(inst.f1_inv, _conj_toeplitz_series(inst.f2_inv, h))
        else:
            image = multiply_analytic(inst.theta, h)
        out[:, i] = image.coeffs
    return out


@pytest.mark.parametrize("doubled", [False, True], ids=["N", "2N"])
@pytest.mark.parametrize("case", ["inner", "invertible", "conj_inner"])
def test_array_corrector_matches_the_series_products(case, doubled):
    inst = _equivalence_instance(case)
    empty = Instance(inst.symbol, PerturbationSpec(()), inst.truncation)
    if doubled:
        inst, empty = inst.doubled, empty.doubled
    n = inst.truncation
    u, v = inst.perturbation.u_matrix(n), inst.perturbation.v_matrix(n)
    cv = _reference_corrected(inst, v)
    for got, expected in (
        (inst.corrected_v, cv),
        (inst.shifted_images, _reference_corrected(inst, defects._backshift_columns(v))),
        (empty.corrected_v, _reference_corrected(inst, v[:, :0])),
        (inst.pairing, u.conj().T @ cv),
    ):
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
    assert empty.corrected_v.shape == (n, 0) and empty.pairing.shape == (0, 0)


@pytest.mark.parametrize("case", ["inner", "invertible", "conj_inner"])
def test_corrector_makes_no_series_product_calls(monkeypatch, case):
    inst = _equivalence_instance(case)
    # the corrector's symbol data, read before counting starts
    if isinstance(inst.symbol, InvertibleProductSymbol):
        assert inst.f1_inv.truncation == inst.f2_inv.truncation == N
    else:
        assert inst.theta.truncation == N
    calls = [
        count_calls(monkeypatch, series, name)
        for name in ("multiply", "multiply_analytic", "riesz_project")
    ]
    assert inst.shifted_images.shape == (N, inst.perturbation.rank_bound)
    assert inst.structured_kernel.space.dim > 0
    assert [len(c) for c in calls] == [0, 0, 0]


def _singular_pairing_instance(sym, corrector):
    """Seeded rank-one data with v scaled so that 1 + <C v, u> = 0, C the
    case's corrector.  For an inner symbol v stays outside theta H^2, so
    the kernel is still trivial: only the K^H V block rules the line out."""
    rng = np.random.default_rng(707)
    (u, v), = seeded_perturbation(rng, N, rank=1, max_degree=6).terms
    kappa = -1.0 / complex(inner_product(corrector(v), u))
    return Instance(sym, PerturbationSpec(((u, kappa * v),)), N)


def _structured_instance(case):
    # Zeros well inside the disk (|.| <= 0.3, or 1/f decaying as 0.3^n), so
    # the window N/2 = 32 holds every kernel vector to round-off.
    theta = BlaschkeProduct.from_points([0.3, -0.2j], z_power=1)
    f1 = AnalyticSeries.from_coeffs([1.0, 0.3], N)
    f2 = AnalyticSeries.from_coeffs([1.0, -0.2j], N)
    empty = PerturbationSpec(())
    if case in ("inner", "invertible", "conj_inner"):
        return _equivalence_instance(case)
    if case == "inner-outside-theta-h2":
        th = blaschke_expand(theta, N)
        return _singular_pairing_instance(
            InnerSymbol(theta), lambda v: _conj_toeplitz_series(th, v)
        )
    if case == "invertible-singular-pairing":
        f1_inv, f2_inv = series.taylor_invert(f1), series.taylor_invert(f2)
        return _singular_pairing_instance(
            InvertibleProductSymbol(f1, f2),
            lambda v: multiply_analytic(f1_inv, _conj_toeplitz_series(f2_inv, v)),
        )
    if case.startswith("inner-line"):
        head = [1.0, 0.5, 0.2] if case.endswith("nonzero-mean") else [0.0, 1.0, 1 / 3]
        return Instance(*catalogue._inner_line_instance(N, head), N)
    if case.startswith("invertible-line"):
        zero_mean = case.endswith("-zero-mean")
        return Instance(*catalogue._invertible_line_instance(N, zero_mean), N)
    if case == "conj-inner-extended-model":
        return Instance(*catalogue._extended_model_instance(N), N)
    if case == "inner-empty":
        return Instance(InnerSymbol(theta), empty, N)
    if case == "invertible-empty":
        return Instance(InvertibleProductSymbol(f1, f2), empty, N)
    return Instance(ConjInnerSymbol(theta), empty, N)


@pytest.mark.parametrize("doubled", [False, True], ids=["N", "2N"])
@pytest.mark.parametrize(
    "case",
    [
        "inner", "inner-outside-theta-h2", "invertible", "invertible-singular-pairing",
        "conj_inner", "inner-line-nonzero-mean", "inner-line-zero-mean",
        "invertible-line-nonzero-mean", "invertible-line-zero-mean",
        "conj-inner-extended-model", "inner-empty", "invertible-empty",
        "conj-inner-empty",
    ],
)
def test_structured_kernel_matches_the_svd_kernel(case, doubled):
    inst = _structured_instance(case)
    if doubled:
        inst = inst.doubled
    m, tail, _ = inst.structured_kernel
    reference = svd_kernel(inst)
    assert m is inst.kernel
    assert m.dim == reference.dim
    # Only the thin side is kept; the frame and the complement it implies
    # together span the window.
    cap = inst.column_cap
    assert m.window == cap
    assert not m.frame[cap:].any()
    whole = np.hstack((m.frame[:cap], window_complement(m)))
    assert whole.shape == (cap, cap)
    assert np.max(np.abs(whole.conj().T @ whole - np.eye(cap))) < 1e-12
    if m.dim:
        assert float(principal_angles(m, reference).max()) < ANGLE_TOL
    reference_defect = minimal_defect(reference, vanish_at_zero(reference))
    assert inst.defect.defect_dim == reference_defect.defect_dim
    if doubled:
        assert tail <= inst.rank_tol


def _projection_defect(m, w, tol):
    """Reference defect from the full-space projection: project S*w off m in
    all N rows and SVD the N-row residual (frame, singular values)."""
    shifted = np.zeros_like(w.frame)
    shifted[:-1] = w.frame[1:]
    outside = shifted - m.frame @ (m.frame.conj().T @ shifted)
    u, s, _ = np.linalg.svd(outside, full_matrices=False)
    keep = s > tol * max(1.0, float(s[0]) if s.size else 0.0)
    return u[:, keep], s


@pytest.mark.parametrize("doubled", [False, True], ids=["N", "2N"])
@pytest.mark.parametrize("case", ["zero", "conj_inner"])
def test_complement_defect_matches_the_projection_formula(case, doubled):
    inst = _equivalence_instance(case)
    if doubled:
        inst = inst.doubled
    frame, svals = _projection_defect(inst.kernel, inst.vanishing, inst.rank_tol)
    report = inst.defect
    assert report.defect_dim == frame.shape[1] > 0
    common = len(report.singular_values)
    assert 0 < common <= svals.size
    gap = np.abs(np.array(report.singular_values) - svals[:common])
    assert float(gap.max()) <= 1e-14
    reference = subspaces.Subspace(frame, inst.truncation)
    assert float(principal_angles(report.residual_frame, reference).max()) < ANGLE_TOL


def _empty_perturbation_symbol(family):
    if family == "zero":
        return ZeroSymbol()
    if family == "inner":
        return InnerSymbol(BlaschkeProduct.from_points([0.5, -0.3j], z_power=1))
    if family == "invertible":
        return InvertibleProductSymbol(
            AnalyticSeries.from_coeffs([1.0, 0.3], N), AnalyticSeries.from_coeffs([1.0, -0.2j], N)
        )
    # Zeros of modulus at most 0.5, so the window N/2 holds K_theta to
    # within the witness tolerance from N = 64 on; at N = 32 its tail
    # is above it (ROADMAP item 1(b)).
    return ConjInnerSymbol(BlaschkeProduct.from_points([0.5, -0.4j], z_power=1))


@pytest.mark.parametrize("truncation", [64, 128])
@pytest.mark.parametrize("family", ["zero", "inner", "invertible", "conj_inner"])
def test_empty_perturbation_verifies_on_every_defect_family(family, truncation):
    # A 0-column small system (inner, invertible) or a 0-row one
    # (conjugate inner), and a zero symbol whose kernel is the whole window.
    sym = _empty_perturbation_symbol(family)
    scenario = Scenario(
        sym, PerturbationSpec(()), truncation=truncation,
        checks=("kernel", "defect", "witness"),
    )
    report = run_scenario(scenario, stabilize=True)
    details = {o.check: o.details for o in report.outcomes}
    cap = truncation // 2
    expected = {"zero": cap, "inner": 0, "invertible": 0, "conj_inner": 3}[family]
    assert report.passed
    assert details["kernel"]["kernel_dim"] == expected
    assert details["defect"]["defect_dim"] == details["defect"]["bound_from_theorem"] == 0
    assert details["witness"]["entries"] == max(expected - 1, 0)
    stability = report.stability
    assert stability["kernel_dim_doubled"] == (2 * cap if family == "zero" else expected)
    assert stability["defect_dim"] == stability["defect_dim_doubled"] == 0


def test_trivial_kernel_gives_an_empty_witness_report():
    rng = np.random.default_rng(CASE_SEEDS["inner"])
    pert = seeded_perturbation(rng, N, rank=2, max_degree=6)
    inst = Instance(InnerSymbol(random_blaschke(rng)), pert, N)
    report, witness = check_defect_theorem(inst, CONTAINMENT_TOL, WITNESS_TOL)
    assert inst.kernel.dim == 0 and report.passed
    assert witness.entries == ()
    assert defect_witnesses(inst, inst.vanishing.frame).shape == (N, 0)


def test_witness_pass_rule_is_strict():
    tol = WITNESS_KERNEL_TOL
    below = np.nextafter(tol, 0.0)
    assert not WitnessReport((WitnessEntry(tol, 0.0, 0.0), WitnessEntry(0.0, below, 0.0))).passed
    assert not WitnessReport((WitnessEntry(0.0, tol, 0.0),)).passed
    assert not WitnessReport((WitnessEntry(0.0, 0.0, tol),)).passed
    assert WitnessReport((WitnessEntry(below, 0.0, below), WitnessEntry(0.0, below, 0.0))).passed
    assert WitnessReport(()).passed


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


def test_conj_inner_defect_is_contained_at_n64():
    # ROADMAP item 1(b): the 6th singular value of the window SVD (5.8e-9
    # relative to s0) fell on the range side of the cut, which gave defect
    # 4 and a residual of 1.2e-3 outside F.  The structured kernel has all
    # 6 directions, with a window tail of 5.8e-9.
    theta = BlaschkeProduct.from_points([0.3, -0.4j], z_power=4)
    pert = seeded_perturbation(np.random.default_rng(505), 64, 3, 6)
    report, _ = verify_defect_theorem(ConjInnerSymbol(theta), pert, 64)
    assert report.defect_dim == 5
    assert report.passed


def test_seeded_conj_inner_kernel_is_not_empty_at_n64():
    # The data of test_seeded_conj_inner_instance_fails_its_witness_check_at_n64:
    # the window SVD reports dim 0 where the kernel has dim 2 at every N.
    sym, pert = _seeded_case("conj_inner")
    inst = Instance(sym, pert, N)
    assert svd_kernel(inst).dim == 0
    assert inst.kernel.dim == inst.structured_kernel.space.dim == 2

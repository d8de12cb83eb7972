"""Acceptance gate: nine behavioral criteria, one verdict line each.

Every criterion pins its own tolerances and seeds so reruns are bit-stable.
Oracles are independent of the code paths they judge: model spaces come from
an unrolled product recursion over elementary factors, small kernels from
exact rational row reduction, and closed forms from hand-expanded algebra.
"""

import time

import numpy as np

from conftest import (
    disk_invertible_poly,
    random_blaschke,
    random_series,
    seeded_perturbation,
    toeplitz_model_space,
)
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.catalogue import run_catalogue
from neartoep.cgp import (
    build_cgp_frame,
    build_monomial_split_frame,
    monomial_split_expected_kernel,
    remark_projection_direct,
    remark_projection_formula,
    verify_corollary,
)
from neartoep.defects import Instance, model_space, verify_defect_theorem
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    OperatorMatrix,
    PerturbationSpec,
    TrigPolySymbol,
    ZeroSymbol,
    perturbed_matrix,
    symbol_fourier,
    toeplitz_matrix,
    toeplitz_product_residual,
)
from neartoep.runner import kernel_profile, stability_summary
from neartoep.series import (
    AnalyticSeries,
    LaurentSeries,
    backshift,
    laurent_conj,
    multiply_analytic,
    reproducing_kernel,
)
from neartoep.subspaces import kernel_subspace, principal_angles, project, span
from test_subspaces import exact_nullspace, gaussian_integer_matrix

MODEL_TRUNCATION = 256
SUITE_TRUNCATION = 128
REP_TRUNCATION = 64

MODEL_ANGLE_TOL = 1e-6
MODEL_TIME_BUDGET = 5.0
DEFECT_RESIDUAL_TOL = 1e-7
WITNESS_TOL = 1e-8
SUITE_TIME_BUDGET = 60.0
CLOSED_FORM_TOL = 1e-12
SPLIT_ANGLE_TOL = 1e-7
REPRESENTATION_TOL = 1e-8
NORM_IDENTITY_TOL = 1e-10
ORACLE_ANGLE_TOL = 1e-10
PRODUCT_TOL = 1e-12
FORMULA_TOL = 1e-10


def _verdict(index, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {index}] {label}: {status}")
    assert not failures, f"criterion {index}: " + "; ".join(failures)


def _elementary_factor(point, truncation):
    # (point - z) / (1 - conj(point) z) as a truncated series
    geometric = AnalyticSeries(
        np.conj(point) ** np.arange(truncation), truncation
    )
    head = AnalyticSeries.from_coeffs([point, -1.0], truncation)
    return multiply_analytic(head, geometric)


def _reference_model_basis(product, truncation):
    """Model-space basis from the product recursion, no kernel extraction.

    Each elementary factor contributes prefix * (its own one-dimensional
    model space); the prefix absorbs the factors already processed.
    """
    basis = []
    prefix = AnalyticSeries.one(truncation)
    factors = [None] * product.z_power
    for point, multiplicity in product.zeros:
        factors.extend([point] * multiplicity)
    for point in factors:
        if point is None:
            basis.append(prefix)
            step = AnalyticSeries.monomial(1, truncation)
        else:
            kernel_dir = AnalyticSeries(
                np.conj(point) ** np.arange(truncation), truncation
            )
            basis.append(multiply_analytic(prefix, kernel_dir))
            step = _elementary_factor(point, truncation)
        prefix = multiply_analytic(prefix, step)
    return basis


MODEL_PRODUCTS = (
    BlaschkeProduct(z_power=1),
    BlaschkeProduct(z_power=2),
    BlaschkeProduct(z_power=3),
    BlaschkeProduct.from_points([0.5]),
    BlaschkeProduct.from_points([0.4, -0.3 + 0.2j]),
    BlaschkeProduct.from_points([0.8, -0.6j, 0.35 + 0.2j]),
    BlaschkeProduct(zeros=((0.6, 2),), z_power=1),
)


def test_criterion_1_model_space_kernels():
    failures = []
    started = time.perf_counter()
    for product in MODEL_PRODUCTS:
        computed = model_space(product, MODEL_TRUNCATION)
        if computed.dim != product.degree():
            failures.append(
                f"{product!r}: dim {computed.dim} != degree {product.degree()}"
            )
            continue
        recursion = span(
            _reference_model_basis(product, MODEL_TRUNCATION), MODEL_TRUNCATION
        )
        # model_space runs the recursion too, so the Toeplitz kernel is the
        # reference that does not share its algorithm.
        toeplitz = toeplitz_model_space(product, MODEL_TRUNCATION)
        if toeplitz.dim != product.degree():
            failures.append(
                f"{product!r}: Toeplitz-kernel dim {toeplitz.dim} != degree {product.degree()}"
            )
            continue
        for name, reference in (("recursion", recursion), ("Toeplitz kernel", toeplitz)):
            angle = float(principal_angles(computed, reference).max(initial=0.0))
            if angle >= MODEL_ANGLE_TOL:
                failures.append(f"{product!r}: angle {angle:.2e} to the {name}")
    elapsed = time.perf_counter() - started
    if elapsed >= MODEL_TIME_BUDGET:
        failures.append(f"runtime {elapsed:.2f}s over budget")
    _verdict(1, "high-resolution annihilator kernels", failures)


def _suite_symbol(case, rng, truncation):
    if case == "zero":
        return ZeroSymbol()
    if case == "inner":
        return InnerSymbol(random_blaschke(rng))
    if case == "invertible":
        return InvertibleProductSymbol(
            disk_invertible_poly(rng, truncation),
            disk_invertible_poly(rng, truncation),
        )
    return ConjInnerSymbol(random_blaschke(rng))


def test_criterion_2_defect_suite():
    failures = []
    started = time.perf_counter()
    cases = ("zero", "inner", "invertible", "conj_inner")
    for index in range(50):
        rank = index % 3 + 1
        for offset, case in enumerate(cases):
            rng = np.random.default_rng(20_000 + 4 * index + offset)
            sym = _suite_symbol(case, rng, SUITE_TRUNCATION)
            pert = seeded_perturbation(rng, SUITE_TRUNCATION, rank)
            report, witness = verify_defect_theorem(
                sym,
                pert,
                SUITE_TRUNCATION,
                containment_tol=DEFECT_RESIDUAL_TOL,
                witness_tol=WITNESS_TOL,
            )
            tag = f"{case}#{index}"
            if report.defect_dim > report.bound_from_theorem:
                failures.append(
                    f"{tag}: defect {report.defect_dim} > {report.bound_from_theorem}"
                )
            if report.max_residual_outside_theorem_space >= DEFECT_RESIDUAL_TOL:
                failures.append(
                    f"{tag}: frame residual "
                    f"{report.max_residual_outside_theorem_space:.2e}"
                )
            if witness.max_membership_residual >= WITNESS_TOL:
                failures.append(
                    f"{tag}: witness residual "
                    f"{witness.max_membership_residual:.2e}"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= SUITE_TIME_BUDGET:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    _verdict(2, "defect bounds over 200 seeded instances", failures)


def test_criterion_3_binomial_closed_forms():
    failures = []
    n = REP_TRUNCATION
    for k in (1, 2, 3):
        arr = np.zeros(n, dtype=np.complex128)
        arr[0] = arr[k] = 1.0 / np.sqrt(2.0)
        u = AnalyticSeries(arr, n)
        v = AnalyticSeries.from_coeffs([0.0, 1.0], n)
        frame = build_cgp_frame(ZeroSymbol(), PerturbationSpec(((u, v),)), n)
        vectors = dict(frame.constraint_vectors)
        want_f0 = np.zeros(n, dtype=np.complex128)
        want_f0[0], want_f0[k] = 0.5, -0.5
        want_v0 = np.zeros(n, dtype=np.complex128)
        want_v0[k] = 1.0 / (2.0 * np.sqrt(2.0))
        want_v1 = np.zeros(n, dtype=np.complex128)
        want_v1[k - 1] = 0.5
        targets = (
            ("f0", frame.f0.coeffs, want_f0),
            ("v0", vectors["v0"].coeffs, want_v0),
            ("v1", vectors["v1"].coeffs, want_v1),
        )
        for name, got, want in targets:
            error = float(np.max(np.abs(got - want)))
            if error > CLOSED_FORM_TOL:
                failures.append(f"k={k} {name} error {error:.2e}")
    _verdict(3, "binomial direction closed forms", failures)


def _monomial_family_instance(power, seed, truncation):
    # exact split family: v(0) = 0 with unit norm, u = z^(power-1)/4 + u2
    # where u2 sits in degrees >= power and carries the remaining mass
    rng = np.random.default_rng(seed)
    v = random_series(rng, truncation, max_degree=5, min_degree=1)
    v = v * (1.0 / v.norm())
    tail = random_series(rng, truncation, max_degree=4)
    u2 = multiply_analytic(AnalyticSeries.monomial(power, truncation), tail)
    u2 = u2 * (np.sqrt(15.0) / (4.0 * u2.norm()))
    u = AnalyticSeries.monomial(power - 1, truncation, 0.25) + u2
    return ConjInnerSymbol(BlaschkeProduct(z_power=power)), PerturbationSpec(((u, v),))


def test_criterion_4_monomial_kernel_and_constraints():
    failures = []
    n = REP_TRUNCATION
    for power in (1, 2, 3):
        for draw in (0, 1):
            sym, pert = _monomial_family_instance(power, 40_000 + 10 * power + draw, n)
            expected = monomial_split_expected_kernel(power, pert, n)
            op = perturbed_matrix(toeplitz_matrix(symbol_fourier(sym, n)), pert)
            computed = kernel_subspace(op, 1e-9, column_cap=n // 2)
            tag = f"m={power} draw {draw}"
            if expected.dim != computed.dim:
                failures.append(f"{tag}: dim {computed.dim} != {expected.dim}")
                continue
            angle = float(principal_angles(expected, computed).max(initial=0.0))
            if angle >= SPLIT_ANGLE_TOL:
                failures.append(f"{tag}: angle {angle:.2e}")

            frame = build_monomial_split_frame(power, pert, n)
            rep = verify_corollary(sym, pert, n, frame=frame)
            if not rep.passed:
                failures.append(
                    f"{tag}: representation failed "
                    f"(fwd {rep.forward_max_residual:.2e}, "
                    f"rev {rep.reverse_max_residual:.2e}, "
                    f"constraint {rep.constraint_max_violation:.2e})"
                )
    _verdict(4, "monomial split kernels verify bidirectionally", failures)


def test_criterion_5_annihilator_representations():
    failures = []
    n = REP_TRUNCATION
    v = AnalyticSeries.from_coeffs([0.0, 1.0], n)
    binomial = np.zeros(n, dtype=np.complex128)
    binomial[0] = binomial[2] = 1.0 / np.sqrt(2.0)
    # moduli stay small: geometric tails widen the frame's degree pad, and
    # the reverse-fit window must still cover the kernel's column cap
    cases = (
        ("constant", AnalyticSeries.one(n), True),
        ("inner", blaschke_expand(BlaschkeProduct.from_points([0.3, -0.25]), n), False),
        ("kernel-point", reproducing_kernel(0.3, n, normalized=True), False),
        ("binomial", AnalyticSeries(binomial, n), False),
    )
    for label, u, check_norms in cases:
        rep = verify_corollary(ZeroSymbol(), PerturbationSpec(((u, v),)), n)
        if rep.reverse_max_residual >= REPRESENTATION_TOL:
            failures.append(f"{label}: reverse {rep.reverse_max_residual:.2e}")
        if rep.forward_max_residual >= REPRESENTATION_TOL:
            failures.append(f"{label}: forward {rep.forward_max_residual:.2e}")
        if rep.backshift_max_violation >= REPRESENTATION_TOL:
            failures.append(f"{label}: backshift {rep.backshift_max_violation:.2e}")
        if not rep.passed:
            failures.append(f"{label}: report not passed")
        if check_norms:
            if rep.norm_identity_max_error is None:
                failures.append(f"{label}: norm identity not evaluated")
            elif rep.norm_identity_max_error >= NORM_IDENTITY_TOL:
                failures.append(
                    f"{label}: norm identity {rep.norm_identity_max_error:.2e}"
                )
    _verdict(5, "rank-one annihilator representations", failures)


def test_criterion_6_exact_nullspace_agreement():
    failures = []
    for index in range(100):
        rng = np.random.default_rng(60_000 + index)
        size = int(rng.integers(2, 9))
        matrix = gaussian_integer_matrix(rng, size)
        numeric = kernel_subspace(
            OperatorMatrix(matrix.astype(np.complex128), size), 1e-9
        )
        exact = exact_nullspace(matrix)
        if numeric.dim != exact.shape[1]:
            failures.append(
                f"matrix {index}: dim {numeric.dim} != exact {exact.shape[1]}"
            )
            continue
        if exact.shape[1] == 0:
            continue
        angle = float(
            principal_angles(numeric, span(exact.T, size)).max(initial=0.0)
        )
        if angle >= ORACLE_ANGLE_TOL:
            failures.append(f"matrix {index}: angle {angle:.2e}")
    _verdict(6, "numeric kernels match exact row reduction", failures)


def _random_band(rng, low, high, truncation):
    pairs = []
    for idx in range(low, high + 1):
        value = complex(rng.standard_normal(), rng.standard_normal())
        pairs.append((idx, value))
    return TrigPolySymbol(LaurentSeries.from_pairs(pairs, truncation))


def test_criterion_7_toeplitz_product_identities():
    failures = []
    n = REP_TRUNCATION
    for index in range(20):
        rng = np.random.default_rng(70_000 + index)
        co_analytic = _random_band(rng, -6, 0, n)
        arbitrary = _random_band(rng, -6, 6, n)
        residual = toeplitz_product_residual(co_analytic, arbitrary, n)
        if residual > PRODUCT_TOL:
            failures.append(f"pair {index}: residual {residual:.2e}")
    # T_{conj(z)} T_g = T_{conj(z) g} for an arbitrary band g
    rng = np.random.default_rng(71_000)
    backshift_symbol = TrigPolySymbol(LaurentSeries.from_pairs([(-1, 1.0)], n))
    g = _random_band(rng, -5, 5, n)
    residual = toeplitz_product_residual(backshift_symbol, g, n)
    if residual > PRODUCT_TOL:
        failures.append(f"backshift identity residual {residual:.2e}")
    # adjoint symmetry holds entrywise, not just to tolerance
    series = g.series
    adjoint = toeplitz_matrix(laurent_conj(series)).entries
    if not np.array_equal(adjoint, toeplitz_matrix(series).entries.conj().T):
        failures.append("adjoint of the band matrix is not exact")
    _verdict(7, "truncated product and adjoint identities", failures)


def test_criterion_8_stability_across_doubling():
    failures = []
    rows = run_catalogue()
    audited = 0
    for row in rows:
        stability = row.details.get("stability")
        if stability is None:
            continue
        audited += 1
        if not stability["stable_at_double"]:
            failures.append(f"{row.row_id}: unstable at doubled truncation")
    if audited < 20:
        failures.append(f"only {audited} catalogue rows carried stability data")
    cases = ("zero", "inner", "invertible", "conj_inner")
    for offset, case in enumerate(cases):
        rng = np.random.default_rng(80_000 + offset)
        sym = _suite_symbol(case, rng, REP_TRUNCATION)
        pert = seeded_perturbation(rng, REP_TRUNCATION, 2, max_degree=6)
        inst = Instance(sym, pert, REP_TRUNCATION)
        summary = stability_summary(inst)
        if not summary["stable_at_double"]:
            failures.append(f"{case}: scenario unstable at doubled truncation")
        # The audit reads the structured kernel at 2N; the SVD there stays the reference.
        dim, cap, defect = kernel_profile(inst.doubled)
        reference = (dim, cap - dim, defect)
        audited_2n = tuple(
            summary[key]
            for key in ("kernel_dim_doubled", "kernel_codim_doubled", "defect_dim_doubled")
        )
        if audited_2n != reference:
            failures.append(f"{case}: 2N audit {audited_2n} vs SVD {reference}")
        if summary["defect_dim"] != summary["defect_dim_doubled"]:
            failures.append(
                f"{case}: defect {summary['defect_dim']} vs "
                f"{summary['defect_dim_doubled']} after doubling"
            )
    _verdict(8, "kernel and defect dimensions stable at 2N", failures)


def test_criterion_9_projection_closed_form():
    failures = []
    n = 96
    for index in range(20):
        rng = np.random.default_rng(90_000 + index)
        product = random_blaschke(rng, max_modulus=0.6)
        k_theta = model_space(product, n)
        g = project(k_theta, random_series(rng, n, max_degree=8))
        if g.norm() < 1e-3:
            g = backshift(blaschke_expand(product, n))
        v = random_series(rng, n, max_degree=6)
        mu = complex(rng.standard_normal(), rng.standard_normal())
        formula = remark_projection_formula(product, v, g, mu, n)
        direct = remark_projection_direct(product, v, g, mu, n)
        error = (formula - direct).norm()
        if error >= FORMULA_TOL:
            failures.append(f"draw {index}: deviation {error:.2e}")
    _verdict(9, "projection closed form matches direct projection", failures)

"""Truncated Toeplitz matrices, symbols, and finite-rank tails."""

import numpy as np
import pytest

from neartoep.errors import HypothesisViolationError, InputError, NotInvertibleError
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    TrigPolySymbol,
    ZeroSymbol,
    apply,
    is_analytic_symbol,
    is_coanalytic_symbol,
    perturbed_matrix,
    symbol_fourier,
    symbol_from_json,
    toeplitz_matrix,
    toeplitz_product_residual,
)
from neartoep.blaschke import BlaschkeProduct
from neartoep.series import AnalyticSeries, LaurentSeries, laurent_conj

PRODUCT_TOL = 1e-12
N = 32


def trig(pairs, n=N):
    return TrigPolySymbol(LaurentSeries.from_pairs(pairs, n))


def test_toeplitz_entries_follow_diagonals():
    g = LaurentSeries.from_pairs([(-1, 2.0), (0, 5.0), (2, -1j)], 6)
    t = toeplitz_matrix(g).entries
    for j in range(6):
        for k in range(6):
            assert t[j, k] == g.at(j - k)


def test_adjoint_is_conjugate_symbol_exactly():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    g = LaurentSeries(coeffs, N)
    lhs = toeplitz_matrix(laurent_conj(g)).entries
    rhs = toeplitz_matrix(g).entries.conj().T
    assert np.array_equal(lhs, rhs)


def test_perturbed_matrix_adds_rank_one_tail():
    u = AnalyticSeries.from_coeffs([1.0], N)
    v = AnalyticSeries.from_coeffs([0, 2.0], N)
    pert = PerturbationSpec(((u, v),))
    base = toeplitz_matrix(LaurentSeries.zero(N))
    op = perturbed_matrix(base, pert)
    want = np.outer(v.coeffs, u.coeffs.conj())
    assert np.allclose(op.entries, want, atol=0)
    f = AnalyticSeries.from_coeffs([3.0, 1.0], N)
    out = apply(op, f)
    # <f, u> v with u the constant direction picks out f(0)
    assert out.coeffs[1] == pytest.approx(6.0)


def test_perturbation_invariants_are_enforced():
    u1 = AnalyticSeries.from_coeffs([1.0], N)
    u2 = AnalyticSeries.from_coeffs([1.0, 1.0], N)
    v = AnalyticSeries.from_coeffs([1.0], N)
    with pytest.raises(InputError, match="perturbation invariant"):
        PerturbationSpec(((u1, v), (u2, v * 0.5)))
    with pytest.raises(InputError, match="perturbation invariant"):
        PerturbationSpec(((u1, AnalyticSeries.zero(N)),))
    ue1 = AnalyticSeries.from_coeffs([0, 1.0], N)
    with pytest.raises(InputError, match="perturbation invariant"):
        PerturbationSpec(((u1, v), (ue1, v),))


def test_perturbation_json_round_trip():
    u = AnalyticSeries.from_coeffs([0, 1.0], 4)
    v = AnalyticSeries.from_coeffs([1j, 0.5], 4)
    pert = PerturbationSpec(((u, v),))
    again = PerturbationSpec.from_json_dict(pert.to_json_dict())
    assert np.array_equal(again.terms[0][0].coeffs, u.coeffs)
    assert np.array_equal(again.terms[0][1].coeffs, v.coeffs)


def test_symbol_fourier_per_tag():
    assert symbol_fourier(ZeroSymbol(), 4).norm() == 0.0
    g = symbol_fourier(trig([(-2, 1.0), (1, 3.0)]), N)
    assert g.at(-2) == 1.0 and g.at(1) == 3.0
    th = BlaschkeProduct(z_power=2)
    inner = symbol_fourier(InnerSymbol(th), 8)
    assert inner.at(2) == 1.0 and inner.at(-2) == 0.0
    conj_inner = symbol_fourier(ConjInnerSymbol(th), 8)
    assert conj_inner.at(-2) == 1.0 and conj_inner.at(2) == 0.0
    prod = symbol_fourier(
        InvertibleProductSymbol(
            AnalyticSeries.from_coeffs([1.0, 1 / 3], 8),
            AnalyticSeries.from_coeffs([1.0, -0.25], 8),
        ),
        8,
    )
    # f1 * conj(f2) has band [-deg f2, deg f1]
    assert abs(prod.at(1)) > 0 and abs(prod.at(-1)) > 0
    assert prod.at(2) == 0.0 and prod.at(-2) == 0.0


def test_symbol_constructors_reject_bad_data():
    with pytest.raises(InputError):
        InnerSymbol(BlaschkeProduct())  # constant is not a multiplier case
    with pytest.raises(NotInvertibleError):
        InvertibleProductSymbol(
            AnalyticSeries.from_coeffs([0.5, 1.0], 8),  # root inside the disk
            AnalyticSeries.from_coeffs([1.0], 8),
        )


def test_symbol_json_round_trip_all_tags():
    symbols = [
        ZeroSymbol(),
        trig([(-1, 1.0), (3, 2j)], n=8),
        InnerSymbol(BlaschkeProduct.from_points([0.3])),
        ConjInnerSymbol(BlaschkeProduct.from_points([0.3], z_power=1)),
        InvertibleProductSymbol(
            AnalyticSeries.from_coeffs([1.0, 0.2], 8),
            AnalyticSeries.from_coeffs([1.0, -0.3], 8),
        ),
    ]
    for sym in symbols:
        again = symbol_from_json(sym.to_json_dict())
        assert type(again) is type(sym)
        lhs = symbol_fourier(sym, 8)
        rhs = symbol_fourier(again, 8)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=0)
    with pytest.raises(InputError):
        symbol_from_json({"tag": "mystery"})
    with pytest.raises(InputError):
        symbol_from_json({})


def test_bandwidth_and_support_classifiers():
    g = LaurentSeries.from_pairs([(-1, 1.0), (2, 1.0)], 8)
    assert is_analytic_symbol(LaurentSeries.from_pairs([(0, 1.0), (3, 1.0)], 8))
    assert not is_analytic_symbol(g)
    assert is_coanalytic_symbol(LaurentSeries.from_pairs([(-3, 1.0)], 8))


def test_product_identity_coanalytic_left():
    psi = trig([(-1, 1.0)])  # conj(z)
    phi = trig([(-2, 0.5), (0, 1.0), (3, -2j)])
    assert toeplitz_product_residual(psi, phi, N) <= PRODUCT_TOL


def test_product_identity_analytic_right():
    psi = trig([(-2, 1.0), (1, 0.5)])
    phi = trig([(0, 1.0), (2, 1.5)])
    assert toeplitz_product_residual(psi, phi, N) <= PRODUCT_TOL


def test_product_identity_rejects_unsupported_pairs():
    psi = trig([(1, 1.0)])   # analytic left
    phi = trig([(-1, 1.0)])  # co-analytic right
    with pytest.raises(HypothesisViolationError):
        toeplitz_product_residual(psi, phi, N)

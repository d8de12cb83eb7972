"""Coefficient-series arithmetic against closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neartoep.errors import (
    HeadroomError,
    InputError,
    NotInvertibleError,
    TruncationMismatchError,
)
from neartoep.series import (
    AnalyticSeries,
    LaurentSeries,
    backshift,
    conj_on_circle,
    embed,
    eval_at,
    inner_product,
    laurent_conj,
    multiply,
    multiply_analytic,
    reproducing_kernel,
    riesz_project,
    shift,
    taylor_invert,
)

EXACT_TOL = 1e-14
N = 32

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=10)


def series(coeffs, n=N):
    return AnalyticSeries.from_coeffs(coeffs, n)


def test_from_coeffs_pads_and_rejects_overflow():
    f = series([1, 2j])
    assert f.truncation == N
    assert f.coeffs[1] == 2j and f.coeffs[5] == 0
    with pytest.raises(HeadroomError):
        AnalyticSeries.from_coeffs([1] * (N + 1), N)
    # trailing zeros beyond the order are droppable
    g = AnalyticSeries.from_coeffs([1, 0, 0, 0], 2)
    assert g.truncation == 2


def test_degree_and_resize():
    f = series([0, 0, 3.0, 0])
    assert f.degree() == 2
    assert series([0]).degree() == -1
    assert f.resized(3).truncation == 3
    with pytest.raises(HeadroomError):
        f.resized(2)


def test_riesz_projection_splits_frequencies():
    f = LaurentSeries.from_pairs([(-2, 1.0), (0, 2.0), (3, -1j)], 8)
    p = riesz_project(f)
    assert p.coeffs[0] == 2.0
    assert p.coeffs[3] == -1j
    assert np.all(p.coeffs[[1, 2, 4, 5, 6, 7]] == 0)


def test_embed_then_project_is_identity():
    f = series([1.5, -2j, 0.25])
    back = riesz_project(embed(f))
    assert np.array_equal(back.coeffs, f.coeffs)


def test_conj_on_circle_mirrors_coefficients():
    f = series([1 + 1j, 2.0], n=4)
    c = conj_on_circle(f)
    # frequency -k carries the conjugate of coefficient k
    assert c.at(0) == np.conj(1 + 1j)
    assert c.at(-1) == np.conj(2.0)
    assert c.at(1) == 0.0
    # double conjugation returns the embedded original
    again = laurent_conj(conj_on_circle(f))
    assert np.allclose(again.coeffs, embed(f).coeffs, atol=EXACT_TOL)


def test_multiply_matches_convolution():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = multiply(embed(series(a)), embed(series(b)))
    conv = np.convolve(a, b)
    for k, want in enumerate(conv):
        assert abs(f.at(k) - want) < EXACT_TOL


def test_multiply_analytic_truncates_cauchy_product():
    f = series([1, 1], n=4)
    g = multiply_analytic(f, f)  # (1+z)^2 = 1 + 2z + z^2
    assert np.allclose(g.coeffs, [1, 2, 1, 0], atol=EXACT_TOL)


def test_shift_backshift_are_one_sided_inverses():
    f = series([3, 1, 4, 1, 5])
    assert np.array_equal(backshift(shift(f)).coeffs, f.coeffs)
    g = backshift(f)
    assert g.coeffs[0] == 1 and g.coeffs[3] == 5


def test_inner_product_is_conjugate_linear_in_second_slot():
    f, g = series([1j]), series([2.0])
    assert inner_product(f, g) == pytest.approx(1j * 2.0)
    assert inner_product(g, f) == pytest.approx(np.conj(1j * 2.0))
    with pytest.raises(InputError):
        inner_product(f, embed(g))


def test_truncation_mismatch_raises():
    with pytest.raises(TruncationMismatchError):
        series([1], n=8) + series([1], n=16)


def test_eval_at_geometric_series():
    n = 200
    f = AnalyticSeries(np.full(n, 1.0, dtype=np.complex128), n)
    z = 0.3 - 0.2j
    assert abs(eval_at(f, z) - 1.0 / (1.0 - z)) < 1e-12
    with pytest.raises(InputError):
        eval_at(f, 1.0)


def test_reproducing_kernel_reproduces_polynomials():
    n = 64
    alpha = 0.4 + 0.3j
    k = reproducing_kernel(alpha, n)
    assert np.allclose(k.coeffs[:4], np.conj(alpha) ** np.arange(4), atol=EXACT_TOL)
    f = series([1, -2, 0.5, 1j], n=n)
    assert abs(inner_product(f, k) - eval_at(f, alpha)) < 1e-12
    k_unit = reproducing_kernel(alpha, n, normalized=True)
    assert abs(k_unit.norm() - 1.0) < 1e-10


def test_taylor_invert_two_plus_z():
    n = 24
    f = AnalyticSeries.from_coeffs([2.0, 1.0], n)
    inv = taylor_invert(f)
    want = 0.5 * (-0.5) ** np.arange(n)
    assert np.allclose(inv.coeffs, want, atol=EXACT_TOL)
    prod = multiply_analytic(f, inv)
    assert abs(prod.coeffs[0] - 1.0) < EXACT_TOL
    assert np.linalg.norm(prod.coeffs[1:]) < 1e-12


def test_taylor_invert_rejects_disk_roots():
    n = 8
    with pytest.raises(NotInvertibleError):
        taylor_invert(AnalyticSeries.from_coeffs([0.5, 1.0], n))  # root at -1/2
    with pytest.raises(NotInvertibleError):
        taylor_invert(AnalyticSeries.zero(n))


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_backshift_shift_roundtrip_property(coeffs):
    f = series(coeffs, n=16)
    assert np.array_equal(backshift(shift(f)).coeffs, f.coeffs)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_inner_product_conjugate_symmetry(a, b):
    f, g = series(a, n=16), series(b, n=16)
    lhs = inner_product(f, g)
    rhs = np.conj(inner_product(g, f))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_riesz_projection_is_idempotent(coeffs):
    f = embed(series(coeffs, n=16))
    once = riesz_project(f)
    twice = riesz_project(embed(once))
    assert np.array_equal(once.coeffs, twice.coeffs)

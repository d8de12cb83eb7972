"""Blaschke products: expansions, boundary modulus, JSON round trips."""

import numpy as np
import pytest

from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.errors import InputError
from neartoep.series import (
    AnalyticSeries,
    conj_on_circle,
    embed,
    eval_at,
    multiply,
    multiply_analytic,
)

EXPANSION_TOL = 1e-14
UNIMODULAR_TOL = 1e-12
N = 96


def test_half_point_factor_frozen_coefficients():
    # (1/2 - z)/(1 - z/2): c0 = 1/2, ck = -3/4 * (1/2)**(k-1) for k >= 1
    b = BlaschkeProduct.from_points([0.5])
    f = blaschke_expand(b, 8)
    want = [0.5, -0.75, -0.375, -0.1875, -0.09375, -0.046875]
    assert np.allclose(f.coeffs[:6], want, atol=EXPANSION_TOL)


def test_z_power_is_exact_monomial_shift():
    b = BlaschkeProduct(z_power=3)
    f = blaschke_expand(b, 8)
    want = np.zeros(8)
    want[3] = 1.0
    assert np.array_equal(f.coeffs, want)


def test_degree_counts_multiplicities_and_power():
    b = BlaschkeProduct(zeros=((0.3, 2),), z_power=1)
    assert b.degree() == 3
    assert b.value_at_zero() == 0.0
    c = BlaschkeProduct.from_points([0.3, -0.2j])
    assert c.degree() == 2
    assert c.value_at_zero() == pytest.approx(0.3 * (-0.2j))


def test_zeros_must_lie_inside_the_disk():
    with pytest.raises(InputError):
        BlaschkeProduct.from_points([1.0])
    with pytest.raises(InputError):
        BlaschkeProduct(zeros=((0.5, 0),))
    with pytest.raises(InputError):
        BlaschkeProduct(z_power=-1)
    with pytest.raises(InputError):
        BlaschkeProduct(unimodular_const=2.0)


def test_expansion_vanishes_at_its_zeros():
    b = BlaschkeProduct.from_points([0.4, -0.3 + 0.2j], z_power=1)
    f = blaschke_expand(b, 256)
    assert abs(eval_at(f, 0.4)) < 1e-12
    assert abs(eval_at(f, -0.3 + 0.2j)) < 1e-12
    assert abs(eval_at(f, 0.0)) < 1e-12


def test_boundary_modulus_one_via_conjugate_product():
    b = BlaschkeProduct.from_points([0.5, -0.25, 0.1j], const=1j)
    f = blaschke_expand(b, N)
    prod = multiply(conj_on_circle(f), embed(f))
    # conj(theta) * theta = 1 on the circle: delta at frequency zero
    assert abs(prod.at(0) - 1.0) < UNIMODULAR_TOL
    off = prod.coeffs.copy()
    off[N] = 0.0
    assert np.max(np.abs(off)) < UNIMODULAR_TOL


def test_repeated_zero_expansion_squares_the_factor():
    single = blaschke_expand(BlaschkeProduct.from_points([0.5]), 64)
    double = blaschke_expand(BlaschkeProduct(zeros=((0.5, 2),)), 64)
    assert np.allclose(
        double.coeffs, multiply_analytic(single, single).coeffs, atol=EXPANSION_TOL
    )


def test_json_round_trip():
    b = BlaschkeProduct(zeros=((0.3 - 0.1j, 2),), z_power=1, unimodular_const=-1.0)
    again = BlaschkeProduct.from_json_dict(b.to_json_dict())
    assert again == b
    with pytest.raises(InputError):
        BlaschkeProduct.from_json_dict({"zeros": [{"point": [0.1]}]})

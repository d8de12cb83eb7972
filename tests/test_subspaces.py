"""Numerical subspaces against an exact rational row-reduction oracle."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import linalg_calls, seeded_perturbation
from neartoep.blaschke import BlaschkeProduct
from neartoep.defects import Instance, model_space
from neartoep.errors import ConditioningError, InputError
from neartoep.operators import ConjInnerSymbol, OperatorMatrix
from neartoep.series import AnalyticSeries
from neartoep.subspaces import (
    Subspace,
    complement_within,
    contains,
    direct_sum,
    kernel_subspace,
    minimal_defect,
    principal_angles,
    project,
    span,
    vanish_at_zero,
)

ORACLE_ANGLE_TOL = 1e-10
MEMBERSHIP_TOL = 1e-8


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cdiv(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def exact_nullspace(matrix):
    """Nullspace basis of a Gaussian-integer matrix via Fraction RREF.

    Entries must have integer real and imaginary parts; the reduction is
    exact, so the returned basis carries no floating-point error beyond
    the final conversion.
    """
    rows = [
        [(Fraction(int(round(c.real))), Fraction(int(round(c.imag)))) for c in row]
        for row in np.asarray(matrix)
    ]
    m, n = len(rows), len(rows[0])
    zero = (Fraction(0), Fraction(0))
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [_cdiv(x, pv) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != zero:
                factor = rows[i][col]
                rows[i] = [_csub(x, _cmul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free_col in (c for c in range(n) if c not in pivots):
        vec = np.zeros(n, dtype=np.complex128)
        vec[free_col] = 1.0
        for i, pivot_col in enumerate(pivots):
            entry = rows[i][free_col]
            vec[pivot_col] = -complex(float(entry[0]), float(entry[1]))
        basis.append(vec)
    return np.column_stack(basis) if basis else np.zeros((n, 0), dtype=np.complex128)


def gaussian_integer_matrix(rng, n):
    re = rng.integers(-3, 4, size=(n, n))
    im = rng.integers(-3, 4, size=(n, n))
    # a random rank drop: duplicate or zero out some rows
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n, size=2)
        re[i], im[i] = re[j], im[j]
    return re + 1j * im


def test_exact_nullspace_oracle_sanity():
    mat = np.array([[1, 1j, 0], [0, 0, 0], [1, 1j, 0]], dtype=np.complex128)
    basis = exact_nullspace(mat)
    assert basis.shape == (3, 2)
    assert np.max(np.abs(mat @ basis)) == 0.0


def test_svd_kernel_matches_exact_row_reduction():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        mat = gaussian_integer_matrix(rng, n)
        exact = exact_nullspace(mat)
        op = OperatorMatrix(mat.astype(np.complex128), n)
        numeric = kernel_subspace(op, 1e-9)
        assert numeric.dim == exact.shape[1]
        if exact.shape[1]:
            oracle = span(exact.T, n)
            angles = principal_angles(numeric, oracle)
            assert float(angles.max(initial=0.0)) < ORACLE_ANGLE_TOL


def test_kernel_subspace_of_a_tall_block_matches_scipy_null_space():
    # 48 x 24: at least two rows per column, so the R-factor path runs.
    rng = np.random.default_rng(2024)
    n, cap, rank = 48, 24, 17
    left = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    op = OperatorMatrix(left @ right, n)
    numeric = kernel_subspace(op, 1e-9, column_cap=cap)
    oracle = np.zeros((n, cap - rank), dtype=np.complex128)
    oracle[:cap] = scipy.linalg.null_space(op.entries[:, :cap])
    assert numeric.dim == cap - rank
    angles = principal_angles(numeric, Subspace(oracle, n))
    assert float(angles.max()) < ORACLE_ANGLE_TOL


def test_kernel_of_a_two_to_one_gaussian_integer_block_matches_row_reduction():
    rng = np.random.default_rng(77)
    n, cap = 16, 8
    mat = rng.integers(-3, 4, size=(n, n)) + 1j * rng.integers(-3, 4, size=(n, n))
    mat[:, 5] = mat[:, 2]
    mat[:, 7] = mat[:, 0]
    exact = exact_nullspace(mat[:, :cap])
    assert exact.shape[1] == 2
    numeric = kernel_subspace(OperatorMatrix(mat, n), 1e-9, column_cap=cap)
    oracle = np.zeros((n, exact.shape[1]), dtype=np.complex128)
    oracle[:cap] = exact
    assert numeric.dim == exact.shape[1]
    angles = principal_angles(numeric, span(oracle.T, n))
    assert float(angles.max()) < ORACLE_ANGLE_TOL


def test_tall_kernel_windows_reach_lapack_as_their_r_factor(monkeypatch):
    n = 64
    theta = BlaschkeProduct.from_points([0.3, -0.2])
    pert = seeded_perturbation(np.random.default_rng(5), n, 2, 4)
    inst = Instance(ConjInnerSymbol(theta), pert, n)
    calls = linalg_calls(monkeypatch, "svd")
    assert inst.kernel.dim > 0
    # the 64 x 32 window goes in as its 32 x 32 R factor
    assert [args[0].shape for args, _ in calls] == [(n // 2, n // 2)]
    calls.clear()
    model_space(theta, n)
    # a square block keeps the plain SVD
    assert [args[0].shape for args, _ in calls] == [(n, n)]


def test_kernel_subspace_zero_operator_is_degenerate():
    op = OperatorMatrix(np.zeros((6, 6), dtype=np.complex128), 6)
    m = kernel_subspace(op, 1e-9, column_cap=3)
    assert m.degenerate and m.dim == 3
    # frame still lives in the full space
    assert m.frame.shape == (6, 3)


def test_kernel_column_cap_bounds():
    op = OperatorMatrix(np.eye(4, dtype=np.complex128), 4)
    assert kernel_subspace(op, 1e-9).dim == 0
    with pytest.raises(InputError):
        kernel_subspace(op, 1e-9, column_cap=5)
    with pytest.raises(InputError):
        kernel_subspace(op, 1e-9, column_cap=0)


def test_span_deduplicates_directions():
    n = 8
    e0 = AnalyticSeries.from_coeffs([1.0], n)
    e0_again = AnalyticSeries.from_coeffs([2.0], n)
    e1 = AnalyticSeries.from_coeffs([0, 1.0], n)
    m = span([e0, e0_again, e1], n)
    assert m.dim == 2
    gram = m.frame.conj().T @ m.frame
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_contains_and_project_agree():
    n = 16
    m = span(
        [AnalyticSeries.from_coeffs([1.0, 2.0], n), AnalyticSeries.from_coeffs([0, 0, 1j], n)],
        n,
    )
    member = AnalyticSeries.from_coeffs([0.5, 1.0, -3j], n)
    ok, resid = contains(m, member, MEMBERSHIP_TOL)
    assert ok and resid < 1e-12
    assert np.allclose(project(m, member).coeffs, member.coeffs, atol=1e-12)
    outside = AnalyticSeries.from_coeffs([0, 0, 0, 1.0], n)
    ok, resid = contains(m, outside, MEMBERSHIP_TOL)
    assert not ok and resid > 0.99
    # the zero vector always belongs
    ok, _ = contains(m, AnalyticSeries.zero(n), MEMBERSHIP_TOL)
    assert ok


def test_vanish_at_zero_drops_one_dimension():
    n = 8
    m = span(
        [AnalyticSeries.from_coeffs([1.0, 1.0], n), AnalyticSeries.from_coeffs([0, 0, 1.0], n)],
        n,
    )
    w = vanish_at_zero(m)
    assert w.dim == 1
    assert abs(w.frame[0, 0]) < 1e-12
    # an already-vanishing space is returned whole
    pure = span([AnalyticSeries.from_coeffs([0, 1.0], n)], n)
    assert vanish_at_zero(pure).dim == 1


def test_principal_angles_extremes():
    n = 8
    a = span([AnalyticSeries.from_coeffs([1.0], n)], n)
    b = span([AnalyticSeries.from_coeffs([2.0], n)], n)
    c = span([AnalyticSeries.from_coeffs([0, 1.0], n)], n)
    assert float(principal_angles(a, b).max()) < 1e-12
    assert float(principal_angles(a, c).min()) == pytest.approx(np.pi / 2)


def test_complement_and_direct_sum_identities():
    n = 8
    ambient = span(
        [
            AnalyticSeries.from_coeffs([1.0], n),
            AnalyticSeries.from_coeffs([0, 1.0], n),
            AnalyticSeries.from_coeffs([0, 0, 1.0], n),
        ],
        n,
    )
    removed = span([AnalyticSeries.from_coeffs([0, 1.0], n)], n)
    rest = complement_within(ambient, removed)
    assert rest.dim == 2
    rebuilt = direct_sum(rest, removed)
    assert float(principal_angles(rebuilt, ambient).max()) < 1e-10
    with pytest.raises(ConditioningError):
        direct_sum(removed, removed)
    outside = span([AnalyticSeries.from_coeffs([0, 0, 0, 1.0], n)], n)
    with pytest.raises(InputError):
        complement_within(ambient, outside)


def test_minimal_defect_on_shift_invariant_space():
    n = 16
    # span{1, z, z^2} is backward-shift invariant: defect 0
    k3 = span([AnalyticSeries.monomial(j, n) for j in range(3)], n)
    assert minimal_defect(k3, vanish_at_zero(k3)).defect_dim == 0
    # span{1, z^2}: backshift of z^2 is z, outside: defect 1
    gap = span([AnalyticSeries.monomial(0, n), AnalyticSeries.monomial(2, n)], n)
    report = minimal_defect(gap, vanish_at_zero(gap))
    assert report.defect_dim == 1
    assert report.residual_frame.dim == 1
    assert abs(report.residual_frame.frame[1, 0]) == pytest.approx(1.0)
    payload = report.to_json_dict()
    assert payload["defect_dim"] == 1 and payload["residual_dim"] == 1


def test_minimal_defect_empty_and_constant_spaces():
    n = 8
    empty = Subspace.zero(n)
    assert minimal_defect(empty, vanish_at_zero(empty)).defect_dim == 0
    constants = span([AnalyticSeries.from_coeffs([1.0], n)], n)
    assert minimal_defect(constants, vanish_at_zero(constants)).defect_dim == 0

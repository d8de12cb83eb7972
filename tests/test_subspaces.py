"""Numerical subspaces against an exact rational row-reduction oracle."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import linalg_calls, seeded_perturbation, window_complement
from neartoep.blaschke import BlaschkeProduct
from neartoep.defects import Instance, model_space
from neartoep.errors import ConditioningError, InputError
from neartoep.operators import ConjInnerSymbol, InnerSymbol, OperatorMatrix, ZeroSymbol
from neartoep.series import AnalyticSeries
from neartoep.subspaces import (
    Subspace,
    _right_svd,
    complement_within,
    contains,
    direct_sum,
    kernel_subspace,
    minimal_defect,
    principal_angles,
    project,
    residuals_outside_sum,
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
    op = Instance(InnerSymbol(theta), pert, n).operator
    calls = linalg_calls(monkeypatch, "svd")
    assert len(kernel_subspace(op, 1e-9, column_cap=n // 2).svals) == n // 2
    # the Blaschke tail fills every row, so the 64 x 32 window goes in as
    # its 32 x 32 R factor
    assert [args[0].shape for args, _ in calls] == [(n // 2, n // 2)]


def test_zero_rows_of_a_kernel_window_never_reach_lapack(monkeypatch):
    n = 64
    pert = seeded_perturbation(np.random.default_rng(5), n, 2, 4)
    op = Instance(ZeroSymbol(), pert, n).operator
    calls = linalg_calls(monkeypatch, "svd")
    m = kernel_subspace(op, 1e-9, column_cap=n // 2)
    # R = sum v_i <., u_i> with deg v_i <= 4: only rows 0..4 are nonzero
    assert [args[0].shape for args, _ in calls] == [(5, n // 2)]
    assert m.dim == n // 2 - 2 and m.complement.shape == (n // 2, 2)
    # one value per window column: the dropped rows' values are exact zeros
    assert len(m.svals) == n // 2 and m.svals[5:] == (0.0,) * (n // 2 - 5)


def test_model_space_svds_only_its_basis(monkeypatch):
    theta = BlaschkeProduct.from_points([0.3, -0.2, 0.5j], z_power=2)
    calls = linalg_calls(monkeypatch, "svd")
    assert model_space(theta, 64).dim == theta.degree()
    assert calls
    assert all(args[0].shape[1] <= theta.degree() for args, _ in calls)


def _null_space_vanishing(m):
    """vanish_at_zero from scipy's null_space of the frame's first row."""
    coeffs = scipy.linalg.null_space(m.frame[0:1, :], rcond=m.rank_tol)
    return Subspace(m.frame @ coeffs, m.truncation, m.rank_tol)


@pytest.mark.parametrize("seed", [5, 202, 303])
@pytest.mark.parametrize("case", ["zero", "conj_inner"])
def test_vanish_at_zero_reflector_matches_the_null_space_formula(monkeypatch, case, seed):
    n = 64
    if case == "zero":
        sym = ZeroSymbol()
    else:
        sym = ConjInnerSymbol(BlaschkeProduct.from_points([0.3, -0.2], z_power=1))
    m = Instance(sym, seeded_perturbation(np.random.default_rng(seed), n, 2, 4), n).kernel
    reference = _null_space_vanishing(m)

    def forbidden(*args, **kwargs):
        raise AssertionError("vanish_at_zero called scipy.linalg.null_space")

    monkeypatch.setattr(scipy.linalg, "null_space", forbidden)
    w = vanish_at_zero(m)
    assert w.dim == reference.dim == m.dim - 1 > 0
    assert abs(w.frame[0]).max() < 1e-12
    assert float(principal_angles(w, reference).max()) < 1e-12


def test_kernel_subspace_zero_operator_is_degenerate():
    op = OperatorMatrix(np.zeros((6, 6), dtype=np.complex128), 6)
    m = kernel_subspace(op, 1e-9, column_cap=3)
    assert m.degenerate and m.dim == 3
    assert m.complement.shape == (3, 0)
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


def _random_frame(rng, n, d):
    q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return q


@pytest.mark.parametrize(
    "removed_vectors, directions",
    [
        (1, 1),  # a generic line
        (3, 3),  # three independent directions
        (4, 3),  # rank-deficient: four mixes of three directions
        (5, 5),  # the whole ambient space: empty complement
    ],
)
def test_complement_within_matches_scipy_null_space(removed_vectors, directions):
    rng = np.random.default_rng(41 + removed_vectors)
    n, d = 24, 5
    ambient = Subspace(_random_frame(rng, n, d), n)
    mixes = rng.standard_normal((directions, removed_vectors))
    coords = _random_frame(rng, d, directions) @ mixes
    removed = span((ambient.frame @ coords).T, n)
    assert removed.dim == directions
    rest = complement_within(ambient, removed)
    oracle = scipy.linalg.null_space((ambient.frame.conj().T @ removed.frame).conj().T)
    assert rest.dim == oracle.shape[1] == d - directions
    if rest.dim:
        reference = Subspace(ambient.frame @ oracle, n)
        assert float(principal_angles(rest, reference).max()) < 1e-12


@pytest.mark.parametrize("zero_rows", [0, 7])
def test_right_svd_of_a_tall_block_matches_the_scipy_qr_route(zero_rows):
    rng = np.random.default_rng(9)
    rows, cols = 40, 12
    mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    mat[rows - zero_rows :] = 0.0
    s, vh = _right_svd(mat)
    kept = mat[: rows - zero_rows]
    reference = np.linalg.svd(
        scipy.linalg.qr(kept, mode="r")[0][:cols], compute_uv=False
    )
    assert s.shape == (cols,) and vh.shape == (cols, cols)
    assert np.max(np.abs(s - reference)) < 1e-12 * reference[0]


def test_right_svd_rejects_a_non_finite_tall_block():
    mat = np.ones((8, 3), dtype=np.complex128)
    mat[5, 1] = np.nan
    with pytest.raises(ValueError):
        _right_svd(mat)


def test_subspace_rejects_non_orthonormal_columns():
    frame = np.zeros((6, 2), dtype=np.complex128)
    frame[0, 0] = frame[0, 1] = frame[1, 1] = 1.0
    with pytest.raises(InputError, match="orthonormal"):
        Subspace(frame, 6)


def test_subspace_rejects_an_all_zero_column():
    frame = np.zeros((6, 2), dtype=np.complex128)
    frame[2, 0] = 1.0
    with pytest.raises(InputError, match="orthonormal"):
        Subspace(frame, 6)


def test_subspace_check_reads_the_last_nonzero_row():
    frame = np.zeros((8, 2), dtype=np.complex128)
    frame[0, 0] = frame[1, 1] = 1.0
    assert Subspace(frame.copy(), 8).dim == 2
    # rows 5.. stay zero; the only defect sits in row 4
    frame[4] = 0.1
    with pytest.raises(InputError, match="orthonormal"):
        Subspace(frame, 8)


def _diagonal_kernel(n, kernel_degrees, column_cap=None):
    """kernel_subspace of the diagonal operator that kills z^j for j in kernel_degrees."""
    diag = np.ones(n, dtype=np.complex128)
    diag[list(kernel_degrees)] = 0.0
    return kernel_subspace(OperatorMatrix(np.diag(diag), n), 1e-9, column_cap)


def test_minimal_defect_on_shift_invariant_space():
    n = 16
    for cap in (None, n // 2):
        # span{1, z, z^2} is backward-shift invariant: defect 0
        k3 = _diagonal_kernel(n, range(3), cap)
        assert minimal_defect(k3, vanish_at_zero(k3)).defect_dim == 0
        # span{1, z^2}: backshift of z^2 is z, outside: defect 1
        gap = _diagonal_kernel(n, (0, 2), cap)
        report = minimal_defect(gap, vanish_at_zero(gap))
        assert report.defect_dim == 1
        assert report.residual_frame.dim == 1
        assert abs(report.residual_frame.frame[1, 0]) == pytest.approx(1.0)
        payload = report.to_json_dict()
        assert payload["defect_dim"] == 1 and payload["residual_dim"] == 1


def test_minimal_defect_empty_and_constant_spaces():
    n = 8
    empty = _diagonal_kernel(n, ())
    assert empty.dim == 0
    assert minimal_defect(empty, vanish_at_zero(empty)).defect_dim == 0
    constants = _diagonal_kernel(n, (0,))
    assert minimal_defect(constants, vanish_at_zero(constants)).defect_dim == 0


def test_minimal_defect_rejects_a_subspace_without_a_window_complement():
    n = 16
    gap = span([AnalyticSeries.monomial(0, n), AnalyticSeries.monomial(2, n)], n)
    assert gap.complement is None
    with pytest.raises(InputError):
        minimal_defect(gap, vanish_at_zero(gap))


def _zero_symbol_instance(n=64):
    return Instance(ZeroSymbol(), seeded_perturbation(np.random.default_rng(202), n, 2, 6), n)


def test_kernel_complement_completes_the_column_window():
    theta = BlaschkeProduct.from_points([0.3, -0.2])
    conj_inner = Instance(
        ConjInnerSymbol(theta), seeded_perturbation(np.random.default_rng(5), 64, 2, 4), 64
    )
    for inst in (_zero_symbol_instance(), conj_inner):
        m, cap = inst.kernel, inst.column_cap
        assert m.window == cap and not m.frame[cap:].any()
        comp = m.complement
        if isinstance(inst.symbol, ZeroSymbol):
            # the cofinite kernel keeps its rank-wide complement
            assert not comp.flags.writeable
        else:
            # a finite kernel keeps only its frame, the thin side
            assert comp is None
            comp = window_complement(m)
        assert m.dim > 0 and comp.shape == (cap, cap - m.dim)
        assert np.max(np.abs(comp.conj().T @ comp - np.eye(cap - m.dim))) < 1e-12
        assert np.max(np.abs(comp.conj().T @ m.frame[:cap])) < 1e-12


def test_defect_svd_sees_only_the_complement_coordinates(monkeypatch):
    inst = _zero_symbol_instance()
    m, w = inst.kernel, inst.vanishing
    calls = linalg_calls(monkeypatch, "svd")
    assert inst.defect.defect_dim == 2
    # one (cap - dim M) x dim W matrix, here 2 x 29, never an N-row block
    assert [args[0].shape for args, _ in calls] == [(inst.column_cap - m.dim, w.dim)]


def test_residuals_outside_sum_vanish_on_the_sum_and_measure_what_sticks_out():
    rng = np.random.default_rng(12)
    n = 40

    def frame(k):
        return np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]

    m = Subspace(frame(6), n)
    # F shares one direction with M, so the sum has dim 6 + 3 - 1.
    f_cols = np.column_stack([m.frame[:, :1], frame(2)])
    f = Subspace(np.linalg.qr(f_cols)[0], n)
    inside = m.frame @ rng.standard_normal((6, 4)) + f.frame @ rng.standard_normal((3, 4))
    assert float(residuals_outside_sum(m, f, inside).max()) <= 1e-14
    joint = span(np.hstack((m.frame, f.frame)).T, n)
    assert joint.dim == 8
    probe = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    probe[:, 2] = 0.0
    expected = np.linalg.norm(probe - joint.frame @ (joint.frame.conj().T @ probe), axis=0)
    expected[:2] /= np.linalg.norm(probe[:, :2], axis=0)
    got = residuals_outside_sum(m, f, probe)
    assert np.max(np.abs(got - expected)) <= 1e-13 and got[2] == 0.0
    empty = Subspace.zero(n)
    assert np.allclose(residuals_outside_sum(empty, f, probe[:, :2]),
                       residuals_outside_sum(f, empty, probe[:, :2]), atol=1e-14)

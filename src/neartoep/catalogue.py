"""Built-in verification catalogue: one row per implemented statement.

Every row freezes a concrete instance (symbol, perturbation vectors) and
re-derives the claimed conclusion numerically at the requested truncation.
Rows carry no randomness, so reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blaschke import BlaschkeProduct, blaschke_expand
from .cgp import (
    CgpFrame,
    RepresentationReport,
    build_monomial_split_frame,
    check_corollary,
    monomial_split_expected_kernel,
    remark_projection_direct,
    remark_projection_formula,
)
from .defects import Instance, check_defect_theorem, model_space
from .errors import InputError
from .operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    ZeroSymbol,
)
from .runner import DEFAULT_TRUNCATION, stability_summary
from .series import (
    AnalyticSeries,
    backshift,
    inner_product,
    multiply_analytic,
    reproducing_kernel,
)
from .subspaces import DEFAULT_RANK_TOL, principal_angles, span

MIN_CATALOGUE_TRUNCATION = 64
GAP_FLOOR = 1e-3          # a reproduced representation gap must exceed this
ANGLE_TOL = 1e-7
# The defect space and the span of the (m+1)-fold backshifts of the v_i.
SHIFT_FORM_ANGLE_TOL = 1e-10
FORMULA_TOL = 1e-10


@dataclass(frozen=True)
class RowResult:
    """Outcome of one catalogue row."""

    row_id: str
    claim: str
    passed: bool
    details: dict
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "row_id": self.row_id,
            "claim": self.claim,
            "passed": self.passed,
            "details": self.details,
            "notes": list(self.notes),
        }


_ROWS: list[tuple[str, str, Callable]] = []


def _row(row_id: str, claim: str):
    def deco(fn):
        _ROWS.append((row_id, claim, fn))
        return fn

    return deco


def catalogue_ids() -> tuple[str, ...]:
    return tuple(row_id for row_id, _, _ in _ROWS)


# ---------------------------------------------------------------- helpers

def _poly(coeffs: Sequence[complex], n: int) -> AnalyticSeries:
    return AnalyticSeries.from_coeffs(coeffs, n)


def _unit(f: AnalyticSeries) -> AnalyticSeries:
    return f * (1.0 / f.norm())


def _shifted(coeffs: Sequence[complex], by: int, n: int) -> AnalyticSeries:
    arr = np.zeros(n, dtype=np.complex128)
    arr[by : by + len(coeffs)] = coeffs
    return AnalyticSeries(arr, n)


def _orth_against(f: AnalyticSeries, *units: AnalyticSeries) -> AnalyticSeries:
    out = f
    for u in units:
        out = out - u * complex(inner_product(out, u))
    return _unit(out)


def _defect_details(inst: Instance) -> tuple[bool, dict]:
    report, witness = check_defect_theorem(inst)
    ok = report.passed and witness.passed
    details = {
        "defect": report.to_json_dict(),
        "witness": witness.to_json_dict(),
        "stability": stability_summary(inst),
    }
    return ok and details["stability"]["stable_at_double"], details


def _representation_details(
    inst: Instance, frame: CgpFrame | None = None
) -> tuple[RepresentationReport, dict]:
    rep = check_corollary(inst, frame=frame)
    details = {
        "representation": rep.to_json_dict(),
        "stability": stability_summary(inst),
    }
    return rep, details


def _rep_row(sym, pert, n) -> tuple[bool, dict, tuple]:
    rep, details = _representation_details(Instance(sym, pert, n))
    ok = rep.passed and details["stability"]["stable_at_double"]
    return ok, details, rep.notes


# ------------------------------------------------------- fixed ingredients

_BL_PAIR = [0.3, -0.2]          # two-zero product used across rows
_BL_CONJ = [0.3, -0.25]


def _inner_pair_symbol() -> BlaschkeProduct:
    return BlaschkeProduct.from_points(_BL_PAIR)


def _conj_pair_symbol() -> BlaschkeProduct:
    return BlaschkeProduct.from_points(_BL_CONJ)


def _rank_two_us(n: int) -> tuple[AnalyticSeries, AnalyticSeries]:
    u1 = _unit(_poly([1.0, 0.4, -0.2, 0.1, 0.05], n))
    u2 = _orth_against(_poly([0.2, 1.0, 0.3, -0.15], n), u1)
    return u1, u2


def _rank_two_vs(n: int) -> tuple[AnalyticSeries, AnalyticSeries]:
    # disjoint coefficient supports keep the v family pairwise orthogonal
    return _poly([0.5, -0.25, 0.15], n), _shifted([0.1, 0.3, -0.2, 0.4], 3, n)


# ----------------------------------------------------- annihilator defect

@_row(
    "defect-annihilator-rank-one",
    "The kernel of a rank-one annihilator perturbation is a hyperplane, "
    "nearly backward-shift invariant with defect 1 inside the span of the "
    "pairing direction.",
)
def _r1(n: int):
    u = _unit(_poly([1.0, 0.5, -0.25, 0.2, 0.1], n))
    v = _poly([0.4, -0.3, 0.2, 0.12, -0.05, 0.03], n)
    return _defect_details(Instance(ZeroSymbol(), PerturbationSpec(((u, v),)), n))


@_row(
    "defect-annihilator-rank-two",
    "A rank-two annihilator perturbation has defect at most 2 with the "
    "residuals confined to the span of the two pairing directions.",
)
def _r2(n: int):
    u1, u2 = _rank_two_us(n)
    v1, v2 = _rank_two_vs(n)
    return _defect_details(
        Instance(ZeroSymbol(), PerturbationSpec(((u1, v1), (u2, v2))), n)
    )


@_row(
    "defect-annihilator-rank-three",
    "A rank-three annihilator perturbation has defect at most 3 with the "
    "residuals confined to the span of the three pairing directions.",
)
def _r3(n: int):
    u1, u2 = _rank_two_us(n)
    u3 = _orth_against(_poly([0.0, 0.2, 1.0, 0.25, -0.1], n), u1, u2)
    v1, v2 = _rank_two_vs(n)
    v3 = _shifted([0.3, 0.5, 0.1], 7, n)
    pert = PerturbationSpec(((u1, v1), (u2, v2), (u3, v3)))
    return _defect_details(Instance(ZeroSymbol(), pert, n))


# --------------------------------------------------- multiplier defect

@_row(
    "defect-inner-monomial",
    "For a monomial multiplier symbol the perturbed kernel is nearly "
    "backward-shift invariant with defect at most the rank, residuals "
    "inside the span of the co-analytically shifted replacement vectors.",
)
def _r4(n: int):
    u1, u2 = _rank_two_us(n)
    v1, v2 = _rank_two_vs(n)
    sym = InnerSymbol(BlaschkeProduct(z_power=3))
    return _defect_details(Instance(sym, PerturbationSpec(((u1, v1), (u2, v2))), n))


@_row(
    "defect-inner-blaschke",
    "For a finite Blaschke multiplier the perturbed kernel keeps defect at "
    "most the rank with the predicted replacement span.",
)
def _r5(n: int):
    u1, u2 = _rank_two_us(n)
    v1, v2 = _rank_two_vs(n)
    sym = InnerSymbol(BlaschkeProduct.from_points([0.3, -0.2, 0.15]))
    return _defect_details(Instance(sym, PerturbationSpec(((u1, v1), (u2, v2))), n))


@_row(
    "defect-inner-shift-power-form",
    "For the monomial multiplier z^m the replacement span collapses to the "
    "(m+1)-fold backshifts of the v vectors.",
)
def _r6(n: int):
    m_pow = 2
    u1, u2 = _rank_two_us(n)
    v1, v2 = _rank_two_vs(n)
    sym = InnerSymbol(BlaschkeProduct(z_power=m_pow))
    inst = Instance(sym, PerturbationSpec(((u1, v1), (u2, v2))), n)
    f_general = inst.defect_space
    shifted = []
    for v in (v1, v2):
        w = v
        for _ in range(m_pow + 1):
            w = backshift(w)
        shifted.append(w)
    f_shift = span(shifted, n, DEFAULT_RANK_TOL)
    if f_general.dim != f_shift.dim:
        angle = float("inf")
    else:
        angle = float(principal_angles(f_general, f_shift)[-1])
    ok, details = _defect_details(inst)
    details["shift_form_angle"] = angle
    return ok and angle < SHIFT_FORM_ANGLE_TOL, details


# ------------------------------------------------ invertible-product defect

@_row(
    "defect-invertible-product",
    "For a product of an invertible analytic factor and a conjugated "
    "invertible factor the defect stays at most the rank, residuals inside "
    "the doubly solved backshift images of the v vectors.",
)
def _r7(n: int):
    sym = InvertibleProductSymbol(_poly([1.0, 1 / 3], n), _poly([1.0, -0.25], n))
    u = _unit(_poly([0.6, -0.2, 0.3, 0.1, -0.05], n))
    v = _poly([0.4, 0.2, -0.3, 0.15], n)
    return _defect_details(Instance(sym, PerturbationSpec(((u, v),)), n))


@_row(
    "defect-invertible-product-rank-two",
    "The invertible-product defect bound holds at rank two with quadratic "
    "factors.",
)
def _r8(n: int):
    sym = InvertibleProductSymbol(
        _poly([1.0, 0.2, -0.15], n), _poly([1.0, -0.3, 0.1], n)
    )
    u1, u2 = _rank_two_us(n)
    v1, v2 = _rank_two_vs(n)
    return _defect_details(Instance(sym, PerturbationSpec(((u1, v1), (u2, v2))), n))


# ------------------------------------------------- conjugate-inner defect

@_row(
    "defect-conj-inner-divisible",
    "When every perturbation direction is divisible by the inner function, "
    "the conjugate-inner defect bound is the bare rank.",
)
def _r9(n: int):
    th = _conj_pair_symbol()
    th_exp = blaschke_expand(th, n)
    u1 = _unit(multiply_analytic(th_exp, _poly([1.0, 0.4], n)))
    u2 = _orth_against(
        multiply_analytic(th_exp, _poly([0.3, -0.2, 1.0], n)), u1
    )
    v1, v2 = _rank_two_vs(n)
    pert = PerturbationSpec(((u1, v1), (u2, v2)))
    ok, details = _defect_details(Instance(ConjInnerSymbol(th), pert, n))
    bound = details["defect"]["bound_from_theorem"]
    details["lambda_bound_is_rank"] = bound == 2
    return ok and bound == 2, details


@_row(
    "defect-conj-inner-mixed",
    "A direction with a nonzero model-space component raises the "
    "conjugate-inner defect bound by one.",
)
def _r10(n: int):
    th = _conj_pair_symbol()
    th_exp = blaschke_expand(th, n)
    u2 = _unit(multiply_analytic(th_exp, _poly([0.5, 1.0], n)))
    u1 = _orth_against(_poly([1.0, 0.6, 0.3, -0.2], n), u2)
    v1, v2 = _rank_two_vs(n)
    pert = PerturbationSpec(((u1, v1), (u2, v2)))
    ok, details = _defect_details(Instance(ConjInnerSymbol(th), pert, n))
    bound = details["defect"]["bound_from_theorem"]
    details["lambda_bound_is_rank_plus_one"] = bound == 3
    return ok and bound == 3, details


# ------------------------------------------- annihilator representation

@_row(
    "rep-annihilator-generic",
    "The hyperplane kernel of a rank-one annihilator perturbation is "
    "reproduced bidirectionally by its two-slot coefficient system.",
)
def _r11(n: int):
    u = _unit(_poly([1.0, 0.5, -0.25, 0.2], n))
    v = _poly([0.3, -0.4, 0.25, 0.1, 0.05], n)
    return _rep_row(ZeroSymbol(), PerturbationSpec(((u, v),)), n)


@_row(
    "rep-annihilator-constant-direction",
    "Pairing against the constant direction leaves the shifted full space, "
    "represented isometrically by a single free slot.",
)
def _r12(n: int):
    u = _poly([1.0], n)
    v = _poly([0.3, -0.4, 0.25], n)
    return _rep_row(ZeroSymbol(), PerturbationSpec(((u, v),)), n)


@_row(
    "rep-annihilator-inner-direction",
    "Pairing against an inner direction splits the kernel into a model "
    "space plus a shifted multiple of the direction.",
)
def _r13(n: int):
    u = blaschke_expand(_inner_pair_symbol(), n)
    v = _poly([0.2, 0.4, -0.3, 0.1], n)
    return _rep_row(ZeroSymbol(), PerturbationSpec(((u, v),)), n)


@_row(
    "rep-annihilator-kernel-direction",
    "Pairing against a normalized reproducing kernel pins the kernel to "
    "functions vanishing at the sample point.",
)
def _r14(n: int):
    u = reproducing_kernel(0.5, n, normalized=True)
    v = _poly([0.35, -0.2, 0.15, 0.1], n)
    return _rep_row(ZeroSymbol(), PerturbationSpec(((u, v),)), n)


@_row(
    "rep-annihilator-binomial-direction",
    "Pairing against the normalized binomial direction produces the "
    "closed-form slot vectors of the binomial family.",
)
def _r15(n: int):
    u = _poly([1 / np.sqrt(2.0), 0.0, 1 / np.sqrt(2.0)], n)
    v = _poly([0.3, 0.2, -0.4, 0.15], n)
    return _rep_row(ZeroSymbol(), PerturbationSpec(((u, v),)), n)


# --------------------------------------------- multiplier representation

def _singular_pairing(sym, u: AnalyticSeries, v: AnalyticSeries, n: int):
    """sym with the rank-one term (u, kappa v), kappa = -1/<C v, u> for the
    family's corrector C, so that the pairing 1 + <C kappa v, u> vanishes."""
    kappa = -1.0 / complex(Instance(sym, PerturbationSpec(((u, v),)), n).pairing[0, 0])
    return sym, PerturbationSpec(((u, kappa * v),))


def _inner_line_instance(n: int, head: Sequence[complex]):
    th = _inner_pair_symbol()
    th_exp = blaschke_expand(th, n)
    p = _poly(head, n)
    u = _unit(_poly([1.0, 0.3, -0.2, 0.1], n))
    return _singular_pairing(InnerSymbol(th), u, multiply_analytic(th_exp, p), n)


@_row(
    "rep-inner-nonzero-mean",
    "A multiplier-symbol kernel line with nonvanishing solved mean is "
    "represented by a single constrained slot.",
)
def _r16(n: int):
    sym, pert = _inner_line_instance(n, [1.0, 0.5, 0.2])
    return _rep_row(sym, pert, n)


@_row(
    "rep-inner-zero-mean",
    "A multiplier-symbol kernel line whose solved vector vanishes at the "
    "origin lands in the shifted branch of the representation.",
)
def _r17(n: int):
    sym, pert = _inner_line_instance(n, [0.0, 1.0, 1 / 3])
    return _rep_row(sym, pert, n)


def _invertible_line_instance(n: int, zero_mean: bool):
    sym = InvertibleProductSymbol(_poly([1.0, 1 / 3], n), _poly([1.0, -0.25], n))
    u = _unit(_poly([0.6, -0.2, 0.3, 0.1, -0.05], n))
    v = _poly([0.4, 0.2, -0.3, 0.15], n)
    if zero_mean:
        # force the doubly solved vector to vanish at 0
        w = np.conj(Instance(sym, PerturbationSpec(((u, v),)), n).f2_inv.coeffs)
        v = v - AnalyticSeries(
            w * (np.vdot(w, v.coeffs) / np.vdot(w, w)), n
        )
    return _singular_pairing(sym, u, v, n)


@_row(
    "rep-invertible-nonzero-mean",
    "An invertible-product kernel line with nonvanishing leading pairing "
    "is represented by a single constrained slot.",
)
def _r18(n: int):
    sym, pert = _invertible_line_instance(n, zero_mean=False)
    return _rep_row(sym, pert, n)


@_row(
    "rep-invertible-zero-mean",
    "An invertible-product kernel line with vanishing leading pairing "
    "lands in the shifted branch of the representation.",
)
def _r19(n: int):
    sym, pert = _invertible_line_instance(n, zero_mean=True)
    return _rep_row(sym, pert, n)


# ---------------------------------------- conjugate-inner representation

@_row(
    "rep-conj-inner-model-space",
    "With every direction divisible by the inner function and a nonzero "
    "selector, the kernel is exactly the model space.",
)
def _r20(n: int):
    th = _conj_pair_symbol()
    th_exp = blaschke_expand(th, n)
    u = _unit(multiply_analytic(th_exp, _poly([1.0, 0.4, -0.2], n)))
    v = _poly([0.5, 0.2, -0.3, 0.1], n)
    return _rep_row(ConjInnerSymbol(th), PerturbationSpec(((u, v),)), n)


def _extended_model_instance(n: int):
    th = _conj_pair_symbol()
    th_exp = blaschke_expand(th, n)
    u = _unit(multiply_analytic(th_exp, _poly([1.0, 0.4, -0.2], n)))
    return _singular_pairing(ConjInnerSymbol(th), u, _poly([0.5, 0.2, -0.3, 0.1], n), n)


@_row(
    "rep-conj-inner-extended-model",
    "With a vanishing selector the kernel extends the model space by the "
    "multiplied direction.",
)
def _r21(n: int):
    sym, pert = _extended_model_instance(n)
    return _rep_row(sym, pert, n)


def _split_instance(n: int, th: BlaschkeProduct, tail: Sequence[complex]):
    """Mixed direction with model part along the backshifted inner function.

    The three-slot coefficient system characterizes the kernel exactly when
    the inner function and the pairing vector both vanish at the origin and
    the model component of the direction lies along the backshifted inner
    function; this family keeps every cross coupling at zero.
    """
    th_exp = blaschke_expand(th, n)
    v = _unit(_poly([0.0, 0.6, -0.3, 0.2], n))
    u1 = 0.5 * backshift(th_exp)
    u2 = multiply_analytic(th_exp, _poly(tail, n))
    u = _unit(u1 + u2)
    return ConjInnerSymbol(th), PerturbationSpec(((u, v),))


@_row(
    "rep-conj-inner-split-monomial",
    "A mixed direction over the squared shift with model part along the "
    "backshifted inner function verifies the three-slot system in both "
    "directions.",
)
def _r22(n: int):
    sym, pert = _split_instance(n, BlaschkeProduct(z_power=2), [0.5, -0.25, 0.2])
    return _rep_row(sym, pert, n)


@_row(
    "rep-conj-inner-split-blaschke",
    "The three-slot system remains exact over a genuine Blaschke factor "
    "when the model part of the direction follows the backshifted inner "
    "function.",
)
def _r23(n: int):
    th = BlaschkeProduct.from_points([0.4], z_power=2)
    sym, pert = _split_instance(n, th, [0.3, 0.2, -0.1])
    return _rep_row(sym, pert, n)


@_row(
    "rep-conj-inner-orthogonal-split-known-gap",
    "With a vanishing selector the printed final-slot moment family "
    "under-determines the coefficient space; this row certifies that the "
    "documented discrepancy reproduces while the defect prediction holds.",
)
def _r24(n: int):
    th = BlaschkeProduct(z_power=3)
    th_exp = blaschke_expand(th, n)
    s = _poly([0.0, 1.0, 0.5], n)
    v = 2.0 * s
    kappa = np.conj(-1.0 / complex(inner_product(v, s)))
    u_theta = kappa * multiply_analytic(th_exp, s)
    rem = 1.0 - u_theta.norm() ** 2
    u1 = _unit(_poly([0.0, 1.0, 0.5], n)) * np.sqrt(rem)
    pert = PerturbationSpec(((u1 + u_theta, v),))
    inst = Instance(ConjInnerSymbol(th), pert, n)
    rep = check_corollary(inst)
    defect_ok, details = _defect_details(inst)  # the row's one 2N audit
    details["representation"] = rep.to_json_dict()
    gap_reproduced = (not rep.passed) and rep.forward_max_residual > GAP_FLOOR
    details["gap_reproduced"] = gap_reproduced
    notes = rep.notes + (
        "final-slot moment vector cannot express the model-membership "
        "coupling of the last slot, so the image of the whole clause "
        "nullspace leaves the kernel on every instance of this branch",
    )
    return gap_reproduced and defect_ok, details, notes


# --------------------------------------------------- closed-form remark

@_row(
    "remark-projection-closed-form",
    "Projecting the constant onto the model space minus one removed "
    "direction matches the closed reproducing-kernel formula.",
)
def _r25(n: int):
    worst = 0.0
    for th, coeffs, mu in (
        (_inner_pair_symbol(), [0.7 + 0.2j, -0.4 + 0.5j], 0.3 - 0.8j),
        (BlaschkeProduct(z_power=2), [0.2 - 0.6j, 1.1 + 0.3j], -0.7 + 0.4j),
    ):
        kth = model_space(th, n)
        g = AnalyticSeries(kth.frame @ np.asarray(coeffs, dtype=np.complex128), n)
        v = _poly([0.25, -0.4, 0.3, 0.15], n)
        diff = (
            remark_projection_formula(th, v, g, mu, n)
            - remark_projection_direct(th, v, g, mu, n)
        ).norm()
        worst = max(worst, diff)
    return worst < FORMULA_TOL, {"max_formula_difference": worst}


# ------------------------------------------------ monomial split example

def _monomial_split_instance(n: int, m_pow: int):
    v = _unit(_shifted([0.5, -0.3, 0.2, 0.1], 1, n))
    u2 = _shifted([0.4, -0.2, 0.3, 0.1], m_pow, n)
    u2 = u2 * (np.sqrt(15.0) / 4.0 / u2.norm())
    u = AnalyticSeries.monomial(m_pow - 1, n, 0.25) + u2
    return ConjInnerSymbol(BlaschkeProduct(z_power=m_pow)), PerturbationSpec(((u, v),))


def _monomial_split_row(n: int, m_pow: int):
    sym, pert = _monomial_split_instance(n, m_pow)
    inst = Instance(sym, pert, n)
    frame = build_monomial_split_frame(m_pow, inst.perturbation, n)
    rep, details = _representation_details(inst, frame)
    expected = monomial_split_expected_kernel(m_pow, inst.perturbation, n)
    computed = inst.kernel
    if expected.dim != computed.dim:
        angle = float("inf")
    else:
        angle = float(principal_angles(expected, computed)[-1])
    details["expected_kernel_angle"] = angle
    ok = rep.passed and angle < ANGLE_TOL and details["stability"]["stable_at_double"]
    return ok, details, rep.notes


@_row(
    "rep-split-monomial-power-one",
    "Over the plain shift the kernel matches the displayed span formula "
    "and the power-indexed slot system verifies in both directions.",
)
def _r26(n: int):
    return _monomial_split_row(n, 1)


@_row(
    "rep-split-monomial-power-two",
    "Over the squared shift the kernel matches the displayed span formula "
    "and the power-indexed slot system verifies in both directions.",
)
def _r27(n: int):
    return _monomial_split_row(n, 2)


@_row(
    "rep-split-monomial-power-three",
    "Over the cubed shift the kernel matches the displayed span formula "
    "and the power-indexed slot system verifies in both directions.",
)
def _r28(n: int):
    return _monomial_split_row(n, 3)


# ------------------------------------------------------------- driver

def run_catalogue(truncation: int = DEFAULT_TRUNCATION) -> tuple[RowResult, ...]:
    """Evaluate every catalogue row at the given truncation order."""
    if truncation < MIN_CATALOGUE_TRUNCATION:
        raise InputError(
            f"catalogue rows need truncation >= {MIN_CATALOGUE_TRUNCATION}, "
            f"got {truncation}"
        )
    results = []
    for row_id, claim, fn in _ROWS:
        out = fn(truncation)
        if len(out) == 2:
            passed, details = out
            notes: tuple[str, ...] = ()
        else:
            passed, details, notes = out
        results.append(
            RowResult(
                row_id=row_id,
                claim=claim,
                passed=bool(passed),
                details=details,
                notes=tuple(notes),
            )
        )
    return tuple(results)

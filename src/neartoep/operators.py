"""Truncated Toeplitz matrices, symbols, and finite-rank perturbations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blaschke import BlaschkeProduct, blaschke_expand
from .errors import HypothesisViolationError, InputError
from .series import (
    AnalyticSeries,
    LaurentSeries,
    cauchy_product,
    conj_on_circle,
    embed,
    multiply,
    require_disk_invertible,
)

ORTHONORMAL_TOL = 1e-10

# Relative support mass above which a symbol no longer counts as
# analytic / co-analytic for the product identity hypotheses.
SUPPORT_MASS_TOL = 1e-12


@dataclass(frozen=True)
class ZeroSymbol:
    tag = "zero"

    def to_json_dict(self) -> dict:
        return {"tag": self.tag}


@dataclass(frozen=True)
class TrigPolySymbol:
    """Arbitrary trigonometric polynomial symbol."""

    series: LaurentSeries
    tag = "trig_poly"

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "series": self.series.to_json_dict()}


@dataclass(frozen=True)
class InnerSymbol:
    """Finite Blaschke product used as an analytic symbol."""

    product: BlaschkeProduct
    tag = "inner"

    def __post_init__(self) -> None:
        if self.product.degree() == 0:
            raise InputError("inner symbol must be nonconstant")

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "product": self.product.to_json_dict()}


@dataclass(frozen=True)
class ConjInnerSymbol:
    """Boundary conjugate of a finite Blaschke product."""

    product: BlaschkeProduct
    tag = "conj_inner"

    def __post_init__(self) -> None:
        if self.product.degree() == 0:
            raise InputError("conjugate-inner symbol must be nonconstant")

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "product": self.product.to_json_dict()}


@dataclass(frozen=True)
class InvertibleProductSymbol:
    """f1 * conj(f2) with both polynomials zero-free on the closed disk."""

    f1: AnalyticSeries
    f2: AnalyticSeries
    tag = "invertible_product"

    def __post_init__(self) -> None:
        require_disk_invertible(self.f1, "f1")
        require_disk_invertible(self.f2, "f2")

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "f1": self.f1.to_json_dict(),
            "f2": self.f2.to_json_dict(),
        }


Symbol = Union[
    ZeroSymbol, TrigPolySymbol, InnerSymbol, ConjInnerSymbol, InvertibleProductSymbol
]


def symbol_from_json(data: dict) -> Symbol:
    try:
        tag = data["tag"]
    except (KeyError, TypeError) as exc:
        raise InputError("symbol needs a 'tag' field") from exc

    def field(key, reader):
        """reader(data[key]), naming a missing or malformed field in the InputError."""
        if not isinstance(data.get(key), dict):
            raise InputError(f"{tag!r} symbol needs a {key!r} object")
        try:
            return reader(data[key])
        except InputError as exc:
            raise InputError(f"symbol field {key!r}: {exc}") from exc

    if tag == "zero":
        return ZeroSymbol()
    if tag == "trig_poly":
        return TrigPolySymbol(field("series", LaurentSeries.from_json_dict))
    if tag == "inner":
        return InnerSymbol(field("product", BlaschkeProduct.from_json_dict))
    if tag == "conj_inner":
        return ConjInnerSymbol(field("product", BlaschkeProduct.from_json_dict))
    if tag == "invertible_product":
        return InvertibleProductSymbol(
            field("f1", AnalyticSeries.from_json_dict),
            field("f2", AnalyticSeries.from_json_dict),
        )
    raise InputError(f"unknown symbol tag {tag!r}")


def symbol_fourier(sym: Symbol, truncation: int) -> LaurentSeries:
    """Circle Fourier coefficients of the symbol at the given truncation."""
    if isinstance(sym, ZeroSymbol):
        return LaurentSeries.zero(truncation)
    if isinstance(sym, TrigPolySymbol):
        return _resize_laurent(sym.series, truncation)
    if isinstance(sym, InnerSymbol):
        return embed(blaschke_expand(sym.product, truncation))
    if isinstance(sym, ConjInnerSymbol):
        return conj_on_circle(blaschke_expand(sym.product, truncation))
    if isinstance(sym, InvertibleProductSymbol):
        f1 = embed(sym.f1.resized(truncation))
        f2bar = conj_on_circle(sym.f2.resized(truncation))
        return multiply(f1, f2bar)
    raise InputError(f"unsupported symbol {type(sym).__name__}")


def _resize_laurent(f: LaurentSeries, truncation: int) -> LaurentSeries:
    if truncation == f.truncation:
        return f
    arr = np.zeros(2 * truncation + 1, dtype=np.complex128)
    lo = min(truncation, f.truncation)
    src = f.coeffs
    arr[truncation - lo : truncation + lo + 1] = src[
        f.truncation - lo : f.truncation + lo + 1
    ]
    if truncation < f.truncation:
        dropped = np.linalg.norm(src[: f.truncation - lo]) + np.linalg.norm(
            src[f.truncation + lo + 1 :]
        )
        if dropped > 0:
            raise InputError("resize would discard nonzero Fourier mass")
    return LaurentSeries(arr, truncation)


@dataclass(frozen=True)
class PerturbationSpec:
    """Rank-n tail: f maps to sum_i <f, u_i> v_i.

    The u_i must be orthonormal and the v_i pairwise orthogonal and
    nonzero; construction validates both to ORTHONORMAL_TOL.
    """

    terms: tuple[tuple[AnalyticSeries, AnalyticSeries], ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            return
        n0 = terms[0][0].truncation
        for u, v in terms:
            if u.truncation != n0 or v.truncation != n0:
                raise InputError("perturbation terms must share one truncation")
        umat = np.column_stack([u.coeffs for u, _ in terms])
        gram = umat.conj().T @ umat
        if np.max(np.abs(gram - np.eye(len(terms)))) > ORTHONORMAL_TOL:
            raise InputError(
                "perturbation invariant violated: u-vectors are not orthonormal"
            )
        for i, (_, vi) in enumerate(terms):
            ni = vi.norm()
            if ni == 0.0:
                raise InputError(
                    "perturbation invariant violated: v-vectors must be nonzero"
                )
            for _, vj in terms[i + 1 :]:
                if abs(np.vdot(vj.coeffs, vi.coeffs)) > ORTHONORMAL_TOL * ni * vj.norm():
                    raise InputError(
                        "perturbation invariant violated: v-vectors are not orthogonal"
                    )

    @property
    def rank_bound(self) -> int:
        return len(self.terms)

    def resized(self, truncation: int) -> "PerturbationSpec":
        return PerturbationSpec(
            tuple((u.resized(truncation), v.resized(truncation)) for u, v in self.terms)
        )

    def u_matrix(self, truncation: int) -> np.ndarray:
        return np.column_stack(
            [u.resized(truncation).coeffs for u, _ in self.terms]
        ) if self.terms else np.zeros((truncation, 0), dtype=np.complex128)

    def v_matrix(self, truncation: int) -> np.ndarray:
        return np.column_stack(
            [v.resized(truncation).coeffs for _, v in self.terms]
        ) if self.terms else np.zeros((truncation, 0), dtype=np.complex128)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"u": u.to_json_dict(), "v": v.to_json_dict()} for u, v in self.terms
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PerturbationSpec":
        try:
            terms = tuple(
                (
                    AnalyticSeries.from_json_dict(t["u"]),
                    AnalyticSeries.from_json_dict(t["v"]),
                )
                for t in data["terms"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed perturbation: {exc}") from exc
        return cls(terms)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix in the monomial basis."""

    entries: np.ndarray
    truncation: int

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if arr.shape != (self.truncation, self.truncation):
            raise InputError(
                f"entries shape {arr.shape} disagrees with truncation {self.truncation}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def toeplitz_block(g: LaurentSeries, rows: int, cols: int) -> np.ndarray:
    """The rows x cols corner of T_g: entry (j, k) is the Fourier coefficient
    of g at j - k, for 1 <= rows, cols <= N."""
    n = g.truncation
    if not (1 <= rows <= n and 1 <= cols <= n):
        raise InputError(f"block {rows} x {cols} outside truncation {n}")
    # Row j of the windows over indices -(cols-1)..rows-1 holds indices
    # j-(cols-1)..j; reversed it is j, j-1, ..., j-(cols-1).
    windows = sliding_window_view(g.coeffs[n - cols + 1 : n + rows], cols)
    return np.ascontiguousarray(windows[:, ::-1])


def toeplitz_columns(g: LaurentSeries, cols: np.ndarray) -> np.ndarray:
    """T_g applied to every column of an N x k block, for 1 <= N <= g's truncation.

    Row j of T_g x is sum_k g[j - k] x[k]: coefficient j + N - 1 of g's window
    -(N-1)..N-1 times x.  So the block takes one cauchy_product, and equals
    toeplitz_block(g, N, N) @ cols without the N x N matrix.
    """
    n, rows = g.truncation, cols.shape[0]
    if not 1 <= rows <= n:
        raise InputError(f"block of {rows} rows outside truncation {n}")
    window = g.coeffs[n - rows + 1 : n + rows]
    return cauchy_product(window, cols, 2 * rows - 1)[rows - 1 :]


def toeplitz_matrix(g: LaurentSeries) -> OperatorMatrix:
    """Matrix with entry (j, k) equal to the Fourier coefficient of g at j - k."""
    return OperatorMatrix(toeplitz_block(g, g.truncation, g.truncation), g.truncation)


def perturbed_matrix(base: OperatorMatrix, pert: PerturbationSpec) -> OperatorMatrix:
    """Add the rank-n tail sum_i v_i <., u_i> to a base matrix."""
    n = base.truncation
    entries = base.entries.copy()
    if pert.terms:
        entries += pert.v_matrix(n) @ pert.u_matrix(n).conj().T
    return OperatorMatrix(entries, n)


def apply(op: OperatorMatrix, f: AnalyticSeries) -> AnalyticSeries:
    if f.truncation != op.truncation:
        raise InputError("operator and argument truncations differ")
    return AnalyticSeries(op.entries @ f.coeffs, op.truncation)


def _support_mass(g: LaurentSeries) -> tuple[float, float, float]:
    n = g.truncation
    mags = np.abs(g.coeffs) ** 2
    return float(mags[:n].sum()), float(mags[n + 1 :].sum()), float(mags.sum())


def is_analytic_symbol(g: LaurentSeries) -> bool:
    neg, _, total = _support_mass(g)
    return total == 0.0 or neg <= SUPPORT_MASS_TOL * total


def is_coanalytic_symbol(g: LaurentSeries) -> bool:
    _, pos, total = _support_mass(g)
    return total == 0.0 or pos <= SUPPORT_MASS_TOL * total


def toeplitz_product_residual(psi: Symbol, phi: Symbol, truncation: int) -> float:
    """Spectral norm of the defect T_psi T_phi - T_{psi phi} on the window [0, N // 2).

    That is the largest relative defect ||(T_psi T_phi - T_{psi phi}) x|| / ||x||
    over vectors x supported on the first N // 2 coefficients, which keeps
    the band cutoff at the bottom of the matrices out of it.  Valid only
    when psi is co-analytic or phi is analytic; anything else raises
    HypothesisViolationError rather than returning a number.
    """
    gpsi = symbol_fourier(psi, truncation)
    gphi = symbol_fourier(phi, truncation)
    if not (is_coanalytic_symbol(gpsi) or is_analytic_symbol(gphi)):
        raise HypothesisViolationError(
            "product identity needs a co-analytic left or analytic right symbol"
        )
    n, half = truncation, truncation // 2
    tprod = toeplitz_block(multiply(gpsi, gphi), n, half)
    defect = toeplitz_columns(gpsi, toeplitz_block(gphi, n, half)) - tprod
    return float(np.linalg.norm(defect, 2))

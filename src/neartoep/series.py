"""Truncated power/Fourier series on the disk and circle.

An AnalyticSeries keeps Taylor coefficients 0..N-1; a LaurentSeries keeps
circle Fourier coefficients -N..N.  N is the truncation order and every
binary operation insists the operands agree on it.  All values are
complex128 and all objects are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    HeadroomError,
    InputError,
    NotInvertibleError,
    TruncationMismatchError,
)

COEFF_TRIM_TOL = 1e-300

# Roots within this distance outside the unit circle count as on it.
DISK_ROOT_MARGIN = 1e-9

# cauchy_product goes through the FFT once both factors' supports are at
# least this long.  Measured on a 2-core x86-64 box, numpy 2.4 (pocketfft),
# one BLAS thread, complex factors, best of 5: np.convolve of two length-m
# factors takes 18 / 47 / 146 / 491 us at m = 128 / 256 / 512 / 1024 and
# the zero-padded FFT product 38 / 51 / 76 / 138 us; with one factor of
# 1024 the convolution of a 128-long one takes 93 us against the FFT's
# 130 us.  Below 256 the convolution is as fast or faster, so the
# defect-suite sizes (N = 128) keep it.
FFT_MIN_SUPPORT = 256

# taylor_invert's block length (at least deg p).  At 32 a series of 1024
# coefficients takes 0.34 ms against the one-at-a-time loop's 1.6 ms on
# the box measured above; 16 and 64 are slower.
TAYLOR_BLOCK = 32


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _check_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InputError("series coefficients must be finite")


@dataclass(frozen=True)
class AnalyticSeries:
    """Taylor coefficients c[0..N-1] of a function analytic on the disk."""

    coeffs: np.ndarray
    truncation: int = field(default=0)

    def __post_init__(self) -> None:
        arr = _freeze(np.asarray(self.coeffs))
        n = self.truncation if self.truncation else arr.shape[0]
        if arr.ndim != 1 or arr.shape[0] != n or n <= 0:
            raise InputError(f"expected {n} coefficients, got shape {arr.shape}")
        _check_finite(arr)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "truncation", n)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[complex], truncation: int) -> "AnalyticSeries":
        arr = np.zeros(truncation, dtype=np.complex128)
        data = np.asarray(list(coeffs), dtype=np.complex128)
        if data.shape[0] > truncation:
            tail = data[truncation:]
            if np.linalg.norm(tail) > 0:
                raise HeadroomError(
                    f"{data.shape[0]} coefficients do not fit truncation {truncation}"
                )
            data = data[:truncation]
        arr[: data.shape[0]] = data
        return cls(arr, truncation)

    @classmethod
    def zero(cls, truncation: int) -> "AnalyticSeries":
        return cls(np.zeros(truncation, dtype=np.complex128), truncation)

    @classmethod
    def one(cls, truncation: int) -> "AnalyticSeries":
        return cls.monomial(0, truncation)

    @classmethod
    def monomial(cls, power: int, truncation: int, scale: complex = 1.0) -> "AnalyticSeries":
        if not 0 <= power < truncation:
            raise HeadroomError(f"monomial degree {power} outside truncation {truncation}")
        arr = np.zeros(truncation, dtype=np.complex128)
        arr[power] = scale
        return cls(arr, truncation)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def degree(self, tol: float = COEFF_TRIM_TOL) -> int:
        """Index of the last coefficient above `tol`; -1 for the zero series."""
        nz = np.nonzero(np.abs(self.coeffs) > tol)[0]
        return int(nz[-1]) if nz.size else -1

    def resized(self, truncation: int) -> "AnalyticSeries":
        """Same function at a new truncation order; trimming nonzero mass errors."""
        if truncation >= self.truncation:
            arr = np.zeros(truncation, dtype=np.complex128)
            arr[: self.truncation] = self.coeffs
            return AnalyticSeries(arr, truncation)
        if self.degree() >= truncation:
            raise HeadroomError("resize would discard nonzero coefficients")
        return AnalyticSeries(self.coeffs[:truncation].copy(), truncation)

    def __add__(self, other: "AnalyticSeries") -> "AnalyticSeries":
        _same_truncation(self, other)
        return AnalyticSeries(self.coeffs + other.coeffs, self.truncation)

    def __sub__(self, other: "AnalyticSeries") -> "AnalyticSeries":
        _same_truncation(self, other)
        return AnalyticSeries(self.coeffs - other.coeffs, self.truncation)

    def __mul__(self, scalar: complex) -> "AnalyticSeries":
        return AnalyticSeries(self.coeffs * complex(scalar), self.truncation)

    __rmul__ = __mul__

    def __neg__(self) -> "AnalyticSeries":
        return AnalyticSeries(-self.coeffs, self.truncation)

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnalyticSeries":
        try:
            n = int(data["truncation"])
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed analytic series: {exc}") from exc
        if len(coeffs) != n:
            raise InputError("coefficient count disagrees with truncation")
        return cls(np.asarray(coeffs), n)


@dataclass(frozen=True)
class LaurentSeries:
    """Circle Fourier coefficients c[-N..N], stored lowest index first."""

    coeffs: np.ndarray
    truncation: int = field(default=0)

    def __post_init__(self) -> None:
        arr = _freeze(np.asarray(self.coeffs))
        n = self.truncation if self.truncation else (arr.shape[0] - 1) // 2
        if arr.ndim != 1 or arr.shape[0] != 2 * n + 1 or n <= 0:
            raise InputError(f"expected {2 * n + 1} coefficients, got shape {arr.shape}")
        _check_finite(arr)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "truncation", n)

    @classmethod
    def zero(cls, truncation: int) -> "LaurentSeries":
        return cls(np.zeros(2 * truncation + 1, dtype=np.complex128), truncation)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, complex]], truncation: int) -> "LaurentSeries":
        arr = np.zeros(2 * truncation + 1, dtype=np.complex128)
        for idx, val in pairs:
            if abs(idx) > truncation:
                raise HeadroomError(f"index {idx} outside truncation {truncation}")
            arr[idx + truncation] += val
        return cls(arr, truncation)

    def at(self, index: int) -> complex:
        if abs(index) > self.truncation:
            return 0.0 + 0.0j
        return complex(self.coeffs[index + self.truncation])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def analytic_part(self) -> np.ndarray:
        """Coefficients at indices 0..N-1 (index N is headroom, dropped)."""
        return self.coeffs[self.truncation : 2 * self.truncation].copy()

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        _same_truncation(self, other)
        return LaurentSeries(self.coeffs + other.coeffs, self.truncation)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        _same_truncation(self, other)
        return LaurentSeries(self.coeffs - other.coeffs, self.truncation)

    def __mul__(self, scalar: complex) -> "LaurentSeries":
        return LaurentSeries(self.coeffs * complex(scalar), self.truncation)

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(-self.coeffs, self.truncation)

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "coeffs_from": -self.truncation,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentSeries":
        try:
            n = int(data["truncation"])
            start = int(data.get("coeffs_from", -n))
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed laurent series: {exc}") from exc
        if start != -n or len(coeffs) != 2 * n + 1:
            raise InputError("laurent coefficient layout disagrees with truncation")
        return cls(np.asarray(coeffs), n)


def _same_truncation(a, b) -> None:
    if a.truncation != b.truncation:
        raise TruncationMismatchError(
            f"truncation mismatch: {a.truncation} vs {b.truncation}"
        )


def embed(f: AnalyticSeries) -> LaurentSeries:
    """View an analytic series as a circle series (indices 0..N-1)."""
    arr = np.zeros(2 * f.truncation + 1, dtype=np.complex128)
    arr[f.truncation : 2 * f.truncation] = f.coeffs
    return LaurentSeries(arr, f.truncation)


def riesz_project(f: LaurentSeries) -> AnalyticSeries:
    """Keep the nonnegative-index part (index N itself is headroom, dropped)."""
    return AnalyticSeries(f.analytic_part(), f.truncation)


def conj_on_circle(f: AnalyticSeries) -> LaurentSeries:
    """Boundary conjugate: the coefficient at -n becomes conj(c[n])."""
    arr = np.zeros(2 * f.truncation + 1, dtype=np.complex128)
    arr[1 : f.truncation + 1] = np.conj(f.coeffs[::-1])
    return LaurentSeries(arr, f.truncation)


def laurent_conj(f: LaurentSeries) -> LaurentSeries:
    """Boundary conjugate of a circle series (index reversal + conjugation)."""
    return LaurentSeries(np.conj(f.coeffs[::-1]), f.truncation)


def _support(a: np.ndarray) -> tuple[int, int]:
    """[first, last + 1) of the rows of a holding a nonzero entry; (0, 0) if none."""
    nonzero = np.flatnonzero(a if a.ndim == 1 else a.any(axis=1))
    return (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)


def cauchy_product(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the Cauchy product of f with g, or with every column of g.

    f is a coefficient vector; g is one, or a matrix with one per column.
    Each factor is read on its support, from its first to its last nonzero
    coefficient, cut to what reaches the first n, and the product is exactly
    zero outside the sum of the supports.  When both supports are at least
    FFT_MIN_SUPPORT long the product is one zero-padded FFT (every column in
    one batch, Cooley-Tukey 1965), accurate to round-off relative to the
    factors' norms; otherwise it is np.convolve, so polynomial products stay
    exact and keep their exact zeros.
    """
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    cols = g.reshape(g.shape[0], -1)
    out = np.zeros((n, cols.shape[1]), dtype=np.complex128)
    f_lo, f_hi = _support(f[:n])
    g_lo, g_hi = _support(cols[:n])
    lo = f_lo + g_lo
    if f_lo == f_hi or g_lo == g_hi or lo >= n:
        return out.reshape((n,) + g.shape[1:])
    f = f[f_lo : min(f_hi, n - g_lo)]
    cols = cols[g_lo : min(g_hi, n - f_lo)]
    full = f.size + cols.shape[0] - 1
    size = min(full, n - lo)
    if min(f.size, cols.shape[0]) >= FFT_MIN_SUPPORT:
        length = 1 << (full - 1).bit_length()
        spectra = np.fft.fft(f, length)[:, None] * np.fft.fft(cols, length, axis=0)
        out[lo : lo + size] = np.fft.ifft(spectra, axis=0)[:size]
    else:
        for j in range(cols.shape[1]):
            out[lo : lo + size, j] = np.convolve(f, cols[:, j])[:size]
    return out.reshape((n,) + g.shape[1:])


def multiply(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Pointwise product on the circle, truncated back to -N..N.

    Nothing is lost for an analytic factor (indices 0..N-1) times a
    co-analytic one (-(N-1)..0): the product stays inside -(N-1)..N-1.
    """
    _same_truncation(f, g)
    n = f.truncation
    # The full product runs over indices -2N..2N; -N sits at position N.
    return LaurentSeries(cauchy_product(f.coeffs, g.coeffs, 3 * n + 1)[n:], n)


def multiply_analytic(f: AnalyticSeries, g: AnalyticSeries) -> AnalyticSeries:
    """Cauchy product of two analytic series, truncated to the common order."""
    _same_truncation(f, g)
    return AnalyticSeries(cauchy_product(f.coeffs, g.coeffs, f.truncation), f.truncation)


def backshift(f: AnalyticSeries) -> AnalyticSeries:
    """(f - f(0))/z: coefficients move down one index."""
    arr = np.zeros(f.truncation, dtype=np.complex128)
    arr[:-1] = f.coeffs[1:]
    return AnalyticSeries(arr, f.truncation)


def shift(f: AnalyticSeries) -> AnalyticSeries:
    """z*f truncated; the top coefficient falls off (headroom discipline)."""
    arr = np.zeros(f.truncation, dtype=np.complex128)
    arr[1:] = f.coeffs[:-1]
    return AnalyticSeries(arr, f.truncation)


def laurent_shift(f: LaurentSeries, power: int) -> LaurentSeries:
    """Multiply by z**power; coefficients leaving -N..N fall off."""
    arr = np.zeros(2 * f.truncation + 1, dtype=np.complex128)
    src = f.coeffs
    if power >= 0:
        arr[power:] = src[: arr.shape[0] - power] if power else src
    else:
        arr[:power] = src[-power:]
    return LaurentSeries(arr, f.truncation)


def inner_product(f, g) -> complex:
    """L2 pairing, conjugate-linear in the second argument."""
    if type(f) is not type(g):
        raise InputError("inner product needs two series of the same kind")
    _same_truncation(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))


def eval_at(f: AnalyticSeries, point: complex) -> complex:
    """Evaluate inside the open disk (|point| < 1 required)."""
    point = complex(point)
    if abs(point) >= 1.0:
        raise InputError(f"evaluation point {point} not inside the open disk")
    # Horner from the top coefficient down.
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * point + c
    return complex(acc)


def powers(base: complex, count: int) -> np.ndarray:
    """base**0, ..., base**(count - 1) as one running product.

    The k-th power carries at most about k rounding errors, relative to
    its own size; a complex power per entry costs several times as much.
    """
    out = np.full(count, complex(base), dtype=np.complex128)
    out[:1] = 1.0
    return np.cumprod(out)


def reproducing_kernel(point: complex, truncation: int, normalized: bool = False) -> AnalyticSeries:
    """Series with n-th coefficient conj(point)**n; evaluation functional kernel."""
    point = complex(point)
    if abs(point) >= 1.0:
        raise InputError(f"kernel point {point} not inside the open disk")
    coeffs = powers(np.conj(point), truncation)
    if normalized:
        coeffs = coeffs * np.sqrt(1.0 - abs(point) ** 2)
    return AnalyticSeries(coeffs.astype(np.complex128), truncation)


def require_disk_invertible(p: AnalyticSeries, name: str = "polynomial") -> None:
    """Raise NotInvertibleError unless the polynomial p has no root in the closed disk."""
    deg = p.degree(tol=0.0)
    if deg < 0 or p.coeffs[0] == 0:
        raise NotInvertibleError(f"{name} vanishes at the origin")
    if deg > 0:
        roots = np.roots(p.coeffs[deg::-1])
        if roots.size and np.min(np.abs(roots)) <= 1.0 + DISK_ROOT_MARGIN:
            raise NotInvertibleError(
                f"{name} has a root in the closed disk "
                f"(closest modulus {float(np.min(np.abs(roots))):.6g})"
            )


def taylor_invert(p: AnalyticSeries) -> AnalyticSeries:
    """Taylor series h of 1/p for a polynomial with no roots in the closed disk.

    The first L = max(TAYLOR_BLOCK, deg p) coefficients come from the
    recurrence h[k] = -(p1 h[k-1] + ... + p_d h[k-d]) / p0, one at a time.
    Each later block of L solves the banded lower-triangular Toeplitz
    system that p * h = 0 poses on its rows, whose inverse is the
    lower-triangular Toeplitz matrix H of those first L coefficients: the
    block moves by -H r twice, r being the residual of p * h on its rows.
    The first move solves, the second is one step of iterative refinement
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 12),
    which keeps the loop's accuracy when a root lies near the circle.
    """
    require_disk_invertible(p)
    deg = p.degree(tol=0.0)
    n = p.truncation
    p0, band = p.coeffs[0], p.coeffs[1 : deg + 1]
    block = max(TAYLOR_BLOCK, deg)
    out = np.zeros(n + block, dtype=np.complex128)
    out[0] = 1.0 / p0
    for k in range(1, min(block, n)):
        lo = max(0, k - deg)
        out[k] = -np.dot(band[: k - lo], out[lo:k][::-1]) / p0
    if deg and n > block:
        lag = np.arange(block)[:, None] - np.arange(block)
        inverse = np.where(lag >= 0, out[np.maximum(lag, 0)], 0.0)
        for k in range(block, n, block):
            for _ in range(2):
                residual = np.convolve(out[k - deg : k + block], p.coeffs[: deg + 1])
                out[k : k + block] -= inverse @ residual[deg : deg + block]
    return AnalyticSeries(out[:n].copy(), n)

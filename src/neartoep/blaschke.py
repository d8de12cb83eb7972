"""Finite Blaschke products and their Taylor expansions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .series import AnalyticSeries, multiply_analytic

UNIMODULAR_TOL = 1e-10


@dataclass(frozen=True)
class BlaschkeProduct:
    """z**z_power times elementary factors (a - z)/(1 - conj(a) z).

    zeros lists (point, multiplicity) pairs with every |point| < 1;
    unimodular_const is a modulus-one scalar in front.
    """

    zeros: tuple[tuple[complex, int], ...] = ()
    z_power: int = 0
    unimodular_const: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        norm_zeros = []
        for point, mult in self.zeros:
            point = complex(point)
            mult = int(mult)
            if abs(point) >= 1.0:
                raise InputError(f"Blaschke zero {point} not inside the open disk")
            if mult < 1:
                raise InputError("zero multiplicities must be positive")
            norm_zeros.append((point, mult))
        object.__setattr__(self, "zeros", tuple(norm_zeros))
        object.__setattr__(self, "z_power", int(self.z_power))
        const = complex(self.unimodular_const)
        if self.z_power < 0:
            raise InputError("z_power must be nonnegative")
        if abs(abs(const) - 1.0) > UNIMODULAR_TOL:
            raise InputError(f"front constant {const} is not unimodular")
        object.__setattr__(self, "unimodular_const", const)

    @classmethod
    def from_points(cls, points, z_power: int = 0, const: complex = 1.0) -> "BlaschkeProduct":
        return cls(tuple((complex(p), 1) for p in points), z_power, const)

    def degree(self) -> int:
        return self.z_power + sum(m for _, m in self.zeros)

    def value_at_zero(self) -> complex:
        if self.z_power > 0:
            return 0.0 + 0.0j
        out = self.unimodular_const
        for point, mult in self.zeros:
            out *= point**mult
        return complex(out)

    def to_json_dict(self) -> dict:
        return {
            "zeros": [
                {"point": [float(p.real), float(p.imag)], "multiplicity": m}
                for p, m in self.zeros
            ],
            "z_power": self.z_power,
            "const": [float(self.unimodular_const.real), float(self.unimodular_const.imag)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlaschkeProduct":
        try:
            zeros = tuple(
                (complex(z["point"][0], z["point"][1]), int(z["multiplicity"]))
                for z in data.get("zeros", [])
            )
            z_power = int(data.get("z_power", 0))
            c = data.get("const", [1.0, 0.0])
            const = complex(c[0], c[1])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed Blaschke product: {exc}") from exc
        return cls(zeros, z_power, const)


def _factor_series(point: complex, truncation: int) -> AnalyticSeries:
    """Taylor coefficients of (point - z)/(1 - conj(point) z)."""
    coeffs = np.empty(truncation, dtype=np.complex128)
    coeffs[0] = point
    if truncation > 1:
        n = np.arange(1, truncation)
        coeffs[1:] = -(1.0 - abs(point) ** 2) * np.conj(point) ** (n - 1)
    return AnalyticSeries(coeffs, truncation)


def blaschke_expand(b: BlaschkeProduct, truncation: int) -> AnalyticSeries:
    """Taylor expansion of the product, truncated to the given order."""
    acc = AnalyticSeries.one(truncation) * b.unimodular_const
    for point, mult in b.zeros:
        factor = _factor_series(point, truncation)
        for _ in range(mult):
            acc = multiply_analytic(acc, factor)
    if b.z_power:
        arr = np.zeros(truncation, dtype=np.complex128)
        keep = truncation - b.z_power
        if keep > 0:
            arr[b.z_power :] = acc.coeffs[:keep]
        acc = AnalyticSeries(arr, truncation)
    return acc

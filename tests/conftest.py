"""Seeded instance builders shared across the test modules.

Random draws always honor the perturbation invariants (orthonormal u_i,
pairwise orthogonal nonzero v_i) so that construction never raises.
"""

import sys

import numpy as np

from neartoep.blaschke import BlaschkeProduct
from neartoep.operators import PerturbationSpec
from neartoep.series import AnalyticSeries

NORM_FLOOR = 1e-3


def random_series(rng, truncation, max_degree, min_degree=0):
    """Complex polynomial of degree within [min_degree, max_degree]."""
    width = max_degree - min_degree + 1
    coeffs = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[min_degree : max_degree + 1] = coeffs
    return AnalyticSeries(arr, truncation)


def _gram_schmidt(vectors, normalize):
    out = []
    for vec in vectors:
        arr = vec.coeffs.copy()
        for prev in out:
            arr -= prev * np.vdot(prev, arr) / np.vdot(prev, prev)
        if np.linalg.norm(arr) < NORM_FLOOR:
            return None
        if normalize:
            arr /= np.linalg.norm(arr)
        out.append(arr)
    return out


def seeded_perturbation(rng, truncation, rank, max_degree=8, vanishing_v=False):
    """Rank-`rank` spec with polynomial data of degree at most max_degree.

    Orthogonalization mixes the draws but cannot raise the degree.  With
    vanishing_v the v-draws are supported on degrees >= 1.
    """
    while True:
        us = _gram_schmidt(
            [random_series(rng, truncation, max_degree) for _ in range(rank)],
            normalize=True,
        )
        vs = _gram_schmidt(
            [
                random_series(
                    rng, truncation, max_degree, min_degree=1 if vanishing_v else 0
                )
                for _ in range(rank)
            ],
            normalize=False,
        )
        if us is None or vs is None:
            continue
        return PerturbationSpec(
            tuple(
                (AnalyticSeries(u, truncation), AnalyticSeries(v, truncation))
                for u, v in zip(us, vs)
            )
        )


def random_blaschke(rng, max_degree=3, max_modulus=0.7, allow_z_power=True):
    """Finite Blaschke product with 1 <= degree <= max_degree."""
    degree = int(rng.integers(1, max_degree + 1))
    z_power = int(rng.integers(0, degree + 1)) if allow_z_power else 0
    points = []
    for _ in range(degree - z_power):
        radius = max_modulus * np.sqrt(rng.uniform(0.05, 1.0))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        points.append(radius * np.exp(1j * angle))
    return BlaschkeProduct.from_points(points, z_power=z_power)


def disk_invertible_poly(rng, truncation, max_degree=3):
    """1 + tail with total tail mass below 1, hence zero-free on the disk."""
    degree = int(rng.integers(1, max_degree + 1))
    tail = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    tail *= 0.8 / max(1.0, np.abs(tail).sum() * 1.25)
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[0] = 1.0
    arr[1 : degree + 1] = tail
    return AnalyticSeries(arr, truncation)


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name.

    The counting wrapper replaces the function under every name a neartoep
    module holds it by, so calls through `from ... import` bindings count
    too.  Returns the list of (args, kwargs) pairs, filled as calls happen.
    """
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "neartoep" or key.startswith("neartoep.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def linalg_calls(monkeypatch, name):
    """Record the arguments of every call to numpy.linalg.name.

    Library code looks the function up on numpy.linalg at each call, so it
    is patched there (count_calls rebinds only names held by neartoep
    modules).  Returns the list of (args, kwargs) pairs, filled as calls
    happen.
    """
    original = getattr(np.linalg, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls

"""Exception types shared across the package.

Everything user-facing derives from InputError so the CLI can map bad
inputs to a distinct exit code; verification failures are reported as
data, never raised.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input (schema, truncation, domain)."""


class TruncationMismatchError(InputError):
    """Two series with different truncation orders were combined."""


class HeadroomError(InputError):
    """Requested computation does not fit inside the truncation order."""


class NotInvertibleError(InputError):
    """Polynomial has a root in the closed unit disk."""


class HypothesisViolationError(InputError):
    """Operator identity invoked outside its validity hypotheses."""


class DegenerateBranchError(InputError):
    """A branch scalar sits inside its degeneracy tolerance band."""


class ConditioningError(InputError):
    """Subspace operation is too ill-conditioned to trust."""


def _as_int(data: dict, key: str, default: int | None = None) -> int:
    """data[key], or default when given and key is absent, as a JSON integer (not a bool)."""
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value

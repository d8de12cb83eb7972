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

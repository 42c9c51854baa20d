"""Exception types, and the integer and number rules, shared across the package."""

from contextlib import suppress

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite values or a scheme
    stability condition is violated at solve time."""


def _is_int(value) -> bool:
    """A Python or numpy integer, not a ``bool`` and not an integral float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value) -> None:
    """A ``ValidationError`` naming ``name`` unless ``value`` is an integer (``_is_int``)."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_seed(name: str, value) -> None:
    """A ``ValidationError`` naming ``name`` unless ``value`` is an integer (``_is_int``) >= 0."""
    if not (_is_int(value) and value >= 0):
        raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")


def _to_float(value) -> float:
    """Finite number from a flag or a JSON number; booleans are errors."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):  # "x", 10**400
            number = float(value)
            if np.isfinite(number):
                return number
    raise ValidationError(f"expected a finite number, got {value!r}")

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


def _to_float(value) -> float:
    """Finite number from a flag or a JSON number; booleans are errors."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with suppress(ValueError, OverflowError):  # "x", 10**400
            number = float(value)
            if np.isfinite(number):
                return number
    raise ValidationError(f"expected a finite number, got {value!r}")

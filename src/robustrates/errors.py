"""Exception types, and the integer and number rules, shared across the package."""

from contextlib import suppress
from math import isfinite, nan

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite values or a scheme
    stability condition is violated at solve time."""


def _check_int(name: str, value, lo=None):
    """``value``, if it is a Python or numpy integer (never a ``bool``) of at least
    ``lo``; else a ``ValidationError`` naming ``name``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and (lo is None or value >= lo)):
        raise ValidationError(f"{name} must be an integer{_bound(lo)}, got {value!r}")
    return value


def _check_real(name: str, value, lo=None, lo_open=False) -> float:
    """``value`` as a float, if it is a finite Python or numpy real (never a ``bool``,
    a string, ``None`` or an array) of at least ``lo`` (above it if ``lo_open``);
    else a ``ValidationError`` naming ``name``."""
    x = nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with suppress(OverflowError):  # 10**400 has no float
            x = float(value)
    if not (isfinite(x) and (lo is None or x > lo or (x == lo and not lo_open))):
        raise ValidationError(f"{name} must be a finite real number{_bound(lo, lo_open)}, "
                              f"got {value!r}")
    return x


def _check_reals(name: str, values) -> list:
    """Each of ``values`` by the number rule, as a list of floats; a ``ValidationError``
    naming ``name`` if ``values`` is not a sequence."""
    if not np.iterable(values):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    return [_check_real(name, v) for v in values]


def _check_real_array(name: str, value):
    """``value`` if it is a numpy array of integers or floats (its entries are left to
    the caller's range test), else by the number rule, as a float."""
    if not isinstance(value, np.ndarray):
        return _check_real(name, value)
    if value.dtype.kind not in "iuf":  # one dtype check, not one per entry
        raise ValidationError(f"{name} must be an array of real numbers, got dtype {value.dtype}")
    return value


def _bound(lo, lo_open=False) -> str:
    return "" if lo is None else f" {'>' if lo_open else '>='} {lo}"

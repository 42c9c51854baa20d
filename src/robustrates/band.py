"""Volatility band and the sublinear generator it induces.

The band ``[sigma_lo, sigma_hi]`` is the only assumption made about the
volatility of the driving noise.  Its one-line fingerprint is the generator

    g(a) = max(sigma_hi^2 * a, sigma_lo^2 * a) / 2

which selects the worst-case variance for the sign of ``a``.  Everything
downstream (worst/best-case expectations, the nonlinear heat equation) is
parameterized by this band.  ``_g_in_place`` is the one evaluation of
the generator.  It takes the two halved variances from
``_g_coefficients`` rather than the band, so a caller that evaluates it
many times forms them once: ``g_value`` runs it on a copy of its input,
and the PDE sweep of ``gheat`` runs it on its own buffer once per level,
on the halved variances pre-scaled by ``dt / dx^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_real, _check_real_array


@dataclass(frozen=True)
class VolBand:
    """Volatility uncertainty interval, both ends in units of 1/sqrt(time)."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        for name in ("sigma_lo", "sigma_hi"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0, lo_open=True))
        lo, hi = self.sigma_lo, self.sigma_hi
        if lo > hi:
            raise ValidationError(f"volatility band requires 0 < sigma_lo <= sigma_hi, got [{lo}, {hi}]")
        if not np.isfinite(hi * hi):
            raise ValidationError(f"volatility band top {hi} has no finite square")

    @property
    def is_degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.sigma_lo + self.sigma_hi)

    def contains(self, values, tol: float = 0.0) -> bool:
        """Every value within ``tol`` of the band, checked by one ``min`` and one ``max``."""
        v = np.asarray(values, dtype=float)
        return not v.size or bool(self.sigma_lo - tol <= v.min() and v.max() <= self.sigma_hi + tol)


def g_value(band: VolBand, a):
    """Sublinear generator of the band: ``sup over var in [lo^2, hi^2] of var*a/2``.

    Evaluates to ``sigma_hi^2 * a / 2`` for ``a >= 0`` and
    ``sigma_lo^2 * a / 2`` for ``a < 0``.  Monotone, positively homogeneous
    and subadditive in ``a``; accepts a real number or a numpy array of them
    (``_check_real_array``).
    """
    a = np.array(_check_real_array("a", a), dtype=float)
    out = _g_in_place(a, np.empty_like(a), _g_coefficients(band))
    if out.ndim == 0:
        return float(out)
    return out


def _g_coefficients(band: VolBand, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The generator's halved variances times ``scale``,
    ``(sigma_hi^2/2 * scale, sigma_lo^2/2 * scale)``, as 0-d float64 arrays,
    the same bits as the Python floats; a ufunc takes them without
    converting a scalar on every call.  ``g`` is positively homogeneous, so
    for ``scale > 0`` the scaled pair evaluates ``scale * g``; the default
    scale 1 leaves the halved variances' bits as they are."""
    return np.array(0.5 * band.sigma_hi**2 * scale), np.array(0.5 * band.sigma_lo**2 * scale)


def _g_in_place(
    a: np.ndarray, scratch: np.ndarray, coefficients: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Overwrite the float array ``a`` with ``g(a)``; ``scratch`` (same shape)
    is clobbered.  ``coefficients`` is the pair from :func:`_g_coefficients`.
    Returns ``a``.

    Takes the larger of ``a * sigma_hi^2/2`` and ``a * sigma_lo^2/2``, which
    is bit for bit ``np.where(a >= 0, sigma_hi^2/2, sigma_lo^2/2) * a``:
    rounding is monotone, so the larger exact product rounds to the larger
    float; ``+0.0`` and ``-0.0`` keep their sign and NaN stays NaN.  Both
    products are formed, so the one not selected may overflow and raise a
    floating-point warning where the selecting form would not; that happens
    only when ``|sigma_hi^2 * a / 2|`` exceeds the float maximum.
    """
    half_hi, half_lo = coefficients
    np.multiply(a, half_hi, scratch)
    np.multiply(a, half_lo, a)
    return np.maximum(scratch, a, out=a)

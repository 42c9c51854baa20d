"""Volatility band and the sublinear generator it induces.

The band ``[sigma_lo, sigma_hi]`` is the only assumption made about the
volatility of the driving noise.  Its one-line fingerprint is the generator

    g(a) = max(sigma_hi^2 * a, sigma_lo^2 * a) / 2

which selects the worst-case variance for the sign of ``a``.  Everything
downstream (worst/best-case expectations, the nonlinear heat equation) is
parameterized by this band.  ``_g_in_place`` is the one evaluation of
the generator: ``g_value`` runs it on a copy of its input, and the PDE
sweep of ``gheat`` runs it on its own buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class VolBand:
    """Volatility uncertainty interval, both ends in units of 1/sqrt(time)."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma_lo) and np.isfinite(self.sigma_hi)):
            raise ValidationError("volatility band must be finite")
        if not (0.0 < self.sigma_lo <= self.sigma_hi):
            raise ValidationError(
                f"volatility band requires 0 < sigma_lo <= sigma_hi, "
                f"got [{self.sigma_lo}, {self.sigma_hi}]"
            )

    @property
    def is_degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.sigma_lo + self.sigma_hi)

    def contains(self, values, tol: float = 0.0) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(
            np.all(v >= self.sigma_lo - tol) and np.all(v <= self.sigma_hi + tol)
        )


def g_value(band: VolBand, a):
    """Sublinear generator of the band: ``sup over var in [lo^2, hi^2] of var*a/2``.

    Evaluates to ``sigma_hi^2 * a / 2`` for ``a >= 0`` and
    ``sigma_lo^2 * a / 2`` for ``a < 0``.  Monotone, positively homogeneous
    and subadditive in ``a``; accepts scalars or arrays.
    """
    a = np.array(a, dtype=float)
    out = _g_in_place(band, a, np.empty_like(a))
    if out.ndim == 0:
        return float(out)
    return out


def _g_in_place(band: VolBand, a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float array ``a`` with ``g(a)``; ``scratch`` (same shape)
    is clobbered.  Returns ``a``.

    Takes the larger of ``a * sigma_hi^2/2`` and ``a * sigma_lo^2/2``, which
    is bit for bit ``np.where(a >= 0, sigma_hi^2/2, sigma_lo^2/2) * a``:
    rounding is monotone, so the larger exact product rounds to the larger
    float; ``+0.0`` and ``-0.0`` keep their sign and NaN stays NaN.  Both
    products are formed, so the one not selected may overflow and raise a
    floating-point warning where the selecting form would not; that happens
    only when ``|sigma_hi^2 * a / 2|`` exceeds the float maximum.
    """
    np.multiply(a, 0.5 * band.sigma_hi**2, out=scratch)
    np.multiply(a, 0.5 * band.sigma_lo**2, out=a)
    return np.maximum(scratch, a, out=a)

"""Volatility band and the sublinear generator it induces.

The band ``[sigma_lo, sigma_hi]`` is the only assumption made about the
volatility of the driving noise.  Its one-line fingerprint is the generator

    g(a) = max(sigma_hi^2 * a, sigma_lo^2 * a) / 2

which selects the worst-case variance for the sign of ``a``.  Everything
downstream (worst/best-case expectations, the nonlinear heat equation) is
parameterized by this band.
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
    a = np.asarray(a, dtype=float)
    out = np.where(a >= 0.0, 0.5 * band.sigma_hi**2, 0.5 * band.sigma_lo**2) * a
    if out.ndim == 0:
        return float(out)
    return out

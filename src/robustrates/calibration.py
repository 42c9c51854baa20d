"""Fitting the reversion level to an observed initial forward curve.

The market supplies forward rates at a handful of maturities; the curve is
interpolated piecewise-linearly between knots so that every integral used
in pricing has an exact closed form per segment.  Fitting then reduces to

    mu(t) = alpha * f(0, t) + f'(0, t)   (right derivative at knots)

with the initial short rate pinned to ``f(0, 0)``.  With that ``mu`` the
time-0 model price of a bond collapses analytically to
``exp(-integral of the curve)``, which is what the round-trip check
verifies to machine precision.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .bonds import _log_price, b_factor
from .errors import ValidationError
from .paths import RateParams


@dataclass(frozen=True)
class ForwardCurve:
    """Observed initial forward curve as interpolation knots.

    Maturities must be strictly increasing and start at 0 (the first knot
    defines the initial short rate).  Values between knots are linear; the
    derivative is piecewise constant and right-continuous.
    """

    maturities: np.ndarray
    forwards: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.maturities, dtype=float)
        fwds = np.asarray(self.forwards, dtype=float)
        object.__setattr__(self, "maturities", mats)
        object.__setattr__(self, "forwards", fwds)
        if mats.ndim != 1 or mats.shape != fwds.shape:
            raise ValidationError("maturities and forwards must be 1-D and aligned")
        if mats.size < 2:
            raise ValidationError("forward curve needs at least 2 knots")
        if not (np.all(np.isfinite(mats)) and np.all(np.isfinite(fwds))):
            raise ValidationError("forward curve contains non-finite values")
        if mats[0] != 0.0:
            raise ValidationError("forward curve must start with a T=0 knot")
        d = np.diff(mats)
        if np.any(d == 0):
            raise ValidationError("duplicate maturities in forward curve")
        if np.any(d < 0):
            raise ValidationError("maturities must be strictly increasing")
        # exact running integral at the knots (trapezoid is exact here)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (fwds[1:] + fwds[:-1]) * d)])
        object.__setattr__(self, "_cum_integral", cum)
        with np.errstate(invalid="ignore"):
            object.__setattr__(self, "_slopes", np.diff(fwds) / d)

    @property
    def t_last(self) -> float:
        return float(self.maturities[-1])

    def _check_range(self, t: np.ndarray) -> None:
        if np.any(t < -1e-12) or np.any(t > self.t_last + 1e-12):
            raise ValidationError(
                f"evaluation outside curve range [0, {self.t_last}]"
            )

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        self._check_range(t)
        return np.interp(t, self.maturities, self.forwards)

    def derivative(self, t) -> np.ndarray:
        """Right-continuous piecewise-constant slope (left slope at the
        final maturity)."""
        t = np.asarray(t, dtype=float)
        self._check_range(t)
        idx = np.searchsorted(self.maturities, t, side="right") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        return self._slopes[idx]

    def integral(self, a: float, b: float) -> float:
        """Exact ``int_a^b f`` for the piecewise-linear curve."""
        if b < a:
            raise ValidationError("integral needs a <= b")
        self._check_range(np.asarray([a, b]))

        def antideriv(t):
            k = int(np.clip(np.searchsorted(self.maturities, t, side="right") - 1,
                            0, self._slopes.size - 1))
            t0 = self.maturities[k]
            f0 = self.forwards[k]
            s = self._slopes[k]
            dt = t - t0
            return self._cum_integral[k] + f0 * dt + 0.5 * s * dt * dt

        return float(antideriv(b) - antideriv(a))


def _curve_from_rows(rows: Iterable[Sequence[str]]) -> ForwardCurve:
    mats, fwds = [], []
    for row in rows:
        if len(row) != 2:
            raise ValidationError(f"forward-curve row must have 2 fields, got {row!r}")
        try:
            mats.append(float(row[0]))
            fwds.append(float(row[1]))
        except ValueError as exc:
            raise ValidationError(f"non-numeric forward-curve entry in {row!r}") from exc
    return ForwardCurve(np.asarray(mats), np.asarray(fwds))


def ingest_forward_curve(source: Union[str, os.PathLike, TextIO, dict]) -> ForwardCurve:
    """Load and validate a CSV (header ``T,f``) or JSON ``{"knots": [[T, f], ...]}``
    curve from a file path (any ``str``), a stream, or the equivalent dict."""
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed JSON forward curve: {exc}") from exc
        else:
            reader = csv.reader(io.StringIO(text))
            rows = [r for r in reader if r and any(field.strip() for field in r)]
            if not rows:
                raise ValidationError("empty forward-curve document")
            header = [h.strip().lower() for h in rows[0]]
            if header != ["t", "f"]:
                raise ValidationError(
                    f"forward-curve CSV must have header 'T,f', got {rows[0]!r}"
                )
            return _curve_from_rows(rows[1:])
    knots = doc.get("knots")
    if not isinstance(knots, list) or not knots:
        raise ValidationError("forward-curve JSON needs a non-empty 'knots' list")
    return _curve_from_rows(knots)


@dataclass(frozen=True)
class CalibratedModel:
    """Curve plus reversion speed, with the implied ``mu`` and ``r0``."""

    alpha: float
    curve: ForwardCurve

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError("alpha must be finite and > 0")

    @property
    def r0(self) -> float:
        return float(self.curve.forwards[0])

    def mu(self, t) -> np.ndarray:
        return self.alpha * self.curve.value(t) + self.curve.derivative(t)

    def rate_params(self) -> RateParams:
        return RateParams(
            r0=self.r0,
            alpha=self.alpha,
            mu=self.mu,
            mu_breakpoints=tuple(float(T) for T in self.curve.maturities[1:-1]),
        )


def calibrate(curve: ForwardCurve, alpha: float) -> CalibratedModel:
    """Bind the curve to a reversion speed; ``mu`` and ``r0`` follow."""
    return CalibratedModel(alpha=alpha, curve=curve)


def a_fitted(model: CalibratedModel, t: float, maturity: float) -> float:
    """Exact fitted intercept ``-int_t^T f + f(t) B(t,T)``; agrees with the
    quadrature of the calibrated ``mu`` against ``B`` to quadrature accuracy."""
    if not (0.0 <= t <= maturity <= model.curve.t_last + 1e-12):
        raise ValidationError(
            f"need 0 <= t <= T <= {model.curve.t_last}, got t={t}, T={maturity}"
        )
    return -model.curve.integral(t, maturity) + float(model.curve.value(t)) * b_factor(
        model.alpha, t, maturity
    )


def fitted_price(model: CalibratedModel, t: float, maturity: float, r_t: float, lambda_t: float) -> float:
    """Bond price using the exact fitted intercept instead of quadrature."""
    if lambda_t < 0:
        raise ValidationError("lambda_t must be >= 0")
    b = b_factor(model.alpha, t, maturity)
    return float(np.exp(_log_price(a_fitted(model, t, maturity), b, r_t, lambda_t)))


@dataclass(frozen=True)
class RoundTripRow:
    maturity: float
    p_model: float
    p_curve: float

    @property
    def abs_error(self) -> float:
        return abs(self.p_model - self.p_curve)


@dataclass(frozen=True)
class RoundTripReport:
    rows: tuple
    max_abs_error: float
    max_forward_error: float


def initial_curve_roundtrip(model: CalibratedModel, maturities: Sequence[float]) -> RoundTripReport:
    """Compare model time-0 prices with the discount factors implied by the
    curve itself, and the finite-difference model forwards with the curve.

    The price comparison is an identity of the fit (the fitted intercept
    cancels against the ``B r0`` term), so errors should sit at rounding
    level.  The forward comparison evaluates the curve at interval
    midpoints and is exact only when no knot falls inside an interval.
    """
    mats = sorted(float(T) for T in maturities)
    rows = []
    for T in mats:
        p_model = fitted_price(model, 0.0, T, model.r0, 0.0)
        p_curve = float(np.exp(-model.curve.integral(0.0, T)))
        rows.append(RoundTripRow(maturity=T, p_model=p_model, p_curve=p_curve))
    max_err = max((r.abs_error for r in rows), default=0.0)

    fwd_err = 0.0
    for lo, hi in zip(rows[:-1], rows[1:]):
        dT = hi.maturity - lo.maturity
        if dT <= 0:
            continue
        fd = -(np.log(hi.p_model) - np.log(lo.p_model)) / dT
        mid = model.curve.value(0.5 * (lo.maturity + hi.maturity))
        fwd_err = max(fwd_err, abs(float(fd - mid)))
    return RoundTripReport(rows=tuple(rows), max_abs_error=max_err, max_forward_error=fwd_err)

"""Fitting the reversion level to an observed initial forward curve.

The market supplies forward rates at a handful of maturities; the curve is
interpolated piecewise-linearly between knots so that every integral used
in pricing has an exact closed form per segment.  Fitting then reduces to

    mu(t) = alpha * f(0, t) + f'(0, t)   (right derivative at knots)

with the initial short rate pinned to ``f(0, 0)``.  The fitted model is a
:class:`~robustrates.paths.RateParams` whose ``mu`` is the curve
(:class:`~robustrates.paths.ForwardCurve`) itself, so a calibrated price is
:func:`~robustrates.bonds.price_robust` on those parameters, whose
intercept is the exact ``-int_t^T f + f(t) B(t,T)``.  With that ``mu`` the
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

from .bonds import price_robust
from .errors import ValidationError, _check_real, _check_reals
from .paths import ForwardCurve, RateParams


def _curve_from_rows(rows: Iterable, parse=lambda field: field) -> ForwardCurve:
    """Knots from ``[T, f]`` pairs, each field through ``parse`` (``float`` for the
    text of a CSV row; a JSON pair holds numbers already) and then the number rule
    (:func:`~robustrates.errors._check_real`: no null, boolean or string)."""
    mats, fwds = [], []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise ValidationError(f"forward-curve knot must be a [T, f] pair, got {row!r}")
        try:
            mats.append(_check_real("T", parse(row[0])))
            fwds.append(_check_real("f", parse(row[1])))
        except ValueError:  # "abc", or what the rule rejects
            raise ValidationError(
                f"non-numeric or non-finite forward-curve entry in {row!r}"
            ) from None
    return ForwardCurve(mats, fwds)


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
            return _curve_from_rows(rows[1:], float)
    knots = doc.get("knots")
    if not isinstance(knots, list) or not knots:
        raise ValidationError("forward-curve JSON needs a non-empty 'knots' list")
    return _curve_from_rows(knots)


def calibrate(curve: ForwardCurve, alpha: float) -> RateParams:
    """The short-rate parameters fitted to ``curve``: ``r0 = f(0)`` and the curve as ``mu``."""
    return RateParams(r0=float(curve.forwards[0]), alpha=alpha, mu=curve)


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


def initial_curve_roundtrip(params: RateParams, maturities: Sequence[float]) -> RoundTripReport:
    """Compare model time-0 prices with the discount factors implied by the
    curve itself, and the finite-difference model forwards with the curve.

    The price comparison is an identity of the fit (the fitted intercept
    cancels against the ``B r0`` term), so errors should sit at rounding
    level.  The forward comparison evaluates the curve at interval
    midpoints and is exact only when no knot falls inside an interval.
    ``params`` are calibrated ones: their ``mu`` must be a curve, and
    ``maturities`` holds at least one maturity.
    """
    curve = params.mu
    if not isinstance(curve, ForwardCurve):
        raise ValidationError(f"the round trip needs a ForwardCurve mu, got mu = {curve!r}")
    mats = sorted(_check_reals("maturities", maturities))
    if not mats:
        raise ValidationError("maturities must hold at least one maturity, got none")
    rows = []
    for T in mats:
        p_model = price_robust(params, 0.0, T, params.r0, 0.0)
        p_curve = float(np.exp(-curve.integral(0.0, T)))
        rows.append(RoundTripRow(maturity=T, p_model=p_model, p_curve=p_curve))
    max_err = max(r.abs_error for r in rows)

    fwd_err = 0.0
    for lo, hi in zip(rows[:-1], rows[1:]):
        dT = hi.maturity - lo.maturity
        if dT <= 0:
            continue
        fd = -(np.log(hi.p_model) - np.log(lo.p_model)) / dT
        mid = curve.value(0.5 * (lo.maturity + hi.maturity))
        fwd_err = max(fwd_err, abs(float(fd - mid)))
    return RoundTripReport(rows=tuple(rows), max_abs_error=max_err, max_forward_error=fwd_err)

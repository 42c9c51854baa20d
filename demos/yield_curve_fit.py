#!/usr/bin/env python3
"""Fitting the reversion level to an observed forward curve.

Given forward-rate knots, the reversion level becomes
``mu(t) = alpha f(0,t) + f'(0,t)`` and the time-0 model prices collapse to
the discount factors of the curve itself, to machine precision.  The fitted
model is a ``RateParams`` whose ``mu`` is the curve; it then quotes
consistent prices at later times through the simulated short rate and
variance adjustment.
"""

import numpy as np

from robustrates import (
    Constant,
    McConfig,
    VolBand,
    calibrate,
    ingest_forward_curve,
    initial_curve_roundtrip,
    martingale_check,
    price_robust,
)

HUMPED = {
    "knots": [[0.0, 0.010], [1.0, 0.018], [2.0, 0.022], [5.0, 0.019], [10.0, 0.016]]
}


def main():
    curve = ingest_forward_curve(HUMPED)
    params = calibrate(curve, alpha=1.0)  # the fitted RateParams: the curve is its mu
    print("humped forward curve, alpha = 1.0, r0 pinned to f(0,0) =", params.r0)

    print("\ncalibrated reversion level at a few times:")
    for t in (0.0, 0.5, 1.5, 3.0, 7.0):
        print(f"  mu({t:>3.1f}) = {float(params.mu_at(t)):+.6f}")

    report = initial_curve_roundtrip(params, np.linspace(0.5, 10.0, 20))
    print(f"\ntime-0 round trip over 20 maturities: max |P_model - P_curve| = {report.max_abs_error:.2e}")
    print(f"{'T':>5} {'P_model':>13} {'P_curve':>13}")
    for row in report.rows[::5]:
        print(f"{row.maturity:>5.2f} {row.p_model:>13.10f} {row.p_curve:>13.10f}")

    # with a degenerate band the fitted model is the classical fitted one;
    # the discounted price at t=0.5 recovers the curve discount statistically
    band = VolBand(0.01, 0.01)
    cfg = McConfig(n_paths=20_000, n_steps=200, horizon=5.0, base_seed=3)
    rep = martingale_check(params, band, [Constant(0.01)], 5.0, [0.5], cfg)[0]
    row = rep.checkpoints[0]
    target = float(np.exp(-curve.integral(0.0, 5.0)))
    print(f"\nsimulated E[discounted P(0.5, 5)] = {row.mean:.8f} +- {row.se:.1e}")
    print(f"curve discount exp(-int f)        = {target:.8f}")

    print("\nfitted robust quotes at t=0 for the uncertain band [0.005, 0.02]:")
    for T in (1.0, 5.0, 10.0):
        print(f"  P(0,{T:>4.1f}) = {price_robust(params, 0.0, T, params.r0, 0.0):.8f}")


if __name__ == "__main__":
    main()

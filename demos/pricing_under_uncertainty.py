#!/usr/bin/env python3
"""Term structure when the volatility is only known to live in a band.

Walks through the three curves the model produces for each maturity:

* the robust price, the unique choice whose discounted value is driftless
  in every volatility scenario (affine in the short rate and the
  variance-adjustment level);
* the classical constant-volatility prices at the bottom and top of the
  band, which bracket what a single-prior model would quote.

The robust price carries no convexity premium at time 0 (the adjustment
process starts at zero), so it sits slightly below both classical quotes.
"""

import numpy as np

from robustrates import (
    RateParams,
    VolBand,
    price_classical_hw,
    price_robust,
)

BAND = VolBand(0.005, 0.02)
PARAMS = RateParams(r0=0.02, alpha=1.0, mu=0.012)


def main():
    print(f"band [{BAND.sigma_lo}, {BAND.sigma_hi}], r0={PARAMS.r0}, alpha={PARAMS.alpha}, mu={PARAMS.mu}")
    print(f"{'T':>4} {'classical lo':>14} {'robust':>14} {'classical hi':>14} {'hi-lo spread':>13}")
    for T in range(1, 11):
        lo = price_classical_hw(PARAMS, BAND.sigma_lo, 0.0, T, PARAMS.r0)
        hi = price_classical_hw(PARAMS, BAND.sigma_hi, 0.0, T, PARAMS.r0)
        robust = price_robust(PARAMS, 0.0, T, PARAMS.r0, 0.0)
        print(f"{T:>4} {lo:>14.8f} {robust:>14.8f} {hi:>14.8f} {hi - lo:>13.3e}")

    print()
    print("at t > 0 the robust price discounts the realized variance through")
    print("the adjustment level lam_t; the spread below shows its effect:")
    lam_stationary = BAND.sigma_hi**2 / (2 * PARAMS.alpha)
    for lam in (0.0, lam_stationary / 2, lam_stationary):
        p = price_robust(PARAMS, 1.0, 10.0, 0.02, lam)
        print(f"  lam={lam:.2e}  P(1,10)={p:.8f}")

    print()
    print("zero-coupon yields implied by the three curves at T=10:")
    for name, sigma in (("lo", BAND.sigma_lo), ("hi", BAND.sigma_hi)):
        p = price_classical_hw(PARAMS, sigma, 0.0, 10.0, PARAMS.r0)
        print(f"  classical {name}: {-np.log(p) / 10.0:.6%}")
    p = price_robust(PARAMS, 0.0, 10.0, PARAMS.r0, 0.0)
    print(f"  robust:       {-np.log(p) / 10.0:.6%}")


if __name__ == "__main__":
    main()

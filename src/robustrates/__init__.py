"""Short-rate term structure modeling under a volatility band.

The volatility of the driving noise is only known to live in an interval;
prices and expectations are computed in the worst/best case over a family
of admissible volatility scenarios.  The package provides

* the band and its sublinear generator (:mod:`robustrates.band`);
* volatility scenarios and families (:mod:`robustrates.scenarios`);
* path simulation of driver, variance-adjustment process, short rate under
  original or drift-shifted dynamics, and money market
  (:mod:`robustrates.paths`);
* the worst/best-case Monte Carlo estimator (:mod:`robustrates.mc`);
* closed-form robust and classical bond prices, the no-arbitrage gap
  demonstrator and the martingale verifier (:mod:`robustrates.bonds`);
* an explicit finite-difference solver for the nonlinear band heat
  equation as an independent oracle (:mod:`robustrates.gheat`);
* forward-curve ingestion and exact yield-curve calibration
  (:mod:`robustrates.calibration`).
"""

from .band import VolBand, g_value
from .bonds import (
    GapReport,
    MartingaleReport,
    a_classical,
    a_robust,
    b_factor,
    martingale_check,
    noarb_gap,
    price_classical_hw,
    price_robust,
)
from .calibration import (
    RoundTripReport,
    calibrate,
    ingest_forward_curve,
    initial_curve_roundtrip,
)
from .errors import NumericalError, ValidationError
from .gheat import Grid1D, Solution1D, gexpectation_terminal, solve_gheat
from .mc import McConfig, ScenarioStat, SublinearEstimate, estimate_sublinear
from .paths import (
    ForwardCurve,
    PathBundle,
    RateParams,
    TimeGrid,
    lambda_path,
    money_market,
    simulate_bundle,
)
from .scenarios import (
    AdaptedFeedback,
    Constant,
    PiecewiseConstant,
    RandomSwitching,
    ScenarioSpec,
    bang_bang,
    default_scenario_family,
    family_from_json,
    family_to_json,
    register_feedback_rule,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedFeedback",
    "Constant",
    "ForwardCurve",
    "GapReport",
    "Grid1D",
    "MartingaleReport",
    "McConfig",
    "NumericalError",
    "PathBundle",
    "PiecewiseConstant",
    "RandomSwitching",
    "RateParams",
    "RoundTripReport",
    "ScenarioSpec",
    "ScenarioStat",
    "Solution1D",
    "SublinearEstimate",
    "TimeGrid",
    "ValidationError",
    "VolBand",
    "a_classical",
    "a_robust",
    "b_factor",
    "bang_bang",
    "calibrate",
    "default_scenario_family",
    "estimate_sublinear",
    "family_from_json",
    "family_to_json",
    "g_value",
    "gexpectation_terminal",
    "ingest_forward_curve",
    "initial_curve_roundtrip",
    "lambda_path",
    "martingale_check",
    "money_market",
    "noarb_gap",
    "price_classical_hw",
    "price_robust",
    "register_feedback_rule",
    "simulate_bundle",
    "solve_gheat",
]

"""End-to-end acceptance gate.

Each test exercises one headline property at its production scale and
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines as they appear).  Expected values marked as oracle constants were
computed with 40-digit quadrature/exponentiation before the implementation
existed; statistical tolerances are 3 standard errors throughout.
"""

import time

import numpy as np

from robustrates import (
    Constant,
    ForwardCurve,
    McConfig,
    RateParams,
    VolBand,
    a_robust,
    b_factor,
    bang_bang,
    calibrate,
    default_scenario_family,
    estimate_sublinear,
    gexpectation_terminal,
    initial_curve_roundtrip,
    lambda_path,
    martingale_check,
    noarb_gap,
)

BAND = VolBand(0.005, 0.02)
PARAMS = RateParams(r0=0.02, alpha=1.0, mu=0.0)

# oracle constants (40-digit arithmetic, frozen before the build)
CF_UPPER = 0.98747036485714169   # classical price at sigma=0.02
CF_LOWER = 0.98743924313780113   # classical price at sigma=0.005
LAMBDA_1 = 0.017293294335267746  # 0.2^2 (1 - e^-2) / 2
RELU_UPPER = 0.0079788456080286536  # 0.02 / sqrt(2 pi)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeded {budget:.0f}s"


def test_criterion_1_variance_uncertainty_identities():
    t0 = time.perf_counter()
    family = default_scenario_family(BAND, n_constant=5, n_switching=3, seed=0)
    cfg = McConfig(n_paths=100_000, n_steps=128, horizon=1.0, base_seed=0)

    est_mean = estimate_sublinear(lambda b: b.b[:, -1], BAND, family, cfg)
    ok = abs(est_mean.upper) <= 3 * est_mean.upper_se
    ok &= abs(est_mean.lower) <= 3 * est_mean.lower_se

    est_sq = estimate_sublinear(lambda b: b.b[:, -1] ** 2, BAND, family, cfg)
    ok &= abs(est_sq.upper - 4.0e-4) <= 3 * est_sq.upper_se
    ok &= abs(est_sq.lower - 2.5e-5) <= 3 * est_sq.lower_se

    detail = (
        f"E[B]={est_mean.upper:+.2e}/{est_mean.lower:+.2e}, "
        f"E[B^2]={est_sq.upper:.4e}/{est_sq.lower:.4e} vs 4.0e-4/2.5e-5"
    )
    _report("1 variance uncertainty", ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_2_impossibility_gap():
    t0 = time.perf_counter()
    family = default_scenario_family(BAND, n_constant=12, n_switching=6, seed=0)
    assert len(family) == 20
    cfg = McConfig(n_paths=100_000, n_steps=256, horizon=1.0, base_seed=0, antithetic=True)
    report = noarb_gap(PARAMS, BAND, 1.0, family, cfg)

    ok = abs(report.upper - CF_UPPER) <= 3 * report.upper_se
    ok &= abs(report.lower - CF_LOWER) <= 3 * report.lower_se
    ok &= report.gap > 3 * report.gap_se

    # scenario sweep: nothing beats the top-of-band constant by more than 3 se
    hi = next(s for s in report.per_scenario if s.scenario_id == "const[0.02]")
    exceed = [
        s for s in report.per_scenario
        if s.mean - hi.mean > 3 * np.hypot(s.se, hi.se)
    ]
    ok &= not exceed

    detail = (
        f"upper {report.upper:.8f} vs {CF_UPPER:.8f}, lower {report.lower:.8f} vs {CF_LOWER:.8f}, "
        f"gap {report.gap:.3e} > 3se {3 * report.gap_se:.1e}, argmax {report.argmax_scenario}, "
        f"{len(report.per_scenario)} scenarios, none beats the top constant"
    )
    _report("2 impossibility gap", ok, detail, time.perf_counter() - t0, 120.0)


def test_criterion_3_martingale_verification():
    t0 = time.perf_counter()
    scenarios = [
        Constant(BAND.sigma_lo),
        Constant(BAND.sigma_hi),
        Constant(BAND.midpoint),
        bang_bang(BAND, 1.0, n_segments=2, start_high=True),
        bang_bang(BAND, 1.0, n_segments=4, start_high=False),
    ]
    checkpoints = [0.25, 0.5, 0.75, 1.0]
    cfg = McConfig(n_paths=100_000, n_steps=512, horizon=1.0, base_seed=0, antithetic=True)

    reports = martingale_check(PARAMS, BAND, scenarios, 1.0, checkpoints, cfg)
    ok = all(rep.all_pass for rep in reports)
    worst_terminal = max(rep.terminal_max_abs_error for rep in reports)
    dt = 1.0 / 512
    ok &= worst_terminal <= 5.0 * dt

    # power check: without the drift shift the band edges must fail
    adversarial = martingale_check(
        PARAMS, BAND, [Constant(BAND.sigma_lo), Constant(BAND.sigma_hi)],
        1.0, checkpoints, cfg, dynamics="original",
    )
    ok &= all(not rep.all_pass for rep in adversarial)

    worst_dev = max(
        abs(c.mean - c.reference) / c.se if c.se else 0.0
        for rep in reports for c in rep.checkpoints
    )
    detail = (
        f"5 scenarios x 4 checkpoints all within 3 se (worst t-stat {worst_dev:.2f}), "
        f"terminal |P(T,T)-1| <= {worst_terminal:.2e} vs 5dt={5*dt:.2e}, "
        f"unshifted fixture fails at both edges"
    )
    _report("3 martingale verification", ok, detail, time.perf_counter() - t0, 180.0)


def test_criterion_4_gheat_oracle():
    t0 = time.perf_counter()
    v_sq = gexpectation_terminal(lambda x: x**2, BAND, 1.0)
    ok = abs(v_sq - BAND.sigma_hi**2) <= 0.01 * BAND.sigma_hi**2

    v_neg = gexpectation_terminal(lambda x: -(x**2), BAND, 1.0)
    ok &= abs(v_neg + BAND.sigma_lo**2) <= 0.01 * BAND.sigma_lo**2

    v_relu = gexpectation_terminal(lambda x: np.maximum(x, 0.0), BAND, 1.0)
    family = default_scenario_family(BAND, n_constant=5, n_switching=3, seed=0)
    cfg = McConfig(n_paths=100_000, n_steps=128, horizon=1.0, base_seed=0)
    est = estimate_sublinear(lambda b: np.maximum(b.b[:, -1], 0.0), BAND, family, cfg)
    ok &= abs(v_relu - est.upper) <= max(0.01 * abs(v_relu), 3 * est.upper_se)
    ok &= abs(v_relu - RELU_UPPER) <= 0.01 * RELU_UPPER

    degenerate = VolBand(0.02, 0.02)
    e_coarse = abs(gexpectation_terminal(lambda x: x**2, degenerate, 1.0, nodes_per_width=50) - 4e-4)
    e_fine = abs(gexpectation_terminal(lambda x: x**2, degenerate, 1.0, nodes_per_width=100) - 4e-4)
    ratio = e_coarse / e_fine
    ok &= 3.0 <= ratio <= 5.0

    detail = (
        f"x^2 {v_sq:.4e} vs 4e-4, -x^2 {v_neg:.4e} vs -2.5e-5, "
        f"relu {v_relu:.4e} vs MC {est.upper:.4e}, dx-halving ratio {ratio:.2f}"
    )
    _report("4 nonlinear heat oracle", ok, detail, time.perf_counter() - t0, 240.0)


def test_criterion_5_calibration_round_trip():
    t0 = time.perf_counter()
    curves = {
        "flat": ForwardCurve(np.array([0.0, 10.0]), np.array([0.02, 0.02])),
        "linear": ForwardCurve(np.array([0.0, 10.0]), np.array([0.01, 0.03])),
        "humped": ForwardCurve(
            np.array([0.0, 1.0, 2.0, 5.0, 10.0]),
            np.array([0.010, 0.018, 0.022, 0.019, 0.016]),
        ),
    }
    worst_round = 0.0
    for curve in curves.values():
        params = calibrate(curve, alpha=1.0)
        rep = initial_curve_roundtrip(params, np.linspace(0.25, 10.0, 40))
        worst_round = max(worst_round, rep.max_abs_error)
    ok = worst_round <= 1e-10

    params = calibrate(curves["humped"], alpha=1.0)
    humped = curves["humped"]

    def a_fit(t, T):  # the fitted intercept -int_t^T f + f(t) B(t,T), as the textbook writes it
        return -humped.integral(t, T) + float(humped.value(t)) * b_factor(1.0, t, T)

    worst_a = max(
        abs(a_fit(float(t), float(T)) - a_robust(params, float(t), float(T)))
        for t in np.linspace(0.0, 4.5, 10)
        for T in np.linspace(5.0, 9.5, 10)
    )
    ok &= worst_a <= 1e-14

    # degenerate band: simulated fitted prices at t=0.5 match the fitted
    # classical model, i.e. the discounted expectation returns the curve price
    band = VolBand(0.01, 0.01)
    maturity = 5.0
    cfg = McConfig(n_paths=100_000, n_steps=500, horizon=maturity, base_seed=0)
    rep = martingale_check(params, band, [Constant(0.01)], maturity, [0.5], cfg)[0]
    row = rep.checkpoints[0]
    p_curve = float(np.exp(-curves["humped"].integral(0.0, maturity)))
    dev = abs(row.mean - p_curve)
    ok &= dev <= 3 * row.se

    detail = (
        f"roundtrip max {worst_round:.1e} <= 1e-10, |a_fit - a_robust| max {worst_a:.1e} <= 1e-14, "
        f"t=0.5 fitted price dev {dev:.2e} <= 3se={3*row.se:.2e}"
    )
    _report("5 calibration round trip", ok, detail, time.perf_counter() - t0, 60.0)


def test_criterion_6_variance_adjustment_process():
    t0 = time.perf_counter()
    sigma, alpha = 0.2, 1.0
    errs = {}
    resid_scale = {}
    for n in (512, 1024):
        dt = 1.0 / n
        times = np.linspace(0.0, 1.0, n + 1)
        qv = sigma**2 * times
        lam = lambda_path(qv, alpha=alpha, dt=dt)
        errs[n] = abs(lam[-1] - LAMBDA_1)
        partial = np.concatenate([[0.0], np.cumsum(lam[:-1])])
        resid = np.abs(lam - (qv - 2.0 * dt * partial))
        resid_scale[n] = resid.max() / dt

    ok = errs[512] <= 1e-3
    ratio = errs[1024] / errs[512]
    ok &= 0.4 <= ratio <= 0.6
    ok &= max(resid_scale.values()) <= 0.1  # identity residual stays O(dt)

    detail = (
        f"|lam(1) - {LAMBDA_1:.7f}| = {errs[512]:.2e} <= 1e-3, halving ratio {ratio:.3f}, "
        f"identity residual C = {max(resid_scale.values()):.3f} * dt"
    )
    _report("6 variance adjustment process", ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_7_axioms_and_isometry():
    t0 = time.perf_counter()
    family = default_scenario_family(BAND, n_constant=4, n_switching=2, seed=0)
    cfg = McConfig(n_paths=50_000, n_steps=64, horizon=1.0, base_seed=0)

    x = lambda b: np.abs(b.b[:, -1]) + b.qv[:, -1]
    y = lambda b: np.abs(b.b[:, -1])
    xy = lambda b: x(b) + y(b)
    ex = estimate_sublinear(x, BAND, family, cfg)
    ey = estimate_sublinear(y, BAND, family, cfg)
    exy = estimate_sublinear(xy, BAND, family, cfg)
    ok_mono = ex.upper >= ey.upper
    c = 0.375
    ec = estimate_sublinear(lambda b: np.full(b.n_paths, c), BAND, family, cfg)
    ok_const = ec.upper == c
    pooled = 3 * np.sqrt(ex.upper_se**2 + ey.upper_se**2 + exy.upper_se**2)
    ok_sub = exy.upper <= ex.upper + ey.upper + pooled
    el = estimate_sublinear(lambda b: 4.5 * y(b), BAND, family, cfg)
    ok_hom = np.isclose(el.upper, 4.5 * ey.upper, rtol=1e-13)

    # stochastic-integral bounds for three deterministic step integrands
    times = np.linspace(0.0, 1.0, 65)[:-1]
    etas = [
        np.ones(64),
        np.where(times < 0.5, 1.0, 3.0),
        np.where(times < 0.25, 2.0, np.where(times < 0.75, 0.5, 1.5)),
    ]
    ok_iso = True
    dt = 1.0 / 64
    for eta in etas:
        functional = lambda b, e=eta: np.sum(e[None, :] * np.diff(b.b, axis=1), axis=1)
        est = estimate_sublinear(functional, BAND, family, cfg)
        ok_iso &= abs(est.upper) <= 3 * est.upper_se
        ok_iso &= abs(est.lower) <= 3 * est.lower_se
        est2 = estimate_sublinear(lambda b, f=functional: f(b) ** 2, BAND, family, cfg)
        bound = BAND.sigma_hi**2 * float(np.sum(eta**2)) * dt
        ok_iso &= est2.upper <= bound + 3 * est2.upper_se

    ok = ok_mono and ok_const and ok_sub and ok_hom and ok_iso
    detail = (
        f"monotone {ok_mono}, constant {ok_const}, subadditive {ok_sub}, "
        f"homogeneous {ok_hom}, isometry bounds {ok_iso}"
    )
    _report("7 axioms and isometry", ok, detail, time.perf_counter() - t0, 30.0)

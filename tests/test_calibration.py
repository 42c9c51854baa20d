import io
import json

import numpy as np
import pytest

from robustrates import (
    Constant,
    ForwardCurve,
    RateParams,
    TimeGrid,
    ValidationError,
    VolBand,
    a_robust,
    b_factor,
    calibrate,
    price_robust,
    ingest_forward_curve,
    initial_curve_roundtrip,
    lambda_path,
    simulate_bundle,
)

FLAT = ForwardCurve(np.array([0.0, 10.0]), np.array([0.02, 0.02]))
LINEAR = ForwardCurve(np.array([0.0, 10.0]), np.array([0.01, 0.03]))
HUMPED = ForwardCurve(
    np.array([0.0, 1.0, 2.0, 5.0, 10.0]),
    np.array([0.010, 0.018, 0.022, 0.019, 0.016]),
)


class TestIngest:
    def test_csv_flat(self):
        curve = ingest_forward_curve(io.StringIO("T,f\n0,0.02\n10,0.02\n"))
        assert curve.value(3.7) == pytest.approx(0.02)

    def test_csv_linear_slope(self):
        curve = ingest_forward_curve(io.StringIO("T,f\n0,0.01\n10,0.03\n"))
        assert curve.derivative(4.0) == pytest.approx(0.002)

    def test_json_document(self):
        curve = ingest_forward_curve({"knots": [[0.0, 0.01], [5.0, 0.02]]})
        assert curve.t_last == 5.0

    def test_json_text(self):
        curve = ingest_forward_curve(io.StringIO(json.dumps({"knots": [[0, 0.01], [5, 0.02]]})))
        assert curve.value(0.0) == 0.01

    def test_string_is_always_a_path(self, tmp_path):
        text = "T,f\n0,0.02\n10,0.02\n"
        with pytest.raises(FileNotFoundError):
            ingest_forward_curve(text)
        path = tmp_path / "flat.csv"
        path.write_text(text)
        assert ingest_forward_curve(str(path)).value(1.0) == 0.02
        assert ingest_forward_curve(path).value(1.0) == 0.02

    def test_duplicate_maturity_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_forward_curve(io.StringIO("T,f\n0,0.01\n5,0.02\n5,0.03\n"))

    def test_decreasing_maturity_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            ingest_forward_curve(io.StringIO("T,f\n0,0.01\n5,0.02\n4,0.03\n"))

    def test_missing_time_zero_knot_rejected(self):
        with pytest.raises(ValidationError, match="T=0"):
            ingest_forward_curve(io.StringIO("T,f\n1,0.01\n5,0.02\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ingest_forward_curve(io.StringIO("T,f\n0,0.01\n5,inf\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="non-numeric"):
            ingest_forward_curve(io.StringIO("T,f\n0,0.01\n5,abc\n"))

    @pytest.mark.parametrize("knots", [
        [1, 2],  # knots that are not [T, f] lists
        [[0, None], [5, 0.02]],  # a null forward
        [[0, True], [5, 0.02]],  # a boolean is not a number
        [[0, "0.01"], [5, 0.02]],  # nor, in JSON, is a string
    ], ids=["bare-numbers", "null", "boolean", "string"])
    def test_json_knot_not_two_numbers_rejected(self, knots):
        with pytest.raises(ValidationError, match="forward-curve"):
            ingest_forward_curve({"knots": knots})

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            ingest_forward_curve(io.StringIO("maturity,fwd\n0,0.01\n5,0.02\n"))

    def test_too_few_knots_rejected(self):
        with pytest.raises(ValidationError, match="2 knots"):
            ingest_forward_curve(io.StringIO("T,f\n0,0.01\n"))


class TestCurve:
    def test_out_of_range_evaluation_rejected(self):
        with pytest.raises(ValidationError):
            HUMPED.value(10.5)
        with pytest.raises(ValidationError):
            HUMPED.derivative(-0.1)

    @pytest.mark.parametrize("name, evaluate", [
        ("t", HUMPED.value),
        ("t", HUMPED.derivative),
        ("a", lambda t: HUMPED.integral(t, 2.0)),
        ("b", lambda t: HUMPED.integral(0.0, t)),
        ("s", RateParams(0.02, 1.0, HUMPED).mu_at),
        ("s", RateParams(0.02, 1.0, 0.01).mu_at),
    ], ids=["value", "derivative", "integral-a", "integral-b", "mu_at-curve", "mu_at-constant"])
    @pytest.mark.parametrize("t", ["1", True, None, np.nan, [1.0]])
    def test_times_take_the_number_rule(self, name, evaluate, t):
        """``value("1")`` once returned the forward at 1, and ``integral(True, 2)`` ran from 1."""
        with pytest.raises(ValidationError, match=rf"^{name} must be a finite real number, got "):
            evaluate(t)

    @pytest.mark.parametrize(
        "evaluate", [HUMPED.value, HUMPED.derivative, RateParams(0.02, 1.0, HUMPED).mu_at]
    )
    def test_time_arrays_need_a_real_dtype(self, evaluate):
        message = r"^[ts] must be an array of real numbers, got dtype "
        for t in (np.array([True, False]), np.array(["1"]), np.array([0.5, 1], dtype=object)):
            with pytest.raises(ValidationError, match=message):
                evaluate(t)
        with pytest.raises(ValidationError, match="outside curve range"):
            evaluate(np.array([0.5, np.nan]))
        assert evaluate(np.arange(3)).tolist() == evaluate(np.arange(3.0)).tolist()
        assert evaluate(np.float32(0.5)) == evaluate(0.5)

    def test_right_continuous_derivative_at_knot(self):
        # slope jumps at T=2 from 0.004 to -0.001; the knot takes the right one
        assert HUMPED.derivative(2.0) == pytest.approx(-0.001)
        assert HUMPED.derivative(1.999) == pytest.approx(0.004)

    @staticmethod
    def _trapz(y, x):
        return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))

    def test_exact_integral_piecewise_linear(self):
        # oracle: dense trapezoid on a grid containing every knot is exact
        s = np.union1d(HUMPED.maturities, np.linspace(0.3, 9.7, 1001))
        ref = self._trapz(np.interp(s, HUMPED.maturities, HUMPED.forwards), s)
        assert HUMPED.integral(0.0, 10.0) == pytest.approx(ref, rel=1e-13)
        a, b = 0.7, 6.3
        mask = (s >= a) & (s <= b)
        sab = np.concatenate([[a], s[mask], [b]])
        ref_ab = self._trapz(np.interp(sab, HUMPED.maturities, HUMPED.forwards), sab)
        assert HUMPED.integral(a, b) == pytest.approx(ref_ab, rel=1e-13)

    def test_excess_integral_is_the_integral_less_the_left_value(self):
        times = np.array([0.0, 0.7, 1.0, 2.0, 4.999, 6.3])
        got = HUMPED.excess_integral(times, 6.3)
        for t, g in zip(times.tolist(), got.tolist()):
            want = HUMPED.integral(t, 6.3) - float(HUMPED.value(t)) * (6.3 - t)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-17)
            assert HUMPED.excess_integral(t, 6.3) == g
        assert got[-1] == 0.0
        with pytest.raises(ValidationError, match="outside curve range"):
            HUMPED.excess_integral(0.0, 10.5)


class TestCalibrate:
    def test_flat_zero_curve(self):
        curve = ForwardCurve(np.array([0.0, 5.0]), np.array([0.0, 0.0]))
        params = calibrate(curve, alpha=1.3)
        assert params.r0 == 0.0
        np.testing.assert_allclose(params.mu_at(np.linspace(0, 4.9, 7)), 0.0)

    def test_flat_curve_mu_is_alpha_c(self):
        params = calibrate(FLAT, alpha=1.7)
        np.testing.assert_allclose(params.mu_at(np.array([0.0, 2.5, 9.9])), 1.7 * 0.02)

    def test_linear_curve_mu(self):
        params = calibrate(LINEAR, alpha=0.8)
        t = np.array([0.0, 4.0, 9.0])
        np.testing.assert_allclose(params.mu_at(t), 0.8 * (0.01 + 0.002 * t) + 0.002, rtol=1e-13)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            calibrate(FLAT, alpha=0.0)

    def test_mu_beyond_curve_rejected(self):
        params = calibrate(FLAT, alpha=1.0)
        with pytest.raises(ValidationError):
            params.mu_at(11.0)

    def test_r0_pinned_to_curve(self):
        assert calibrate(HUMPED, alpha=2.0).r0 == 0.010

    def test_rate_params_carry_the_curve(self):
        params = calibrate(HUMPED, 2.0)
        assert params == RateParams(0.010, 2.0, HUMPED)
        assert params.mu is HUMPED


class TestFittedIntercept:
    """``a_robust`` on the calibrated parameters is the fitted intercept
    ``-int_t^T f + f(t) B(t,T)``."""

    def test_zero_at_maturity(self):
        params = calibrate(HUMPED, alpha=1.0)
        assert a_robust(params, 3.0, 3.0) == 0.0

    def test_flat_curve_hand_value(self):
        params = calibrate(FLAT, alpha=1.0)
        # -c + c B(0,1), oracle -0.0073575888234288464
        assert a_robust(params, 0.0, 1.0) == pytest.approx(-0.0073575888234288464, rel=1e-13)

    def test_matches_textbook_form(self):
        params = calibrate(HUMPED, alpha=1.0)
        for t in np.linspace(0.0, 4.5, 10):
            for T in np.linspace(5.0, 9.5, 10):
                t, T = float(t), float(T)
                a_fit = -HUMPED.integral(t, T) + float(HUMPED.value(t)) * b_factor(1.0, t, T)
                assert abs(a_fit - a_robust(params, t, T)) <= 1e-15

    def test_range_validated(self):
        params = calibrate(HUMPED, alpha=1.0)
        with pytest.raises(ValidationError, match="outside curve range"):
            a_robust(params, 0.0, 10.5)


class TestRoundTrip:
    @pytest.mark.parametrize("curve", [FLAT, LINEAR, HUMPED], ids=["flat", "linear", "humped"])
    def test_reproduces_discount_curve(self, curve):
        params = calibrate(curve, alpha=1.0)
        report = initial_curve_roundtrip(params, np.linspace(0.25, 10.0, 40))
        assert report.max_abs_error <= 1e-10

    def test_flat_hand_value(self):
        params = calibrate(FLAT, alpha=1.0)
        report = initial_curve_roundtrip(params, [1.0])
        assert report.rows[0].p_model == pytest.approx(0.9801986733067553, abs=1e-12)

    def test_zero_curve_prices_at_par(self):
        curve = ForwardCurve(np.array([0.0, 5.0]), np.array([0.0, 0.0]))
        params = calibrate(curve, alpha=1.0)
        report = initial_curve_roundtrip(params, [1.0, 2.0, 5.0])
        for row in report.rows:
            assert row.p_model == pytest.approx(1.0, abs=1e-14)

    def test_constant_mu_rejected(self):
        with pytest.raises(ValidationError, match="ForwardCurve"):
            initial_curve_roundtrip(RateParams(0.02, 1.0, 0.02), [1.0])

    @pytest.mark.parametrize("maturities, message", [
        (["1"], r"^maturities must be a finite real number, got '1'$"),
        ([True], r"^maturities must be a finite real number, got True$"),
        ([1.0, np.nan], r"^maturities must be a finite real number, got nan$"),
        (1.0, r"^maturities must be a sequence, got 1\.0$"),
        ([], r"^maturities must hold at least one maturity, got none$"),
        (np.array([]), r"^maturities must hold at least one maturity, got none$"),
    ], ids=["str", "bool", "nan", "scalar", "empty", "empty-array"])
    def test_maturities_take_the_number_rule(self, maturities, message):
        """``["1"]`` and ``[True]`` were once priced as maturity 1, and ``[]`` was a
        report of no rows with zero errors, a perfect round trip of nothing."""
        with pytest.raises(ValidationError, match=message):
            initial_curve_roundtrip(calibrate(FLAT, alpha=1.0), maturities)

    def test_forward_rates_recovered_between_knots(self):
        params = calibrate(HUMPED, alpha=1.0)
        # maturity grid aligned with knots so each interval is linear
        mats = np.union1d(HUMPED.maturities[1:], np.linspace(0.25, 9.75, 39))
        report = initial_curve_roundtrip(params, mats)
        assert report.max_forward_error <= 1e-9


class TestComposedDrift:
    def test_shifted_drift_is_mu_plus_lambda(self):
        """Structural check: the simulated shifted rate satisfies the
        recursion rebuilt in this test from mu, lam and the driver."""
        params = calibrate(HUMPED, alpha=1.0)
        grid = TimeGrid(2.0, 64)
        band = VolBand(0.008, 0.015)
        bundle = simulate_bundle(Constant(0.012), band, grid, params, seed=3, n_paths=5, dynamics="shifted")
        dt = grid.dt
        ea, eh = np.exp(-dt), np.exp(-dt / 2.0)
        w = -np.expm1(-dt)
        gl = dt * (0.5 - 0.5 / np.sqrt(3.0)), dt * (0.5 + 0.5 / np.sqrt(3.0))
        lam = lambda_path(bundle.qv, alpha=1.0, dt=dt)
        r = np.empty_like(bundle.r)
        r[:, 0] = params.r0
        db = np.diff(bundle.b, axis=1)
        for k in range(grid.n_steps):
            t_k = grid.times[k]
            m_k = 0.5 * dt * (
                np.exp(-(dt - gl[0])) * params.mu_at(t_k + gl[0])
                + np.exp(-(dt - gl[1])) * params.mu_at(t_k + gl[1])
            )
            r[:, k + 1] = ea * r[:, k] + m_k + w * lam[:, k] + eh * db[:, k]
        np.testing.assert_allclose(r, bundle.r, atol=1e-15)


def test_calibrated_price_negative_lambda_rejected():
    params = calibrate(FLAT, alpha=1.0)
    with pytest.raises(ValidationError):
        price_robust(params, 0.0, 1.0, 0.02, -0.1)


def test_curve_validation_direct_construction():
    with pytest.raises(ValidationError):
        ForwardCurve(np.array([0.0]), np.array([0.02]))
    with pytest.raises(ValidationError):
        ForwardCurve(np.array([0.5, 1.0]), np.array([0.02, 0.02]))

import io
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from robustrates import (
    AdaptedFeedback,
    Constant,
    MartingaleReport,
    McConfig,
    NumericalError,
    PiecewiseConstant,
    RandomSwitching,
    RateParams,
    TimeGrid,
    ValidationError,
    VolBand,
    a_classical,
    a_robust,
    b_factor,
    bang_bang,
    calibrate,
    default_scenario_family,
    estimate_sublinear,
    ingest_forward_curve,
    martingale_check,
    noarb_gap,
    price_classical_hw,
    price_robust,
    register_feedback_rule,
    simulate_bundle,
)
import robustrates.bonds
import robustrates.mc
import robustrates.paths
from robustrates.bonds import (
    CheckpointStat,
    _b_integrals,
    _ensure_extremes,
    _log_price,
    _ols_with_se,
)
from robustrates.mc import (
    CHUNK_PATHS,
    _chunks,
    _dedupe_ids,
    _mean_se,
    _pair_means,
    _sublinear,
    scenario_functional_values,
)
from robustrates.paths import _mu_step_integrals, _simulate
from robustrates.scenarios import _PATH_BLOCK

BAND = VolBand(0.005, 0.02)
PARAMS = RateParams(r0=0.02, alpha=1.0, mu=0.0)

# frozen oracle values (40-digit quadrature / exponentiation)
B_0_1 = 0.63212055882855768
A_CLASSICAL_001 = 8.4045620362289149e-06      # sigma=0.01, alpha=1, t=0, T=1
P_ROBUST_BASE = 0.98743716839138681           # exp(-B(0,1) * 0.02)
LAMBDA_EXPONENT = 0.0034549961550410906       # B(0,1)^2 * lam / 2 at lam=0.0172933...
LAMBDA_FIXTURE = 0.017293294335267746
P_HW_001 = 0.98744546740320017
CF_GAP = 3.1121719340557623e-05               # band [0.005, 0.02] closed-form spread
CF_UPPER = 0.98747036485714169
CF_LOWER = 0.98743924313780113
CF_GAP_WIDE = 7.2618870949810722e-05          # band widened to [0.005, 0.03]

# a calibrated curve with kinks at 1, 3 and 5, so its mu = alpha f + f' jumps there
KINKED_CURVE = ingest_forward_curve(io.StringIO("T,f\n0,0.02\n1,0.025\n3,0.03\n5,0.028\n10,0.03\n"))
KINKED = calibrate(KINKED_CURVE, 1.0)
KINKED_07 = calibrate(KINKED_CURVE, 0.7)  # the time-varying drift of the bitwise tests


def _discount(bundle):
    """Terminal pathwise discount ``exp(-int_0^T r ds)``."""
    return 1.0 / bundle.d[:, -1]


def _chunk_bundles(spec, band, cfg, params, dynamics):
    """One scenario's bundles chunk by chunk, simulated alone."""
    for ci, rng, m in _chunks(cfg):
        yield _simulate(spec, band, cfg.grid, rng, m, params=params, dynamics=dynamics,
                        antithetic=cfg.antithetic, switch_key=ci)


def _reference_values(functional, band, family, cfg, params=None, dynamics="original"):
    """Per-scenario functional samples, one scenario at a time from its own
    bundles, averaged over antithetic pairs chunk by chunk."""
    values = [
        np.concatenate([
            _pair_means(np.asarray(functional(bundle), dtype=float), cfg.antithetic)
            for bundle in _chunk_bundles(spec, band, cfg, params, dynamics)
        ])
        for spec in family
    ]
    return _dedupe_ids(family), values


class TestBFactor:
    def test_maturity_is_zero(self):
        assert b_factor(1.0, 1.0, 1.0) == 0.0

    def test_unit_case(self):
        assert b_factor(1.0, 0.0, 1.0) == pytest.approx(B_0_1, rel=1e-15)

    def test_small_alpha_limit(self):
        assert b_factor(1e-12, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValidationError):
            b_factor(1.0, 2.0, 1.0)

    @given(
        alpha=st.floats(min_value=1e-6, max_value=10.0),
        t=st.floats(min_value=0.0, max_value=5.0),
        dt=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_bounds_and_monotone(self, alpha, t, dt):
        T = t + dt
        b = b_factor(alpha, t, T)
        assert 0.0 <= b <= dt + 1e-12
        # decreasing in t for fixed T
        if dt > 1e-6:
            assert b_factor(alpha, t + dt / 2, T) <= b + 1e-15

    @pytest.mark.parametrize("alpha", [1e-12, 0.3, 1.0])
    def test_array_matches_scalar_calls(self, alpha):
        times = np.linspace(0.0, 2.0, 17)
        expected = [b_factor(alpha, float(t), 2.0) for t in times]
        assert b_factor(alpha, times, 2.0).tolist() == expected

    @pytest.mark.parametrize("alpha", [1e-12, 1e-10, 5e-9, 1e-8, 1e-6, 1e-3, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("x", [1e-12, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 5.0, 20.0])
    def test_matches_100_digit_values(self, alpha, x):
        """Within 1e-15 relative of ``(1 - exp(-x)) / alpha`` to 100 digits, ``x = alpha
        (T - t)``, at every speed: the small-``alpha`` series holds only where ``x`` is small."""
        T = x / alpha
        for t in (0.0, T / 3):
            with localcontext() as ctx:
                ctx.prec = 100
                a = Decimal(alpha)
                exact = float((1 - (-a * (Decimal(T) - Decimal(t))).exp()) / a)
            assert b_factor(alpha, t, T) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("bad", [-1e-3, 2.0 + 1e-9, np.nan])
    def test_array_with_a_time_outside_rejected(self, bad):
        with pytest.raises(ValidationError):
            b_factor(1.0, np.array([0.0, bad, 1.0]), 2.0)

    def test_string_maturity_rejected(self):
        """Once a bare ``UFuncTypeError`` from ``maturity - t``."""
        with pytest.raises(ValidationError, match="^maturity must be a finite real number"):
            b_factor(1.0, 0.0, "1")

    @pytest.mark.parametrize("t", [True, "0", None], ids=["bool", "str", "none"])
    def test_scalar_time_follows_the_number_rule(self, t):
        with pytest.raises(ValidationError, match="^t must be a finite real number"):
            b_factor(1.0, t, 2.0)

    @pytest.mark.parametrize("times", [np.array([False, True]), np.array(["0", "0.5"])],
                             ids=["bool", "str"])
    def test_time_array_of_a_non_real_dtype_rejected(self, times):
        with pytest.raises(ValidationError, match="^t must be an array of real numbers"):
            b_factor(1.0, times, 2.0)

    def test_integer_time_array_accepted(self):
        assert b_factor(1.0, np.arange(3), 2).tolist() == b_factor(1.0, np.arange(3.0), 2.0).tolist()


@pytest.mark.parametrize("call", [
    lambda t, maturity: b_factor(1.0, t, maturity),
    lambda t, maturity: b_factor(1e-9, t, maturity),
    lambda t, maturity: a_robust(PARAMS, t, maturity),
    lambda t, maturity: a_robust(KINKED, t, maturity),
    lambda t, maturity: _b_integrals(1.0, t, maturity),
    lambda t, maturity: KINKED_CURVE.excess_integral(t, maturity),
], ids=["b_factor", "b_factor_series", "a_robust", "a_robust_curve", "b_integrals",
        "excess_integral"])
def test_empty_time_array_gives_empty_results(call):
    """An empty array of times gives empty results, as ``RateParams.mu_at`` and
    ``ForwardCurve.value`` do; the interval check once raised numpy's bare
    ``ValueError: zero-size array to reduction operation minimum`` on it.  A negative
    maturity is still rejected, with the error any other ``t`` gets."""
    got = call(np.array([]), 1.0)
    for x in got if isinstance(got, tuple) else (got,):
        assert (x.shape, x.dtype) == ((0,), np.float64)
    for t in (np.array([]), np.array([0.0])):
        with pytest.raises(ValidationError, match="need 0 <= t <= T < inf"):
            call(t, -1.0)


class TestIntercepts:
    def test_a_robust_zero_mu(self):
        assert a_robust(PARAMS, 0.0, 1.0) == 0.0
        assert a_robust(PARAMS, 0.3, 0.3) == 0.0

    def test_a_robust_constant_mu_closed_form(self):
        params = RateParams(r0=0.02, alpha=1.0, mu=0.02)
        # -c ((T-t) - B(t,T)) / alpha
        assert a_robust(params, 0.0, 1.0) == pytest.approx(-0.0073575888234288464, rel=1e-12)

    def test_a_robust_against_adaptive_quadrature(self):
        # -int mu B across the kink of mu at 1, quadrature split there
        f = lambda s: KINKED.mu_at(s) * b_factor(KINKED.alpha, s, 3.0)
        ref, _ = quad(f, 0.5, 3.0, points=[1.0], epsabs=0.0, epsrel=1e-13)
        assert a_robust(KINKED, 0.5, 3.0) == pytest.approx(-ref, rel=1e-14)

    def test_a_classical_reduces_at_zero_sigma(self):
        params = RateParams(r0=0.02, alpha=1.0, mu=0.017)
        assert a_classical(params, 0.0, 0.0, 1.0) == pytest.approx(
            a_robust(params, 0.0, 1.0), rel=1e-14
        )

    def test_a_classical_oracle_value(self):
        assert a_classical(PARAMS, 0.01, 0.0, 1.0) == pytest.approx(A_CLASSICAL_001, rel=1e-12)

    def test_a_classical_additive_in_variance(self):
        # the sigma part scales exactly with sigma^2 on shared mu
        params = RateParams(r0=0.02, alpha=1.0, mu=0.01)
        base = a_robust(params, 0.2, 1.7)
        d1 = a_classical(params, 0.01, 0.2, 1.7) - base
        d2 = a_classical(params, 0.03, 0.2, 1.7) - base
        assert d2 == pytest.approx(9.0 * d1, rel=1e-12)

    def test_sigma_negative_rejected(self):
        with pytest.raises(ValidationError):
            a_classical(PARAMS, -0.1, 0.0, 1.0)


def _decimal_closed_forms(alpha, t, maturity):
    """``int_t^T B``, ``V(t,T)``, ``A(t,T)`` for ``mu = 0.03`` and ``A(t,T)`` for the
    kinked curve, in ``decimal`` arithmetic from the textbook forms ``(tau - B) / alpha``,
    ``(tau - B) / alpha^2 - B^2 / (2 alpha)``, ``-mu int B`` and ``-int_t^T f + f(t) B``.
    The 100-digit working precision keeps more than 40 digits through the cancellation
    of ``tau - B`` at ``alpha tau = 1e-18``."""
    with localcontext() as ctx:
        ctx.prec = 100
        a, t, T = Decimal(alpha), Decimal(t), Decimal(maturity)
        b = (1 - (-a * (T - t)).exp()) / a
        int_b = (T - t - b) / a
        v = int_b / a - b * b / (2 * a)
        knots = [(Decimal(m), Decimal(f))
                 for m, f in zip(KINKED_CURVE.maturities, KINKED_CURVE.forwards)]

        def f(s):  # the curve's linear interpolation at s
            (m0, f0), (m1, f1) = next(
                seg for seg in zip(knots, knots[1:]) if seg[0][0] <= s <= seg[1][0])
            return f0 + (f1 - f0) * (s - m0) / (m1 - m0)

        integral = sum(
            ((hi - lo) * (f(lo) + f(hi)) / 2 for (m0, _), (m1, _) in zip(knots, knots[1:])
             for lo, hi in [(max(m0, t), min(m1, T))] if lo < hi),
            Decimal(0),
        )
        return int_b, v, -Decimal("0.03") * int_b, -integral + f(t) * b


def _times_up_to(maturity):
    """Times ``t <= T`` with ``T - t`` from 0 to 10, the kinks at 1 and 3 among them."""
    taus = (0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 1.0, 2.5, 9.999, 10.0)
    kinks = {t for t in (0.0, 1.0, 3.0) if t <= maturity}
    return sorted({maturity - tau for tau in taus if tau <= maturity} | kinks)


class TestClosedForms:
    """``A(t,T)`` and ``V(t,T) = int B^2`` are closed forms: exact to rounding for both
    drift forms, over six decades of ``alpha``, and a vector call is the scalar calls."""

    @pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.0])
    def test_match_decimal_closed_forms(self, alpha):
        const = RateParams(r0=0.02, alpha=alpha, mu=0.03)
        kinked = calibrate(KINKED_CURVE, alpha)
        for maturity in (0.3, 1.0, 2.5, 5.0, 7.3, 10.0):
            for t in _times_up_to(maturity):
                int_b, v = _b_integrals(alpha, t, maturity)
                got = (int_b, v, a_robust(const, t, maturity), a_robust(kinked, t, maturity))
                for name, g, e in zip(("int B", "V", "A const", "A kinked"), got,
                                      _decimal_closed_forms(alpha, t, maturity)):
                    assert abs(Decimal(g) - e) <= Decimal("1e-14") * abs(e) + Decimal("1e-16"), (
                        name, t, maturity, g, e)

    @pytest.mark.parametrize("alpha", [1e-9, 1.0, 5.0])
    @pytest.mark.parametrize("maturity", [0.0, 1.0, 3.0, 7.3])
    def test_zero_at_maturity(self, alpha, maturity):
        assert _b_integrals(alpha, maturity, maturity) == (0.0, 0.0)
        kinked = calibrate(KINKED_CURVE, alpha)
        for params in (RateParams(r0=0.02, alpha=alpha, mu=0.03), kinked):
            assert a_robust(params, maturity, maturity) == 0.0
            assert a_classical(params, 0.02, maturity, maturity) == 0.0

    @pytest.mark.parametrize("params", [RateParams(r0=0.02, alpha=1.0, mu=0.03), KINKED,
                                        calibrate(KINKED_CURVE, 1e-9)],
                             ids=["constant", "kinked", "kinked-tiny-alpha"])
    @pytest.mark.parametrize("n_steps", [1, 7, 512])
    def test_array_equals_scalar(self, params, n_steps):
        maturity = 5.0
        # the grid, then on, one ulp either side of and near each kink, and t = T
        near = [x for c in (1.0, 3.0) for x in (c, np.nextafter(c, 0), np.nextafter(c, 9), c + 1e-3)]
        times = np.concatenate([np.linspace(0.0, maturity, n_steps + 1), near, [maturity]])
        columns = {
            "A": lambda t: a_robust(params, t, maturity),
            "int B": lambda t: _b_integrals(params.alpha, t, maturity)[0],
            "V": lambda t: _b_integrals(params.alpha, t, maturity)[1],
        }
        for name, fn in columns.items():
            scalar = [fn(float(t)) for t in times]
            assert all(type(v) is float for v in scalar), name
            assert fn(times).tolist() == scalar, name
            strided = np.repeat(times, 2)[::2]
            assert not strided.flags.c_contiguous
            assert fn(strided).tolist() == scalar, name


def test_import_loads_no_scipy():
    src = str(Path(robustrates.bonds.__file__).resolve().parents[1])
    code = "import sys, robustrates; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src}).stdout
    assert out == "[]\n"


class TestPrices:
    def test_par_at_maturity(self):
        assert price_robust(PARAMS, 1.0, 1.0, 0.07, 0.3) == 1.0
        assert price_classical_hw(PARAMS, 0.01, 2.0, 2.0, -0.01) == 1.0

    def test_robust_base_oracle(self):
        p = price_robust(PARAMS, 0.0, 1.0, 0.02, 0.0)
        assert p == pytest.approx(P_ROBUST_BASE, rel=1e-14)

    def test_robust_lambda_discount(self):
        p0 = price_robust(PARAMS, 0.0, 1.0, 0.02, 0.0)
        p1 = price_robust(PARAMS, 0.0, 1.0, 0.02, LAMBDA_FIXTURE)
        assert p1 / p0 == pytest.approx(np.exp(-LAMBDA_EXPONENT), rel=1e-13)

    def test_classical_oracle(self):
        p = price_classical_hw(PARAMS, 0.01, 0.0, 1.0, 0.02)
        assert p == pytest.approx(P_HW_001, rel=1e-14)

    def test_classical_monotone_in_sigma(self):
        prices = [price_classical_hw(PARAMS, s, 0.0, 1.0, 0.02) for s in np.linspace(0.0, 0.05, 6)]
        assert np.all(np.diff(prices) > 0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            price_robust(PARAMS, 0.0, 1.0, 0.02, -1e-9)

    def test_non_finite_rate_rejected(self):
        """Once a price of NaN."""
        with pytest.raises(ValidationError, match="^r_t must be a finite real number, got nan"):
            price_robust(PARAMS, 0.0, 1.0, np.nan, 0.0)

    def test_bool_rate_rejected(self):
        """Once a price at ``r_t = 1``."""
        with pytest.raises(ValidationError, match="^r_t must be a finite real number, got True"):
            price_classical_hw(PARAMS, 0.01, 0.0, 1.0, True)

    def test_string_rate_rejected(self):
        """Once a bare ``TypeError``."""
        with pytest.raises(ValidationError, match="^r_t must be a finite real number, got '0.02'"):
            price_robust(PARAMS, 0.0, 1.0, "0.02", 0.0)

    def test_bool_maturity_rejected(self):
        """Once ``A(0, 1)`` of ``-0.0``."""
        with pytest.raises(ValidationError, match="^maturity must be a finite real number"):
            a_robust(PARAMS, 0.0, True)

    def test_strictly_decreasing_in_state(self):
        p = lambda r, lam: price_robust(PARAMS, 0.25, 2.0, r, lam)
        assert p(0.03, 0.0) < p(0.02, 0.0)
        assert p(0.02, 1e-3) < p(0.02, 0.0)

    def test_log_price_affine_in_state(self):
        """Reconstruct log P from three affinely independent (r, lam) probes
        and verify a fourth point exactly: coefficients are (-B, -B^2/2)."""
        t, T = 0.5, 3.0
        pts = [(0.00, 0.0), (0.04, 0.0), (0.00, 0.02)]
        logs = [np.log(price_robust(PARAMS, t, T, r, lam)) for r, lam in pts]
        const = logs[0]
        coef_r = (logs[1] - logs[0]) / 0.04
        coef_lam = (logs[2] - logs[0]) / 0.02
        b = b_factor(1.0, t, T)
        assert coef_r == pytest.approx(-b, rel=1e-10)
        assert coef_lam == pytest.approx(-0.5 * b * b, rel=1e-10)
        probe = np.log(price_robust(PARAMS, t, T, 0.013, 0.007))
        assert probe == pytest.approx(const + coef_r * 0.013 + coef_lam * 0.007, rel=1e-12)


class TestNoArbGap:
    CFG = McConfig(n_paths=20_000, n_steps=128, horizon=1.0, base_seed=31, antithetic=True)

    def test_degenerate_band_has_no_gap(self):
        band = VolBand(0.01, 0.01)
        report = noarb_gap(PARAMS, band, 1.0, [Constant(0.01)], self.CFG)
        assert report.gap == 0.0
        assert report.closed_form_gap == pytest.approx(0.0, abs=1e-15)
        assert not report.significant

    def test_gap_matches_closed_form(self):
        report = noarb_gap(PARAMS, BAND, 1.0, [Constant(0.0125)], self.CFG)
        assert report.closed_form_gap == pytest.approx(CF_GAP, rel=1e-12)
        assert report.closed_form_upper == pytest.approx(CF_UPPER, rel=1e-13)
        assert report.closed_form_lower == pytest.approx(CF_LOWER, rel=1e-13)
        assert report.significant
        assert abs(report.gap - report.closed_form_gap) <= 3 * report.gap_se
        assert abs(report.upper - CF_UPPER) <= 3 * report.upper_se
        assert abs(report.lower - CF_LOWER) <= 3 * report.lower_se
        # extremes injected even though the family had neither
        assert report.argmax_scenario == "const[0.02]"
        assert report.argmin_scenario == "const[0.005]"

    def test_gap_monotone_in_band_width(self):
        wide = VolBand(0.005, 0.03)
        narrow = noarb_gap(PARAMS, BAND, 1.0, [], self.CFG)
        wider = noarb_gap(PARAMS, wide, 1.0, [], self.CFG)
        assert wider.closed_form_gap == pytest.approx(CF_GAP_WIDE, rel=1e-12)
        assert wider.closed_form_gap > narrow.closed_form_gap
        assert wider.gap > narrow.gap


_MEMBERS = st.one_of(
    st.sampled_from([0.005, 0.0125, 0.02]).map(Constant),
    st.builds(
        lambda t, v0, v1: PiecewiseConstant((t,), (v0, v1)),
        st.floats(0.05, 0.95), st.sampled_from([0.005, 0.02]), st.sampled_from([0.01, 0.02]),
    ),
    st.builds(RandomSwitching, st.floats(0.0, 8.0), st.integers(0, 3)),
    st.sampled_from(["driver_sign", "qv_chase"]).map(AdaptedFeedback),
)


def _unrolled_integrals(spec, band, cfg, params):
    """One member's ``int r`` at ``T``, one array of paths per chunk: the rate
    recursion's trapezoid written out as ``D + sum_k sigma_k (w_k z_k)`` in a column
    loop.  The weights ``w_k = c_k e^{-alpha dt/2} sqrt(dt)``, from ``c_{n-1} = dt/2`` and
    ``c_{k-1} = dt + e^{-alpha dt} c_k``, and ``D``, the trapezoid of the noise-free rate
    path, are formed here; the normals are redrawn from each chunk's seed, and ``sigma``
    is the member's own bundle's."""
    n, dt = cfg.grid.n_steps, cfg.grid.dt
    ea = float(np.exp(-params.alpha * dt))
    ehs = float(np.exp(-params.alpha * dt / 2.0) * np.sqrt(dt))
    w, c = np.empty(n), dt / 2.0
    for k in range(n - 1, -1, -1):
        w[k] = c * ehs
        c = dt + ea * c
    r, d_int = float(params.r0), 0.0
    for m_k in _mu_step_integrals(params, cfg.grid):
        r_next = ea * r + m_k
        d_int += (r + r_next) * (dt / 2.0)
        r = r_next
    integrals = []
    bundles = _chunk_bundles(spec, band, cfg, params, "original")
    for (_, rng, m), bundle in zip(_chunks(cfg), bundles):
        z = rng.standard_normal((m // 2 if cfg.antithetic else m, n))
        z = np.vstack([z, -z]) if cfg.antithetic else z
        acc = np.zeros(m)
        for k in range(n):
            acc += bundle.sigma[:, k] * (z[:, k] * w[k])
        integrals.append(acc + d_int)
    return integrals


class TestNoArbGapStreaming:
    """``noarb_gap`` steps all its members together on one shared draw and reads
    ``int r`` at ``T`` as one weighted sum of the normals: that sum, and so every
    sample, must equal the unrolled sum's column loop bit for bit (so the statistics
    do too; a last-bit slip in the sum can round away in a sample), and every sample lie
    within 8 ulp of the one-scenario-at-a-time bundles' ``1 / D_T``, the trapezoid of
    their recorded rate paths."""

    @staticmethod
    def check(params, maturity, family, cfg):
        """``noarb_gap``'s ``int r`` at ``T`` and samples against both references; returns
        the ``(paths, steps, antithetic)`` of each draw ``noarb_gap`` made."""
        samples, sample = [], robustrates.bonds._sample
        draws, draw = [], robustrates.paths._draw_normals
        integrals, steps = [], robustrates.mc._steps

        def spy(*a, **kw):  # each pass's int r at T, before the reducer takes exp in place
            for s in steps(*a, **kw):
                if s.k == a[2].n_steps:
                    integrals.extend(zip(range(s.rows.start, s.rows.stop), s.integral.copy()))
                yield s

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robustrates.mc, "_steps", spy)
            mp.setattr(robustrates.bonds, "_sample",
                       lambda *a, **kw: samples.append(sample(*a, **kw)) or samples[-1])
            mp.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a[1:]) or draw(*a))
            rep = noarb_gap(params, BAND, maturity, family, cfg)
        cfg, family = replace(cfg, horizon=maturity), _ensure_extremes(BAND, family)
        ids = _dedupe_ids(family)
        unrolled = [_unrolled_integrals(spec, BAND, cfg, params) for spec in family]
        values = [np.concatenate([_pair_means(1.0 / np.exp(x), cfg.antithetic) for x in chunks])
                  for chunks in unrolled]
        _, bundle_values = _reference_values(_discount, BAND, family, cfg, params)
        ((got_ids, got),) = samples
        assert got_ids == ids
        for j, (sid, g, v, b) in enumerate(zip(ids, got, values, bundle_values)):
            sums = [x for i, x in integrals if i == j]  # the member's, chunk by chunk
            assert np.concatenate(sums).tobytes() == np.concatenate(unrolled[j]).tobytes(), sid
            assert g.tobytes() == v.tobytes(), sid
            assert np.all(np.abs(g - b) <= 8 * np.spacing(b)), (sid, np.max(np.abs(g - b)))
        est = _sublinear(ids, values)
        up, lo = ids.index(est.argmax_scenario), ids.index(est.argmin_scenario)
        gap_se = 0.0 if up == lo else float(_mean_se(values[up] - values[lo])[1])
        assert rep.per_scenario == est.per_scenario
        assert rep.gap_se == gap_se
        return draws

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.lists(_MEMBERS, min_size=1, max_size=5),
        n_dup=st.integers(0, 2),
        antithetic=st.booleans(),
        size=st.sampled_from(["two", "below", "above"]),
        n_steps=st.integers(1, 6),
        kinked_mu=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_bundle_values(
        self, family, n_dup, antithetic, size, n_steps, kinked_mu, seed
    ):
        family = family + family[:n_dup]  # duplicates get deduplicated ids
        delta = 2 if antithetic else 1
        n_paths = {"two": 2, "below": CHUNK_PATHS - delta, "above": CHUNK_PATHS + delta}[size]
        params = KINKED_07 if kinked_mu else RateParams(r0=0.02, alpha=0.7, mu=0.03)
        cfg = McConfig(n_paths=n_paths, n_steps=n_steps, horizon=1.0, base_seed=seed, antithetic=antithetic)
        draws = self.check(params, 1.5, family, cfg)
        assert draws == [(m, n_steps, antithetic) for _, _, m in _chunks(cfg)]

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_long_grid_with_a_partial_path_block(self, antithetic):
        """256 steps over ``3 * _PATH_BLOCK + 1`` drawn paths, so a pass of tables sums
        three whole blocks and one of a single path: the default family (12 constants, 2
        bang-bang and 6 switching members, one pass) and a seventh switching member (a
        pass of its own) match the column loop bit for bit."""
        family = default_scenario_family(BAND, n_constant=12, n_switching=6, seed=0)
        width = 3 * _PATH_BLOCK + 1
        cfg = McConfig(n_paths=2 * width if antithetic else width, n_steps=256, horizon=1.0,
                       base_seed=12, antithetic=antithetic)
        draws = self.check(PARAMS, 1.0, family + [RandomSwitching(9.0, 6)], cfg)
        assert draws == [(cfg.n_paths, 256, antithetic)]

    def test_permuted_family_permutes_per_scenario(self):
        family = [
            Constant(0.005), Constant(0.02), Constant(0.0125), bang_bang(BAND, 1.0, 2),
            RandomSwitching(3.0, 1), AdaptedFeedback("driver_sign"),
        ]
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=16, horizon=1.0, base_seed=8, antithetic=True)
        order = [4, 2, 5, 0, 3, 1]
        rep = noarb_gap(PARAMS, BAND, 1.0, family, cfg)
        perm = noarb_gap(PARAMS, BAND, 1.0, [family[i] for i in order], cfg)
        assert perm.per_scenario == tuple(rep.per_scenario[i] for i in order)
        assert replace(perm, per_scenario=()) == replace(rep, per_scenario=())

    def test_more_switching_members_than_one_pass_holds(self):
        # the 17 members, the feedback one among them, step in passes over
        # one draw per chunk
        n_pass = robustrates.paths._TABLES_PER_PASS
        family = [RandomSwitching(1.0 + j, j) for j in range(2 * n_pass + 1)]
        family[3:3] = [Constant(0.01), AdaptedFeedback("qv_chase")]
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=5, antithetic=True)
        draws = self.check(PARAMS, 1.0, family, cfg)
        assert draws == [(CHUNK_PATHS, 8, True), (2, 8, True)]

    def test_non_finite_discount_names_scenario_and_path(self):
        # the closed forms stay finite (B(0, 1) * 1120 is about 708), but the
        # 4-step trapezoid integral of r, about 711.6, overflows 1 / D_T
        params = RateParams(r0=-1120.0, alpha=1.0)
        cfg = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=0)
        with np.errstate(divide="ignore", over="ignore"), pytest.raises(
            NumericalError, match=r"^non-finite functional value in scenario 'const\[0.01\]' at path 0$"
        ):
            noarb_gap(params, BAND, 1.0, [Constant(0.01)], cfg)


def _reads_rate(view, params):
    return np.where(view.r >= 0.02, view.band.sigma_hi, view.band.sigma_lo)


register_feedback_rule("reads_rate", _reads_rate)


def _every_field(bundle):
    """A functional that reads every array of the bundle, reduced along the
    path so a different layout or summation order shows."""
    x = bundle.b[:, -1] ** 2 + bundle.qv[:, -1] + bundle.sigma.sum(axis=1)
    if bundle.r is not None:
        x = x + bundle.r.sum(axis=1) + bundle.lam[:, -1] + _discount(bundle)
    return x


class TestFunctionalStreaming:
    """``scenario_functional_values`` steps every member on each chunk's one
    draw and hands each its bundle; samples and statistics must equal those of
    the one-scenario-at-a-time bundles."""

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.lists(
            st.one_of(_MEMBERS, st.just(AdaptedFeedback("reads_rate"))), min_size=1, max_size=5
        ),
        n_dup=st.integers(0, 2),
        antithetic=st.booleans(),
        above=st.booleans(),
        rate=st.sampled_from([None, "constant", "kinked"]),
        dynamics=st.sampled_from(["original", "shifted"]),
        n_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_bundle_values(
        self, family, n_dup, antithetic, above, rate, dynamics, n_steps, seed
    ):
        family = family + family[:n_dup]  # duplicates get deduplicated ids
        if AdaptedFeedback("reads_rate") in family:
            rate = rate or "constant"  # a rule that reads r needs the rate
        params = {None: None, "constant": RateParams(r0=0.02, alpha=0.7, mu=0.03), "kinked": KINKED_07}[rate]
        n_paths = CHUNK_PATHS + 2 if above else 2
        cfg = McConfig(n_paths=n_paths, n_steps=n_steps, horizon=1.3, base_seed=seed,
                       antithetic=antithetic)
        seen = []

        def functional(bundle):
            seen.append((bundle.scenario_id, bundle.n_paths))
            return _every_field(bundle)

        args = (BAND, family, cfg, params, dynamics)
        ids, values = scenario_functional_values(functional, *args)
        batched_seen, seen[:] = sorted(seen), []
        ref_ids, ref_values = _reference_values(functional, *args)
        assert sorted(seen) == batched_seen
        assert ids == ref_ids
        assert [(v.shape, v.tobytes()) for v in values] == [
            (v.shape, v.tobytes()) for v in ref_values
        ]
        assert estimate_sublinear(_every_field, *args) == _sublinear(ref_ids, ref_values)

    @pytest.mark.parametrize("params", [None, PARAMS])
    def test_one_draw_per_chunk_for_the_whole_family(self, monkeypatch, params):
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=2, antithetic=True)
        draws = []
        draw = robustrates.paths._draw_normals
        monkeypatch.setattr(
            robustrates.paths, "_draw_normals", lambda *a: draws.append(a[1:]) or draw(*a)
        )
        estimate_sublinear(_every_field, BAND, TestMartingaleStreaming.FAMILY, cfg, params)
        # nine members, the feedback one among them, in passes over one draw per chunk
        assert draws == [(CHUNK_PATHS, 8, True), (2, 8, True)]


class TestMartingale:
    CFG = McConfig(n_paths=20_000, n_steps=128, horizon=1.0, base_seed=77, antithetic=True)
    SCEN = [Constant(BAND.sigma_lo), Constant(BAND.sigma_hi), bang_bang(BAND, 1.0, 2)]

    def test_shifted_dynamics_is_driftless(self):
        reports = martingale_check(PARAMS, BAND, self.SCEN, 1.0, [0.25, 0.5, 0.75, 1.0], self.CFG)
        for rep in reports:
            assert rep.all_pass, rep
            assert rep.drift_indistinguishable
            assert rep.terminal_max_abs_error <= 5.0 * rep.dt

    def test_time_zero_checkpoint_exact(self):
        reports = martingale_check(PARAMS, BAND, [Constant(0.02)], 1.0, [0.0, 0.5], self.CFG)
        row0 = reports[0].checkpoints[0]
        # identical by construction up to mean-accumulation rounding
        assert row0.mean == pytest.approx(row0.reference, rel=1e-13)
        assert row0.se <= 1e-8
        assert row0.passed

    @pytest.mark.parametrize("n_paths", [2_000, 2_002, 100_000])
    def test_time_zero_row_is_p0_with_zero_se(self, n_paths):
        """Every path starts at p0, so the t = 0 row is p0 with se 0 at any
        sample count.  Summed uncentred, a mean of many equal values drifts
        by a few ulp, and a two-pass se of ~0 then fails the row."""
        cfg = McConfig(n_paths=n_paths, n_steps=16, horizon=1.0, base_seed=3, antithetic=True)
        checkpoints = [0.0, 0.25, 0.5, 0.75, 1.0]
        row = martingale_check(PARAMS, BAND, [Constant(0.02)], 1.0, checkpoints, cfg)[0].checkpoints[0]
        assert (row.mean, row.se) == (row.reference, 0.0)
        assert row.passed

    def test_degenerate_band_classical_martingale(self):
        band = VolBand(0.01, 0.01)
        reports = martingale_check(PARAMS, band, [Constant(0.01)], 1.0, [0.25, 0.5, 1.0], self.CFG)
        assert reports[0].all_pass

    def test_unshifted_dynamics_fails_at_band_edges(self):
        """Power check: without the drift shift the discounted price is not
        a martingale and the test must detect it at both extremes."""
        reports = martingale_check(
            PARAMS, BAND, [Constant(BAND.sigma_lo), Constant(BAND.sigma_hi)],
            1.0, [0.25, 0.5, 0.75, 1.0], self.CFG, dynamics="original",
        )
        for rep in reports:
            assert not rep.all_pass, rep.scenario_id

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError, match="scenario family is empty"):
            martingale_check(PARAMS, BAND, [], 1.0, [0.5], self.CFG)

    def test_off_grid_checkpoint_rejected(self):
        with pytest.raises(ValidationError):
            martingale_check(PARAMS, BAND, self.SCEN, 1.0, [0.3], self.CFG)

    def test_unknown_dynamics_rejected_before_drawing(self, monkeypatch):
        draws = []
        for module in (robustrates.paths, robustrates.bonds):
            monkeypatch.setattr(module, "_draw_normals", lambda *a: draws.append(a), raising=False)
        with pytest.raises(ValidationError, match="unknown dynamics 'bogus'"):
            martingale_check(PARAMS, BAND, [Constant(0.01), Constant(0.02)], 1.0, [0.5],
                             self.CFG, dynamics="bogus")
        assert draws == []

    def test_member_outside_band_rejected(self):
        with pytest.raises(ValidationError, match=r"constant volatility 0.5 outside band"):
            martingale_check(PARAMS, BAND, [Constant(0.01), Constant(0.5)], 1.0, [0.5], self.CFG)

    def test_checkpoint_se_is_two_pass_on_tiny_band(self):
        """Pair-mean discounted prices spread by about 1e-8 around 0.98 at
        sigma = 5e-4, where a one-pass ``E[x^2] - E[x]^2`` variance loses
        most of its digits.  The checkpoint se must equal the estimator's
        two-pass se on the same samples."""
        sigma = 5e-4
        band = VolBand(sigma, sigma)
        cfg = McConfig(n_paths=16_384, n_steps=128, horizon=1.0, base_seed=0, antithetic=True)
        times = cfg.grid.times
        k = cfg.grid.index_of(0.5)
        b_vec = b_factor(PARAMS.alpha, times, 1.0)
        a_vec = np.array([a_robust(PARAMS, float(t), 1.0) for t in times])

        def discounted_price(bundle):
            # the expression martingale_check evaluates, column k
            log_p = a_vec - b_vec * bundle.r - 0.5 * b_vec**2 * bundle.lam - np.log(bundle.d)
            return np.exp(log_p)[:, k]

        row = martingale_check(PARAMS, band, [Constant(sigma)], 1.0, [0.5], cfg)[0].checkpoints[0]
        est = estimate_sublinear(
            discounted_price, band, [Constant(sigma)], cfg, params=PARAMS, dynamics="shifted"
        )
        assert row.se == pytest.approx(est.upper_se, rel=1e-9, abs=0.0)


def _bundle_martingale_reports(params, band, scenarios, maturity, checkpoints, cfg, dynamics):
    """``martingale_check`` as it was computed from each scenario's full
    bundles, one scenario at a time."""
    cfg = replace(cfg, horizon=maturity)
    grid = cfg.grid
    cp = sorted(float(t) for t in checkpoints)
    cp_idx = [grid.index_of(t) for t in cp]
    b_vec = b_factor(params.alpha, grid.times, maturity)
    a_vec = np.array([a_robust(params, float(t), maturity) for t in grid.times])
    p0 = float(np.exp(_log_price(a_vec[0], b_vec[0], params.r0, 0.0)))
    reports = []
    for spec, sid in zip(scenarios, _dedupe_ids(scenarios)):
        cp_vals, path_sums, terminal_err = [], np.zeros(grid.n_steps + 1), 0.0
        for bundle in _chunk_bundles(spec, band, cfg, params, dynamics):
            # int r by the trapezoid rule, summed along the path from 0
            integral = np.zeros(bundle.r.shape)
            steps = (bundle.r[:, 1:] + bundle.r[:, :-1]) * (grid.dt / 2.0)
            np.cumsum(steps, axis=1, out=integral[:, 1:])
            p_tilde = np.exp(_log_price(a_vec, b_vec, bundle.r, bundle.lam) - integral)
            cp_vals.append(_pair_means(p_tilde[:, cp_idx] - p0, cfg.antithetic))
            path_sums += np.ascontiguousarray(p_tilde.T).sum(axis=1)  # each step's path sum
            # the log increments summed by parts, sum_k wb_k B_k + wq_k qv_k, in time order
            wb, wq = np.diff(b_vec), 0.5 * np.diff(b_vec * b_vec)
            log_b = np.cumsum(wb * bundle.b[:, 1:], axis=1)[:, -1]
            log_qv = np.cumsum(wq * bundle.qv[:, 1:], axis=1)[:, -1]
            p_sde = p0 * np.exp(log_b + log_qv)
            err = np.abs(p_sde * np.exp(integral[:, -1]) - 1.0)
            terminal_err = max(terminal_err, float(np.max(err)))
        means, ses = _mean_se(np.concatenate(cp_vals))
        rows = tuple(
            CheckpointStat(t=t, mean=p0 + float(mean), se=float(se), reference=p0)
            for t, mean, se in zip(cp, means, ses)
        )
        fit = _ols_with_se(grid.step_times, np.diff(path_sums) / cfg.n_paths)
        reports.append(MartingaleReport(sid, maturity, rows, *fit, terminal_err, grid.dt))
    return reports


def _split_martingale_reports(params, band, scenarios, maturity, checkpoints, cfg, dynamics):
    """``martingale_check``'s split arithmetic as a column loop, one scenario at a time:
    ``log p~ = M - x``, ``x = B r + int r``.  A deterministic member's ``r`` and ``int r``
    are its noise parts ``rho`` and ``iota`` (``rho' = ea rho + eh (sigma sq) z``, the
    trapezoid of ``rho``) on normals redrawn from each chunk's seed, and its ``M_k`` is
    ``A - B^2 lam / 2 - B r - int r`` of the noise-free recursions, formed here on floats.
    Any other member's ``M`` is ``A - B^2 lam / 2`` and ``x`` its bundle's rate and
    trapezoid.  A deterministic member's antithetic first halves and mates are summed
    apart, as its half-width pass holds them; any other member's chunk as one row."""
    cfg = replace(cfg, horizon=maturity)
    grid, n, dt = cfg.grid, cfg.n_steps, cfg.grid.dt
    cp = sorted(float(t) for t in checkpoints)
    cp_idx = [grid.index_of(t) for t in cp]
    b_vec = b_factor(params.alpha, grid.times, maturity)
    a_vec = a_robust(params, grid.times, maturity)
    c_vec, wb, wq = 0.5 * b_vec * b_vec, np.diff(b_vec), 0.5 * np.diff(b_vec * b_vec)
    p0 = float(np.exp(_log_price(a_vec[0], b_vec[0], params.r0, 0.0)))
    a = params.alpha
    ea, eh, e2 = np.exp(-a * dt), np.exp(-a * dt / 2.0), np.exp(-2.0 * a * dt)
    w_lam, sq, m_det = b_factor(a, 0.0, dt), np.sqrt(dt), _mu_step_integrals(params, grid)
    reports = []
    for spec, sid in zip(scenarios, _dedupe_ids(scenarios)):
        tab = None if spec.is_adaptive else spec.sigma_table(grid.step_times, dt, 1, 0)
        det = tab is not None and tab.ndim == 1
        if det:  # the noise-free lam, r, int r and qv, and M, on floats
            lam, r, i, q = [0.0], [float(params.r0)], [0.0], [0.0]
            for k in range(n):
                dq = float(tab[k]) * float(tab[k]) * dt
                lam.append(lam[k] * e2 + dq)
                r.append(r[k] * ea + ((lam[k] * w_lam + m_det[k]) if dynamics == "shifted" else m_det[k]))
                i.append(i[k] + (r[k] + r[k + 1]) * (dt / 2.0))
                q.append(q[k] + dq)
            m_tab = [a_vec[k] - c_vec[k] * lam[k] - b_vec[k] * r[k] - i[k] for k in range(n + 1)]
            log_q = 0.0
            for k in range(1, n + 1):
                log_q += q[k] * wq[k - 1]
        cp_vals, path_sums, terminal_err = [], np.zeros(n + 1), 0.0
        for (_, rng, m), bundle in zip(_chunks(cfg), _chunk_bundles(spec, band, cfg, params, dynamics)):
            if det:
                z = rng.standard_normal((m // 2 if cfg.antithetic else m, n))
                z = np.vstack([z, -z]) if cfg.antithetic else z
                rho, iota = np.zeros((m, n + 1)), np.zeros((m, n + 1))
                for k in range(n):
                    rho[:, k + 1] = rho[:, k] * ea + (tab[k] * sq) * z[:, k] * eh
                    iota[:, k + 1] = iota[:, k] + (rho[:, k] + rho[:, k + 1]) * (dt / 2.0)
                log_p = np.array(m_tab) - (rho * b_vec + iota)
                i_n, log_qv = i[n], log_q
            else:
                iota = np.zeros(bundle.r.shape)
                steps = (bundle.r[:, 1:] + bundle.r[:, :-1]) * (dt / 2.0)
                np.cumsum(steps, axis=1, out=iota[:, 1:])
                log_p = (a_vec - c_vec * bundle.lam) - (bundle.r * b_vec + iota)
                i_n, log_qv = 0.0, np.cumsum(wq * bundle.qv[:, 1:], axis=1)[:, -1]
            p_tilde = np.exp(log_p)
            cp_vals.append(_pair_means(p_tilde[:, cp_idx] - p0, cfg.antithetic))
            halves = np.split(p_tilde, 2) if cfg.antithetic and det else [p_tilde]
            path_sums += sum(np.ascontiguousarray(h.T).sum(axis=1) for h in halves)
            log_b = np.cumsum(wb * bundle.b[:, 1:], axis=1)[:, -1]
            err = np.abs(np.exp(log_b + log_qv) * p0 * np.exp(iota[:, -1] + i_n) - 1.0)
            terminal_err = max(terminal_err, float(np.max(err)))
        means, ses = _mean_se(np.concatenate(cp_vals))
        rows = tuple(
            CheckpointStat(t=t, mean=p0 + float(mean), se=float(se), reference=p0)
            for t, mean, se in zip(cp, means, ses)
        )
        fit = _ols_with_se(grid.step_times, np.diff(path_sums) / cfg.n_paths)
        reports.append(MartingaleReport(sid, maturity, rows, *fit, terminal_err, grid.dt))
    return reports


#: how far the split arithmetic may move a report from the one-scenario-at-a-time
#: bundles' (``_bundle_martingale_reports``), as ``test_golden``'s reorder tolerance:
#: checkpoint means in ulp of ``p0``, checkpoint ses relative, the drift fit in its ses,
#: the terminal error in ulp of 1
SPLIT_MEAN_ULPS, SPLIT_SE_REL, SPLIT_DRIFT_SES, SPLIT_TERMINAL_ULPS = 4, 1e-3, 1e-4, 4


class TestMartingaleStreaming:
    """All members step together on each chunk's one draw and keep per-step
    reducers only; every report field must equal the split arithmetic's column loop
    (``_split_martingale_reports``) bit for bit, and lie within the ``SPLIT_*``
    tolerances of the report computed from that scenario's own full bundles."""

    @staticmethod
    def check(*args):
        reports = martingale_check(*args)
        assert reports == _split_martingale_reports(*args)
        for got, want in zip(reports, _bundle_martingale_reports(*args), strict=True):
            sid = got.scenario_id
            for g, w in zip(got.checkpoints, want.checkpoints, strict=True):
                assert abs(g.mean - w.mean) <= SPLIT_MEAN_ULPS * np.spacing(w.reference), (
                    sid, g.t, g.mean, w.mean)
                assert g.se == pytest.approx(w.se, rel=SPLIT_SE_REL, abs=0.0), (sid, g.t)
            for value, se in (("drift_slope", "drift_slope_se"), ("drift_intercept", "drift_intercept_se")):
                assert abs(getattr(got, value) - getattr(want, value)) <= SPLIT_DRIFT_SES * getattr(
                    want, se), (sid, value)
                assert getattr(got, se) == pytest.approx(getattr(want, se), rel=SPLIT_DRIFT_SES), (sid, se)
            err, want_err = got.terminal_max_abs_error, want.terminal_max_abs_error
            assert abs(err - want_err) <= SPLIT_TERMINAL_ULPS * np.spacing(1.0), (sid, err, want_err)
        return reports

    # eight table-driven members (more than one pass holds), a feedback
    # member and a duplicate id
    FAMILY = [
        Constant(0.005), RandomSwitching(3.0, 1), PiecewiseConstant((0.3,), (0.02, 0.005)),
        Constant(0.02), AdaptedFeedback("driver_sign"), bang_bang(BAND, 1.5, 4),
        RandomSwitching(8.0, 2), Constant(0.0125), Constant(0.02),
    ]
    CHECKPOINTS = [1.5, 0.0, 0.375, 0.75]

    @pytest.mark.parametrize("dynamics", ["shifted", "original"])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_bitwise_equal_to_bundle_reports(self, dynamics, antithetic):
        params = KINKED_07
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=11,
                       antithetic=antithetic)
        assert sum(not s.is_adaptive for s in self.FAMILY) > robustrates.paths._TABLES_PER_PASS
        args = (params, BAND, self.FAMILY, 1.5, self.CHECKPOINTS, cfg, dynamics)
        reports = self.check(*args)
        assert reports[-1].scenario_id == "const[0.02]#1"

    def test_bitwise_equal_over_70_steps(self):
        cfg = McConfig(n_paths=64, n_steps=70, horizon=1.0, base_seed=5, antithetic=True)
        self.check(PARAMS, BAND, self.FAMILY[:5], 1.5, [0.75, 1.5], cfg, "shifted")

    def test_one_draw_per_chunk_for_every_member(self, monkeypatch):
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=2, antithetic=True)
        draws = []
        draw = robustrates.paths._draw_normals
        monkeypatch.setattr(
            robustrates.paths, "_draw_normals", lambda *a: draws.append(a[1:]) or draw(*a)
        )
        martingale_check(PARAMS, BAND, self.FAMILY, 1.5, [1.5], cfg)
        # the feedback member steps on the same draw as the eight tabled ones
        assert draws == [(CHUNK_PATHS, 8, True), (2, 8, True)]

    def test_pass_size_does_not_change_reports(self, monkeypatch):
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=4, antithetic=True)
        args = (PARAMS, BAND, self.FAMILY, 1.5, self.CHECKPOINTS, cfg)
        reports = martingale_check(*args)
        gap = noarb_gap(PARAMS, BAND, 1.5, self.FAMILY, cfg)
        estimates = [
            estimate_sublinear(_every_field, BAND, self.FAMILY, cfg, params, "shifted")
            for params in (None, PARAMS)
        ]
        monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", 1)
        assert martingale_check(*args) == reports
        assert noarb_gap(PARAMS, BAND, 1.5, self.FAMILY, cfg) == gap
        assert estimates == [
            estimate_sublinear(_every_field, BAND, self.FAMILY, cfg, params, "shifted")
            for params in (None, PARAMS)
        ]

    @pytest.mark.parametrize("dynamics", ["shifted", "original"])
    def test_reducer_reads_no_earlier_state(self, monkeypatch, dynamics):
        """The reducer reads each step's state only: with every array the stepper yields
        copied (the split passes' noise-free tables included) and the copies overwritten
        by NaN once the reducer has moved on, the reports are unchanged (the terminal
        identity is summed by parts).  One array per pass, and a pass closed where the
        members' kind changes, split the family into seven passes: four of deterministic
        members only and three of one switching or feedback member each."""
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=12,
                       antithetic=True)
        args = (KINKED_07, BAND, self.FAMILY, 1.5, self.CHECKPOINTS, cfg, dynamics)
        monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", 1)
        want = martingale_check(*args)
        bars = ("r_bar", "integral_bar", "lam_bar", "qv_bar")
        steps, names, yielded = robustrates.mc._steps, ("b", "qv", "r", "lam", "integral") + bars, []

        def stale_once_read(*a, **kw):
            for s in steps(*a, **kw):
                arrays = {x: getattr(s, x) for x in names if getattr(s, x) is not None}
                state = SimpleNamespace(rows=s.rows, k=s.k, hist=s.hist, half=s.half,
                                        **dict.fromkeys(names) | {x: a.copy() for x, a in arrays.items()})
                yielded.append((s.k, set(arrays)))
                yield state
                for x in arrays:
                    getattr(state, x).fill(np.nan)

        monkeypatch.setattr(robustrates.mc, "_steps", stale_once_read)
        assert martingale_check(*args) == want
        assert len(yielded) == 2 * 7 * (cfg.n_steps + 1)  # every pass of both chunks
        assert {"b", "r", "integral", *bars} in [x for _, x in yielded]  # a pass of tables
        assert set(names) - set(bars) in [x for _, x in yielded]  # a switching or feedback pass

    def test_reversed_family_reverses_reports(self):
        family = self.FAMILY[:-1]  # no duplicate id, whose suffix follows the order
        cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=6, antithetic=True)
        reports = martingale_check(PARAMS, BAND, family, 1.5, self.CHECKPOINTS, cfg)
        backwards = martingale_check(PARAMS, BAND, family[::-1], 1.5, self.CHECKPOINTS, cfg)
        assert backwards == reports[::-1]


def test_no_pass_holds_more_than_six_arrays(monkeypatch):
    """A pass holds at most six ``(steps, paths)`` arrays: a switching table
    counts 1 and a feedback member 1; ``noarb_gap`` and ``martingale_check``
    keep no other per-step array.  In ``estimate_sublinear`` every
    member's history is recorded: ``sigma`` (a switching table is that
    ``sigma``), ``B`` and its quadratic variation, plus ``r``, ``lam`` and the
    bundle's ``d`` with the rate."""
    family = [
        AdaptedFeedback("driver_sign"), RandomSwitching(1.0, 0), Constant(0.005),
        RandomSwitching(2.0, 1), AdaptedFeedback("qv_chase"), Constant(0.0125),
        RandomSwitching(3.0, 2), RandomSwitching(4.0, 3), RandomSwitching(5.0, 4),
        AdaptedFeedback("driver_sign", {"threshold": 0.001}), RandomSwitching(6.0, 5),
        AdaptedFeedback("qv_chase"), Constant(0.02),
    ] * 2  # 22 unrecorded arrays, so every run steps in at least four passes
    passes = []
    real = robustrates.paths._passes

    def spy(*args):
        for rows, group in real(*args):
            passes.append((rows, [spec for spec, _ in group]))
            yield rows, group

    def unrecorded(buffers):
        return lambda s: buffers + s.is_adaptive + isinstance(s, RandomSwitching)

    monkeypatch.setattr(robustrates.paths, "_passes", spy)
    cfg = McConfig(n_paths=64, n_steps=4, horizon=1.0, base_seed=1, antithetic=True)
    for run, arrays_of in (
        (lambda: noarb_gap(PARAMS, BAND, 1.0, family, cfg), unrecorded(0)),
        (lambda: martingale_check(PARAMS, BAND, family, 1.0, [0.5], cfg), unrecorded(0)),
        (lambda: estimate_sublinear(_every_field, BAND, family, cfg), lambda s: 3),
        (lambda: estimate_sublinear(_every_field, BAND, family, cfg, PARAMS), lambda s: 6),
    ):
        passes.clear()
        run()
        assert [spec for _, specs in passes for spec in specs] == family
        lo = 0
        for rows, specs in passes:
            assert rows == slice(lo, lo + len(specs))
            lo += len(specs)
            assert sum(map(arrays_of, specs)) <= 6, [s.scenario_id for s in specs]
        assert len(passes) >= 4


def test_feedback_members_step_in_one_pass(monkeypatch):
    """A feedback member keeps only its current state and counts one array, so with
    the rate ``driver_sign`` and ``qv_chase`` step together in one pass."""
    passes = []
    real = robustrates.paths._passes
    monkeypatch.setattr(robustrates.paths, "_passes", lambda *a: passes.extend(real(*a)) or passes)
    cfg = McConfig(n_paths=64, n_steps=8, horizon=1.0, base_seed=3, antithetic=True)
    family = [AdaptedFeedback("driver_sign"), AdaptedFeedback("qv_chase")]
    martingale_check(PARAMS, BAND, family, 1.0, [0.5], cfg)
    assert [(rows, [spec for spec, _ in g]) for rows, g in passes] == [(slice(0, 2), family)]


def test_recorded_bundles_never_alias_the_history_buffer():
    """At one path and with the rate each member records six arrays, so steps in a pass
    of its own, and a one-path transpose is already C-ordered, so ``_bundle`` hands it
    back without a copy: a bundle kept past its pass must still be the member's own
    bundle, so no recorded history is memory a later pass writes."""
    family = [Constant(0.01), AdaptedFeedback("driver_sign"), RandomSwitching(3.0, 1),
              AdaptedFeedback("qv_chase"), bang_bang(BAND, 1.0, 2)]
    cfg = McConfig(n_paths=1, n_steps=6, horizon=1.0, base_seed=8)
    kept = []

    def keep(bundle):
        kept.append(bundle)
        return bundle.b[:, -1]

    scenario_functional_values(keep, BAND, family, cfg, PARAMS, "shifted")
    assert [b.scenario_id for b in kept] == [s.scenario_id for s in family]
    for bundle, spec in zip(kept, family):
        (own,) = _chunk_bundles(spec, BAND, cfg, PARAMS, "shifted")
        for name in ("sigma", "b", "qv", "lam", "r", "d"):
            assert getattr(bundle, name).tobytes() == getattr(own, name).tobytes(), name


@pytest.mark.parametrize("run, form", [
    (lambda family, cfg: noarb_gap(PARAMS, BAND, 1.0, family, cfg).per_scenario, "terminal"),
    (lambda family, cfg: martingale_check(PARAMS, BAND, family, 1.0, [0.5, 1.0], cfg), "split"),
    (lambda family, cfg: martingale_check(PARAMS, BAND, family, 1.0, [0.5, 1.0], cfg, "original"),
     "split"),
    (lambda family, cfg: estimate_sublinear(_every_field, BAND, family, cfg).per_scenario, ""),
    (lambda family, cfg: estimate_sublinear(_every_field, BAND, family, cfg, PARAMS).per_scenario,
     ""),
], ids=["noarb_gap", "martingale_shifted", "martingale_original", "estimate", "estimate_rate"])
def test_deterministic_pass_keeps_one_value_per_member(monkeypatch, run, form):
    """A pass whose members all have deterministic tables steps ``sigma``,
    ``qv`` and ``lam`` as one value per member; a switching member anywhere
    in the pass makes them one value per path.  ``noarb_gap``'s pass of tables
    (``terminal``) steps nothing: it forms each member's ``int r`` at ``T`` at once and
    yields once, at the last grid time, with no ``qv`` or ``lam`` and the integral full-width.
    ``martingale_check``'s (``split``) steps no ``qv`` or ``lam`` either, only ``b`` and
    the noise parts of ``r`` and ``int r``, half-width, and its passes hold one kind of
    member, so the mixed family steps as three passes.  Either way each deterministic
    member's results are the same, bit for bit."""
    terminal = form == "terminal"
    deterministic = [Constant(0.01), PiecewiseConstant((0.3,), (0.02, 0.005))]
    switching = RandomSwitching(3.0, 1)
    mixed = [deterministic[0], switching, deterministic[1]]  # neither first nor last
    cfg = McConfig(n_paths=64, n_steps=8, horizon=1.0, base_seed=3, antithetic=True)
    monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", 18)  # each family in one pass
    shapes = []
    real = robustrates.paths._steps

    def spy(*args, **kwargs):
        for s in real(*args, **kwargs):
            shapes.append((s.qv is None, (s.k == 8, s.integral.shape) if terminal
                           else s.b.shape if form else s.qv.shape))
            yield s

    def expected(m, width):
        if terminal:
            return {(True, (True, (m, 64)))}
        if form:  # a pass of tables steps half-width b; the switching member, its own pass
            return {(True, (m, 32))} if width == 1 else {(True, (1, 32)), (False, (1, 64))}
        return {(False, (m, width))}

    monkeypatch.setattr(robustrates.mc, "_steps", spy)
    alone = list(run(deterministic, cfg))
    assert set(shapes) == expected(len(alone), 1)
    assert not terminal or len(shapes) == 1  # one pass, one yield
    shapes.clear()
    together = list(run(mixed, cfg))
    assert set(shapes) == expected(len(together), 64)
    assert not terminal or len(shapes) == 1
    assert [x for x in together if x.scenario_id != switching.scenario_id] == alone


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("dynamics", ["shifted", "original"])
def test_deterministic_member_bits_do_not_depend_on_its_pass(monkeypatch, dynamics, antithetic):
    """A deterministic member's ``MartingaleReport`` is the same, bit for bit, when it
    steps alone, in a pass of deterministic members only and between a switching and a
    feedback member, where each of the three steps in a pass of its own.  A pass of tables
    steps ``b`` and the noise parts of ``r`` and ``int r`` only, half-width under
    antithetic sampling, and no ``qv``; ``CHUNK_PATHS + 2`` paths make the last chunk's
    half one path wide."""
    member = PiecewiseConstant((0.3,), (0.02, 0.005))
    cfg = McConfig(n_paths=CHUNK_PATHS + 2, n_steps=8, horizon=1.0, base_seed=9,
                   antithetic=antithetic)
    families = {  # each family and its passes, as (rows, whether the pass is of tables)
        "alone": ([member], [(slice(0, 1), True)]),
        "tables": ([Constant(0.01), member, bang_bang(BAND, 1.0, 2)], [(slice(0, 3), True)]),
        "mixed": ([RandomSwitching(3.0, 1), member, AdaptedFeedback("driver_sign")],
                  [(slice(0, 1), False), (slice(1, 2), True), (slice(2, 3), False)]),
    }
    shapes, real = [], robustrates.paths._steps

    def spy(*args, **kwargs):
        for s in real(*args, **kwargs):
            shapes.append((s.rows, s.qv is None, {s.b.shape, s.r.shape, s.integral.shape}))
            yield s

    monkeypatch.setattr(robustrates.mc, "_steps", spy)
    reports = []
    for family, passes in families.values():
        shapes.clear()
        reports.append(martingale_check(KINKED_07, BAND, family, 1.5, [0.0, 0.75, 1.5], cfg,
                                        dynamics)[family.index(member)])
        assert shapes == [(rows, tables, {(len(family[rows]), w // (1 + (antithetic and tables)))})
                          for w in (CHUNK_PATHS, 2) for rows, tables in passes
                          for _ in range(cfg.n_steps + 1)]
    assert reports[0] == reports[1] == reports[2]


@settings(max_examples=60, deadline=None)
@given(
    family=st.lists(st.one_of(_MEMBERS, st.integers(2, 4).map(lambda n: bang_bang(BAND, 1.0, n))),
                    min_size=2, max_size=5),
    per_pass=st.sampled_from([1, 2, 6]),
    dynamics=st.sampled_from(["shifted", "original"]),
    antithetic=st.booleans(),
    n_paths=st.sampled_from([64, 66, 130]),
)
def test_member_results_do_not_depend_on_its_family(family, per_pass, dynamics, antithetic,
                                                    n_paths):
    """Whatever its family (kinds interleaved, duplicates) and however many arrays a pass
    holds, each member's ``MartingaleReport`` and ``noarb_gap`` per-scenario stat equal
    the ones it gets when it runs alone, bit for bit; only a duplicate's id differs."""
    cfg = McConfig(n_paths=n_paths, n_steps=6, horizon=1.0, base_seed=7, antithetic=antithetic)

    def results(members):
        reports = martingale_check(KINKED_07, BAND, members, 1.0, [0.5, 1.0], cfg, dynamics)
        stats = noarb_gap(KINKED_07, BAND, 1.0, members, cfg).per_scenario[: len(members)]
        return [(replace(r, scenario_id=""), replace(stat, scenario_id=""))
                for r, stat in zip(reports, stats, strict=True)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustrates.paths, "_TABLES_PER_PASS", per_pass)
        assert results(family) == [results([spec])[0] for spec in family]


def test_noarb_gap_table_pass_steps_only_its_accumulator(monkeypatch):
    """A ``noarb_gap`` pass of tables steps nothing: it forms each member's ``int r`` at
    ``T`` at once (a mate's is its partner's negation) and yields once, at ``k = n``, with
    no ``b``, ``qv``, ``lam`` or ``r``.  Its traced peak stays within the half-width
    normals, the half-width byte tables, 2 ``(members, paths)`` arrays of doubles (the
    full-width integral and the reducer's output rows), 3 ``(steps, _PATH_BLOCK)`` blocks
    of doubles (``w_k z_k``, a switching member's ``sigma`` and ``take``'s index copy of
    its bytes) and 32 KiB of small objects (1-D tables, weights, generator state).  The
    step loop it replaced held 3.5 such arrays and 2 rows of paths (allowed ``4 m + 2``
    arrays); a pass that stepped the rate and its trapezoid held about 11."""
    family = [Constant(0.01), RandomSwitching(2.0, 0), bang_bang(BAND, 1.0, 2),
              RandomSwitching(5.0, 1)]
    n_paths, n_steps = 2048, 64
    cfg = McConfig(n_paths=n_paths, n_steps=n_steps, horizon=1.0, base_seed=6, antithetic=True)
    m = len(_ensure_extremes(BAND, family))
    seen, real = [], robustrates.paths._steps

    def spy(*args, **kwargs):
        for s in real(*args, **kwargs):
            seen.append((s.rows, s.k, [x is None for x in (s.b, s.qv, s.lam, s.r)],
                         s.integral.shape))
            yield s

    monkeypatch.setattr(robustrates.mc, "_steps", spy)
    run = lambda: noarb_gap(PARAMS, BAND, 1.0, family, cfg)
    run()
    assert seen == [(slice(0, m), n_steps, [True] * 4, (m, n_paths))]
    floor = (8 + 2) * (n_paths // 2) * n_steps  # the normals and two byte tables
    peak = _traced_peak(run)
    assert floor < peak <= floor + 8 * (2 * m * n_paths + 3 * _PATH_BLOCK * n_steps) + 2**15, (
        peak, floor)


@pytest.mark.parametrize("family, arrays", [
    ([Constant(0.01), RandomSwitching(2.0, 1)], (1, 1, 3, 6)),
    ([Constant(0.01), AdaptedFeedback("driver_sign")], (1, 1, 3, 6)),
])
def test_member_footprint_over_the_cap_rejected_before_drawing(monkeypatch, family, arrays):
    """One member may make a chunk hold at most ``_MEMBER_BYTES_CAP`` bytes:
    its arrays of ``steps + 1`` doubles per path (its recorded history, or 1 for
    a table or a feedback member), plus the chunk's normals.  Per consumer,
    ``arrays`` is that count for the family's largest member: ``noarb_gap``'s, then
    ``martingale_check``'s (the same, as it keeps no per-step array), then
    ``estimate_sublinear``'s recorded histories without and with the rate."""
    cfg = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=1)
    runs = (
        lambda: noarb_gap(PARAMS, BAND, 1.0, family, cfg),
        lambda: martingale_check(PARAMS, BAND, family, 1.0, [0.5], cfg),
        lambda: estimate_sublinear(_every_field, BAND, family, cfg),
        lambda: estimate_sublinear(_every_field, BAND, family, cfg, PARAMS),
    )
    draws = []
    draw = robustrates.paths._draw_normals
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a) or draw(*a))
    for run, n_arrays in zip(runs, arrays):
        footprint = 8 * 16 * (n_arrays * 5 + 4)
        monkeypatch.setattr(robustrates.paths, "_MEMBER_BYTES_CAP", footprint)
        run()  # a footprint at the cap is admitted
        monkeypatch.setattr(robustrates.paths, "_MEMBER_BYTES_CAP", footprint - 1)
        draws.clear()
        message = (f"one member of a 16-path chunk over 4 steps would hold {footprint} bytes, "
                   f"over the cap of {footprint - 1} bytes; use fewer steps or paths")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run()
        assert draws == []


def test_cap_admits_the_largest_configs_in_use():
    """The 100,000-path bundle with the rate over 256 steps (six arrays) and a
    full chunk over 512 steps with six arrays per member stay under the cap;
    a full chunk over 4,096 steps with the rate recorded does not."""
    cap = robustrates.paths._MEMBER_BYTES_CAP
    assert 8 * 100_000 * (6 * 257 + 256) <= cap
    assert 8 * CHUNK_PATHS * (6 * 513 + 512) <= cap
    assert 8 * CHUNK_PATHS * (6 * 4097 + 4096) > cap


@pytest.mark.parametrize("run", [
    lambda family, cfg: noarb_gap(PARAMS, BAND, 1.0, family, cfg),
    lambda family, cfg: martingale_check(PARAMS, BAND, family, 1.0, [0.5], cfg),
    lambda family, cfg: estimate_sublinear(_every_field, BAND, family, cfg, PARAMS),
], ids=["noarb_gap", "martingale_check", "estimate_rate"])
def test_finished_pass_released_before_the_next_builds(monkeypatch, run):
    """Once a pass is stepped, nothing keeps its switching tables or histories
    alive: when a later pass builds a table, and when it has its tables and is
    about to build its histories, every array of the earlier passes is freed.
    One member per pass: a feedback member, four switching tables, a feedback member."""
    family = [AdaptedFeedback("driver_sign"), RandomSwitching(3.0, 1), RandomSwitching(4.0, 2),
              RandomSwitching(5.0, 3), RandomSwitching(6.0, 4), AdaptedFeedback("qv_chase")]
    cfg = McConfig(n_paths=64, n_steps=8, horizon=1.0, base_seed=2, antithetic=True)
    monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", 1)
    finished, stepping, checks = [], [], []

    def assert_released(when):
        checks.append(when)
        alive = sum(ref() is not None for ref in finished)
        assert alive == 0, f"{alive} arrays of a finished pass alive {when}"

    real_passes, real_steps = robustrates.paths._passes, robustrates.paths._steps

    def table_spy(real_table):
        def spy(spec, *args):
            assert_released("at a table build")
            return real_table(spec, *args)

        return spy

    def passes_spy(*args):
        for rows, group in real_passes(*args):
            assert_released("before the histories are built")
            stepping.extend(weakref.ref(tab) for _, tab in group if tab is not None)
            yield rows, group
            del group  # the spy keeps no reference either
            finished.extend(stepping)
            stepping.clear()

    def steps_spy(*args, **kwargs):
        for s in real_steps(*args, **kwargs):
            if s.k == 0:
                stepping.extend(weakref.ref(a) for h in s.hist.values() for a in h.values())
            yield s

    for kind in (Constant, PiecewiseConstant, RandomSwitching):  # each kind with a table
        monkeypatch.setattr(kind, "sigma_table", table_spy(kind.sigma_table))
    monkeypatch.setattr(robustrates.paths, "_passes", passes_spy)
    monkeypatch.setattr(robustrates.mc, "_steps", steps_spy)
    run(family, cfg)
    # at least four passes (noarb_gap adds the edges), so each check ran after one
    assert checks.count("at a table build") >= 2
    assert checks.count("before the histories are built") >= 4
    assert len(finished) >= 4


#: ``(members, paths)`` arrays of doubles a pass's per-step state may hold: the
#: stepper's state and temporaries and a reducer's running values (README)
STEP_STATE_ARRAYS = 24


@pytest.mark.parametrize("family, per_pass, floor", [
    ([AdaptedFeedback("driver_sign"), AdaptedFeedback("qv_chase")], 1, 8 // 2),
    ([RandomSwitching(2.0 * (j + 1), j) for j in range(6)], 6, 6 // 2),
], ids=["two_feedback_passes", "six_switching_tables"])
def test_martingale_check_peak_within_six_arrays_and_the_normals(monkeypatch, family, per_pass,
                                                                  floor):
    """A chunk's traced peak stays under six arrays of ``steps + 1`` doubles per
    path plus the chunk's normals, the bound README states, and under the state
    bound: the half-width normals, the half-width byte tables and
    ``STEP_STATE_ARRAYS`` ``(members, paths)`` doubles of per-step state.  Two
    feedback members, one array each, step in two passes of ``per_pass`` = 1 and
    hold the half-width normals, ``floor`` = 4 bytes per path and step.  Six
    antithetic switching tables share one pass, each half-width at one byte per
    entry: ``floor`` = 3."""
    n_paths, n_steps = 2048, 64
    cfg = McConfig(n_paths=n_paths, n_steps=n_steps, horizon=1.0, base_seed=5, antithetic=True)
    bound = 8 * n_paths * (6 * (n_steps + 1) + n_steps)
    tables = sum(isinstance(spec, RandomSwitching) for spec in family)
    state_bound = ((8 + tables) * (n_paths // 2) * n_steps
                   + 8 * STEP_STATE_ARRAYS * len(family) * n_paths)
    monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", per_pass)
    passes, real = [], robustrates.paths._steps

    def spy(*args, **kwargs):  # holds no array: the state is the stepper's one namespace
        for s in real(*args, **kwargs):
            if s.k == 0:
                passes.append(s.rows)
            yield s

    monkeypatch.setattr(robustrates.mc, "_steps", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        martingale_check(PARAMS, BAND, family, 1.0, [0.5, 1.0], cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(passes) == len(family) // per_pass
    assert floor * n_paths * n_steps < peak <= min(bound, state_bound), (peak, bound, state_bound)


def _traced_peak(run) -> int:
    """Bytes ``run()`` holds at its traced peak, above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [Constant(0.01), AdaptedFeedback("driver_sign"),
                                  RandomSwitching(3.0, 1)], ids=["constant", "feedback", "switching"])
def test_recorded_bundle_peak_within_its_member_footprint(spec):
    """A recorded history is held once, also while its bundle is made: the traced peak
    of ``simulate_bundle`` stays within the footprint ``_MEMBER_BYTES_CAP`` counts for
    its one member (three arrays of ``steps + 1`` doubles per path, six with the rate,
    plus the normals), and so does ``scenario_functional_values`` with the rate (one
    member per pass), plus the one array ``_bundle`` copies while the chunk's normals
    are alive; each plus ``STEP_STATE_ARRAYS`` rows of per-step state."""
    n_paths, n_steps = 2048, 64
    grid = TimeGrid(1.0, n_steps)
    cfg = McConfig(n_paths=n_paths, n_steps=n_steps, horizon=1.0, base_seed=4)
    family = [Constant(0.02), spec, RandomSwitching(5.0, 2)]
    runs = [  # (arrays, arrays in flight, run)
        (3, 0, lambda: simulate_bundle(spec, BAND, grid, None, seed=0, n_paths=n_paths)),
        (6, 0, lambda: simulate_bundle(spec, BAND, grid, PARAMS, seed=0, n_paths=n_paths)),
        (6, 1, lambda: scenario_functional_values(lambda b: b.b[:, -1], BAND, family, cfg, PARAMS)),
    ]
    for arrays, in_flight, run in runs:
        run()  # first-call imports are not the engine's
        peak = _traced_peak(run)
        footprint = 8 * n_paths * (arrays * (n_steps + 1) + n_steps)
        bound = footprint + 8 * n_paths * (in_flight * (n_steps + 1) + STEP_STATE_ARRAYS)
        assert 8 * n_paths * arrays * n_steps < peak <= bound, (arrays, peak, bound)


def test_non_finite_closed_form_rejected_before_drawing(monkeypatch):
    draws = []
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a))
    cfg = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=0)
    # sigma_hi^2 int B^2 / 2 passes 709 at T = 1e7, so the upper classical price overflows
    with pytest.raises(NumericalError, match=r"^price at maturity 10000000.0 is not finite$"):
        noarb_gap(PARAMS, BAND, 1e7, [Constant(0.01)], cfg)
    # B(0, 1) * 2000 passes 709, so p0 overflows
    with pytest.raises(NumericalError, match=r"^price at maturity 1.0 is not finite$"):
        martingale_check(RateParams(r0=-2000.0, alpha=1.0), BAND, [Constant(0.01)], 1.0, [0.5], cfg)
    assert draws == []



@pytest.mark.parametrize("member, last_chunk", [(1, True), (2, False)])
def test_non_finite_checkpoint_names_its_member_and_path(monkeypatch, member, last_chunk):
    """The driver holds ``rows`` samples per member, one per checkpoint, so a
    bad row ``j`` belongs to member ``j // rows``.  A NaN planted in one member's log
    price (``_log_prices``; the family's one pass steps its first halves) at the later
    checkpoint (t = T, where ``B(T, T) = 0``) names that member, and the path counted
    across chunks."""
    family = [Constant(0.005), Constant(0.01), Constant(0.02)]
    cfg = McConfig(n_paths=CHUNK_PATHS + 8, n_steps=4, horizon=1.0, base_seed=0, antithetic=True)
    chunk_paths = 8 if last_chunk else CHUNK_PATHS
    real = robustrates.bonds._log_prices

    def planted(m, b, r, integral, p, x, mates):
        real(m, b, r, integral, p, x, mates)
        if np.shape(r) == (len(family), chunk_paths // 2) and b == 0.0:
            p[member, 3] = np.nan

    monkeypatch.setattr(robustrates.bonds, "_log_prices", planted)
    path = CHUNK_PATHS * last_chunk + 3
    message = f"non-finite functional value in scenario '{family[member].scenario_id}' at path {path}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        martingale_check(PARAMS, BAND, family, 1.0, [0.5, 1.0], cfg)


def test_one_step_rejected_before_drawing(monkeypatch):
    """The drift fit needs two points: on one step it once divided by zero."""
    draws = []
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a))
    cfg = McConfig(n_paths=16, n_steps=1, horizon=1.0, base_seed=0)
    with pytest.raises(ValidationError, match=r"^n_steps must be an integer >= 2, got 1$"):
        martingale_check(PARAMS, BAND, [Constant(0.01)], 1.0, [1.0], cfg)
    assert draws == []


@pytest.mark.parametrize("name, call", [
    ("alpha", lambda v: b_factor(v, 0.0, 1.0)),
    ("sigma", lambda v: a_classical(PARAMS, v, 0.0, 1.0)),
    ("sigma", lambda v: price_classical_hw(PARAMS, v, 0.0, 1.0, 0.02)),
    ("lambda_t", lambda v: price_robust(PARAMS, 0.0, 1.0, 0.02, v)),
], ids=["b_factor", "a_classical", "price_classical_hw", "price_robust"])
@pytest.mark.parametrize("value", [np.nan, np.inf, True, "0.01", None])
def test_closed_form_guards_take_the_number_rule(name, call, value):
    """``b_factor(nan, 0, 1)`` and ``a_classical(p, nan, 0, 1)`` once returned NaN,
    and ``b_factor(True, 0, 1)`` ran with alpha 1."""
    with pytest.raises(ValidationError, match=rf"^{name} must be a finite real number >=? 0, got "):
        call(value)


@pytest.mark.parametrize("dynamics", ["shifted", "original"])
@pytest.mark.parametrize("checkpoints", [[], [1.0, 1.0], [0.5, 0.25, 0.5]])
def test_empty_or_repeated_checkpoints_rejected_before_drawing(monkeypatch, checkpoints, dynamics):
    """No checkpoint would pass the power fixture without evidence, and a repeat
    would report one row twice."""
    draws = []
    draw = robustrates.paths._draw_normals
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a) or draw(*a))
    cfg = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=0)
    message = f"checkpoints must be distinct grid times, at least one; got {sorted(checkpoints)}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        martingale_check(PARAMS, BAND, [Constant(0.005), Constant(0.02)], 1.0, checkpoints, cfg,
                         dynamics)
    assert draws == []


@pytest.mark.parametrize("checkpoints, message", [
    (["0.5"], r"^checkpoints must be a finite real number, got '0\.5'$"),
    ([True], r"^checkpoints must be a finite real number, got True$"),
    ([0.5, None], r"^checkpoints must be a finite real number, got None$"),
    (0.5, r"^checkpoints must be a sequence, got 0\.5$"),
], ids=["str", "bool", "None", "scalar"])
def test_checkpoints_take_the_number_rule(monkeypatch, checkpoints, message):
    """``["0.5"]`` and ``[True]`` once ran as 0.5 and 1.0, and a scalar escaped as a
    bare ``TypeError``."""
    draws = []
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a))
    cfg = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=0)
    with pytest.raises(ValidationError, match=message):
        martingale_check(PARAMS, BAND, [Constant(0.005)], 1.0, checkpoints, cfg)
    assert draws == []

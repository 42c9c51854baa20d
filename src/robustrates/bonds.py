"""Zero-coupon bond pricing and its numerical certification.

Two closed forms live here.  The robust price

    P(t,T) = exp(A(t,T) - B(t,T) r_t - B(t,T)^2 lam_t / 2)

is the unique choice making every discounted bond driftless under the
shifted short-rate dynamics, with ``A = -int mu B`` and
``B = (1 - exp(-alpha (T-t))) / alpha``.  The classical constant-volatility
price ``exp(A_sigma - B r_t)`` with ``A_sigma = A + sigma^2 V / 2``,
``V = int B^2``, serves as the oracle: under the original dynamics the
discounted-bond expectation equals it scenario by scenario, which is
exactly why a single arbitrage-free price cannot exist when the band is
non-degenerate.
``noarb_gap`` measures that spread; ``martingale_check`` verifies the
driftlessness of the robust price under the shifted dynamics.

``A`` and ``V`` are exact closed forms for both forms of ``mu``: a constant,
or a calibrated forward curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial
from typing import Sequence

import numpy as np

from .band import VolBand
from .errors import NumericalError, ValidationError, _check_int, _check_real, _check_reals
from .mc import McConfig, _sample, _stats, _sublinear
from .paths import ForwardCurve, RateParams, b_factor
from .scenarios import Constant, ScenarioSpec


@dataclass(frozen=True)
class CheckpointStat:
    t: float
    mean: float
    se: float
    reference: float

    @property
    def passed(self) -> bool:
        return abs(self.mean - self.reference) <= 3.0 * self.se


@dataclass(frozen=True)
class MartingaleReport:
    """Discounted-bond mean at each checkpoint against its time-0 value,
    plus a zero-drift regression and the pathwise terminal identity error."""

    scenario_id: str
    maturity: float
    checkpoints: tuple
    drift_slope: float
    drift_slope_se: float
    drift_intercept: float
    drift_intercept_se: float
    terminal_max_abs_error: float
    dt: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checkpoints)

    @property
    def drift_indistinguishable(self) -> bool:
        return (
            abs(self.drift_slope) <= 3.0 * self.drift_slope_se
            and abs(self.drift_intercept) <= 3.0 * self.drift_intercept_se
        )


@dataclass(frozen=True)
class GapReport:
    upper: float
    lower: float
    gap: float
    gap_se: float
    upper_se: float
    lower_se: float
    closed_form_upper: float
    closed_form_lower: float
    closed_form_gap: float
    argmax_scenario: str
    argmin_scenario: str
    per_scenario: tuple

    @property
    def significant(self) -> bool:
        return self.gap > 3.0 * self.gap_se


def _log_price(a, b, r, lam):
    """Every log bond price, ``(A - B^2 lam / 2) - B r``: ``lam``'s term at its own width,
    added in place to ``-B r``, so one array at ``r``'s width is made, the result."""
    out = np.multiply(r, -b)
    out += a - 0.5 * b * b * lam
    return out


def _log_prices(m, b, r, integral, p, x, mates):
    """Log discounted prices ``M - x``, ``x = B r + int r``, into ``p``; ``mates``' ``M + x`` into ``x``."""
    np.subtract(m, np.add(np.multiply(r, b, out=x), integral, out=x), out=p)
    if mates:
        x += m


#: Taylor coefficients, highest first, of ``int B / tau^2`` and ``V / tau^3`` in
#: ``x = alpha tau``; 24 terms reach 1e-17 relative for ``x < 1``
_INT_B_SERIES = [(-1) ** m / factorial(m + 2) for m in range(23, -1, -1)]
_V_SERIES = [(-1) ** m * (2 ** (m + 2) - 2) / factorial(m + 3) for m in range(23, -1, -1)]


def _b_integrals(alpha: float, t, maturity: float):
    """``int_t^T B(s,T) ds = (tau - B) / alpha`` and ``V(t,T) = int_t^T B(s,T)^2 ds =
    (int B - B^2 / 2) / alpha``, ``tau = T - t``, at a time or a 1-D array of times.
    Below ``alpha tau = 1``, where ``tau - B`` cancels, both come from their Taylor
    series; both are exactly 0 at ``t = T``.  ``B`` is :func:`b_factor`."""
    b = b_factor(alpha, t, maturity)
    tau = maturity - np.asarray(t, dtype=float)
    small = alpha * tau < 1.0
    ts = np.where(small, tau, 0.0)  # the series' range; elsewhere it is not used
    int_b = np.where(small, ts * ts * np.polyval(_INT_B_SERIES, alpha * ts), (tau - b) / alpha)
    v = np.where(small, ts**3 * np.polyval(_V_SERIES, alpha * ts), (int_b - 0.5 * b * b) / alpha)
    return (int_b, v) if np.ndim(t) else (float(int_b), float(v))


def a_robust(params: RateParams, t, maturity: float):
    """``A(t,T) = -int_t^T mu(s) B(s,T) ds`` in closed form, at a time or a 1-D array
    of times: ``-mu int B`` for a constant ``mu``, and for a curve ``f`` (``mu = alpha f
    + f'``, integrated by parts) ``-int_t^T f + f(t) B(t,T)``, formed as ``-alpha f(t)
    int B - int_t^T (f - f(t))`` so that it keeps its accuracy as ``alpha (T - t)`` and
    ``T - t`` go to 0."""
    int_b, _ = _b_integrals(params.alpha, t, maturity)
    mu = params.mu
    if not isinstance(mu, ForwardCurve):
        return -mu * int_b
    a = -params.alpha * mu.value(t) * int_b - mu.excess_integral(t, maturity)
    return a if np.ndim(t) else float(a)


def a_classical(params: RateParams, sigma: float, t: float, maturity: float) -> float:
    """``int_t^T (sigma^2 B(s,T)^2 / 2 - mu(s) B(s,T)) ds``, built as
    ``a_robust + sigma^2 V(t,T) / 2``; ``sigma = 0`` gives :func:`a_robust`."""
    _check_real("sigma", sigma, lo=0)
    _, v = _b_integrals(params.alpha, t, maturity)
    return a_robust(params, t, maturity) + 0.5 * sigma**2 * v


def price_robust(
    params: RateParams, t: float, maturity: float, r_t: float, lambda_t: float
) -> float:
    """Robust bond price; strictly decreasing in both ``r_t`` and
    ``lambda_t`` for ``t < T`` and exactly 1 at ``t = T``."""
    _check_real("lambda_t", lambda_t, lo=0)
    _check_real("r_t", r_t)
    a = a_robust(params, t, maturity)
    b = b_factor(params.alpha, t, maturity)
    return float(np.exp(_log_price(a, b, r_t, lambda_t)))


def price_classical_hw(
    params: RateParams, sigma: float, t: float, maturity: float, r_t: float
) -> float:
    """Constant-volatility bond price ``exp(A_sigma - B r_t)``."""
    _check_real("r_t", r_t)
    a = a_classical(params, sigma, t, maturity)
    b = b_factor(params.alpha, t, maturity)
    return float(np.exp(_log_price(a, b, r_t, 0.0)))


def _require_finite(maturity: float, *prices: float) -> None:
    """A ``NumericalError`` unless every closed-form price at ``maturity`` is finite."""
    if not np.isfinite(prices).all():
        raise NumericalError(f"price at maturity {maturity} is not finite")


def _ensure_extremes(band: VolBand, family: Sequence[ScenarioSpec]) -> list[ScenarioSpec]:
    out = list(family)
    for edge in (band.sigma_hi, band.sigma_lo):
        if not any(isinstance(s, Constant) and s.value == edge for s in out):
            out.append(Constant(edge))
    return out


def noarb_gap(
    params: RateParams,
    band: VolBand,
    maturity: float,
    family: Sequence[ScenarioSpec],
    cfg: McConfig,
) -> GapReport:
    """Spread of discounted-bond expectations across scenarios under the
    original dynamics, against the closed-form spread between the classical
    prices at the band edges.  The two extreme constant scenarios are always
    included regardless of the supplied family.  Each sample is ``1 / D_T`` from the
    stepper's terminal form, ``int r`` at ``T`` as one weighted sum of the normals
    (``paths._steps``).  ``cfg.horizon`` is replaced by ``maturity``
    (``replace(cfg, horizon=maturity)``)."""
    cfg = replace(cfg, horizon=maturity)
    with np.errstate(over="ignore"):  # an overflow is reported next
        cf_up = price_classical_hw(params, band.sigma_hi, 0.0, maturity, params.r0)
        cf_lo = price_classical_hw(params, band.sigma_lo, 0.0, maturity, params.r0)
    _require_finite(maturity, cf_up, cf_lo)

    def discounts(states, out):  # 1 / D_T, D_T made in the integral's buffer at its last step
        for s in states:
            if s.k == cfg.n_steps:
                np.divide(1.0, np.exp(s.integral, out=s.integral), out=out[s.rows, 0])

    ids, values = _sample(_ensure_extremes(band, family), band, cfg, params, "original", discounts)
    est = _sublinear(ids, values)
    up, lo = est.argmax_scenario, est.argmin_scenario
    # scenarios share draws, so the gap's error comes from paired differences
    paired = values[ids.index(up)] - values[ids.index(lo)]
    gap_se = 0.0 if up == lo else _stats([f"{up} - {lo}"], [paired])[0].se
    return GapReport(
        upper=est.upper,
        lower=est.lower,
        gap=est.spread,
        gap_se=gap_se,
        upper_se=est.upper_se,
        lower_se=est.lower_se,
        closed_form_upper=cf_up,
        closed_form_lower=cf_lo,
        closed_form_gap=cf_up - cf_lo,
        argmax_scenario=est.argmax_scenario,
        argmin_scenario=est.argmin_scenario,
        per_scenario=est.per_scenario,
    )


def _ols_with_se(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line fit; returns slope, slope se, intercept, intercept se."""
    n = x.size
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    s2 = float(np.dot(resid, resid) / dof)
    slope_se = np.sqrt(s2 / sxx)
    intercept_se = np.sqrt(s2 * (1.0 / n + x.mean() ** 2 / sxx))
    return slope, slope_se, intercept, intercept_se


def martingale_check(
    params: RateParams,
    band: VolBand,
    scenarios: Sequence[ScenarioSpec],
    maturity: float,
    checkpoints: Sequence[float],
    cfg: McConfig,
    dynamics: str = "shifted",
) -> list[MartingaleReport]:
    """Per scenario: simulate the short rate (shifted dynamics by default),
    form the discounted robust price along the path and test that its mean
    at every checkpoint equals the time-0 price.

    Also runs a zero-drift regression of per-step mean increments against
    time and evolves the discounted price through its driftless stochastic
    representation to measure the pathwise terminal identity
    ``P(T,T) = 1`` up to discretization error.

    ``checkpoints`` are distinct grid times, at least one.  As a reducer of the chunk
    driver (``mc._sample``) all members step together on each chunk's one draw and
    keep running sums only (checkpoint samples, per-step path sums of ``p~``, where ``p0``
    cancels, and per-path log sums by parts, ``sum_k wb_k B_k + wq_k qv_k``, reading no
    earlier state), bit for bit as if each stepped alone; samples take ``_stats``.  Log prices
    are ``M_k - (B r + int r)``, a deterministic member's ``M_k`` one table per pass.
    ``cfg.horizon`` is replaced by ``maturity`` (``replace(cfg, horizon=maturity)``).

    Passing ``dynamics="original"`` yields the adversarial fixture: under a
    non-degenerate band the edge scenarios must fail, which is the power
    check for this test.
    """
    cfg = replace(cfg, horizon=maturity)
    grid, n = cfg.grid, _check_int("n_steps", cfg.n_steps, lo=2)  # the drift fit needs two points
    cp = sorted(_check_reals("checkpoints", checkpoints))
    cp_idx = [grid.index_of(t) for t in cp]  # rejects off-grid checkpoints
    if not cp or len(set(cp_idx)) < len(cp):
        raise ValidationError(f"checkpoints must be distinct grid times, at least one; got {cp}")

    # affine coefficients along the grid, each one vector call of its closed form
    b_vec = b_factor(params.alpha, grid.times, maturity)
    a_vec = a_robust(params, grid.times, maturity)
    with np.errstate(over="ignore"):  # an overflow is reported next
        p0 = float(np.exp(_log_price(a_vec[0], b_vec[0], params.r0, 0.0)))  # lam_0 = 0, D_0 = 1
    _require_finite(maturity, p0)
    c_vec, wb, wq = 0.5 * b_vec * b_vec, np.diff(b_vec), 0.5 * np.diff(b_vec * b_vec)  # wb, wq: 1..n
    row_of = {k: j for j, k in enumerate(cp_idx)}  # the checkpoint row of grid index k
    path_sums = np.zeros((len(scenarios), n + 1))
    terminal_err = np.zeros(len(scenarios))

    def checkpoint_values(states, out):
        """One chunk's ``p~ - p0`` at the checkpoints into ``out``, one row each, adding
        each step's path sums of ``p~`` to ``path_sums`` and keeping the largest terminal
        error in ``terminal_err``, from per-path log sums, ``log p~`` in the pass's two buffers
        (``_log_prices``); halves are summed apart, so a member's bits do not depend on its pass."""
        for s in states:
            k, rows = s.k, s.rows
            if k == 0:  # the pass's buffers, and its split rows' M_k, int r at t_n and qv log sum
                mates, (m, w) = s.half, s.b.shape
                buf, log_b, i_n = np.empty((2, m, w)), np.zeros((m, w)), np.zeros((m, 1))
                p, x = buf
                live = buf[: 1 + mates]  # what exp reads; as halves, (first halves, mates)
                halves = live if mates else p.reshape(m, -1, w // (1 + cfg.antithetic)).swapaxes(0, 1)
                sums = np.empty((n + 1, len(halves), m))  # each step's path sums, by halves
                log_qv = np.zeros((m, w)) if s.qv is not None else np.cumsum(  # one per member
                    wq[:, None] * s.qv_bar[1:], axis=0)[-1][:, None]
                if s.det:  # M = A - B^2 lam / 2 - B r - int r of the noise-free r, int r, lam
                    m_tab = a_vec[:, None] - c_vec[:, None] * s.lam_bar - b_vec[:, None] * s.r_bar
                    m_tab, i_n[s.det, 0] = m_tab - s.integral_bar, s.integral_bar[n]
                det_rows = [(p[i], j) for j, i in enumerate(s.det)]  # a mixed pass's M there
            if s.lam is None:  # split rows only: one M per member
                m_k = m_tab[k, :, None]
            else:  # A - B^2 lam / 2 per path, a split row's M from the table
                m_k = np.subtract(a_vec[k], np.multiply(s.lam, c_vec[k], out=p), out=p)
                for row, j in det_rows:
                    row.fill(m_tab[k, j])
            _log_prices(m_k, b_vec[k], s.r, s.integral, p, x, mates)
            np.exp(live, out=live)
            np.add.reduce(halves, axis=2, out=sums[k])
            if k in row_of:  # a half-width pass's mates into the second half
                for p_half, cols in zip(live, (slice(w), slice(w, None))):
                    np.subtract(p_half, p0, out=out[rows, row_of[k], cols])
            if k > 0:
                log_b += np.multiply(s.b, wb[k - 1], out=x)
                if s.qv is not None:
                    log_qv += np.multiply(s.qv, wq[k - 1], out=p)
            if k == n:  # first halves + mates; |p0 exp(log sums) exp(int r) - 1|, a mate's
                path_sums[rows] += np.add.reduce(sums, axis=1).T  # from -log_b and -int r
                for op in (np.add, np.subtract)[: 1 + mates]:
                    err = np.multiply(np.exp(op(log_qv, log_b, out=p), out=p), p0, out=p)
                    err *= np.exp(op(i_n, s.integral, out=x), out=x)
                    err -= 1.0
                    err = np.max(np.abs(err, out=err), axis=1)
                    terminal_err[rows] = np.maximum(terminal_err[rows], err)

    ids, samples = _sample(scenarios, band, cfg, params, dynamics, checkpoint_values, len(cp),
                           full=True)
    # checkpoint error bars over antithetic pair means, one row per (scenario, checkpoint)
    stats = iter(_stats([sid for sid in ids for _ in cp], samples))
    reports = []
    for sid, sums, err in zip(ids, path_sums, terminal_err):
        rows = [
            CheckpointStat(t=t_cp, mean=p0 + st.mean, se=st.se, reference=p0)
            for t_cp, st in zip(cp, stats)  # takes this scenario's len(cp) rows
        ]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported next
            fit = _ols_with_se(grid.step_times, np.diff(sums) / cfg.n_paths)
        if not np.isfinite(fit + (err,)).all():
            raise NumericalError(f"non-finite drift fit or terminal error in scenario '{sid}'")
        slope, slope_se, intercept, intercept_se = fit
        reports.append(
            MartingaleReport(
                scenario_id=sid,
                maturity=maturity,
                checkpoints=tuple(rows),
                drift_slope=slope,
                drift_slope_se=slope_se,
                drift_intercept=intercept,
                drift_intercept_se=intercept_se,
                terminal_max_abs_error=float(err),
                dt=grid.dt,
            )
        )
    return reports

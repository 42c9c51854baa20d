"""Discrete-time simulation of the driver, short rate and money market.

One uniform time grid carries everything: the volatility path, the driving
noise ``B`` (Brownian motion with path-dependent volatility), its running
quadratic variation, the exponentially weighted variance process ``lam``
used as the drift adjustment, the short rate under original or shifted
dynamics, and the money-market account.

Discretization choices (fixed, first order in the stochastic terms):

* mean reversion uses the exact one-step propagator ``exp(-alpha*dt)``;
* the deterministic drift integral is a two-point Gauss-Legendre rule per
  step (exact for the piecewise-linear drifts produced by calibration);
* the noise increment enters with the midpoint kernel weight
  ``exp(-alpha*dt/2)``;
* ``lam`` accumulates quadratic-variation increments with unit weight,
  ``lam[k+1] = exp(-2*alpha*dt) * lam[k] + dqv[k]``;
* the money-market integral is a trapezoid rule (exact for constant rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Union

import numpy as np

from .band import VolBand
from .errors import ValidationError
from .scenarios import PathView, ScenarioSpec

_INV_SQRT3 = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on ``[0, horizon]`` with ``n_steps`` steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError("horizon must be finite and > 0")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def step_times(self) -> np.ndarray:
        """Left endpoints of the steps."""
        return self.times[:-1]

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; rejects off-grid and non-finite times."""
        k = t / self.dt
        k_round = np.rint(k)  # a NaN or infinite k fails the range test below
        if not (0 <= k_round <= self.n_steps) or abs(k - k_round) > 1e-9 * max(1, abs(k)):
            raise ValidationError(f"time {t} is not a grid point (dt={self.dt})")
        return int(k_round)


MuLike = Union[float, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class RateParams:
    """Short-rate parameters: initial level, mean-reversion speed, and the
    deterministic reversion-level function ``mu`` (constant or callable).

    ``mu_breakpoints`` lists interior kinks of ``mu`` (calibrated drifts are
    piecewise linear); quadratures split their panels there so the kinks do
    not degrade accuracy."""

    r0: float
    alpha: float
    mu: MuLike = 0.0
    mu_breakpoints: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError("alpha must be finite and > 0")
        if not np.isfinite(self.r0):
            raise ValidationError("r0 must be finite")
        if not (callable(self.mu) or np.isfinite(float(self.mu))):
            raise ValidationError("mu must be finite")

    def mu_at(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not callable(self.mu):
            return np.full(s.shape, float(self.mu))
        out = np.asarray(self.mu(s), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValidationError("mu returned a non-finite value")
        return np.broadcast_to(out, s.shape).copy() if out.shape != s.shape else out


@dataclass
class PathBundle:
    """Jointly simulated paths, one row per path, one column per grid point
    (``sigma`` has one column per step)."""

    grid: TimeGrid
    scenario_id: str
    sigma: np.ndarray
    b: np.ndarray
    qv: np.ndarray
    lam: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    d: Optional[np.ndarray] = None

    @property
    def n_paths(self) -> int:
        return self.b.shape[0]


def _check_interval(t, maturity: float) -> None:
    if not (0.0 <= np.min(t) and np.max(t) <= maturity < np.inf):
        raise ValidationError(f"need 0 <= t <= T < inf, got t={t}, T={maturity}")


def b_factor(alpha: float, t, maturity: float):
    """Affine loading ``(1 - exp(-alpha (T-t))) / alpha`` at a time or an array of
    times; series expansion below ``alpha = 1e-8`` so the limit ``T - t`` is exact."""
    _check_interval(t, maturity)
    if alpha <= 0:
        raise ValidationError("alpha must be > 0")
    delta = maturity - t
    if alpha < 1e-8:
        x = alpha * delta
        return delta * (1.0 - x / 2.0 + x * x / 6.0)
    return -np.expm1(-alpha * delta) / alpha


def _mu_step_integrals(params: RateParams, grid: TimeGrid) -> np.ndarray:
    """Per-step ``int_{t_k}^{t_{k+1}} exp(-alpha (t_{k+1}-s)) mu(s) ds`` by
    two-point Gauss-Legendre."""
    dt = grid.dt
    t_left = grid.step_times
    off1 = dt * (0.5 - 0.5 * _INV_SQRT3)
    off2 = dt * (0.5 + 0.5 * _INV_SQRT3)
    s1 = t_left + off1
    s2 = t_left + off2
    w1 = np.exp(-params.alpha * (dt - off1))
    w2 = np.exp(-params.alpha * (dt - off2))
    return 0.5 * dt * (w1 * params.mu_at(s1) + w2 * params.mu_at(s2))


def _lam_decay(alpha: float, dt: float) -> float:
    """One-step decay ``exp(-2 alpha dt)`` of ``lam``."""
    return np.exp(-2.0 * alpha * dt)


def _lam_step(lam_k, dqv_k, e2):
    """``lam[k+1]`` from ``lam[k]`` and the step's quadratic variation."""
    return e2 * lam_k + dqv_k


def _rate_factors(params: RateParams, grid: TimeGrid) -> tuple:
    """Coefficients of the ``r`` recursion on ``grid``: the propagator
    ``exp(-alpha dt)``, the midpoint noise weight ``exp(-alpha dt / 2)``,
    the drift weight ``B(0, dt)`` of ``lam`` and the per-step ``mu`` integrals."""
    a, dt = params.alpha, grid.dt
    m_det = _mu_step_integrals(params, grid)
    return np.exp(-a * dt), np.exp(-a * dt / 2.0), b_factor(a, 0.0, dt), m_det


def _r_step(k: int, r_k, db_k, lam_k, factors: tuple):
    """``r[k+1]`` from ``r[k]`` and the step's noise increment ``dB``; ``lam_k``
    (the shift, taken at the left point) is None under the original
    dynamics."""
    ea, eh, w_lam, m_det = factors
    drift = m_det[k] + (w_lam * lam_k if lam_k is not None else 0.0)
    return ea * r_k + drift + eh * db_k


def _trapezoid(r_k, r_next, dt: float):
    """One step's trapezoid increment of ``int r``."""
    return dt * (r_next + r_k) / 2.0


def _draw_normals(rng: np.random.Generator, n_paths: int, n_steps: int, antithetic: bool) -> np.ndarray:
    """The chunk's normals, time-major so step ``k`` reads the contiguous row ``z[k]``:
    one ``(paths, n_steps)`` draw written once, transposed, as ``(n_steps, paths)``.
    An antithetic chunk draws and keeps only the first halves, ``(n_steps, n_paths / 2)``;
    the mates are their exact negations, so the stepper forms each row as ``[h_k, -h_k]``."""
    if antithetic and n_paths % 2:
        raise ValidationError("antithetic sampling needs an even number of paths")
    return rng.standard_normal((n_paths // 2 if antithetic else n_paths, n_steps)).T.copy()


def _sigma_table(scenario, band, grid, n_paths, antithetic, switch_key, wide) -> np.ndarray:
    """The scenario's volatility table for one chunk, time-major, so step ``k``
    reads the contiguous ``tab[k]``: ``(n_steps,)`` or ``(n_steps, n_paths)``.
    An antithetic mate shares its partner's volatility path, so an antithetic
    switching table stays half-width, ``(n_steps, n_paths / 2)``, and the stepper
    fills both halves of a member's ``sigma`` row from it; ``wide`` (a recorded
    history, which keeps the table as its ``sigma``) makes it full width."""
    n_draw = n_paths // 2 if antithetic else n_paths
    tab = scenario.sigma_table(band, grid.step_times, grid.dt, n_draw, switch_key).T
    if tab.ndim == 2 and antithetic and wide:
        return np.hstack([tab, tab])
    return np.ascontiguousarray(tab)


#: ``(n_steps, n_paths)`` arrays a pass of ``_steps`` holds, whatever the family size
_TABLES_PER_PASS = 6
#: bytes one member may make a chunk hold: its ``_passes`` arrays (a table counted
#: as one) of ``steps + 1`` doubles per path, plus the chunk's normals; 1.5 GiB
#: admits one recorded 100,000-path bundle with the rate over 256 steps.  The
#: formula counts full-width normals and tables, so for an antithetic chunk (whose
#: normals and unrecorded switching tables are half-width) it is an upper bound
_MEMBER_BYTES_CAP = 3 * 2**29


def _passes(scenarios, band, grid, n_paths, antithetic, key, history, record):
    """Consecutive runs of ``scenarios`` with their chunk tables (None for a
    feedback member) as ``(rows, [(spec, table), ...])``, each holding at most
    ``_TABLES_PER_PASS`` arrays: a kept history (feedback, or any member under
    ``record``) counts ``history``, its table included, and any other switching
    table 1."""
    lo, group, used = 0, [], 0
    for spec in scenarios:
        tab = None if spec.is_adaptive else _sigma_table(
            spec, band, grid, n_paths, antithetic, key, record
        )
        cost = history if record or tab is None else tab.ndim - 1
        if group and used + cost > _TABLES_PER_PASS:
            yield slice(lo, lo + len(group)), group
            lo, group, used = lo + len(group), [], 0
        group.append((spec, tab))
        used += cost
        del tab  # only the group holds it, so a stepped pass's tables can be freed
        if used >= _TABLES_PER_PASS:  # full: step it before building another table
            yield slice(lo, lo + len(group)), group
            lo, group, used = lo + len(group), [], 0
    if group:
        yield slice(lo, lo + len(group)), group


def _feedback_sigma(spec, hist, k, t, dt, band):
    """Step ``k``'s volatility from a feedback rule: a scalar or one value per path.
    The rule sees transposed prefix views of the member's locked history, exactly
    the path up to ``t``."""
    for arr in hist.values():
        arr.setflags(write=False)
    try:
        past = {x: arr[: k + (x != "sigma")].T for x, arr in hist.items()}
        view = PathView(k, t, dt, band, past["sigma"], past["b"], past["qv"], past.get("r"))
        sig_k = np.asarray(spec.step_sigma(view), dtype=float)
    finally:
        for arr in hist.values():
            arr.setflags(write=True)
    n_paths = hist["b"].shape[1]
    if sig_k.shape not in ((), (n_paths,)):
        raise ValidationError(
            f"feedback rule returned shape {sig_k.shape} at step {k} "
            f"(scenario {spec.scenario_id}); need a scalar or one value per path, ({n_paths},)"
        )
    if not band.contains(sig_k, tol=1e-12):
        raise ValidationError(
            f"feedback rule left the band at step {k} (scenario {spec.scenario_id})"
        )
    return sig_k


def _steps(scenarios, band, grid, rng, n_paths, params=None, dynamics="original",
           antithetic=False, switch_key=0, *, full=False, record=False):
    """The one simulation kernel: validates the dynamics, the members and the chunk
    footprint (``_MEMBER_BYTES_CAP``), draws the chunk's normals once and steps the
    members pass by pass (``_passes``) as a time-major state, yielded at each grid
    time ``k``: ``rows`` (the pass's members), ``k``, ``b``, ``r`` and the money-market
    ``integral``, each ``(members, paths)``, and ``qv`` and ``lam``, ``(members, 1)``
    when every member of the pass has a deterministic (1-D) table and ``(members,
    paths)`` otherwise.  ``b``, ``qv`` and ``lam`` are stepped only under ``full``,
    ``record``, shifted dynamics or a feedback member.  Feedback members, and under
    ``record`` all, keep a time-major history ``hist[i]`` (row ``k`` per step) of ``sigma``
    (a table's read-only view) and the grid values (``lam`` and ``integral`` under ``record``).
    An antithetic chunk keeps half-width normals and switching tables (``_draw_normals``,
    ``_sigma_table``) and widens each step's row.  No name here keeps a finished pass's
    tables or histories once the next pass starts building its own."""
    if dynamics not in ("original", "shifted"):
        raise ValidationError(f"unknown dynamics '{dynamics}'")
    for spec in scenarios:
        spec.validate(band)  # before anything is drawn
    n, dt, sq, times = grid.n_steps, grid.dt, np.sqrt(grid.dt), grid.times
    with_r, shifted = params is not None, dynamics == "shifted"
    names = ("b", "qv") + ((("r", "lam", "integral") if record else ("r",)) if with_r else ())
    history = 1 + len(names)  # sigma and the grid values
    kept = (history if record or spec.is_adaptive else 1 for spec in scenarios)
    arrays = max(kept, default=0)  # the largest member's; a table counts 1, 2-D or not
    footprint = 8 * n_paths * (arrays * (n + 1) + n)
    if footprint > _MEMBER_BYTES_CAP:
        raise ValidationError(
            f"one member of a {n_paths}-path chunk over {n} steps would hold {footprint} bytes, "
            f"over the cap of {_MEMBER_BYTES_CAP} bytes; use fewer steps or paths"
        )
    z = _draw_normals(rng, n_paths, n, antithetic)
    half = n_paths // 2
    z_k = np.empty(n_paths) if antithetic else None  # each step's [h_k, -h_k]
    if with_r:
        e2, factors = _lam_decay(params.alpha, dt), _rate_factors(params, grid)
    passes = _passes(scenarios, band, grid, n_paths, antithetic, switch_key, history, record)
    s = SimpleNamespace()
    for s.rows, group in passes:
        width = 1 if all(tab is not None and tab.ndim == 1 for _, tab in group) else n_paths
        sigma = np.empty((len(group), width))
        s.qv = s.lam = np.zeros_like(sigma)  # the state arrays are replaced, never written
        s.b = s.integral = np.zeros((len(group), n_paths))
        s.r = np.full_like(s.b, params.r0) if with_r else None
        s.hist = {
            i: {"sigma": np.empty((n, n_paths)) if tab is None
                else np.broadcast_to(tab.reshape(n, -1), (n, n_paths))}
            | {x: np.empty((n + 1, n_paths)) for x in names}
            for i, (spec, tab) in enumerate(group) if record or tab is None
        }
        stepped = full or shifted or bool(s.hist)
        for k in range(n + 1):
            s.k = k
            for i, h in s.hist.items():
                for x in names:
                    h[x][k] = getattr(s, x)[i]
            yield s
            if k == n:
                break
            for i, (spec, tab) in enumerate(group):
                if tab is None:
                    h = s.hist[i]
                    sigma[i] = h["sigma"][k] = _feedback_sigma(spec, h, k, times[k], dt, band)
                elif tab.ndim == 2 and tab.shape[1] < n_paths:  # half-width: mates share the column
                    sigma[i, :half] = sigma[i, half:] = tab[k]
                else:
                    sigma[i] = tab[k]
            if antithetic:
                z_k[:half] = z[k]
                np.negative(z[k], out=z_k[half:])
            else:
                z_k = z[k]
            db = sigma * sq * z_k
            if stepped:
                dqv = sigma**2 * dt
                s.b, s.qv = s.b + db, s.qv + dqv
            if with_r:
                r_next = _r_step(k, s.r, db, s.lam if shifted else None, factors)
                if stepped:
                    s.lam = _lam_step(s.lam, dqv, e2)
                s.integral = s.integral + _trapezoid(s.r, r_next, dt)
                s.r = r_next
        group = tab = h = None  # free this pass's tables and histories before the next builds
        s.hist = None


def _bundle(scenario: ScenarioSpec, h: dict, grid: TimeGrid):
    """``scenario``'s recorded history ``h`` as its bundle: each array made path-major and
    C-ordered one at a time, and a recorded ``integral`` made the money market in place."""
    for x in list(h):
        h[x] = np.ascontiguousarray(h.pop(x).T)
    d = h.pop("integral", None)
    return PathBundle(grid, scenario.scenario_id, d=d if d is None else np.exp(d, out=d), **h)


def _simulate(
    scenario: ScenarioSpec,
    band: VolBand,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_paths: int,
    *,
    params: Optional[RateParams] = None,
    dynamics: str = "original",
    antithetic: bool = False,
    switch_key: int = 0,
) -> PathBundle:
    """Single-chunk bundle of ``scenario`` stepped alone (``_bundle``).  With
    ``params`` the short rate, ``lam`` and the money market are co-simulated
    (so feedback rules may read ``r``)."""
    for state in _steps(
        [scenario], band, grid, rng, n_paths, params, dynamics, antithetic, switch_key, record=True
    ):
        hist = state.hist[0]
    return _bundle(scenario, hist, grid)


def simulate_bundle(
    scenario: ScenarioSpec,
    band: VolBand,
    grid: TimeGrid,
    params: Optional[RateParams],
    seed: int,
    n_paths: int = 1,
    dynamics: str = "original",
    antithetic: bool = False,
) -> PathBundle:
    """Driver plus ``lam``, short rate ``r`` under ``dynamics`` and money market;
    with ``params=None``, sigma, the driver ``B`` and its quadratic variation only."""
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return _simulate(
        scenario, band, grid, rng, n_paths,
        params=params, dynamics=dynamics, antithetic=antithetic,
    )


def lambda_path(qv: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """Exponentially weighted accumulation of quadratic-variation increments,
    ``lam[k+1] = exp(-2 alpha dt) lam[k] + dqv[k]``, starting at zero.

    Approximates the kernel integral with decay rate ``2 alpha`` to first
    order in ``dt``; rejects decreasing ``qv``.
    """
    qv = np.asarray(qv, dtype=float)
    dqv = np.diff(qv, axis=-1)
    if np.any(dqv < -1e-15):
        raise ValidationError("quadratic variation path must be nondecreasing")
    e2 = _lam_decay(alpha, dt)
    lam = np.zeros_like(qv)
    for k in range(dqv.shape[-1]):
        lam[..., k + 1] = _lam_step(lam[..., k], dqv[..., k], e2)
    return lam


def money_market(r: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Account value ``exp(trapezoidal integral of r)``; starts at 1."""
    r = np.asarray(r, dtype=float)
    integral = np.zeros(r.shape)
    np.cumsum(_trapezoid(r[..., :-1], r[..., 1:], grid.dt), axis=-1, out=integral[..., 1:])
    return np.exp(integral, out=integral)

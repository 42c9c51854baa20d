"""Discrete-time simulation of the driver, short rate and money market.

One uniform time grid carries everything: the volatility path, the driving
noise ``B`` (Brownian motion with path-dependent volatility), its running
quadratic variation, the exponentially weighted variance process ``lam``
used as the drift adjustment, the short rate under original or shifted
dynamics, and the money-market account.

Discretization choices (fixed, first order in the stochastic terms):

* mean reversion uses the exact one-step propagator ``exp(-alpha*dt)``;
* the deterministic drift integral is a two-point Gauss-Legendre rule per
  step, of ``mu`` as ``RateParams.mu_at`` gives it (a constant, or
  ``alpha f + f'`` of a calibrated forward curve ``f``);
* the noise increment enters with the midpoint kernel weight
  ``exp(-alpha*dt/2)``;
* ``lam`` accumulates quadratic-variation increments with unit weight,
  ``lam[k+1] = exp(-2*alpha*dt) * lam[k] + dqv[k]``;
* the money-market integral is a trapezoid rule (exact for constant rates).

The ``(r, lam, int r)`` recursion is written once, in the ``with_r`` block of the
kernel ``_steps``, which forms its coefficients once per call; ``lambda_path`` and
``money_market`` write the ``lam`` and money-market recursions out on their own.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from .band import VolBand
from .errors import ValidationError, _check_int, _check_real, _check_real_array
from .scenarios import _PATH_BLOCK, PathView, ScenarioSpec

_INV_SQRT3 = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on ``[0, horizon]`` with ``n_steps`` steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_real("horizon", self.horizon, 0, lo_open=True))
        _check_int("n_steps", self.n_steps, lo=1)

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
        """Grid index of time ``t``, a real number; rejects off-grid and non-finite times."""
        if not isinstance(t, (float, np.floating)) or np.isfinite(t):  # else off the grid, below
            t = _check_real("t", t)
        k = t / self.dt
        k_round = np.rint(k)  # a NaN or infinite k fails the range test below
        if not (0 <= k_round <= self.n_steps) or abs(k - k_round) > 1e-9 * max(1, abs(k)):
            raise ValidationError(f"time {t} is not a grid point (dt={self.dt})")
        return int(k_round)


@dataclass(frozen=True, eq=False)
class ForwardCurve:
    """Observed initial forward curve as interpolation knots.

    Maturities must be strictly increasing and start at 0 (the first knot
    defines the initial short rate).  Values between knots are linear; the
    derivative is piecewise constant and right-continuous.  As the ``mu`` of
    :class:`RateParams` it stands for the calibrated ``mu = alpha f + f'``.
    Two curves are equal when their knots are, and hash alike; the knots are
    held as read-only copies, so neither can change under a hash.
    """

    maturities: np.ndarray
    forwards: np.ndarray

    def __post_init__(self):
        names = ("maturities", "forwards")
        knots = [np.array(getattr(self, name), dtype=object) for name in names]
        if knots[0].ndim != 1 or knots[0].shape != knots[1].shape:
            raise ValidationError("maturities and forwards must be 1-D and aligned")
        for name, k in zip(names, knots):  # read-only copies, knot by knot by the number rule
            k = np.array([_check_real(name, v) for v in k], dtype=float)
            k.flags.writeable = False
            object.__setattr__(self, name, k)
        mats, fwds = self.maturities, self.forwards
        if mats.size < 2:
            raise ValidationError("forward curve needs at least 2 knots")
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

    def __eq__(self, other):
        if not isinstance(other, ForwardCurve):
            return NotImplemented
        return np.array_equal(self.maturities, other.maturities) and np.array_equal(
            self.forwards, other.forwards
        )

    def __hash__(self):
        # tuples of Python floats, so -0.0 and 0.0 (equal knots) hash alike
        return hash((tuple(self.maturities.tolist()), tuple(self.forwards.tolist())))

    @property
    def t_last(self) -> float:
        return float(self.maturities[-1])

    def _times(self, t) -> np.ndarray:
        """``t``, a time or a numpy array of times (``_check_real_array``), as floats
        within the curve's range."""
        t = np.asarray(_check_real_array("t", t), dtype=float)
        if not (np.all(t >= -1e-12) and np.all(t <= self.t_last + 1e-12)):  # NaN fails too
            raise ValidationError(f"evaluation outside curve range [0, {self.t_last}]")
        return t

    def value(self, t) -> np.ndarray:
        t = self._times(t)
        return np.interp(t, self.maturities, self.forwards)

    def derivative(self, t) -> np.ndarray:
        """Right-continuous piecewise-constant slope (left slope at the
        final maturity)."""
        t = self._times(t)
        idx = np.searchsorted(self.maturities, t, side="right") - 1
        idx = np.clip(idx, 0, self._slopes.size - 1)
        return self._slopes[idx]

    def integral(self, a: float, b: float) -> float:
        """Exact ``int_a^b f`` for the piecewise-linear curve."""
        a, b = _check_real("a", a), _check_real("b", b)
        if b < a:
            raise ValidationError("integral needs a <= b")
        self._times(np.array([a, b]))

        def antideriv(t):
            k = int(np.clip(np.searchsorted(self.maturities, t, side="right") - 1,
                            0, self._slopes.size - 1))
            t0 = self.maturities[k]
            f0 = self.forwards[k]
            s = self._slopes[k]
            dt = t - t0
            return self._cum_integral[k] + f0 * dt + 0.5 * s * dt * dt

        return float(antideriv(b) - antideriv(a))

    def excess_integral(self, t, maturity: float) -> np.ndarray:
        """Exact ``int_t^T (f(s) - f(t)) ds`` at a time or a 1-D array of times, as
        ``int_t^T f'(u) (T - u) du``: one term of one sign per knot segment, so no
        two terms of the size of ``f (T - t)`` cancel."""
        _check_interval(t, maturity)
        self._times(maturity)
        t = np.asarray(t, dtype=float)
        lo = np.clip(self.maturities[:-1], t[..., None], maturity)
        hi = np.clip(self.maturities[1:], t[..., None], maturity)
        return np.sum(self._slopes * (hi - lo) * ((maturity - lo) + (maturity - hi)), axis=-1) / 2


@dataclass(frozen=True)
class RateParams:
    """Short-rate parameters: initial level, mean-reversion speed, and the
    deterministic reversion level ``mu``: a finite real number, or a
    :class:`ForwardCurve` ``f`` read as the calibrated ``mu = alpha f + f'``.
    Every bond coefficient has a closed form for both (``bonds.a_robust``)."""

    r0: float
    alpha: float
    mu: Union[float, ForwardCurve] = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r0", _check_real("r0", self.r0))
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha, 0, lo_open=True))
        if not isinstance(self.mu, ForwardCurve):
            object.__setattr__(self, "mu", _check_real("mu", self.mu))

    def mu_at(self, s) -> np.ndarray:
        s = np.asarray(_check_real_array("s", s), dtype=float)
        if isinstance(self.mu, ForwardCurve):
            return self.alpha * self.mu.value(s) + self.mu.derivative(s)
        return np.full(s.shape, self.mu)


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
    with suppress(TypeError):  # a non-number has no order: the rules below name it
        if not (0.0 <= np.min(t) and np.max(t) <= maturity < np.inf):
            raise ValidationError(f"need 0 <= t <= T < inf, got t={t}, T={maturity}")
    _check_real("maturity", maturity)
    _check_real_array("t", t)


def b_factor(alpha: float, t, maturity: float):
    """Affine loading ``(1 - exp(-alpha (T-t))) / alpha`` at a time or an array of
    times, as ``-expm1(-x) / alpha`` with ``x = alpha (T-t)``; below ``alpha = 1e-8``,
    where ``x < 1e-5``, as its series in ``x``, so the limit ``T - t`` is exact."""
    _check_interval(t, maturity)
    alpha = _check_real("alpha", alpha, 0, lo_open=True)
    delta = maturity - t
    x = alpha * delta
    if alpha < 1e-8:
        return np.where(x < 1e-5, delta * (1.0 - x / 2.0 + x * x / 6.0), -np.expm1(-x) / alpha)[()]
    return -np.expm1(-x) / alpha


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


def _draw_normals(rng: np.random.Generator, n_paths: int, n_steps: int, antithetic: bool) -> np.ndarray:
    """The chunk's normals, time-major so step ``k`` reads the contiguous row ``z[k]``,
    ``(n_steps, paths)``: the stream of one ``(paths, n_steps)`` draw, drawn
    ``_PATH_BLOCK`` paths at a time and each block written transposed into place.
    An antithetic chunk draws and keeps only the first halves, ``(n_steps, n_paths / 2)``;
    the mates are their exact negations, so the stepper forms each row as ``[h_k, -h_k]``."""
    if antithetic and n_paths % 2:
        raise ValidationError("antithetic sampling needs an even number of paths")
    n_draw = n_paths // 2 if antithetic else n_paths
    z = np.empty((n_steps, n_draw))
    for i in range(0, n_draw, _PATH_BLOCK):
        z[:, i : i + _PATH_BLOCK] = rng.standard_normal((min(_PATH_BLOCK, n_draw - i), n_steps)).T
    return z


def _fill_sigma(row, tab_k, levels) -> None:
    """A member's ``sigma`` row from its table's row ``tab_k``: the values of a
    deterministic table, or the levels a byte row indexes, copied to the mates'
    half when the bytes are half-width."""
    if tab_k.dtype != np.uint8:
        row[...] = tab_k
        return
    w = tab_k.shape[-1]
    np.take(levels, tab_k, out=row[..., :w], mode="clip")
    if w < row.shape[-1]:
        row[..., w:] = row[..., :w]


#: ``(n_steps, n_paths)`` arrays a pass of ``_steps`` holds, whatever the family size
_TABLES_PER_PASS = 6
#: bytes one member may make a chunk hold: its ``_passes`` arrays (a table counted
#: as one) of ``steps + 1`` doubles per path, plus the chunk's normals; 1.5 GiB
#: admits one recorded 100,000-path bundle with the rate over 256 steps.  The
#: formula counts full-width normals and a switching table as doubles, so for a
#: byte table, and for an antithetic chunk (whose normals and switching tables are
#: half-width), it is an upper bound
_MEMBER_BYTES_CAP = 3 * 2**29


def _passes(scenarios, grid, n_draw, key, history, record):
    """Consecutive runs of ``scenarios`` with their chunk tables (``sigma_table`` of
    ``n_draw`` paths; None for a feedback member) as ``(rows, [(spec, table), ...])``,
    each holding at most ``_TABLES_PER_PASS`` arrays: a kept history (feedback, or any
    member under ``record``) counts ``history``, its table included, and any other
    switching table 1, though its one byte per entry holds an eighth of an array of doubles."""
    lo, group, used = 0, [], 0
    for spec in scenarios:
        tab = None if spec.is_adaptive else spec.sigma_table(grid.step_times, grid.dt, n_draw, key)
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


def _history_sigma(tab, levels, n, n_paths) -> np.ndarray:
    """A recorded ``(n, n_paths)`` ``sigma``: empty for a feedback member (the stepper
    writes it), a read-only broadcast of a deterministic table, or a byte table's values."""
    if tab is None:
        return np.empty((n, n_paths))
    if tab.dtype != np.uint8:
        return np.broadcast_to(tab[:, None], (n, n_paths))
    sigma = np.empty((n, n_paths))
    _fill_sigma(sigma, tab, levels)
    return sigma


def _past_views(h: dict) -> dict:
    """Path-major views of a feedback history's ``sigma``, ``b``, ``qv`` and ``r``, read
    through a read-only buffer: the stepper keeps writing the history, but neither these
    views nor any view of them can be made writeable."""
    return {x: np.asarray(memoryview(h[x]).toreadonly()).T
            for x in ("sigma", "b", "qv", "r") if x in h}


def _feedback_sigma(spec, past, k, t, dt, band):
    """Step ``k``'s volatility from a feedback rule: a scalar or one value per path.
    ``past`` holds the member's history as read-only views formed once per pass
    (``_past_views``); the rule sees their prefixes, exactly the path up to ``t``."""
    b, r = past["b"][:, : k + 1], past.get("r")
    view = PathView(k, t, dt, band, past["sigma"][:, :k], b, past["qv"][:, : k + 1],
                    None if r is None else r[:, : k + 1])
    sig_k = np.asarray(spec.step_sigma(view), dtype=float)
    n_paths = b.shape[0]
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
    ``record``, shifted dynamics or a feedback member.  With ``params``, the rate step
    (``r``, ``lam`` and the trapezoid of ``int r``) is written out inline on coefficients
    formed once per call.  Feedback members, and under
    ``record`` all, keep a time-major history ``hist[i]`` (row ``k`` per step) of ``sigma``
    (``_history_sigma``) and the grid values (``lam`` and ``integral`` under ``record``),
    each recorded array its own (for ``_bundle`` to free) and otherwise views of one buffer
    per chunk, grown only for a pass that keeps more; rules read views formed once per
    pass (``_past_views``), dropped at the last grid time.  A switching member's table is
    bytes, and each step's ``sigma`` row is taken from them (``_fill_sigma``).  An
    antithetic chunk keeps half-width normals and switching tables (``_draw_normals``,
    ``_passes``) and widens each step's row.  No name here keeps a finished pass's tables
    or recorded histories once the next pass starts building its own."""
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
    if with_r:  # the rate step's coefficients: propagator, noise weight, shift weight, lam decay
        a = params.alpha
        ea, eh, w_lam = np.exp(-a * dt), np.exp(-a * dt / 2.0), b_factor(a, 0.0, dt)
        e2, m_det = np.exp(-2.0 * a * dt), _mu_step_integrals(params, grid)
    levels = np.array([band.sigma_lo, band.sigma_hi])  # what a byte table indexes
    # an antithetic mate shares its partner's volatility path: a half-width table
    passes = _passes(scenarios, grid, half if antithetic else n_paths, switch_key, history, record)
    s, buf = SimpleNamespace(), None
    for s.rows, group in passes:
        width = 1 if all(tab is not None and tab.ndim == 1 for _, tab in group) else n_paths
        sigma = np.empty((len(group), width))
        s.qv = s.lam = np.zeros_like(sigma)  # the state arrays are replaced, never written
        s.b = s.integral = np.zeros((len(group), n_paths))
        s.r = np.full_like(s.b, params.r0) if with_r else None
        if record:  # each array its own, so a bundle frees it as it is made (``_bundle``)
            s.hist = {i: {"sigma": _history_sigma(tab, levels, n, n_paths)} | {
                x: np.empty((n + 1, n_paths)) for x in names} for i, (_, tab) in enumerate(group)}
        else:  # feedback histories, read by rules only: views of one buffer, grown as needed
            keep = [i for i, (_, tab) in enumerate(group) if tab is None]
            if keep and (buf is None or len(buf) < history * len(keep)):
                buf = np.empty((history * len(keep), n + 1, n_paths))
            slots = iter(buf if keep else ())
            s.hist = {i: {"sigma": next(slots)[:n]} | {x: next(slots) for x in names} for i in keep}
        past = {i: _past_views(s.hist[i]) for i, (_, tab) in enumerate(group) if tab is None}
        stepped = full or shifted or bool(s.hist)
        for k in range(n + 1):
            s.k = k
            for i, h in s.hist.items():
                for x in names:
                    h[x][k] = getattr(s, x)[i]
            if k == n:  # no rule reads on, so a history handed out now is its bundle's alone
                past = None
            yield s
            if k == n:
                break
            for i, (spec, tab) in enumerate(group):
                if tab is None:
                    sigma[i] = s.hist[i]["sigma"][k] = _feedback_sigma(
                        spec, past[i], k, times[k], dt, band
                    )
                else:
                    _fill_sigma(sigma[i], tab[k], levels)
            if antithetic:
                z_k[:half] = z[k]
                np.negative(z[k], out=z_k[half:])
            else:
                z_k = z[k]
            db = sigma * sq * z_k
            if stepped:
                dqv = sigma**2 * dt
                s.b, s.qv = s.b + db, s.qv + dqv
            if with_r:  # r[k+1] = ea r[k] + m_det[k] (+ w_lam lam[k], shifted) + eh dB[k]
                r_next = ea * s.r
                r_next += m_det[k] + (w_lam * s.lam if shifted else 0.0)
                r_next += eh * db
                if stepped:
                    s.lam = e2 * s.lam + dqv
                trap = r_next + s.r  # the trapezoid of int r, (r[k+1] + r[k]) dt/2
                trap *= dt / 2.0
                trap += s.integral
                s.integral, s.r = trap, r_next
        group = tab = h = past = None  # free this pass's arrays before the next builds its own
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
    _check_int("seed", seed, lo=0)
    _check_int("n_paths", n_paths, lo=1)
    if not isinstance(antithetic, (bool, np.bool_)):
        raise ValidationError(f"antithetic must be a bool, got {antithetic!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return _simulate(
        scenario, band, grid, rng, n_paths,
        params=params, dynamics=dynamics, antithetic=antithetic,
    )


def lambda_path(qv: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """Exponentially weighted accumulation of quadratic-variation increments,
    ``lam[k+1] = exp(-2 alpha dt) lam[k] + dqv[k]``, starting at zero.

    Approximates the kernel integral with decay rate ``2 alpha`` to first
    order in ``dt``; rejects a non-finite or decreasing ``qv``, and ``alpha`` or
    ``dt`` not above 0.
    """
    alpha, dt = _check_real("alpha", alpha, 0, lo_open=True), _check_real("dt", dt, 0, lo_open=True)
    qv = np.asarray(qv, dtype=float)
    if not np.isfinite(qv).all():
        raise ValidationError("qv must be finite")
    dqv = np.diff(qv, axis=-1)
    if np.any(dqv < -1e-15):
        raise ValidationError("quadratic variation path must be nondecreasing")
    e2 = np.exp(-2.0 * alpha * dt)
    lam = np.zeros_like(qv)
    for k in range(dqv.shape[-1]):
        lam[..., k + 1] = e2 * lam[..., k] + dqv[..., k]
    return lam


def money_market(r: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Account value ``exp(trapezoidal integral of r)``; starts at 1.  ``r`` holds one
    finite value per grid time on its last axis."""
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (grid.n_steps + 1,):
        raise ValidationError(f"r needs {grid.n_steps + 1} values on its last axis, "
                              f"got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValidationError("r must be finite")
    integral = np.zeros(r.shape)
    np.cumsum((r[..., 1:] + r[..., :-1]) * (grid.dt / 2.0), axis=-1, out=integral[..., 1:])
    return np.exp(integral, out=integral)

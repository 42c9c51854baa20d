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
* the money-market integral is a trapezoid rule (exact for constant rates);
  where only its value at ``t_n`` is read (``noarb_gap``), the same trapezoid is
  written out as ``D + sum_k w_k sigma_k z_k``, linear in the step noises;
* a deterministic volatility splits the state exactly into a noise-free part and a
  part linear in the normals; ``martingale_check``'s rate rows hold the latter only.

The ``(r, lam, int r)`` recursion is written in the kernel ``_steps`` on coefficients
formed once per call, and a split member's noise-free part once per pass on floats;
``lambda_path`` and ``money_market`` write ``lam`` and the money market out on their own.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate
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
        if not (np.all(np.less_equal(0.0, t) & np.less_equal(t, maturity)) and 0.0 <= maturity < np.inf):
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
    """A switching member's ``sigma`` row from its byte table's row ``tab_k``: the
    levels the bytes index, copied to the mates' half when the bytes are half-width."""
    w = tab_k.shape[-1]
    levels.take(tab_k, out=row[..., :w], mode="clip")
    if w < row.shape[-1]:
        row[..., w:] = row[..., :w]


#: ``(n_steps, n_paths)`` arrays a pass of ``_steps`` holds, whatever the family size
_TABLES_PER_PASS = 6
#: bytes one member may make a chunk hold: its ``_passes`` arrays (a table or a
#: feedback member counted as one, a recorded history as ``history``) of ``steps + 1``
#: doubles per path, plus the chunk's normals; 1.5 GiB admits one recorded
#: 100,000-path bundle with the rate over 256 steps.  The formula counts full-width
#: normals and a switching table as doubles, so for a byte table, and for an
#: antithetic chunk (whose normals and switching tables are half-width), it is an
#: upper bound
_MEMBER_BYTES_CAP = 3 * 2**29


def _passes(scenarios, grid, n_draw, key, history, record, split):
    """Consecutive runs of ``scenarios`` with their chunk tables (``sigma_table`` of
    ``n_draw`` paths; None for a feedback member) as ``(rows, [(spec, table), ...])``,
    each holding at most ``_TABLES_PER_PASS`` arrays: under ``record`` a member's history
    counts ``history``, its table included; otherwise a feedback member (which keeps only
    its current state) counts 1, and so does a switching table, though its one byte per
    entry holds an eighth of an array of doubles.  Under ``split`` a pass holds one kind
    of member, deterministic (1-D) tables or none, so a pass closes where the kind changes."""
    lo, group, used = 0, [], 0
    for spec in scenarios:
        tab = None if spec.is_adaptive else spec.sigma_table(grid.step_times, grid.dt, n_draw, key)
        cost = history if record else 1 if tab is None else tab.ndim - 1
        det = tab is not None and tab.ndim == 1
        if group and (used + cost > _TABLES_PER_PASS or split and det != group_det):
            yield slice(lo, lo + len(group)), group
            lo, group, used = lo + len(group), [], 0
        group.append((spec, tab))
        used, group_det = used + cost, det
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


def _readonly_rows(i, *state):
    """Member ``i``'s rows of ``state`` (None stays None) through read-only buffers, so
    neither a row nor any view of it can be made writeable."""
    return tuple(None if x is None else np.asarray(memoryview(x[i]).toreadonly()) for x in state)


def _feedback_sigma(spec, view):
    """Step ``view.k``'s volatility from a feedback rule, which sees its member's rows of
    the current state (``PathView``): a scalar or one value per path, in the band."""
    sig_k = np.asarray(spec.step_sigma(view), dtype=float)
    k, n_paths = view.k, view.b.shape[0]
    if sig_k.shape not in ((), (n_paths,)):
        raise ValidationError(
            f"feedback rule returned shape {sig_k.shape} at step {k} "
            f"(scenario {spec.scenario_id}); need a scalar or one value per path, ({n_paths},)"
        )
    if not view.band.contains(sig_k, tol=1e-12):
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
    paths)`` otherwise.  A pass allocates its state and scratch once and updates them in
    place, so they are valid for the current step only: ``r`` alternates between two
    arrays, the rest are the same all pass.  With ``params`` the rate step (``r``, ``lam``
    and the trapezoid of ``int r``) is written out on coefficients formed once per call.
    A pass is one of four kinds.  *Split* (``full`` with ``params``, ``martingale_check``'s;
    ``_passes`` gives it deterministic members only): its ``r`` and ``int r`` hold only the
    noise parts, taking no drift, and ``r_bar``, ``integral_bar``, ``lam_bar`` and
    ``qv_bar``, ``(n + 1, members)``, the noise-free parts (else None); it steps ``b`` and
    those only, ``half``-width under antithetic sampling (mates hold negations), with ``qv``
    and ``lam`` None.  *Terminal* (``params`` under original dynamics, neither ``full`` nor
    ``record``; ``noarb_gap``'s): ``integral`` holds the running ``N = sum_k sigma_k (w_k
    z_k)`` and, at ``k = n`` only, ``int r`` at ``t_n``, ``D + N`` (``w_k`` and the noise-free
    ``D`` formed once per call); a pass of tables steps only ``sigma``, one scratch and
    ``N``, half-width (widened at ``k = n``), and yields ``b``, ``qv``, ``lam`` and ``r`` as
    None.  *Stepped*: any other pass steps the whole state (a terminal one, no trapezoid).
    *Recorded* (``record``, never split): a stepped pass in which every member keeps a
    time-major history ``hist[i]`` (row ``k`` per step) of ``sigma`` (``_history_sigma``)
    and the grid values, each array its own, for ``_bundle`` to free; else ``hist`` is
    empty.  A feedback rule reads its member's current rows of the state, formed once per
    pass (``_readonly_rows``, ``_feedback_sigma``).  Deterministic members take ``sigma``
    from one table stacked per pass, a switching member from its bytes (``_fill_sigma``).
    An antithetic chunk keeps half-width normals and switching tables (``_draw_normals``,
    ``_passes``) and widens each step's row for a full-width pass.  No name here keeps a
    finished pass's arrays once the next builds."""
    if dynamics not in ("original", "shifted"):
        raise ValidationError(f"unknown dynamics '{dynamics}'")
    for spec in scenarios:
        spec.validate(band)  # before anything is drawn
    n, dt, sq, times = grid.n_steps, grid.dt, np.sqrt(grid.dt), grid.times
    with_r, shifted = params is not None, dynamics == "shifted"
    names = ("b", "qv") + (("r", "lam", "integral") if with_r else ())  # recorded grid values
    history = 1 + len(names)  # a recorded member's sigma and grid values
    arrays = history if record else 1  # a table, 2-D or not, or a feedback member counts 1
    footprint = 8 * n_paths * (arrays * (n + 1) + n)
    if footprint > _MEMBER_BYTES_CAP:
        raise ValidationError(
            f"one member of a {n_paths}-path chunk over {n} steps would hold {footprint} bytes, "
            f"over the cap of {_MEMBER_BYTES_CAP} bytes; use fewer steps or paths"
        )
    z = _draw_normals(rng, n_paths, n, antithetic)
    half = n_paths // 2
    z_pm = np.empty(n_paths) if antithetic else None  # a stepped pass's [h_k, -h_k]
    if with_r:  # the rate step's coefficients: propagator, noise weight, shift weight, lam decay
        a = params.alpha
        ea, eh, w_lam = np.exp(-a * dt), np.exp(-a * dt / 2.0), b_factor(a, 0.0, dt)
        e2, m_det = np.exp(-2.0 * a * dt), _mu_step_integrals(params, grid)
    terminal = with_r and not (full or record or shifted)  # noarb_gap reads int r at t_n only
    split = with_r and full and not record  # martingale_check's: one kind of member per pass
    def recur(c, u, y0):  # y[k+1] = y[k] c + u[k] from y[0] = y0 down u's columns, on floats
        cols = (accumulate(col.tolist(), lambda y, v: y * c + v, initial=y0) for col in u.T)
        return np.stack([np.fromiter(y, float, len(u) + 1) for y in cols], axis=1)  # a column at a time
    if terminal:  # int r at t_n = D + N, N = sum_k sigma_k (w_k z_k): the trapezoid written out
        wz = np.empty(n_paths)  # a row of w_k z_k; w_k = c_k eh sq, c_{k-1} = ea c_k + dt from dt / 2
        wts = recur(ea, np.full((n - 1, 1), dt), dt / 2.0)[::-1, 0] * float(eh * sq)
        r_bar = recur(ea, m_det[:, None], params.r0)[:, 0]  # D, the trapezoid of the noise-free r
        d_int = np.cumsum((r_bar[:-1] + r_bar[1:]) * (dt / 2.0))[-1]
    levels = np.array([band.sigma_lo, band.sigma_hi])  # what a byte table indexes
    # an antithetic mate shares its partner's volatility path: a half-width table
    passes = _passes(scenarios, grid, half if antithetic else n_paths, switch_key, history, record, split)
    s = SimpleNamespace(**dict.fromkeys("b qv lam r r_bar integral_bar lam_bar qv_bar".split()))  # or None
    for s.rows, group in passes:
        m = len(group)
        det = [i for i, (_, tab) in enumerate(group) if tab is not None and tab.ndim == 1]
        det_tab = np.stack([group[i][1] for i in det], axis=1) if det else None  # (n, len(det))
        stepped = not terminal or any(tab is None for _, tab in group)  # a rule reads the state
        lean = split and len(det) == m  # steps b and the noise parts: no sigma, qv, lam or drift
        cols = half if antithetic and (lean or not stepped) else n_paths  # mates hold negations
        s.half, width = cols < n_paths, 1 if len(det) == m else cols
        sigma, s.integral, db = np.zeros((m, width)), np.zeros((m, cols)), np.zeros((m, cols))
        if stepped:
            (s.qv, s.lam), s.b = (None, None) if lean else np.zeros((2, m, width)), np.zeros((m, cols))
            r0 = 0.0 if lean else params.r0 if with_r else None  # a noise part starts at 0
            s.r, r_next = (np.full_like(s.b, r0), np.empty_like(s.b)) if with_r else (None,) * 2
            rates, shift = (s.r, r_next) if with_r else (None,), db[:, :width]  # s.r is rates[k % 2]
        if lean:  # the noise-free r, int r, lam and qv, (n + 1, m) each
            dqv, s.qv_bar, s.integral_bar = np.square(det_tab) * dt, *np.zeros((2, n + 1, m))
            s.lam_bar = recur(e2, dqv, 0.0)
            s.r_bar = recur(ea, s.lam_bar[:-1] * w_lam + m_det[:, None] if shifted
                            else np.broadcast_to(m_det[:, None], dqv.shape), params.r0)
            np.cumsum(dqv, axis=0, out=s.qv_bar[1:])
            np.cumsum((s.r_bar[:-1] + s.r_bar[1:]) * (dt / 2.0), axis=0, out=s.integral_bar[1:])
            sq_tab = det_tab * sq
        views = {i: [_readonly_rows(i, s.b, s.qv, s.lam if with_r else None, r) for r in rates]
                 for i, (_, tab) in enumerate(group) if tab is None}
        # each recorded array its own, so a bundle frees it as it is made (``_bundle``)
        s.hist = {i: {"sigma": _history_sigma(tab, levels, n, n_paths)} | {
            x: np.empty((n + 1, n_paths)) for x in names} for i, (_, tab) in enumerate(group)
        } if record else {}
        for k in range(n + 1):
            s.k = k
            if terminal and k == n:  # int r at t_n, D + N, with a lean pass's -N widened once
                if cols < n_paths:
                    s.integral = np.hstack([s.integral, np.negative(s.integral, out=db)])
                s.integral += d_int
            for i, h in s.hist.items():
                for x in names:
                    h[x][k] = getattr(s, x)[i]
            yield s
            if k == n:
                break
            if det and not lean:
                sigma[det] = det_tab[k, :, None]
            for i, (spec, tab) in enumerate(group):
                if tab is None:
                    view = PathView(k, times[k], dt, band, *views[i][k % len(rates)])
                    sigma[i] = _feedback_sigma(spec, view)
                    if record:
                        s.hist[i]["sigma"][k] = sigma[i]
                elif tab.ndim == 2:
                    _fill_sigma(sigma[i], tab[k], levels)
            z_k = z_pm if antithetic and cols == n_paths else z[k]
            if z_k is z_pm:
                z_k[:half] = z[k]
                np.negative(z[k], out=z_k[half:])
            if terminal:  # N += sigma (w_k z_k), before sigma's buffer takes dqv
                s.integral += np.multiply(sigma, np.multiply(z_k, wts[k], out=wz[:cols]), out=db)
                if not stepped:
                    continue
            if with_r:  # r[k+1] = ea r[k] + m_det[k] (+ w_lam lam[k], shifted) + eh dB[k]
                np.multiply(s.r, ea, out=r_next)
                if not lean:  # a noise part takes no drift: ea rho[k]
                    if shifted:  # the shift term in dB's buffer, before dB is formed
                        np.multiply(s.lam, w_lam, out=shift)
                        shift += m_det[k]
                    r_next += shift if shifted else m_det[k]
            if lean:  # dB = (sigma sq) z from the pass's table
                s.b += np.multiply(sq_tab[k, :, None], z_k, out=db)
            else:
                np.multiply(sigma, sq, out=db)
                db *= z_k
                s.b += db
                dqv = np.square(sigma, out=sigma)  # in sigma's buffer, which the step no longer reads
                dqv *= dt
                s.qv += dqv
            if with_r:
                db *= eh
                r_next += db
                if not lean:
                    s.lam *= e2
                    s.lam += dqv
                if not terminal:
                    s.r += r_next  # the trapezoid of int r, (r[k+1] + r[k]) dt/2
                    s.r *= dt / 2.0
                    s.integral += s.r
                s.r, r_next = r_next, s.r
        # free this pass's arrays before the next builds its own
        group = tab = h = det_tab = sq_tab = views = rates = sigma = db = shift = r_next = None
        s.b = s.qv = s.lam = s.r = s.integral = s.hist = None
        s.r_bar = s.integral_bar = s.lam_bar = s.qv_bar = None


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

"""Volatility scenarios: concrete members of the admissible family.

Each scenario is one progressively measurable volatility process taking
values inside the band, i.e. one candidate law for the driving noise.  Four
kinds are supported:

* ``Constant``        -- a single level for all times.
* ``PiecewiseConstant`` -- levels switching at fixed breakpoint times
  (covers bang-bang scenarios hopping between the band edges).
* ``RandomSwitching`` -- a two-state jump process between the band edges
  with a given switch intensity, driven by its own seeded noise.
* ``AdaptedFeedback`` -- a named rule that reads the simulated state at the
  current grid time (``PathView``) and picks the next step's volatility from it.

Scenario families serialize to/from a plain JSON document so experiment
manifests can be stored next to their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .band import VolBand
from .errors import ValidationError, _check_int, _check_real, _check_reals

#: paths drawn per block where a chunk's per-path stream is written time-major
_PATH_BLOCK = 64


class ScenarioSpec:
    """Base class; concrete kinds implement validation and sampling."""

    #: feedback scenarios must be evaluated step by step inside the engine
    is_adaptive = False

    def validate(self, band: VolBand) -> None:
        raise NotImplementedError

    @property
    def scenario_id(self) -> str:
        raise NotImplementedError

    def sigma_table(self, times: np.ndarray, dt: float, n_paths: int, noise_key: int):
        """The member's volatility table for one chunk, time-major, so step ``k``
        reads ``tab[k]``: the ``(n_steps,)`` values of a deterministic kind, or a
        switching member's ``(n_steps, n_paths)`` bytes, one index into
        ``(sigma_lo, sigma_hi)`` per entry.  ``times`` are the left endpoints of
        the steps.  Adaptive kinds have none: the engine asks them for each
        step's values (``step_sigma``) instead."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(ScenarioSpec):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _check_real("value", self.value))

    def validate(self, band):
        if not band.contains(self.value):
            raise ValidationError(
                f"constant volatility {self.value} outside band "
                f"[{band.sigma_lo}, {band.sigma_hi}]"
            )

    @property
    def scenario_id(self):
        return f"const[{self.value:.6g}]"

    def sigma_table(self, times, dt, n_paths, noise_key):
        return np.full(times.shape, self.value)

    def to_json(self):
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class PiecewiseConstant(ScenarioSpec):
    """``values[i]`` applies on ``[times[i-1], times[i])`` with ``times``
    the interior breakpoints; the last value extends to infinity.
    Requires ``len(values) == len(times) + 1``."""

    times: tuple
    values: tuple

    def __post_init__(self):
        for name in ("times", "values"):
            object.__setattr__(self, name, tuple(_check_reals(name, getattr(self, name))))
        if len(self.values) != len(self.times) + 1:
            raise ValidationError("piecewise scenario needs len(values) == len(times) + 1")
        t = np.asarray(self.times)
        if t.size and not (np.all(np.diff(t) > 0) and t[0] > 0):
            raise ValidationError("breakpoint times must be strictly increasing and > 0")

    def validate(self, band):
        if not band.contains(self.values):
            raise ValidationError("piecewise volatility values leave the band")

    @property
    def scenario_id(self):
        levels = "/".join(f"{v:.4g}" for v in self.values)
        return f"piecewise[{levels}]"

    def sigma_table(self, times, dt, n_paths, noise_key):
        idx = np.searchsorted(np.asarray(self.times), times, side="right")
        return np.asarray(self.values)[idx]

    def to_json(self):
        return {"kind": "piecewise", "times": list(self.times), "values": list(self.values)}


@dataclass(frozen=True)
class RandomSwitching(ScenarioSpec):
    """Jumps between the band edges with the given switch intensity
    (expected number of switches per unit time).  The switching noise is
    seeded independently of the Gaussian driver noise."""

    intensity: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "intensity", _check_real("intensity", self.intensity, lo=0))
        _check_int("switching seed", self.seed, lo=0)

    def validate(self, band):
        pass  # levels are the band edges by construction

    @property
    def scenario_id(self):
        # no commas: ids appear as bare fields in CSV reports
        return f"switch[rate={self.intensity:.4g};seed={self.seed}]"

    def sigma_table(self, times, dt, n_paths, noise_key) -> np.ndarray:
        """The volatility path of each of ``n_paths`` paths as one byte per step,
        time-major, ``(n_steps, n_paths)``: 1 where it is ``sigma_hi``, 0 where
        ``sigma_lo``, so an index into ``(sigma_lo, sigma_hi)``.  The stream is read
        as one ``(n_paths, n_steps)`` draw would read it (each path's start, then
        each path's steps in turn), but ``_PATH_BLOCK`` paths at a time, so no
        full-size float array is made."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(noise_key,))
        )
        n_steps = times.size
        p_switch = -np.expm1(-self.intensity * dt)
        start_hi = rng.random(n_paths) < 0.5
        hi = np.empty((n_steps, n_paths), dtype=bool)
        for i in range(0, n_paths, _PATH_BLOCK):
            flips = rng.random((min(_PATH_BLOCK, n_paths - i), n_steps)) < p_switch
            # state after k flips: parity of the start and the flips so far (a flip
            # acts before its step, so the start state can switch at t=0+)
            flips[:, 0] ^= start_hi[i : i + _PATH_BLOCK]
            np.logical_xor.accumulate(flips, axis=1, out=flips)
            hi[:, i : i + _PATH_BLOCK] = flips.T
        return hi.view(np.uint8)

    def to_json(self):
        return {"kind": "switching", "intensity": self.intensity, "seed": self.seed}


@dataclass(frozen=True)
class AdaptedFeedback(ScenarioSpec):
    """Volatility chosen by a registered rule reading only the current state
    (``PathView``), which is all a Markov control needs."""

    rule: str
    params: dict = field(default_factory=dict)
    is_adaptive = True

    def __post_init__(self):
        if not isinstance(self.params, dict):
            raise ValidationError(f"feedback params must be an object (dict), got {self.params!r}")
        object.__setattr__(self, "params", dict(self.params))  # the caller's dict stays theirs

    def validate(self, band):
        if self.rule not in _FEEDBACK_RULES:
            raise ValidationError(
                f"unknown feedback rule '{self.rule}'; "
                f"registered: {sorted(_FEEDBACK_RULES)}"
            )

    @property
    def scenario_id(self):
        return f"feedback[{self.rule}]"

    def step_sigma(self, view) -> np.ndarray:
        return _FEEDBACK_RULES[self.rule](view, self.params)

    def to_json(self):
        return {"kind": "feedback", "rule": self.rule, "params": dict(self.params)}


class PathView:
    """Read-only look at the simulation's state at grid time ``t`` (index ``k``),
    before step ``k`` is taken (``k`` runs over ``0..n_steps-1``).

    ``b``, ``qv``, ``lam`` and ``r`` are rows at that time, one value per path;
    ``lam`` and ``r`` are None unless the short rate is co-simulated.  Rows are
    read-only views of the stepper's state, which it updates in place, so they are
    valid for the current step only; neither they nor any view can be made writeable.
    """

    __slots__ = ("k", "t", "dt", "band", "b", "qv", "lam", "r")

    def __init__(self, k, t, dt, band, b, qv, lam, r):
        self.k = k
        self.t = t
        self.dt = dt
        self.band = band
        self.b = b
        self.qv = qv
        self.lam = lam
        self.r = r


_FEEDBACK_RULES: dict[str, Callable[[PathView, dict], np.ndarray]] = {}


def register_feedback_rule(name: str, fn: Callable[[PathView, dict], np.ndarray]) -> None:
    """Register feedback rule ``name`` (overwrites silently): ``fn(view, params)`` returns
    step ``view.k``'s volatility, a scalar or one per path, from the ``PathView``'s rows
    of the current state, and copies what it keeps past its call.
    ``name`` must be a ``str`` and ``fn`` callable."""
    if not isinstance(name, str):
        raise ValidationError(f"feedback rule name must be a str, got {name!r}")
    if not callable(fn):
        raise ValidationError(f"feedback rule {name!r} must be callable, got {fn!r}")
    _FEEDBACK_RULES[name] = fn


def _rule_driver_sign(view: PathView, params: dict) -> np.ndarray:
    threshold = params.get("threshold", 0.0)
    return np.where(view.b >= threshold, view.band.sigma_hi, view.band.sigma_lo)


def _rule_qv_chase(view: PathView, params: dict) -> np.ndarray:
    # run hot while realized variance trails the mid-band line, cool above it
    mid_var = view.band.midpoint**2 * view.t
    return np.where(view.qv <= mid_var, view.band.sigma_hi, view.band.sigma_lo)


register_feedback_rule("driver_sign", _rule_driver_sign)
register_feedback_rule("qv_chase", _rule_qv_chase)


def bang_bang(band: VolBand, horizon: float, n_segments: int, start_high: bool = True) -> PiecewiseConstant:
    """Piecewise-constant scenario alternating between the band edges on
    ``n_segments`` equal slices of ``[0, horizon]``."""
    _check_int("n_segments", n_segments, lo=1)
    times = tuple(horizon * k / n_segments for k in range(1, n_segments))
    edges = (band.sigma_hi, band.sigma_lo) if start_high else (band.sigma_lo, band.sigma_hi)
    values = tuple(edges[k % 2] for k in range(n_segments))
    return PiecewiseConstant(times=times, values=values)


def default_scenario_family(
    band: VolBand,
    n_constant: int,
    n_switching: int,
    seed: int,
    horizon: float = 1.0,
) -> list[ScenarioSpec]:
    """Standard finite family probing the band.

    Always contains the two extreme constants (they realize the worst and
    best case for variance-monotone payoffs), an even grid of constants in
    between, bang-bang scenarios of 2 and 4 segments, and ``n_switching``
    random-switching scenarios with seeds derived from ``seed``, an integer >= 0.
    """
    _check_int("seed", seed, lo=0)
    _check_int("n_constant", n_constant, lo=2)  # both band edges
    _check_int("n_switching", n_switching, lo=0)
    family: list[ScenarioSpec] = [
        Constant(v) for v in np.linspace(band.sigma_lo, band.sigma_hi, n_constant)
    ]
    family.append(bang_bang(band, horizon, n_segments=2, start_high=True))
    family.append(bang_bang(band, horizon, n_segments=4, start_high=False))
    for j in range(n_switching):
        family.append(RandomSwitching(intensity=2.0 * (j + 1), seed=int(seed) + j))
    for s in family:
        s.validate(band)
    return family


def family_to_json(band: VolBand, scenarios: Sequence[ScenarioSpec]) -> dict:
    return {
        "band": {"lo": band.sigma_lo, "hi": band.sigma_hi},
        "scenarios": [s.to_json() for s in scenarios],
    }


def family_from_json(doc: dict) -> tuple[VolBand, list[ScenarioSpec]]:
    try:
        band = VolBand(doc["band"]["lo"], doc["band"]["hi"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed scenario document: {exc}") from exc
    entries = doc.get("scenarios", [])
    if not isinstance(entries, list):
        raise ValidationError("malformed scenario document: 'scenarios' must be a list")
    scenarios: list[ScenarioSpec] = []
    for i, entry in enumerate(entries):
        try:
            kind = entry.get("kind")
            if kind == "constant":
                spec: ScenarioSpec = Constant(entry["value"])
            elif kind == "piecewise":
                spec = PiecewiseConstant(entry["times"], entry["values"])
            elif kind == "switching":
                spec = RandomSwitching(entry["intensity"], entry["seed"])
            elif kind == "feedback":
                spec = AdaptedFeedback(entry["rule"], entry.get("params", {}))
            else:
                raise ValidationError(f"unknown scenario kind '{kind}'")
        except (KeyError, TypeError, AttributeError, ValidationError) as exc:
            raise ValidationError(
                f"malformed scenario entry {i}: {type(exc).__name__}: {exc}"
            ) from exc
        spec.validate(band)
        scenarios.append(spec)
    return band, scenarios

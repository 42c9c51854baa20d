"""Volatility scenarios: concrete members of the admissible family.

Each scenario is one progressively measurable volatility process taking
values inside the band, i.e. one candidate law for the driving noise.  Four
kinds are supported:

* ``Constant``        -- a single level for all times.
* ``PiecewiseConstant`` -- levels switching at fixed breakpoint times
  (covers bang-bang scenarios hopping between the band edges).
* ``RandomSwitching`` -- a two-state jump process between the band edges
  with a given switch intensity, driven by its own seeded noise.
* ``AdaptedFeedback`` -- a named rule that reads the simulated path strictly
  before the current step and picks the next volatility from it.

Scenario families serialize to/from a plain JSON document so experiment
manifests can be stored next to their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .band import VolBand
from .errors import ValidationError, _is_int, _to_float


class ScenarioSpec:
    """Base class; concrete kinds implement validation and sampling."""

    #: feedback scenarios must be evaluated step by step inside the engine
    is_adaptive = False

    def validate(self, band: VolBand) -> None:
        raise NotImplementedError

    @property
    def scenario_id(self) -> str:
        raise NotImplementedError

    def sigma_table(self, band: VolBand, times: np.ndarray, dt: float, n_paths: int, noise_key: int):
        """Per-step volatility values.

        Returns an array of shape ``(n_steps,)`` for deterministic kinds or
        ``(n_paths, n_steps)`` for randomly switching ones.  ``times`` are
        the left endpoints of the steps.  Adaptive kinds return None.
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(ScenarioSpec):
    value: float

    def validate(self, band):
        if not band.contains(self.value):
            raise ValidationError(
                f"constant volatility {self.value} outside band "
                f"[{band.sigma_lo}, {band.sigma_hi}]"
            )

    @property
    def scenario_id(self):
        return f"const[{self.value:.6g}]"

    def sigma_table(self, band, times, dt, n_paths, noise_key):
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
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != len(self.times) + 1:
            raise ValidationError(
                "piecewise scenario needs len(values) == len(times) + 1"
            )
        t = np.asarray(self.times)
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise ValidationError("breakpoint times must be strictly increasing and > 0")

    def validate(self, band):
        if not band.contains(self.values):
            raise ValidationError("piecewise volatility values leave the band")

    @property
    def scenario_id(self):
        levels = "/".join(f"{v:.4g}" for v in self.values)
        return f"piecewise[{levels}]"

    def sigma_table(self, band, times, dt, n_paths, noise_key):
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
        if not (np.isfinite(self.intensity) and self.intensity >= 0):
            raise ValidationError("switch intensity must be finite and >= 0")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValidationError(f"switching seed must be an integer >= 0, got {self.seed!r}")

    def validate(self, band):
        pass  # levels are the band edges by construction

    @property
    def scenario_id(self):
        # no commas: ids appear as bare fields in CSV reports
        return f"switch[rate={self.intensity:.4g};seed={self.seed}]"

    def sigma_table(self, band, times, dt, n_paths, noise_key):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(noise_key,))
        )
        n_steps = times.size
        p_switch = -np.expm1(-self.intensity * dt)
        start_hi = rng.random(n_paths) < 0.5
        flips = rng.random((n_paths, n_steps)) < p_switch
        # state after k flips: parity of cumulative flip count (flip acts
        # before the step so the start state can switch at t=0+)
        parity = np.logical_xor.accumulate(flips, axis=1)
        hi_state = start_hi[:, None] ^ parity
        return np.where(hi_state, band.sigma_hi, band.sigma_lo)

    def to_json(self):
        return {"kind": "switching", "intensity": self.intensity, "seed": self.seed}


@dataclass(frozen=True)
class AdaptedFeedback(ScenarioSpec):
    """Volatility chosen by a registered rule reading only past path data."""

    rule: str
    params: dict = field(default_factory=dict)
    is_adaptive = True

    def validate(self, band):
        if self.rule not in _FEEDBACK_RULES:
            raise ValidationError(
                f"unknown feedback rule '{self.rule}'; "
                f"registered: {sorted(_FEEDBACK_RULES)}"
            )

    @property
    def scenario_id(self):
        return f"feedback[{self.rule}]"

    def sigma_table(self, band, times, dt, n_paths, noise_key):
        return None

    def step_sigma(self, view) -> np.ndarray:
        return _FEEDBACK_RULES[self.rule](view, self.params)

    def to_json(self):
        return {"kind": "feedback", "rule": self.rule, "params": dict(self.params)}


class PathView:
    """Read-only look at the simulation strictly before the current step.

    ``sigma`` holds steps ``0..k-1``; ``b``, ``qv`` and (when co-simulated)
    ``r`` hold grid points ``0..k``.  Arrays are non-writeable views.
    """

    __slots__ = ("k", "t", "dt", "band", "sigma", "b", "qv", "r")

    def __init__(self, k, t, dt, band, sigma, b, qv, r):
        self.k = k
        self.t = t
        self.dt = dt
        self.band = band
        self.sigma = sigma
        self.b = b
        self.qv = qv
        self.r = r


_FEEDBACK_RULES: dict[str, Callable[[PathView, dict], np.ndarray]] = {}


def register_feedback_rule(name: str, fn: Callable[[PathView, dict], np.ndarray]) -> None:
    """Register a feedback rule under ``name`` (overwrites silently).  The rule
    returns step ``view.k``'s volatility: a scalar or one value per path."""
    _FEEDBACK_RULES[name] = fn


def _rule_driver_sign(view: PathView, params: dict) -> np.ndarray:
    threshold = params.get("threshold", 0.0)
    return np.where(view.b[:, view.k] >= threshold, view.band.sigma_hi, view.band.sigma_lo)


def _rule_qv_chase(view: PathView, params: dict) -> np.ndarray:
    # run hot while realized variance trails the mid-band line, cool above it
    mid_var = view.band.midpoint**2 * view.t
    return np.where(view.qv[:, view.k] <= mid_var, view.band.sigma_hi, view.band.sigma_lo)


register_feedback_rule("driver_sign", _rule_driver_sign)
register_feedback_rule("qv_chase", _rule_qv_chase)


def bang_bang(band: VolBand, horizon: float, n_segments: int, start_high: bool = True) -> PiecewiseConstant:
    """Piecewise-constant scenario alternating between the band edges on
    ``n_segments`` equal slices of ``[0, horizon]``."""
    if n_segments < 1:
        raise ValidationError("bang-bang needs at least one segment")
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
    random-switching scenarios with seeds derived from ``seed``.
    """
    if n_constant < 2:
        raise ValidationError("n_constant must be >= 2 so both band edges are present")
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
        band = VolBand(_to_float(doc["band"]["lo"]), _to_float(doc["band"]["hi"]))
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
                spec: ScenarioSpec = Constant(_to_float(entry["value"]))
            elif kind == "piecewise":
                times, values = (tuple(map(_to_float, entry[x])) for x in ("times", "values"))
                spec = PiecewiseConstant(times, values)
            elif kind == "switching":
                spec = RandomSwitching(_to_float(entry["intensity"]), entry["seed"])
            elif kind == "feedback":
                spec = AdaptedFeedback(entry["rule"], dict(entry.get("params", {})))
            else:
                raise ValidationError(f"unknown scenario kind '{kind}'")
        except (KeyError, TypeError, AttributeError, ValidationError) as exc:
            raise ValidationError(
                f"malformed scenario entry {i}: {type(exc).__name__}: {exc}"
            ) from exc
        spec.validate(band)
        scenarios.append(spec)
    return band, scenarios

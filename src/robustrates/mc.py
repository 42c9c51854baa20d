"""Worst/best-case expectation estimator over a finite scenario family.

The upper expectation of a path functional is estimated as the maximum of
per-scenario Monte Carlo means, the lower as the minimum.  All scenarios
share the same underlying Gaussian draws (common random numbers), so
scenario comparisons are paired and a degenerate band collapses the
estimate to a single classical mean exactly.

Seeding: paths are simulated in fixed-size chunks; the Gaussian stream of
chunk ``c`` is derived from ``SeedSequence(base_seed, spawn_key=(c,))`` and
is the same for every scenario, so one driver (``_sample``) steps them all on it.
Results are therefore bit-identical across runs and independent of how
scenarios are ordered or parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .band import VolBand
from .errors import NumericalError, ValidationError, _check_int
from .paths import PathBundle, RateParams, TimeGrid, _bundle, _steps
from .scenarios import ScenarioSpec

#: paths per simulation chunk; fixed so chunked results are reproducible
CHUNK_PATHS = 8192

PathFunctional = Callable[[PathBundle], np.ndarray]


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    horizon: float
    base_seed: int
    antithetic: bool = False

    def __post_init__(self):
        _check_int("n_paths", self.n_paths, lo=1)
        _check_int("base_seed", self.base_seed, lo=0)
        TimeGrid(self.horizon, self.n_steps)  # validates horizon and n_steps
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValidationError(f"antithetic must be a bool, got {self.antithetic!r}")
        if self.antithetic and self.n_paths % 2:
            raise ValidationError("antithetic sampling needs an even n_paths")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.n_steps)


@dataclass(frozen=True)
class ScenarioStat:
    scenario_id: str
    mean: float
    se: float
    n_samples: int


@dataclass(frozen=True)
class SublinearEstimate:
    """Upper/lower expectation with per-scenario backing statistics."""

    upper: float
    lower: float
    upper_se: float
    lower_se: float
    argmax_scenario: str
    argmin_scenario: str
    per_scenario: tuple

    @property
    def spread(self) -> float:
        return self.upper - self.lower


def _dedupe_ids(scenarios: Sequence[ScenarioSpec]) -> list[str]:
    if not scenarios:
        raise ValidationError("scenario family is empty")
    seen: dict[str, int] = {}
    ids = []
    for s in scenarios:
        base = s.scenario_id
        if base in seen:
            seen[base] += 1
            ids.append(f"{base}#{seen[base]}")
        else:
            seen[base] = 0
            ids.append(base)
    return ids


def _chunks(cfg: McConfig) -> Iterator[tuple[int, np.random.Generator, int]]:
    """The one seeding rule, as ``(chunk index, generator, paths in chunk)``:
    chunk ``c`` holds up to ``CHUNK_PATHS`` paths, draws from
    ``SeedSequence(base_seed, spawn_key=(c,))`` and keys the scenarios' own
    switching noise with ``c``."""
    for ci, start in enumerate(range(0, cfg.n_paths, CHUNK_PATHS)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.base_seed, spawn_key=(ci,))
        )
        yield ci, rng, min(CHUNK_PATHS, cfg.n_paths - start)


def _pair_means(x: np.ndarray, antithetic: bool) -> np.ndarray:
    """Average each path with its antithetic mate (rows ``i`` and
    ``i + m/2``) so the samples stay independent."""
    if not antithetic:
        return x
    half = x.shape[0] // 2
    return 0.5 * (x[:half] + x[half:])


def _sample(scenarios, band, cfg, params, dynamics, reduce, rows=1, **step):
    """The one chunk driver: on each chunk (``_chunks``) every member steps on the
    chunk's one draw (``_steps``, taking ``step``), and ``reduce(states, out)`` fills
    a ``(members, rows, paths)`` buffer from that state stream.  Returns the member
    ids and one sample per row ``j`` (member ``j // rows``), each averaged over
    antithetic pairs; a non-finite value names the first bad member and path."""
    ids = _dedupe_ids(scenarios)
    pieces = []
    for ci, rng, m in _chunks(cfg):
        out = np.empty((len(scenarios), rows, m))
        reduce(_steps(scenarios, band, cfg.grid, rng, m, params, dynamics, cfg.antithetic, ci,
                      **step), out)
        values = out.reshape(-1, m)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            sid, path = ids[bad[0, 0] // rows], ci * CHUNK_PATHS + int(bad[0, 1])
            raise NumericalError(f"non-finite functional value in scenario '{sid}' at path {path}")
        pieces.append(_pair_means(values.T, cfg.antithetic).T)
    return ids, list(np.ascontiguousarray(np.hstack(pieces)))


def scenario_functional_values(
    functional: PathFunctional,
    band: VolBand,
    family: Sequence[ScenarioSpec],
    cfg: McConfig,
    params: Optional[RateParams] = None,
    dynamics: str = "original",
) -> tuple[list[str], list[np.ndarray]]:
    """Per-scenario functional samples, aligned across scenarios by common
    random numbers.  With ``cfg.antithetic`` each returned entry is the
    average over one antithetic pair (so entries stay independent and the
    usual ``std/sqrt(n)`` error applies).  The family steps on each chunk's
    one draw, and each member's recorded bundle goes to ``functional``."""

    def checked(bundle):
        vals = np.asarray(functional(bundle), dtype=float)
        if vals.shape != (bundle.n_paths,):
            raise ValidationError(f"functional must return one value per path; "
                                  f"got shape {vals.shape} for {bundle.n_paths} paths")
        return vals

    def bundle_values(states, out):  # histories popped, so each bundle goes before the next
        for s in states:
            if s.k == cfg.n_steps:
                for i, spec in enumerate(family[s.rows]):
                    out[s.rows.start + i, 0] = checked(_bundle(spec, s.hist.pop(i), cfg.grid))

    return _sample(family, band, cfg, params, dynamics, bundle_values, record=True)


def _mean_se(vals: np.ndarray):
    """Mean and standard error along axis 0, the variance by two passes."""
    n = vals.shape[0]
    mean = np.mean(vals, axis=0)
    se = np.std(vals, axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def _stats(ids: Sequence[str], values: Sequence[np.ndarray]) -> list[ScenarioStat]:
    """The one place a mean and se are made, by :func:`_mean_se` on each
    scenario's samples; a non-finite mean or se names the scenario."""
    stats = []
    for sid, vals in zip(ids, values):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported next
            mean, se = _mean_se(vals)
        if not (np.isfinite(mean) and np.isfinite(se)):
            raise NumericalError(f"non-finite mean or se in scenario '{sid}'")
        stats.append(ScenarioStat(sid, float(mean), float(se), vals.size))
    return stats


def _sublinear(ids: Sequence[str], values: Sequence[np.ndarray]) -> SublinearEstimate:
    """Per-scenario statistics and the scenarios attaining the extremes."""
    stats = _stats(ids, values)
    means = np.array([s.mean for s in stats])
    up = stats[int(np.argmax(means))]
    lo = stats[int(np.argmin(means))]
    return SublinearEstimate(
        upper=up.mean,
        lower=lo.mean,
        upper_se=up.se,
        lower_se=lo.se,
        argmax_scenario=up.scenario_id,
        argmin_scenario=lo.scenario_id,
        per_scenario=tuple(stats),
    )


def estimate_sublinear(
    functional: PathFunctional,
    band: VolBand,
    family: Sequence[ScenarioSpec],
    cfg: McConfig,
    params: Optional[RateParams] = None,
    dynamics: str = "original",
) -> SublinearEstimate:
    """Upper and lower expectation of ``functional`` over the family.

    ``params`` activates short-rate co-simulation (``bundle.lam``, ``r`` and
    ``d`` populated) so rate-dependent functionals can be estimated under
    either ``original`` or ``shifted`` dynamics.
    """
    return _sublinear(
        *scenario_functional_values(functional, band, family, cfg, params, dynamics)
    )

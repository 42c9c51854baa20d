"""The benchmark's four workloads: inputs built from a seed, one public-API
operation each, and the check that operation's answer must pass.

Every Monte Carlo workload uses the band ``[0.005, 0.02]``, ``r0 = 0.02``,
``alpha = 1``, ``mu = 0``, ``T = 1`` and antithetic pairs, so every answer
has an exact reference computed here from closed forms, independently of
the library's own quadratures.

Statistical agreement is tested at ``Z_AGREE`` standard errors.  The
library's pass rule is 3 se per row, fitted to one frozen seed; the
benchmark runs arbitrary seeds many times and one operation holds up to 20
such tests, so at 3 se a correct program would fail some seeds by chance.
At 4.5 se the chance that any test of one operation fails by chance is at
most 20 * 6.8e-6 = 1.4e-4.  The power fixture must fail the same 4.5 se
test that shifted rows must pass; the gap must exceed the library's 3 se.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# pinned before numpy loads its BLAS, so every run is one thread
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import robustrates as rr  # noqa: E402

if Path(rr.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"robustrates was imported from {rr.__file__}, not from {SRC}")

BAND = rr.VolBand(0.005, 0.02)
PARAMS = rr.RateParams(r0=0.02, alpha=1.0, mu=0.0)
HORIZON = 1.0
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
#: a quarter of one CHUNK_PATHS chunk: ops of about a second, peak RSS below 300 MB
N_PATHS = 2048
NODES_PER_WIDTH = 100
Z_AGREE = 4.5
Z_SIGNIFICANT = 3.0

# closed forms for mu = 0, alpha = 1, T = 1: B(s) = 1 - exp(-(1 - s)) and
# int_0^1 B^2 ds = 1 - 2 (1 - e^-1) + (1 - e^-2) / 2
_B0 = 1.0 - math.exp(-1.0)
_INT_B2 = 1.0 - 2.0 * (1.0 - math.exp(-1.0)) + 0.5 * (1.0 - math.exp(-2.0))


def classical_price(sigma: float) -> float:
    """Constant-volatility bond price at time 0, ``exp(sigma^2 int B^2 / 2 - B r0)``."""
    return math.exp(0.5 * sigma**2 * _INT_B2 - _B0 * PARAMS.r0)


#: time-0 robust price; with mu = 0 and lam_0 = 0 it is exp(-B r0)
ROBUST_P0 = math.exp(-_B0 * PARAMS.r0)


@dataclass(frozen=True)
class Inputs:
    """What one operation consumes, plus its fixed amount of work."""

    scenarios: tuple
    cfg: Any
    updates: int
    power: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], Inputs]
    run: Callable[[Inputs], Any]
    check: Callable[[Inputs, Any], list]
    rows: Callable[[Any], list]
    headline_error: Callable[[Any], float]
    reference: Callable[[], Any]


# ---------------------------------------------------- reference kernels
#
# Fixed numpy work, independent of the library, of the same kind as a
# workload's inner loop; each takes about 0.15 s on a 2-vCPU Xeon.  The
# benchmark times one after every operation and reports operation times as
# multiples of it: a slow phase of a shared host slows both alike, so the
# ratio holds still while wall times wander by up to 2x within minutes.


def reference_columns(n_paths: int = N_PATHS, n_steps: int = 256, passes: int = 8):
    """Step recursion over the columns of a (paths, steps + 1) array, as the
    Monte Carlo engine runs it: antithetic normals, one strided column
    update per step."""
    z = np.random.default_rng(0).standard_normal((n_paths // 2, n_steps))
    z = np.vstack([z, -z])
    a = np.zeros((n_paths, n_steps + 1))
    for _ in range(passes):
        for k in range(n_steps):
            a[:, k + 1] = a[:, k] * 0.99 + 0.01 * z[:, k] * np.exp(-0.1 * a[:, k])
    return a


def reference_stencil(n_nodes: int = 1600, n_levels: int = 6000):
    """Explicit three-point sweep with a sign-dependent coefficient on
    ``n_nodes`` nodes, the size the ``gheat`` workload's grid has."""
    u = np.cos(np.linspace(-8.0, 8.0, n_nodes))
    for _ in range(n_levels):
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * 0.25
        u[1:-1] += 0.5 * np.where(d2 >= 0.0, 0.8 * d2, 0.2 * d2)
        if np.isnan(u).any():
            raise FloatingPointError("reference stencil diverged")
    return u


def _g(x: float) -> str:
    return f"{x:.17g}"


def digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------- gap


def build_gap(seed: int, n_paths: int = N_PATHS) -> Inputs:
    family = rr.default_scenario_family(BAND, n_constant=12, n_switching=6, seed=seed, horizon=HORIZON)
    cfg = rr.McConfig(n_paths=n_paths, n_steps=256, horizon=HORIZON, base_seed=seed, antithetic=True)
    return Inputs(tuple(family), cfg, updates=len(family) * n_paths * cfg.n_steps)


def run_gap(inp: Inputs):
    return rr.noarb_gap(PARAMS, BAND, HORIZON, list(inp.scenarios), inp.cfg)


def check_gap(inp: Inputs, rep) -> list:
    problems = []
    if len(rep.per_scenario) != len(inp.scenarios):
        problems.append(f"{len(rep.per_scenario)} scenario rows for {len(inp.scenarios)} scenarios")
    if not rep.gap > Z_SIGNIFICANT * rep.gap_se:
        problems.append(f"gap {rep.gap:.6g} not above {Z_SIGNIFICANT} se ({rep.gap_se:.3g})")
    cf_gap = classical_price(BAND.sigma_hi) - classical_price(BAND.sigma_lo)
    if not abs(rep.gap - cf_gap) <= Z_AGREE * rep.gap_se:
        problems.append(f"gap {rep.gap:.10g} vs closed form {cf_gap:.10g} beyond {Z_AGREE} se")
    stats = {s.scenario_id: s for s in rep.per_scenario}
    for sigma in (BAND.sigma_hi, BAND.sigma_lo):
        s = stats.get(rr.Constant(sigma).scenario_id)
        ref = classical_price(sigma)
        if s is None:
            problems.append(f"edge scenario sigma={sigma} missing")
        elif not abs(s.mean - ref) <= Z_AGREE * s.se:
            problems.append(f"{s.scenario_id} mean {s.mean:.12g} vs {ref:.12g} beyond {Z_AGREE} se")
    return problems


def rows_gap(rep) -> list:
    rows = [[s.scenario_id, _g(s.mean), _g(s.se)] for s in rep.per_scenario]
    return rows + [["gap", _g(rep.gap), _g(rep.gap_se)]]


# ------------------------------------------------------ verify, adaptive


@dataclass(frozen=True)
class MartingaleAnswer:
    shifted: tuple
    power: tuple = ()


def run_martingale(inp: Inputs) -> MartingaleAnswer:
    shifted = rr.martingale_check(PARAMS, BAND, list(inp.scenarios), HORIZON, CHECKPOINTS, inp.cfg)
    power = ()
    if inp.power:
        power = rr.martingale_check(
            PARAMS, BAND, list(inp.power), HORIZON, CHECKPOINTS, inp.cfg, dynamics="original"
        )
    return MartingaleAnswer(tuple(shifted), tuple(power))


def _agrees(row) -> bool:
    return abs(row.mean - ROBUST_P0) <= Z_AGREE * row.se


def check_martingale(inp: Inputs, ans: MartingaleAnswer) -> list:
    problems = []
    if len(ans.shifted) != len(inp.scenarios) or len(ans.power) != len(inp.power):
        problems.append("one report per scenario expected")
    five_dt = 5.0 * HORIZON / inp.cfg.n_steps
    for rep in ans.shifted:
        if len(rep.checkpoints) != len(CHECKPOINTS):
            problems.append(f"{rep.scenario_id}: {len(rep.checkpoints)} checkpoint rows")
        for row in rep.checkpoints:
            if not _agrees(row):
                problems.append(
                    f"{rep.scenario_id} t={row.t}: mean {row.mean:.12g} vs {ROBUST_P0:.12g} "
                    f"beyond {Z_AGREE} se ({row.se:.3g})"
                )
        if not rep.terminal_max_abs_error <= five_dt:
            problems.append(
                f"{rep.scenario_id}: terminal error {rep.terminal_max_abs_error:.3g} > 5 dt"
            )
    for rep in ans.power:
        if all(_agrees(row) for row in rep.checkpoints):
            problems.append(f"power fixture {rep.scenario_id} passed under original dynamics")
    return problems


def rows_martingale(ans: MartingaleAnswer) -> list:
    rows = []
    for tag, reports in (("shifted", ans.shifted), ("original", ans.power)):
        for rep in reports:
            rows += [[tag, rep.scenario_id, _g(c.t), _g(c.mean), _g(c.se)] for c in rep.checkpoints]
            rows.append([tag, rep.scenario_id, "terminal", _g(rep.terminal_max_abs_error)])
    return rows


def largest_shifted_se(ans: MartingaleAnswer) -> float:
    return max(c.se for rep in ans.shifted for c in rep.checkpoints)


def build_verify(seed: int, n_paths: int = N_PATHS) -> Inputs:
    scenarios = (
        rr.Constant(BAND.sigma_lo),
        rr.Constant(BAND.sigma_hi),
        rr.Constant(BAND.midpoint),
        rr.bang_bang(BAND, HORIZON, n_segments=2, start_high=True),
        rr.bang_bang(BAND, HORIZON, n_segments=4, start_high=False),
    )
    power = (rr.Constant(BAND.sigma_lo), rr.Constant(BAND.sigma_hi))
    cfg = rr.McConfig(n_paths=n_paths, n_steps=512, horizon=HORIZON, base_seed=seed, antithetic=True)
    updates = (len(scenarios) + len(power)) * n_paths * cfg.n_steps
    return Inputs(scenarios, cfg, updates, power)


def build_adaptive(seed: int, n_paths: int = N_PATHS) -> Inputs:
    scenarios = (
        rr.AdaptedFeedback("driver_sign"),
        rr.AdaptedFeedback("qv_chase"),
        rr.RandomSwitching(4.0, seed),
        rr.Constant(0.02),
    )
    cfg = rr.McConfig(n_paths=n_paths, n_steps=512, horizon=HORIZON, base_seed=seed, antithetic=True)
    return Inputs(scenarios, cfg, len(scenarios) * n_paths * cfg.n_steps)


# ---------------------------------------------------------------- gheat

#: (name, payoff, oracle): worst-case expectations of phi(B_1) under the band
PAYOFFS = (
    ("relu", lambda x: np.maximum(x, 0.0), BAND.sigma_hi / math.sqrt(2.0 * math.pi)),
    ("square", lambda x: x * x, BAND.sigma_hi**2),
    ("negsquare", lambda x: -(x * x), -(BAND.sigma_lo**2)),
)
GHEAT_TOLERANCE = 0.01
_PAD_WIDTHS = 8.0  # gexpectation_terminal's default


def build_gheat(seed: int, nodes_per_width: int = NODES_PER_WIDTH) -> Inputs:
    """No randomness: the seed is accepted and unused.  The work is the node
    count times the time levels of the explicit grid at these settings."""
    half = _PAD_WIDTHS * BAND.sigma_hi * math.sqrt(HORIZON)
    nx = 2 * int(round(_PAD_WIDTHS * nodes_per_width))
    grid = rr.Grid1D.with_cfl(BAND, -half, half, nx, HORIZON)
    return Inputs(PAYOFFS, nodes_per_width, updates=len(PAYOFFS) * grid.nx * grid.nt)


def run_gheat(inp: Inputs) -> tuple:
    return tuple(
        rr.gexpectation_terminal(phi, BAND, HORIZON, nodes_per_width=inp.cfg)
        for _, phi, _ in inp.scenarios
    )


def check_gheat(inp: Inputs, values: tuple) -> list:
    problems = []
    for (name, _, oracle), v in zip(inp.scenarios, values):
        if not abs(v - oracle) <= GHEAT_TOLERANCE * abs(oracle):
            problems.append(f"{name}: {v:.10g} vs oracle {oracle:.10g} beyond {GHEAT_TOLERANCE:.0%}")
    return problems


def rows_gheat(values: tuple) -> list:
    return [[name, _g(v)] for (name, _, _), v in zip(PAYOFFS, values)]


def relu_error(values: tuple) -> float:
    return abs(values[0] - PAYOFFS[0][2])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gap", build_gap, run_gap, check_gap, rows_gap, lambda rep: rep.gap_se, reference_columns),
        Workload(
            "verify", build_verify, run_martingale, check_martingale, rows_martingale,
            largest_shifted_se, reference_columns,
        ),
        Workload(
            "adaptive", build_adaptive, run_martingale, check_martingale, rows_martingale,
            largest_shifted_se, reference_columns,
        ),
        Workload("gheat", build_gheat, run_gheat, check_gheat, rows_gheat, relu_error, reference_stencil),
    )
}

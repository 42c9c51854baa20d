"""Frozen Monte Carlo outputs: refactors of the chunk driver, the engine and
the statistics must reproduce ``tests/golden.json``.

Everything must match bit for bit except the martingale summaries, whose
arithmetic may be reordered: checkpoint means within 4 ulp, checkpoint se
within 1e-3 relative, the drift fit within 1e-4 of its se.  The terminal
identity error ``|x - 1|``, with ``x`` near 1, is rounded on the scale of
1.0, so it must lie within 4 ulp(1.0).

The file was written by ``PYTHONPATH=src python tests/test_golden.py --write``
before the code it guards was refactored.  The values are those of one
numpy build on x86-64; rewrite the file only from a commit whose outputs are
known to be right.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from robustrates import (
    AdaptedFeedback,
    Constant,
    McConfig,
    RandomSwitching,
    RateParams,
    TimeGrid,
    VolBand,
    bang_bang,
    default_scenario_family,
    estimate_sublinear,
    lambda_path,
    martingale_check,
    noarb_gap,
    simulate_bundle,
)
from robustrates.mc import CHUNK_PATHS

GOLDEN = Path(__file__).with_name("golden.json")
BAND = VolBand(0.005, 0.02)
PARAMS = RateParams(r0=0.02, alpha=1.0, mu=0.03)
N_PATHS = CHUNK_PATHS + 2  # one full chunk and a one-pair remainder


def _stats(rows):
    return [[s.scenario_id, s.mean, s.se, s.n_samples] for s in rows]


def _gap():
    family = default_scenario_family(BAND, n_constant=12, n_switching=6, seed=3)
    cfg = McConfig(n_paths=N_PATHS, n_steps=32, horizon=1.0, base_seed=11, antithetic=True)
    rep = noarb_gap(PARAMS, BAND, 1.0, family, cfg)
    return {
        "per_scenario": _stats(rep.per_scenario),
        "gap_se": rep.gap_se,
        "argmax": rep.argmax_scenario,
        "argmin": rep.argmin_scenario,
    }


def _sublinear():
    family = [
        Constant(BAND.sigma_lo),
        Constant(BAND.sigma_hi),
        AdaptedFeedback("driver_sign"),
        AdaptedFeedback("qv_chase"),
        RandomSwitching(intensity=3.0, seed=5),
        bang_bang(BAND, 1.0, n_segments=4),
    ]
    cfg = McConfig(n_paths=N_PATHS, n_steps=16, horizon=1.0, base_seed=4)
    est = estimate_sublinear(
        lambda b: b.r[:, -1] / b.d[:, -1], BAND, family, cfg, params=PARAMS, dynamics="shifted"
    )
    return {
        "per_scenario": _stats(est.per_scenario),
        "argmax": est.argmax_scenario,
        "argmin": est.argmin_scenario,
    }


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bundle():
    grid = TimeGrid(1.0, 32)
    bundle = simulate_bundle(
        RandomSwitching(intensity=4.0, seed=9), BAND, grid, PARAMS,
        seed=5, n_paths=64, dynamics="shifted", antithetic=True,
    )
    original = simulate_bundle(
        RandomSwitching(intensity=4.0, seed=9), BAND, grid, PARAMS,
        seed=5, n_paths=64, dynamics="original", antithetic=True,
    )
    return {
        "bundle": _sha(bundle.sigma, bundle.b, bundle.qv, bundle.lam, bundle.r, bundle.d),
        "bundle_original": _sha(
            original.sigma, original.b, original.qv, original.lam, original.r, original.d
        ),
        "lambda_path": _sha(lambda_path(bundle.qv, PARAMS.alpha, grid.dt)),
    }


def _martingale_rows(reports):
    return [
        {
            "scenario": rep.scenario_id,
            "checkpoints": [[c.t, c.mean, c.se, c.reference] for c in rep.checkpoints],
            "drift": [rep.drift_slope, rep.drift_slope_se, rep.drift_intercept, rep.drift_intercept_se],
            "terminal_max_abs_error": rep.terminal_max_abs_error,
        }
        for rep in reports
    ]


def _martingale():
    cfg = McConfig(n_paths=N_PATHS, n_steps=32, horizon=1.0, base_seed=2, antithetic=True)
    checkpoints = [0.25, 0.5, 0.75, 1.0]
    shifted = [
        Constant(BAND.sigma_lo),
        Constant(BAND.sigma_hi),
        bang_bang(BAND, 1.0, n_segments=4),
        RandomSwitching(intensity=2.0, seed=7),
        AdaptedFeedback("driver_sign"),
    ]
    edges = [Constant(BAND.sigma_lo), Constant(BAND.sigma_hi)]
    return {
        "shifted": _martingale_rows(martingale_check(PARAMS, BAND, shifted, 1.0, checkpoints, cfg)),
        "original": _martingale_rows(
            martingale_check(PARAMS, BAND, edges, 1.0, checkpoints, cfg, dynamics="original")
        ),
    }


SECTIONS = {"gap": _gap, "sublinear": _sublinear, "bundle": _bundle, "martingale": _martingale}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", ["gap", "sublinear", "bundle"])
def test_bit_identical(golden, name):
    # a JSON round trip keeps floats exact, so plain equality is bitwise
    assert json.loads(json.dumps(SECTIONS[name]())) == golden[name]


def _within_ulps(got, want, n):
    return abs(got - want) <= n * math.ulp(want)


def test_martingale_within_reorder_tolerance(golden):
    got = json.loads(json.dumps(_martingale()))
    for dynamics in ("shifted", "original"):
        want = golden["martingale"][dynamics]
        assert len(got[dynamics]) == len(want)
        for g, w in zip(got[dynamics], want):
            assert g["scenario"] == w["scenario"]
            err, werr = g["terminal_max_abs_error"], w["terminal_max_abs_error"]
            assert abs(err - werr) <= 4 * math.ulp(1.0), (g["scenario"], err, werr)
            for (t, mean, se, ref), (wt, wmean, wse, wref) in zip(g["checkpoints"], w["checkpoints"]):
                assert (t, ref) == (wt, wref)
                assert _within_ulps(mean, wmean, 4), (g["scenario"], t, mean, wmean)
                assert se == pytest.approx(wse, rel=1e-3, abs=0.0), (g["scenario"], t)
            slope, slope_se, icpt, icpt_se = g["drift"]
            wslope, wslope_se, wicpt, wicpt_se = w["drift"]
            assert abs(slope - wslope) <= 1e-4 * wslope_se
            assert abs(icpt - wicpt) <= 1e-4 * wicpt_se
            assert slope_se == pytest.approx(wslope_se, rel=1e-4)
            assert icpt_se == pytest.approx(wicpt_se, rel=1e-4)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    doc = {name: fn() for name, fn in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")

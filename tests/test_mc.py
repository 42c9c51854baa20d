import re

import numpy as np
import pytest

import robustrates.paths
from robustrates import (
    AdaptedFeedback,
    Constant,
    McConfig,
    NumericalError,
    PiecewiseConstant,
    RandomSwitching,
    RateParams,
    ValidationError,
    VolBand,
    default_scenario_family,
    estimate_sublinear,
    martingale_check,
    price_classical_hw,
)
from robustrates.mc import CHUNK_PATHS

BAND = VolBand(0.005, 0.02)
CFG = McConfig(n_paths=20_000, n_steps=64, horizon=1.0, base_seed=101)
FAMILY = default_scenario_family(BAND, n_constant=4, n_switching=2, seed=17)


def terminal(bundle):
    return bundle.b[:, -1]


def terminal_sq(bundle):
    return bundle.b[:, -1] ** 2


def test_mean_has_no_uncertainty():
    est = estimate_sublinear(terminal, BAND, FAMILY, CFG)
    assert abs(est.upper) <= 3 * est.upper_se
    assert abs(est.lower) <= 3 * est.lower_se


def test_second_moment_band_edges():
    est = estimate_sublinear(terminal_sq, BAND, FAMILY, CFG)
    assert abs(est.upper - BAND.sigma_hi**2) <= 3 * est.upper_se
    assert abs(est.lower - BAND.sigma_lo**2) <= 3 * est.lower_se
    assert est.argmax_scenario == "const[0.02]"
    assert est.argmin_scenario == "const[0.005]"


def test_upper_lower_consistent_with_table():
    est = estimate_sublinear(terminal_sq, BAND, FAMILY, CFG)
    means = [s.mean for s in est.per_scenario]
    assert est.upper == max(means)
    assert est.lower == min(means)
    assert est.upper >= est.lower


def test_degenerate_band_collapses_exactly():
    band = VolBand(0.01, 0.01)
    fam = default_scenario_family(band, n_constant=3, n_switching=2, seed=3)
    est = estimate_sublinear(terminal_sq, band, fam, CFG)
    assert est.upper == est.lower  # shared draws make all scenarios identical


def test_bit_identical_reruns():
    e1 = estimate_sublinear(terminal_sq, BAND, FAMILY, CFG)
    e2 = estimate_sublinear(terminal_sq, BAND, FAMILY, CFG)
    assert e1.upper == e2.upper and e1.lower == e2.lower
    assert [s.mean for s in e1.per_scenario] == [s.mean for s in e2.per_scenario]


def test_scenario_order_does_not_change_results():
    e1 = estimate_sublinear(terminal_sq, BAND, FAMILY, CFG)
    e2 = estimate_sublinear(terminal_sq, BAND, list(reversed(FAMILY)), CFG)
    assert e1.upper == e2.upper and e1.lower == e2.lower
    by_id = {s.scenario_id: s.mean for s in e2.per_scenario}
    for s in e1.per_scenario:
        assert by_id[s.scenario_id] == s.mean


def test_discounted_bond_upper_matches_classical_price():
    """Under the original dynamics the worst case of the discount factor is
    the top-of-band constant scenario; its mean must agree with the
    constant-volatility closed form."""
    params = RateParams(r0=0.02, alpha=1.0, mu=0.0)
    cfg = McConfig(n_paths=40_000, n_steps=128, horizon=1.0, base_seed=7, antithetic=True)
    discount = lambda bundle: 1.0 / bundle.d[:, -1]  # exp(-int_0^T r ds) per path
    est = estimate_sublinear(discount, BAND, FAMILY, cfg, params=params, dynamics="original")
    target = price_classical_hw(params, BAND.sigma_hi, 0.0, 1.0, 0.02)
    assert est.argmax_scenario == "const[0.02]"
    assert abs(est.upper - target) <= 3 * est.upper_se


class TestAxioms:
    """Sublinear-expectation axioms, checked with shared draws."""

    def test_monotonicity(self):
        x = lambda b: np.abs(b.b[:, -1]) + b.qv[:, -1]
        y = lambda b: np.abs(b.b[:, -1])
        ex = estimate_sublinear(x, BAND, FAMILY, CFG)
        ey = estimate_sublinear(y, BAND, FAMILY, CFG)
        assert ex.upper >= ey.upper

    def test_constant_preserving(self):
        c = 0.731
        est = estimate_sublinear(lambda b: np.full(b.n_paths, c), BAND, FAMILY, CFG)
        assert est.upper == c and est.lower == c

    def test_subadditivity(self):
        x = lambda b: b.b[:, -1] ** 2
        y = lambda b: np.maximum(b.b[:, 32], 0.0)
        xy = lambda b: b.b[:, -1] ** 2 + np.maximum(b.b[:, 32], 0.0)
        ex = estimate_sublinear(x, BAND, FAMILY, CFG)
        ey = estimate_sublinear(y, BAND, FAMILY, CFG)
        exy = estimate_sublinear(xy, BAND, FAMILY, CFG)
        pooled = 3.0 * np.sqrt(ex.upper_se**2 + ey.upper_se**2 + exy.upper_se**2)
        assert exy.upper <= ex.upper + ey.upper + pooled

    def test_positive_homogeneity(self):
        lam = 2.5
        x = lambda b: b.b[:, -1] ** 2
        xl = lambda b: lam * b.b[:, -1] ** 2
        ex = estimate_sublinear(x, BAND, FAMILY, CFG)
        exl = estimate_sublinear(xl, BAND, FAMILY, CFG)
        assert exl.upper == pytest.approx(lam * ex.upper, rel=1e-14)


def test_non_finite_functional_diagnosed():
    def bad(bundle):
        vals = bundle.b[:, -1].copy()
        vals[3] = np.inf
        return vals

    small = McConfig(n_paths=16, n_steps=4, horizon=1.0, base_seed=0)
    with pytest.raises(NumericalError, match=r"scenario 'const\[0.005\]' at path 3"):
        estimate_sublinear(bad, BAND, [Constant(0.005)], small)

    # two members over two chunks: the earliest chunk that holds a bad value
    # wins, then its first bad scenario; the path is counted across chunks
    def bad_at(where):  # (sigma, in the last chunk) -> bad path
        def functional(bundle):
            vals = bundle.b[:, -1].copy()
            path = where.get((bundle.sigma[0, 0], bundle.n_paths == 16))
            if path is not None:
                vals[path] = np.inf
            return vals

        return functional

    two = McConfig(n_paths=CHUNK_PATHS + 16, n_steps=4, horizon=1.0, base_seed=0)
    for where, sid, path in (
        ({(0.005, True): 5, (0.02, False): 3}, "const[0.02]", 3),
        ({(0.005, True): 5, (0.02, True): 2}, "const[0.005]", CHUNK_PATHS + 5),
    ):
        message = f"non-finite functional value in scenario '{sid}' at path {path}"
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            estimate_sublinear(bad_at(where), BAND, [Constant(0.005), Constant(0.02)], two)


@pytest.mark.parametrize("functional", [
    lambda b: 1e160 * b.b[:, -1] / 0.01,  # finite samples whose squares overflow: the se
    lambda b: np.full(b.n_paths, 1e308),  # finite samples whose sum overflows: the mean
], ids=["se", "mean"])
def test_non_finite_mean_or_se_diagnosed(functional):
    small = McConfig(16, 4, 1.0, 0)
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match=r"^non-finite mean or se in scenario 'const\[0.01\]'$"
    ):
        estimate_sublinear(functional, BAND, [Constant(0.01)], small)


def test_functional_shape_validated():
    small = McConfig(n_paths=8, n_steps=4, horizon=1.0, base_seed=0)
    with pytest.raises(ValidationError):
        estimate_sublinear(lambda b: np.zeros(3), BAND, [Constant(0.01)], small)


def test_empty_family_rejected():
    with pytest.raises(ValidationError):
        estimate_sublinear(terminal, BAND, [], CFG)


def test_config_validation():
    with pytest.raises(ValidationError):
        McConfig(n_paths=0, n_steps=4, horizon=1.0, base_seed=0)
    with pytest.raises(ValidationError):
        McConfig(n_paths=11, n_steps=4, horizon=1.0, base_seed=0, antithetic=True)
    with pytest.raises(ValidationError):
        McConfig(n_paths=8, n_steps=4, horizon=-1.0, base_seed=0)


@pytest.mark.parametrize("seed", [-3, 2.5, 2.0, True, "3", None, np.float64(4.0)])
def test_base_seed_must_be_a_non_negative_integer(seed):
    message = rf"^base_seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValidationError, match=message):
        McConfig(n_paths=8, n_steps=4, horizon=1.0, base_seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(2**32 - 1)])
def test_base_seed_accepts_python_and_numpy_integers(seed):
    cfg = McConfig(n_paths=8, n_steps=4, horizon=1.0, base_seed=seed)
    assert estimate_sublinear(terminal, BAND, [Constant(0.01)], cfg).per_scenario[0].n_samples == 8


def test_antithetic_halves_sample_count_and_kills_odd_noise():
    cfg = McConfig(n_paths=4096, n_steps=16, horizon=1.0, base_seed=5, antithetic=True)
    est = estimate_sublinear(terminal, BAND, [Constant(0.02)], cfg)
    assert est.per_scenario[0].n_samples == 2048
    assert est.upper == 0.0  # pair averages of an odd functional vanish exactly


def test_duplicate_scenario_ids_disambiguated():
    fam = [Constant(0.01), Constant(0.01)]
    small = McConfig(n_paths=64, n_steps=4, horizon=1.0, base_seed=0)
    est = estimate_sublinear(terminal_sq, BAND, fam, small)
    ids = [s.scenario_id for s in est.per_scenario]
    assert len(set(ids)) == 2


def test_each_table_member_builds_its_table_once_per_chunk(monkeypatch):
    """On every chunk the driver builds each table-driven member's table once, through
    its own kind's ``sigma_table``, half-width under antithetic sampling, with the chunk
    index as its noise key, and the stepper's pass holds exactly that table."""
    family = [Constant(0.01), PiecewiseConstant((0.5,), (0.02, 0.005)), RandomSwitching(3.0, 1),
              AdaptedFeedback("driver_sign"), RandomSwitching(5.0, 2)]
    cfg = McConfig(n_paths=CHUNK_PATHS + 10, n_steps=4, horizon=1.0, base_seed=3, antithetic=True)
    built, held = [], []

    def spy(kind):
        real = kind.sigma_table

        def sigma_table(spec, *args):  # (times, dt, n_paths, noise_key)
            tab = real(spec, *args)
            built.append((spec, kind, args[-1], args[-2], tab))
            return tab

        return sigma_table

    real_passes = robustrates.paths._passes

    def passes_spy(*args):
        for rows, group in real_passes(*args):
            held.extend(tab for _, tab in group if tab is not None)
            yield rows, group

    for kind in (Constant, PiecewiseConstant, RandomSwitching):
        monkeypatch.setattr(kind, "sigma_table", spy(kind))
    monkeypatch.setattr(robustrates.paths, "_passes", passes_spy)
    martingale_check(RateParams(r0=0.02, alpha=1.0), BAND, family, 1.0, [0.5], cfg)
    tables = [spec for spec in family if not spec.is_adaptive]
    expected = [(spec, type(spec), ci, m // 2) for ci, m in enumerate((CHUNK_PATHS, 10))
                for spec in tables]
    assert [call[:4] for call in built] == expected
    assert len(held) == len(built) and all(h is call[4] for h, call in zip(held, built))

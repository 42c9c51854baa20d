import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

import robustrates.paths
from robustrates import (
    AdaptedFeedback,
    Constant,
    ForwardCurve,
    McConfig,
    PiecewiseConstant,
    RandomSwitching,
    RateParams,
    TimeGrid,
    ValidationError,
    VolBand,
    b_factor,
    bang_bang,
    calibrate,
    estimate_sublinear,
    ingest_forward_curve,
    lambda_path,
    money_market,
    register_feedback_rule,
    simulate_bundle,
)
from robustrates.cli import main
from robustrates.mc import CHUNK_PATHS, _chunks
from robustrates.paths import _bundle, _mu_step_integrals, _simulate, _steps
from robustrates.scenarios import _PATH_BLOCK, PathView

BAND = VolBand(0.005, 0.02)

# closed-form oracle values (exponential-kernel integrals, 40-digit arithmetic)
LAMBDA_1_SIGMA_02 = 0.017293294335267746  # sigma^2 (1 - e^-2) / 2 at sigma=0.2, alpha=1
MEAN_R1 = 0.0073575888234288464           # e^-1 * 0.02
VAR_R1_SIGMA_001 = 4.3233235838169365e-05  # sigma^2 (1 - e^-2) / 2 at sigma=0.01
SHIFT_MEAN_SIGMA_001 = 1.9978820044686402e-05  # int_0^1 e^{-(1-s)} lam(s) ds

# a calibrated curve with kinks at 1, 3 and 5: a time-varying drift mu = alpha f + f'
# that jumps at each kink
KINKED_CURVE = ingest_forward_curve(io.StringIO("T,f\n0,0.02\n1,0.025\n3,0.03\n5,0.028\n10,0.03\n"))
KINKED_07 = calibrate(KINKED_CURVE, 0.7)


def _chunk_bundles(spec, band, cfg, params, dynamics):
    """One scenario's bundles chunk by chunk, simulated alone."""
    for ci, rng, m in _chunks(cfg):
        yield _simulate(spec, band, cfg.grid, rng, m, params=params, dynamics=dynamics,
                        antithetic=cfg.antithetic, switch_key=ci)


def zero_noise_rate(params: RateParams, grid: TimeGrid) -> np.ndarray:
    """The engine's ``r`` recursion on ``grid`` with the driver frozen at zero,
    ``r[k+1] = exp(-alpha dt) r[k] + m_det[k]``, its coefficients formed here."""
    ea, m_det = np.exp(-params.alpha * grid.dt), _mu_step_integrals(params, grid)
    r = [params.r0]
    for k in range(grid.n_steps):
        r.append(ea * r[-1] + m_det[k])
    return np.array(r)


class TestDriver:
    def test_single_step_quadratic_variation_exact(self):
        grid = TimeGrid(1.0, 1)
        bundle = simulate_bundle(Constant(0.02), BAND, grid, None, seed=5, n_paths=100)
        np.testing.assert_array_equal(bundle.qv[:, 1], 0.02**2 * 1.0)
        # b_1 = sigma sqrt(T) Z_0, so the implied draws are standard normal
        z = bundle.b[:, 1] / (0.02 * 1.0)
        assert abs(z.mean()) < 5 / np.sqrt(100)

    def test_constant_sigma_moments(self):
        grid = TimeGrid(1.0, 64)
        bundle = simulate_bundle(Constant(0.02), BAND, grid, None, seed=7, n_paths=100_000)
        bt = bundle.b[:, -1]
        se1 = bt.std(ddof=1) / np.sqrt(bt.size)
        assert abs(bt.mean()) <= 3 * se1
        sq = bt**2
        se2 = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 4e-4) <= 3 * se2

    def test_bang_bang_qv_deterministic(self):
        grid = TimeGrid(1.0, 8)
        spec = bang_bang(BAND, 1.0, n_segments=8, start_high=True)
        bundle = simulate_bundle(spec, BAND, grid, None, seed=1, n_paths=16)
        expected = grid.dt * np.sum(bundle.sigma[0] ** 2)
        np.testing.assert_allclose(bundle.qv[:, -1], expected, rtol=0, atol=1e-18)

    def test_qv_within_band_envelope(self):
        grid = TimeGrid(1.0, 32)
        for spec in (Constant(0.013), bang_bang(BAND, 1.0, 4), RandomSwitching(5.0, seed=2)):
            bundle = simulate_bundle(spec, BAND, grid, None, seed=3, n_paths=64)
            t = grid.times[None, :]
            assert np.all(bundle.qv >= BAND.sigma_lo**2 * t - 1e-15)
            assert np.all(bundle.qv <= BAND.sigma_hi**2 * t + 1e-15)
            assert np.all(np.diff(bundle.qv, axis=1) >= 0)

    def test_antithetic_mates_mirror_driver(self):
        grid = TimeGrid(1.0, 16)
        bundle = simulate_bundle(Constant(0.01), BAND, grid, None, seed=9, n_paths=8, antithetic=True)
        np.testing.assert_array_equal(bundle.b[:4], -bundle.b[4:])

    @pytest.mark.parametrize("params", [None, RateParams(r0=0.02, alpha=1.0)])
    def test_zero_paths_rejected(self, params):
        with pytest.raises(ValidationError, match="n_paths must be an integer >= 1"):
            simulate_bundle(Constant(0.01), BAND, TimeGrid(1.0, 4), params, seed=0, n_paths=0)

    def test_seed_determinism(self):
        grid = TimeGrid(1.0, 16)
        b1 = simulate_bundle(Constant(0.01), BAND, grid, None, seed=4, n_paths=10)
        b2 = simulate_bundle(Constant(0.01), BAND, grid, None, seed=4, n_paths=10)
        np.testing.assert_array_equal(b1.b, b2.b)

    @settings(max_examples=25, deadline=None)
    @given(
        intensity=st.floats(0.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
        n_paths=st.one_of(
            st.integers(1, 40).map(lambda h: 2 * h),
            st.sampled_from([CHUNK_PATHS - 2, CHUNK_PATHS + 2]),
        ),
    )
    def test_antithetic_mates_share_switching_path(self, intensity, seed, n_paths):
        spec = RandomSwitching(intensity, seed)
        cfg = McConfig(n_paths=n_paths, n_steps=8, horizon=1.0, base_seed=seed, antithetic=True)
        for ci, bundle in enumerate(_chunk_bundles(spec, BAND, cfg, None, "original")):
            half = bundle.n_paths // 2
            assert bundle.sigma[:half].tobytes() == bundle.sigma[half:].tobytes()
            # the scenario's own table, one column per pair, is the bundle's sigma for both mates
            idx = spec.sigma_table(cfg.grid.step_times, cfg.grid.dt, half, ci)
            tab = np.array([BAND.sigma_lo, BAND.sigma_hi])[idx.T]
            assert np.vstack([tab, tab]).tobytes() == bundle.sigma.tobytes()


def column_loop_bundle(scenario, band, grid, params, seed, n_paths, dynamics, antithetic):
    """Path-major column loop that simulated one scenario before the time-major
    stepper, kept as an independent reference for the five step recursions:
    ``sigma``, ``B``, ``qv``, ``lam``, ``r`` and the money market.  Its inputs come
    straight from the generator and the scenario: an antithetic mate negates its
    partner's normals and shares its switching path.  It forms the rate step's
    coefficients itself, so none of them is shared with the kernel."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    n, dt = grid.n_steps, grid.dt
    sq = np.sqrt(dt)
    n_draw = n_paths // 2 if antithetic else n_paths
    z = rng.standard_normal((n_draw, n))
    if antithetic:
        z = np.vstack([z, -z])
    if not scenario.is_adaptive:
        tab = scenario.sigma_table(grid.step_times, dt, n_draw, 0)
        if tab.dtype == np.uint8:  # a switching member's bytes, time-major
            tab = np.array([band.sigma_lo, band.sigma_hi])[tab.T]
        sigma_tab = (np.vstack([tab, tab]) if antithetic and tab.ndim == 2 else tab).T
    sigma = np.empty((n_paths, n))
    b = np.zeros((n_paths, n + 1))
    qv = np.zeros((n_paths, n + 1))
    lam = r = d = None
    if params is not None:
        lam = np.zeros((n_paths, n + 1))
        r = np.empty((n_paths, n + 1))
        r[:, 0] = params.r0
        a = params.alpha
        ea, eh, w_lam = np.exp(-a * dt), np.exp(-a * dt / 2.0), b_factor(a, 0.0, dt)
        e2, m_det = np.exp(-2.0 * a * dt), _mu_step_integrals(params, grid)
    times = grid.times
    for k in range(n):
        if scenario.is_adaptive:
            view = PathView(
                k, times[k], dt, band, b[:, k], qv[:, k],
                None if lam is None else lam[:, k], None if r is None else r[:, k],
            )
            sig_k = np.asarray(scenario.step_sigma(view), dtype=float)
        else:
            sig_k = sigma_tab[k]
        sigma[:, k] = sig_k
        db = sig_k * sq * z[:, k]
        b[:, k + 1] = b[:, k] + db
        dqv = sig_k**2 * dt
        qv[:, k + 1] = qv[:, k] + dqv
        if params is not None:
            lam[:, k + 1] = e2 * lam[:, k] + dqv
            drift = m_det[k] + (w_lam * lam[:, k] if dynamics == "shifted" else 0.0)
            r[:, k + 1] = ea * r[:, k] + drift + eh * db
    if params is not None:
        integral = np.zeros(r.shape)
        np.cumsum(dt * (r[:, 1:] + r[:, :-1]) / 2.0, axis=1, out=integral[:, 1:])
        d = np.exp(integral)
    return sigma, b, qv, lam, r, d


def _rate_threshold(view, params):
    return np.where(view.r >= 0.02, view.band.sigma_hi, view.band.sigma_lo)


def _lam_threshold(view, params):
    # cool once the weighted variance passes 5e-5, so lam chatters about that level
    return np.where(view.lam >= 5e-5, view.band.sigma_lo, view.band.sigma_hi)


register_feedback_rule("rate_threshold", _rate_threshold)
register_feedback_rule("lam_threshold", _lam_threshold)


class TestStepperAgainstColumnLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.one_of(
            st.sampled_from([0.005, 0.0125, 0.02]).map(Constant),
            st.builds(
                lambda t, v0, v1: PiecewiseConstant((t,), (v0, v1)),
                st.floats(0.05, 0.95), st.sampled_from([0.005, 0.02]), st.sampled_from([0.01, 0.02]),
            ),
            st.builds(RandomSwitching, st.floats(0.0, 8.0), st.integers(0, 3)),
            st.sampled_from(["driver_sign", "qv_chase", "rate_threshold"]).map(AdaptedFeedback),
        ),
        with_rate=st.booleans(),
        kinked_mu=st.booleans(),
        dynamics=st.sampled_from(["original", "shifted"]),
        antithetic=st.booleans(),
        n_pairs=st.integers(1, 5),
        n_steps=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bundle_bitwise_equal(
        self, scenario, with_rate, kinked_mu, dynamics, antithetic, n_pairs, n_steps, seed
    ):
        # a rule that reads r needs the rate, and without it the dynamics play no part
        with_rate = with_rate or scenario == AdaptedFeedback("rate_threshold")
        params = KINKED_07 if kinked_mu else RateParams(r0=0.02, alpha=0.7, mu=0.03)
        params = params if with_rate else None
        grid = TimeGrid(1.3, n_steps)
        n_paths = 2 * n_pairs
        bundle = simulate_bundle(
            scenario, BAND, grid, params, seed=seed, n_paths=n_paths,
            dynamics=dynamics, antithetic=antithetic,
        )
        expected = column_loop_bundle(scenario, BAND, grid, params, seed, n_paths, dynamics, antithetic)
        got = (bundle.sigma, bundle.b, bundle.qv, bundle.lam, bundle.r, bundle.d)
        for name, g, e in zip(("sigma", "b", "qv", "lam", "r", "d"), got, expected):
            assert (g is None) == (e is None), name
            if e is not None:
                assert (g.shape, g.tobytes()) == (e.shape, e.tobytes()), name


def test_feedback_history_views_and_bundle_layout():
    """A feedback rule reads read-only rows of its member's current state, one value
    per path, equal to the bundle's column ``k``, and the bundle comes back C-ordered,
    so a functional's own reductions keep their order."""
    seen = []

    def spy(view, params):
        rows = (view.b, view.qv, view.lam, view.r)
        seen.append((view.k, rows, [a.copy() for a in rows]))
        return np.where(view.b >= 0.0, view.band.sigma_hi, view.band.sigma_lo)

    register_feedback_rule("layout_spy", spy)
    params = RateParams(r0=0.02, alpha=0.7, mu=0.03)
    bundle = simulate_bundle(
        AdaptedFeedback("layout_spy"), BAND, TimeGrid(1.0, 6), params, seed=3, n_paths=4
    )
    assert [k for k, *_ in seen] == list(range(6))
    for k, rows, copies in seen:
        assert all(a.shape == (4,) and not a.flags.writeable for a in rows)
        for name, then in zip(("b", "qv", "lam", "r"), copies):
            assert then.tobytes() == getattr(bundle, name)[:, k].tobytes(), (k, name)
    for name in ("sigma", "b", "qv", "lam", "r", "d"):
        assert getattr(bundle, name).flags.c_contiguous, name


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("dynamics", ["original", "shifted"])
def test_feedback_rule_on_lam_equals_the_column_loop(dynamics, antithetic):
    """A rule that thresholds on ``view.lam`` switches wherever ``lam`` crosses its
    level, so a ``lam`` one grid time off would move a switch: the bundle equals the
    column loop's, byte for byte.  Without the rate, ``lam`` and ``r`` are None."""
    grid, params = TimeGrid(1.3, 64), RateParams(r0=0.02, alpha=0.7, mu=0.03)
    spec = AdaptedFeedback("lam_threshold")
    bundle = simulate_bundle(spec, BAND, grid, params, seed=5, n_paths=6, dynamics=dynamics,
                             antithetic=antithetic)
    assert_bundle_bytes_equal(bundle, column_loop_bundle(
        spec, BAND, grid, params, 5, 6, dynamics, antithetic))
    assert len(np.unique(bundle.sigma)) == 2  # lam crossed its level
    unrated = []

    def reads_no_rate(view, p):
        unrated.append((view.lam, view.r))
        return view.band.sigma_lo

    register_feedback_rule("unrated", reads_no_rate)
    simulate_bundle(AdaptedFeedback("unrated"), BAND, grid, None, seed=5, n_paths=6)
    estimate_sublinear(lambda b: b.b[:, -1], BAND, [AdaptedFeedback("unrated")],
                       McConfig(n_paths=4, n_steps=4, horizon=1.0, base_seed=0))
    assert len(unrated) == 64 + 4 and set(unrated) == {(None, None)}


FIELDS = ("sigma", "b", "qv", "lam", "r", "d")


def assert_bundle_bytes_equal(bundle, expected):
    for name, e in zip(FIELDS, expected):
        g = getattr(bundle, name)
        assert (g.shape, g.tobytes()) == (e.shape, e.tobytes()), name


class TestLeanStep:
    """The in-place rate step and trapezoid, a deterministic pass and a mixed pass:
    over long grids, where any change in the order of additions would show, every
    array still equals the column loop's, byte for byte."""

    PARAMS = KINKED_07

    @pytest.mark.parametrize("antithetic, n_paths", [(True, 6), (False, 6), (False, 5)])
    def test_deterministic_shifted_pass_over_2048_steps(self, antithetic, n_paths):
        spec = PiecewiseConstant((0.3, 0.7), (0.02, 0.005, 0.0125))
        grid = TimeGrid(1.3, 2048)
        bundle = simulate_bundle(spec, BAND, grid, self.PARAMS, seed=9, n_paths=n_paths,
                                 dynamics="shifted", antithetic=antithetic)
        assert_bundle_bytes_equal(bundle, column_loop_bundle(
            spec, BAND, grid, self.PARAMS, 9, n_paths, "shifted", antithetic))

    @pytest.mark.parametrize("antithetic, n_paths", [(True, 6), (False, 5)])
    def test_mixed_pass_equals_each_member_alone(self, monkeypatch, antithetic, n_paths):
        family = [Constant(0.0125), RandomSwitching(6.0, 2), AdaptedFeedback("rate_threshold"),
                  PiecewiseConstant((0.5,), (0.005, 0.02)), AdaptedFeedback("qv_chase")]
        grid, seed = TimeGrid(1.3, 1000), 4
        monkeypatch.setattr(robustrates.paths, "_TABLES_PER_PASS", 30)  # the family in one pass
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        states = _steps(family, BAND, grid, rng, n_paths, self.PARAMS, "shifted", antithetic,
                        record=True)
        for s in states:
            assert (s.rows, s.qv.shape) == (slice(0, len(family)), (len(family), n_paths))
            if s.k == grid.n_steps:
                bundles = [_bundle(spec, s.hist[i], grid) for i, spec in enumerate(family)]
        for spec, bundle in zip(family, bundles):
            assert_bundle_bytes_equal(bundle, column_loop_bundle(
                spec, BAND, grid, self.PARAMS, seed, n_paths, "shifted", antithetic))


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("dynamics", ["original", "shifted"])
@pytest.mark.parametrize("params", [None, KINKED_07], ids=["no_rate", "rate"])
def test_mixed_pass_steps_its_state_in_place(params, dynamics, antithetic):
    """A mixed pass (deterministic, switching and feedback members) allocates its
    state once: ``b``, ``qv``, ``lam`` and ``integral`` are the same arrays at every grid
    time, ``r`` is one of two, and no step after the first raises the traced peak by
    one ``(members, paths)`` array of doubles."""
    family = [Constant(0.0125), PiecewiseConstant((0.5,), (0.005, 0.02)),
              RandomSwitching(6.0, 2), AdaptedFeedback("driver_sign")]
    n_paths, grid = 4096, TimeGrid(1.0, 16)
    array_bytes = 8 * len(family) * n_paths
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7))
    names, first, rates, rises = ("b", "qv", "lam", "integral"), None, {}, []
    tracemalloc.start()
    try:
        for s in _steps(family, BAND, grid, rng, n_paths, params, dynamics, antithetic):
            peak = tracemalloc.get_traced_memory()[1]
            if s.k == 0:
                first = [getattr(s, x) for x in names]
            elif s.k >= 2:
                rises.append(peak - held)
            assert s.rows == slice(0, len(family)) and s.qv.shape == (len(family), n_paths)
            assert all(getattr(s, x) is a for x, a in zip(names, first)), s.k
            rates[id(s.r)] = s.r  # held, so no id is reused
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rates) == (1 if params is None else 2)
    assert len(rises) == grid.n_steps - 1 and max(rises) < array_bytes, (max(rises), array_bytes)


class TestChunkTables:
    """The chunk's normals and a switching member's byte table are written time-major
    from blocks of ``_PATH_BLOCK`` paths; both must read the generator exactly as one
    full-size draw did."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_draw, n_steps", [
        (1, 7), (33, 5), (_PATH_BLOCK - 1, 9), (_PATH_BLOCK, 9), (_PATH_BLOCK + 1, 9),
        (2 * _PATH_BLOCK + 3, 4), (1024, 512),
    ])
    def test_normals_equal_one_transposed_draw(self, n_draw, n_steps, antithetic):
        n_paths = 2 * n_draw if antithetic else n_draw
        seq = np.random.SeedSequence(entropy=8, spawn_key=(3,))
        z = robustrates.paths._draw_normals(np.random.default_rng(seq), n_paths, n_steps, antithetic)
        one_draw = np.random.default_rng(seq).standard_normal((n_draw, n_steps)).T.copy()
        assert (z.shape, z.flags.c_contiguous) == ((n_steps, n_draw), True)
        assert z.tobytes() == one_draw.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        intensity=st.sampled_from([0.0, 3.0, 20.0]),  # none, moderate, past 1 / dt = 8
        width=st.sampled_from([1, 7, _PATH_BLOCK - 1, _PATH_BLOCK + 1, None]),  # None: a chunk
        noise_key=st.integers(0, 5),
        antithetic=st.booleans(),
        record=st.booleans(),
    )
    def test_stepper_sigma_rows_equal_the_dense_table(
        self, intensity, width, noise_key, antithetic, record
    ):
        """Every ``sigma`` row the stepper fills from a switching member's bytes, ``width``
        paths wide (mates sharing a row), and a recorded history's ``sigma``, is the
        scenario's ``sigma_table`` taken through ``(sigma_lo, sigma_hi)``."""
        spec, grid = RandomSwitching(intensity, seed=noise_key + 11), TimeGrid(1.0, 8)
        n_paths = CHUNK_PATHS if width is None else width * (1 + antithetic)
        idx = spec.sigma_table(grid.step_times, grid.dt, n_paths // (1 + antithetic), noise_key)
        dense = np.array([BAND.sigma_lo, BAND.sigma_hi])[idx]  # time-major
        expected = (np.hstack([dense, dense]) if antithetic else dense).copy()
        rows, real = [], robustrates.paths._fill_sigma

        def spy(row, tab_k, levels):
            real(row, tab_k, levels)
            if tab_k.ndim == 1:  # a step's row, not a history's whole table
                rows.append(row.copy())

        rng = np.random.default_rng(0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robustrates.paths, "_fill_sigma", spy)
            for s in _steps([spec], BAND, grid, rng, n_paths, antithetic=antithetic,
                            switch_key=noise_key, full=True, record=record):
                if record and s.k == grid.n_steps:
                    assert s.hist[0]["sigma"].tobytes() == expected.tobytes()
        assert np.array(rows).tobytes() == expected.tobytes()


class TestLambdaPath:
    def test_starts_at_zero(self):
        grid = TimeGrid(1.0, 32)
        qv = 0.04 * grid.times
        lam = lambda_path(qv, alpha=1.0, dt=grid.dt)
        assert lam[0] == 0.0

    def test_constant_sigma_closed_form(self):
        grid = TimeGrid(1.0, 512)
        qv = 0.2**2 * grid.times
        lam = lambda_path(qv, alpha=1.0, dt=grid.dt)
        assert abs(lam[-1] - LAMBDA_1_SIGMA_02) < 1e-3

    def test_stationary_limit(self):
        grid = TimeGrid(20.0, 4096)
        qv = 0.2**2 * grid.times
        lam = lambda_path(qv, alpha=1.0, dt=grid.dt)
        assert lam[-1] == pytest.approx(0.2**2 / 2.0, rel=2e-2)

    def test_first_order_refinement(self):
        errs = []
        for n in (512, 1024):
            grid = TimeGrid(1.0, n)
            lam = lambda_path(0.2**2 * grid.times, alpha=1.0, dt=grid.dt)
            errs.append(abs(lam[-1] - LAMBDA_1_SIGMA_02))
        ratio = errs[1] / errs[0]
        assert 0.4 <= ratio <= 0.6  # halving with the step

    def test_discrete_mean_reversion_identity(self):
        # lam_k = qv_k - 2 alpha dt sum_{j<k} lam_j up to O(dt), uniformly
        alpha = 1.0
        for n in (256, 512):
            grid = TimeGrid(1.0, n)
            qv = 0.2**2 * grid.times
            lam = lambda_path(qv, alpha=alpha, dt=grid.dt)
            partial = np.concatenate([[0.0], np.cumsum(lam[:-1])])
            resid = np.abs(lam - (qv - 2.0 * alpha * grid.dt * partial))
            assert resid.max() <= 0.1 * grid.dt

    def test_lambda_in_band_envelope(self):
        grid = TimeGrid(1.0, 128)
        bundle = simulate_bundle(RandomSwitching(4.0, seed=8), BAND, grid, None, seed=2, n_paths=32)
        lam = lambda_path(bundle.qv, alpha=1.0, dt=grid.dt)
        t = grid.times[None, :]
        envelope_hi = BAND.sigma_hi**2 * (1 - np.exp(-2 * t)) / 2.0
        envelope_lo = BAND.sigma_lo**2 * (1 - np.exp(-2 * t)) / 2.0
        slack = 3.0 * BAND.sigma_hi**2 * grid.dt
        assert np.all(lam >= envelope_lo - slack)
        assert np.all(lam <= envelope_hi + slack)
        assert np.all(lam >= 0)

    def test_rejects_decreasing_qv(self):
        with pytest.raises(ValidationError):
            lambda_path(np.array([0.0, 1.0, 0.5]), alpha=1.0, dt=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [1, 2])
    def test_rejects_non_finite_qv(self, bad, at):
        """``[0, nan, 0.1]`` once returned ``[0, nan, nan]`` and ``[0, inf, inf]``
        returned ``[0, inf, nan]`` after a ``RuntimeWarning``."""
        qv = np.array([[0.0, 0.05, 0.1], [0.0, 0.05, 0.1]])
        qv[1, at] = bad
        with pytest.raises(ValidationError, match="^qv must be finite$"):
            lambda_path(qv, alpha=1.0, dt=0.5)

    @pytest.mark.parametrize("name", ["alpha", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, "1", True, None, 0.0, -1.0])
    def test_alpha_and_dt_take_the_number_rule(self, name, value):
        """``alpha=nan`` once returned a NaN ``lam``, ``"1"`` escaped as a bare
        ``TypeError``, and ``dt=-1`` was accepted."""
        args = {"alpha": 1.0, "dt": 0.1, name: value}
        message = rf"^{name} must be a finite real number > 0, got "
        with pytest.raises(ValidationError, match=message):
            lambda_path(np.array([0.0, 0.1, 0.2]), **args)

    def test_alpha_and_dt_take_numpy_and_integer_numbers(self):
        qv = 0.04 * TimeGrid(1.0, 8).times
        expected = lambda_path(qv, alpha=1.0, dt=0.125).tobytes()
        assert lambda_path(qv, alpha=np.int64(1), dt=np.float64(0.125)).tobytes() == expected


class TestShortRate:
    def test_deterministic_reduction_constant_mu(self):
        # no noise: r solves the linear ODE exactly up to the mu quadrature
        grid = TimeGrid(1.0, 64)
        params = RateParams(r0=0.02, alpha=1.3, mu=0.015)
        r = zero_noise_rate(params, grid)
        t = grid.times
        exact = np.exp(-1.3 * t) * 0.02 + 0.015 / 1.3 * (1 - np.exp(-1.3 * t))
        np.testing.assert_allclose(r, exact, atol=1e-12)

    def test_deterministic_reduction_kinked_mu_refines(self):
        # with r0 = f(0) and mu = alpha f + f', the noiseless rate is the curve itself
        params = calibrate(KINKED_CURVE, 2.0)
        exact = float(KINKED_CURVE.value(2.0))
        errs = []
        for n in (8, 16):  # the kink at 1 is a grid time
            r = zero_noise_rate(params, TimeGrid(2.0, n))
            errs.append(abs(r[-1] - exact))
        # scheme converges at least first order on deterministic fixtures
        assert errs[1] <= 0.6 * errs[0]

    def test_terminal_mean(self):
        grid = TimeGrid(1.0, 256)
        params = RateParams(r0=0.02, alpha=1.0, mu=0.0)
        bundle = simulate_bundle(Constant(0.01), VolBand(0.01, 0.01), grid, params, seed=21, n_paths=100_000)
        r1 = bundle.r[:, -1]
        se = r1.std(ddof=1) / np.sqrt(r1.size)
        assert abs(r1.mean() - MEAN_R1) <= 3 * se

    def test_terminal_variance(self):
        grid = TimeGrid(1.0, 256)
        params = RateParams(r0=0.02, alpha=1.0, mu=0.0)
        bundle = simulate_bundle(Constant(0.01), VolBand(0.01, 0.01), grid, params, seed=22, n_paths=100_000)
        r1 = bundle.r[:, -1]
        v = r1.var(ddof=1)
        # sampling error of a variance estimate: var * sqrt(2/(n-1))
        tol = 3 * VAR_R1_SIGMA_001 * np.sqrt(2.0 / (r1.size - 1))
        assert abs(v - VAR_R1_SIGMA_001) <= tol

    def test_shifted_equals_original_with_zero_lambda(self):
        # lam[0] = 0, so step 0 of the shifted dynamics adds exactly nothing, for a
        # one-value lam (a deterministic table) or one per path; from step 1 on, lam > 0
        grid = TimeGrid(1.0, 32)
        params = RateParams(r0=0.02, alpha=1.0, mu=0.01)
        for spec in (Constant(0.01), RandomSwitching(4.0, seed=1), AdaptedFeedback("driver_sign")):
            orig, shift = (
                simulate_bundle(spec, BAND, grid, params, seed=2, n_paths=6, dynamics=dynamics).r
                for dynamics in ("original", "shifted")
            )
            assert shift[:, 1].tobytes() == orig[:, 1].tobytes()
            assert np.all(shift[:, 2] > orig[:, 2])

    def test_shift_is_deterministic_for_deterministic_sigma(self):
        grid = TimeGrid(1.0, 128)
        params = RateParams(r0=0.02, alpha=1.0, mu=0.0)
        band = VolBand(0.01, 0.01)
        orig = simulate_bundle(Constant(0.01), band, grid, params, seed=5, n_paths=50, dynamics="original")
        shift = simulate_bundle(Constant(0.01), band, grid, params, seed=5, n_paths=50, dynamics="shifted")
        diff = shift.r - orig.r
        # identical across paths up to path-dependent rounding
        assert np.max(np.abs(diff - diff[0])) <= 1e-14
        # and the terminal mean shift matches the kernel-integral oracle
        assert diff[0, -1] == pytest.approx(SHIFT_MEAN_SIGMA_001, rel=2e-2)

    def test_isometry_bounds_step_integrand(self):
        # int eta dB for a deterministic step function eta
        grid = TimeGrid(1.0, 64)
        eta = np.where(grid.step_times < 0.5, 1.0, 3.0)
        bundle = simulate_bundle(Constant(0.02), BAND, grid, None, seed=13, n_paths=50_000)
        integral = np.sum(eta[None, :] * np.diff(bundle.b, axis=1), axis=1)
        se = integral.std(ddof=1) / np.sqrt(integral.size)
        assert abs(integral.mean()) <= 3 * se
        second = integral**2
        bound = BAND.sigma_hi**2 * np.sum(eta**2) * grid.dt
        se2 = second.std(ddof=1) / np.sqrt(second.size)
        assert second.mean() <= bound + 3 * se2


class TestMoneyMarket:
    def test_zero_rate(self):
        grid = TimeGrid(1.0, 16)
        d = money_market(np.zeros((3, 17)), grid)
        np.testing.assert_array_equal(d, 1.0)

    def test_constant_rate_exact(self):
        grid = TimeGrid(2.0, 16)
        d = money_market(np.full((1, 17), 0.03), grid)
        assert d[0, -1] == pytest.approx(np.exp(0.03 * 2.0), rel=1e-15)

    def test_linear_rate_second_order(self):
        a, b = 0.01, 0.02
        exact = np.exp(a * 1.0 + b * 0.5)
        errs = []
        for n in (16, 32):
            grid = TimeGrid(1.0, n)
            r = (a + b * grid.times)[None, :]
            errs.append(abs(money_market(r, grid)[0, -1] - exact))
        assert errs[1] <= errs[0] / 3.0  # trapezoid: ~4x per halving

    def test_positive(self):
        grid = TimeGrid(1.0, 32)
        rng = np.random.default_rng(0)
        r = rng.normal(0.02, 0.05, size=(20, 33))
        assert np.all(money_market(r, grid) > 0)

    @pytest.mark.parametrize("shape", [(3, 17), (17,), (2048, 513)])
    def test_bitwise_equal_to_scipy_trapezoid(self, shape):
        grid = TimeGrid(1.3, shape[-1] - 1)
        r = np.random.default_rng(1).normal(0.02, 0.05, size=shape)
        expected = np.exp(cumulative_trapezoid(r, dx=grid.dt, axis=-1, initial=0.0))
        assert money_market(r, grid).tobytes() == expected.tobytes()


    @pytest.mark.parametrize("shape", [(5,), (3, 10), (3, 12), ()])
    def test_rejects_r_off_the_grid(self, shape):
        """``money_market(np.zeros(5), TimeGrid(1.0, 10))`` once integrated 4 steps at dt 0.1."""
        message = rf"^r needs 11 values on its last axis, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValidationError, match=message):
            money_market(np.zeros(shape), TimeGrid(1.0, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, at", [((3,), (1,)), ((2, 3), (1, 2))])
    def test_rejects_non_finite_r(self, bad, shape, at):
        """``money_market(np.array([0.0, nan, 0.1]), TimeGrid(1.0, 2))`` once
        returned ``[1, nan, nan]``."""
        r = np.full(shape, 0.02)
        r[at] = bad
        with pytest.raises(ValidationError, match="^r must be finite$"):
            money_market(r, TimeGrid(1.0, 2))


class TestBundleCsv:
    def test_header_and_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["simulate", "--sigma", "0.01", "--steps", "4", "--paths", "2",
                         "--path-index", "0", "--seed", "3", "--out", str(out)])
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        lines = outs[0].strip().split("\n")
        assert lines[0] == "t,sigma,B,qv,lambda,r,D"
        assert len(lines) == TimeGrid(1.0, 4).n_steps + 2
        first = lines[1].split(",")
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0 and float(first[6]) == 1.0


@pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, "3", None])
def test_bundle_seed_must_be_a_non_negative_integer(monkeypatch, seed):
    draws = []
    monkeypatch.setattr(robustrates.paths, "_draw_normals", lambda *a: draws.append(a))
    message = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValidationError, match=message):
        simulate_bundle(Constant(0.01), BAND, TimeGrid(1.0, 4), None, seed=seed, n_paths=4)
    assert draws == []


class TestGridValidation:
    def test_grid_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 0)

    def test_index_of_rejects_off_grid(self):
        grid = TimeGrid(1.0, 4)
        assert grid.index_of(0.5) == 2
        with pytest.raises(ValidationError):
            grid.index_of(0.3)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_index_of_rejects_non_finite(self, t):
        with pytest.raises(ValidationError, match="not a grid point"):
            TimeGrid(1.0, 4).index_of(t)

    @pytest.mark.parametrize("t", [True, "0.5", None, 10**400, np.array(0.5)])
    def test_index_of_takes_the_number_rule(self, t):
        """``index_of(True)`` once returned index 4, and ``"0.5"`` escaped as a bare
        ``TypeError``."""
        with pytest.raises(ValidationError, match=r"^t must be a finite real number, got "):
            TimeGrid(1.0, 4).index_of(t)

    def test_index_of_takes_numpy_scalars(self):
        grid = TimeGrid(1.0, 4)
        got = grid.index_of(np.float32(0.5)), grid.index_of(np.int64(1)), grid.index_of(1)
        assert got == (2, 4, 4)

    @pytest.mark.parametrize(
        "t, maturity",
        [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan), (np.inf, np.inf), (np.array([0.0, np.nan]), 1.0)],
    )
    def test_interval_rejects_non_finite(self, t, maturity):
        with pytest.raises(ValidationError, match="need 0 <= t <= T < inf"):
            b_factor(1.0, t, maturity)

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            RateParams(r0=0.02, alpha=0.0)
        with pytest.raises(ValidationError):
            RateParams(r0=np.inf, alpha=1.0)
        for mu in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match="mu must be a finite real number"):
                RateParams(r0=0.02, alpha=1.0, mu=mu)


@pytest.mark.parametrize("mu", [lambda s: 0.01 + 0.02 * s, None, np.array([0.01, 0.03]), True,
                                np.array(0.03), "0.03", 10**400],
                         ids=["callable", "None", "array", "bool", "0-d array", "str", "huge int"])
def test_mu_must_be_a_finite_real_or_a_curve(mu):
    message = r"^mu must be a finite real number, got "
    with pytest.raises(ValidationError, match=message):
        RateParams(r0=0.02, alpha=1.0, mu=mu)


@pytest.mark.parametrize("mu", [1, np.float32(0.5), np.int64(-2), 0.03])
def test_real_mu_is_kept_as_a_float(mu):
    params = RateParams(r0=0.02, alpha=1.0, mu=mu)
    assert type(params.mu) is float and params.mu == float(mu)
    assert params.mu_at(np.array([0.0, 0.5])).tolist() == [float(mu)] * 2


def test_curve_mu_is_alpha_f_plus_its_slope():
    curve = ForwardCurve(np.array([0.0, 1.0, 3.0]), np.array([0.02, 0.025, 0.03]))
    params = RateParams(r0=0.02, alpha=0.7, mu=curve)
    assert params.mu is curve
    s = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    slopes = np.array([0.005, 0.005, 0.0025, 0.0025, 0.0025])  # right slopes, the left at the end
    expected = 0.7 * np.interp(s, curve.maturities, curve.forwards) + slopes
    np.testing.assert_allclose(params.mu_at(s), expected, rtol=1e-15)


class TestCurveValueSemantics:
    KNOTS = ([0.0, 1.0, 3.0], [0.02, 0.025, 0.03])

    def test_equal_curves_compare_and_hash_equal(self):
        a = ForwardCurve(np.array(self.KNOTS[0]), np.array(self.KNOTS[1]))
        b = ForwardCurve(list(self.KNOTS[0]), list(self.KNOTS[1]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert ForwardCurve([0.0, 1.0], [-0.0, 0.01]) == ForwardCurve([0.0, 1.0], [0.0, 0.01])
        assert hash(ForwardCurve([0.0, 1.0], [-0.0, 0.01])) == hash(ForwardCurve([0.0, 1.0], [0.0, 0.01]))

    @pytest.mark.parametrize("other", [
        ([0.0, 1.0, 3.0], [0.02, 0.025, 0.031]),
        ([0.0, 1.0, 4.0], [0.02, 0.025, 0.03]),
        ([0.0, 1.0], [0.02, 0.025]),
    ])
    def test_distinct_curves_differ(self, other):
        a = ForwardCurve(*self.KNOTS)
        b = ForwardCurve(*other)
        assert a != b and not a == b
        assert a != self.KNOTS and a != 0.02

    def test_rate_params_with_a_curve_is_hashable_and_compares_by_value(self):
        p = RateParams(0.02, 1.0, ForwardCurve(*self.KNOTS))
        q = RateParams(0.02, 1.0, ForwardCurve(*self.KNOTS))
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != RateParams(0.02, 1.0, ForwardCurve([0.0, 1.0, 3.0], [0.02, 0.025, 0.031]))
        assert p != RateParams(0.02, 1.0, 0.02)

    def test_knots_are_read_only_copies(self):
        mats, fwds = np.array(self.KNOTS[0]), np.array(self.KNOTS[1])
        curve = ForwardCurve(mats, fwds)
        mats[1] = 2.0
        assert curve.maturities[1] == 1.0 and mats.flags.writeable
        with pytest.raises(ValueError):
            curve.forwards[0] = 0.0

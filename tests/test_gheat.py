import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustrates import (
    Grid1D,
    McConfig,
    NumericalError,
    Solution1D,
    ValidationError,
    VolBand,
    default_scenario_family,
    estimate_sublinear,
    gexpectation_terminal,
    solve_gheat,
)
from robustrates import gheat

BAND = VolBand(0.005, 0.02)


def small_grid(band=BAND, nx=101, t_final=1.0, span=0.2):
    return Grid1D.with_cfl(band, -span, span, nx, t_final)


def reference_solve(phi, band, grid, store_every=None):
    """The sweep as first written: fresh temporaries, the generator in its
    selecting form, and a NaN check after every level."""
    x = grid.x
    u = np.asarray(phi(x) if callable(phi) else phi, dtype=float).copy()
    dt = grid.dt
    inv_dx2 = 1.0 / grid.dx**2
    stored, stored_times = [u.copy()], [0.0]
    for n in range(1, grid.nt + 1):
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        g = np.where(d2 >= 0.0, 0.5 * band.sigma_hi**2, 0.5 * band.sigma_lo**2) * d2
        u[1:-1] += dt * g
        if np.isnan(u).any():
            i = int(np.argmax(np.isnan(u)))
            raise NumericalError(f"NaN at time level {n} (t={n * dt:.6g}), node {i}")
        if (store_every is not None and n % store_every == 0) or n == grid.nt:
            stored.append(u.copy())
            stored_times.append(n * dt)
    return Solution1D(grid=grid, times=np.asarray(stored_times), u=np.vstack(stored))


def nan_message(phi, band, grid, solve=solve_gheat):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as info:
            solve(phi, band, grid)
    return str(info.value)


PAYOFFS = {
    "smooth": lambda x: np.sin(7.0 * x) + x**2,
    "relu": lambda x: np.maximum(x, 0.0),
    "abs": np.abs,
    "constant": lambda x: np.full_like(x, -0.3),
}


class TestBitwiseAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        payoff=st.sampled_from([*PAYOFFS, "array"]),
        band=st.sampled_from([BAND, VolBand(0.02, 0.02), VolBand(0.001, 0.3)]),
        nx=st.integers(3, 400),
        t_final=st.sampled_from([0.25, 1.0]),
        levels=st.sampled_from(["cfl", "blocks", "blocks+1"]),
        blocks=st.integers(1, 4),
        store=st.sampled_from([None, 1, "k"]),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_bitwise_equal_to_reference(self, payoff, band, nx, t_final, levels, blocks, store, seed):
        # block ends fall every _NAN_CHECK_EVERY levels; nt at a multiple of
        # the block and one past it puts the last check on and off a block end
        rng = np.random.default_rng(seed)
        span = 0.3 * band.sigma_hi / 0.02
        nt = Grid1D.with_cfl(band, -span, span, nx, t_final).nt
        block = gheat._NAN_CHECK_EVERY
        if levels != "cfl":
            nt = block * max(blocks, math.ceil(nt / block)) + (levels == "blocks+1")
        grid = Grid1D(-span, span, nx, t_final, nt)
        phi = rng.normal(size=nx) if payoff == "array" else PAYOFFS[payoff]
        store_every = int(rng.integers(2, nt + 2)) if store == "k" else store
        sol = solve_gheat(phi, band, grid, store_every=store_every)
        ref = reference_solve(phi, band, grid, store_every=store_every)
        assert sol.u.tobytes() == ref.u.tobytes()
        assert sol.times.tobytes() == ref.times.tobytes()

    @pytest.mark.parametrize("name, phi, expected", [
        ("relu", lambda x: np.maximum(x, 0.0), "0x1.0574aa23619cfp-7"),
        ("square", lambda x: x * x, "0x1.a370debfbb2cdp-12"),
        ("negsquare", lambda x: -(x * x), "-0x1.a3992f914435ep-16"),
    ])
    def test_workload_values_pinned(self, name, phi, expected):
        assert gexpectation_terminal(phi, BAND, 1.0, nodes_per_width=100).hex() == expected


class TestScheme:
    def test_linear_initial_data_is_invariant(self):
        # second differences of a line vanish, and the generator maps 0 to 0
        grid = small_grid()
        sol = solve_gheat(lambda x: 2.0 * x + 0.3, BAND, grid, store_every=grid.nt // 4)
        for row in sol.u:
            np.testing.assert_allclose(row, 2.0 * grid.x + 0.3, atol=1e-14)

    def test_constant_preserving(self):
        grid = small_grid()
        sol = solve_gheat(lambda x: np.full_like(x, 0.7), BAND, grid)
        np.testing.assert_array_equal(sol.final, 0.7)

    def test_initial_level_is_sampled_phi(self):
        grid = small_grid(nx=51)
        phi = lambda x: np.sin(x)
        sol = solve_gheat(phi, BAND, grid)
        np.testing.assert_array_equal(sol.u[0], phi(grid.x))

    def test_comparison_principle(self):
        # phi1 >= phi2 nodewise must propagate to all time levels
        rng = np.random.default_rng(4)
        grid = small_grid(nx=81)
        base = np.cumsum(rng.normal(0, 0.01, grid.nx))
        phi2 = base
        phi1 = base + rng.uniform(0.0, 0.02, grid.nx)
        s1 = solve_gheat(phi1, BAND, grid, store_every=max(1, grid.nt // 8))
        s2 = solve_gheat(phi2, BAND, grid, store_every=max(1, grid.nt // 8))
        assert np.all(s1.u >= s2.u - 1e-15)

    def test_subadditive_in_initial_data(self):
        rng = np.random.default_rng(9)
        grid = small_grid(nx=81)
        phi1 = np.abs(grid.x) + rng.uniform(0, 0.01, grid.nx)
        phi2 = grid.x**2
        s12 = solve_gheat(phi1 + phi2, BAND, grid)
        s1 = solve_gheat(phi1, BAND, grid)
        s2 = solve_gheat(phi2, BAND, grid)
        assert np.all(s12.final <= s1.final + s2.final + 1e-12)

    def test_positive_homogeneous_in_initial_data(self):
        grid = small_grid(nx=81)
        phi = np.maximum(grid.x, 0.0)
        s1 = solve_gheat(phi, BAND, grid)
        s3 = solve_gheat(3.0 * phi, BAND, grid)
        np.testing.assert_allclose(s3.final, 3.0 * s1.final, rtol=1e-12, atol=1e-16)


class TestTerminalValues:
    def test_convex_square_selects_top_of_band(self):
        v = gexpectation_terminal(lambda x: x**2, BAND, 1.0)
        assert v == pytest.approx(BAND.sigma_hi**2, rel=0.01)

    def test_concave_square_selects_bottom_of_band(self):
        v = gexpectation_terminal(lambda x: -(x**2), BAND, 1.0)
        assert v == pytest.approx(-BAND.sigma_lo**2, rel=0.01)

    def test_constant_payoff_exact(self):
        v = gexpectation_terminal(lambda x: np.full_like(x, 1.25), BAND, 0.7)
        assert v == 1.25

    def test_relu_matches_classical_and_monte_carlo(self):
        v = gexpectation_terminal(lambda x: np.maximum(x, 0.0), BAND, 1.0)
        classical = BAND.sigma_hi / np.sqrt(2.0 * np.pi)  # E max(sigma Z, 0)
        assert v == pytest.approx(classical, rel=0.01)
        fam = default_scenario_family(BAND, n_constant=3, n_switching=2, seed=5)
        cfg = McConfig(n_paths=40_000, n_steps=64, horizon=1.0, base_seed=19)
        est = estimate_sublinear(lambda b: np.maximum(b.b[:, -1], 0.0), BAND, fam, cfg)
        assert abs(v - est.upper) <= max(0.01 * v, 3.0 * est.upper_se)

    def test_time_scaling_consistency(self):
        """u(a^2 t, 0) from phi equals u(t, 0) from phi(a x): the rescaled
        problem solves the same equation (checked across unrelated grids)."""
        a = 2.0
        phi = lambda x: np.maximum(x, 0.0) + 0.25 * np.abs(x)
        left = gexpectation_terminal(phi, BAND, a**2 * 0.25)
        right = gexpectation_terminal(lambda x: phi(a * x), BAND, 0.25)
        assert left == pytest.approx(right, rel=5e-3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValidationError):
            gexpectation_terminal(lambda x: x, BAND, 0.0)


class TestDegenerateBand:
    def test_reduces_to_classical_heat(self):
        band = VolBand(0.02, 0.02)
        v = gexpectation_terminal(lambda x: x**2, band, 1.0)
        assert v == pytest.approx(4e-4, rel=1e-4)

    def test_refinement_is_second_order(self):
        band = VolBand(0.02, 0.02)
        e_coarse = abs(gexpectation_terminal(lambda x: x**2, band, 1.0, nodes_per_width=50) - 4e-4)
        e_fine = abs(gexpectation_terminal(lambda x: x**2, band, 1.0, nodes_per_width=100) - 4e-4)
        assert 3.0 <= e_coarse / e_fine <= 5.0


class TestGridAndFailures:
    def test_with_cfl_raises_nt(self):
        grid = Grid1D.with_cfl(BAND, -1.0, 1.0, 201, 1.0)
        assert grid.cfl_number(BAND) <= 0.5 + 1e-12
        assert grid.nt > 1

    @pytest.mark.parametrize("x_max, nx", [(0.0, 4), (1.0, 1)])
    def test_with_cfl_validates_before_dividing(self, x_max, nx):
        with pytest.raises(ValidationError):
            Grid1D.with_cfl(BAND, 0.0, x_max, nx, 1.0)

    def test_bypassed_cfl_aborts(self):
        grid = Grid1D(-0.1, 0.1, 201, 1.0, nt=10)  # wildly unstable on purpose
        assert grid.cfl_number(BAND) > 1.0
        with pytest.raises(NumericalError, match="stability"):
            solve_gheat(lambda x: x**2, BAND, grid)

    def test_nan_diagnosed_with_location(self):
        grid = small_grid(nx=51)
        huge = lambda x: 1e308 * (x**2)  # second difference overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"time level \d+.*node \d+"):
                solve_gheat(huge, BAND, grid)

    @pytest.mark.parametrize("case", ["huge_square", "two_spikes"])
    def test_nan_diagnosis_independent_of_check_interval(self, monkeypatch, case):
        # a NaN first shows at level 2 here; the intervals put the check that
        # finds it on every level, on level 2, after it, and at the block end
        if case == "huge_square":
            grid, phi = small_grid(nx=51), lambda x: 1e308 * (x**2)
        else:
            grid = small_grid(nx=401)  # 801 levels: several blocks
            phi = np.zeros(grid.nx)
            phi[100], phi[300] = 1e308, -1e308
        expected = nan_message(phi, BAND, grid, solve=reference_solve)
        for every in (1, 2, 3, gheat._NAN_CHECK_EVERY):
            monkeypatch.setattr(gheat, "_NAN_CHECK_EVERY", every)
            assert nan_message(phi, BAND, grid) == expected

    def test_replay_finds_a_nan_past_the_first_block(self, monkeypatch):
        # a NaN planted once the kink has decayed below a threshold, a
        # condition of the state alone, so the replay meets it again
        real = gheat._g_in_place

        def planted(band, a, scratch):
            if a.max() < 25.0:
                a[17] = np.nan
            return real(band, a, scratch)

        monkeypatch.setattr(gheat, "_g_in_place", planted)
        grid = small_grid(nx=401)
        relu = lambda x: np.maximum(x, 0.0)
        default = gheat._NAN_CHECK_EVERY
        messages = set()
        for every in (1, 2, 3, 100, default):
            monkeypatch.setattr(gheat, "_NAN_CHECK_EVERY", every)
            messages.add(nan_message(relu, BAND, grid))
        (message,) = messages
        # past the first block end, so each interval replays from its own clean level
        level = int(message.split()[4])
        assert default < level < grid.nt
        assert message.endswith("node 18")

    def test_non_finite_phi_rejected(self):
        grid = small_grid(nx=51)
        phi = np.zeros(grid.nx)
        phi[3] = np.nan
        with pytest.raises(ValidationError):
            solve_gheat(phi, BAND, grid)

    def test_phi_shape_validated(self):
        grid = small_grid(nx=51)
        with pytest.raises(ValidationError):
            solve_gheat(np.zeros(7), BAND, grid)

    def test_grid_field_validation(self):
        with pytest.raises(ValidationError):
            Grid1D(1.0, -1.0, 11, 1.0, 1)
        with pytest.raises(ValidationError):
            Grid1D(-1.0, 1.0, 2, 1.0, 1)

import math
import re
from dataclasses import replace

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


def reference_solve(phi, band, grid, store_every=None, plant=None):
    """The sweep as first written: fresh temporaries, the generator in its
    selecting form, and a NaN check after every level.  ``dt * g(d2 / dx^2)``
    is taken as ``g`` on the halved variances times ``r = dt / dx^2``,
    applied to the bare second difference ``d2``.  ``plant(d2)``, if given,
    runs on each level's ``d2`` first, as :func:`plant_in_sweep` runs it in
    the sweep."""
    x = grid.x
    u = np.asarray(phi(x) if callable(phi) else phi, dtype=float).copy()
    dt = grid.dt
    r = dt / grid.dx**2
    stored, stored_times = [u.copy()], [0.0]
    for n in range(1, grid.nt + 1):
        d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
        if plant is not None:
            plant(d2)
        u[1:-1] += np.where(d2 >= 0.0, 0.5 * band.sigma_hi**2 * r, 0.5 * band.sigma_lo**2 * r) * d2
        if np.isnan(u).any():
            i = int(np.argmax(np.isnan(u)))
            raise NumericalError(f"NaN at time level {n} (t={n * dt:.6g}), node {i}")
        if (store_every is not None and n % store_every == 0) or n == grid.nt:
            stored.append(u.copy())
            stored_times.append(n * dt)
    return Solution1D(grid=grid, times=np.asarray(stored_times), u=np.vstack(stored))


def huge_square(x):
    """``1e308`` at the two edges: the nodes next to them double past the
    float maximum, so the first level makes an infinity and the second a NaN."""
    return 1e308 * (x / x[-1]) ** 2


def nan_message(phi, band, grid, solve=solve_gheat, **kwargs):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as info:
            solve(phi, band, grid, **kwargs)
    return str(info.value)


def planted_below(threshold):
    """A NaN at ``d2[17]`` (node 18) once the largest second difference is
    below ``threshold``: a condition of the state alone, so a replay of the
    sweep meets it again."""

    def plant(d2):
        if d2.max() < threshold:
            d2[17] = np.nan

    return plant


def plant_in_sweep(monkeypatch, plant):
    """Run ``plant(d2)`` on the bare second difference at every level of the
    sweep, just before the generator, as ``reference_solve(..., plant=plant)``
    does."""
    real = gheat._g_in_place

    def planted(a, scratch, coefficients):
        plant(a)
        return real(a, scratch, coefficients)

    monkeypatch.setattr(gheat, "_g_in_place", planted)


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
        levels=st.sampled_from(["cfl", "more"]),
        more=st.integers(1, 1100),
        store=st.sampled_from([None, 1, "nt-1", "nt", "nt+1", "k"]),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_bitwise_equal_to_reference(self, payoff, band, nx, t_final, levels, more, store, seed):
        # the sweep stops at each stored level and at nt: a store on every
        # level, on, just before and just after nt, or every k-th, on the
        # fewest stable levels (small nt) and on up to 1100 levels (large nt)
        rng = np.random.default_rng(seed)
        span = 0.3 * band.sigma_hi / 0.02
        nt = Grid1D.with_cfl(band, -span, span, nx, t_final).nt
        if levels == "more":
            nt = max(nt, more)
        grid = Grid1D(-span, span, nx, t_final, nt)
        phi = rng.normal(size=nx) if payoff == "array" else PAYOFFS[payoff]
        store_every = {"nt-1": max(1, nt - 1), "nt": nt, "nt+1": nt + 1,
                       "k": int(rng.integers(2, nt + 2))}.get(store, store)
        sol = solve_gheat(phi, band, grid, store_every=store_every)
        ref = reference_solve(phi, band, grid, store_every=store_every)
        assert sol.u.tobytes() == ref.u.tobytes()
        assert sol.times.tobytes() == ref.times.tobytes()

    @pytest.mark.parametrize("nt", ["below one block", "several blocks"])
    @pytest.mark.parametrize("store", ["1", "block-1", "block", "block+1", "nt-1", "nt", "nt+1"])
    def test_bitwise_where_stores_and_checks_interleave(self, nt, store):
        # the sweep runs in blocks up to each stored level and checks for NaN
        # once, at nt; these schedules store every level, every block of 64
        # levels or one level off it, and on, just before and just after nt
        block = 64
        nt = block // 2 + 3 if nt == "below one block" else 3 * block + 5
        store_every = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                       "nt-1": nt - 1, "nt": nt, "nt+1": nt + 1}[store]
        grid = Grid1D(-0.3, 0.3, 41, 1.0, nt)
        phi = PAYOFFS["smooth"]
        sol = solve_gheat(phi, BAND, grid, store_every=store_every)
        ref = reference_solve(phi, BAND, grid, store_every=store_every)
        assert sol.u.tobytes() == ref.u.tobytes()
        assert sol.times.tobytes() == ref.times.tobytes()

    def test_generator_called_once_per_level_on_one_coefficient_pair(self, monkeypatch):
        real = gheat._g_in_place
        seen = []

        def spy(a, scratch, coefficients):
            seen.append(coefficients)
            return real(a, scratch, coefficients)

        monkeypatch.setattr(gheat, "_g_in_place", spy)
        grid = small_grid(nx=401)  # 445 levels: five blocks up to a stored level
        solve_gheat(PAYOFFS["relu"], BAND, grid, store_every=100)
        assert len(seen) == grid.nt > 100
        assert all(c is seen[0] for c in seen)
        # the halved variances pre-scaled by r = dt / dx^2
        r = grid.dt / grid.dx**2
        half_hi, half_lo = seen[0]
        for got, want in ((half_hi, 0.5 * BAND.sigma_hi**2 * r), (half_lo, 0.5 * BAND.sigma_lo**2 * r)):
            assert got.shape == () and got.dtype == np.float64
            assert float(got).hex() == want.hex()

    # the relative error bound is far tighter than the 1% oracle check, so a
    # change that repins the values cannot lose accuracy unseen
    @pytest.mark.parametrize("name, phi, expected, oracle, bound", [
        ("relu", lambda x: np.maximum(x, 0.0), "0x1.0574ffe831a2fp-7",
         BAND.sigma_hi / math.sqrt(2.0 * math.pi), 5e-5),  # error 2.38e-5
        ("square", lambda x: x * x, "0x1.a370debfbc1f4p-12", BAND.sigma_hi**2, 5e-5),  # 2.50e-5
        ("negsquare", lambda x: -(x * x), "-0x1.a3992f91462f7p-16", -(BAND.sigma_lo**2), 5e-4),  # 4.01e-4
    ])
    def test_workload_values_pinned(self, name, phi, expected, oracle, bound):
        v = gexpectation_terminal(phi, BAND, 1.0, nodes_per_width=100)
        assert v.hex() == expected
        assert abs(v - oracle) <= bound * abs(oracle)


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
    def test_sawtooth_is_damped_every_level(self):
        # (-1)^i has d2 = -4 u, so a level maps it to (1 - 2 cfl) u; the frozen
        # edges reach one node further each level, so nodes past that keep the form
        band = VolBand(0.02, 0.02)
        grid = Grid1D.with_cfl(band, -0.1, 0.1, 61, 0.25)
        factor = 1.0 - 2.0 * grid.cfl_number(band)
        assert abs(factor) < 1.0
        phi = (-1.0) ** np.arange(grid.nx)
        sol = solve_gheat(phi, band, grid, store_every=1)
        assert 1 < grid.nt < grid.nx // 2 - 1
        for n in range(1, grid.nt + 1):
            inner = slice(n + 1, grid.nx - n - 1)
            np.testing.assert_allclose(sol.u[n, inner], factor * sol.u[n - 1, inner], rtol=1e-13)
        np.testing.assert_allclose(np.abs(sol.u[-1, grid.nx // 2]), abs(factor) ** grid.nt, rtol=1e-12)

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
        assert grid.cfl_number(BAND) <= gheat._CFL + 1e-12
        assert grid.nt > 1

    def test_margin_is_strictly_below_the_monotone_limit(self):
        # at 1 the sawtooth mode is not damped (see TestDegenerateBand)
        assert 0.0 < gheat._CFL < 1.0

    @pytest.mark.parametrize("band, nx, t, span", [
        (BAND, 51, 1.0, None), (BAND, 401, 1.0, None), (BAND, 1600, 1.0, None),
        (VolBand(0.001, 0.3), 97, 0.25, None), (BAND, 7, 0.3, None),
        (VolBand(0.001, 0.3), 7, 3.0, 0.3),  # 30 levels meet it; the float count is 30 + 4e-15
    ])
    def test_with_cfl_takes_the_fewest_levels(self, band, nx, t, span):
        span = span or 8.0 * band.sigma_hi * math.sqrt(t)  # None: eight diffusion widths
        grid = Grid1D.with_cfl(band, -span, span, nx, t)
        assert grid.cfl_number(band) <= gheat._CFL + 1e-12  # nt is sized in floats
        assert grid.nt == 1 or replace(grid, nt=grid.nt - 1).cfl_number(band) > gheat._CFL

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
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"time level \d+.*node \d+"):
                solve_gheat(huge_square, BAND, grid)

    @pytest.mark.parametrize("case", ["huge_square", "two_spikes", "last_level"])
    def test_nan_diagnosis_independent_of_check_interval(self, monkeypatch, case):
        # the reference checks every level, the sweep once after the last; a
        # NaN first made at level 2 (huge_square, two_spikes) or at the last
        # level nt reads the same under every store schedule
        plant = None
        if case == "huge_square":
            grid, phi = small_grid(nx=51), huge_square
        elif case == "two_spikes":
            grid = small_grid(nx=401)  # 445 levels
            phi = np.zeros(grid.nx)
            phi[100], phi[300] = 1e308, -1e308
        else:
            # planted once d2 is no larger than it is on the last level
            grid, phi = small_grid(nx=101), PAYOFFS["relu"]
            u = reference_solve(phi, BAND, grid, store_every=1).u[-2]
            plant = planted_below(np.nextafter((u[2:] - 2.0 * u[1:-1] + u[:-2]).max(), np.inf))
            plant_in_sweep(monkeypatch, plant)
        expected = nan_message(phi, BAND, grid, solve=reference_solve, plant=plant)
        assert int(expected.split()[4]) == (grid.nt if case == "last_level" else 2)
        nt = grid.nt
        for store_every in (None, 1, 2, 3, nt - 1, nt, nt + 1):
            assert nan_message(phi, BAND, grid, store_every=store_every) == expected

    def test_replay_finds_a_nan_past_the_first_block(self, monkeypatch):
        # a NaN planted once the kink has decayed below a threshold, past the
        # first stored level, so the replay runs from the initial slice through
        # stored levels and meets it again
        grid = small_grid(nx=401)
        plant = planted_below(25.0 * grid.dx**2)  # 25 in units of d2 / dx^2
        plant_in_sweep(monkeypatch, plant)
        relu = PAYOFFS["relu"]
        expected = nan_message(relu, BAND, grid, solve=reference_solve, plant=plant)
        messages = {nan_message(relu, BAND, grid, store_every=k) for k in (None, 1, 2, 3, 100)}
        assert messages == {expected}
        level = int(expected.split()[4])
        assert 100 < level < grid.nt
        assert expected.endswith("node 18")

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

    @pytest.mark.parametrize("args", [
        (-math.inf, 1.0, 11, 1.0, 1),
        (-1.0, math.inf, 11, 1.0, 1),
        (math.nan, 1.0, 11, 1.0, 1),
        (-1.0, 1.0, 11, math.inf, 1),
        (-1.0, 1.0, 11, math.nan, 1),
        (-1.0, 1.0, 11, 1.0, 2.5),  # would run 3 levels and store none past level 0
        (-1.0, 1.0, 11, 1.0, 3.0),
        (-1.0, 1.0, 11, 1.0, True),
        (-1.0, 1.0, 5.5, 1.0, 1),
        (-1.0, 1.0, True, 1.0, 1),
        (-1e300, 1e300, 3, 1.0, 1),  # dx**2 overflows
        (-1e-170, 1e-170, 3, 1.0, 1),  # dx**2 underflows to 0
    ])
    def test_grid_fields_are_finite_integers_and_dx_squared_is_usable(self, args):
        with pytest.raises(ValidationError):
            Grid1D(*args)

    def test_grid_takes_numpy_integers(self):
        grid = Grid1D(-1.0, 1.0, np.int64(11), 1.0, np.int32(3))
        assert grid.x.size == 11 and grid.dt == 1.0 / 3

    @pytest.mark.parametrize("band, x_max, nx, t_final", [
        (VolBand(1e-170, 1e-160), 1e-160, 1600, 1.0),  # dx**2 underflows to 0
        (BAND, 1e300, 3, 1.0),  # dx**2 overflows
        (BAND, 1.0, 11, math.inf),
        (VolBand(0.02, 0.02), 1e-160, 3, 1.0),  # more levels than a float holds
    ])
    def test_with_cfl_rejects_what_it_cannot_size(self, band, x_max, nx, t_final):
        with pytest.raises(ValidationError):
            Grid1D.with_cfl(band, -x_max, x_max, nx, t_final)

    @pytest.mark.parametrize("kwargs", [
        {"t": math.inf}, {"t": math.nan}, {"pad_widths": math.nan}, {"pad_widths": math.inf},
    ])
    def test_terminal_grid_inputs_must_be_finite(self, kwargs):
        kwargs = {"t": 1.0, **kwargs}
        with pytest.raises(ValidationError):
            gexpectation_terminal(PAYOFFS["relu"], BAND, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"t": True}, "t must be a finite real number > 0, got True"),
        ({"t": "1"}, "t must be a finite real number > 0, got '1'"),
        ({"nodes_per_width": 2.5}, "nodes_per_width must be an integer, got 2.5"),
        ({"nodes_per_width": 10**400}, "nodes_per_width must be a finite real number, got 1"),
        ({"pad_widths": True}, "pad_widths must be a finite real number, got True"),
        ({"nodes_per_width": 0}, "nodes_per_width must be an integer >= 1, got 0"),
        ({"nodes_per_width": -5}, "nodes_per_width must be an integer >= 1, got -5"),
        ({"pad_widths": 0}, "pad_widths must be a finite real number > 0, got 0"),
        ({"pad_widths": -8.0}, "pad_widths must be a finite real number > 0, got -8.0"),
        ({"nodes_per_width": 1, "pad_widths": 0.1},
         "pad_widths * nodes_per_width must be at least 1.5 for a grid of 3 nodes or more, got 0.1 * 1"),
        ({"nodes_per_width": 3, "pad_widths": 0.49},
         "pad_widths * nodes_per_width must be at least 1.5 for a grid of 3 nodes or more, got 0.49 * 3"),
    ])
    def test_terminal_grid_inputs_take_the_number_rules(self, kwargs, message):
        """``nodes_per_width=2.5`` was once rounded to a grid, and ``t=True`` ran as 1;
        a grid of no nodes per width or no padding was reported as ``nx must be an
        integer >= 3, got 0`` or ``need x_min < x_max``, names the caller never used."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            gexpectation_terminal(PAYOFFS["relu"], BAND, **{"t": 1.0, **kwargs})

    def test_terminal_grid_takes_the_fewest_nodes_it_allows(self):
        # 1.5 nodes round to 2, so the grid has 4 nodes
        assert gheat._terminal_grid(BAND, 1.0, 1, 1.5).nx == 4
        assert math.isfinite(gexpectation_terminal(PAYOFFS["relu"], BAND, 1.0, 1, 1.5))

    @pytest.mark.parametrize("x0", ["a", None, True, math.nan, np.array([0.0])])
    def test_value_at_takes_the_number_rule(self, x0):
        """``"a"`` once escaped as a ``UFuncTypeError``, ``None`` as a bare
        ``TypeError``, and ``True`` read as 1.0."""
        sol = solve_gheat(PAYOFFS["relu"], BAND, small_grid(nx=51))
        with pytest.raises(ValidationError, match="^x0 must be a finite real number"):
            sol.value_at(x0)

    def test_value_at_takes_numpy_and_integer_numbers(self):
        sol = solve_gheat(PAYOFFS["relu"], BAND, small_grid(nx=51))
        want = sol.value_at(0.0)
        assert sol.value_at(0) == sol.value_at(np.float64(0.0)) == sol.value_at(np.int32(0)) == want

    @pytest.mark.parametrize("store_every", [0, -1, 2.5, 2.0, True, False, "2"])
    def test_store_every_must_be_an_integer_at_least_1(self, store_every):
        with pytest.raises(ValidationError, match="store_every"):
            solve_gheat(PAYOFFS["relu"], BAND, small_grid(nx=51), store_every=store_every)

    def test_store_every_takes_numpy_integers(self):
        grid = small_grid(nx=51)
        assert grid.nt == 7
        want = solve_gheat(PAYOFFS["relu"], BAND, grid, store_every=3)
        got = solve_gheat(PAYOFFS["relu"], BAND, grid, store_every=np.int64(3))
        assert got.u.tobytes() == want.u.tobytes() and got.times.size > 2

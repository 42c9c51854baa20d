import numpy as np
import pytest

from robustrates import (
    Grid1D,
    McConfig,
    NumericalError,
    ValidationError,
    VolBand,
    default_scenario_family,
    estimate_sublinear,
    gexpectation_terminal,
    solve_gheat,
)

BAND = VolBand(0.005, 0.02)


def small_grid(band=BAND, nx=101, t_final=1.0, span=0.2):
    return Grid1D.with_cfl(band, -span, span, nx, t_final)


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

"""Explicit finite-difference solver for the nonlinear band heat equation.

Solves ``du/dt = g(d2u/dx2)`` with ``g`` the band generator (worst-case
half-variance), forward in time from ``u(0, x) = phi(x)``.  The scheme is
the classical explicit stencil with a bang-bang diffusion coefficient:
``sigma_hi^2`` where the second difference is nonnegative, ``sigma_lo^2``
where it is negative.  Under the stability bound
``sigma_hi^2 * dt / dx^2 <= 1`` the scheme is monotone, which is what makes
it converge to the (viscosity) solution of this fully nonlinear equation.
Grids built here take the fewest levels with that ratio at most ``_CFL``
= 0.9, not 1: at 1 the top-variance branch puts no weight on the centre
node, and the sawtooth mode's amplification factor ``1 - 2 * ratio`` is
-1, so it is never damped; at 0.9 it is -0.8.

``u(t, 0)`` computed here is the exact upper expectation of ``phi`` of the
driver at time ``t``, so this module is the deterministic cross-check for
the Monte Carlo estimator on terminal-value payoffs.

Boundary treatment: the second derivative is taken as zero at the two edge
nodes (payoffs of at most linear growth), so edge values stay frozen; the
auto-sized grids keep the boundary several diffusion widths away from the
evaluation point.

The sweep does nothing per level but seven ufunc calls: three for the
bare second difference ``d2``, three for the generator, one add.  ``g`` is
positively homogeneous, so ``dt * g(d2 / dx^2)`` is the generator on its
halved variances times ``dt / dx^2``, applied to ``d2``.  Both run in place
in two buffers, on constants (``2`` and that scaled pair) formed once per
call as 0-d arrays with the same bits as the Python floats.  Levels run in
blocks up to the next event: a level to store, a NaN check, or the last
level.  The sweep checks for NaN once every ``_NAN_CHECK_EVERY`` levels
and at the last one.  A NaN that reaches an interior node never leaves,
because ``NaN + x`` is NaN and the edge nodes are frozen finite values,
so a check at the end of a block sees any NaN made inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, inf, isfinite, sqrt
from typing import Callable, Optional, Union

import numpy as np

from .band import VolBand, _g_coefficients, _g_in_place
from .errors import NumericalError, ValidationError, _is_int

#: stability margin of every grid built here: ``sigma_hi^2 dt / dx^2 <= _CFL``
_CFL = 0.9
#: levels between NaN checks of the sweep (see :func:`solve_gheat`)
_NAN_CHECK_EVERY = 256


@dataclass(frozen=True)
class Grid1D:
    """Space-time box for the solver.  Build through :meth:`with_cfl` to get
    the fewest time steps ``nt`` that meet the stability bound."""

    x_min: float
    x_max: float
    nx: int
    t_final: float
    nt: int

    def __post_init__(self):
        if not (isfinite(self.x_min) and isfinite(self.x_max) and isfinite(self.t_final)):
            raise ValidationError("need finite x_min, x_max and t_final")
        if not (self.x_min < self.x_max):
            raise ValidationError("need x_min < x_max")
        if not (_is_int(self.nx) and self.nx >= 3):
            raise ValidationError(f"need an integer nx >= 3, got {self.nx!r}")
        if not (self.t_final > 0):
            raise ValidationError("need t_final > 0")
        if not (_is_int(self.nt) and self.nt >= 1):
            raise ValidationError(f"need an integer nt >= 1, got {self.nt!r}")
        try:
            dx2 = float(self.dx) ** 2
        except OverflowError:
            dx2 = inf
        if not (0.0 < dx2 < inf):
            raise ValidationError(f"node spacing {self.dx:g} has no finite, positive square")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def cfl_number(self, band: VolBand) -> float:
        return band.sigma_hi**2 * self.dt / self.dx**2

    @classmethod
    def with_cfl(
        cls,
        band: VolBand,
        x_min: float,
        x_max: float,
        nx: int,
        t_final: float,
    ) -> "Grid1D":
        """Grid with the fewest steps ``nt`` for which ``sigma_hi^2 dt / dx^2 <= _CFL``."""
        grid = cls(x_min, x_max, nx, t_final, 1)
        levels = band.sigma_hi**2 * t_final / (_CFL * grid.dx**2)
        if not levels < inf:
            raise ValidationError("the stability bound needs more time levels than a float holds")
        nt = max(1, ceil(levels))
        if nt > 1 and replace(grid, nt=nt - 1).cfl_number(band) <= _CFL:
            nt -= 1  # the float count rounded up past an integer that meets the bound
        return replace(grid, nt=nt)


@dataclass
class Solution1D:
    """Stored time slices of the solution; level 0 is always the sampled
    initial condition and the last stored slice is the final time."""

    grid: Grid1D
    times: np.ndarray
    u: np.ndarray  # shape (n_stored, nx)

    @property
    def final(self) -> np.ndarray:
        return self.u[-1]

    def value_at(self, x0: float) -> float:
        """Final-time value at ``x0`` by linear interpolation."""
        x = self.grid.x
        if not (x[0] <= x0 <= x[-1]):
            raise ValidationError(f"x0={x0} outside the grid")
        return float(np.interp(x0, x, self.u[-1]))


PayoffLike = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]


def solve_gheat(
    phi: PayoffLike,
    band: VolBand,
    grid: Grid1D,
    store_every: Optional[int] = None,
) -> Solution1D:
    """March ``u`` forward with the explicit bang-bang stencil.

    ``phi`` is a callable sampled once onto the nodes, or an array of node
    values.  ``store_every=k``, an integer ``k >= 1``, keeps every k-th time
    level (plus the final one); the default keeps only the initial and
    final levels.

    The levels between two events (a level to store, a NaN check, the last
    level) run as bare ufunc calls on constants formed once per call: the
    generator's halved variances times ``dt / dx^2`` act on the bare second
    difference (see the module docstring).  A NaN persists once made, so it
    is looked for only every ``_NAN_CHECK_EVERY`` levels and at the last
    one.  A check that finds one restores the last clean level and replays
    the block one level at a time; the replay gives the same bits, so the
    :class:`NumericalError` names the first NaN level and node whatever the
    interval.
    """
    cfl = grid.cfl_number(band)
    if cfl > 1.0 + 1e-12:
        raise NumericalError(
            f"stability bound violated: sigma_hi^2*dt/dx^2 = {cfl:.4g} > 1; "
            f"rebuild the grid with Grid1D.with_cfl"
        )
    x = grid.x
    u = np.asarray(phi(x) if callable(phi) else phi, dtype=float).copy()
    if u.shape != x.shape:
        raise ValidationError(f"phi must give one value per node, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValidationError("phi must be finite at all nodes")

    if store_every is not None and not (_is_int(store_every) and store_every >= 1):
        raise ValidationError(f"store_every must be an integer >= 1, got {store_every!r}")
    nt, dt = grid.nt, grid.dt
    # d2 = u[2:] - 2.0*u[1:-1] + u[:-2], then u[1:-1] += g_r(d2) with g_r the
    # generator on its halved variances times r = dt / dx^2, with the same
    # operations in the same order, on 0-d copies of the constants
    two, coefficients = np.array(2.0), _g_coefficients(band, dt / grid.dx**2)
    multiply, subtract, add = np.multiply, np.subtract, np.add

    stored = [u.copy()]
    stored_times = [0.0]
    left, mid, right = u[:-2], u[1:-1], u[2:]
    d2, scratch = np.empty_like(mid), np.empty_like(mid)
    clean, clean_n, every = u.copy(), 0, _NAN_CHECK_EVERY
    n = 0
    while n < nt:
        # run up to the next event: a NaN check, a level to store, the last level
        stop = min(nt, (n // every + 1) * every)
        if store_every is not None:
            stop = min(stop, (n // store_every + 1) * store_every)
        for _ in range(n, stop):
            multiply(mid, two, d2)
            subtract(right, d2, d2)
            add(d2, left, d2)
            # generator evaluated pointwise: worst-case variance for the sign of d2
            add(mid, _g_in_place(d2, scratch, coefficients), mid)
        n = stop
        if (store_every is not None and n % store_every == 0) or n == nt:
            stored.append(u.copy())
            stored_times.append(n * dt)
        if n % every == 0 or n == nt:
            if not np.isnan(u).any():
                clean[...] = u
                clean_n = n
            elif every > 1:
                # same bits again, so the replay stops at the first NaN level
                u[...] = clean
                n, every = clean_n, 1
            else:
                i = int(np.argmax(np.isnan(u)))
                raise NumericalError(f"NaN at time level {n} (t={n * dt:.6g}), node {i}")
    return Solution1D(grid=grid, times=np.asarray(stored_times), u=np.vstack(stored))


def _terminal_grid(
    band: VolBand, t: float, nodes_per_width: int, pad_widths: float
) -> Grid1D:
    """Grid spanning ``+- pad_widths * sigma_hi * sqrt(t)`` with
    ``nodes_per_width`` nodes per diffusion width; the node count is kept
    even so the read-out at 0 interpolates between cell centers."""
    if not (0 < t < inf):
        raise ValidationError("t must be finite and > 0")
    if not isfinite(pad_widths * nodes_per_width):
        raise ValidationError("need finite pad_widths and nodes_per_width")
    half = pad_widths * (band.sigma_hi * sqrt(t))
    nx = 2 * int(round(pad_widths * nodes_per_width))
    return Grid1D.with_cfl(band, -half, half, nx, t)


def gexpectation_terminal(
    phi: Callable[[np.ndarray], np.ndarray],
    band: VolBand,
    t: float,
    nodes_per_width: int = 100,
    pad_widths: float = 8.0,
) -> float:
    """Upper expectation of ``phi(B_t)`` via the PDE, on the grid of
    :func:`_terminal_grid`."""
    grid = _terminal_grid(band, t, nodes_per_width, pad_widths)
    return solve_gheat(phi, band, grid).value_at(0.0)

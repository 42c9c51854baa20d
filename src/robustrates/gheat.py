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
one block up to each level to store, and the last level is always stored.
The sweep checks for NaN once, after the last level.  A NaN that reaches an
interior node never leaves, because ``NaN + x`` is NaN and the edge nodes
are frozen finite values, so that one check sees any NaN made on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, inf, isfinite, sqrt
from typing import Callable, Optional, Union

import numpy as np

from .band import VolBand, _g_coefficients, _g_in_place
from .errors import NumericalError, ValidationError, _check_int, _check_real

#: stability margin of every grid built here: ``sigma_hi^2 dt / dx^2 <= _CFL``
_CFL = 0.9


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
        for name, lo in (("x_min", None), ("x_max", None), ("t_final", 0)):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), lo, lo_open=True))
        if not (self.x_min < self.x_max):
            raise ValidationError("need x_min < x_max")
        _check_int("nx", self.nx, lo=3)
        _check_int("nt", self.nt, lo=1)
        if not (0.0 < self.dx * self.dx < inf):
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
        """Final-time value at ``x0`` by linear interpolation; ``x0`` is a
        number on the grid."""
        x0, x = _check_real("x0", x0), self.grid.x
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

    The levels up to each stored one run as bare ufunc calls on constants
    formed once per call: the generator's halved variances times
    ``dt / dx^2`` act on the bare second difference (see the module
    docstring).  A NaN persists once made, so it is looked for once, after
    the last level.  If one is there, the sweep restores the initial slice
    and replays one level at a time with a check after each; the replay
    gives the same bits, so the :class:`NumericalError` names the first NaN
    level and node, and a failed solve costs at most two solves.
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

    if store_every is not None:
        _check_int("store_every", store_every, lo=1)
    nt, dt = grid.nt, grid.dt
    # every store_every-th level below nt, then nt
    stops = [nt] if store_every is None else [*range(store_every, nt, store_every), nt]
    mid = u[1:-1]
    stencil = (u[:-2], mid, u[2:], np.empty_like(mid), np.empty_like(mid),
               np.array(2.0), _g_coefficients(band, dt / grid.dx**2))
    stored, n = [u.copy()], 0
    for stop in stops:
        _sweep(stop - n, *stencil)
        n = stop
        stored.append(u.copy())
    if np.isnan(u).any():
        # same bits again, so the replay stops at the first NaN level
        u[...] = stored[0]
        for n in range(1, nt + 1):
            _sweep(1, *stencil)
            if np.isnan(u).any():
                i = int(np.argmax(np.isnan(u)))
                raise NumericalError(f"NaN at time level {n} (t={n * dt:.6g}), node {i}")
    return Solution1D(grid=grid, times=np.asarray([0, *stops]) * dt, u=np.vstack(stored))


def _sweep(levels, left, mid, right, d2, scratch, two, coefficients):
    """Run ``levels`` levels of the stencil on ``mid``, the view ``u[1:-1]``.

    Each level is ``d2 = u[2:] - 2.0*u[1:-1] + u[:-2]``, then
    ``u[1:-1] += g_r(d2)`` with ``g_r`` the generator on its halved variances
    times ``r = dt / dx^2`` (``coefficients``), with the same operations in
    the same order, in place in the buffers ``d2`` and ``scratch``, on the
    0-d constants ``two`` and ``coefficients``."""
    multiply, subtract, add, g = np.multiply, np.subtract, np.add, _g_in_place
    for _ in range(levels):
        multiply(mid, two, d2)
        subtract(right, d2, d2)
        add(d2, left, d2)
        # generator evaluated pointwise: worst-case variance for the sign of d2
        add(mid, g(d2, scratch, coefficients), mid)


def _terminal_grid(
    band: VolBand, t: float, nodes_per_width: int, pad_widths: float
) -> Grid1D:
    """Grid spanning ``+- pad_widths * sigma_hi * sqrt(t)`` with
    ``nodes_per_width`` nodes per diffusion width; the node count is kept
    even so the read-out at 0 interpolates between cell centers."""
    t = _check_real("t", t, 0, lo_open=True)
    # the bare rules before the bounds: 2.5 is reported as no integer, not as too small
    _check_int("nodes_per_width", nodes_per_width)
    nodes = _check_real("pad_widths", pad_widths) * _check_real("nodes_per_width", nodes_per_width)
    _check_int("nodes_per_width", nodes_per_width, lo=1)
    _check_real("pad_widths", pad_widths, 0, lo_open=True)
    if not isfinite(nodes):
        raise ValidationError("need finite pad_widths and nodes_per_width")
    half = pad_widths * (band.sigma_hi * sqrt(t))
    nx = 2 * int(round(nodes))
    if nx < 3:
        raise ValidationError(f"pad_widths * nodes_per_width must be at least 1.5 for a grid of "
                              f"3 nodes or more, got {pad_widths!r} * {nodes_per_width!r}")
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

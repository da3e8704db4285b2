"""Finite-difference model operator on the hyperbolic half-space.

The model operator in half-space coordinates ``(s, z)`` is

    D0 = -(s d_s)^2 + n s d_s - s^2 Lap_z

discretized on a grid uniform in ``tau = log s`` (so ``s d_s`` is exactly
``d_tau``) and uniform in each ``z`` axis.  ``D0`` acts on ``s^a`` as
multiplication by ``a (n - a)``, and the normal operator at a frozen
boundary point ``y_c`` is

    N f = alpha_c^2 * D0 f - (v0_c - lambda^2 - n^2/4) f
        = alpha_c^2 * (D0 - sigma (n - sigma)) f

where sigma is the indicial root for ``(alpha_c, v0_c, lambda)``, so ``N``
annihilates ``s^sigma`` identically.  ``green_residual_check`` verifies, at
second order in the spacing, that ``D0 - sigma (n - sigma)`` annihilates the
exact off-boundary kernel ``s^sigma (s^2 + |z|^2)^-sigma``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridTooCoarse, check_array_size, check_dimension

MIN_POINTS = 16
# the window of the residual study: it keeps the spacing well below min s, the
# kernel's shortest length scale, so the leading-order error term dominates on
# the coarse grid already
_TAU_SPAN = (-0.75, 0.75)
_Z_EXTENT = 1.0


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Uniform grid in ``(tau, z)`` with an exclusion ball at ``(s, z) = (1, 0)``.

    ``points`` per axis: ``tau`` spans ``_TAU_SPAN`` and each of the ``n``
    ``z`` axes spans ``[-_Z_EXTENT, _Z_EXTENT]``.  ``n`` must be 1..3
    (:func:`~scatjet.errors.check_dimension`), and the grid with its ghost
    layer may hold at most :data:`~scatjet.errors.MAX_ARRAY_VALUES` points,
    judged before any axis is built.  The ball's radius ``r_excl`` is three
    times the largest spacing unless given.
    """

    n: int
    points: int
    r_excl: float | None = None

    def __post_init__(self):
        check_dimension(self.n)
        if self.points < MIN_POINTS:
            raise GridTooCoarse(f"each axis needs >= {MIN_POINTS} points, got {self.points}")
        check_array_size(
            (self.points + 2,) * (self.n + 1),
            f"a half-space grid of {self.points} points per axis asks, with its ghost layer, "
            "for arrays",
        )
        if self.r_excl is None:
            object.__setattr__(self, "r_excl", 3.0 * max(self.dtau, self.dz))
        if self.r_excl <= 2.0 * max(self.dtau, self.dz):
            raise ValueError("exclusion radius must exceed twice the largest spacing")

    @property
    def tau(self) -> np.ndarray:
        return np.linspace(*_TAU_SPAN, self.points)

    @property
    def z(self) -> np.ndarray:
        """The one ``z`` axis, shared by all ``n`` of them."""
        return np.linspace(-_Z_EXTENT, _Z_EXTENT, self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * (self.n + 1)

    @property
    def dtau(self) -> float:
        return float(self.tau[1] - self.tau[0])

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    def axes(self, ghost: bool = False) -> list[np.ndarray]:
        """Coordinate axes, optionally extended by one ghost point per side."""
        out = []
        for ax in (self.tau, *(self.z,) * self.n):
            if ghost:
                d = ax[1] - ax[0]
                ax = np.concatenate(([ax[0] - d], ax, [ax[-1] + d]))
            out.append(ax)
        return out

    def mesh(self, ghost: bool = False) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(ghost=ghost), indexing="ij")

    def exclusion_mask(self) -> np.ndarray:
        """True where ``(s, z)`` lies outside the ball around ``(1, 0)``."""
        grids = self.mesh()
        s = np.exp(grids[0])
        d2 = (s - 1.0) ** 2
        for g in grids[1:]:
            d2 = d2 + g**2
        return d2 > self.r_excl**2


def _second_diff(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central second difference along ``axis``; loses one layer per side."""
    sl = [slice(1, -1)] * f.ndim
    lo, mid, hi = list(sl), list(sl), list(sl)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    return (f[tuple(hi)] - 2.0 * f[tuple(mid)] + f[tuple(lo)]) / (h * h)


def _first_diff(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    sl = [slice(1, -1)] * f.ndim
    lo, hi = list(sl), list(sl)
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return (f[tuple(hi)] - f[tuple(lo)]) / (2.0 * h)


def hyperbolic_laplacian_apply(f: np.ndarray, grid: HalfSpaceGrid) -> np.ndarray:
    """Apply ``D0`` by central differences; ``f`` must carry one ghost layer.

    ``f`` has shape ``grid.shape + 2`` per axis (values on ``grid.axes(ghost=True)``);
    the result is returned on the grid proper.
    """
    expected = tuple(m + 2 for m in grid.shape)
    if f.shape != expected:
        raise ValueError(f"f must include one ghost layer: expected shape {expected}, got {f.shape}")
    d2_tau = _second_diff(f, 0, grid.dtau)
    d1_tau = _first_diff(f, 0, grid.dtau)
    lap_z = sum(_second_diff(f, 1 + a, grid.dz) for a in range(grid.n))
    s = np.exp(grid.tau)
    s2 = (s * s).reshape((-1,) + (1,) * grid.n)
    return -d2_tau + grid.n * d1_tau - s2 * lap_z


@dataclass(frozen=True)
class GreenResidualReport:
    max_residual: float
    spacing: float


def _kernel_on(grid: HalfSpaceGrid, sigma: complex) -> np.ndarray:
    """Exact annihilated kernel ``s^sigma (s^2 + |z|^2)^-sigma`` with ghosts."""
    grids = grid.mesh(ghost=True)
    s = np.exp(grids[0])
    q = s * s
    for g in grids[1:]:
        q = q + g**2
    return np.exp(sigma * (np.log(s) - np.log(q)))


def green_residual_check(sigma: complex, grid: HalfSpaceGrid) -> GreenResidualReport:
    """Max norm of ``(D0 - sigma (n - sigma)) G`` off the exclusion ball, ``n = grid.n``.

    ``G = s^sigma (s^2 + |z|^2)^-sigma`` solves the model equation exactly,
    so the residual is pure discretization error and decays at second order
    in the spacing.
    """
    sig = complex(sigma)
    eig = sig * (grid.n - sig)
    # a kernel past double range gives non-finite residuals, which callers refuse
    with np.errstate(all="ignore"):
        G = _kernel_on(grid, sig)
        core = G[tuple(slice(1, -1) for _ in range(G.ndim))]
        resid = hyperbolic_laplacian_apply(G, grid) - eig * core
    max_residual = float(np.max(np.abs(resid[grid.exclusion_mask()])))
    return GreenResidualReport(max_residual, max(grid.dtau, grid.dz))


def green_residual_convergence(
    sigma: complex,
    n: int,
    base_points: int = 33,
) -> tuple[GreenResidualReport, GreenResidualReport, float]:
    """Residuals on a grid and its exact refinement; returns the decay ratio.

    Both grids cover ``tau`` in ``[-0.75, 0.75]`` and each ``z`` axis in
    ``[-1, 1]``.  The fine grid halves every spacing (``2m - 1`` points) and
    keeps the coarse exclusion radius so both residuals cover the same
    region; second-order convergence shows as a ratio near 4.  A ``sigma``
    whose kernel is constant (zero residuals) or overflows (non-finite
    residuals) has no ratio: :class:`ConfigError`.
    """
    coarse = HalfSpaceGrid(n, base_points)
    fine = HalfSpaceGrid(n, 2 * base_points - 1, r_excl=coarse.r_excl)
    rc = green_residual_check(sigma, coarse)
    rf = green_residual_check(sigma, fine)
    # written so that a NaN residual fails too
    if not (0.0 < rf.max_residual < np.inf and rc.max_residual < np.inf):
        raise ConfigError(
            f"sigma={sigma}: residuals {rc.max_residual} (coarse) and {rf.max_residual} (fine) "
            "give no decay ratio; the kernel is constant or overflows"
        )
    return rc, rf, rc.max_residual / rf.max_residual

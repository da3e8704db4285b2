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

from .errors import ConfigError, GridTooCoarse

MIN_POINTS = 16


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Uniform grid in ``(tau, z)`` with an exclusion ball at ``(s, z) = (1, 0)``."""

    n: int
    tau: np.ndarray
    z_axes: tuple[np.ndarray, ...]
    r_excl: float

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ValueError("n must be 1..3")
        tau = np.asarray(self.tau, dtype=float)
        z_axes = tuple(np.asarray(z, dtype=float) for z in self.z_axes)
        if len(z_axes) != self.n:
            raise ValueError("need one z axis per boundary dimension")
        for ax in (tau, *z_axes):
            if ax.ndim != 1 or ax.size < MIN_POINTS:
                raise GridTooCoarse(f"each axis needs >= {MIN_POINTS} points, got {ax.size}")
            d = np.diff(ax)
            if d[0] <= 0:
                raise ValueError("axes must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12):
                raise ValueError("axes must be uniformly spaced")
        if self.r_excl <= 2.0 * max(self.spacings(tau, z_axes)):
            raise ValueError("exclusion radius must exceed twice the largest spacing")
        tau.setflags(write=False)
        for ax in z_axes:
            ax.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "z_axes", z_axes)

    @staticmethod
    def spacings(tau, z_axes) -> list[float]:
        return [float(tau[1] - tau[0])] + [float(z[1] - z[0]) for z in z_axes]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.tau.size,) + tuple(z.size for z in self.z_axes)

    @property
    def dtau(self) -> float:
        return float(self.tau[1] - self.tau[0])

    def dz(self, axis: int) -> float:
        return float(self.z_axes[axis][1] - self.z_axes[axis][0])

    def axes(self, ghost: bool = False) -> list[np.ndarray]:
        """Coordinate axes, optionally extended by one ghost point per side."""
        out = []
        for ax in (self.tau, *self.z_axes):
            if ghost:
                d = ax[1] - ax[0]
                out.append(np.concatenate(([ax[0] - d], ax, [ax[-1] + d])))
            else:
                out.append(np.asarray(ax))
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

    @classmethod
    def make(
        cls,
        n: int,
        tau_span: tuple[float, float],
        z_extent: float,
        points: int,
        r_excl: float | None = None,
    ) -> "HalfSpaceGrid":
        tau = np.linspace(tau_span[0], tau_span[1], points)
        z_axes = tuple(np.linspace(-z_extent, z_extent, points) for _ in range(n))
        if r_excl is None:
            r_excl = 3.0 * max(cls.spacings(tau, z_axes))
        return cls(n=n, tau=tau, z_axes=z_axes, r_excl=r_excl)


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
    if min(grid.shape) < MIN_POINTS:
        raise GridTooCoarse(f"grid below {MIN_POINTS} points per axis")
    d2_tau = _second_diff(f, 0, grid.dtau)
    d1_tau = _first_diff(f, 0, grid.dtau)
    lap_z = sum(_second_diff(f, 1 + a, grid.dz(a)) for a in range(grid.n))
    s = np.exp(grid.tau)
    s2 = (s * s).reshape((-1,) + (1,) * grid.n)
    return -d2_tau + grid.n * d1_tau - s2 * lap_z


@dataclass(frozen=True)
class GreenResidualReport:
    max_residual: float
    max_kernel: float
    spacing: float
    n_points: int


def _kernel_on(grid: HalfSpaceGrid, sigma: complex) -> np.ndarray:
    """Exact annihilated kernel ``s^sigma (s^2 + |z|^2)^-sigma`` with ghosts."""
    grids = np.meshgrid(*grid.axes(ghost=True), indexing="ij")
    s = np.exp(grids[0])
    q = s * s
    for g in grids[1:]:
        q = q + g**2
    return np.exp(sigma * (np.log(s) - np.log(q)))


def green_residual_check(
    sigma: complex,
    n: int,
    grid: HalfSpaceGrid,
    wrong_sign: bool = False,
) -> GreenResidualReport:
    """Max norm of ``(D0 - sigma (n - sigma)) G`` off the exclusion ball.

    ``G = s^sigma (s^2 + |z|^2)^-sigma`` solves the model equation exactly,
    so the residual is pure discretization error and decays at second order
    in the spacing.  With ``wrong_sign=True`` the eigenvalue term is flipped
    to ``sigma (sigma - n)`` (a regression guard: that residual stays O(1)).
    """
    if grid.n != n:
        raise ValueError("grid dimension does not match n")
    sig = complex(sigma)
    G = _kernel_on(grid, sig)
    core = G[tuple(slice(1, -1) for _ in range(G.ndim))]
    eig = sig * (sig - n) if wrong_sign else sig * (n - sig)
    resid = hyperbolic_laplacian_apply(G, grid) - eig * core
    mask = grid.exclusion_mask()
    return GreenResidualReport(
        max_residual=float(np.max(np.abs(resid[mask]))),
        max_kernel=float(np.max(np.abs(core[mask]))),
        spacing=max(HalfSpaceGrid.spacings(grid.tau, grid.z_axes)),
        n_points=int(mask.sum()),
    )


def green_residual_convergence(
    sigma: complex,
    n: int,
    base_points: int = 33,
    tau_span: tuple[float, float] = (-0.75, 0.75),
    z_extent: float = 1.0,
) -> tuple[GreenResidualReport, GreenResidualReport, float]:
    """Residuals on a grid and its exact refinement; returns the decay ratio.

    The fine grid halves every spacing (same spans, ``2m - 1`` points) and
    keeps the coarse exclusion radius so both residuals cover the same
    region; second-order convergence shows as a ratio near 4.  The default
    window keeps the spacing well below ``min s``, the kernel's shortest
    length scale, so the leading-order error term dominates on the coarse
    grid already.  A ``sigma`` whose kernel is constant (zero residuals) or
    overflows (non-finite residuals) has no ratio: :class:`ConfigError`.
    """
    coarse = HalfSpaceGrid.make(n, tau_span, z_extent, base_points)
    fine = HalfSpaceGrid.make(
        n, tau_span, z_extent, 2 * base_points - 1, r_excl=coarse.r_excl
    )
    rc = green_residual_check(sigma, n, coarse)
    rf = green_residual_check(sigma, n, fine)
    # written so that a NaN residual fails too
    if not (0.0 < rf.max_residual < np.inf and rc.max_residual < np.inf):
        raise ConfigError(
            f"sigma={sigma}: residuals {rc.max_residual} (coarse) and {rf.max_residual} (fine) "
            "give no decay ratio; the kernel is constant or overflows"
        )
    return rc, rf, rc.max_residual / rf.max_residual

"""Boundary jets of the metric/potential pair and the indicial root field.

A :class:`BoundaryPatch` holds periodic grid samples, over a coordinate patch
of the boundary at infinity, of

* the asymptotic curvature scale ``alpha(y) > 0`` (sectional curvature tends
  to ``-alpha(y)^2``),
* the Taylor coefficients ``V^(j)(y)`` of the potential in the boundary
  defining function ``x``, and
* the Taylor coefficients ``h^(j)(y)`` of the boundary metric, with
  ``h^(0)`` symmetric positive definite.

The indicial root of the associated model operator at energy ``lambda`` is

    sigma(lambda, y) = n/2 + sqrt((n/2)^2 - (V0(y) - lambda^2 - n^2/4) / alpha(y)^2)

with the principal square root, so Re sigma >= n/2.  A *real* energy whose
discriminant goes negative sits in the exceptional real interval where the
two roots trade places; that is reported as an error rather than silently
resolved.  Non-real energies evaluate everywhere.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import BranchCut, ConfigError, MismatchedBoundary, raise_first
from .expressions import evaluate_field

_BOUNDARY_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class ComplexEnergy:
    """Spectral parameter ``lam`` with its cached square, which must be finite."""

    lam: complex
    lam_sq: complex = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lam = complex(self.lam)
        object.__setattr__(self, "lam", lam)
        if self.lam_sq is None:
            object.__setattr__(self, "lam_sq", lam * lam)
        else:
            given = complex(self.lam_sq)
            if abs(given - lam * lam) > 1e-12 * max(1.0, abs(given)):
                raise ConfigError("lam_sq does not equal lam**2")
            object.__setattr__(self, "lam_sq", given)
        if not cmath.isfinite(self.lam_sq):
            raise ConfigError(f"energy {lam}: lambda^2 = {self.lam_sq} is not finite")


def _as_field(value: Any, coords: Mapping[str, np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Coerce an expression string, scalar, or array to a grid-shaped float array."""
    if isinstance(value, str):
        out = evaluate_field(value, coords)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise ConfigError(f"field array has shape {arr.shape}, expected {shape}")
    return arr.copy()


def _as_matrix_field(value: Any, coords, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Coerce an n x n nest of entry specs (or a raw array) to shape ``shape + (n, n)``."""
    arr = np.asarray(value, dtype=object)
    if arr.shape == (n, n):
        out = np.empty(shape + (n, n), dtype=float)
        for i in range(n):
            for j in range(n):
                out[..., i, j] = _as_field(arr[i, j], coords, shape)
        return out
    num = np.asarray(value, dtype=float)
    if num.shape == shape + (n, n):
        return num.copy()
    raise ConfigError(
        f"matrix field must be an {n}x{n} nest of entries or an array of shape {shape + (n, n)}"
    )


def _require_finite(name: str, arr: np.ndarray, grid_ndim: int) -> None:
    """Raise :class:`ConfigError` naming ``name`` and its first non-finite grid index."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0][:grid_ndim])
        raise ConfigError(f"{name} is not finite at grid index {idx}")


@dataclass(frozen=True)
class BoundaryPatch:
    """Grid samples of ``(alpha, V-jet, h-jet)`` on a periodic boundary patch.

    The patch covers ``[0, 2*pi)^n`` with ``axes[i]`` uniformly spaced points
    along coordinate ``y_{i+1}``.
    """

    n: int
    axes: tuple[int, ...]
    alpha: np.ndarray
    v_jet: tuple[np.ndarray, ...]
    h_jet: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ConfigError(f"boundary dimension n={self.n} outside supported range 1..3")
        axes = tuple(int(m) for m in self.axes)
        if len(axes) != self.n or any(m < 4 for m in axes):
            raise ConfigError("need one per-axis count per dimension, each >= 4")
        object.__setattr__(self, "axes", axes)
        shape = axes
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != shape:
            raise ConfigError(f"alpha has shape {alpha.shape}, expected {shape}")
        _require_finite("alpha", alpha, self.n)
        if not np.all(alpha > 0):
            raise ConfigError("alpha must be strictly positive")
        v_jet = tuple(np.asarray(v, dtype=float) for v in self.v_jet)
        if not v_jet or any(v.shape != shape for v in v_jet):
            raise ConfigError("v_jet must contain order-0.. coefficients at the grid shape")
        h_jet = tuple(np.asarray(h, dtype=float) for h in self.h_jet)
        if not h_jet or any(h.shape != shape + (self.n, self.n) for h in h_jet):
            raise ConfigError("h_jet entries must have shape grid + (n, n)")
        for name, jet in (("v_jet", v_jet), ("h_jet", h_jet)):
            for order, arr in enumerate(jet):
                _require_finite(f"{name}[{order}]", arr, self.n)
        h0 = h_jet[0]
        if not np.allclose(h0, np.swapaxes(h0, -1, -2), atol=1e-12):
            raise ConfigError("h^(0) must be symmetric")
        if np.min(np.linalg.eigvalsh(h0)) <= 0:
            raise ConfigError("h^(0) must be positive definite at every grid point")
        for arr in (alpha, *v_jet, *h_jet):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v_jet", v_jet)
        object.__setattr__(self, "h_jet", h_jet)

    # -- geometry ---------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.axes

    @property
    def jet_order(self) -> int:
        """Highest common Taylor order carried by both jets."""
        return min(len(self.v_jet), len(self.h_jet)) - 1

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays ``y_i = 2*pi*k/m_i``."""
        return [2.0 * np.pi * np.arange(m) / m for m in self.axes]

    def mesh(self) -> dict[str, np.ndarray]:
        grids = np.meshgrid(*self.coords(), indexing="ij")
        return {f"y{i + 1}": g for i, g in enumerate(grids)}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "BoundaryPatch":
        """Build a patch from the JSON input schema.

        Schema: ``{"n": int, "axes": [counts...], "alpha": expr-or-array,
        "v_jet": [entries...], "h_jet": [matrix entries...]}`` where scalar
        entries are numbers, expression strings, or raw arrays.
        """
        try:
            n = int(spec["n"])
            axes = tuple(int(m) for m in spec["axes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad patch spec: {exc}") from None
        shape = axes
        coord_axes = [2.0 * np.pi * np.arange(m) / m for m in axes]
        grids = np.meshgrid(*coord_axes, indexing="ij") if axes else []
        coords = {f"y{i + 1}": g for i, g in enumerate(grids)}
        if "alpha" not in spec or "v_jet" not in spec or "h_jet" not in spec:
            raise ConfigError("patch spec needs alpha, v_jet and h_jet")
        alpha = _as_field(spec["alpha"], coords, shape)
        v_jet = tuple(_as_field(v, coords, shape) for v in spec["v_jet"])
        h_jet = tuple(_as_matrix_field(h, coords, shape, n) for h in spec["h_jet"])
        return cls(n=n, axes=axes, alpha=alpha, v_jet=v_jet, h_jet=h_jet)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "axes": list(self.axes),
            "alpha": self.alpha.tolist(),
            "v_jet": [v.tolist() for v in self.v_jet],
            "h_jet": [h.tolist() for h in self.h_jet],
        }


@dataclass(frozen=True)
class IndicialField:
    """Principal indicial root ``sigma`` sampled over a patch grid."""

    n: int
    sigma: np.ndarray
    branch: str = "principal"


@dataclass(frozen=True)
class PerturbationData:
    """First-order differences of two patches sharing zeroth-order data.

    ``L = h2^(1) - h1^(1)``, ``H = h0^-1 L h0^-1``, ``T = tr(h0^-1 L)`` and
    ``W[j] = V2^(j) - V1^(j)``, as grid arrays (``L`` and ``H`` of shape
    ``grid + (n, n)``) or as the scalars of one point.
    """

    n: int
    L: np.ndarray
    H: np.ndarray
    T: float | np.ndarray
    W: tuple[float | np.ndarray, ...]


def _discriminant(patch: BoundaryPatch, energy: ComplexEnergy) -> np.ndarray:
    n = patch.n
    shifted = patch.v_jet[0] - energy.lam_sq - n * n / 4.0
    a2 = patch.alpha**2
    # divide each part by the real alpha^2: numpy's complex-by-complex division
    # multiplies by a rounded reciprocal, which is off by an ulp where the
    # discriminant of a double root must vanish exactly
    return (n / 2.0) ** 2 - (shifted.real / a2 + 1j * (shifted.imag / a2))


def indicial_root(patch: BoundaryPatch, energy: ComplexEnergy) -> IndicialField:
    """Principal indicial root field; raises :class:`BranchCut` on the cut.

    The cut only matters for real energies: a real ``lambda`` whose
    ``lambda^2`` drives the discriminant negative sits in the exceptional
    real interval where the two roots have been exchanged by analytic
    continuation, so no branch choice is defensible and we refuse.  Off the
    real axis the principal square root is taken everywhere (its value on
    the negative real axis is ``+i sqrt|.|``, the limit from above), which
    keeps ``Re sigma >= n/2``.
    """
    disc = np.asarray(_discriminant(patch, energy), dtype=complex)
    if energy.lam.imag == 0.0:
        on_cut = (disc.imag == 0.0) & (disc.real < 0.0)
        if np.any(on_cut):
            pts = [tuple(int(i) for i in idx) for idx in np.argwhere(on_cut)]
            raise BranchCut(
                f"indicial discriminant is negative real at {len(pts)} grid point(s), "
                f"first at y-index {pts[0]}; real energy lies in the exceptional interval",
                points=pts,
            )
    sigma = patch.n / 2.0 + np.sqrt(disc)
    return IndicialField(n=patch.n, sigma=sigma)


def indicial_identity_residual(
    alpha: float | np.ndarray,
    v0: float | np.ndarray,
    energy: ComplexEnergy,
    sigma: complex | np.ndarray,
    n: int,
) -> np.ndarray:
    """Residual of ``alpha^2 sigma (n - sigma) = V0 - lambda^2 - n^2/4``.

    Zero (to rounding) whenever sigma came from :func:`indicial_root`.
    """
    lhs = np.asarray(alpha, dtype=complex) ** 2 * np.asarray(sigma) * (n - np.asarray(sigma))
    rhs = np.asarray(v0, dtype=complex) - energy.lam_sq - n * n / 4.0
    return np.abs(lhs - rhs)


def perturbation_coefficients(patch1: BoundaryPatch, patch2: BoundaryPatch) -> PerturbationData:
    """First-order difference data of two compatible patches over the whole grid.

    A zeroth-order mismatch names its first grid index in C order.
    """
    if patch1.n != patch2.n or patch1.axes != patch2.axes:
        raise MismatchedBoundary(
            f"patch layouts differ: n={patch1.n}/{patch2.n}, axes={patch1.axes}/{patch2.axes}"
        )
    if patch1.jet_order < 1 or patch2.jet_order < 1:
        raise ConfigError("both patches must carry jets to order >= 1")
    n = patch1.n
    h0 = patch1.h_jet[0]
    bad = {
        "alpha": np.abs(patch1.alpha - patch2.alpha) > _BOUNDARY_MATCH_TOL,
        "V^(0)": np.abs(patch1.v_jet[0] - patch2.v_jet[0]) > _BOUNDARY_MATCH_TOL,
        "h^(0)": np.max(np.abs(h0 - patch2.h_jet[0]), axis=(-2, -1)) > _BOUNDARY_MATCH_TOL,
    }

    def disagree(i):
        return "zeroth-order boundary data disagree: " + ", ".join(k for k, b in bad.items() if b[i])

    raise_first(n, [(np.logical_or.reduce(list(bad.values())), MismatchedBoundary, disagree)])
    L = patch2.h_jet[1] - patch1.h_jet[1]
    h0_inv = np.linalg.inv(h0)
    j_max = min(patch1.jet_order, patch2.jet_order)
    return PerturbationData(
        n=n,
        L=L,
        H=h0_inv @ L @ h0_inv,
        T=np.trace(h0_inv @ L, axis1=-2, axis2=-1),
        W=tuple(patch2.v_jet[j] - patch1.v_jet[j] for j in range(j_max + 1)),
    )

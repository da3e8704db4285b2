"""Boundary jets of the metric/potential pair and the indicial root field.

A :class:`BoundaryPatch` holds periodic grid samples, over a coordinate patch
of the boundary at infinity, of

* the asymptotic curvature scale ``alpha(y) > 0`` (sectional curvature tends
  to ``-alpha(y)^2``),
* the Taylor coefficients ``V^(j)(y)`` of the potential in the boundary
  defining function ``x``, and
* the Taylor coefficients ``h^(j)(y)`` of the boundary metric, with
  ``h^(0)`` symmetric positive definite.

Positive definiteness is judged by :func:`positive_definite_inverse`: one
Cholesky factorization per matrix, whose factor also gives the inverse
(``h0_inv`` of a patch); a matrix is refused when Cholesky fails or that
inverse has an entry that is not finite.

The indicial roots of the model operator at energy ``lambda`` solve
``alpha^2 sigma (n - sigma) = V0 - lambda^2 - n^2/4`` (:func:`indicial_q`).
The principal root is ``sigma = n/2 + sqrt(q)``, ``q = (sigma - n/2)^2``, so
Re sigma >= n/2.  A *real* energy whose ``q`` goes negative at a point sits
on the branch cut where the two roots trade places; that is reported as an
error rather than silently resolved.  Non-real energies evaluate everywhere.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import BranchCut, ConfigError, MismatchedBoundary, ScatjetError, as_int, raise_first
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
        return np.broadcast_to(evaluate_field(value, coords), shape)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise ConfigError(f"field array has shape {arr.shape}, expected {shape}")
    return arr


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
        return num
    raise ConfigError(
        f"matrix field must be an {n}x{n} nest of entries or an array of shape {shape + (n, n)}"
    )


def positive_definite_inverse(M: np.ndarray) -> np.ndarray | None:
    """``inv(M)`` of a stack of symmetric matrices, or ``None`` if one is refused.

    The inverse is read off the Cholesky factor ``L`` as ``X^T X`` with
    ``X = L^-1``, so each matrix is factored once and its inverse is exactly
    symmetric.  A matrix is refused when Cholesky raises or an entry of its
    inverse is not finite (a NaN matrix, or a pivot so small that the inverse
    leaves double range).  Every entry is computed elementwise over the
    stack, its terms summed in a fixed order, and the Python loops run over
    ``n`` only, so a matrix gets the same bits alone as in any stack; a stack
    passes when every matrix in it passes.
    Near a singular matrix the verdict can differ by rounding from the sign
    of the smallest eigenvalue.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    n = L.shape[-1]
    X = np.zeros_like(L)
    inverse = np.empty_like(L)
    with np.errstate(all="ignore"):  # a NaN or a pivot too small to invert ends non-finite
        for k in range(n):
            # forward substitution: row k of X from rows i..k-1 of X and row k of L
            for i in range(k):
                acc = L[..., k, i] * X[..., i, i]
                for m in range(i + 1, k):
                    acc += L[..., k, m] * X[..., m, i]
                X[..., k, i] = -acc / L[..., k, k]
            X[..., k, k] = 1.0 / L[..., k, k]
        for j in range(n):
            for i in range(j + 1):
                acc = X[..., j, i] * X[..., j, j]
                for k in range(j + 1, n):
                    acc += X[..., k, i] * X[..., k, j]
                inverse[..., i, j] = inverse[..., j, i] = acc
    if not np.isfinite(inverse).all():
        return None
    return inverse


def positive_definite_inverse_or_raise(M: np.ndarray, n: int, error: type[Exception], message):
    """:func:`positive_definite_inverse` of the ``(*grid, ..., n, n)`` stack ``M``, or raise.

    A passing stack costs one factorization.  Only a refused one is judged
    matrix by matrix, and :func:`~scatjet.errors.raise_first` raises
    ``error`` with ``message(i)`` at its first refused matrix, naming the
    grid index (the first ``n`` axes) and the sample along the axes before
    the matrix.
    """
    inverse = positive_definite_inverse(M)
    if inverse is None:
        refused = [positive_definite_inverse(m) is None for m in M.reshape((-1,) + M.shape[-2:])]
        raise_first(n, [(np.reshape(refused, M.shape[:-2]), error, message)])
    return inverse


def _not_finite(name: str, arr: np.ndarray):
    """A :func:`~scatjet.errors.raise_first` check naming ``name`` where ``arr`` is not finite."""
    return ~np.isfinite(arr), ConfigError, lambda i: f"{name} is not finite"


@dataclass(frozen=True)
class BoundaryPatch:
    """Grid samples of ``(alpha, V-jet, h-jet)`` on a periodic boundary patch.

    The patch covers ``[0, 2*pi)^n`` with ``axes[i]`` uniformly spaced points
    along coordinate ``y_{i+1}``.  It keeps read-only float copies of the
    arrays it is given, so the caller's own arrays stay as they were.
    ``h0_inv`` is the read-only inverse of ``h^(0)`` at every point, read off
    the Cholesky factor that judges ``h^(0)`` positive definite (see
    :func:`positive_definite_inverse`); the covector norms and the
    first-order data read it.
    """

    n: int
    axes: tuple[int, ...]
    alpha: np.ndarray
    v_jet: tuple[np.ndarray, ...]
    h_jet: tuple[np.ndarray, ...]
    h0_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ConfigError(f"boundary dimension n={self.n} outside supported range 1..3")
        axes = tuple(int(m) for m in self.axes)
        if len(axes) != self.n or any(m < 4 for m in axes):
            raise ConfigError("need one per-axis count per dimension, each >= 4")
        object.__setattr__(self, "axes", axes)
        shape = axes
        alpha = np.array(self.alpha, dtype=float)
        if alpha.shape != shape:
            raise ConfigError(f"alpha has shape {alpha.shape}, expected {shape}")
        positive = (~(alpha > 0), ConfigError, lambda i: "alpha must be strictly positive")
        raise_first(self.n, [_not_finite("alpha", alpha), positive])
        v_jet = tuple(np.array(v, dtype=float) for v in self.v_jet)
        if not v_jet or any(v.shape != shape for v in v_jet):
            raise ConfigError("v_jet must contain order-0.. coefficients at the grid shape")
        h_jet = tuple(np.array(h, dtype=float) for h in self.h_jet)
        if not h_jet or any(h.shape != shape + (self.n, self.n) for h in h_jet):
            raise ConfigError("h_jet entries must have shape grid + (n, n)")
        raise_first(
            self.n,
            [
                _not_finite(f"{name}[{order}]", arr)
                for name, jet in (("v_jet", v_jet), ("h_jet", h_jet))
                for order, arr in enumerate(jet)
            ],
        )
        h0 = h_jet[0]
        # a rounding-sized bound: Cholesky, and so the inverse, reads one
        # triangle, and the other may differ from it by no more
        if not np.allclose(h0, np.swapaxes(h0, -1, -2), rtol=1e-12, atol=1e-12):
            raise ConfigError("h^(0) must be symmetric")
        h0_inv = positive_definite_inverse_or_raise(
            h0, self.n, ConfigError, lambda i: "h^(0) must be positive definite"
        )
        for arr in (alpha, *v_jet, *h_jet, h0_inv):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v_jet", v_jet)
        object.__setattr__(self, "h_jet", h_jet)
        object.__setattr__(self, "h0_inv", h0_inv)

    # -- geometry ---------------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.axes

    @property
    def jet_order(self) -> int:
        """Highest common Taylor order carried by both jets."""
        return min(len(self.v_jet), len(self.h_jet)) - 1

    # -- construction -----------------------------------------------------

    def with_first_order(self, v1, h1) -> "BoundaryPatch":
        """This patch's zeroth-order data with the first-order jets ``v1`` and ``h1``.

        The result shares this patch's ``alpha``, ``V^(0)``, ``h^(0)`` and its
        already judged ``h0_inv``, and carries read-only copies of ``v1`` and
        ``h1`` as its jets of order one.  Only the new jets are checked:
        ``v1`` must have the grid shape and ``h1`` the shape
        ``grid + (n, n)``, both finite, or :class:`ConfigError` is raised.
        """
        shape = self.grid_shape
        v1 = np.array(v1, dtype=float)
        h1 = np.array(h1, dtype=float)
        if v1.shape != shape or h1.shape != shape + (self.n, self.n):
            raise ConfigError(
                f"first-order jets have shapes {v1.shape} and {h1.shape}, expected "
                f"{shape} and {shape + (self.n, self.n)}"
            )
        raise_first(self.n, [_not_finite("v_jet[1]", v1), _not_finite("h_jet[1]", h1)])
        v1.setflags(write=False)
        h1.setflags(write=False)
        # built without __init__: the zeroth-order data were judged with this patch
        out = object.__new__(BoundaryPatch)
        for name, value in (
            ("n", self.n),
            ("axes", self.axes),
            ("alpha", self.alpha),
            ("v_jet", (self.v_jet[0], v1)),
            ("h_jet", (self.h_jet[0], h1)),
            ("h0_inv", self.h0_inv),
        ):
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "BoundaryPatch":
        """Build a patch from the JSON input schema.

        Schema: ``{"n": int, "axes": [counts...], "alpha": expr-or-array,
        "v_jet": [entries...], "h_jet": [matrix entries...]}`` where scalar
        entries are numbers, expression strings, or raw arrays.  An
        expression reads the coordinates ``y1, ..., yn``, with
        ``y_i = 2*pi*k/m_i`` at the ``k``-th of the ``m_i`` points of axis ``i``.
        """
        try:
            n = as_int(spec["n"], "n")
            axes = tuple(as_int(m, "axes entry") for m in spec["axes"])
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


@dataclass(frozen=True)
class PerturbationData:
    """First-order differences of two patches sharing zeroth-order data.

    With ``L = h2^(1) - h1^(1)``: ``H = h0^-1 L h0^-1``, ``T = tr(h0^-1 L)``
    and ``W1 = V2^(1) - V1^(1)``, as grid arrays (``H`` of shape
    ``grid + (n, n)``) or as the scalars of one point.
    """

    n: int
    H: np.ndarray
    T: float | np.ndarray
    W1: float | np.ndarray


# -- the indicial identity, written here and nowhere else, solved for one unknown
# by each function.  With q = (sigma - n/2)^2 it reads lambda^2 - mode_k =
# alpha^2 (q - k^2/4) for every k >= 0, the roots at mode_k being n/2 -+ k/2.


def indicial_q(alpha_sq, v0, lam_sq: complex, n: int) -> np.ndarray:
    """``q = (sigma - n/2)^2 = n^2/4 - (V0 - lambda^2 - n^2/4) / alpha^2``, complex."""
    quarter = n * n / 4.0
    shifted = np.asarray(v0 - lam_sq - quarter, dtype=complex)
    # divide each part by the real alpha^2: numpy's complex-by-complex division
    # multiplies by a rounded reciprocal, which is off by an ulp where q must vanish exactly
    return quarter - (shifted.real / alpha_sq + 1j * (shifted.imag / alpha_sq))


def indicial_lambda_sq(alpha_sq, v0, q, n: int):
    """``lambda^2 = V0 - n^2/4 + alpha^2 (q - n^2/4)``, the inverse of :func:`indicial_q`."""
    quarter = n * n / 4.0
    return v0 - quarter + alpha_sq * (q - quarter)


def indicial_v0(alpha_sq, lam_sq: complex, sigma, n: int):
    """``V0 = lambda^2 + n^2/4 + alpha^2 sigma (n - sigma)``, the potential with root ``sigma``."""
    return lam_sq + n * n / 4.0 + alpha_sq * sigma * (n - sigma)


def branch_cut(q: np.ndarray, energy: ComplexEnergy) -> np.ndarray:
    """Where a real energy's ``q`` is negative real: the two roots have traded places there."""
    if energy.lam.imag != 0.0:
        return np.zeros(np.shape(q), dtype=bool)
    return (q.imag == 0.0) & (q.real < 0.0)


def indicial_root(patch: BoundaryPatch, energy: ComplexEnergy) -> np.ndarray:
    """Principal indicial root ``n/2 + sqrt(q)`` over the patch grid; :class:`BranchCut` on the cut.

    The cut (:func:`branch_cut`) only matters for real energies: a real
    ``lambda`` with ``lambda^2`` below mode 0 at a point makes ``q`` negative
    there, the two roots have been exchanged by analytic continuation, so no
    branch choice is defensible and we refuse.  Off the real axis the
    principal square root is taken everywhere (its value on the negative
    real axis is ``+i sqrt|q|``, the limit from above), which keeps
    ``Re sigma >= n/2``.
    """
    with np.errstate(all="ignore"):  # a q past double range is refused below
        q = indicial_q(patch.alpha**2, patch.v_jet[0], energy.lam_sq, patch.n)
    on_cut = branch_cut(q, energy)
    raise_first(
        patch.n,
        [
            (
                on_cut,
                BranchCut,
                lambda i: "indicial discriminant is negative real, the real energy below "
                f"mode 0, at {np.count_nonzero(on_cut)} grid point(s), the first",
            ),
            (
                ~np.isfinite(q),
                ScatjetError,
                lambda i: f"energy {energy.lam}: (sigma - n/2)^2 = {q[i]:.3e} leaves double range",
            ),
        ],
    )
    return patch.n / 2.0 + np.sqrt(q)


def perturbation_coefficients(patch1: BoundaryPatch, patch2: BoundaryPatch) -> PerturbationData:
    """First-order difference data of two compatible patches over the whole grid.

    A zeroth-order mismatch names its first grid index in C order.  A value
    past double range is kept, without a warning:
    :func:`~scatjet.forward_scattering.singularity_coefficient` refuses the
    samples it makes.
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
    h0_inv = patch1.h0_inv
    # a difference past double range is kept: the samples built from it are refused
    with np.errstate(all="ignore"):
        L = patch2.h_jet[1] - patch1.h_jet[1]
        return PerturbationData(
            n=n,
            H=h0_inv @ L @ h0_inv,
            T=np.trace(h0_inv @ L, axis1=-2, axis2=-1),
            W1=patch2.v_jet[1] - patch1.v_jet[1],
        )

"""Boundary jets of the metric/potential pair and the indicial root field.

A :class:`BoundaryPatch` holds periodic grid samples, over a coordinate patch
of the boundary at infinity, of

* the asymptotic curvature scale ``alpha(y) > 0`` (sectional curvature tends
  to ``-alpha(y)^2``),
* the Taylor coefficients ``V^(j)(y)`` of the potential in the boundary
  defining function ``x``, and
* the Taylor coefficients ``h^(j)(y)`` of the boundary metric, with
  ``h^(0)`` symmetric positive definite.

A patch whose two jets both reach order one carries its own first-order
data: the forward map samples them against the patch's zeroth order alone
(:func:`~scatjet.forward_scattering.singularity_coefficient`), so no second
patch is needed.

Positive definiteness is judged by :func:`cholesky_inverse`: one entry-wise
Cholesky pass over the whole stack of symmetric matrices, written out as
LAPACK's unblocked lower factorization with no LAPACK call, whose factor
also gives the inverse (``h0_inv`` of a patch); a matrix is refused when a
pivot is not positive or the inverse has an entry that is not finite.  Its
entries come packed at the pairs ``i <= j`` of :func:`symmetric_pairs`, the
one order of those pairs.

The indicial roots of the model operator at energy ``lambda`` solve
``alpha^2 sigma (n - sigma) = V0 - lambda^2 - n^2/4`` (:func:`indicial_q`).
The principal root is ``sigma = n/2 + sqrt(q)``, ``q = (sigma - n/2)^2``, so
Re sigma >= n/2.  A *real* energy whose ``q`` goes negative at a point sits
on the branch cut where the two roots trade places; that is reported as an
error rather than silently resolved.  Non-real energies evaluate everywhere.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import (
    DIMENSIONS,
    BranchCut,
    ConfigError,
    ScatjetError,
    as_int,
    check_array_size,
    raise_first,
)
from .expressions import evaluate_field


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


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place."""
    arr.setflags(write=False)
    return arr


@functools.cache
def symmetric_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``: the index pairs ``i <= j`` of a symmetric ``n x n`` tensor.

    First the ``(i, i)``, then the ``(i, j)`` with ``i < j``, row by row.  The
    polarization covectors, the default probes, the unknowns of the
    first-order fit and the packed entries of :func:`cholesky_inverse` all
    follow this order.  Both arrays are read-only.
    """
    d = np.arange(n)
    i, j = np.triu_indices(n, 1)
    return read_only(np.concatenate([d, i])), read_only(np.concatenate([d, j]))


@functools.cache
def polarization_covectors(n: int) -> np.ndarray:
    """The ``(C, n)`` covectors sampled at every grid point: ``e_i + e_j`` per pair ``i <= j``.

    A diagonal pair gives ``e_i``; the order is that of :func:`symmetric_pairs`.
    The array is read-only.
    """
    rows, cols = symmetric_pairs(n)
    eye = np.eye(n)
    return read_only(eye[rows] + (rows < cols)[:, None] * eye[cols])


def probe_array(probes, n: int, error: type[Exception], prefix: str) -> np.ndarray:
    """``probes`` as a new float ``(P, n)`` array of ``P >= 1`` unit vectors.

    Anything else raises ``error`` with a message led by ``prefix``: values
    that are not an array of numbers, another shape (a list with no probes
    has shape ``(0,)``), or, naming the first such probe, a probe whose norm
    misses 1 by more than 1e-12 (named as not finite when a component is).
    """
    want = f"{prefix}expected an array of shape (P, {n}) with P >= 1"
    try:
        w = np.array(probes, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{want}, got values that are not an array of numbers ({exc})") from None
    if w.ndim != 2 or not len(w) or w.shape[1] != n:
        raise error(f"{want}, got shape {w.shape}")
    # written so that a NaN norm fails too
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(w, axis=-1) - 1.0) <= 1e-12))
    if bad.size:
        j = int(bad[0])
        why = "a unit vector" if np.all(np.isfinite(w[j])) else "finite"
        raise error(f"{prefix}probe {j} {tuple(w[j].tolist())} is not {why}")
    return w


def float_or_complex(x) -> np.ndarray:
    """``x`` as a complex128 array if it is complex, as a float64 array otherwise.

    The type decides, not the values: a complex array whose imaginary parts
    are all zero stays complex.  An array of the chosen dtype is returned as
    it is, not copied.
    """
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)


@functools.cache
def _pair_index(n: int) -> np.ndarray:
    """The read-only ``(n, n)`` index of each pair ``{i, j}`` in :func:`symmetric_pairs`."""
    rows, cols = symmetric_pairs(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return read_only(index)


def lower_entries(M: np.ndarray) -> np.ndarray:
    """The packed ``(..., C)`` entries of a ``(..., n, n)`` stack, read from its lower triangle.

    Entry ``k`` is ``M[..., j, i]`` for the ``k``-th pair ``(i, j)``,
    ``i <= j``, of :func:`symmetric_pairs`: the triangle LAPACK's lower
    Cholesky reads.
    """
    rows, cols = symmetric_pairs(M.shape[-1])
    return M[..., cols, rows]


def symmetric_matrix(entries: np.ndarray, n: int) -> np.ndarray:
    """The ``(..., n, n)`` symmetric stack of packed ``(..., C)`` entries, a new array."""
    return entries[..., _pair_index(n)]


def cholesky_inverse(entries: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(inverse, refused)`` of a stack of symmetric ``n x n`` matrices, entry by entry.

    ``entries`` has shape ``(..., C)``: each matrix's entries at the pairs
    ``i <= j`` of :func:`symmetric_pairs`, in that order.  The factor ``L``
    is LAPACK's unblocked lower Cholesky (``potf2``) written out entry-wise:
    column ``j`` has the pivot ``a_jj - s`` with ``s`` the sum of the
    ``l_jk^2``, ``k < j``, formed first, left to right, ``l_jj`` its square
    root, and ``l_ij = (a_ij - sum_k l_ik l_jk) * (1 / l_jj)`` below it.
    The inverse is ``X^T X`` with ``X = L^-1``, so it is exactly symmetric;
    it has shape ``(..., n, n)``.

    ``refused`` is the ``(...)`` mask of matrices with a pivot that is not
    ``> 0`` (NaN included) or an inverse entry that is not finite.  The
    inverse is checked alone: a pivot that is not ``> 0`` makes
    ``X_jj = 1 / sqrt(pivot)`` a NaN or an infinity, and the diagonal entry
    ``inverse_jj``, a sum of squares that holds ``X_jj^2``, with it.  A
    subnormal pivot whose inverse overflows is refused the same way.
    Every entry is computed elementwise over the stack, its terms summed in
    a fixed order, and the Python loops run over ``n`` only, so a matrix
    gets the same verdict and the same bits alone as in any stack.  Near a
    singular matrix the verdict can differ by rounding from the sign of the
    smallest eigenvalue.
    """
    a = np.asarray(entries, dtype=float)
    index = _pair_index(n)
    L, X = {}, {}

    def reduced(i, j):
        """``a_ij - (l_i0 l_j0 + ... + l_i,j-1 l_j,j-1)``, the sum formed first, left to right."""
        if not j:
            return a[..., index[i, j]]
        s = L[i, 0] * L[j, 0]
        for k in range(1, j):
            s += L[i, k] * L[j, k]
        return a[..., index[i, j]] - s

    rows, cols = symmetric_pairs(n)
    packed = np.empty((rows.size,) + a.shape[:-1])
    with np.errstate(all="ignore"):  # a NaN or a pivot too small to invert ends non-finite
        for j in range(n):
            L[j, j] = np.sqrt(reduced(j, j))
            X[j, j] = 1.0 / L[j, j]
            for i in range(j + 1, n):
                L[i, j] = reduced(i, j) * X[j, j]
        for k in range(n):
            # forward substitution: row k of X from rows i..k-1 of X and row k of L
            for i in range(k):
                acc = L[k, i] * X[i, i]
                for m in range(i + 1, k):
                    acc += L[k, m] * X[m, i]
                X[k, i] = -acc / L[k, k]
        for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            acc = packed[p, ...]
            np.multiply(X[j, i], X[j, j], out=acc)
            for k in range(j + 1, n):
                acc += X[k, i] * X[k, j]
    refused = ~np.isfinite(packed).all(axis=0)
    # the (n * n, m) gather, then one copy into a C-ordered (..., n, n) stack
    stack = a.shape[:-1]
    full = packed.reshape(rows.size, math.prod(stack))[index.ravel()]
    return full.T.reshape(stack + (n, n)), refused


def _layout(n: int, axes) -> tuple[int, ...]:
    """A patch's per-axis point counts as ints; :class:`ConfigError` for an unsupported layout."""
    if n not in DIMENSIONS:
        raise ConfigError(f"boundary dimension n={n} outside supported range 1..3")
    axes = tuple(int(m) for m in axes)
    if len(axes) != n or any(m < 4 for m in axes):
        raise ConfigError("need one per-axis count per dimension, each >= 4")
    return axes


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
    the Cholesky factor that judges ``h^(0)`` positive definite, from its
    lower triangle, in one entry-wise pass over the grid (see
    :func:`cholesky_inverse`); the covector norms and the first-order data
    read it.
    """

    n: int
    axes: tuple[int, ...]
    alpha: np.ndarray
    v_jet: tuple[np.ndarray, ...]
    h_jet: tuple[np.ndarray, ...]
    h0_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axes = _layout(self.n, self.axes)
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
        # a rounding-sized bound: the factorization, and so the inverse, reads
        # the lower triangle, and the upper may differ from it by no more.  It
        # is np.allclose(h0, h0^T, rtol=1e-12, atol=1e-12) on these finite
        # entries, judged elementwise over the pairs i < j in both directions
        n = self.n
        lower = lower_entries(h0)
        rows, cols = symmetric_pairs(n)
        a, b = h0[..., rows[n:], cols[n:]], lower[..., n:]
        with np.errstate(over="ignore"):
            gap = np.abs(a - b)
        if not ((gap <= 1e-12 + 1e-12 * np.abs(b)) & (gap <= 1e-12 + 1e-12 * np.abs(a))).all():
            raise ConfigError("h^(0) must be symmetric")
        h0_inv, refused = cholesky_inverse(lower, n)
        raise_first(n, [(refused, ConfigError, lambda i: "h^(0) must be positive definite")])
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

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "BoundaryPatch":
        """Build a patch from the JSON input schema.

        Schema: ``{"n": int, "axes": [counts...], "alpha": expr-or-array,
        "v_jet": [entries...], "h_jet": [matrix entries...]}`` where scalar
        entries are numbers, expression strings, or raw arrays.  An
        expression reads the coordinates ``y1, ..., yn``, with
        ``y_i = 2*pi*k/m_i`` at the ``k``-th of the ``m_i`` points of axis ``i``.
        A grid whose metric fields, of shape ``axes + (n, n)``, would hold more
        than :data:`~scatjet.errors.MAX_ARRAY_VALUES` values is refused with
        :class:`ConfigError` before any field is built.
        """
        try:
            n = as_int(spec["n"], "n")
            axes = tuple(as_int(m, "axes entry") for m in spec["axes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad patch spec: {exc}") from None
        shape = axes = _layout(n, axes)
        check_array_size(axes + (n, n), "the patch's axes ask for metric fields")
        coord_axes = [2.0 * np.pi * np.arange(m) / m for m in axes]
        grids = np.meshgrid(*coord_axes, indexing="ij")
        coords = {f"y{i + 1}": g for i, g in enumerate(grids)}
        if "alpha" not in spec or "v_jet" not in spec or "h_jet" not in spec:
            raise ConfigError("patch spec needs alpha, v_jet and h_jet")
        alpha = _as_field(spec["alpha"], coords, shape)
        v_jet = tuple(_as_field(v, coords, shape) for v in spec["v_jet"])
        h_jet = tuple(_as_matrix_field(h, coords, shape, n) for h in spec["h_jet"])
        return cls(n=n, axes=axes, alpha=alpha, v_jet=v_jet, h_jet=h_jet)


# -- the indicial identity, written here and nowhere else, solved for one unknown
# by each function.  With q = (sigma - n/2)^2 it reads lambda^2 - mode_k =
# alpha^2 (q - k^2/4) for every k >= 0, the roots at mode_k being n/2 -+ k/2.


def over_real(a, d):
    """``a / d`` for a real ``d``: each part of ``a`` divided alone, a true division.

    numpy's complex division multiplies by a rounded reciprocal, an ulp off.
    Float for a float ``a``.
    """
    if np.iscomplexobj(a):
        return a.real / d + 1j * (a.imag / d)
    return a / d


def indicial_q(alpha_sq, v0, lam_sq: complex, n: int) -> np.ndarray:
    """``q = (sigma - n/2)^2 = n^2/4 - (V0 - lambda^2 - n^2/4) / alpha^2``, complex."""
    quarter = n * n / 4.0
    # q must vanish exactly where V0 - lambda^2 - n^2/4 does
    return quarter - over_real(np.asarray(v0 - lam_sq - quarter, dtype=complex), alpha_sq)


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
    branch choice is defensible and we refuse.  Past that refusal a real
    energy's ``q`` is real and nonnegative, and the root is a float64 array
    (numpy's real square root, with the bits of the complex one's real
    part).  Off the real axis the root is complex: the principal square
    root is taken everywhere (its value on the negative real axis is
    ``+i sqrt|q|``, the limit from above), which keeps ``Re sigma >= n/2``.
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
    if energy.lam.imag == 0.0 and energy.lam_sq.imag == 0.0:
        q = q.real  # exactly real, and the cut refused its negative values above
    return patch.n / 2.0 + np.sqrt(q)

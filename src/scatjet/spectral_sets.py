"""Exceptional energy sets and the admissibility screen.

By the indicial identity of :mod:`~scatjet.boundary_jets`,
``lambda^2 - mode_k = alpha^2 (q - k^2/4)`` with ``q = (sigma - n/2)^2`` at
every grid point and ``k >= 0``.  The roots at ``mode_k`` are ``n/2 -+ k/2``:
the even ``k`` are the forward map's Gamma poles, ``k = 0`` its branch point.
For ``sets`` an :class:`ExceptionalSet` lists the modes ``k <= k_max`` as one
``(*grid, k_max + 1)`` array, the interval ``[min mode_0, max mode_0]`` (a
real ``lambda^2`` below its top is on the branch cut somewhere) and
user-excluded energies, standing in for the resolvent poles this toolkit
does not compute.  The modes array holds at most
:data:`~scatjet.errors.MAX_ARRAY_VALUES` values: a larger one is refused with
:class:`~scatjet.errors.ConfigError` before any of it is allocated.
:func:`is_admissible` is the one screen, used by the driver, the synthetic
energy draw and ``sets --lam``; it judges every mode order whatever
``k_max`` is, and allocates no modes array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary_jets import ComplexEnergy, branch_cut, indicial_lambda_sq, indicial_q
from .errors import check_array_size


@dataclass(frozen=True)
class ExceptionalSet:
    """The exceptional energies of the grid fields ``alpha_sq`` and ``v0``."""

    alpha_sq: np.ndarray
    v0: np.ndarray
    n: int
    k_max: int
    user_excluded: tuple[complex, ...]

    @property
    def modes_lambda_sq(self) -> np.ndarray:
        """``[*idx, k]``: the ``lambda^2`` at which the lower root at ``idx`` is ``(n - k)/2``."""
        shape = (*np.broadcast_shapes(self.alpha_sq.shape, self.v0.shape), self.k_max + 1)
        check_array_size(shape, f"k_max = {self.k_max} asks for a modes array")
        k = np.arange(self.k_max + 1)
        return indicial_lambda_sq(self.alpha_sq[..., None], self.v0[..., None], k * k / 4.0, self.n)

    @property
    def interval_lambda_sq(self) -> tuple[float, float]:
        mode0 = indicial_lambda_sq(self.alpha_sq, self.v0, 0.0, self.n)
        return float(np.min(mode0)), float(np.max(mode0))


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str | None
    distances: dict[str, float]


def exceptional_set(
    alpha_sq, v0, n: int, k_max: int = 2, user_excluded: Sequence[complex] = ()
) -> ExceptionalSet:
    """The exceptional set of the grid fields ``alpha^2`` and ``V0``, listing ``k <= k_max``."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    fields = (np.asarray(f, dtype=float) for f in (alpha_sq, v0))
    return ExceptionalSet(*fields, n, k_max, tuple(complex(z) for z in user_excluded))


def valid_margin(margin: float) -> bool:
    """The rule for an admissibility margin: finite and at least 0 (NaN fails)."""
    return 0 <= margin < np.inf


def is_admissible(
    energy: ComplexEnergy, es: ExceptionalSet, margin: float = 1e-6
) -> Admissibility:
    """Screen ``lambda`` at every grid point of ``es`` and every mode order.

    Refused, in this order: a real ``lambda`` with ``q < 0`` at a point, the
    rule of :func:`~scatjet.boundary_jets.indicial_root`'s
    :class:`~scatjet.errors.BranchCut`, naming the first such point in C
    order; a point where ``alpha^2 min_k |q - k^2/4|``, the distance from
    ``lambda^2`` to the nearest mode, is at most ``margin``, naming the
    nearest point and its ``k``; a ``lambda`` within ``margin`` of a
    user-excluded energy.  A point whose ``q`` leaves double range is refused
    after the cut.  ``distances`` holds the smallest mode distance, when every
    point has one, and the user-excluded distance; a NaN distance is a violation.
    """
    if not valid_margin(margin):
        raise ValueError("margin must be finite and >= 0")
    with np.errstate(all="ignore"):  # a q past double range is refused below
        q = indicial_q(es.alpha_sq, es.v0, energy.lam_sq, es.n)
        # the nearest k^2/4 to Re q, and so to q, is at floor(2 sqrt(Re q)) or the next k
        x, below = q.real, np.floor(2.0 * np.sqrt(np.maximum(q.real, 0.0)))
        gap_below = np.abs(x - (below / 2.0) ** 2)
        gap_above = np.abs(x - ((below + 1.0) / 2.0) ** 2)
        dist = es.alpha_sq * np.hypot(np.minimum(gap_below, gap_above), q.imag)
    cut, finite = branch_cut(q, energy), np.isfinite(dist)
    distances = {"omega-prime-mode": float(np.min(dist))} if finite.all() else {}
    if es.user_excluded:
        distances["user-excluded (D)"] = min(abs(energy.lam - z) for z in es.user_excluded)
    if cut.any():
        first = tuple(int(j) for j in np.argwhere(cut)[0])
        reason = (
            f"lambda^2 = {energy.lam_sq.real:.6g} is on the branch cut at grid index {first}: "
            f"(sigma - n/2)^2 = {q[first].real:.3e} < 0"
        )
    elif not finite.all():
        first = tuple(int(j) for j in np.argwhere(~finite)[0])
        reason = f"(sigma - n/2)^2 = {q[first]:.3e} is past double range at grid index {first}"
    elif not (dist > margin).all():
        i = np.unravel_index(np.argmin(dist), dist.shape)
        k = below[i] + (gap_above[i] < gap_below[i])
        reason = (
            f"lambda^2 within margin {margin:g} of omega-prime-mode k = {k:.0f} at grid "
            f"index {tuple(int(j) for j in i)} (distance {dist[i]:.3e})"
        )
    # written so that a NaN distance counts as a violation
    elif not distances.get("user-excluded (D)", np.inf) > margin:
        d = distances["user-excluded (D)"]
        reason = f"lambda within margin {margin:g} of user-excluded (D) (distance {d:.3e})"
    else:
        return Admissibility(ok=True, reason=None, distances=distances)
    return Admissibility(ok=False, reason=f"energy {energy.lam}: {reason}", distances=distances)

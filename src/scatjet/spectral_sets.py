"""Exceptional energy sets and admissibility checks.

Three families of energies are tracked in the ``lambda^2`` plane (plus a
user-supplied exclusion list in the ``lambda`` plane standing in for
resolvent poles, which this toolkit does not compute):

* the real interval ``[min V0 - max alpha^2 n^2/4 + n^2/4,
  max V0 - min alpha^2 n^2/4 + n^2/4]`` swept by the branch data,
* the discrete mode family ``lambda^2 = V0(y) - n^2/4 + alpha(y)^2 (k^2 - n^2)/4``
  at which the conjugate indicial root hits ``(n - k)/2``, held as one real
  array of shape ``(*grid, k_max + 1)``,
* explicit user-excluded energies.

:func:`exceptional_set` builds the set from the grid fields ``alpha^2`` and
``V0``: a patch's on the forward side, the recovered ones in the inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary_jets import ComplexEnergy


@dataclass(frozen=True)
class ExceptionalSet:
    """At ``modes_lambda_sq[*idx, k]`` (read-only) the lower root at ``idx`` is ``(n - k)/2``."""

    interval_lambda_sq: tuple[float, float]
    modes_lambda_sq: np.ndarray
    user_excluded: tuple[complex, ...] = ()

    def __post_init__(self):
        modes = np.array(self.modes_lambda_sq, dtype=float)
        modes.setflags(write=False)
        object.__setattr__(self, "modes_lambda_sq", modes)


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str | None
    distances: dict[str, float]


def exceptional_set(
    alpha_sq, v0, n: int, k_max: int = 2, user_excluded: Sequence[complex] = ()
) -> ExceptionalSet:
    """The exceptional set of the grid fields ``alpha^2`` and ``V0``, modes ``k <= k_max``."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    a2 = np.asarray(alpha_sq, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    quarter = n * n / 4.0
    k = np.arange(k_max + 1)
    return ExceptionalSet(
        interval_lambda_sq=(
            float(np.min(v0)) - float(np.max(a2)) * quarter + quarter,
            float(np.max(v0)) - float(np.min(a2)) * quarter + quarter,
        ),
        modes_lambda_sq=v0[..., None] - quarter + a2[..., None] * (k * k - n * n) / 4.0,
        user_excluded=tuple(complex(z) for z in user_excluded),
    )


def _dist_to_segment(w: complex, a: float, b: float) -> float:
    """Distance from a point of the complex plane to the real segment [a, b]."""
    re_gap = max(a - w.real, 0.0, w.real - b)
    return float(np.hypot(re_gap, w.imag))


def is_admissible(
    energy: ComplexEnergy, es: ExceptionalSet, margin: float = 1e-6
) -> Admissibility:
    """Check ``lambda`` against all exceptional families with a safety margin.

    Interval and mode distances are measured in the ``lambda^2`` plane; the
    user exclusion list lives in the ``lambda`` plane.  The nearest violating
    family (if any) is named in ``reason``; a NaN distance, such as one to a
    NaN excluded energy, is a violation.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    w = complex(energy.lam_sq)
    a, b = es.interval_lambda_sq
    distances = {"omega-interval": _dist_to_segment(w, a, b)}
    if es.modes_lambda_sq.size:
        distances["omega-prime-mode"] = float(np.min(np.abs(w - es.modes_lambda_sq)))
    if es.user_excluded:
        distances["user-excluded (D)"] = min(
            abs(complex(energy.lam) - z) for z in es.user_excluded
        )
    # written so that a NaN distance counts as a violation
    violations = {name: d for name, d in distances.items() if not d > margin}
    if violations:
        worst = min(violations, key=violations.get)
        return Admissibility(
            ok=False,
            reason=f"lambda within margin {margin:g} of {worst} (distance {violations[worst]:.3e})",
            distances=distances,
        )
    return Admissibility(ok=True, reason=None, distances=distances)


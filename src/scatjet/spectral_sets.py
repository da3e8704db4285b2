"""Exceptional energy sets and admissibility checks.

Three families of energies are tracked in the ``lambda^2`` plane (plus a
user-supplied exclusion list in the ``lambda`` plane standing in for
resolvent poles, which this toolkit does not compute):

* the real interval ``[min V0 - alpha_max^2 n^2/4 + n^2/4,
  max V0 - alpha_min^2 n^2/4 + n^2/4]`` swept by the branch data,
* the discrete mode family ``lambda^2 = V0(y) - n^2/4 + alpha(y)^2 (k^2 - n^2)/4``
  at which the conjugate indicial root hits ``(n - k)/2``, held as one real
  array of shape ``(*grid, k_max + 1)``,
* explicit user-excluded energies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boundary_jets import BoundaryPatch, ComplexEnergy

__all__ = [
    "ExceptionalSet",
    "Admissibility",
    "omega_interval",
    "omega_prime_modes",
    "exceptional_set",
    "is_admissible",
]


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

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def omega_interval(patch: BoundaryPatch) -> tuple[float, float]:
    """Endpoints of the real exceptional interval in the ``lambda^2`` plane."""
    n = patch.n
    quarter = n * n / 4.0
    a_min = float(np.min(patch.alpha))
    a_max = float(np.max(patch.alpha))
    v_min = float(np.min(patch.v_jet[0]))
    v_max = float(np.max(patch.v_jet[0]))
    return (v_min - a_max**2 * quarter + quarter, v_max - a_min**2 * quarter + quarter)


def omega_prime_modes(patch: BoundaryPatch, k_max: int) -> np.ndarray:
    """Mode values ``lambda^2`` of shape ``(*grid, k_max + 1)`` for ``0 <= k <= k_max``."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = patch.n
    k = np.arange(k_max + 1)
    # libm's pow, as a Python float's ``**``: written mode values keep their bits,
    # which ``alpha * alpha`` changes in the last place for about 0.1% of inputs
    a2 = np.float_power(patch.alpha, 2)[..., None]
    return patch.v_jet[0][..., None] - n * n / 4.0 + a2 * (k * k - n * n) / 4.0


def exceptional_set(
    patch: BoundaryPatch, k_max: int = 2, user_excluded: Sequence[complex] = ()
) -> ExceptionalSet:
    return ExceptionalSet(
        interval_lambda_sq=omega_interval(patch),
        modes_lambda_sq=omega_prime_modes(patch, k_max),
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


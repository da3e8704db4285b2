"""Exception taxonomy for the scatjet toolkit.

Every error raised by library code derives from :class:`ScatjetError`, so
callers (and the CLI) can distinguish numeric-stage failures from plain
programming errors.  Names describe the failure mode, one class per mode.
"""
from __future__ import annotations

import numpy as np


class ScatjetError(Exception):
    """Base class for all toolkit errors."""


class BranchCut(ScatjetError):
    """Square-root argument fell on the negative real axis at some grid point.

    Carries ``points``: the offending grid multi-indices.
    """

    def __init__(self, message: str, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


class MismatchedBoundary(ScatjetError):
    """Two patches disagree where their zeroth-order boundary data must match."""


class NotConvergent(ScatjetError):
    """Integral fails its absolute-convergence inequality; not attempted."""


class QuadratureFailure(ScatjetError):
    """The quadrature of a model integral missed its error tolerance within budget."""


class GammaPole(ScatjetError):
    """A Gamma-function argument sits at a nonpositive integer."""


class GridTooCoarse(ScatjetError):
    """Finite-difference grid below the minimum supported resolution."""


class ZeroCovector(ScatjetError):
    """Covector argument is zero; its norm power is undefined."""


class ZeroSymbol(ScatjetError):
    """Symbol sample is zero; no logarithm/ratio can be taken."""


class BranchAmbiguity(ScatjetError):
    """No branch of the complex log yields a root in the principal half-plane."""


class NotPositiveDefinite(ScatjetError):
    """Recovered (or supplied) metric fails positive-definiteness."""


class DegenerateEnergies(ScatjetError):
    """Two-energy recovery called with coinciding squared energies."""


class InconsistentData(ScatjetError):
    """Input samples are mutually inconsistent beyond tolerance."""


class ZeroIntegralFactor(ScatjetError):
    """A model-integral factor is numerically zero; division would be meaningless."""


class ConfigError(ScatjetError):
    """Bad run configuration (CLI flags, config fields, schema violations)."""


class IoError(ScatjetError):
    """File/JSON input could not be read or parsed."""


def raise_first(n: int, checks) -> None:
    """Raise for the first failing entry, in C order, of elementwise checks.

    ``checks`` lists ``(failed, error_class, message)`` in the order one
    point is checked: ``failed`` is a boolean scalar or array and
    ``message(i)`` describes the failure at index ``i``.  At the first index
    where any check fails, the first check that fails there raises.  For
    array input the message ends with the grid index (the first ``n`` axes)
    and, when the arrays carry more axes, the sample index along them.
    """
    masks = np.broadcast_arrays(*(np.asarray(failed, dtype=bool) for failed, _, _ in checks))
    hits = np.flatnonzero(np.logical_or.reduce(masks))
    if not hits.size:
        return
    i = tuple(int(k) for k in np.unravel_index(hits[0], masks[0].shape))
    where = ""
    if i:
        where = f" at grid index {i[:n]}" + (f", sample {i[n:]}" if len(i) > n else "")
    for mask, (_, error_class, message) in zip(masks, checks):
        if mask[i]:
            raise error_class(message(i) + where)

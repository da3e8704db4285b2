"""Exception taxonomy for the scatjet toolkit.

Every error raised by library code derives from :class:`ScatjetError`, so
callers (and the CLI) can distinguish numeric-stage failures from plain
programming errors.  Names describe the failure mode, one class per mode.
"""
from __future__ import annotations


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


class EvaluationFailure(ScatjetError):
    """A scanned callable failed to evaluate at some sample point."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


class NotConvergent(ScatjetError):
    """Integral fails its absolute-convergence inequality; not attempted."""


class QuadratureFailure(ScatjetError):
    """Adaptive quadrature could not meet its error tolerance within budget."""


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


class ChartUndefined(ScatjetError):
    """Requested blow-up chart is undefined at the given point."""


class ConfigError(ScatjetError):
    """Bad run configuration (CLI flags, config fields, schema violations)."""


class IoError(ScatjetError):
    """File/JSON input could not be read or parsed."""

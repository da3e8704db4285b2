"""Scattering data on asymptotically hyperbolic boundaries: forward models,
exceptional sets, model integrals, and the staged inverse recovery.

Import names from their submodules, e.g. ``from scatjet.inversion import
layer_strip_driver``.  Importing the package loads every submodule but the
command line.
"""

from . import (  # noqa: F401
    boundary_jets,
    dataset,
    errors,
    forward_scattering,
    hyperbolic_model,
    inversion,
    model_quadrature,
    spectral_sets,
    synthetic,
)

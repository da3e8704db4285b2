"""Scattering data on asymptotically hyperbolic boundaries: forward models,
exceptional sets, model integrals, and the staged inverse recovery.

Import names from their submodules, e.g. ``from scatjet.inversion import
layer_strip_driver``.  Importing the package imports nothing: each import
loads only the submodule it names and what that submodule uses.  Only
``forward_scattering`` and ``model_quadrature``, which evaluate Gamma, import
scipy.
"""

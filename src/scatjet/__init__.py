"""Scattering data on asymptotically hyperbolic boundaries: forward models,
exceptional sets, model integrals, and the staged inverse recovery."""

from .boundary_jets import (
    BoundaryPatch,
    ComplexEnergy,
    PerturbationData,
    indicial_root,
    perturbation_coefficients,
)
from .dataset import SymbolDataset
from .errors import ScatjetError
from .forward_scattering import (
    default_probe_set,
    gamma_prefactor,
    principal_symbol,
    singularity_coefficient,
)
from .hyperbolic_model import (
    HalfSpaceGrid,
    green_residual_check,
    green_residual_convergence,
    hyperbolic_laplacian_apply,
)
from .inversion import (
    InversionConfig,
    RecoveryReport,
    first_order_recovery,
    layer_strip_driver,
    metric_boundary_recovery,
    recover_sigma_from_symbol,
    two_energy_recovery,
)
from .model_quadrature import (
    ModelIntegralValue,
    QuadratureSpec,
    green_kernel,
    i_full_integral,
    j_converges,
    j_integral,
    t_limit_integral,
)
from .spectral_sets import ExceptionalSet, exceptional_set, is_admissible
from .synthetic import forward_dataset, make_synthetic_pair

__version__ = "0.1.0"

__all__ = [
    "BoundaryPatch",
    "ComplexEnergy",
    "ExceptionalSet",
    "HalfSpaceGrid",
    "InversionConfig",
    "ModelIntegralValue",
    "PerturbationData",
    "QuadratureSpec",
    "RecoveryReport",
    "ScatjetError",
    "SymbolDataset",
    "default_probe_set",
    "exceptional_set",
    "first_order_recovery",
    "forward_dataset",
    "gamma_prefactor",
    "green_kernel",
    "green_residual_check",
    "green_residual_convergence",
    "hyperbolic_laplacian_apply",
    "i_full_integral",
    "indicial_root",
    "is_admissible",
    "j_converges",
    "j_integral",
    "layer_strip_driver",
    "make_synthetic_pair",
    "metric_boundary_recovery",
    "perturbation_coefficients",
    "principal_symbol",
    "recover_sigma_from_symbol",
    "singularity_coefficient",
    "t_limit_integral",
    "two_energy_recovery",
]

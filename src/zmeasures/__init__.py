"""z-measures on partitions, perfect matchings, zonal spherical
functions, Whittaker kernels, and Pfaffian correlation functions."""

from .correlations import (
    LimitReport,
    continuum_correlation,
    lattice_point_for,
    verify_limit,
)
from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    PoleError,
    ResourceCapError,
    UnvalidatedDomainError,
    ZMeasuresError,
)
from .gelfand import (
    CosetType,
    ThomaPoint,
    coset_type,
    extreme_character,
    spherical_restriction,
    zonal_spherical,
)
from .kernels import (
    KernelContext,
    KernelParams,
    MatrixKernelValue,
    S,
    S_partials,
    matrix_kernel,
    scalar_whittaker_kernel,
    w_a,
)
from .measures import (
    CorrelationReport,
    ZParams,
    lattice_correlation,
    mixed_z_measure,
    negative_binomial_weight,
    z_measure,
)
from .pairings import Matching, cycle_count, enumerate_matchings, t_measure
from .partitions import LatticeConfig, YoungDiagram, frobenius_coordinates
from .pfaffian import AntisymmetricMatrix, assemble, pfaffian
from .specfun import whittaker_W, whittaker_W_deriv

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricMatrix",
    "CorrelationReport",
    "CosetType",
    "DomainError",
    "KernelContext",
    "KernelParams",
    "LatticeConfig",
    "LimitReport",
    "Matching",
    "MatrixKernelValue",
    "NumericalError",
    "ParameterError",
    "PoleError",
    "ResourceCapError",
    "S",
    "S_partials",
    "ThomaPoint",
    "UnvalidatedDomainError",
    "YoungDiagram",
    "ZMeasuresError",
    "ZParams",
    "assemble",
    "continuum_correlation",
    "coset_type",
    "cycle_count",
    "enumerate_matchings",
    "extreme_character",
    "frobenius_coordinates",
    "lattice_correlation",
    "lattice_point_for",
    "matrix_kernel",
    "mixed_z_measure",
    "negative_binomial_weight",
    "pfaffian",
    "scalar_whittaker_kernel",
    "spherical_restriction",
    "t_measure",
    "verify_limit",
    "w_a",
    "whittaker_W",
    "whittaker_W_deriv",
    "z_measure",
    "zonal_spherical",
]

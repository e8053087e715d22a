"""Band structures and regularized vacuum energies of 1-D point-potential combs.

The comb is a lattice (spacing a) of identical delta-delta' potentials with
strengths (w0, w1), equivalently the reduced couplings (gamma, Omega).  The
package computes the single-scatterer amplitudes, the Bloch band structure,
and the subtracted (finite) vacuum energy per unit cell, plus the analytic
limiting cases used to cross-check everything.
"""

__version__ = "0.1.0"

from .errors import (
    AmplitudePoleError,
    DeltaCombError,
    InvalidLatticeSpacingError,
    NoSignChangeError,
    OutsideValidityDomainError,
    PerfectReflectionError,
    RootScanError,
    ToleranceNotMetError,
    ValidityViolationError,
)
from .quadrature import QuadratureConfig, integrate_finite, refine_root
from .scattering import (
    CombCouplings,
    ScatteringAmplitudes,
    delta_amplitudes,
    delta_prime_amplitudes,
    s_matrix_det,
)
from .bands import (
    Band,
    BandStructure,
    band_edges,
    band_rhs,
    band_structure,
    dispersion,
    spectral_function,
)
from .energy import (
    EnergyResult,
    comb_energy,
    dirichlet_limit_integrand,
    mixed_limit_integrand,
    plate_average_closed,
    plate_energy,
    plate_energy_closed,
    small_coupling_ratio,
    spectral_integrand,
    theta_integral_numeric,
    theta_integrand,
)

__all__ = [
    "__version__",
    "AmplitudePoleError",
    "DeltaCombError",
    "InvalidLatticeSpacingError",
    "NoSignChangeError",
    "OutsideValidityDomainError",
    "PerfectReflectionError",
    "RootScanError",
    "ToleranceNotMetError",
    "ValidityViolationError",
    "QuadratureConfig",
    "integrate_finite",
    "refine_root",
    "CombCouplings",
    "ScatteringAmplitudes",
    "delta_amplitudes",
    "delta_prime_amplitudes",
    "s_matrix_det",
    "Band",
    "BandStructure",
    "band_edges",
    "band_rhs",
    "band_structure",
    "dispersion",
    "spectral_function",
    "EnergyResult",
    "comb_energy",
    "dirichlet_limit_integrand",
    "mixed_limit_integrand",
    "plate_average_closed",
    "plate_energy",
    "plate_energy_closed",
    "small_coupling_ratio",
    "spectral_integrand",
    "theta_integral_numeric",
    "theta_integrand",
]

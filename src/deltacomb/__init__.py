"""Band structures and regularized vacuum energies of 1-D point-potential combs.

The comb is a lattice (spacing a) of identical delta-delta' potentials with
strengths (w0, w1), equivalently the reduced couplings (gamma, Omega).  The
package computes the single-scatterer amplitudes, the Bloch band structure,
and the subtracted (finite) vacuum energy per unit cell, plus the analytic
limiting cases used to cross-check everything.

Each module's __all__ is its public surface; the package re-exports them all.
"""

__version__ = "0.1.0"

from . import bands, energy, errors, quadrature, scattering
from .errors import *
from .quadrature import *
from .scattering import *
from .bands import *
from .energy import *

__all__ = [
    "__version__",
    *errors.__all__,
    *quadrature.__all__,
    *scattering.__all__,
    *bands.__all__,
    *energy.__all__,
]

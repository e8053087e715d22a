"""Exception types shared across the package."""


class DeltaCombError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLatticeSpacingError(DeltaCombError):
    """Lattice spacing must be strictly positive."""


class AmplitudePoleError(DeltaCombError):
    """Scattering-amplitude denominator vanished (bound-state momentum)."""


class PerfectReflectionError(DeltaCombError):
    """Transmission amplitude is zero, so the band-equation RHS is undefined."""


class OutsideValidityDomainError(DeltaCombError):
    """Parameters lie outside the domain where the energy formulas hold."""


class ValidityViolationError(DeltaCombError):
    """B^2 - C^2 <= 0 was encountered at k > 0.

    This inequality is guaranteed for gamma >= 0 and |Omega| <= 1, so hitting
    this error means either unsupported input slipped through or there is a
    bug in an integrand evaluation path.
    """


class ToleranceNotMetError(DeltaCombError):
    """Adaptive quadrature exhausted its subdivisions before reaching tolerance."""


class NoSignChangeError(DeltaCombError):
    """Root refinement was called on a bracket without a sign change."""


class RootScanError(DeltaCombError):
    """A root scan did not find the requested number of roots, or a root
    refinement did not converge; the message reports the interval searched."""

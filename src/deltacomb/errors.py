"""Exception types shared across the package.

OutsideValidityDomainError rejects input outside the supported domain;
every other DeltaCombError is a numerical failure.
"""

__all__ = [
    "DeltaCombError",
    "OutsideValidityDomainError",
    "ValidityViolationError",
    "ToleranceNotMetError",
    "RootScanError",
]


class DeltaCombError(Exception):
    """Base class for all errors raised by this package."""


class OutsideValidityDomainError(DeltaCombError):
    """Parameters lie outside the domain where the energy formulas hold."""


class ValidityViolationError(DeltaCombError):
    """An energy integrand's scaled denominator was negative or NaN at k > 0.

    gamma >= 0 and |Omega| <= 1 keep B - |C| and B + C cos(theta) positive,
    so this means unsupported input slipped through or a bug.
    """


class ToleranceNotMetError(DeltaCombError):
    """Adaptive quadrature exhausted its subdivisions before reaching tolerance."""


class RootScanError(DeltaCombError):
    """A root refinement met a NaN or did not converge; the message reports
    the interval searched."""

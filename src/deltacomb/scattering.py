"""Single-centre scattering data for the delta and delta-delta' potentials.

The delta-delta' point potential is parameterized by two dimensionless
strengths: w0 (delta part) and w1 (delta' part).  All amplitudes are
written over the common denominator

    D(k) = 2 k (w1^2 + 1) + i w0,

which gives, for a single centre on the line,

    t(k)   = -2 k (w1^2 - 1) / D(k)
    r_R(k) = (-4 k w1 - i w0) / D(k)
    r_L(k) = (+4 k w1 - i w0) / D(k)

and the unimodular S-matrix determinant

    det S = t^2 - r_R r_L = (2 k (w1^2 + 1) - i w0) / D(k).

The pure-delta amplitudes are conventionally quoted as t = 2ik/(2ik - w0),
r = w0/(2ik - w0); multiplying numerator and denominator by -i shows this
is the same function as the w1 = 0 case above.  This module keeps both
entry points and the reduction is tested numerically.

Only real momenta (scattering states) and positive-imaginary momenta
k = i kappa, kappa > 0 (the Wick-rotated axis used by the energy
integrands) are contractually supported, although the formulas accept any
complex k away from the amplitude pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .errors import (
    AmplitudePoleError,
    InvalidLatticeSpacingError,
    OutsideValidityDomainError,
)

__all__ = [
    "CombCouplings",
    "ScatteringAmplitudes",
    "delta_amplitudes",
    "delta_prime_amplitudes",
    "s_matrix_det",
]

Momentum = Union[float, complex]


def _over_w1_squared(w1: float) -> Tuple[float, float, float]:
    """(w1^2, 1, w1) / max(1, w1^2), formed so that w1^2 cannot overflow."""
    if abs(w1) > 1.0:
        return 1.0, 1.0 / (w1 * w1), 1.0 / w1
    return w1 * w1, 1.0, w1


@dataclass(frozen=True)
class CombCouplings:
    """Couplings of the delta-delta' comb and the derived reduced parameters.

    omega = (w1^2 - 1)/(w1^2 + 1) in [-1, 1] and gamma = w0/(1 + w1^2) are
    the combination the band and energy formulas actually depend on; for
    |w1| > 1 they are formed from w1^-2, which cannot overflow.  The
    matching-condition parameters alpha = (1 + w1)/(1 - w1) and
    beta = w0/(1 - w1^2) are undefined at w1 = +-1 and stored as None there
    (that is a flag, not an error: omega = 0 is perfectly regular downstream).
    """

    w0: float
    w1: float
    a: float
    omega: float = field(init=False)
    gamma: float = field(init=False)
    alpha: Optional[float] = field(init=False)
    beta: Optional[float] = field(init=False)

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise InvalidLatticeSpacingError(
                f"lattice spacing must be positive and finite, got a = {self.a}"
            )
        if not (math.isfinite(self.w0) and math.isfinite(self.w1)):
            raise OutsideValidityDomainError(
                f"couplings must be finite, got (w0, w1) = ({self.w0}, {self.w1})"
            )
        p, q, _ = _over_w1_squared(self.w1)
        object.__setattr__(self, "omega", (p - q) / (p + q))
        object.__setattr__(self, "gamma", self.w0 * q / (p + q))
        if self.w1 == 1.0 or self.w1 == -1.0:
            object.__setattr__(self, "alpha", None)
            object.__setattr__(self, "beta", None)
        else:
            object.__setattr__(self, "alpha", (1.0 + self.w1) / (1.0 - self.w1))
            object.__setattr__(self, "beta", self.w0 / (1.0 - self.w1 * self.w1))

    @classmethod
    def from_reduced(cls, omega: float, gamma: float, a: float) -> "CombCouplings":
        """Build couplings from (omega, gamma, a).

        Inverts the reduction: w1 = sqrt((1 + omega)/(1 - omega)) (the
        representative with w1 >= 0; spectra and energies depend on w1 only
        through w1^2) and w0 = 2 gamma / (1 - omega).  Requires
        -1 <= omega < 1; omega = 1 corresponds to w1 = +-infinity.
        """
        if not -1.0 <= omega < 1.0:
            raise ValueError(f"omega must lie in [-1, 1), got {omega}")
        w1 = math.sqrt((1.0 + omega) / (1.0 - omega))
        w0 = 2.0 * gamma / (1.0 - omega)
        return cls(w0=w0, w1=w1, a=a)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Transmission and reflection amplitudes of one centre at momentum k."""

    t: complex
    rR: complex
    rL: complex
    k: complex


def delta_amplitudes(w0: float, k: Momentum) -> ScatteringAmplitudes:
    """Amplitudes of a single Dirac delta: t = 2ik/(2ik - w0), left/right
    reflection both w0/(2ik - w0)."""
    k = complex(k)
    den = 2j * k - w0
    if den == 0:
        raise AmplitudePoleError(
            f"amplitude pole at k = {k} for delta strength w0 = {w0}"
        )
    t = 2j * k / den
    r = w0 / den
    return ScatteringAmplitudes(t=t, rR=r, rL=r, k=k)


def delta_prime_amplitudes(c: CombCouplings, k: Momentum) -> ScatteringAmplitudes:
    """Amplitudes of a single delta-delta' centre with couplings (w0, w1)."""
    k = complex(k)
    p, q, w1q = _over_w1_squared(c.w1)
    den = 2.0 * k * (p + q) + 1j * c.w0 * q
    if den == 0:
        raise AmplitudePoleError(
            f"amplitude pole at k = {k} for couplings (w0, w1) = ({c.w0}, {c.w1})"
        )
    t = -2.0 * k * (p - q) / den
    rR = (-4.0 * k * w1q - 1j * c.w0 * q) / den
    rL = (4.0 * k * w1q - 1j * c.w0 * q) / den
    return ScatteringAmplitudes(t=t, rR=rR, rL=rL, k=k)


def s_matrix_det(amps: ScatteringAmplitudes) -> complex:
    """Determinant of the 2x2 S-matrix, t^2 - rR * rL.

    Unimodular for real k != 0; its k -> 0 limit is -1 whenever w0 != 0
    (total reflection at threshold).
    """
    return amps.t * amps.t - amps.rR * amps.rL

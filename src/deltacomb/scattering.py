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
is the same function as the w1 = 0 case above; verification keeps that
form as a reference and checks the reduction numerically.

Only real momenta (scattering states) and positive-imaginary momenta
k = i kappa, kappa > 0 (the Wick-rotated axis used by the energy
integrands) are contractually supported, although the formulas accept any
complex k away from the amplitude pole.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import OutsideValidityDomainError

__all__ = [
    "CombCouplings",
    "ScatteringAmplitudes",
    "delta_prime_amplitudes",
    "s_matrix_det",
]

Momentum = float | complex


def _over_w1_squared(w1: float) -> tuple[float, float, float]:
    """(w1^2, 1, w1) / max(1, w1^2), formed so that w1^2 cannot overflow."""
    if abs(w1) > 1.0:
        return 1.0, 1.0 / (w1 * w1), 1.0 / w1
    return w1 * w1, 1.0, w1


def one_plus_omega_cos(omega: float, theta: float) -> float:
    """1 + Omega cos(theta) as a sum of non-negative terms.

    The naive form cancels when Omega cos(theta) -> -1 (Omega -> -1 at
    theta = 0, or Omega -> +1 at theta = pi); expanding about the nearer
    endpoint keeps every addend >= 0.
    """
    if omega <= 0.0:
        half = math.sin(0.5 * theta)
        return (1.0 + omega) - 2.0 * omega * half * half
    half = math.cos(0.5 * theta)
    return (1.0 - omega) + 2.0 * omega * half * half


class CombCouplings(Record):
    """Couplings of the delta-delta' comb and the derived reduced parameters.

    omega = (w1^2 - 1)/(w1^2 + 1) in [-1, 1] and gamma = w0/(1 + w1^2) are
    the combination the band and energy formulas actually depend on; for
    |w1| > 1 they are formed from w1^-2, which cannot overflow.
    """

    __slots__ = ("w0", "w1", "a", "omega", "gamma")

    def __init__(self, w0: float, w1: float, a: float):
        p, q, _ = _over_w1_squared(w1)
        self._checked_set(w0, w1, a, (p - q) / (p + q), w0 * q / (p + q))

    def _checked_set(self, w0: float, w1: float, a: float, omega: float, gamma: float) -> None:
        if not 0 < a < math.inf:
            raise OutsideValidityDomainError(
                f"lattice spacing must be positive and finite, got a = {a}"
            )
        if not (math.isfinite(w0) and math.isfinite(w1)):
            raise OutsideValidityDomainError(
                f"couplings must be finite, got (w0, w1) = ({w0}, {w1})"
            )
        self._set(w0, w1, a, omega, gamma)

    @classmethod
    def from_reduced(cls, omega: float, gamma: float, a: float) -> "CombCouplings":
        """Build couplings from (omega, gamma, a), which it keeps exactly.

        Derives w1 = sqrt((1 + omega)/(1 - omega)) (the representative with
        w1 >= 0; spectra and energies depend on w1 only through w1^2) and
        w0 = 2 gamma / (1 - omega).  Requires -1 <= omega < 1; omega = 1
        corresponds to w1 = +-infinity.
        """
        if not -1.0 <= omega < 1.0:
            raise ValueError(f"omega must lie in [-1, 1), got {omega}")
        w0 = 2.0 * gamma / (1.0 - omega)
        if not math.isfinite(w0):
            raise OutsideValidityDomainError(
                f"2 gamma/(1 - omega) must be finite, got (omega, gamma) = ({omega}, {gamma})"
            )
        c = cls.__new__(cls)
        c._checked_set(w0, math.sqrt((1.0 + omega) / (1.0 - omega)), a, omega, gamma)
        return c


class ScatteringAmplitudes(Record):
    """Transmission and reflection amplitudes of one centre at momentum k."""

    __slots__ = ("t", "rR", "rL", "k")

    def __init__(self, t: complex, rR: complex, rL: complex, k: complex):
        self._set(t, rR, rL, k)


def delta_prime_amplitudes(c: CombCouplings, k: Momentum) -> ScatteringAmplitudes:
    """Amplitudes of a single delta-delta' centre with couplings (w0, w1)."""
    k = complex(k)
    p, q, w1q = _over_w1_squared(c.w1)
    den = 2.0 * k * (p + q) + 1j * c.w0 * q
    if den == 0:
        raise OutsideValidityDomainError(
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

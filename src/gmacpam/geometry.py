"""Signal-space geometry for two binary PAM senders.

After projecting onto an orthonormal basis of the span of the two unit-energy
pulses, sender 1's points lie on the real axis and sender 2's points lie on
the ray at angle theta = arccos(gamma_phi), where gamma_phi is the pulse
cross-correlation. Signal points are plain complex numbers in sqrt-energy
units, and a received sample is point plus circular Gaussian noise with
per-component variance sigma2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstellation
from .sources import JointSourceDistribution

# Relative scale below which two combined points count as coincident.
COINCIDENCE_RTOL = 1e-9


def coincidence_tol(scale):
    """Distance at or below which two points of a constellation coincide.

    scale is the constellation's largest point magnitude, or an array of
    them, one per row, for which the tolerances come back elementwise. The
    rule is relative, so it is invariant to rescaling the constellation.
    """
    return COINCIDENCE_RTOL * np.maximum(scale, 1e-300)


@dataclass(frozen=True)
class Constellation:
    """One sender's two signal points, indexed by the transmitted bit."""

    s0: complex
    s1: complex

    def __post_init__(self) -> None:
        if self.s0 == self.s1:
            raise DegenerateConstellation(f"signal points coincide at {self.s0}")

    @property
    def d(self) -> complex:
        """Separation vector s1 - s0."""
        return self.s1 - self.s0

    def point(self, bit: int) -> complex:
        return self.s1 if bit else self.s0


@dataclass(frozen=True)
class CombinedConstellation:
    """Superposition points a_uv = s1u + s2v with their prior probabilities."""

    a00: complex
    a01: complex
    a10: complex
    a11: complex
    priors: JointSourceDistribution

    def as_array(self) -> np.ndarray:
        """Points in lexicographic (u, v) order."""
        return np.array([self.a00, self.a01, self.a10, self.a11], dtype=np.complex128)

    def point(self, u: int, v: int) -> complex:
        return (self.a00, self.a01, self.a10, self.a11)[2 * u + v]

    def scale(self) -> float:
        """Largest point magnitude, used for relative coincidence tests."""
        return max(abs(p) for p in (self.a00, self.a01, self.a10, self.a11))


def sender2_axis(gamma_phi: float) -> complex:
    """Sender 2's unit vector (gamma_phi, sqrt(1 - gamma_phi^2)).

    For gamma_phi = -1 it is exactly -1, so sender 2's points are its
    negated amplitudes. gamma_phi outside [-1, 1], or NaN, is rejected.
    """
    if not abs(gamma_phi) <= 1.0:
        raise ValueError(f"gamma_phi must lie in [-1, 1], got {gamma_phi}")
    return complex(gamma_phi, math.sqrt(1.0 - gamma_phi**2))


def from_amplitudes(
    a10: float, a11: float, a20: float, a21: float, gamma_phi: float
) -> tuple[Constellation, Constellation]:
    """Place real pulse amplitudes into signal space.

    Sender 1's amplitudes land on the real axis; sender 2's are scaled onto
    sender2_axis(gamma_phi).
    """
    u2 = sender2_axis(gamma_phi)
    c1 = Constellation(complex(a10, 0.0), complex(a11, 0.0))
    c2 = Constellation(a20 * u2, a21 * u2)
    return c1, c2


def combine(
    c1: Constellation, c2: Constellation, priors: JointSourceDistribution
) -> CombinedConstellation:
    """Form the four superposition points a_uv = s1u + s2v."""
    return CombinedConstellation(
        a00=c1.s0 + c2.s0,
        a01=c1.s0 + c2.s1,
        a10=c1.s1 + c2.s0,
        a11=c1.s1 + c2.s1,
        priors=priors,
    )


def is_bijective(cc: CombinedConstellation) -> bool:
    """True when no two of the four combined points coincide, by the
    coincidence_tol rule."""
    pts = cc.as_array()
    tol = coincidence_tol(cc.scale())
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(pts[i] - pts[j]) <= tol:
                return False
    return True


def check_energy(c: Constellation, p: float, e: float, tol: float = 1e-9) -> bool:
    """True when p |s0|^2 + (1-p) |s1|^2 matches e within relative tol."""
    actual = p * abs(c.s0) ** 2 + (1.0 - p) * abs(c.s1) ** 2
    return abs(actual - e) <= tol * e


def pair_geometry(c1: Constellation, c2: Constellation) -> tuple[complex, complex, float]:
    """Separation vectors (d1, d2) and the angle psi from d1 to d2 in [0, 2pi)."""
    d1 = c1.d
    d2 = c2.d
    psi = (cmath.phase(d2) - cmath.phase(d1)) % (2.0 * math.pi)
    return d1, d2, psi


__all__ = [
    "COINCIDENCE_RTOL",
    "CombinedConstellation",
    "Constellation",
    "check_energy",
    "coincidence_tol",
    "combine",
    "from_amplitudes",
    "is_bijective",
    "pair_geometry",
]

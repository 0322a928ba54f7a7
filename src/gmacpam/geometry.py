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
from .sources import BIT_PAIRS, JointSourceDistribution

# Relative scale below which two combined points count as coincident.
COINCIDENCE_RTOL = 1e-9


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
class ChannelGeometry:
    """Pulse correlation gamma_phi in [-1, 1] and noise variance sigma2 > 0."""

    gamma_phi: float
    sigma2: float

    def __post_init__(self) -> None:
        if not abs(self.gamma_phi) <= 1.0:
            raise ValueError(f"gamma_phi must lie in [-1, 1], got {self.gamma_phi}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")

    @property
    def theta(self) -> float:
        """Angle between the two senders' rays, arccos(gamma_phi)."""
        return math.acos(self.gamma_phi)


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


def from_amplitudes(
    a10: float, a11: float, a20: float, a21: float, geom: ChannelGeometry
) -> tuple[Constellation, Constellation]:
    """Place real pulse amplitudes into signal space.

    Sender 1's amplitudes land on the real axis; sender 2's are scaled onto
    the unit vector (gamma_phi, sqrt(1 - gamma_phi^2)). For gamma_phi = -1
    that vector is exactly -1, so sender 2's points are negated amplitudes.
    """
    u2 = complex(geom.gamma_phi, math.sqrt(max(0.0, 1.0 - geom.gamma_phi**2)))
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


def is_bijective(cc: CombinedConstellation, tol: float | None = None) -> bool:
    """True when all four combined points are pairwise distinct within tol.

    The default tolerance is COINCIDENCE_RTOL times the largest point
    magnitude, so the test is invariant to rescaling the constellation.
    """
    pts = cc.as_array()
    if tol is None:
        tol = COINCIDENCE_RTOL * max(cc.scale(), 1e-300)
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
    "BIT_PAIRS",
    "COINCIDENCE_RTOL",
    "ChannelGeometry",
    "CombinedConstellation",
    "Constellation",
    "check_energy",
    "combine",
    "from_amplitudes",
    "is_bijective",
    "pair_geometry",
]

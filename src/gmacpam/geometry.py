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
import itertools
import math
from typing import NamedTuple

from .errors import DegenerateConstellation
from .sources import JointSourceDistribution, pair_index

# Relative scale below which two combined points count as coincident.
COINCIDENCE_RTOL = 1e-9
# Smallest scale the rule uses, so that all-zero points still get a
# positive tolerance.
SCALE_FLOOR = 1e-300


def coincidence_tol(scale: float) -> float:
    """Distance at or below which two points of a constellation coincide.

    scale is the constellation's largest point magnitude; a NaN scale gives
    a NaN tolerance. The rule is relative, so it is invariant to rescaling
    the constellation. _kernels._rival applies it to a batch of designs,
    elementwise.
    """
    return COINCIDENCE_RTOL * max(scale, SCALE_FLOOR)


def on_real_axis(pts, tol) -> bool:
    """True when every point's imaginary part is within tol of 0."""
    return all(abs(p.imag) <= tol for p in pts)


class _Points(NamedTuple):
    s0: complex
    s1: complex


class Constellation(_Points):
    """One sender's two signal points, indexed by the transmitted bit."""

    __slots__ = ()

    def __new__(cls, s0: complex, s1: complex):
        if s0 == s1:
            raise DegenerateConstellation(f"signal points coincide at {s0}")
        return tuple.__new__(cls, (s0, s1))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the new points too
        return cls(*iterable)

    @property
    def d(self) -> complex:
        """Separation vector s1 - s0."""
        return self.s1 - self.s0

    def point(self, bit: int) -> complex:
        return self.s1 if bit else self.s0


class _CombinedPoints(NamedTuple):
    a00: complex
    a01: complex
    a10: complex
    a11: complex
    priors: JointSourceDistribution


class CombinedConstellation(_CombinedPoints):
    """Superposition points a_uv = s1u + s2v with their prior probabilities.

    Unlike the other records, an instance has a __dict__, where
    analysis._pair_geometry keeps the constellation's noise-free pair table;
    attribute assignment still raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    @property
    def points(self) -> tuple[complex, complex, complex, complex]:
        """Points in lexicographic (u, v) order."""
        return (self.a00, self.a01, self.a10, self.a11)

    def as_array(self):
        """The points as a complex128 numpy array; numpy loads on first use."""
        import numpy as np

        return np.array(self.points, dtype=np.complex128)

    def point(self, u: int, v: int) -> complex:
        return self.points[pair_index(u, v)]

    def scale(self) -> float:
        """Largest point magnitude, used for relative coincidence tests.

        A point with a NaN or infinite part, or a finite one whose magnitude
        overflows, raises OverflowError naming it, so no caller computes
        with it (max would skip a NaN anywhere but first).
        """
        mags = []
        for name, p in zip(("a00", "a01", "a10", "a11"), self.points):
            try:
                m = abs(p)
            except OverflowError:
                raise OverflowError(f"magnitude of combined point {p!r} overflows") from None
            if not m < math.inf:  # abs is NaN or inf exactly when a part is
                raise OverflowError(f"combined point {name} = {p!r} is not finite")
            mags.append(m)
        return max(mags)


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
    tol = coincidence_tol(cc.scale())
    return all(abs(a - b) > tol for a, b in itertools.combinations(cc.points, 2))


def check_energy(c: Constellation, p: float, e: float) -> bool:
    """True when p |s0|^2 + (1-p) |s1|^2 matches e within relative 1e-9."""
    actual = p * abs(c.s0) ** 2 + (1.0 - p) * abs(c.s1) ** 2
    return abs(actual - e) <= 1e-9 * e


def pair_geometry(c1: Constellation, c2: Constellation) -> tuple[complex, complex, float]:
    """Separation vectors (d1, d2) and the angle psi from d1 to d2 in [0, 2pi)."""
    d1 = c1.d
    d2 = c2.d
    psi = (cmath.phase(d2) - cmath.phase(d1)) % (2.0 * math.pi)
    return d1, d2, psi

"""Exception types shared across the package."""


class GmacpamError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveProbability(GmacpamError):
    """A probability cell that must be strictly positive is not."""


class SumOutOfTolerance(GmacpamError):
    """Joint probabilities do not sum to one within tolerance."""


class InfeasibleCorrelation(GmacpamError):
    """No valid joint pmf exists for the requested marginals and correlation."""


class DegenerateConstellation(GmacpamError):
    """A sender's two signal points coincide."""


class NotCollinear(GmacpamError):
    """The collinear error path was given a constellation off the real axis."""


class CollinearInput(GmacpamError):
    """The planar error path was given an effectively collinear constellation."""


class NonBijective(GmacpamError):
    """Two combined constellation points coincide where distinctness is required."""


class CorrelationAtUnity(GmacpamError):
    """Bivariate normal correlation too close to +/-1 for the orthant routine."""


class CaseMismatch(GmacpamError):
    """Pair separations (d1, d2) violate the requested sign-case conditions."""


class WrongGammaPhi(GmacpamError):
    """A designer was called with a waveform correlation outside its domain."""


class InfeasibleRoot(GmacpamError):
    """The energy constraint admits no real amplitude root."""


class UnknownConvention(GmacpamError):
    """Unrecognised SNR-to-noise-variance convention tag."""


class ConfigError(GmacpamError):
    """Invalid experiment configuration (bad field, bad file line, missing key)."""

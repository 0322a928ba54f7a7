import math

import pytest

from gmacpam import (
    CombinedConstellation,
    combine,
    from_amplitudes,
    from_joint,
    from_marginals_correlation,
)


@pytest.fixture(scope="session")
def case1():
    """Symmetric, strongly correlated source pair (sparse zeros)."""
    return from_marginals_correlation(0.1, 0.1, 0.9)


@pytest.fixture(scope="session")
def case2():
    """Asymmetric, mildly correlated source pair."""
    return from_marginals_correlation(0.2, 0.5, 0.4)


@pytest.fixture(scope="session")
def uniform():
    return from_joint(0.25, 0.25, 0.25, 0.25)


def build_cc(a10, a11, a20, a21, gamma_phi, priors):
    """Amplitudes -> combined constellation, one call."""
    c1, c2 = from_amplitudes(a10, a11, a20, a21, gamma_phi)
    return combine(c1, c2, priors)


def collinear_cc(d1, d2, priors):
    """Four real-axis points {0, d2, d1, d1+d2} with the given priors."""
    return CombinedConstellation(
        complex(0.0), complex(d2), complex(d1), complex(d1 + d2), priors
    )


def snr_to_sigma2_table(snr_db):
    return 10.0 ** (-snr_db / 10.0)


assert math.isclose(snr_to_sigma2_table(18.0), 10.0**-1.8)

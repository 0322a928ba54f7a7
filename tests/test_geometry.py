"""Signal-space placement and combined-constellation geometry."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmacpam import (
    CombinedConstellation,
    Constellation,
    check_energy,
    combine,
    exact_error_collinear,
    exact_error_planar,
    from_amplitudes,
    is_bijective,
    pair_geometry,
)
from gmacpam import _kernels as K
from gmacpam.errors import DegenerateConstellation, NonBijective
from gmacpam.geometry import COINCIDENCE_RTOL, coincidence_tol

from conftest import build_cc


def test_constellation_separation():
    c = Constellation(complex(-3.0), complex(1.0 / 3.0))
    assert c.d == complex(10.0 / 3.0)
    assert c.point(0) == complex(-3.0)
    assert c.point(1) == complex(1.0 / 3.0)


def test_degenerate_constellation_rejected():
    with pytest.raises(DegenerateConstellation):
        Constellation(complex(1.0, 2.0), complex(1.0, 2.0))


@pytest.mark.parametrize("gphi", [1.5, -1.0000001, math.nan])
def test_from_amplitudes_rejects_bad_correlation(gphi):
    with pytest.raises(ValueError, match="gamma_phi"):
        from_amplitudes(-1.0, 0.5, -0.8, 1.2, gphi)


@pytest.mark.parametrize("gphi", [0.0, 0.383, 0.707, 0.924, 1.0, -1.0])
def test_from_amplitudes_unit_direction(gphi):
    c1, c2 = from_amplitudes(-1.0, 0.5, -0.8, 1.2, gphi)
    # sender 1 stays on the real axis
    assert c1.s0 == complex(-1.0)
    assert c1.s1 == complex(0.5)
    # sender 2 keeps its amplitude magnitudes on a unit direction
    u2 = complex(gphi, math.sqrt(max(0.0, 1.0 - gphi * gphi)))
    assert abs(abs(u2) - 1.0) <= 1e-15
    assert c2.s0 == pytest.approx(-0.8 * u2, abs=1e-15)
    assert c2.s1 == pytest.approx(1.2 * u2, abs=1e-15)
    assert abs(c2.s0) == pytest.approx(0.8, abs=1e-12)
    assert abs(c2.s1) == pytest.approx(1.2, abs=1e-12)


def test_identical_pulses_are_real():
    _, c2 = from_amplitudes(0.0, 1.0, -0.7, 0.3, 1.0)
    assert c2.s0 == complex(-0.7, 0.0)
    assert c2.s1 == complex(0.3, 0.0)
    _, c2 = from_amplitudes(0.0, 1.0, -0.7, 0.3, -1.0)
    assert c2.s0 == complex(0.7, 0.0)
    assert c2.s1 == complex(-0.3, 0.0)


def test_combine_superposes(uniform):
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform)
    assert cc.as_array() == pytest.approx(np.array([-2.0, 0.0, 0.0, 2.0]), abs=1e-15)
    assert cc.point(0, 1) == complex(0.0)
    assert cc.point(1, 1) == complex(2.0)


def test_combine_orthogonal_is_planar(uniform):
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 0.0, uniform)
    assert cc.as_array() == pytest.approx(
        np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]), abs=1e-15
    )


def test_bijectivity(uniform):
    # antipodal identical pulses collapse two points onto 0
    assert not is_bijective(build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform))
    assert is_bijective(build_cc(-1.0, 1.0, -0.5, 0.5, 1.0, uniform))
    # tolerance scales with the constellation
    cc = build_cc(-1e6, 1e6, -1e6, 1e6 + 1e-4, 1.0, uniform)
    assert not is_bijective(cc)  # 1e-4 gap on a 2e6 scale is a coincidence


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_tolerance_edge_agrees_everywhere(uniform, factor):
    """A pair of points factor x the coincidence tolerance apart reads as
    coincident (0.5) or distinct (2) on every path alike, and so does a
    copy of the points shifted by t = 1e9 or 1e9 + 1e9j: the scalar
    verdict there is the kernels' verdict on the design (d1, d2). In the
    plane the pair is sender 1's separation (a short d2 would put all four
    points within the tolerance of the real axis); on the line a design a
    gap short of merged (d1 = +-d2), and equal priors make the line's
    answer hinge on it: a coincident pair leaves its later point no
    region, a distinct one splits the shared region at the midpoint. The
    separations are some 2 000 long, so that a gap of a few 1e-6 outlasts
    the shift's rounding (half an ulp of 1e9 is 6e-8)."""
    sigma2 = 0.1
    priors = uniform.as_array()
    distinct = factor > 1.0

    def verdicts(d1, d2):
        """Every copy's is_bijective, and the kernels' verdict on (d1, d2)."""
        _, dist, _, tol = K._rival(np.array([d1]), np.array([d2]), priors, sigma2)
        pts = (0j, d2, complex(d1), d1 + d2)
        copies = [CombinedConstellation(*(a + t for a in pts), uniform)
                  for t in (0.0, 1e9, 1e9 + 1e9j)]
        return [is_bijective(cc) for cc in copies] + [bool((dist > tol).all())], copies[0]

    d2 = complex(1200.0, -1600.0)  # |d2| = 2000, the scale up to the gap
    d1 = factor * coincidence_tol(abs(d2))
    seen, cc = verdicts(d1, d2)
    assert seen == [distinct] * 4
    batch = K.planar_pe_batch(np.array([d1]), np.array([d2]), priors, sigma2)[0]
    if distinct:
        assert 0.0 < exact_error_planar(cc, sigma2).p_err_exact < 1.0
        assert np.isfinite(batch)
    else:
        with pytest.raises(NonBijective):
            exact_error_planar(cc, sigma2)
        assert batch == np.inf
    # on a line the collinear kernel resolves the pair as the scalar path
    # does; either way the largest pairwise distance is about 2 d1
    d1 = 2000.0
    for sign in (-1.0, 1.0):
        d2 = sign * (d1 - factor * coincidence_tol(2.0 * d1))
        seen, line = verdicts(d1, d2)
        assert seen == [distinct] * 4
        want = exact_error_collinear(line, sigma2).p_err_exact
        got = K.collinear_pe_batch(np.array([d1]), np.array([d2]), priors, sigma2)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_check_energy():
    c = Constellation(complex(-3.0), complex(1.0 / 3.0))
    assert check_energy(c, 0.1, 1.0)
    assert not check_energy(c, 0.2, 1.0)
    c2 = Constellation(complex(-1.0), complex(1.0))
    assert check_energy(c2, 0.5, 1.0)


def test_pair_geometry_angles(uniform):
    c1, c2 = from_amplitudes(-1.0, 1.0, -0.5, 0.5, 1.0)
    d1, d2, psi = pair_geometry(c1, c2)
    assert d1 == complex(2.0)
    assert d2 == complex(1.0)
    assert psi == pytest.approx(0.0, abs=1e-15)
    # flipping one sender's labels gives the opposed angle
    c1, c2 = from_amplitudes(-1.0, 1.0, 0.5, -0.5, 1.0)
    _, _, psi = pair_geometry(c1, c2)
    assert psi == pytest.approx(math.pi, abs=1e-15)
    # orthogonal pulses put the separations at a right angle
    c1, c2 = from_amplitudes(-1.0, 1.0, -0.5, 0.5, 0.0)
    _, _, psi = pair_geometry(c1, c2)
    assert psi == pytest.approx(math.pi / 2.0, abs=1e-15)


@given(
    a10=st.floats(-3, 3),
    a11=st.floats(-3, 3),
    a20=st.floats(-3, 3),
    a21=st.floats(-3, 3),
    gphi=st.floats(-1, 1),
)
@settings(max_examples=200, deadline=None)
def test_cross_term_matches_angle(a10, a11, a20, a21, gphi):
    """|d1||d2|cos(psi) equals the real inner product of the separations."""
    if abs(a11 - a10) < 1e-6 or abs(a21 - a20) < 1e-6:
        return
    c1, c2 = from_amplitudes(a10, a11, a20, a21, gphi)
    d1, d2, psi = pair_geometry(c1, c2)
    inner = (d1 * d2.conjugate()).real
    assert abs(abs(d1) * abs(d2) * math.cos(psi) - inner) <= 1e-12 * max(
        1.0, abs(inner)
    )


def test_combine_translation(uniform):
    ref = build_cc(-1.0, 1.0, -0.5, 0.5, 0.6, uniform)
    shifted = build_cc(-1.0 + 0.7, 1.0 + 0.7, -0.5, 0.5, 0.6, uniform)
    assert shifted.as_array() == pytest.approx(ref.as_array() + 0.7, abs=1e-12)


def test_priors_array_order(case2):
    cc = build_cc(-1.0, 1.0, -0.5, 0.5, 0.0, case2)
    assert cc.priors.as_array() == pytest.approx(np.array(case2.as_tuple()), abs=1e-15)


def test_coincidence_rtol_value():
    assert COINCIDENCE_RTOL == 1e-9


@pytest.mark.parametrize("scale", [0.0, 5e-324, 2.0**-1030, 1.0, 1e300, math.inf, math.nan])
def test_scalar_coincidence_tol_is_the_batch_rule(scale):
    # the scalar paths compare against a Python float, and it is the
    # tolerance the batch kernels give the same scale, bit for bit
    tol = coincidence_tol(scale)
    assert type(tol) is float
    # the designs (-scale, 0) and (0, scale), whose largest point magnitude is scale
    *_, batch = K._rival(np.array([-scale, 0.0]), np.array([0.0, scale]),
                         np.full(4, 0.25), 1.0)
    for row in batch.tolist():
        assert struct.pack("<d", tol) == struct.pack("<d", row)

"""Joint binary source model: construction and validation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmacpam import JointSourceDistribution, from_joint, from_marginals_correlation
from gmacpam.errors import (
    GmacpamError,
    InfeasibleCorrelation,
    NonPositiveProbability,
    SumOutOfTolerance,
)
from gmacpam.sources import BIT_PAIRS

# Frozen cell values for the two reference sources.
CASE1_CELLS = (0.091, 0.009, 0.009, 0.891)
CASE2_CELLS = (0.18, 0.02, 0.32, 0.48)


def test_case1_cells(case1):
    assert case1.as_tuple() == pytest.approx(CASE1_CELLS, abs=1e-15)
    assert case1.p1 == pytest.approx(0.1, abs=1e-15)
    assert case1.p2 == pytest.approx(0.1, abs=1e-15)
    assert case1.gamma_m == pytest.approx(0.9, abs=1e-12)


def test_case2_cells(case2):
    assert case2.as_tuple() == pytest.approx(CASE2_CELLS, abs=1e-15)
    assert case2.p1 == pytest.approx(0.2, abs=1e-15)
    assert case2.p2 == pytest.approx(0.5, abs=1e-15)
    assert case2.gamma_m == pytest.approx(0.4, abs=1e-12)


def test_from_joint_renormalizes_within_tolerance():
    eps = 2e-10  # inside the 1e-9 budget once spread over four cells
    d = from_joint(0.25 + eps, 0.25 - eps, 0.25 + eps, 0.25 - eps)
    assert math.fsum(d.as_tuple()) == pytest.approx(1.0, abs=1e-15)


def test_from_joint_rejects_bad_sum():
    with pytest.raises(SumOutOfTolerance):
        from_joint(0.2, 0.2, 0.2, 0.2)


def test_from_joint_rejects_nonpositive_cells():
    with pytest.raises(NonPositiveProbability):
        from_joint(0.0, 0.5, 0.25, 0.25)
    with pytest.raises(NonPositiveProbability):
        from_joint(-0.1, 0.5, 0.35, 0.25)


@pytest.mark.parametrize("cells", [
    (math.inf, -math.inf, 0.5, 0.5), (math.inf, 0.2, 0.3, 0.5), (math.nan, 0.2, 0.3, 0.5)])
def test_from_joint_rejects_non_finite_cells(cells):
    """A non-finite cell raises a package error; inf + -inf used to escape
    as math.fsum's bare ValueError."""
    with pytest.raises(GmacpamError):
        from_joint(*cells)


@pytest.mark.parametrize("cells, error, fragment", [
    ((0.0, 0.5, 0.25, 0.25), NonPositiveProbability, "must be > 0"),
    ((0.25, 0.25, 0.25, 0.25 + 1e-11), SumOutOfTolerance, "expected 1 within 1e-12"),
])
def test_direct_construction_validates_cells(cells, error, fragment):
    """Built directly, without from_joint's renormalisation, a distribution
    takes no zero cell and no drift from unit total past 1e-12."""
    with pytest.raises(error, match=fragment):
        JointSourceDistribution(*cells)


def test_from_marginals_rejects_degenerate_marginals():
    with pytest.raises(ValueError):
        from_marginals_correlation(0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        from_marginals_correlation(0.5, 1.0, 0.0)


def test_infeasible_correlation():
    # p1=0.1, p2=0.9 cannot support correlation 0.99: one cell goes negative.
    with pytest.raises(InfeasibleCorrelation):
        from_marginals_correlation(0.1, 0.9, 0.99)


def test_zero_correlation_factorizes():
    d = from_joint(0.25, 0.25, 0.25, 0.25)
    assert d.gamma_m == pytest.approx(0.0, abs=1e-15)
    f = from_marginals_correlation(0.3, 0.7, 0.0)
    assert f.prob(0, 0) == pytest.approx(0.3 * 0.7, abs=1e-15)
    assert f.prob(0, 1) == pytest.approx(0.3 * 0.3, abs=1e-15)
    assert f.prob(1, 0) == pytest.approx(0.7 * 0.7, abs=1e-15)
    assert f.prob(1, 1) == pytest.approx(0.7 * 0.3, abs=1e-15)


@given(
    p1=st.floats(0.05, 0.95),
    p2=st.floats(0.05, 0.95),
    gm=st.floats(-0.95, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_marginals_correlation_round_trip(p1, p2, gm):
    try:
        d = from_marginals_correlation(p1, p2, gm)
    except InfeasibleCorrelation:
        assume(False)
    q1, q2, g = d.p1, d.p2, d.gamma_m
    assert abs(q1 - p1) <= 1e-12
    assert abs(q2 - p2) <= 1e-12
    assert abs(g - gm) <= 1e-12


def test_cdf_layout(case1):
    c = case1.cdf()
    assert c.shape == (4,)
    assert np.all(np.diff(c) > 0.0)
    assert c[-1] == 1.0  # exact, so no uniform draw can fall off the end
    assert c[0] == pytest.approx(0.091, abs=1e-15)


def test_bit_pairs_order():
    assert BIT_PAIRS == ((0, 0), (0, 1), (1, 0), (1, 1))

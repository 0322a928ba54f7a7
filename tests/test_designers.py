"""Constellation designers: closed-form optima and the grid search."""

import math

import numpy as np
import pytest

from gmacpam import (
    DesignInput,
    antipodal,
    d_max,
    design,
    design_collinear,
    design_general,
    design_orthogonal,
    exact_error,
    exact_error_collinear,
    individually_optimized,
    max_separation,
    numerical_search,
)
from gmacpam.design import _signed_root_pair
from gmacpam.errors import ConfigError, InfeasibleRoot, WrongGammaPhi
from gmacpam.geometry import check_energy, combine, from_amplitudes

from conftest import build_cc, collinear_cc

S18 = 10.0**-1.8

# FROZEN design outputs at sigma2 = 10^-1.8, unit energies (see test_analysis)
T2_S2 = (-2.421145692566857, -0.6780735403712947)
T2_PE = 2.917504663892292e-12
T3_S2 = (-1.408152179522546, -0.1307954101102311)
T3_PE = 2.684676541251541e-07
G924_S2 = (-2.464318445824283, -0.660566642072479)
G924_PE = 9.606995306733661e-14


def sender2_twin(a20, a21, p2):
    """The other energy-shell root with the same separation: a translation."""
    d = a21 - a20
    b20 = -2.0 * (1.0 - p2) * d - a20
    return b20, b20 + d


# ---------------------------------------------------------------------------
# separation caps
# ---------------------------------------------------------------------------


def test_d_max():
    assert d_max(0.1, 1.0) == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert d_max(0.5, 2.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_max_separation_examples():
    assert max_separation(0.1, 1.0) == pytest.approx((-3.0, 1.0 / 3.0), rel=1e-12)
    assert max_separation(0.5, 1.0) == pytest.approx((-1.0, 1.0), rel=1e-12)
    assert max_separation(0.2, 1.0) == pytest.approx((-2.0, 0.5), rel=1e-12)
    # reversed orientation mirrors the pair
    assert max_separation(0.2, 1.0, sign=-1.0) == pytest.approx(
        (2.0, -0.5), rel=1e-12
    )


def test_max_separation_hits_cap_and_energy():
    for p, e in ((0.1, 1.0), (0.2, 1.0), (0.5, 2.0), (0.35, 0.7)):
        s0, s1 = max_separation(p, e)
        assert s1 - s0 == pytest.approx(d_max(p, e), rel=1e-12)
        assert p * s0 * s0 + (1 - p) * s1 * s1 == pytest.approx(e, rel=1e-12)


def test_signed_root_pair_energy():
    s0, s1 = _signed_root_pair(1.2, 0.3, 1.0)
    assert s1 - s0 == pytest.approx(1.2, abs=1e-14)
    assert 0.3 * s0 * s0 + 0.7 * s1 * s1 == pytest.approx(1.0, rel=1e-14)
    # the negative root: s1 = d p - sqrt(disc)
    assert s1 == pytest.approx(1.2 * 0.3 - math.sqrt(1.0 - 1.44 * 0.3 * 0.7), rel=1e-14)
    with pytest.raises(InfeasibleRoot):
        _signed_root_pair(10.0, 0.5, 1.0)


# ---------------------------------------------------------------------------
# reference designers
# ---------------------------------------------------------------------------


def test_antipodal(case1):
    res = antipodal(DesignInput(case1, 2.0, 1.0, 0.0, 0.1))
    assert (res.a10, res.a11) == pytest.approx(
        (-1.4142135623730951, 1.4142135623730951), rel=1e-15
    )
    assert (res.a20, res.a21) == pytest.approx((-1.0, 1.0), rel=1e-15)


def test_individually_optimized(case1):
    res = individually_optimized(DesignInput(case1, 1.0, 1.0, 1.0, 0.1))
    assert (res.a10, res.a11) == pytest.approx((-3.0, 1.0 / 3.0), rel=1e-12)
    assert (res.a20, res.a21) == pytest.approx((-3.0, 1.0 / 3.0), rel=1e-12)


def test_orthogonal_requires_gamma_zero(case1):
    inp = DesignInput(case1, 1.0, 1.0, 0.3, 0.1)
    with pytest.raises(WrongGammaPhi):
        design_orthogonal(inp)


def test_orthogonal_ignores_noise_and_correlation(case1):
    a = design_orthogonal(DesignInput(case1, 1.0, 1.0, 0.0, 1.0))
    b = design_orthogonal(DesignInput(case1, 1.0, 1.0, 0.0, 1e-4))
    assert (a.a10, a.a11, a.a20, a.a21) == (b.a10, b.a11, b.a20, b.a21)
    # same marginals, different correlation: the split design cannot tell
    from gmacpam import from_marginals_correlation

    other = from_marginals_correlation(0.1, 0.1, 0.2)
    c = design_orthogonal(DesignInput(other, 1.0, 1.0, 0.0, 1.0))
    assert (a.a10, a.a11, a.a20, a.a21) == (c.a10, c.a11, c.a20, c.a21)


# ---------------------------------------------------------------------------
# collinear joint design
# ---------------------------------------------------------------------------


def test_collinear_case1_frozen(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S18)
    res = design_collinear(inp)
    assert (res.a10, res.a11) == pytest.approx((-3.0, 1.0 / 3.0), rel=1e-12)
    assert (res.a20, res.a21) == pytest.approx(T2_S2, rel=1e-12)
    assert res.branch == "minus" and not res.swapped
    cc = res.combined(inp)
    assert exact_error(cc, S18).p_err_exact == pytest.approx(T2_PE, rel=1e-12)
    # published values, quoted to three decimals
    assert res.a20 == pytest.approx(-2.421, abs=1e-3)
    assert res.a21 == pytest.approx(-0.678, abs=1e-3)


def test_collinear_case2_frozen(case2):
    inp = DesignInput(case2, 1.0, 1.0, 1.0, S18)
    res = design_collinear(inp)
    assert (res.a10, res.a11) == pytest.approx((-2.0, 0.5), rel=1e-12)
    assert (res.a20, res.a21) == pytest.approx(T3_S2, rel=1e-12)
    assert res.a20 == pytest.approx(-1.408, abs=1e-3)
    assert res.a21 == pytest.approx(-0.131, abs=1e-3)
    cc = res.combined(inp)
    assert exact_error(cc, S18).p_err_exact == pytest.approx(T3_PE, rel=1e-12)


def test_collinear_requires_unit_gamma(case1):
    with pytest.raises(WrongGammaPhi):
        design_collinear(DesignInput(case1, 1.0, 1.0, 0.5, 0.1))


def test_collinear_negative_gamma_same_error(case1):
    pos = DesignInput(case1, 1.0, 1.0, 1.0, S18)
    neg = DesignInput(case1, 1.0, 1.0, -1.0, S18)
    pe_pos = exact_error(design_collinear(pos).combined(pos), S18).p_err_exact
    pe_neg = exact_error(design_collinear(neg).combined(neg), S18).p_err_exact
    assert pe_neg == pytest.approx(pe_pos, rel=1e-12)


def test_collinear_swaps_roles(case2):
    # sender 2 can afford the wider separation here: d_max 4 vs 2.5
    inp = DesignInput(case2, 1.0, 4.0, 1.0, S18)
    res = design_collinear(inp)
    assert res.swapped
    assert abs(res.a21 - res.a20) == pytest.approx(4.0, rel=1e-12)
    assert abs(res.a11 - res.a10) < 2.5
    c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, 1.0)
    assert check_energy(c1, case2.p1, 1.0)
    assert check_energy(c2, case2.p2, 4.0)


def test_collinear_boundary_branch_at_low_snr(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, 1.0)
    res = design_collinear(inp)
    assert res.branch == "boundary"
    assert abs(res.a21 - res.a20) == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_collinear_noise_free_limit(case1):
    # the optimal second separation approaches half the first as noise -> 0
    inp = DesignInput(case1, 1.0, 1.0, 1.0, 1e-8)
    res = design_collinear(inp)
    assert abs(res.a21 - res.a20) == pytest.approx(0.5 * 10.0 / 3.0, rel=1e-5)


def test_collinear_energy_and_dominance(case1, case2):
    """Designed pairs always sit on their energy shells and never lose to
    the individually optimized reference at the design noise level."""
    for pri in (case1, case2):
        for s2 in (S18, 10.0**-1.2):
            inp = DesignInput(pri, 1.0, 1.0, 1.0, s2)
            res = design_collinear(inp)
            c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, 1.0)
            assert check_energy(c1, pri.p1, 1.0)
            assert check_energy(c2, pri.p2, 1.0)
            ref = individually_optimized(inp)
            pe_joint = exact_error(res.combined(inp), s2).p_err_exact
            pe_ref = exact_error(ref.combined(inp), s2).p_err_exact
            assert pe_joint <= pe_ref * (1.0 + 1e-12)


def test_collinear_root_twin_ties(case2):
    """Both energy-shell roots for the chosen separation give the same error."""
    inp = DesignInput(case2, 1.0, 1.0, 1.0, S18)
    res = design_collinear(inp)
    twin = sender2_twin(res.a20, res.a21, case2.p2)
    cc_a = build_cc(res.a10, res.a11, res.a20, res.a21, 1.0, case2)
    cc_b = build_cc(res.a10, res.a11, *twin, 1.0, case2)
    pe_a = exact_error(cc_a, S18).p_err_exact
    pe_b = exact_error(cc_b, S18).p_err_exact
    assert pe_b == pytest.approx(pe_a, rel=1e-12)


@pytest.mark.parametrize("which,gamma_phi,sigma2", [
    ("case1", 1.0, 10.0**-0.8),
    ("case2", 0.924, 10.0**-1.0),
])
def test_joint_design_takes_negative_root(request, which, gamma_phi, sigma2):
    """Below the weaker sender's d_max the joint designers take the negative
    shell root; the positive root, its translation twin, has the same error."""
    pri = request.getfixturevalue(which)
    inp = DesignInput(pri, 1.0, 1.0, gamma_phi, sigma2)
    res = design("joint", inp)
    assert res.branch == "minus" and not res.swapped
    c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, gamma_phi)
    assert check_energy(c1, pri.p1, 1.0)
    assert check_energy(c2, pri.p2, 1.0)
    # the negative root puts the bit-1 amplitude below d * p2
    assert res.a21 < (res.a21 - res.a20) * pri.p2
    twin = sender2_twin(res.a20, res.a21, pri.p2)
    pe = exact_error(res.combined(inp), sigma2).p_err_exact
    pe_twin = exact_error(build_cc(res.a10, res.a11, *twin, gamma_phi, pri), sigma2).p_err_exact
    assert pe_twin == pytest.approx(pe, rel=1e-12)


def test_opposed_orientation_never_helps(case1, case2):
    """Flipping sender 2 against sender 1 cannot beat the aligned layout."""
    for pri in (case1, case2):
        d1m = d_max(pri.p1, 1.0)
        d2m = d_max(pri.p2, 1.0)
        for s2 in (S18, 0.1):
            grid = np.linspace(0.05, d2m, 60)
            best_aligned = min(
                exact_error_collinear(collinear_cc(d1m, d, pri), s2).p_err_exact
                for d in grid
            )
            best_opposed = min(
                exact_error_collinear(collinear_cc(d1m, -d, pri), s2).p_err_exact
                for d in grid
            )
            assert best_aligned <= best_opposed + 1e-15


# ---------------------------------------------------------------------------
# general (planar) joint design
# ---------------------------------------------------------------------------


def test_general_frozen_point(case1):
    inp = DesignInput(case1, 1.0, 1.0, 0.924, S18)
    res = design_general(inp)
    assert (res.a10, res.a11) == pytest.approx((-3.0, 1.0 / 3.0), rel=1e-12)
    assert (res.a20, res.a21) == pytest.approx(G924_S2, rel=1e-12)
    rep = exact_error(res.combined(inp), S18)
    assert rep.method == "planar"
    assert rep.p_err_exact == pytest.approx(G924_PE, rel=1e-12)


def test_general_rejects_unit_gamma(case1):
    with pytest.raises(WrongGammaPhi):
        design_general(DesignInput(case1, 1.0, 1.0, 1.0, 0.1))


def test_general_mirrored_gamma_same_error(case1):
    pos = DesignInput(case1, 1.0, 1.0, 0.924, S18)
    neg = DesignInput(case1, 1.0, 1.0, -0.924, S18)
    pe_pos = exact_error(design_general(pos).combined(pos), S18).p_err_exact
    pe_neg = exact_error(design_general(neg).combined(neg), S18).p_err_exact
    assert pe_neg == pytest.approx(pe_pos, rel=1e-10)


def test_general_beats_references(case1):
    s2 = 10.0 ** (-1.6)
    inp = DesignInput(case1, 1.0, 1.0, 0.924, s2)
    pe_joint = exact_error(design_general(inp).combined(inp), s2).p_err_exact
    pe_anti = exact_error(antipodal(inp).combined(inp), s2).p_err_exact
    pe_ind = exact_error(
        individually_optimized(inp).combined(inp), s2
    ).p_err_exact
    assert pe_joint < pe_anti
    assert pe_joint < pe_ind


def test_general_energy_invariants(case2):
    for g in (0.3, 0.6, 0.924):
        for s2 in (S18, 0.05):
            inp = DesignInput(case2, 1.0, 1.0, g, s2)
            res = design_general(inp)
            c1, c2 = from_amplitudes(res.a10, res.a11, res.a20, res.a21, g)
            assert check_energy(c1, case2.p1, 1.0)
            assert check_energy(c2, case2.p2, 1.0)


# ---------------------------------------------------------------------------
# numerical search
# ---------------------------------------------------------------------------


def test_search_matches_published_point(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S18)
    res = numerical_search(inp, grid=120)
    s2pair = (res.a20, res.a21)
    twin = sender2_twin(res.a20, res.a21, case1.p2)
    best = min(
        (s2pair, twin), key=lambda t: abs(t[0] + 2.401) + abs(t[1] + 0.686)
    )
    assert best[0] == pytest.approx(-2.401, abs=2e-2)
    assert best[1] == pytest.approx(-0.686, abs=2e-2)


def test_search_never_loses_to_closed_form(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S18)
    res = numerical_search(inp, grid=120)
    closed = design_collinear(inp)
    pe_closed = exact_error(closed.combined(inp), S18).p_err_exact
    assert res.p_err <= pe_closed * (1.0 + 1e-9)
    # the reported error is the exact error of the reported amplitudes
    cc = res.combined(inp)
    assert exact_error(cc, S18).p_err_exact == pytest.approx(res.p_err, rel=1e-9)


def test_search_deterministic(case2):
    inp = DesignInput(case2, 1.0, 1.0, 0.5, 0.05)
    a = numerical_search(inp, grid=60)
    b = numerical_search(inp, grid=60)
    assert (a.a10, a.a11, a.a20, a.a21, a.p_err) == (
        b.a10,
        b.a11,
        b.a20,
        b.a21,
        b.p_err,
    )


def test_search_planar_close_to_designer(case1):
    s2 = 10.0 ** (-1.2)
    inp = DesignInput(case1, 1.0, 1.0, 0.924, s2)
    res = numerical_search(inp, grid=60)
    pe_design = exact_error(design_general(inp).combined(inp), s2).p_err_exact
    assert res.p_err <= pe_design * 1.05


def _brute_scores(inp, grid):
    """Every candidate of numerical_search's grid (no refinement) with its
    scalar exact_error; degenerate candidates are skipped."""
    from gmacpam.errors import DegenerateConstellation, NonBijective

    pr = inp.priors
    g1 = np.linspace(-math.sqrt(inp.e1 / pr.p1), math.sqrt(inp.e1 / pr.p1), grid)
    g2 = np.linspace(-math.sqrt(inp.e2 / pr.p2), math.sqrt(inp.e2 / pr.p2), grid)
    scores = []
    for sgn1, sgn2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        b1 = sgn1 * np.sqrt(np.maximum(inp.e1 - pr.p1 * g1 * g1, 0.0) / (1.0 - pr.p1))
        b2 = sgn2 * np.sqrt(np.maximum(inp.e2 - pr.p2 * g2 * g2, 0.0) / (1.0 - pr.p2))
        for i in range(grid):
            for j in range(grid):
                cand = (g1[i], b1[i], g2[j], b2[j])
                try:
                    cc = combine(*from_amplitudes(*cand, inp.gamma_phi), pr)
                    scores.append((exact_error(cc, inp.sigma2).p_err_exact, cand))
                except (DegenerateConstellation, NonBijective):
                    continue
    return scores


@pytest.mark.parametrize("gamma_phi, sigma2", [(0.383, 0.05), (0.924, 10.0**-1.2)])
def test_search_planar_matches_scalar_loop(case2, gamma_phi, sigma2):
    inp = DesignInput(case2, 1.0, 1.0, gamma_phi, sigma2)
    res = numerical_search(inp, grid=12, refine=False)
    scores = _brute_scores(inp, 12)
    best = min(pe for pe, _ in scores)
    # negating all four amplitudes mirrors the constellation through the
    # origin, so each grid optimum has a twin in the opposite sign branch
    # whose error differs only by rounding
    ties = [cand for pe, cand in scores if pe <= best * (1.0 + 1e-12)]
    assert len(ties) <= 2
    assert (res.a10, res.a11, res.a20, res.a21) in ties
    assert res.p_err == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_design_dispatch(case1):
    inp0 = DesignInput(case1, 1.0, 1.0, 0.0, 0.1)
    assert design("joint", inp0).branch == "orthogonal"
    inp1 = DesignInput(case1, 1.0, 1.0, 1.0, 0.1)
    assert design("joint", inp1).branch in ("minus", "boundary")
    inpg = DesignInput(case1, 1.0, 1.0, 0.5, 0.1)
    assert design("joint", inpg).branch in ("minus", "boundary")
    assert design("antipodal", inp1).branch == "antipodal"
    assert design("individual", inp1).branch == "individual"
    assert design("numerical", inp1, grid=24).p_err is not None
    with pytest.raises(ConfigError):
        design("matched", inp1)


def test_design_input_validation(case1):
    with pytest.raises(ValueError):
        DesignInput(case1, 0.0, 1.0, 0.5, 0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energies"):
            DesignInput(case1, bad, 1.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="energies"):
            DesignInput(case1, 1.0, bad, 0.5, 0.1)
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match="gamma_phi"):
            DesignInput(case1, 1.0, 1.0, bad, 0.1)
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2"):
            DesignInput(case1, 1.0, 1.0, 0.5, bad)

"""Constellation designers: closed-form optima and the grid search."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    from_joint,
    from_marginals_correlation,
    individually_optimized,
    max_separation,
    numerical_search,
)
from gmacpam import _kernels
from gmacpam.config import convert_snr
from gmacpam.design import (
    _SCAN, _first_best, _loop_scorer, _on_shell, _separations, _signed_root_pair,
)
from gmacpam.errors import ConfigError, GmacpamError, InfeasibleRoot, WrongGammaPhi
from gmacpam.geometry import check_energy, coincidence_tol, combine, from_amplitudes

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


def test_d_max_finite_for_every_finite_energy(uniform):
    """d_max keeps its bits where e / (p (1 - p)) is finite and stays finite
    past it, so the joint design keeps its branch across the energies where
    that quotient overflows (it turned "boundary", with a01 = a10, at
    5e307), and the search refuses a loop whose span D1 + D2 squares past
    the float range, as exact_error refuses such a design."""
    for p in (0.5, 0.1, 1e-3):
        for e in (1.0, 1e300, 4e307, 5e307, 1.7976931348623157e308):
            q = e / (p * (1.0 - p))
            want = math.sqrt(q) if math.isfinite(q) else math.sqrt(e) / math.sqrt(p * (1.0 - p))
            assert d_max(p, e) == want and math.isfinite(want), (p, e)
    for e in (4e307, 5e307):
        inp = DesignInput(uniform, e, e, 1.0, 0.1)
        res = design("joint", inp)
        assert res.branch == "minus" and len(set(res.combined(inp).points)) == 4, e
        with pytest.raises(OverflowError, match="loop span .* squares past the float range"):
            numerical_search(inp)


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


@pytest.mark.parametrize("p, e, d", [
    (0.5716157159443656, 3.8924634141714898, 3.986974191772395),
    (0.7564563570066161, 0.6730436368250756, 1.9113546341562657),
    (0.18141355851729696, 0.494708162850648, 1.82518711234115),
])
def test_signed_root_pair_just_below_d_max(p, e, d):
    # separations a few ulp below d_max whose discriminant rounds below 0
    assert d < d_max(p, e)
    assert d * d * p * (p - 1.0) + e < 0.0
    s0, s1 = _signed_root_pair(d, p, e)
    assert s1 - s0 == pytest.approx(d, rel=1e-15)
    assert p * s0 * s0 + (1 - p) * s1 * s1 == pytest.approx(e, rel=1e-12)
    assert (s0, s1) == pytest.approx(max_separation(p, e), rel=1e-7)


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


def test_collinear_anti_diagonal_branch_mirrors_relabelled_source(case1, case2):
    """Relabelling sender 2's bits swaps the diagonal and anti-diagonal
    masses and mirrors the design's separation, so each source and its
    relabelling, one on either side of s_diag >= s_anti, design to the same
    exact error (6.2e-14 relative at most measured over these 216 points)."""
    sources = (case1, case2, from_joint(0.55, 0.05, 0.15, 0.25),
               from_marginals_correlation(0.3, 0.6, -0.3))
    for pri in sources:
        rel = from_joint(pri.p01, pri.p00, pri.p11, pri.p10)
        assert (pri.p00 + pri.p11 < pri.p01 + pri.p10) != (rel.p00 + rel.p11 < rel.p01 + rel.p10)
        for gamma_phi in (1.0, -1.0):
            for e1, e2 in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
                for snr_db in range(-10, 31, 5):
                    s2 = convert_snr(snr_db, "sum-energy", e1, e2, gamma_phi)
                    a, b = (DesignInput(q, e1, e2, gamma_phi, s2) for q in (pri, rel))
                    pe_a = exact_error(design_collinear(a).combined(a), s2).p_err_exact
                    pe_b = exact_error(design_collinear(b).combined(b), s2).p_err_exact
                    assert pe_b == pytest.approx(pe_a, rel=2e-13, abs=0.0), (pri, snr_db)


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
    assert pe_neg == pytest.approx(pe_pos, rel=1e-10, abs=0.0)


def test_general_rule_mirror_symmetric_in_gamma(case1, case2, uniform):
    """gamma_phi -> -gamma_phi with sender 2 negated mirrors the combined
    constellation across the real axis, so the joint rule's error is even
    in gamma_phi."""
    skewed = from_joint(0.55, 0.05, 0.15, 0.25)
    for pri in (case1, case2, uniform, skewed):
        for e1, e2 in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0)):
            for g in (0.1, 0.3, 0.383, 0.5, 0.707, 0.924, 0.99):
                for snr_db in range(0, 31, 3):
                    s2 = convert_snr(snr_db, "sum-energy", e1, e2, g)
                    pe = []
                    for gamma_phi in (g, -g):
                        inp = DesignInput(pri, e1, e2, gamma_phi, s2)
                        pe.append(exact_error(design_general(inp).combined(inp), s2).p_err_exact)
                    # measured at most 1.54e-13 over these 924 pairs
                    assert pe[1] == pytest.approx(pe[0], rel=2e-13, abs=0.0)


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


def test_search_rejects_grid_below_two(case2):
    with pytest.raises(ValueError, match="grid must be at least 2"):
        numerical_search(DesignInput(case2, 1.0, 1.0, 0.5, 0.05), grid=1)


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


def test_search_deterministic_where_scores_underflow(case2):
    # at 40 dB every candidate near the optimum scores 0.0, so every point
    # of that plateau is a local minimum; the starts are still ordered by
    # score and grid order, so the pick stays fixed
    inp = DesignInput(case2, 1.0, 1.0, 1.0, convert_snr(40.0, "sum-energy", 1.0, 1.0, 1.0))
    a = numerical_search(inp, grid=400)
    b = numerical_search(inp, grid=400)
    assert a == b
    assert a.p_err == 0.0
    c1, c2 = from_amplitudes(a.a10, a.a11, a.a20, a.a21, 1.0)
    assert check_energy(c1, case2.p1, 1.0)
    assert check_energy(c2, case2.p2, 1.0)


def test_search_planar_close_to_designer(case1):
    s2 = 10.0 ** (-1.2)
    inp = DesignInput(case1, 1.0, 1.0, 0.924, s2)
    res = numerical_search(inp, grid=60)
    pe_design = exact_error(design_general(inp).combined(inp), s2).p_err_exact
    assert res.p_err <= pe_design * 1.05


def _placed(inp, d1, d2):
    """Both senders' amplitudes at separations (d1, d2), as the search
    reports them."""
    return (*_on_shell(d1, inp.priors.p1, inp.e1), *_on_shell(d2, inp.priors.p2, inp.e2))


def _assert_on_shells(res, pri):
    """Each sender sits where _on_shell puts its separation: on its unit
    energy shell at the negative root, where its mean amplitude is <= 0
    (0 on the energy boundary)."""
    for s0, s1, p in ((res.a10, res.a11, pri.p1), (res.a20, res.a21, pri.p2)):
        assert p * s0 * s0 + (1 - p) * s1 * s1 == pytest.approx(1.0, rel=1e-12)
        assert p * s0 + (1 - p) * s1 <= 1e-12


@pytest.fixture
def kernel_calls(monkeypatch):
    """(d1, d2, scores) of every call of the two batch kernels, in call order."""
    from gmacpam import _kernels

    calls = []
    for attr in ("collinear_pe_batch", "planar_pe_batch"):
        def counted(d1, d2, priors, sigma2, kernel=getattr(_kernels, attr)):
            calls.append((d1, d2, kernel(d1, d2, priors, sigma2)))
            return calls[-1][2]

        monkeypatch.setattr(_kernels, attr, counted)
    return calls


def _assert_scan_matches_scalar_loop(inp, twin):
    """The search's scan against a scalar loop over its points.

    The scan holds both corners exactly and scores every point but the two
    edge midpoints, whose zero separation is no design. Each scored point's
    batch score equals the scalar exact_error of its design, and the scan's
    lead, its first best point in loop order, is a scalar argmin: the only
    one, or for a source with a sender-swap twin (twin=True) one of the
    argmins or their swap images, which sit at 4 _SCAN - n on the loop.
    The refined search is never worse than the lead.
    """
    pr = inp.priors
    corner = (d_max(pr.p1, inp.e1), d_max(pr.p2, inp.e2))
    n = np.arange(4 * _SCAN)
    d1, d2 = _separations(n, _SCAN, corner)
    batch = _loop_scorer(inp, corner)(n, _SCAN)
    assert (d1[0], d2[0]) == (corner[0], -corner[1])
    assert (d1[2 * _SCAN], d2[2 * _SCAN]) == corner
    assert np.isinf(batch[[_SCAN, 3 * _SCAN]]).all()
    scores = {}
    for k in np.flatnonzero(np.isfinite(batch)):
        cc = combine(*from_amplitudes(*_placed(inp, d1[k], d2[k]), inp.gamma_phi), pr)
        scores[k] = exact_error(cc, inp.sigma2).p_err_exact
        assert batch[k] == pytest.approx(scores[k], rel=1e-12, abs=0.0), k
    assert len(scores) == 4 * _SCAN - 2
    best = min(scores.values())
    ties = [k for k, pe in scores.items() if pe <= best * (1.0 + 1e-12)]
    assert len(ties) <= (2 if twin else 1)
    if twin:
        ties += [(4 * _SCAN - k) % (4 * _SCAN) for k in ties]
    lead = _first_best(batch)
    assert lead in ties
    assert numerical_search(inp, grid=12).p_err <= batch[lead]


@pytest.mark.parametrize("gamma_phi, sigma2", [(0.383, 0.05), (0.924, 10.0**-1.2)])
def test_search_planar_matches_scalar_loop(case2, gamma_phi, sigma2):
    # case2 has no swap twin
    _assert_scan_matches_scalar_loop(DesignInput(case2, 1.0, 1.0, gamma_phi, sigma2), twin=False)


@pytest.mark.parametrize("gamma_phi, sigma2", [(1.0, S18), (-1.0, 0.05), (1.0, 0.5)])
def test_search_collinear_matches_scalar_loop(case1, case2, gamma_phi, sigma2):
    for pri in (case1, case2):
        _assert_scan_matches_scalar_loop(DesignInput(pri, 1.0, 1.0, gamma_phi, sigma2),
                                         twin=pri is case1)


@pytest.mark.parametrize("gamma_phi", [1.0, 0.707])
def test_search_admits_merged_designs_not_zero_separations(case1, gamma_phi, kernel_calls):
    """One admissibility rule in both geometries: the loop never sends a
    zero separation, which is no design; every other point is scored as
    exact_error scores its design, on the line including a merged design
    (here the corners, d1 = +-d2), whose shared point the decoder gives by
    prior."""
    dm = d_max(case1.p1, 1.0)
    inp = DesignInput(case1, 1.0, 1.0, gamma_phi, 2.0)
    # two points per half-edge: the corners, the midpoints and between them
    n = np.arange(8)
    d1, d2 = _separations(n, 2, (dm, dm))
    assert list(zip(d1, d2)) == [(dm, -dm), (dm, -dm / 2), (dm, 0.0), (dm, dm / 2), (dm, dm),
                                 (dm / 2, dm), (0.0, 0.0), (dm / 2, -dm)]
    pe = _loop_scorer(inp, (dm, dm))(n, 2)
    ((sent, _, _),) = kernel_calls
    assert len(sent) == 6 and np.isinf(pe[[2, 6]]).all()
    for k in (0, 1, 3, 4, 5, 7):
        cc = combine(*from_amplitudes(*_placed(inp, d1[k], d2[k]), gamma_phi), case1)
        rep = exact_error(cc, inp.sigma2)
        assert rep.bijective is not (gamma_phi == 1.0 and abs(d1[k]) == abs(d2[k])), k
        assert pe[k] == pytest.approx(rep.p_err_exact, rel=1e-12, abs=0.0), k


def test_search_loop_drops_what_the_coincidence_rule_calls_zero(kernel_calls):
    """Deep refinement rounds put loop points a few 1e-11 of a half-edge
    from the edge midpoints, where a separation is zero. The loop drops
    every point the coincidence rule calls zero, so the search never sends
    the planar kernel a row it scores +inf as non-bijective."""
    inp = DesignInput(from_marginals_correlation(0.2, 0.05, 0.0), 1.0, 0.5, 0.707, 0.1)
    dmax = (d_max(0.2, 1.0), d_max(0.05, 0.5))
    size = _SCAN * 10**9
    # 1 and 100 points from each midpoint: 2.5e-11 and 2.5e-9 of a half-edge
    n = size + np.array([-100, -1, 1, 100]) + np.array([[0], [2 * size]])
    d1, d2 = _separations(n.ravel(), size, dmax)
    zero = (np.abs(d1) <= coincidence_tol(dmax[0])) | (np.abs(d2) <= coincidence_tol(dmax[1]))
    assert zero.tolist() == [False, True, True, False] * 2
    assert np.isinf(_loop_scorer(inp, dmax)(n.ravel(), size)).tolist() == zero.tolist()
    kernel_calls.clear()
    res = numerical_search(inp, grid=23)
    assert kernel_calls and all(np.isfinite(pe).all() for *_, pe in kernel_calls)
    assert res.p_err == pytest.approx(exact_error(res.combined(inp), 0.1).p_err_exact,
                                      rel=1e-12)


def test_search_returns_merged_optimum_at_low_snr(case1):
    # case-1 at gamma_phi 1, 0 dB sum-energy: the optimum is the individual
    # design d1 = d2 = d_max, where a01 = a10; the bijective neighbour at
    # d2 - 1e-6 is 1.9e-7 relative worse, so excluding merged designs would
    # only return a grid neighbour of the optimum
    s2 = convert_snr(0.0, "sum-energy", 1.0, 1.0, 1.0)
    inp = DesignInput(case1, 1.0, 1.0, 1.0, s2)
    res = numerical_search(inp)
    dm = d_max(case1.p1, 1.0)
    assert (res.a10, res.a11, res.a20, res.a21) == _placed(inp, dm, dm)
    rep = exact_error(res.combined(inp), s2)
    assert not rep.bijective
    assert res.p_err == pytest.approx(rep.p_err_exact, rel=1e-12, abs=0.0)
    near = combine(*from_amplitudes(*_placed(inp, dm, dm - 1e-6), 1.0), case1)
    pe_near = exact_error(near, s2)
    assert pe_near.bijective
    assert pe_near.p_err_exact > rep.p_err_exact * (1.0 + 1e-7)


@pytest.mark.parametrize("gamma_phi", [1.0, -1.0, 0.924, 0.383, 0.0])
def test_error_depends_on_separations_alone(case1, case2, gamma_phi):
    """The premise of the search: either shell root of each sender, and
    the translate {0, d2 u2, d1, d1 + d2 u2}, give the same exact error."""
    rng = np.random.default_rng(1707)
    for pri in (case1, case2):
        for _ in range(20):
            d1 = rng.uniform(0.05, 1.0) * d_max(pri.p1, 1.0)
            d2 = rng.uniform(-1.0, 1.0) * d_max(pri.p2, 1.0)
            s2 = 10.0 ** rng.uniform(-2.0, 0.0)
            first = _on_shell(d1, pri.p1, 1.0)
            second = _on_shell(d2, pri.p2, 1.0)
            pe = exact_error(build_cc(0.0, d1, 0.0, d2, gamma_phi, pri), s2).p_err_exact
            for a in (first, sender2_twin(*first, pri.p1)):
                for b in (second, sender2_twin(*second, pri.p2)):
                    cc = build_cc(*a, *b, gamma_phi, pri)
                    # measured at most 1.3e-14 over 400 such draws
                    assert exact_error(cc, s2).p_err_exact == pytest.approx(pe, rel=1e-13)


@pytest.mark.parametrize("which, gamma_phi", [
    ("case1", 1.0), ("case2", -1.0), ("case1", 0.924), ("case2", 0.707), ("uniform", 0.383),
    ("case2", 0.0)])
def test_search_reports_the_error_of_its_design(request, which, gamma_phi):
    """The batch score of the searched translate is the scalar exact error
    of the design placed on the shells."""
    pri = request.getfixturevalue(which)
    for snr_db in (0.0, 12.0, 24.0):
        s2 = convert_snr(snr_db, "sum-energy", 1.0, 2.0, gamma_phi)
        inp = DesignInput(pri, 1.0, 2.0, gamma_phi, s2)
        for grid in (10, 60):
            res = numerical_search(inp, grid=grid)
            assert exact_error(res.combined(inp), s2).p_err_exact == pytest.approx(
                res.p_err, rel=1e-12), (snr_db, grid)


@pytest.mark.parametrize("gamma_phi", [1.0, -1.0, 0.707, 0.0])
def test_search_never_returns_a_zero_separation(case1, case2, uniform, gamma_phi):
    """Down to -60 dB, where scores barely depend on the design, every
    search returns a design whose senders both have two distinct points;
    a zero separation is never on a search axis, so the collinear kernel's
    finite value for it never wins."""
    for pri in (case1, case2, uniform):
        for snr_db in (-60.0, -40.0, -20.0, -10.0, 0.0):
            s2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
            inp = DesignInput(pri, 1.0, 1.0, gamma_phi, s2)
            for grid in (2, 3, 11, 40, 400):
                res = numerical_search(inp, grid=grid)
                res.combined(inp)
                assert res.a10 != res.a11 and res.a20 != res.a21


# FROZEN p_err of the exhaustive grid-400 search (every grid point scored,
# then one 21 x 21 refinement), unit energies, 0/6/12/18 dB sum-energy
GRID400_PE = {
    ("case1", 1.0): (0.02278184929460436, 0.01015617014970166, 0.0010044490683880796,
                     1.732983670947027e-07),
    ("case1", 0.924): (0.013985037248848899, 0.0018903166270181943, 1.4662940379411215e-05,
                       3.873217969409351e-14),
    ("case1", 0.707): (0.01321247610911225, 0.00026436660707839155, 3.4180890806022447e-09,
                       3.4992442853902774e-26),
    ("case1", 0.383): (0.013429882148391699, 0.00017724920046550922, 7.313159495142996e-12,
                       1.2228734388765595e-40),
    ("case2", 1.0): (0.29288112964714186, 0.10012495792771522, 0.020987358429083735,
                     0.000158385685026254),
    ("case2", 0.924): (0.19293446077804025, 0.037440350529756625, 0.0018854514355944713,
                       2.390058068231123e-08),
    ("case2", 0.707): (0.1923104782405442, 0.027659402198580194, 5.983882017570637e-05,
                       1.1211837273281757e-13),
    ("case2", 0.383): (0.19220157081174793, 0.024613543177139173, 3.1080983097525825e-05,
                       8.884934691370112e-16),
}


@pytest.mark.parametrize("which, gamma_phi", sorted(GRID400_PE))
def test_search_matches_or_beats_exhaustive_grid(request, which, gamma_phi):
    """The coarse-to-fine search never loses to scoring all grid^2 points."""
    pri = request.getfixturevalue(which)
    for snr_db, recorded in zip((0.0, 6.0, 12.0, 18.0), GRID400_PE[which, gamma_phi]):
        s2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
        inp = DesignInput(pri, 1.0, 1.0, gamma_phi, s2)
        res = numerical_search(inp, grid=400)
        assert res.p_err <= recorded * (1.0 + 1e-9), snr_db
        assert exact_error(res.combined(inp), s2).p_err_exact == pytest.approx(
            res.p_err, rel=1e-9)


# FROZEN p_err of numerical_search before it searched the separations
# (each sender's bit-0 amplitude on its shell, in two sign branches for
# sender 2), unit energies, 0/6/12/18/24 dB sum-energy
SEARCH_SWEEP_PE = {
    ("case1", 1.0, 60): (
        0.02278184400212383, 0.010156167135395452, 0.0010044476270797574,
        1.7329217073053965e-07, 6.207404038116805e-22),
    ("case1", 1.0, 400): (
        0.02278184400212383, 0.010156167135395452, 0.001004447627022289,
        1.7329216909639165e-07, 6.207402706642927e-22),
    ("case1", -1.0, 60): (
        0.02278184400212383, 0.010156167135395452, 0.0010044476270797572,
        1.7329217073053928e-07, 6.207404038116777e-22),
    ("case1", -1.0, 400): (
        0.02278184400212383, 0.010156167135395452, 0.001004447627022289,
        1.7329216909639144e-07, 6.2074027066429515e-22),
    ("case1", 0.924, 60): (
        0.013985032198907663, 0.0018903156295965668, 1.4662839297425331e-05,
        3.873178644005423e-14, 1.2196878537269362e-47),
    ("case1", 0.924, 400): (
        0.013985032198907663, 0.0018903156295965668, 1.4662839295618498e-05,
        3.873178632620041e-14, 1.2196873680028727e-47),
    ("case1", 0.707, 60): (
        0.013212470119207367, 0.000264366138098237, 3.4180727279383995e-09,
        3.499179447657915e-26, 5.785211931786519e-93),
    ("case1", 0.707, 400): (
        0.013212470119207367, 0.000264366138098237, 3.4180727279383995e-09,
        3.499179447657915e-26, 5.785211931786519e-93),
    ("case1", 0.383, 60): (
        0.013429875338417583, 0.00017724883206049515, 7.313100821394697e-12,
        1.2228349275410937e-40, 2.177643885284963e-154),
    ("case1", 0.383, 400): (
        0.013429875338417583, 0.00017724883206049515, 7.313100821394697e-12,
        1.2228349275410937e-40, 2.177643885284963e-154),
    ("case1", 0.0, 60): (
        0.015924120612578987, 0.00017660750604765762, 7.311590214924584e-12,
        1.2228349274883091e-40, 2.1776438852849875e-154),
    ("case1", 0.0, 400): (
        0.015924120612578987, 0.00017660750604765762, 7.311590214924584e-12,
        1.2228349274883091e-40, 2.1776438852849875e-154),
    ("case1", -0.5, 60): (
        0.013238644252833384, 0.0001816745010581228, 7.603139177193389e-12,
        1.2699736026869874e-40, 2.2608288181686466e-154),
    ("case1", -0.5, 400): (
        0.013238644252833384, 0.0001816745010581228, 7.603139177193389e-12,
        1.2699736026869874e-40, 2.2608288181686466e-154),
    ("case2", 1.0, 60): (
        0.29288111540239753, 0.10012494728485276, 0.020987353164565462,
        0.0001583851259521072, 9.269003266517248e-13),
    ("case2", 1.0, 400): (
        0.2928811153813177, 0.10012494726991952, 0.02098735315594427,
        0.00015838512468099495, 9.26900246595661e-13),
    ("case2", -1.0, 60): (
        0.2928811154023976, 0.10012494728485276, 0.02098735316456546,
        0.00015838512595210759, 9.269003266517248e-13),
    ("case2", -1.0, 400): (
        0.29288111538131767, 0.10012494726991952, 0.020987353155944275,
        0.000158385124680995, 9.26900246595661e-13),
    ("case2", 0.924, 60): (
        0.19293444616405442, 0.037440344777286715, 0.0018854494234966765,
        2.3900306520386643e-08, 2.6094011609842495e-27),
    ("case2", 0.924, 400): (
        0.19293444614277908, 0.037440344769108506, 0.0018854494211562154,
        2.3900306032621516e-08, 2.6094003175333743e-27),
    ("case2", 0.707, 60): (
        0.1923104632785343, 0.02765939657788391, 5.983877476454735e-05,
        1.121179054940117e-13, 1.938281673187631e-46),
    ("case2", 0.707, 400): (
        0.19231046325671375, 0.02765939657020769, 5.9838774698321686e-05,
        1.1211790470497513e-13, 1.93828161927073e-46),
    ("case2", 0.383, 60): (
        0.1922015553974995, 0.024613538101406325, 3.1080969097970065e-05,
        8.8849198758081e-16, 6.459505407671745e-57),
    ("case2", 0.383, 400): (
        0.19220155537497877, 0.024613538094688553, 3.108096908487533e-05,
        8.884919862438917e-16, 6.459505369408393e-57),
    ("case2", 0.0, 60): (
        0.19655019592876755, 0.02444969302781972, 3.104945723770154e-05,
        8.884919869442372e-16, 6.45950540767181e-57),
    ("case2", 0.0, 400): (
        0.19655019590496237, 0.02444969302114678, 3.104945722469975e-05,
        8.884919856073168e-16, 6.459505369408473e-57),
    ("case2", -0.5, 60): (
        0.19199640649972166, 0.02505304633928948, 3.142787627851704e-05,
        8.88499120627489e-16, 6.459505407671646e-57),
    ("case2", -0.5, 400): (
        0.19199640647744903, 0.025053046332388113, 3.1427876264543926e-05,
        8.884991192904696e-16, 6.459505369408574e-57),
}


@pytest.mark.slow
@pytest.mark.parametrize("which, gamma_phi, grid", sorted(SEARCH_SWEEP_PE))
def test_search_sweep_matches_or_beats_frozen(request, which, gamma_phi, grid):
    """A recorded sweep that a search change can diff: each refined search
    matches or beats the frozen result to 1e-6 relative."""
    pri = request.getfixturevalue(which)
    recorded_pe = SEARCH_SWEEP_PE[which, gamma_phi, grid]
    for snr_db, recorded in zip((0.0, 6.0, 12.0, 18.0, 24.0), recorded_pe):
        s2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
        res = numerical_search(DesignInput(pri, 1.0, 1.0, gamma_phi, s2), grid=grid)
        assert res.p_err <= recorded * (1.0 + 1e-6), snr_db


@pytest.mark.parametrize("gamma_phi", [1.0, -1.0, 0.924])
@pytest.mark.parametrize("grid", [60, 400])
def test_search_folds_sender_swap_twin(case1, gamma_phi, grid):
    """For the swap-symmetric source the search reports the image where
    sender 1 has the wider, positive separation."""
    # the sum-energy 12 dB point at gamma_phi 0.924, grid 60 refines to the
    # image with sender 2 wider, so the fold is exercised
    for s2 in (S18, convert_snr(12.0, "sum-energy", 1.0, 1.0, gamma_phi)):
        inp = DesignInput(case1, 1.0, 1.0, gamma_phi, s2)
        res = numerical_search(inp, grid=grid)
        assert res.a11 - res.a10 >= abs(res.a21 - res.a20)
        _assert_on_shells(res, case1)
        pe = exact_error(res.combined(inp), s2).p_err_exact
        swap = build_cc(res.a20, res.a21, res.a10, res.a11, gamma_phi, case1)
        assert exact_error(swap, s2).p_err_exact == pytest.approx(pe, rel=1e-12)


@pytest.mark.parametrize("which, gamma_phi, snr_db", [
    ("case1", 1.0, None), ("case2", 1.0, None), ("case1", -1.0, 12.0), ("case2", 0.924, 12.0),
    ("case2", 0.707, 6.0)])
def test_search_reports_sender2_on_negative_root(request, which, gamma_phi, snr_db):
    """Each sender comes back where _on_shell puts its separation, sender
    2 as the joint designers place it; its translation twin has the same
    error."""
    pri = request.getfixturevalue(which)
    s2 = S18 if snr_db is None else convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
    inp = DesignInput(pri, 1.0, 1.0, gamma_phi, s2)
    res = numerical_search(inp, grid=400)
    _assert_on_shells(res, pri)
    pe = exact_error(res.combined(inp), s2).p_err_exact
    assert pe == pytest.approx(res.p_err, rel=1e-9)
    twin = build_cc(res.a10, res.a11, *sender2_twin(res.a20, res.a21, pri.p2), gamma_phi, pri)
    assert exact_error(twin, s2).p_err_exact == pytest.approx(pe, rel=1e-12)
    if which == "case1" and snr_db is None:
        # the table-2 search point, in the orientation of the paper's table
        assert (res.a20, res.a21) == pytest.approx((-2.401, -0.686), abs=2e-3)


@pytest.mark.parametrize("priors, sigma2, swapped, branch", [
    ((0.1, 0.1, 0.9), S18, False, "minus"), ((0.2, 0.5, 0.4), S18, False, "minus"),
    ((0.5, 0.2, 0.4), S18, True, "minus"), ((0.1, 0.1, 0.9), 2.0, False, "boundary")])
def test_search_reports_designer_labels(priors, sigma2, swapped, branch):
    """The table2 and table3 inputs, table3's source with the senders
    exchanged, and the merged case-1 optimum at 0 dB sum-energy: sender 2
    alone holds its d_max when `swapped`, sender 1 otherwise, and `branch`
    is "boundary" when both do."""
    pri = from_marginals_correlation(*priors)
    res = numerical_search(DesignInput(pri, 1.0, 1.0, 1.0, sigma2), grid=400)
    at_max = [abs(a1 - a0) >= d_max(p, 1.0) * (1.0 - 1e-12)
              for a0, a1, p in ((res.a10, res.a11, pri.p1), (res.a20, res.a21, pri.p2))]
    assert (res.swapped, res.branch) == (swapped, branch)
    assert at_max == ([True, True] if branch == "boundary" else [not swapped, swapped])


def test_search_grid_60_reaches_grid_400_at_high_snr(case1):
    """At 30 dB a grid-60 search refines past grid's own resolution and
    comes within 1e-6 of grid 400; when its last refinement window bounded
    it, it was 5.1e-5 worse."""
    s2 = convert_snr(30.0, "sum-energy", 2.0, 1.0, 0.924)
    inp = DesignInput(case1, 2.0, 1.0, 0.924, s2)
    fine = numerical_search(inp, grid=400).p_err
    assert numerical_search(inp, grid=60).p_err == pytest.approx(fine, rel=1e-6)


@pytest.mark.parametrize("gamma_phi", [1.0, 0.707])
@pytest.mark.parametrize("sigma2", [1e308, 1.7e308])
def test_search_quiet_at_huge_noise(case1, case2, gamma_phi, sigma2):
    """Past sigma2 ~ 1e308 the prior terms of the batch kernels overflow to
    +-inf, as on the scalar path: no warning, and the search reports the
    scalar exact error of its design."""
    for pri in (case1, case2):
        inp = DesignInput(pri, 1.0, 1.0, gamma_phi, sigma2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = numerical_search(inp, grid=60)
        want = exact_error(res.combined(inp), sigma2).p_err_exact
        assert res.p_err == pytest.approx(want, rel=1e-12, abs=0.0)


def test_search_batches_stay_bounded(case2, kernel_calls):
    """At any grid a kernel call scores the scan (4 x 40 points, less the two
    edge midpoints) or one round's windows, at most 4 x 21 rows. One round
    follows the scan up to grid 40; past it the rounds grow as log(grid),
    and stop at 14."""
    inp = DesignInput(case2, 1.0, 1.0, 1.0, 0.05)
    for grid, rounds in ((10, 1), (40, 1), (41, 5), (400, 6), (10**6, 10), (10**30, 14)):
        kernel_calls.clear()
        res = numerical_search(inp, grid=grid)
        sizes = [len(d1) for d1, _, _ in kernel_calls]
        assert sizes[0] == 158
        assert len(sizes) == 1 + rounds
        assert max(sizes[1:]) <= 84
        assert res.p_err == pytest.approx(
            exact_error(res.combined(inp), 0.05).p_err_exact, rel=1e-9)


@pytest.mark.parametrize("which, gamma_phi", [("case1", 1.0), ("case2", 0.924)])
def test_search_rows_score_alone_as_in_their_batch(request, kernel_calls, which, gamma_phi):
    """Every row a grid-400 search sends (the fig4 and fig7 sources, 10 dB
    sum-energy) scores bit-identically alone, in its batch reversed and in
    its batch as sent: a row's score depends on that row alone, so the
    search may group its rows freely."""
    s2 = convert_snr(10.0, "sum-energy", 1.0, 1.0, gamma_phi)
    inp = DesignInput(request.getfixturevalue(which), 1.0, 1.0, gamma_phi, s2)
    numerical_search(inp, grid=400)
    sent = list(kernel_calls)
    priors = inp.priors.as_array()
    kernel = getattr(_kernels, "collinear_pe_batch" if gamma_phi == 1.0 else "planar_pe_batch")
    assert len(sent) == 7
    for d1, d2, pe in sent:
        finite = np.isfinite(pe)
        assert finite.any()
        alone = np.array([kernel(d1[k:k + 1], d2[k:k + 1], priors, s2)[0] for k in range(len(d1))])
        for got in (alone, kernel(d1[::-1], d2[::-1], priors, s2)[::-1],
                    kernel(d1, d2, priors, s2)):
            assert np.array_equal(got[finite], pe[finite])


# rows the search scores at 10 dB sum-energy: the scan's 158, then at most
# 4 windows of 21 a round, less each window's centre and ends, which the
# round before scored
LOOP_ROWS = {("case2", 0.0): 194, ("case2", 0.383): 194, ("case2", 0.707): 194,
             ("case2", 0.924): 212, ("case1", 1.0): 590, ("case2", 1.0): 590}


@pytest.mark.parametrize("which, gamma_phi, grid, grid_rows", [
    ("case2", 0.0, 10, 211), ("case2", 0.383, 10, 211), ("case2", 0.707, 10, 211),
    ("case2", 0.924, 10, 211), ("case1", 1.0, 400, 2715), ("case2", 1.0, 400, 2165)])
def test_search_scores_each_candidate_once(request, kernel_calls, which, gamma_phi, grid,
                                           grid_rows):
    """No search scores a row twice, within a kernel call or across its
    calls, nor a zero separation. The planar searches at grid 10 (the
    planar-sweep benchmark's) make two calls, and the fig4 / fig5 sources at
    grid 400 seven; grid_rows are the rows that the 2-D grid search of the
    separation rectangle scored there."""
    s2 = convert_snr(10.0, "sum-energy", 1.0, 1.0, gamma_phi)
    numerical_search(DesignInput(request.getfixturevalue(which), 1.0, 1.0, gamma_phi, s2),
                     grid=grid)
    d1 = np.concatenate([d1 for d1, _, _ in kernel_calls]).tolist()
    d2 = np.concatenate([d2 for _, d2, _ in kernel_calls]).tolist()
    assert len(set(zip(d1, d2))) == len(d1)
    assert 0.0 not in d1 and 0.0 not in d2
    assert len(kernel_calls) == (2 if grid == 10 else 7)
    assert len(d1) == LOOP_ROWS[which, gamma_phi]
    assert LOOP_ROWS[which, gamma_phi] <= (221 if grid == 10 else grid_rows / 3)


# sha256 of the repr of every (a10, a11, a20, a21, p_err, swapped, branch)
# over _search_digest_cases(tier), recorded when the batch kernels came to
# take each rival's magnitude as Python's abs of a complex takes it (hypot)
SEARCH_DIGEST_SHA256 = {
    "sparse": "e1cbb6e326721c063fd47d60ea8c4b9b1f34f5c9e40b0fe87a4d30950457be29",
    "dense": "84d48cc7d48f9e99431550e9ff910d95f1121ddaba55ca1ee79fc06e6886a071",
}


def _search_digest_cases(tier):
    """(source, gamma_phi, snr_db, grid) of the search digest, unit energies,
    sum-energy SNR. sparse: both sources, gamma_phi +-1 / 0.924 / 0.707 /
    0.383 / 0, 0-24 dB in 4 dB steps, grids 10 and 60, and grid 400 on the
    line. dense: the odd-numbered dB points from 1 to 23, gamma_phi -0.924 /
    -0.707 / -0.383 / -0.5 added, grids 10, 40 and 60 everywhere and 400 on
    the line and at gamma_phi 0.924."""
    if tier == "sparse":
        gammas, snrs = (1.0, -1.0, 0.924, 0.707, 0.383, 0.0), range(0, 25, 4)
    else:
        gammas = (1.0, -1.0, 0.924, -0.924, 0.707, -0.707, 0.383, -0.383, 0.0, -0.5)
        snrs = range(1, 24, 2)
    for which in ("case1", "case2"):
        for gamma_phi in gammas:
            grids = (10, 60) if tier == "sparse" else (10, 40, 60)
            if abs(gamma_phi) == 1.0 or (tier == "dense" and gamma_phi == 0.924):
                grids += (400,)
            for snr_db in snrs:
                for grid in grids:
                    yield which, gamma_phi, snr_db, grid


@pytest.mark.parametrize("tier", ["sparse", pytest.param("dense", marks=pytest.mark.slow)])
def test_search_results_frozen_digest(request, tier):
    """Every search result of the recorded sweep, bit for bit."""
    h = hashlib.sha256()
    for which, gamma_phi, snr_db, grid in _search_digest_cases(tier):
        s2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
        inp = DesignInput(request.getfixturevalue(which), 1.0, 1.0, gamma_phi, s2)
        res = numerical_search(inp, grid=grid)
        h.update(repr((res.a10, res.a11, res.a20, res.a21, res.p_err, res.swapped,
                       res.branch)).encode() + b"\n")
    assert h.hexdigest() == SEARCH_DIGEST_SHA256[tier]


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


def _decades(lo, hi):
    """Numbers from 10**lo to 10**hi, log-uniform."""
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(["antipodal", "individual", "joint"]),
       gamma_phi=st.sampled_from([1.0, -1.0, 0.707, 0.0, -0.383]),
       p1=st.floats(0.01, 0.5), p2=st.floats(0.01, 0.5), gamma_m=st.floats(-0.9, 0.9),
       e1=_decades(-300.0, 308.23), e2=_decades(-300.0, 308.23), sigma2=_decades(-300.0, 300.0))
def test_closed_form_designs_are_finite_and_on_their_energy(scheme, gamma_phi, p1, p2, gamma_m,
                                                            e1, e2, sigma2):
    """Over the float range of energies and noise, a closed-form design is
    four finite amplitudes on both senders' energies, or a package or
    arithmetic error: never an infinite or NaN amplitude."""
    try:
        pri = from_marginals_correlation(p1, p2, gamma_m)
    except GmacpamError:
        assume(False)
    inp = DesignInput(pri, e1, e2, gamma_phi, sigma2)
    try:
        res = design(scheme, inp)
        amps = (res.a10, res.a11, res.a20, res.a21)
        c1, c2 = from_amplitudes(*amps, gamma_phi)
        on_shell = check_energy(c1, pri.p1, e1) and check_energy(c2, pri.p2, e2)
    except (GmacpamError, ArithmeticError):
        return
    assert all(map(math.isfinite, amps)), amps
    assert on_shell, amps

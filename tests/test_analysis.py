"""Exact MAP error analysis: collinear and planar paths, bounds, asymptotics.

Reference values marked FROZEN were produced once by independent slow oracles
(brute-force quadrature over the decision map, scipy's bivariate normal CDF)
and are pinned here verbatim; the slow oracles themselves run below at
reduced resolution as a second line of defence.
"""

import math

import numpy as np
import pytest

from gmacpam import (
    DesignInput,
    closed_form_qam,
    collinear_sign_case,
    combine,
    design_collinear,
    design_general,
    exact_error,
    exact_error_collinear,
    exact_error_planar,
    from_amplitudes,
    from_joint,
    from_marginals_correlation,
    high_snr_correct_prob,
    high_snr_union_bound,
    is_collinear,
    pair_geometry,
    union_bound,
)
from gmacpam.analysis import (
    bvn_lower_orthant,
    collinear_decision_interval,
    collinear_pair_threshold,
    qfunc,
)
from gmacpam.errors import (
    CaseMismatch,
    CollinearInput,
    CorrelationAtUnity,
    NonBijective,
    NotCollinear,
)
from gmacpam.sources import BIT_PAIRS

from conftest import build_cc, collinear_cc

S18 = 10.0**-1.8

# FROZEN: jointly optimized amplitudes and exact error, Case-1 / Case-2
# sources, identical pulses, unit energies, sigma2 = 10^-1.8.
T2_AMPS = (-3.0000000000000004, 0.33333333333333326,
           -2.421145692566857, -0.6780735403712947)
T2_PE = 2.917504663892292e-12
T3_AMPS = (-2.000000000000001, 0.4999999999999997,
           -1.408152179522546, -0.1307954101102311)
T3_PE = 2.684676541251541e-07


def t2_cc(case1):
    return build_cc(*T2_AMPS, 1.0, case1)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------


def test_qfunc_values():
    assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qfunc(1.0) == pytest.approx(0.15865525393145707, abs=1e-15)  # FROZEN
    assert qfunc(-1.0) == pytest.approx(1.0 - 0.15865525393145707, abs=1e-15)
    assert qfunc(40.0) == 0.0  # underflow is exact zero, not garbage


# ---------------------------------------------------------------------------
# collinear thresholds
# ---------------------------------------------------------------------------


def hand_thresholds(d1, d2, priors, sigma2):
    """Independent re-derivation of the twelve interval bounds, valid for
    d1 > d2 > 0 (each rival's bound on Re[N], relative to the sent point)."""
    p00, p01, p10, p11 = priors.as_tuple()

    def tilt(pa, pb, d):
        return sigma2 * math.log(pa / pb) / d

    return {
        (1, 1): ("upper", d1 / 2 + tilt(p00, p10, d1)),
        (1, 2): ("upper", d2 / 2 + tilt(p00, p01, d2)),
        (1, 3): ("upper", (d1 + d2) / 2 + tilt(p00, p11, d1 + d2)),
        (2, 1): ("lower", -d1 / 2 - tilt(p10, p00, d1)),
        (2, 2): ("upper", d2 / 2 + tilt(p10, p11, d2)),
        (2, 3): ("lower", -(d1 - d2) / 2 - tilt(p10, p01, d1 - d2)),
        (3, 1): ("lower", -d2 / 2 - tilt(p01, p00, d2)),
        (3, 2): ("upper", d1 / 2 + tilt(p01, p11, d1)),
        (3, 3): ("upper", (d1 - d2) / 2 + tilt(p01, p10, d1 - d2)),
        (4, 1): ("lower", -d1 / 2 - tilt(p11, p01, d1)),
        (4, 2): ("lower", -d2 / 2 - tilt(p11, p10, d2)),
        (4, 3): ("lower", -(d1 + d2) / 2 - tilt(p11, p00, d1 + d2)),
    }


# row order of the q_ij table (transmitted pair), then rivals left to right
ROW_ORDER = [(0, 0), (1, 0), (0, 1), (1, 1)]
RIVAL_ORDER = {
    (0, 0): [(1, 0), (0, 1), (1, 1)],
    (1, 0): [(0, 0), (1, 1), (0, 1)],
    (0, 1): [(0, 0), (1, 1), (1, 0)],
    (1, 1): [(0, 1), (1, 0), (0, 0)],
}


def test_twelve_thresholds_match_hand_forms(case1):
    sigma2 = 10.0**-0.8
    cc = t2_cc(case1)
    d1 = T2_AMPS[1] - T2_AMPS[0]
    d2 = T2_AMPS[3] - T2_AMPS[2]
    assert collinear_sign_case(d1, d2) == 1
    hand = hand_thresholds(d1, d2, case1, sigma2)
    for i, uv in enumerate(ROW_ORDER, start=1):
        for j, lm in enumerate(RIVAL_ORDER[uv], start=1):
            kind, value = collinear_pair_threshold(cc, sigma2, uv, lm)
            hk, hv = hand[(i, j)]
            assert kind == hk, (i, j)
            assert value == pytest.approx(hv, abs=1e-12), (i, j)


def test_threshold_rejects_noncollinear(case1):
    cc = build_cc(-1.0, 1.0, -0.5, 0.5, 0.0, case1)
    with pytest.raises(NotCollinear):
        collinear_pair_threshold(cc, 1.0, (0, 0), (0, 1))


@pytest.mark.parametrize("sigma2", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_error_paths_reject_bad_sigma2(case1, sigma2):
    cc = t2_cc(case1)
    for fn in (exact_error, union_bound):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            fn(cc, sigma2)


def test_threshold_rejects_self(case1):
    cc = t2_cc(case1)
    with pytest.raises(ValueError):
        collinear_pair_threshold(cc, 1.0, (0, 0), (0, 0))


def test_decision_intervals_partition_line(case1):
    """The four live intervals tile the real line without overlap."""
    cc = t2_cc(case1)
    sigma2 = 10.0**-0.8
    segs = []
    for uv in BIT_PAIRS:
        lo, hi, alive = collinear_decision_interval(cc, sigma2, uv)
        if alive:
            segs.append((lo + cc.point(*uv).real, hi + cc.point(*uv).real))
    segs.sort()
    assert segs[0][0] == -math.inf and segs[-1][1] == math.inf
    for (_, h), (l, _) in zip(segs, segs[1:]):
        assert h == pytest.approx(l, abs=1e-9)


def test_dead_region_when_prior_loses(uniform):
    # coincident points: the lexicographically later pair loses its region
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform)
    _, _, alive01 = collinear_decision_interval(cc, 1.0, (0, 1))
    _, _, alive10 = collinear_decision_interval(cc, 1.0, (1, 0))
    assert alive01 and not alive10


# ---------------------------------------------------------------------------
# bivariate normal lower orthant
# ---------------------------------------------------------------------------


def test_bvn_independent():
    assert bvn_lower_orthant(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)


def test_bvn_arcsine_identity():
    # P(X<0, Y<0) = 1/4 + asin(rho) / (2 pi)
    for rho in (-0.9, -0.5, 0.3, 0.5, 0.8):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bvn_lower_orthant(0.0, 0.0, rho) == pytest.approx(want, abs=1e-13)


def test_bvn_frozen_cross_checks():
    # FROZEN against an independent CDF implementation and 2-D quadrature
    assert bvn_lower_orthant(0.3, -0.4, 0.6) == pytest.approx(
        0.2975267245175319, abs=1e-13
    )
    assert bvn_lower_orthant(-1.2, 0.7, -0.35) == pytest.approx(
        0.06285612083340608, abs=1e-13
    )
    assert bvn_lower_orthant(1.5, 1.5, 0.9) == pytest.approx(
        0.9103339981753924, abs=1e-13
    )
    assert bvn_lower_orthant(0.0, 0.7, 0.25) == pytest.approx(
        0.4103272683116077, abs=1e-13
    )


def test_bvn_marginal_limits():
    assert bvn_lower_orthant(8.0, 8.0, 0.3) == pytest.approx(1.0, abs=1e-10)
    assert bvn_lower_orthant(-8.0, 0.5, 0.3) == pytest.approx(0.0, abs=1e-14)
    # one argument effectively at +inf leaves the other marginal
    assert bvn_lower_orthant(0.7, 8.0, 0.25) == pytest.approx(
        1.0 - qfunc(0.7), abs=1e-10
    )


def test_bvn_symmetry():
    assert bvn_lower_orthant(0.4, -0.9, 0.55) == pytest.approx(
        bvn_lower_orthant(-0.9, 0.4, 0.55), abs=1e-14
    )


def test_bvn_rejects_unit_correlation():
    with pytest.raises(CorrelationAtUnity):
        bvn_lower_orthant(0.1, 0.2, 1.0)
    with pytest.raises(CorrelationAtUnity):
        bvn_lower_orthant(0.1, 0.2, -1.0000001)


# ---------------------------------------------------------------------------
# exact error, both paths, against brute-force quadrature
# ---------------------------------------------------------------------------


def brute_planar_error(cc, sigma2, n=1601):
    """Trapezoid integration of the max-posterior density over the plane."""
    pts = cc.as_array()
    lp = np.log(cc.priors.as_array())
    sigma = math.sqrt(sigma2)
    half = float(np.max(np.abs(pts))) + 8.0 * sigma
    xs = np.linspace(-half, half, n)
    h = xs[1] - xs[0]
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    total = 0.0
    for y, wy in zip(xs, w):
        best = None
        for a, l in zip(pts, lp):
            g = l - ((xs - a.real) ** 2 + (y - a.imag) ** 2) / (2.0 * sigma2)
            best = g if best is None else np.maximum(best, g)
        total += wy * float(np.sum(w * np.exp(best)))
    return 1.0 - total * h * h / (2.0 * math.pi * sigma2)


def brute_collinear_error(cc, sigma2, n=200_001):
    pts = cc.as_array().real
    lp = np.log(cc.priors.as_array())
    sigma = math.sqrt(sigma2)
    xs = np.linspace(pts.min() - 9.0 * sigma, pts.max() + 9.0 * sigma, n)
    best = None
    for a, l in zip(pts, lp):
        g = l - (xs - a) ** 2 / (2.0 * sigma2)
        best = g if best is None else np.maximum(best, g)
    return 1.0 - float(np.trapezoid(np.exp(best), xs)) / math.sqrt(
        2.0 * math.pi * sigma2
    )


def test_planar_exact_vs_brute_design_point(case1):
    inp = DesignInput(case1, 1.0, 1.0, 0.924, 0.25)
    cc = design_general(inp).combined(inp)
    rep = exact_error(cc, 0.25)
    assert rep.method == "planar"
    assert rep.p_err_exact == pytest.approx(0.006016020085073772, rel=1e-12)  # FROZEN
    assert brute_planar_error(cc, 0.25) == pytest.approx(rep.p_err_exact, rel=2e-6)


def test_planar_exact_vs_brute_skewed(case2):
    cc = build_cc(-1.3, 0.9, -1.1, 0.6, 0.35, case2)
    rep1 = exact_error(cc, 0.25)
    assert rep1.p_err_exact == pytest.approx(0.04806104160861458, rel=1e-12)  # FROZEN
    assert brute_planar_error(cc, 0.25) == pytest.approx(rep1.p_err_exact, rel=1e-4)
    rep2 = exact_error(cc, 0.04)
    assert rep2.p_err_exact == pytest.approx(9.627321916238188e-06, rel=1e-12)  # FROZEN
    assert brute_planar_error(cc, 0.04) == pytest.approx(rep2.p_err_exact, rel=5e-6)


def test_collinear_exact_vs_brute(case2):
    inp = DesignInput(case2, 1.0, 1.0, 1.0, S18)
    cc = design_collinear(inp).combined(inp)
    rep = exact_error(cc, 0.2)
    assert rep.method == "collinear"
    assert rep.p_err_exact == pytest.approx(0.07729938832125344, rel=1e-12)  # FROZEN
    assert brute_collinear_error(cc, 0.2) == pytest.approx(rep.p_err_exact, rel=1e-7)
    rep = exact_error(cc, 0.05)
    assert rep.p_err_exact == pytest.approx(0.0023683951929717693, rel=1e-12)  # FROZEN
    assert brute_collinear_error(cc, 0.05) == pytest.approx(rep.p_err_exact, rel=1e-7)


def test_frozen_design_point_errors(case1, case2):
    cc = t2_cc(case1)
    assert exact_error(cc, S18).p_err_exact == pytest.approx(T2_PE, rel=1e-12)
    cc3 = build_cc(*T3_AMPS, 1.0, case2)
    assert exact_error(cc3, S18).p_err_exact == pytest.approx(T3_PE, rel=1e-12)


# (sigma2, p_err_exact, p_c_per_pair, union_bound) recorded from the exact
# engine itself, not from an oracle, and asserted bit for bit, so any change
# to its floating-point operations shows. The planar point takes both alpha branches; at the T3 point's
# sigma2 values and the planar point's 10^-1.3 the bound's last digit
# depends on the order of the union-term additions.
EXACT_AND_UNION = {
    "t2-collinear": (
        (10.0**-0.8, 0.00282653265734159,
         (0.9967123337884441, 0.9287236076013078, 0.8498972478775262, 0.9993996153407413),
         0.0028295283910614944),
        (10.0**-1.8, 2.917504663892292e-12,
         (0.9999999999993292, 0.9999999998586392, 0.9999999998438966, 0.9999999999997988),
         2.917504663892292e-12),
    ),
    "planar-0.707": (
        (0.25, 0.07332057083045661,
         (0.9452278677155045, 0.466831706833585, 0.8998149864473359, 0.9567937149602778),
         0.08205466179091146),
        (0.04, 0.00010561031731354942,
         (0.9999862352643683, 0.9978014670344969, 0.9998541036234112, 0.9999740100727471),
         0.00010597527366397698),
        (10.0**-1.3, 0.00041599155211004735,
         (0.9999125936487502, 0.9924979728006944, 0.9994357067945144, 0.9998549082517842),
         0.000419763255329743),
    ),
    "t3-collinear": (
        (10.0**-0.3, 0.18046532965329767,
         (0.9455041074068052, 0.0, 0.7240456628730716, 0.8701027476960301),
         0.201514048057348),
        (10.0**-0.9, 0.037231720596588525,
         (0.9920317546149574, 0.7036969247644866, 0.9484949818318451, 0.9721046476900812),
         0.03737209239768364),
    ),
    "coincident": (
        (1.0, 0.4086552539314571,
         (0.8413447460685429, 0.6826894921370859, 0.0, 0.8413447460685429),
         0.5786855738370038),
        (0.01, 0.25, (1.0, 1.0, 0.0, 1.0), 0.25),
    ),
}


def test_exact_and_union_frozen(case1, case2, uniform):
    ccs = {
        "t2-collinear": t2_cc(case1),
        "planar-0.707": build_cc(-1.0, 0.8, -0.9, 0.7, 0.707, case2),
        "t3-collinear": build_cc(*T3_AMPS, 1.0, case2),
        "coincident": build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform),
    }
    for name, rows in EXACT_AND_UNION.items():
        cc = ccs[name]
        for sigma2, p_err, p_c, bound in rows:
            rep = exact_error(cc, sigma2)
            assert rep.method == ("planar" if name.startswith("planar") else "collinear")
            assert rep.p_err_exact == p_err, (name, sigma2)
            assert rep.p_c_per_pair == p_c, (name, sigma2)
            assert union_bound(cc, sigma2) == bound, (name, sigma2)


def test_report_invariants(case1, case2, uniform):
    rng = np.random.Generator(np.random.PCG64(2024))
    for pri in (case1, case2, uniform):
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0, size=4)
            g = float(rng.uniform(-1.0, 1.0))
            cc = build_cc(*a, g, pri)
            for s2 in (1.0, 0.05):
                try:
                    rep = exact_error(cc, s2)
                except NonBijective:
                    continue
                probs = pri.as_tuple()
                recon = 1.0 - math.fsum(
                    p * pc for p, pc in zip(probs, rep.p_c_per_pair)
                )
                assert abs(rep.p_err_exact - recon) <= 1e-12
                assert all(0.0 <= pc <= 1.0 for pc in rep.p_c_per_pair)
                assert 0.0 <= rep.p_err_exact <= 1.0


def test_translation_invariance(case2):
    cc = build_cc(-1.1, 0.8, -0.7, 0.9, 0.4, case2)
    shifted = combine(
        *from_amplitudes(-1.1 + 0.6, 0.8 + 0.6, -0.7, 0.9, 0.4),
        case2,
    )
    a = exact_error(cc, 0.12).p_err_exact
    b = exact_error(shifted, 0.12).p_err_exact
    assert b == pytest.approx(a, rel=1e-11)


def test_scale_invariance(case2):
    cc = build_cc(-1.1, 0.8, -0.7, 0.9, 0.4, case2)
    s = 3.7
    scaled = build_cc(-1.1 * s, 0.8 * s, -0.7 * s, 0.9 * s, 0.4, case2)
    a = exact_error(cc, 0.12).p_err_exact
    b = exact_error(scaled, 0.12 * s * s).p_err_exact
    assert b == pytest.approx(a, rel=1e-11)


def test_planar_path_guards(case1, uniform):
    from gmacpam import CombinedConstellation

    with pytest.raises(CollinearInput):
        exact_error_planar(t2_cc(case1), 0.1)
    # amplitude placement cannot coincide points off-axis; build one directly
    cc = CombinedConstellation(
        complex(0.0, 1.0), complex(0.0, 1.0), complex(2.0), complex(3.0, 1.0), uniform
    )
    with pytest.raises(NonBijective):
        exact_error_planar(cc, 0.1)


def test_dispatch_consistency(case1):
    """A nearly collinear planar constellation agrees with its flattened twin."""
    theta = 4.2e-3
    for s2 in (10.0**-1.8, 10.0**-1.2):
        ccp = build_cc(*T2_AMPS, math.cos(theta), case1)
        ccf = build_cc(*T2_AMPS, 1.0, case1)
        assert not is_collinear(ccp) and is_collinear(ccf)
        diff = abs(exact_error(ccp, s2).p_err_exact - exact_error(ccf, s2).p_err_exact)
        assert diff <= 1e-8


def test_alpha_branch_continuity(case2):
    """Exact error is continuous across the quadrant-correction sign change."""
    vals = [
        exact_error(build_cc(-1.0, 1.0, -0.7, 0.8, g, case2), 0.3).p_err_exact
        for g in (-1e-7, 0.0, 1e-7)
    ]
    assert max(vals) - min(vals) <= 5e-9


# ---------------------------------------------------------------------------
# closed form for orthogonal pulses + uniform sources
# ---------------------------------------------------------------------------


def test_closed_form_qam_value():
    # q1 + q2 - q1 q2 at d1 = d2 = 2, sigma = 1
    assert closed_form_qam(2.0, 2.0, 1.0) == pytest.approx(
        0.29213901826285904, rel=1e-14  # FROZEN
    )


def test_orthogonal_uniform_matches_closed_form(uniform):
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 0.0, uniform)
    for s2 in (1.0, 0.1, 0.01):
        exact = exact_error(cc, s2).p_err_exact
        closed = closed_form_qam(2.0, 2.0, math.sqrt(s2))
        assert abs(exact - closed) <= 1e-10


def test_orthogonal_uniform_ratio_stays_at_one(uniform):
    """Relative agreement holds even when the error underflows to ~1e-219."""
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 0.0, uniform)
    for s2 in (1e-1, 1e-2, 1e-3):
        exact = exact_error(cc, s2).p_err_exact
        closed = closed_form_qam(2.0, 2.0, math.sqrt(s2))
        assert abs(exact / closed - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# union bounds
# ---------------------------------------------------------------------------


def test_union_dominates_exact_random(case1, case2, uniform):
    rng = np.random.Generator(np.random.PCG64(99))
    checked = 0
    for pri in (case1, case2, uniform):
        for _ in range(40):
            a = rng.uniform(-2.0, 2.0, size=4)
            g = float(rng.uniform(-1.0, 1.0))
            cc = build_cc(*a, g, pri)
            for s2 in (0.5, 0.05, 0.005):
                try:
                    exact = exact_error(cc, s2).p_err_exact
                except NonBijective:
                    continue
                assert union_bound(cc, s2) >= exact
                checked += 1
    assert checked > 200


def test_union_tightens_at_high_snr(case1):
    cc = t2_cc(case1)
    ratios = [
        union_bound(cc, s2) / exact_error(cc, s2).p_err_exact
        for s2 in (0.1, 0.05, S18)
    ]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1.001


def test_union_handles_ambiguous_floor(uniform):
    # identical antipodal senders: the (0,1)/(1,0) ambiguity floors at 1/4
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform)
    for s2 in (1.0, 0.1, 0.01, 1e-4):
        assert union_bound(cc, s2) >= 0.25
    assert exact_error(cc, 1e-4).p_err_exact == pytest.approx(0.25, abs=1e-12)


def test_high_snr_union_bound_formula(case2):
    d1, d2, psi, sigma = 2.0, 1.2, math.pi / 2.0, 0.3
    p00, p01, p10, p11 = case2.as_tuple()
    diag = math.hypot(d1, d2)
    want = (
        qfunc(d1 / (2 * sigma))
        + qfunc(d2 / (2 * sigma))
        + (p00 + p11) * qfunc(diag / (2 * sigma))
        + (p01 + p10) * qfunc(diag / (2 * sigma))
    )
    got = high_snr_union_bound(d1, d2, psi, case2, sigma)
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        high_snr_union_bound(0.0, 1.0, 0.0, case2, sigma)


def test_high_snr_union_bound_equals_union_for_uniform(uniform):
    """With no prior tilts the midpoint bound IS the union bound, any noise."""
    cc = build_cc(-1.2, 1.0, -0.8, 0.9, 0.45, uniform)
    c1, c2 = from_amplitudes(-1.2, 1.0, -0.8, 0.9, 0.45)
    d1, d2, psi = pair_geometry(c1, c2)
    for s2 in (0.5, 0.05):
        approx = high_snr_union_bound(abs(d1), abs(d2), psi, uniform, math.sqrt(s2))
        assert approx == pytest.approx(union_bound(cc, s2), rel=1e-13)


# ---------------------------------------------------------------------------
# collinear sign cases and their high-SNR forms
# ---------------------------------------------------------------------------

# FROZEN per-case separations: aligned cases use moderate separations, mixed
# cases use a wide/narrow pair so every pairwise distance stays large on the
# 18 dB noise scale.
SIGN_CASE_GEOMETRY = {
    1: (2.2, 1.4),
    2: (1.4, 2.2),
    3: (3.4, -1.5),
    4: (1.5, -3.4),
    5: (-3.4, 1.5),
    6: (-1.5, 3.4),
    7: (-2.2, -1.4),
    8: (-1.4, -2.2),
}


def hand_correct_prob(case, d1, d2, priors, sigma):
    p00, p01, p10, p11 = priors.as_tuple()
    s_anti = p10 + p01
    s_diag = p00 + p11
    t = 2.0 * sigma
    q = qfunc
    if case == 1:
        return 1 - q(d2 / t) - s_anti * q((d1 - d2) / t)
    if case == 2:
        return 1 - q(d1 / t) - s_anti * q((d2 - d1) / t)
    if case == 3:
        return q(d2 / t) - s_diag * q((d1 + d2) / t)
    if case == 4:
        return s_anti - q(d1 / t) + s_diag * q((d1 + d2) / t)
    if case == 5:
        return s_anti - q(d2 / t) + s_diag * q((d1 + d2) / t)
    if case == 6:
        return q(d1 / t) - s_diag * q((d1 + d2) / t)
    if case == 7:
        return q(d2 / t) - s_anti * q((d2 - d1) / t)
    return q(d1 / t) - s_anti * q((d1 - d2) / t)


def test_sign_case_classification():
    for case, (d1, d2) in SIGN_CASE_GEOMETRY.items():
        assert collinear_sign_case(d1, d2) == case


def test_sign_case_boundaries_rejected():
    with pytest.raises(CaseMismatch):
        collinear_sign_case(1.5, 1.5)
    with pytest.raises(CaseMismatch):
        collinear_sign_case(0.0, 1.0)
    with pytest.raises(CaseMismatch):
        collinear_sign_case(1.0, -1.0)


def test_high_snr_forms_match_hand_coded(case1, case2):
    for pri in (case1, case2):
        for sigma in (0.2, 0.1):
            for case, (d1, d2) in SIGN_CASE_GEOMETRY.items():
                got = high_snr_correct_prob(case, d1, d2, pri, sigma)
                want = hand_correct_prob(case, d1, d2, pri, sigma)
                assert got == pytest.approx(want, abs=1e-14), case


def test_high_snr_form_revalidates_case(case1):
    with pytest.raises(CaseMismatch):
        high_snr_correct_prob(1, 1.4, 2.2, case1, 0.1)


def test_opposed_cases_coincide(case1):
    # negating both separations relabels bits only: case VII == case I
    a = high_snr_correct_prob(1, 2.2, 1.4, case1, 0.1)
    b = high_snr_correct_prob(7, -2.2, -1.4, case1, 0.1)
    assert b == pytest.approx(a, abs=1e-15)


def test_high_snr_forms_approach_exact(case1):
    """|approx - exact correct probability| <= 1e-4 on the 18 dB noise scale."""
    sigma = math.sqrt(S18)
    for case, (d1, d2) in SIGN_CASE_GEOMETRY.items():
        cc = collinear_cc(d1, d2, case1)
        exact_pc = 1.0 - exact_error_collinear(cc, S18).p_err_exact
        approx_pc = high_snr_correct_prob(case, d1, d2, case1, sigma)
        assert abs(approx_pc - exact_pc) <= 1e-4, case


def test_case1_value_increases_in_d1(case2):
    """Wider sender-1 separation never hurts (fixed d2, case-I region)."""
    vals = [
        high_snr_correct_prob(1, d1, 1.0, case2, 0.2)
        for d1 in np.linspace(1.02, 3.0, 100)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_case1_value_concave_in_d2(case2):
    """Second differences in d2 stay non-positive up to the energy cap."""
    sigma = math.sqrt(S18)
    d1max, d2max = 2.5, 2.0  # separation caps for unit energies at p=0.2, 0.5
    grid = np.linspace(0.02, d2max, 100)
    vals = [high_snr_correct_prob(1, d1max, d2, case2, sigma) for d2 in grid]
    second = np.diff(vals, n=2)
    assert np.all(second <= 1e-12)

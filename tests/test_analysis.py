"""Exact MAP error analysis: collinear and planar paths, bounds, asymptotics.

Reference values marked FROZEN were produced once by independent slow oracles
(brute-force quadrature over the decision map, scipy's bivariate normal CDF)
and are pinned here verbatim; the slow oracles themselves run below at
reduced resolution as a second line of defence.
"""

import ast
import cmath
import hashlib
import math
import os
import random
import sys

import numpy as np
import pytest

from gmacpam import (
    CombinedConstellation,
    Constellation,
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
    is_bijective,
    is_collinear,
    pair_geometry,
    simulate,
    union_bound,
)
from gmacpam import _kernels, analysis
from gmacpam.analysis import (
    _gauss_legendre,
    bvn_lower_orthant,
    collinear_decision_interval,
    collinear_pair_threshold,
    owens_t,
    qfunc,
)
from gmacpam.errors import (
    CaseMismatch,
    CollinearInput,
    CorrelationAtUnity,
    NonBijective,
    NotCollinear,
    NotSuperposition,
)
from gmacpam.geometry import coincidence_tol
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


def test_qfunc_matches_mpmath():
    """Q(x) at the double x to within 4 ulp: the libm erfc's own error (up
    to about 3.7 ulp near erfc argument 1.25 with glibc), the argument's
    rounding compensated. Without that compensation the rounding of
    x / sqrt(2) alone costs up to about x^2 ulp, some 1500 ulp at x = 37."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    tiny = sys.float_info.min
    worst = 0.0
    for x in np.linspace(-37.0, 40.0, 7701).tolist():
        want = mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2
        if want < tiny:
            assert qfunc(x) == 0.0, x
        else:
            worst = max(worst, abs(float((mp.mpf(qfunc(x)) - want) / math.ulp(float(want)))))
    assert worst <= 4.0
    for x in (37.6, 38.6, 1e3, 1e300):
        assert qfunc(x) == 0.0
    assert math.isnan(qfunc(math.nan))
    assert qfunc(math.inf) == 0.0 and qfunc(-math.inf) == 1.0
    assert qfunc(-1e300) == 1.0


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


def test_exact_error_collinear_rejects_planar(case1):
    cc = build_cc(-1.0, 1.0, -0.5, 0.5, 0.0, case1)
    with pytest.raises(NotCollinear, match="combined constellation has points off the real axis"):
        exact_error_collinear(cc, 1.0)


@pytest.mark.parametrize("sigma2", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_error_paths_reject_bad_sigma2(case1, sigma2):
    cc = t2_cc(case1)
    for fn in (exact_error, union_bound):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            fn(cc, sigma2)


@pytest.mark.parametrize("pos", range(4))
@pytest.mark.parametrize("kind", ["nan-real", "nan-imag", "inf"])
def test_non_finite_point_rejected_by_name(case1, pos, kind):
    """A NaN or infinite point raises before any arithmetic, wherever it
    sits; max() skips a NaN unless it comes first, so a scale or distance
    check alone would let it through."""
    from gmacpam import CombinedConstellation, simulate

    pts = [complex(k) for k in range(4)]
    pts[pos] = {"nan-real": complex(math.nan, 0.0), "nan-imag": complex(pos, math.nan),
                "inf": complex(math.inf, 0.0)}[kind]
    cc = CombinedConstellation(*pts, case1)
    name = ("a00", "a01", "a10", "a11")[pos]
    for fn in (exact_error, union_bound, lambda cc, s2: simulate(cc, s2, 20000, 1)):
        with pytest.raises(OverflowError, match=f"combined point {name} = .* is not finite"):
            fn(cc, 0.5)


def test_threshold_rejects_self(case1):
    cc = t2_cc(case1)
    with pytest.raises(ValueError):
        collinear_pair_threshold(cc, 1.0, (0, 0), (0, 0))


@pytest.mark.parametrize("bad", [(0, 2), (1, 2), (-1, 0), (2, 0)])
def test_bit_pairs_take_bits_0_and_1_only(case1, bad):
    """A bit other than 0 or 1 is a ValueError naming the pair, where it
    used to read another pair's point (2u + v = 2 is a10) or fail with a
    bare KeyError."""
    cc, sigma2 = t2_cc(case1), 10.0**-0.8
    calls = (lambda: collinear_pair_threshold(cc, sigma2, (0, 0), bad),
             lambda: collinear_pair_threshold(cc, sigma2, bad, (0, 0)),
             lambda: collinear_decision_interval(cc, sigma2, bad),
             lambda: cc.point(*bad),
             lambda: case1.prob(*bad))
    for call in calls:
        with pytest.raises(ValueError, match=rf"bit pair \({bad[0]}, {bad[1]}\)"):
            call()


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


def test_threshold_views_take_no_tail(monkeypatch, case1):
    """The views read the geometry and the priors only: no Q call, where
    the exact path takes its 12 tails through the same patched name."""
    calls = []
    monkeypatch.setattr(analysis, "qfunc", lambda x: calls.append(x) or qfunc(x))
    cc, sigma2 = t2_cc(case1), 10.0**-0.8
    for uv in BIT_PAIRS:
        collinear_decision_interval(cc, sigma2, uv)
        for lm in BIT_PAIRS:
            if lm != uv:
                collinear_pair_threshold(cc, sigma2, uv, lm)
    assert calls == []
    exact_error(cc, sigma2)
    assert len(calls) == 12


# Each input class the views reject, with the exception type and message
# they raise; recorded with the views that read the pairwise table.
VIEW_REJECTIONS = {
    "bad-sigma2": (ValueError, "sigma2 must be finite and positive, got 0.0"),
    "nan-point": (OverflowError, "combined point a01 = (nan+0j) is not finite"),
    "distance-overflow": (OverflowError,
                          "largest pairwise distance 1e+200 squares past the float range"),
    "off-axis": (NotCollinear, "combined constellation has points off the real axis"),
    "self-rival": (ValueError, "rival must differ from the transmitted pair"),
}


@pytest.mark.parametrize("view, reject", [
    (view, reject) for reject in sorted(VIEW_REJECTIONS) for view in ("pair", "interval")
    if (view, reject) != ("interval", "self-rival")  # the interval view takes no rival
])
def test_threshold_views_reject_inputs(case1, view, reject):
    from gmacpam import CombinedConstellation

    cc, sigma2, uv, lm = collinear_cc(1.0, 0.5, case1), 0.5, (0, 0), (1, 1)
    if reject == "bad-sigma2":
        sigma2 = 0.0
    elif reject == "nan-point":
        cc = CombinedConstellation(0j, complex(math.nan), 1 + 0j, 2 + 0j, case1)
    elif reject == "distance-overflow":
        cc = collinear_cc(1e200, 1.0, case1)
    elif reject == "off-axis":
        cc = build_cc(-1.0, 1.0, -0.5, 0.5, 0.0, case1)
    else:
        lm = uv
    exc, message = VIEW_REJECTIONS[reject]
    with pytest.raises(exc) as err:
        if view == "pair":
            collinear_pair_threshold(cc, sigma2, uv, lm)
        else:
            collinear_decision_interval(cc, sigma2, uv)
    assert type(err.value) is exc and str(err.value) == message


def _binding_cases(sources):
    """Seeded collinear constellations {0, d2, d1, d1 + d2}, sigma2 from
    1e-3 to 1e3: distinct points, a01 on a10 (d1 = d2) and a00 on a11
    (d1 = -d2), each under every source; with the uniform one a coincident
    rival wins or loses by order instead of by prior."""
    rng = np.random.Generator(np.random.PCG64(1707))
    for n in range(600):
        d1, d2 = rng.uniform(-2.0, 2.0, size=2)
        d2 = (d2, d1, -d1)[n % 3]
        yield collinear_cc(d1, d2, sources[n // 3 % len(sources)]), 10.0 ** rng.uniform(-3.0, 3.0)


def test_binding_rival_by_tail_is_binding_rival_by_threshold(case1, case2, uniform):
    """The exact path picks each side's binding rival by its larger tail;
    its miss equals the tails past the decision interval's thresholds and
    is 1 on a dead region. The two compute the tail's argument with
    different roundings, about 1 ulp apart, which Q turns into up to x^2
    ulp: 2.6e-13 relative measured, at x = 36.7."""
    seen = {"dead": 0, "empty": 0, "one-sided": 0, "two-sided": 0}
    for cc, sigma2 in _binding_cases((case1, case2, uniform)):
        rep = exact_error(cc, sigma2)
        misses = analysis._line_misses(*analysis._tails(cc, sigma2))
        sigma = math.sqrt(sigma2)
        for i, uv in enumerate(BIT_PAIRS):
            miss = misses[i]
            assert rep.miss_per_pair[i] == miss
            lo, hi, alive = collinear_decision_interval(cc, sigma2, uv)
            if not alive:
                seen["dead"] += 1
                assert miss == 1.0, (cc, sigma2, uv)
                continue
            seen["empty" if lo >= hi else "one-sided" if math.inf in (-lo, hi) else "two-sided"] += 1
            want = min(1.0, qfunc(hi / sigma) + qfunc(-lo / sigma))
            assert abs(miss - want) <= 5e-13 * want, (cc, sigma2, uv)
        assert union_bound(cc, sigma2) >= rep.p_err_exact
    assert min(seen.values()) >= 50, seen


# FROZEN: the sha256 of the newline-joined _view_lines, recorded with the
# views that read their thresholds off the pairwise table.
THRESHOLD_VIEWS_SHA256 = "d3a8b7d549a6bf85a80cbb64f33824ad83f60d5cb18cae9a901714c5f0de2278"


def _view_lines(sources):
    for cc, sigma2 in _binding_cases(sources):
        sigma2 = float(sigma2)  # plain floats, so the repr does not depend on numpy
        pairs = [collinear_pair_threshold(cc, sigma2, uv, lm)
                 for uv in BIT_PAIRS for lm in BIT_PAIRS if lm != uv]
        intervals = [collinear_decision_interval(cc, sigma2, uv) for uv in BIT_PAIRS]
        yield repr((cc.points, cc.priors.as_tuple(), sigma2, pairs, intervals))


def test_threshold_views_frozen_digest(case1, case2, uniform):
    """Every pair threshold and decision interval of the 600 binding
    cases, coincident rivals and dead regions among them, bit for bit."""
    lines = list(_view_lines((case1, case2, uniform)))
    assert len(lines) == 600
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == THRESHOLD_VIEWS_SHA256


def _planar_cases(sources):
    """Seeded constellations of random amplitudes and pulse correlation in
    (-1, 1), sigma2 from 1e-3 to 1e3, cycling over the sources."""
    rng = np.random.Generator(np.random.PCG64(2718))
    for n in range(300):
        a = rng.uniform(-2.0, 2.0, size=4).tolist()
        g = float(rng.uniform(-1.0, 1.0))
        yield build_cc(*a, g, sources[n % len(sources)]), 10.0 ** rng.uniform(-3.0, 3.0)


# FROZEN: the sha256 of the newline-joined _report_lines, one line per case
# (its inputs, exact_error report and union_bound). exact_reports.sha256
# holds the first 12 hex digits of each line's own sha256, in case order,
# so that a failure can name the first case that changed.
EXACT_REPORTS_SHA256 = "cf31e6d18eb2e80e937fa179709483d5f92d87fbc4f089c850bb3c4867e1d649"
EXACT_REPORTS_PER_CASE = os.path.join(os.path.dirname(__file__), "exact_reports.sha256")


def _report_lines(sources):
    cases = [*_binding_cases(sources), *_planar_cases(sources)]
    for cc, sigma2 in cases:
        sigma2 = float(sigma2)  # plain floats, so the repr does not depend on numpy
        try:
            rep = exact_error(cc, sigma2)
        except NonBijective:
            rep = "NonBijective"
        yield repr((cc.points, cc.priors.as_tuple(), sigma2, rep, union_bound(cc, sigma2)))


def test_exact_reports_frozen_digest(case1, case2, uniform):
    """Every exact report and union bound of 900 cases, merged designs,
    coincident rivals and dead regions among them, is bit for bit the
    engine's recorded output; a miss names the first case that moved."""
    lines = list(_report_lines((case1, case2, uniform)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if digest != EXACT_REPORTS_SHA256:
        with open(EXACT_REPORTS_PER_CASE) as fh:
            want = fh.read().split()
        for n, (line, ref) in enumerate(zip(lines, want)):
            if hashlib.sha256(line.encode()).hexdigest()[:12] != ref:
                pytest.fail(f"case {n} changed: {line}")
        pytest.fail(f"digest {digest} over {len(lines)} cases; want {EXACT_REPORTS_SHA256}")


def _outcome(cc, sigma2):
    """The report of exact_error (or its NonBijective), the union bound and,
    on the real axis, the four decision intervals."""
    try:
        rep = exact_error(cc, sigma2)
    except NonBijective:
        rep = "NonBijective"
    views = ([collinear_decision_interval(cc, sigma2, uv) for uv in BIT_PAIRS]
             if is_collinear(cc) else [])
    return rep, union_bound(cc, sigma2), views


def test_reused_constellation_reports_equal_fresh_ones(case1, case2, uniform):
    """One constellation evaluated from 0 to 40 dB keeps its noise-free
    table across the calls; each report, union bound and decision interval
    equals that of a constellation built afresh for the call."""
    sources = (case1, case2, uniform)
    for cc, _ in [*_binding_cases(sources), *_planar_cases(sources)]:
        for db in range(0, 41, 10):
            sigma2 = 10.0 ** (-db / 10.0)
            assert _outcome(cc, sigma2) == _outcome(type(cc)(*cc), sigma2), (cc, db)
        assert analysis._pair_geometry(cc) is analysis._pair_geometry(cc)


def test_each_union_term_is_at_least_its_miss(case1, case2, uniform):
    """On both paths each point's union term, its three rival tails added
    in _FLIPS order, is at least its miss, over merged designs (and so dead
    points), distinct ones and both alpha branches; union_bound is exact_error's p_err_union bit
    for bit wherever exact_error returns, and at least p_err_exact."""
    sources = (case1, case2, uniform)
    rng = np.random.Generator(np.random.PCG64(3141))
    seen = set()
    for cc, sigma2 in [*_binding_cases(sources), *_planar_cases(sources)]:
        for sigma2 in (float(sigma2), *(10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()):
            try:
                rep = exact_error(cc, sigma2)
            except NonBijective:
                continue
            geo, _, tail = analysis._tails(cc, sigma2)
            for i, x, y, d in analysis._FLIPS:
                assert tail[x] + tail[y] + tail[d] >= rep.miss_per_pair[i], (cc, sigma2, i)
            assert union_bound(cc, sigma2) == rep.p_err_union >= rep.p_err_exact, (cc, sigma2)
            if rep.method == "planar":
                seen.update(sigma2 * pt[3] - pt[4] > 0.0 for pt in geo.planar)
            elif rep.bijective:
                seen.add("distinct")
            else:
                # a merged pair's loser is dead: its miss is 1
                assert 1.0 in rep.miss_per_pair, (cc, sigma2)
                seen.add("merged")
    assert seen == {True, False, "merged", "distinct"}, seen


def test_union_bound_on_non_bijective_planar(case2, uniform):
    """Off the real axis a merged pair stops the exact path, not the union
    bound: it is sum_i p_i (T_x + T_y + T_d), where a coincident rival's
    tail is 1 when it takes the shared point and 0 when it loses it."""
    u2 = complex(0.5, math.sqrt(0.75))
    t = u2 - 1.0
    for pri in (case2, uniform):
        p = pri.as_tuple()
        # a01 on a10 (d2 = d1), then sender 2's own points merged (d2 = 0)
        for a, b in ((1.5, 1.5), (2.0, 0.0)):
            cc = CombinedConstellation(t, t + b, t + a, t + a + b, pri)
            pts = cc.points
            tol = coincidence_tol(max(abs(x - y) for x in pts for y in pts))
            for sigma2 in (1.0, 0.1, 0.01):
                with pytest.raises(NonBijective):
                    exact_error(cc, sigma2)

                def rival_tail(i, j):
                    d = abs(pts[j] - pts[i])
                    if d <= tol:
                        return 1.0 if (p[j], -j) > (p[i], -i) else 0.0
                    return qfunc((d**2 / 2.0 + sigma2 * math.log(p[i] / p[j])) /
                                 (math.sqrt(sigma2) * d))

                want = math.fsum(p[i] * (rival_tail(i, i ^ 2) + rival_tail(i, i ^ 1)
                                         + rival_tail(i, i ^ 3)) for i in range(4))
                assert union_bound(cc, sigma2) == want, (pri, a, b, sigma2)


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


@pytest.mark.parametrize("h, k", [
    (math.nan, 0.3), (0.3, math.nan), (math.nan, math.nan), (math.nan, -math.inf),
    (math.inf, math.nan), (0.0, math.nan),
])
@pytest.mark.parametrize("path", ["scalar", "batched"])
def test_bvn_nan_in_nan_out(path, h, k):
    if path == "scalar":
        got = bvn_lower_orthant(h, k, 0.5)
    else:
        got = _kernels._bvn_lower_orthant(np.array([h]), np.array([k]), np.array([0.5]),
                                          np.array([qfunc(-h)]), np.array([qfunc(-k)]))[0]
    assert math.isnan(got)


def test_bvn_infinite_bounds():
    """A bound at -inf empties the orthant; a bound at +inf leaves the other
    marginal. The batch kernel gives the same value bit for bit."""
    bounds = [-math.inf, -6.0, -1.2, 0.0, 0.7, 4.0, math.inf]
    pairs = [(h, k) for h in bounds for k in bounds if math.isinf(h) or math.isinf(k)]
    h, k = (np.array(col) for col in zip(*pairs))
    phi_h = np.array([qfunc(-x) for x in h.tolist()])
    phi_k = np.array([qfunc(-x) for x in k.tolist()])
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.95):
        batch = _kernels._bvn_lower_orthant(h, k, np.full(h.size, rho), phi_h, phi_k)
        for (hv, kv), b in zip(pairs, batch.tolist()):
            got = bvn_lower_orthant(hv, kv, rho)
            if hv == -math.inf or kv == -math.inf:
                assert got == 0.0, (hv, kv)
            else:
                assert got == (qfunc(-kv) if hv == math.inf else qfunc(-hv)), (hv, kv)
            assert b == got, (hv, kv, rho)


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.5, 0.95])
def test_batched_orthant_at_zero_bound(rho):
    """A zero bound takes T(0, +-inf) = +-1/4 in the batch as in the scalar
    path: within 1e-15 of the larger marginal (2.2e-16 measured; nudging
    the bound to 1e-14 instead costs 5.5e-15)."""
    others = [0.3, -1.2, 0.7, -2.5, -6.0, 4.0]
    h = np.array([0.0] * 6 + others + [0.0])
    k = np.array(others + [0.0] * 6 + [0.0])
    phi_h = np.array([qfunc(-x) for x in h.tolist()])
    phi_k = np.array([qfunc(-x) for x in k.tolist()])
    got = _kernels._bvn_lower_orthant(h, k, np.full(h.size, rho), phi_h, phi_k)
    for g, hv, kv, scale in zip(got.tolist(), h.tolist(), k.tolist(), np.maximum(phi_h, phi_k)):
        assert abs(g - bvn_lower_orthant(hv, kv, rho)) <= 1e-15 * scale, (hv, kv)


# ---------------------------------------------------------------------------
# Owen's T against identities, scipy and a 30-digit quadrature
# ---------------------------------------------------------------------------


def _owens_t_mp(mp, h, a):
    """Owen's T to 30 digits: exp(-h^2/2) / (2 pi h) times
    int_0^{ah} exp(-t^2/2) / (1 + t^2/h^2) dt, split at t = h/4, h, 1, 2,
    4, 8, 16 so that each piece is O(1); mpmath's quad stops on an absolute
    error estimate, and over [0, a] it misses T(20, 3) by 1.7e-6 relative.
    Past t = 40 the integrand is below exp(-800)."""
    with mp.workdps(30):
        h, a = abs(mp.mpf(h)), mp.mpf(a)
        if a < 0:
            return -_owens_t_mp(mp, h, -a)
        if h == 0:
            return mp.atan(a) / (2 * mp.pi)
        top = min(a * h, mp.mpf(40))
        cuts = sorted({mp.mpf(0)} | {mp.mpf(b) for b in (h / 4, h, 1, 2, 4, 8, 16) if b < top})
        body = mp.quad(lambda t: mp.exp(-t * t / 2) / (1 + (t / h) ** 2), cuts + [top])
        return mp.exp(-h * h / 2) / (2 * mp.pi * h) * body


def _bvn_mp(mp, h, k, rho):
    """Owen's identity at 30 digits on _owens_t_mp."""
    with mp.workdps(30):
        h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
        if h == 0 and k == 0:
            return mp.mpf(1) / 4 + mp.asin(rho) / (2 * mp.pi)
        s = mp.sqrt((1 - rho) * (1 + rho))
        t_h = _owens_t_mp(mp, h, (k / h - rho) / s) if h else mp.sign(k) / 4
        t_k = _owens_t_mp(mp, k, (h / k - rho) / s) if k else mp.sign(h) / 4
        c = 0 if (h < 0) == (k < 0) else mp.mpf(1) / 2
        return (mp.ncdf(h) + mp.ncdf(k)) / 2 - t_h - t_k - c


def test_gauss_legendre_rule_matches_mpmath():
    """Nodes within 2 ulp of the Legendre roots (1.0 ulp measured for
    2m = 6 ... 44), weights within 5e-16 (3.1e-16 measured)."""
    mp = pytest.importorskip("mpmath")
    for m in (3, 9, 22):
        rule = _gauss_legendre(m)
        assert len(rule) == m
        n = 2 * m
        with mp.workdps(30):
            for x, w in rule:
                root = mp.findroot(lambda t: mp.legendre(n, t), x)
                slope = n * (root * mp.legendre(n, root) - mp.legendre(n - 1, root)) / (root**2 - 1)
                assert abs(x - root) <= 2 * math.ulp(x), (m, x)
                assert abs(w - 2 / ((1 - root**2) * slope**2)) <= 5e-16, (m, x)


def test_owens_t_identities():
    # at every |h| up to 38: T(h, inf) = Q(|h|)/2 and T(0, a) = atan(a)/2pi
    # exactly; T(h, 1) = Phi(h) Phi(-h)/2 from the quadrature within
    # 1.5e-15 relative (8.3e-16 measured on this grid)
    for h in np.linspace(-38.0, 38.0, 7601).tolist():
        assert owens_t(h, math.inf) == 0.5 * qfunc(abs(h)) == -owens_t(h, -math.inf), h
        want = 0.5 * qfunc(h) * qfunc(-h)
        assert abs(owens_t(h, 1.0) - want) <= 1.5e-15 * want, h
        assert owens_t(h, 0.0) == 0.0
    for a in (1e-12, 0.3, 1.0, 7.0, 1e14, math.inf):
        assert owens_t(0.0, a) == math.atan(a) / (2.0 * math.pi) == -owens_t(0.0, -a)
    assert owens_t(2.5, 0.7) == owens_t(-2.5, 0.7) == -owens_t(2.5, -0.7)
    assert math.isnan(owens_t(math.nan, 0.5)) and math.isnan(owens_t(0.5, math.nan))


def test_owens_t_matches_scipy():
    """A dense grid, h in [-38, 38] and a in +-[1e-12, 1e14] with 0 and +-1,
    against scipy's owens_t within 2e-15 (1 + h^2) T(h, inf). scipy's own
    error sets the bound: its tail loses up to h^2 ulp (2.3e-13 relative
    at h = 36.75, a = 1e14), and it misses T(5.5, 1e-12) by 2e-5
    relative, which is 1e-20 of T(h, inf)."""
    special = pytest.importorskip("scipy.special")
    pos = np.logspace(-12.0, 14.0, 105)
    a = np.concatenate([-pos, [-1.0, 0.0, 1.0], pos])
    for h in np.linspace(-38.0, 38.0, 305).tolist():
        scale = 2e-15 * (1.0 + h * h) * 0.5 * qfunc(abs(h))
        ref = special.owens_t(h, a)
        got = np.array([owens_t(h, x) for x in a.tolist()])
        tiny = np.abs(ref) < sys.float_info.min
        assert np.all(np.abs(got[tiny]) <= 2.0 * sys.float_info.min), h
        assert np.all(np.abs(got - ref)[~tiny] <= scale), h


def test_owens_t_matches_mpmath():
    """Within 1e-15 relative of the 30-digit quadrature at 63 points
    (4.6e-16 measured), once the quadrature itself matches the identities."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for h in (0.05, 1.9, 9.0, 21.5, 38.0):
            q = mp.ncdf(-h)
            assert abs(_owens_t_mp(mp, h, mp.inf) / (q / 2) - 1) < 1e-25
            assert abs(_owens_t_mp(mp, h, 1) / (q * (1 - q) / 2) - 1) < 1e-25
        h, a = mp.mpf(20), mp.mpf(3)
        q_h, q_ah = mp.ncdf(-h), mp.ncdf(-a * h)
        reflected = q_h / 2 + q_ah / 2 - q_h * q_ah - _owens_t_mp(mp, a * h, 1 / a)
        assert abs(_owens_t_mp(mp, h, a) / reflected - 1) < 1e-25
    worst = 0.0
    for h in (-38.0, -21.5, -9.0, -3.3, -0.7, 0.0, 0.05, 1.9, 6.0):
        for a in (1e-12, -0.05, 0.6, 1.0, -1.7, 30.0, 1e14):
            want = _owens_t_mp(mp, h, a)
            got = owens_t(h, a)
            if abs(want) < sys.float_info.min:
                assert got == 0.0, (h, a)
            else:
                worst = max(worst, float(abs(got / want - 1)))
    assert worst <= 1e-15


def test_bvn_matches_mpmath():
    """The orthant within 1e-15 of max(Phi(h), Phi(k)), the scale that
    _planar_miss subtracts it from (4.9e-16 measured over 256 points and
    over 400 random ones), zero and high-SNR bounds included."""
    mp = pytest.importorskip("mpmath")
    bounds = (-30.0, -8.5, -1.5, 0.0, 2.0)
    worst = 0.0
    for i, h in enumerate(bounds):
        for k in bounds[i:]:
            for rho in (-0.95, 0.5, 0.99):
                want = _bvn_mp(mp, h, k, rho)
                err = abs(bvn_lower_orthant(h, k, rho) - want)
                worst = max(worst, float(err / max(mp.ncdf(h), mp.ncdf(k))))
    assert worst <= 1e-15


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


# (sigma2, p_err_exact, miss_per_pair, union_bound) recorded from the exact
# engine itself, not from an oracle, and asserted bit for bit, so any change
# to its floating-point operations shows. The planar point takes both alpha
# branches; its rows were re-recorded when the orthants moved to the pure
# Python Owen's T, and every float that changed lies closer to a 40-digit
# mpmath evaluation of the same constellation (at 10^-1.3 the error went
# from 1.7e-14 to 1.7e-15 relative). Each bound adds every point's three
# rival tails in _FLIPS order on either path, and its last digit depends on
# that order: the t2 bound at 10^-0.8 moved by 1 ulp when the collinear
# path came to take it.
EXACT_AND_UNION = {
    "t2-collinear": (
        (10.0**-0.8, 0.002826532657341588,
         (0.0032876662115558877, 0.0712763923986922, 0.1501027521224737, 0.0006003846592587064),
         0.002829528391061492),
        (10.0**-1.8, 2.917504663892292e-12,
         (6.707621367001697e-13, 1.4136084171836772e-10, 1.5610332618263962e-10,
          2.012208735617376e-13),
         2.917504663892292e-12),
    ),
    "planar-0.707": (
        (0.25, 0.07332057083045657,
         (0.054772132284495456, 0.5331682931664148, 0.10018501355266396, 0.04320628503972217),
         0.08205466179091145),
        (0.04, 0.00010561031731354927,
         (1.376473563171743e-05, 0.002198532965503112, 0.00014589637658879434,
          2.5989927252841226e-05),
         0.00010597527366397692),
        (10.0**-1.3, 0.0004159915521100408,
         (8.740635124982318e-05, 0.00750202719930558, 0.0005642932054855684,
          0.00014509174821579035),
         0.0004197632553297427),
    ),
    "t3-collinear": (
        (10.0**-0.3, 0.1804653296532977,
         (0.05449589259319478, 1.0, 0.2759543371269284, 0.12989725230396995),
         0.201514048057348),
        (10.0**-0.9, 0.03723172059658852,
         (0.00796824538504261, 0.2963030752355132, 0.05150501816815491, 0.027895352309918794),
         0.03737209239768363),
    ),
    "coincident": (
        (1.0, 0.4086552539314571,
         (0.15865525393145705, 0.3173105078629141, 1.0, 0.15865525393145705),
         0.5786855738370037),
        (0.01, 0.25, (7.619853024160525e-24, 1.523970604832105e-23, 1.0, 7.619853024160525e-24),
         0.25),
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
        for sigma2, p_err, miss, bound in rows:
            rep = exact_error(cc, sigma2)
            assert rep.method == ("planar" if name.startswith("planar") else "collinear")
            assert rep.p_err_exact == p_err, (name, sigma2)
            assert rep.miss_per_pair == miss, (name, sigma2)
            assert union_bound(cc, sigma2) == bound, (name, sigma2)
            assert rep.p_err_union == bound, (name, sigma2)
            assert rep.bijective == is_bijective(cc) == (name != "coincident"), (name, sigma2)


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
                recon = math.fsum(p * m for p, m in zip(probs, rep.miss_per_pair))
                assert abs(rep.p_err_exact - recon) <= 1e-12
                assert all(0.0 <= m <= 1.0 for m in rep.miss_per_pair)
                assert 0.0 <= rep.p_err_exact <= 1.0


def test_report_keeps_misses_where_one_minus_rounds_to_one(case1, case2):
    """At high SNR every pair's miss lies far below the spacing of doubles
    next to 1, so 1 - miss reads exactly 1.0; the report keeps each miss
    in tail form, positive, on the line the tail past the pair's decision
    interval, and p_err_exact is their prior-weighted sum."""
    for cc, sigma2 in ((t2_cc(case1), 10.0**-2.6), (build_cc(-1.0, 0.8, -0.9, 0.7, 0.707, case2),
                                                     0.004)):
        rep = exact_error(cc, sigma2)
        assert all(m > 0.0 and 1.0 - m == 1.0 for m in rep.miss_per_pair), rep
        assert rep.p_err_exact == math.fsum(
            p * m for p, m in zip(cc.priors.as_tuple(), rep.miss_per_pair))
        if rep.method == "collinear":
            for uv, miss in zip(BIT_PAIRS, rep.miss_per_pair):
                lo, hi, _ = collinear_decision_interval(cc, sigma2, uv)
                want = qfunc(hi / math.sqrt(sigma2)) + qfunc(-lo / math.sqrt(sigma2))
                assert abs(miss - want) <= 5e-13 * want, uv
        else:
            assert rep.method == "planar"


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


def _agrees(ref, got, units, union_units, order=(0, 1, 2, 3), misses=True, method=None):
    """got reports what ref does, with ref's misses taken in order, each value
    within units eps per unit of -ln of the larger of the two (at least 1):
    a tail's relative error grows with its depth. The union bound takes
    union_units; 0 asks for equal values."""
    assert (got.method, got.bijective) == (method or ref.method, ref.bijective)
    pairs = [(ref.p_err_exact, got.p_err_exact, units),
             (ref.p_err_union, got.p_err_union, union_units)]
    if misses:
        pairs += [(ref.miss_per_pair[k], m, units) for k, m in zip(order, got.miss_per_pair)]
    for a, b, n in pairs:
        top = max(a, b)
        bound = n * 2.0**-52 * top * max(1.0, -math.log(top)) if top > 0.0 else 0.0
        assert abs(a - b) <= bound, (ref, got)


@pytest.mark.parametrize("draws", [800, pytest.param(8000, marks=pytest.mark.slow)])
def test_engine_invariances(draws):
    """exact_error's report under the maps that leave the MAP problem as it
    is, on seeded superpositions {b, b + d2, b + d1, b + d1 + d2}, 60%
    planar: b, d1 and d2 on a 2^-20 grid within +-4, so that a shift by up
    to 2^31 holds every point exactly; priors uniform weights plus 0.02,
    normalised; sigma2 log-uniform on [1e-3, 3]. Each bound (see _agrees)
    is about twice the worst of 100 000 draws:
    - relabelling sender 1's bit, conjugation, and a shift: equal reports;
    - swapping the senders (a01 with a10), and a collinear case shifted off
      the axis, which takes the planar path: 4 (measured 2.1), the union
      bound equal;
    - scaling the points by k and sigma2 by k^2, and a rotation, which
      takes a collinear case to the planar path: 64 (measured 35) on the
      error and the union bound. A planar miss is a difference of tails, so
      its relative error is not bounded where it is far below them.
    """
    rng = random.Random(draws)

    def dyadic():
        return rng.randint(-2**22, 2**22) * 2.0**-20

    for _ in range(draws):
        planar = rng.random() < 0.6
        b = complex(dyadic(), dyadic() if planar else 0.0)
        d1 = dyadic()
        d2 = complex(dyadic(), dyadic() if planar else 0.0)
        w = [rng.random() + 0.02 for _ in range(4)]
        p = [x / sum(w) for x in w]
        sigma2 = 10.0 ** rng.uniform(-3.0, math.log10(3.0))
        pts = (b, b + d2, b + d1, b + d1 + d2)

        def report(order=(0, 1, 2, 3), move=lambda a: a, k=1.0):
            cc = CombinedConstellation(*(move(pts[i]) for i in order),
                                       from_joint(*(p[i] for i in order)))
            return exact_error(cc, sigma2 * k * k)

        ref = report()
        _agrees(ref, report((0, 2, 1, 3)), 4, 0, order=(0, 2, 1, 3))
        _agrees(ref, report((2, 3, 0, 1)), 0, 0, order=(2, 3, 0, 1))
        _agrees(ref, report(move=lambda a: a.conjugate()), 0, 0)
        for k in (2.0**-10, 2.0**7, 1e-3, 1e3):
            _agrees(ref, report(move=lambda a: a * k, k=k), 64, 64, misses=False)
        r = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        _agrees(ref, report(move=lambda a: a * r), 64, 64, misses=False, method="planar")
        sign = rng.choice((-1.0, 1.0))
        for t in (complex(sign * 2.0**31), complex(0.0, sign * 2.0**31),
                  complex(rng.randint(-2**51, 2**51), rng.randint(-2**51, 2**51)) * 2.0**-20):
            off = not planar and t.imag != 0.0
            _agrees(ref, report(move=lambda a: a + t), 4 if off else 0, 0,
                    method="planar" if off else None)


@pytest.mark.parametrize("points, shifts, source, sigma2, want, method", [
    ((-3, -2, 1, 2), (0, 1e6, 1e8, 1e9, 2e9), "case1", 0.1, 0.007839495579924149, "collinear"),
    ((1, 3, 4, 6), (0, 1e9), (0.1, 0.2, 0.3, 0.4), 0.5, 0.19159980852253786, "collinear"),
    ((0, 1 + 1j, 2, 3 + 1j), (0, 1e9 + 1e9j), "case1", 0.1, 0.002472022332409641, "planar"),
])
def test_reports_survive_large_shifts(request, points, shifts, source, sigma2, want, method):
    """A shift by up to 2e9, whose rounding these integer points escape,
    leaves the report as it is: the coincidence tolerance follows the
    largest pairwise distance, not the largest point magnitude."""
    pr = request.getfixturevalue(source) if isinstance(source, str) else from_joint(*source)
    reports = {exact_error(CombinedConstellation(*(complex(a + t) for a in points), pr), sigma2)
               for t in shifts}
    assert len(reports) == 1
    rep = reports.pop()
    assert (rep.p_err_exact, rep.method, rep.bijective) == (want, method, True)


def test_planar_path_refuses_points_that_are_no_superposition(case2):
    """alpha_uv takes each diagonal difference as the sum of its two sides,
    which holds for a superposition a_uv = s1u + s2v alone. These points
    are none (a01 - a00 = 2.4375 + 0.5j, a11 - a10 = -1.5 + 1j): the
    planar formula read 0.0026 for them, where Monte Carlo reads 0.108. The
    planar path refuses them, and the union bound, which takes any four
    points, still bounds Monte Carlo. Points combine builds pass the check
    at every shift, its rounding included."""
    pr = from_joint(0.1, 0.2, 0.3, 0.4)
    cc = CombinedConstellation(1, 3.4375 + 0.5j, 3.25, 1.75 + 1j, pr)
    for path in (exact_error, exact_error_planar):
        with pytest.raises(NotSuperposition):
            path(cc, 0.1)
    sim = simulate(cc, 0.1, 400_000, 20260815)
    assert sim.p_hat - sim.ci_halfwidth > 0.1
    assert union_bound(cc, 0.1) >= sim.p_hat - sim.ci_halfwidth
    c1, c2 = from_amplitudes(-1.1, 0.8, -0.7, 0.9, 0.383)
    want = exact_error(combine(c1, c2, case2), 0.12).p_err_exact
    for t in (math.pi * 1e9, math.e * 1e9j, 1e9 + 1e9j):
        shifted = combine(Constellation(c1.s0 + t, c1.s1 + t), c2, case2)
        assert exact_error(shifted, 0.12).p_err_exact == pytest.approx(want, rel=1e-5)


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


def _random_sign_case_geometries(rng, count):
    """count random (d1, d2, sigma), a quarter of them near the |d1| = |d2|
    boundary (ratio 1 +- 1e-6), spread over all eight sign cases, with
    sigma log-uniform on [0.03, 5]."""
    big = rng.uniform(0.05, 4.0, count)
    ratio = rng.uniform(0.01, 0.99, count)
    ratio[: count // 4] = 1.0 - 1e-6
    ratio[count // 4: count // 2] = 1.0 / (1.0 + 1e-6)
    small = big * ratio
    wider = rng.integers(0, 2, count).astype(bool)
    d1, d2 = np.where(wider, big, small), np.where(wider, small, big)
    d1 *= rng.choice([-1.0, 1.0], count)
    d2 *= rng.choice([-1.0, 1.0], count)
    sigma = np.exp(rng.uniform(math.log(0.03), math.log(5.0), count))
    return zip(d1.tolist(), d2.tolist(), sigma.tolist())


def test_high_snr_forms_match_hand_coded(case1, case2):
    rng = np.random.default_rng(2017)
    for pri in (case1, case2):
        for sigma in (0.2, 0.1):
            for case, (d1, d2) in SIGN_CASE_GEOMETRY.items():
                got = high_snr_correct_prob(case, d1, d2, pri, sigma)
                want = hand_correct_prob(case, d1, d2, pri, sigma)
                assert got == pytest.approx(want, abs=1e-14), case
        seen = set()
        for d1, d2, sigma in _random_sign_case_geometries(rng, 2000):
            case = collinear_sign_case(d1, d2)
            seen.add(case)
            got = high_snr_correct_prob(case, d1, d2, pri, sigma)
            want = hand_correct_prob(case, d1, d2, pri, sigma)
            assert got == pytest.approx(want, abs=1e-14), (case, d1, d2, sigma)
        assert seen == set(range(1, 9))


def test_high_snr_form_revalidates_case(case1):
    with pytest.raises(CaseMismatch):
        high_snr_correct_prob(1, 1.4, 2.2, case1, 0.1)
    for case in (0, 9):
        with pytest.raises(CaseMismatch, match=f"case must be 1..8, got {case}"):
            high_snr_correct_prob(case, 2.2, 1.4, case1, 0.1)


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


def test_scalar_engine_imports_neither_numpy_nor_scipy():
    # analysis is the scalar engine on the math module alone; the batched
    # tail and the scipy loader live in _kernels, so a second Gaussian tail
    # cannot creep back into the scalar paths
    with open(analysis.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert not roots & {"numpy", "scipy"}


def _import_time_imports(path):
    """(absolute roots, relative module names) that a module imports when it
    is loaded: every import statement outside a function body."""
    with open(path, encoding="utf-8") as fh:
        stack = list(ast.parse(fh.read()).body)
    roots, relative = set(), set()
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                roots.add(node.module.split(".")[0])
            elif node.module is None:
                relative.update(alias.name for alias in node.names)
            else:
                relative.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return roots, relative


def test_only_kernels_import_numpy_at_module_level():
    # import gmacpam and every scalar path stay off numpy: only _kernels
    # imports it when loaded, and no other module loads _kernels then
    package = os.path.dirname(analysis.__file__)
    numpy_users, kernel_users = set(), set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            roots, relative = _import_time_imports(os.path.join(package, name))
            if roots & {"numpy", "scipy"}:
                numpy_users.add(name)
            if "_kernels" in relative:
                kernel_users.add(name)
    assert numpy_users == {"_kernels.py"}
    assert kernel_users == set()


def test_package_has_no_unused_imports():
    # no linter is installed, so this is the package's unused-import check:
    # every name a module imports is read somewhere in that module, unless
    # its import statement says noqa: F401; __init__ imports to re-export
    package = os.path.dirname(analysis.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []

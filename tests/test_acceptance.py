"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints exactly one
``ACCEPTANCE nn: PASS/FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing run). Tolerances are fixed here and must not
be loosened; a failing criterion stays red until the underlying behaviour
is fixed.
"""

import math
import time

import numpy as np
import pytest

from gmacpam.analysis import (
    closed_form_qam,
    collinear_pair_threshold,
    collinear_sign_case,
    exact_error,
    high_snr_correct_prob,
    union_bound,
)
from gmacpam.config import convert_snr
from gmacpam.design import (
    DesignInput,
    d_max,
    design,
    design_collinear,
    individually_optimized,
    max_separation,
    numerical_search,
)
from gmacpam.analysis import is_bijective
from gmacpam.simulate import derive_seed, simulate
from gmacpam.sources import from_joint

from conftest import build_cc, collinear_cc

S18 = 10.0**-1.8  # 18 dB under the table-reproduction convention
S08 = 10.0**-0.8


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _canonical_s2(res, p2: float) -> tuple[float, float]:
    """Pick the reporting orientation of a sender-2 pair.

    Both roots of the power constraint give the same error probability
    (the combined constellation just translates), so a search may return
    either. Report the one with the smaller low amplitude.
    """
    d = res.a21 - res.a20
    tw0 = -2.0 * (1.0 - p2) * d - res.a20
    return min((res.a20, res.a21), (tw0, tw0 + d), key=lambda pair: pair[0])


# ---------------------------------------------------------------------------
# 1 + 2: tabulated design points at 18 dB
# ---------------------------------------------------------------------------


def _design_point_checks(priors, ref_joint, ref_search):
    t0 = time.perf_counter()
    inp = DesignInput(priors, 1.0, 1.0, 1.0, S18)

    ind = individually_optimized(inp)
    want1 = max_separation(priors.p1, 1.0)
    ok_ind = (
        abs(ind.a10 - want1[0]) <= 1e-9
        and abs(ind.a11 - want1[1]) <= 1e-9
    )

    joint = design_collinear(inp)
    ok_joint = (
        abs(joint.a20 - ref_joint[0]) <= 1e-3
        and abs(joint.a21 - ref_joint[1]) <= 1e-3
    )

    search = numerical_search(inp, grid=400)
    s20, s21 = _canonical_s2(search, priors.p2)
    diff = max(abs(s20 - ref_search[0]), abs(s21 - ref_search[1]))
    ok_search = diff <= 2e-2

    elapsed = time.perf_counter() - t0
    ok = ok_ind and ok_joint and ok_search and elapsed < 60.0
    detail = (
        f"ind={'ok' if ok_ind else 'BAD'} "
        f"joint=({joint.a20:.4f},{joint.a21:.4f}) "
        f"search=({s20:.4f},{s21:.4f}) diff={diff:.4f} "
        f"elapsed={elapsed:.1f}s"
    )
    return ok, detail


def test_acceptance_01_design_points_strongly_correlated_source(case1):
    ok, detail = _design_point_checks(
        case1, ref_joint=(-2.421, -0.678), ref_search=(-2.401, -0.686)
    )
    _verdict(1, ok, detail)


def test_acceptance_02_design_points_asymmetric_source(case2):
    ok, detail = _design_point_checks(
        case2, ref_joint=(-1.408, -0.131), ref_search=(-1.406, -0.151)
    )
    _verdict(2, ok, detail)


# ---------------------------------------------------------------------------
# 3: exact analysis agrees with long simulations on random configurations
# ---------------------------------------------------------------------------


def test_acceptance_03_exact_error_matches_simulation():
    rng = np.random.default_rng(777)
    picked = []
    while len(picked) < 50:
        pr = rng.dirichlet(np.ones(4))
        if pr.min() < 0.03:
            continue
        priors = from_joint(*pr)
        r = rng.uniform()
        if r < 0.25:
            gphi = 1.0 if rng.uniform() < 0.5 else -1.0
        elif r < 0.4:
            gphi = 0.0
        else:
            gphi = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-2.0, 2.0, 4)
        cc = build_cc(a[0], a[1], a[2], a[3], gphi, priors)
        if not is_bijective(cc):
            continue
        pts = cc.as_array()
        dmin = min(
            abs(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)
        )
        if dmin < 0.05:
            continue
        # walk the noise up until the error rate is large enough to measure
        for s2 in np.geomspace(3e-4, 1.0, 14):
            pe = exact_error(cc, s2).p_err_exact
            if 2e-3 <= pe <= 3e-2:
                picked.append((cc, s2, pe))
                break

    hits = 0
    for i, (cc, s2, pe) in enumerate(picked):
        res = simulate(cc, s2, 10_000_000, derive_seed(424242, i))
        if abs(res.p_hat - pe) <= res.ci_halfwidth:
            hits += 1
    _verdict(3, hits >= 48, f"{hits}/50 inside the 3-sigma interval")


# ---------------------------------------------------------------------------
# 4: orthogonal pulses + uniform sources reduce to the product form
# ---------------------------------------------------------------------------


def test_acceptance_04_orthogonal_uniform_closed_form(uniform):
    worst = 0.0
    for a10, a11, a20, a21 in ((-1.0, 1.0, -0.7, 0.7), (0.3, 2.3, -1.1, 0.3)):
        cc = build_cc(a10, a11, a20, a21, 0.0, uniform)
        d1 = abs(a11 - a10)
        d2 = abs(a21 - a20)
        for s2 in (1.0, 0.1, 0.01):
            report = exact_error(cc, s2)
            assert report.method == "planar"
            got = report.p_err_exact
            want = closed_form_qam(d1, d2, math.sqrt(s2))
            worst = max(worst, abs(got - want))
    _verdict(4, worst <= 1e-10, f"worst |exact - closed form| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5: decision thresholds match hand arithmetic; error rate matches a long run
# ---------------------------------------------------------------------------

ROW_RIVALS = (
    ((0, 0), ((1, 0), (0, 1), (1, 1))),
    ((1, 0), ((0, 0), (1, 1), (0, 1))),
    ((0, 1), ((0, 0), (1, 1), (1, 0))),
    ((1, 1), ((0, 1), (1, 0), (0, 0))),
)


def test_acceptance_05_decision_thresholds_and_simulation(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S08)
    cc = design_collinear(inp).combined(inp)
    prob = {
        (u, v): case1.prob(u, v) for u in (0, 1) for v in (0, 1)
    }

    worst = 0.0
    for uv, rivals in ROW_RIVALS:
        for lm in rivals:
            c = cc.point(*lm).real - cc.point(*uv).real
            want_kind = "upper" if c > 0 else "lower"
            want = c / 2.0 + S08 * math.log(prob[uv] / prob[lm]) / c
            kind, got = collinear_pair_threshold(cc, S08, uv, lm)
            assert kind == want_kind
            worst = max(worst, abs(got - want))
    ok_thresholds = worst <= 1e-12

    pe = exact_error(cc, S08).p_err_exact
    res = simulate(cc, S08, 10**8, seed=20260815)
    ok_sim = abs(res.p_hat - pe) <= res.ci_halfwidth

    _verdict(
        5,
        ok_thresholds and ok_sim,
        f"worst threshold diff {worst:.1e}; "
        f"sim {res.p_hat:.6e} vs exact {pe:.6e} "
        f"(halfwidth {res.ci_halfwidth:.1e})",
    )


# ---------------------------------------------------------------------------
# 6: the union bound never undercuts the exact error
# ---------------------------------------------------------------------------

NOISE_LADDER = (1.0, 0.1, 0.01, 1e-3, 2.5e-4)


def _distinct_gaps_ok(dists) -> bool:
    """True when sorted distances form well separated tie groups."""
    reps = [dists[0]]
    for dd in dists[1:]:
        if dd / reps[-1] - 1.0 <= 1e-9:
            continue
        reps.append(dd)
    return all(b / a - 1.0 >= 0.01 for a, b in zip(reps, reps[1:]))


def test_acceptance_06_union_bound_dominates():
    rng = np.random.default_rng(20260815)
    n_cfg = 0
    violations = 0
    worst_ratio = 1.0
    while n_cfg < 1000:
        pr = rng.dirichlet(np.ones(4))
        if pr.min() < 0.02:
            continue
        r = rng.uniform()
        if r < 0.2:
            gphi = 1.0 if rng.uniform() < 0.5 else -1.0
        elif r < 0.3:
            gphi = 0.0
        else:
            gphi = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-2.0, 2.0, 4)
        if abs(a[1] - a[0]) < 1e-3 or abs(a[3] - a[2]) < 1e-3:
            continue
        priors = from_joint(*pr)
        cc = build_cc(a[0], a[1], a[2], a[3], gphi, priors)
        pts = cc.as_array()
        dists = sorted(
            abs(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)
        )
        if dists[0] < 1e-3 or not _distinct_gaps_ok(dists):
            continue
        s = 1.0 / dists[0]  # normalize the closest pair to unit distance
        cc = build_cc(a[0] * s, a[1] * s, a[2] * s, a[3] * s, gphi, priors)
        n_cfg += 1

        for s2 in NOISE_LADDER:
            ex = exact_error(cc, s2).p_err_exact
            ub = union_bound(cc, s2)
            if ub < ex:
                violations += 1
            if s2 == NOISE_LADDER[-1] and is_bijective(cc) and ex > 0.0:
                worst_ratio = max(worst_ratio, ub / ex)

    ok = violations == 0 and 1.0 <= worst_ratio <= 1.1
    _verdict(
        6,
        ok,
        f"{violations} violations in 5000 checks; "
        f"worst small-noise ratio {worst_ratio:.12f}",
    )


# ---------------------------------------------------------------------------
# 7: sign-case approximations converge on the exact correct probability
# ---------------------------------------------------------------------------

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


def test_acceptance_07_sign_case_approximations(case1):
    worst = 0.0
    for snr_db in (18.0, 21.0):
        s2 = 10.0 ** (-snr_db / 10.0)
        sigma = math.sqrt(s2)
        for case, (d1, d2) in SIGN_CASE_GEOMETRY.items():
            assert collinear_sign_case(d1, d2) == case
            cc = collinear_cc(d1, d2, case1)
            exact_pc = 1.0 - exact_error(cc, s2).p_err_exact
            approx = high_snr_correct_prob(case, d1, d2, case1, sigma)
            worst = max(worst, abs(approx - exact_pc))
    _verdict(7, worst <= 1e-4, f"worst |approx - exact| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8: no feasible pair beats the separation limit
# ---------------------------------------------------------------------------


def test_acceptance_08_separation_never_exceeds_energy_limit():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for p, e in ((0.1, 1.0), (0.2, 1.0), (0.5, 2.0)):
        limit = d_max(p, e)
        # the full power shell: p*a0^2 + (1-p)*a1^2 = e for every angle
        th = rng.uniform(0.0, 2.0 * math.pi, 10_000)
        a0 = math.sqrt(e / p) * np.cos(th)
        a1 = math.sqrt(e / (1.0 - p)) * np.sin(th)
        assert np.abs(p * a0**2 + (1.0 - p) * a1**2 - e).max() <= 1e-9 * e
        top = np.abs(a1 - a0).max()
        ok = ok and top <= limit + 1e-9
        # the analytic extreme point reaches the limit exactly
        lo, hi = max_separation(p, e)
        ok = ok and abs((hi - lo) - limit) <= 1e-12
        details.append(f"p={p}: max {top:.9f} <= {limit:.9f}")
    _verdict(8, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9: joint designs dominate individual ones, with the expected margins
# ---------------------------------------------------------------------------

SNR_GRID = np.linspace(8.0, 22.0, 141)


def _pe_curve(priors, e1, e2, gphi, scheme):
    out = np.empty(len(SNR_GRID))
    for i, snr in enumerate(SNR_GRID):
        s2 = convert_snr(snr, "sum-energy", e1, e2, gphi)
        inp = DesignInput(priors, e1, e2, gphi, s2)
        res = design(scheme, inp)
        out[i] = exact_error(res.combined(inp), s2).p_err_exact
    return out


def _snr_at(pes, target=1e-5):
    lg = np.log10(np.maximum(pes, 1e-300))
    t = math.log10(target)
    for i in range(len(SNR_GRID) - 1):
        if (lg[i] - t) * (lg[i + 1] - t) <= 0.0 and lg[i] != lg[i + 1]:
            frac = (t - lg[i]) / (lg[i + 1] - lg[i])
            return SNR_GRID[i] + frac * (SNR_GRID[i + 1] - SNR_GRID[i])
    raise AssertionError("error-rate curve never crosses the target")


def test_acceptance_09_joint_design_gains(case1, case2):
    # fully correlated pulses, equal energies: joint never loses
    ind = _pe_curve(case1, 1.0, 1.0, 1.0, "individual")
    joint = _pe_curve(case1, 1.0, 1.0, 1.0, "joint")
    mask = SNR_GRID >= 10.0 - 1e-12
    ok_order = bool(np.all(joint[mask] <= ind[mask]))

    # unequal energies: the documented ~3 dB margin at 1e-5
    ind9 = _pe_curve(case1, 2.0, 1.0, 1.0, "individual")
    joint9 = _pe_curve(case1, 2.0, 1.0, 1.0, "joint")
    gap9 = _snr_at(ind9) - _snr_at(joint9)
    ok_gap = 2.5 <= gap9 <= 3.5

    # partially correlated pulses: planar joint designs keep a margin
    gains = {}
    for name, priors in (("case1", case1), ("case2", case2)):
        ind_g = _pe_curve(priors, 1.0, 1.0, 0.924, "individual")
        joint_g = _pe_curve(priors, 1.0, 1.0, 0.924, "joint")
        gains[name] = _snr_at(ind_g) - _snr_at(joint_g)
    ok_gain1 = gains["case1"] >= 1.0
    ok_gain2 = gains["case2"] >= 2.0

    ok = ok_order and ok_gap and ok_gain1 and ok_gain2
    _verdict(
        9,
        ok,
        f"order={'ok' if ok_order else 'BAD'} "
        f"gap={gap9:.3f}dB "
        f"gain1={gains['case1']:.3f}dB "
        f"gain2={gains['case2']:.3f}dB",
    )


# ---------------------------------------------------------------------------
# 10: simulation results do not depend on the worker split
# ---------------------------------------------------------------------------


def test_acceptance_10_simulation_reproducibility(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S08)
    cc = design_collinear(inp).combined(inp)
    runs = {
        w: simulate(cc, S08, 300_000, seed=20260815, workers=w)
        for w in (1, 4, 16)
    }
    counts = {w: r.errors for w, r in runs.items()}
    ok = len(set(counts.values())) == 1 and counts[1] > 0
    _verdict(10, ok, f"errors by worker count: {counts}")


@pytest.mark.slow
def test_slow_simulation_confirms_rare_error_rate(case1):
    """Very long run at an operating point near a 1e-6 error rate."""
    s2 = 10.0**-1.45
    inp = DesignInput(case1, 1.0, 1.0, 1.0, s2)
    cc = design_collinear(inp).combined(inp)
    pe = exact_error(cc, s2).p_err_exact
    assert 1e-7 <= pe <= 1e-5
    res = simulate(cc, s2, 2_000_000_000, seed=20260815)
    assert res.errors > 0
    assert abs(res.p_hat - pe) <= res.ci_halfwidth

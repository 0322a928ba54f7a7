"""Numerical kernels: counter-based RNG, Monte-Carlo counts, batched evaluators."""

import hashlib
import math
import struct

import numpy as np
import pytest

from gmacpam import (
    CombinedConstellation,
    DesignInput,
    convert_snr,
    design,
    design_collinear,
    exact_error_collinear,
    exact_error_planar,
)
from gmacpam import _kernels as K
from gmacpam._kernels import _qfunc_array
from gmacpam.analysis import collinear_decision_interval, qfunc
from gmacpam.decoder import decode
from gmacpam.geometry import coincidence_tol, sender2_axis
from gmacpam.sources import BIT_PAIRS, from_joint
from gmacpam.simulate import _decoder_tables, derive_seed, simulate

from conftest import build_cc

# FROZEN canaries: these pin the exact output stream across refactors.
DERIVED_0 = 6021866472996949974
DERIVED_1 = 492858990553551849
UNIFORMS_SEED1 = (
    0.5665615751722809,
    0.7457817572627011,
    0.9710027535867962,
    0.4443592170557721,
)


def test_uniforms_frozen_stream():
    u = K.uniforms_numpy(1, np.arange(4, dtype=np.uint64))
    assert u == pytest.approx(UNIFORMS_SEED1, abs=0.0)


def test_uniforms_range_and_determinism():
    counters = np.arange(100_000, dtype=np.uint64)
    a = K.uniforms_numpy(987654321, counters)
    b = K.uniforms_numpy(987654321, counters)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)
    # crude uniformity sanity: mean within 5 sigma of 1/2
    assert abs(a.mean() - 0.5) < 5.0 / np.sqrt(12.0 * a.size)


def test_uniforms_counter_sensitivity():
    # pure function of (seed, t): shifting counters shifts the stream
    c = np.arange(1000, dtype=np.uint64)
    a = K.uniforms_numpy(42, c)
    b = K.uniforms_numpy(42, c + np.uint64(1))
    assert np.array_equal(a[1:], b[:-1])
    assert a[0] != b[0]


def test_derive_seed_frozen():
    assert derive_seed(20260815, 0) == DERIVED_0
    assert derive_seed(20260815, 1) == DERIVED_1


def test_derive_seed_range_and_distinct():
    seeds = {derive_seed(20260815, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**63 for s in seeds)


@pytest.mark.parametrize("seed", [2**64 + 5, 2**63, -1])
def test_derive_seed_rejects_seeds_simulate_rejects(case1, seed):
    """derive_seed and the kernel stream take simulate's seed range, with
    simulate's message, so 2**64 + 5 never runs as seed 5."""
    cc = build_cc(*_T2, 1.0, case1)
    tables = _decoder_tables(cc, 0.1)
    for call in (lambda: derive_seed(seed, 0), lambda: simulate(cc, 0.1, 10, seed),
                 lambda: K.uniforms_numpy(seed, np.arange(4, dtype=np.uint64)),
                 lambda: K.mc_error_count(*tables, 0.1, seed, 0, 10)):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer below 2\*\*63$"):
            call()
    assert 0 <= derive_seed(2**63 - 1, 0) < 2**63


def test_mc_backends_agree(case1):
    cc = build_cc(-3.0, 1.0 / 3.0, -2.421, -0.678, 1.0, case1)
    tables = _decoder_tables(cc, 10.0**-0.8)
    a = K.mc_error_count(*tables, 10.0**-0.8, 20260815, 0, 200_000)
    assert a > 0
    # chunked starts compose exactly
    a1 = K.mc_error_count(*tables, 10.0**-0.8, 20260815, 0, 120_000)
    a2 = K.mc_error_count(*tables, 10.0**-0.8, 20260815, 120_000, 80_000)
    assert a1 + a2 == a


# FROZEN Monte-Carlo counts, recorded from the unblocked searchsorted and
# argmax kernel: any change means a trial's stream or decision moved. Each
# case is (amplitudes, gamma_phi, source, sigma2); the rows are MC_SEEDS and
# the columns MC_RANGES, whose (start, n) pairs straddle block edges (of
# 1 << 14 trials, and of 1 << 15 for the last two) from even, odd and
# 2**40-scale starts.
MC_SEEDS = (1, 20260815, 2**62 + 12345)
MC_RANGES = ((0, 16_385), (16_383, 16_385), (49_159, 32_773), (2**40 + 1, 40_001))
_T2 = (-3.0, 1.0 / 3.0, -2.421, -0.678)
_PLANAR = (-1.0, 0.8, -0.9, 0.7)
MC_FROZEN = {
    "gamma+1": (_T2, 1.0, "case1", 10.0**-0.8,
                [[46, 42, 75, 105], [42, 53, 99, 106], [46, 39, 86, 123]]),
    "gamma-1": (_T2, -1.0, "case1", 10.0**-0.8,
                [[231, 235, 478, 528], [236, 207, 438, 574], [226, 220, 438, 570]]),
    "gamma0": (_PLANAR, 0.0, "case2", 0.25,
               [[1132, 1187, 2315, 2799], [1164, 1131, 2344, 2918], [1153, 1201, 2248, 2824]]),
    "gamma0.707": (_PLANAR, 0.707, "case2", 0.25,
                   [[1203, 1230, 2396, 2924], [1206, 1196, 2416, 2967], [1234, 1227, 2310, 2927]]),
    # identical antipodal senders, as in test_ambiguity_floor: two pairs
    # share a point, so every decision between them is an exact tie
    "tied": ((-1.0, 1.0, -1.0, 1.0), 1.0, "uniform", 1e-4,
             [[4042, 4143, 8226, 9896], [4032, 3995, 8246, 9887], [4190, 4151, 8246, 10012]]),
}


@pytest.mark.parametrize("name", list(MC_FROZEN))
def test_mc_counts_frozen(request, name):
    amps, gamma_phi, source, sigma2, want = MC_FROZEN[name]
    cc = build_cc(*amps, gamma_phi, request.getfixturevalue(source))
    tables = _decoder_tables(cc, sigma2)
    got = [
        [K.mc_error_count(*tables, sigma2, seed, start, n) for start, n in MC_RANGES]
        for seed in MC_SEEDS
    ]
    assert got == want


def _draws(cdf, seed, start, n):
    """Sent pair and the two Box-Muller uniforms of trials [start, start + n)."""
    t = np.arange(start, start + n, dtype=np.uint64) * np.uint64(3)
    u0, u1, u2 = (K.uniforms_numpy(seed, t + np.uint64(j)) for j in range(3))
    return np.searchsorted(cdf[:3], u0, side="right"), u1, u2


def _received(ax, ay, sigma2, idx, u1, u2):
    """Received samples, formed as the kernel forms them."""
    r = math.sqrt(sigma2) * np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * math.pi) * u2
    return ax[idx] + r * np.cos(ang), ay[idx] + r * np.sin(ang)


def _reference_decisions(ax, ay, bias, sigma2, rre, rim):
    """(n, 4) score matrix and argmax."""
    scores = bias[None, :] + (np.outer(rre, ax) + np.outer(rim, ay)) / sigma2
    return np.argmax(scores, axis=1)


def _reference_count(ax, ay, bias, cdf, sigma2, seed, start, n):
    """The unblocked, unscreened kernel: every trial drawn and scored."""
    idx, u1, u2 = _draws(cdf, seed, start, n)
    rre, rim = _received(ax, ay, sigma2, idx, u1, u2)
    return int(np.count_nonzero(_reference_decisions(ax, ay, bias, sigma2, rre, rim) != idx))


@pytest.mark.parametrize("name", ["gamma+1", "gamma0.707", "tied", "overflow"])
def test_mc_matches_reference(request, name):
    # "overflow": a subnormal sigma2 turns scores into NaN, which argmax
    # takes as the maximum; the kernel must break those the same way
    amps, gamma_phi, source, sigma2, _ = MC_FROZEN["gamma+1" if name == "overflow" else name]
    if name == "overflow":
        sigma2 = 1e-310
    cc = build_cc(*amps, gamma_phi, request.getfixturevalue(source))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        tables = _decoder_tables(cc, sigma2)
        for seed in MC_SEEDS:
            want = _reference_count(*tables, sigma2, seed, 16_383, 40_001)
            assert K.mc_error_count(*tables, sigma2, seed, 16_383, 40_001) == want


# ---------------------------------------------------------------------------
# the safe-disk screen
# ---------------------------------------------------------------------------


def _screen_cases():
    """Seeded random constellations for the screen, as (name, cc, sigma2).

    Collinear and planar; plain, with one pair just outside and with one
    just inside the coincidence tolerance; cases 6-11 and 18-23 with one
    prior set to 1e-6 or 1e-4; sigma2 spread from 1e-6 to 10. Last,
    MC_FROZEN's tied constellation.
    """
    rng = np.random.Generator(np.random.PCG64(2026))
    sigma2s = np.logspace(-6.0, 1.0, 24)
    cases = []
    for k in range(24):
        planar = k % 2 == 1
        pts = rng.uniform(-2.0, 2.0, 4) + 1j * (rng.uniform(-2.0, 2.0, 4) if planar else 0.0)
        near = ("plain", "outside", "inside")[k // 2 % 3]
        if near != "plain":
            i, j = rng.choice(4, size=2, replace=False)
            step = np.exp(2j * math.pi * rng.uniform()) if planar else rng.choice([-1.0, 1.0])
            for _ in range(2):  # the tolerance follows the largest point
                tol = coincidence_tol(np.max(np.abs(pts)))
                pts[j] = pts[i] + (1.01 if near == "outside" else 0.99) * tol * step
        pr = rng.dirichlet(np.ones(4))
        if k // 6 % 2:
            pr[rng.integers(4)] = rng.choice([1e-6, 1e-4])
        cc = CombinedConstellation(*pts.tolist(), from_joint(*(pr / pr.sum())))
        geometry = "planar" if planar else "collinear"
        cases.append((f"{k}-{geometry}-{near}", cc, float(sigma2s[7 * k % 24])))
    amps, gamma_phi, _, sigma2, _ = MC_FROZEN["tied"]
    cases.append(("tied", build_cc(*amps, gamma_phi, from_joint(0.25, 0.25, 0.25, 0.25)), sigma2))
    return cases


SCREEN_CASES = _screen_cases()


@pytest.mark.parametrize("name, cc, sigma2", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_screen_keeps_counts(name, cc, sigma2):
    tables = _decoder_tables(cc, sigma2)
    seed = MC_SEEDS[len(name) % len(MC_SEEDS)]
    for start, n in MC_RANGES:
        want = _reference_count(*tables, sigma2, seed, start, n)
        assert K.mc_error_count(*tables, sigma2, seed, start, n) == want, (start, n)


@pytest.mark.parametrize("name, cc, sigma2", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_screened_trials_decode_to_sent_pair(name, cc, sigma2):
    """Trials below their point's cut, drawn from the stream and placed at
    the disk's edge (the largest u1 below the cut, at 64 angles), all
    decode to the sent pair, under the kernel's scores and under decode."""
    ax, ay, bias, cdf = _decoder_tables(cc, sigma2)
    cut = K.safe_disk(ax, ay, bias, sigma2)[1]
    idx, u1, u2 = _draws(cdf, MC_SEEDS[0], 2**40 + 1, 4000)
    inside = np.flatnonzero(u1 < cut[idx])
    edge = np.repeat(np.flatnonzero(cut > 0.0), 64)
    idx = np.concatenate([idx[inside], edge])
    u1 = np.concatenate([u1[inside], np.nextafter(cut[edge], 0.0)])
    u2 = np.concatenate([u2[inside], np.tile(np.arange(64) / 64.0, edge.size // 64)])
    if name.endswith("inside") or name == "tied":
        # a coincident pair's two points have no disk
        assert np.count_nonzero(cut) <= 2
    rre, rim = _received(ax, ay, sigma2, idx, u1, u2)
    assert np.array_equal(_reference_decisions(ax, ay, bias, sigma2, rre, rim), idx)
    for k, x, y in zip(idx.tolist(), rre.tolist(), rim.tolist()):
        assert decode(complex(x, y), cc, sigma2) == BIT_PAIRS[k]


@pytest.mark.parametrize("snr_db", [8.0, 12.0, 18.0])
def test_safe_disk_matches_decision_interval(case1, case2, snr_db):
    """On a collinear design the disk is the decision interval's nearer
    edge, shrunk by less than 1e-9 of it."""
    sigma2 = 10.0 ** (-snr_db / 10.0)
    for pri in (case1, case2):
        inp = DesignInput(pri, 1.0, 1.0, 1.0, sigma2)
        cc = design_collinear(inp).combined(inp)
        rho, cut = K.safe_disk(*_decoder_tables(cc, sigma2)[:3], sigma2)
        for i, uv in enumerate(BIT_PAIRS):
            lo, hi, live = collinear_decision_interval(cc, sigma2, uv)
            want = max(min(hi, -lo), 0.0) if live else 0.0
            assert want * (1.0 - 1e-9) <= rho[i] <= want
            assert cut[i] == pytest.approx(
                max(-math.expm1(-rho[i] ** 2 / (2.0 * sigma2)), 0.0), rel=0.0, abs=2.0**-50)


def test_safe_disk_off_where_unproven(case1, uniform):
    # a coincident rival: the tied constellation's two shared points
    amps, gamma_phi, _, sigma2, _ = MC_FROZEN["tied"]
    tied = build_cc(*amps, gamma_phi, uniform)
    rho, cut = K.safe_disk(*_decoder_tables(tied, sigma2)[:3], sigma2)
    assert rho[1] == rho[2] == cut[1] == cut[2] == 0.0
    assert cut[0] > 0.9 and cut[3] > 0.9
    # non-finite tables: overflowing biases, then a NaN entry
    cc = build_cc(*_T2, 1.0, case1)
    with np.errstate(over="ignore"):
        ax, ay, bias, _ = _decoder_tables(cc, 1e-310)
    assert not np.any(K.safe_disk(ax, ay, bias, 1e-310)[1])
    ax, ay, bias, _ = _decoder_tables(cc, 0.1)
    assert np.all(K.safe_disk(ax, ay, bias, 0.1)[1] > 0.0)
    bias[2] = math.nan
    assert not np.any(K.safe_disk(ax, ay, bias, 0.1)[1])


@pytest.mark.parametrize("point0, bias0, sigma2", [
    (1.7e308 + 1.7e308j, 0.0, 1.0),  # |a_0| past the float range
    (-1.0 - 1.0j, 1e308, 1.0),  # the score bound past it
    (-1.0 - 1.0j, 1e10, 1e300),  # inf - inf in a D_k and its margin
    (-1.0 - 1.0j, 1.0, 1e300),  # rho^2 / (2 sigma2) past it
])
def test_safe_disk_off_past_the_float_range(point0, bias0, sigma2):
    """Finite tables whose disk arithmetic leaves the float range give no
    disk: every trial takes the full decision."""
    ax, ay, bias = np.array([-1.0, 1.0, -1.0, 1.0]), np.array([-1.0, -1.0, 1.0, 1.0]), np.zeros(4)
    ax[0], ay[0], bias[0] = point0.real, point0.imag, bias0
    rho, cut = K.safe_disk(ax, ay, bias, sigma2)
    assert rho.tolist() == cut.tolist() == [0.0] * 4


# sha256 of the repr of every safe_disk rho and cut over _safe_disk_tables()
SAFE_DISK_SHA256 = "2316288bcae1675462c8f56d3fad933c12dce054aa04400f45da86b5df936e78"


def _safe_disk_tables(case1, case2, uniform):
    """(tables, sigma2) of the designed constellations of both sources, each
    gamma_phi of {1, 0.924, 0.707, 0}, 0-24 dB sum-energy SNR in 2 dB steps
    and the antipodal, individual and joint schemes; then the tied,
    overflowing-bias and NaN-bias tables of test_safe_disk_off_where_unproven,
    and SCREEN_CASES, whose near pairs straddle the coincidence tolerance."""
    cases = []
    for pri in (case1, case2):
        for gamma_phi in (1.0, 0.924, 0.707, 0.0):
            for snr_db in range(0, 25, 2):
                sigma2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
                inp = DesignInput(pri, 1.0, 1.0, gamma_phi, sigma2)
                for scheme in ("antipodal", "individual", "joint"):
                    cc = design(scheme, inp).combined(inp)
                    cases.append((_decoder_tables(cc, sigma2)[:3], sigma2))
    amps, gamma_phi, _, sigma2, _ = MC_FROZEN["tied"]
    cases.append((_decoder_tables(build_cc(*amps, gamma_phi, uniform), sigma2)[:3], sigma2))
    cc = build_cc(*_T2, 1.0, case1)
    with np.errstate(over="ignore"):
        cases.append((_decoder_tables(cc, 1e-310)[:3], 1e-310))
    ax, ay, bias, _ = _decoder_tables(cc, 0.1)
    bias[2] = math.nan
    cases.append(((ax, ay, bias), 0.1))
    cases += [(_decoder_tables(cc, sigma2)[:3], sigma2) for _, cc, sigma2 in SCREEN_CASES]
    return cases


def test_safe_disk_frozen_digest(case1, case2, uniform):
    """Every rho and cut, bit for bit, as the numpy version of safe_disk
    gave them."""
    h = hashlib.sha256()
    for tables, sigma2 in _safe_disk_tables(case1, case2, uniform):
        rho, cut = K.safe_disk(*tables, sigma2)
        assert rho.dtype == cut.dtype == np.float64
        h.update(" ".join(map(repr, rho.tolist() + cut.tolist())).encode() + b"\n")
    assert h.hexdigest() == SAFE_DISK_SHA256


def _words_drawn(monkeypatch, tables, sigma2, n):
    """64-bit words the kernel draws over trials [0, n), counted at the
    stage of the SplitMix finaliser that every drawn word goes through (all
    but its last step, which only the words the kernel goes on to use
    take)."""
    words = []
    mix = K._mix

    def counted(z, tmp):
        words.append(z.size)
        return mix(z, tmp)

    monkeypatch.setattr(K, "_mix", counted)
    K.mc_error_count(*tables, sigma2, 20260815, 0, n)
    return sum(words)


def _design_tables(priors, snr_db):
    sigma2 = 10.0 ** (-snr_db / 10.0)
    inp = DesignInput(priors, 1.0, 1.0, 1.0, sigma2)
    return _decoder_tables(design_collinear(inp).combined(inp), sigma2), sigma2


def test_screen_fires_at_acceptance_05_point(case1, monkeypatch):
    """At acceptance 05's point the outer points' cuts exceed 0.9, and the
    kernel draws the angle word for about 1% of the trials (at most 3%).
    Its smallest cut, about 0.47, is below 1/2, so every trial draws its
    radius and source words."""
    tables, sigma2 = _design_tables(case1, 8.0)
    cut = K.safe_disk(*tables[:3], sigma2)[1]
    assert cut[0] > 0.9 and cut[3] > 0.9
    assert 0.47 < cut.min() < 0.48
    n = 100_000
    assert 2 * n < _words_drawn(monkeypatch, tables, sigma2, n) < 2.03 * n


def test_source_word_drawn_only_past_smallest_cut(case1, monkeypatch):
    """At 10 dB the smallest cut is about 0.83: the kernel draws the radius
    word of every trial, the source word of the 17% past that cut and the
    angle word of under 1%, about 1.18 words a trial, where drawing every
    source word would make it at least 2."""
    tables, sigma2 = _design_tables(case1, 10.0)
    assert 0.82 < K.safe_disk(*tables[:3], sigma2)[1].min() < 0.83
    n = 100_000
    assert 1.16 * n < _words_drawn(monkeypatch, tables, sigma2, n) < 1.2 * n


def test_word_cut_is_exact(case1, case2):
    """u >= c exactly when w >= word_cut(c), at the words just below, at and
    just above the threshold, for edge values and for the safe_disk cuts
    and cdf entries of the case-1 and case-2 collinear designs from 0 to
    24 dB; for c = 1 no word reaches it."""
    cs = [0.0, 2.0**-53, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]
    for pri in (case1, case2):
        for snr_db in range(0, 25, 4):
            (ax, ay, bias, cdf), sigma2 = _design_tables(pri, snr_db)
            cs += K.safe_disk(ax, ay, bias, sigma2)[1].tolist() + cdf[:3].tolist()
    for c in cs:
        t = K.word_cut(c)
        words = [w for w in (t - 1, t, t + 1) if 0 <= w < 2**64]
        u = K._uniforms(np.array(words, dtype=np.uint64))
        assert [x >= c for x in u.tolist()] == [w >= t for w in words], c
        if t < 2**64:
            assert np.array_equal(np.array(words, dtype=np.uint64) >= np.uint64(t), u >= c)
        else:
            assert c == 1.0 and words == [2**64 - 1] and u[0] < 1.0


def _unfinish(w: int) -> int:
    """The word y before the finaliser's last step that gives w: the
    inverse of y ^ (y >> 31) on 64 bits."""
    return w ^ (w >> 31) ^ (w >> 62)


def _kernel_cuts(case1, case2):
    """Every radius-word and cdf cut the kernel compares on the case-1 and
    case-2 collinear designs from 0 to 24 dB (word_cut of 1, 2**64, is
    never compared, and is left out), and edge cuts up to the largest
    word_cut below 2**64, 2**64 - 2**11."""
    cuts = {0, 2**11, 2**31, 2**33 - 2**11, 2**33, 2**33 + 2**11, 2**56, 2**63,
            2**64 - 2**33, 2**64 - 2**11, K.word_cut(float(np.nextafter(1.0, 0.0)))}
    for pri in (case1, case2):
        for snr_db in range(0, 25, 4):
            (ax, ay, bias, cdf), sigma2 = _design_tables(pri, snr_db)
            cuts.update(map(K.word_cut, K.safe_disk(ax, ay, bias, sigma2)[1].tolist()
                            + cdf[:3].tolist()))
    assert 2**64 - 2**11 in cuts
    return sorted(c for c in cuts if c < 2**64)


def test_last_xorshift_keeps_the_top_31_bits(case1, case2):
    """The finaliser's last step leaves a word's top 31 bits, so its top
    byte, as they are: w >= c implies y >= pre_cut(c) for the word y before
    it, at the words just below, at and just above each cut the kernel
    compares and its pre_cut, and on random words."""
    rng = np.random.Generator(np.random.PCG64(36))
    randoms = rng.integers(0, 2**64, 4000, dtype=np.uint64).tolist()
    for c in _kernel_cuts(case1, case2):
        p = K.pre_cut(c)
        assert p <= c and p % 2**33 == 0 and c - p < 2**33
        ws = {w for base in (c, p, p + 2**33) for w in (base - 1, base, base + 1)
              if 0 <= w < 2**64} | {0, 2**64 - 1} | set(randoms[:40])
        ws, ys = sorted(ws), [_unfinish(w) for w in sorted(ws)]
        assert K._finish(np.array(ys, dtype=np.uint64), np.empty(len(ys), np.uint64)).tolist() == ws
        for w, y in zip(ws, ys):
            assert w >> 33 == y >> 33 and w >> 56 == y >> 56
            assert y >= p or w < c, (c, w)
    y = np.array(randoms, dtype=np.uint64)
    w = K._finish(y.copy(), np.empty_like(y))
    assert np.array_equal(w >> np.uint64(33), y >> np.uint64(33))
    assert [_unfinish(v) for v in w.tolist()] == randoms


# cdfs whose cuts fall on bucket edges (multiples of 1/256) and one word
# (2**-53) inside a bucket, below and above an edge
EDGE_CDFS = {
    "edges": (0.25, 0.5, 0.75),
    "inside": (0.25 + 2.0**-53, 0.5 - 2.0**-53, 0.75 + 2.0**-53),
}


def test_bucket_cuts_at_bucket_ends_and_cdf_cuts(case1, case2):
    """Every source word whose bucket is whole (holds no cdf cut past its
    first word) draws the bucket's pair, and its bucket cut is that pair's
    pre_cut; a bucket a cdf cut splits takes the smallest pre_cut of all.
    Checked at each bucket's first and last word and at each cdf cut and
    its neighbours, on the designs' cuts and the EDGE_CDFS."""
    tables = []
    for pri in (case1, case2):
        for snr_db in range(0, 25, 4):
            (ax, ay, bias, cdf), sigma2 = _design_tables(pri, snr_db)
            tables.append((K.safe_disk(ax, ay, bias, sigma2)[1], cdf[:3]))
    cut = tables[0][0]
    tables += [(cut, np.array(cdf)) for cdf in EDGE_CDFS.values()]
    tables.append((cut, np.array([0.1, 0.1, 1.0])))  # a repeated cut, and one rounding to 1
    firsts = [k << 56 for k in range(256)]
    for cuts, cdf in tables:
        cut = np.array([K.word_cut(c) for c in cuts.tolist()], dtype=np.uint64)
        cdf_cut = [w for w in map(K.word_cut, cdf.tolist()) if w < 2**64]
        table, pair = K._bucket_cuts(cut, [np.uint64(w) for w in cdf_cut])
        pre = [K.pre_cut(c) for c in cut.tolist()]
        split = {c >> 56 for c in cdf_cut if c % 2**56}
        assert len(split) <= 3
        words = firsts + [f + 2**56 - 1 for f in firsts]
        words += [w for c in cdf_cut for w in (c - 1, c, c + 1) if 0 <= w < 2**64]
        for w in words:
            k, b = sum(w >= c for c in cdf_cut), w >> 56
            if b in split:
                assert pair[b] == K._SPLIT and table[b] == min(pre), (w, cdf)
            else:
                assert pair[b] == k and table[b] == pre[k], (w, cdf)


@pytest.mark.parametrize("path", ["candidates", "full block"])
@pytest.mark.parametrize("cdf", list(EDGE_CDFS))
@pytest.mark.parametrize("name", ["gamma+1", "gamma0"])
def test_bucket_edge_sources_match_reference(request, monkeypatch, name, cdf, path):
    """Sources whose cdf cuts fall on bucket edges, or one word inside a
    bucket, give the decoder replay's count on MC_RANGES on the candidate
    path (which finishes fewer radius words than there are trials) and on
    the full-block path (which finishes every source and radius word)."""
    amps, gamma_phi, source, sigma2, _ = MC_FROZEN[name]
    ax, ay, bias, _ = _decoder_tables(build_cc(*amps, gamma_phi, request.getfixturevalue(source)),
                                      sigma2)
    tables = (ax, ay, bias, np.array([*EDGE_CDFS[cdf], 1.0]))
    assert K.safe_disk(ax, ay, bias, sigma2)[1].min() < 0.5
    monkeypatch.setattr(K, "_SPARSE_SHARE", 1.0 if path == "candidates" else 0.0)
    finished = []
    finish = K._finish
    monkeypatch.setattr(K, "_finish", lambda y, tmp: finished.append(y.size) or finish(y, tmp))
    for start, n in MC_RANGES:
        want = _reference_count(*tables, sigma2, MC_SEEDS[0], start, n)
        finished.clear()
        assert K.mc_error_count(*tables, sigma2, MC_SEEDS[0], start, n) == want, (start, n)
        if path == "candidates":
            assert sum(finished) < n
        else:
            assert sum(finished) >= 2 * n


# MC_FROZEN's collinear and planar constellations whose smallest cut at
# sigma2 = 0.1 is past 1/2 (0.84 and 0.63), so the kernel draws source
# words only past it
SCREEN_FIRST = ("gamma+1", "gamma0.707")


def _screen_first_tables(request, name):
    amps, gamma_phi, source, _, _ = MC_FROZEN[name]
    tables = _decoder_tables(build_cc(*amps, gamma_phi, request.getfixturevalue(source)), 0.1)
    assert K.safe_disk(*tables[:3], 0.1)[1].min() > 0.5
    return tables


@pytest.mark.parametrize("name", SCREEN_FIRST)
def test_screen_first_matches_reference(request, name):
    """Past the smallest cut, every count equals the decoder replay."""
    tables = _screen_first_tables(request, name)
    for seed in MC_SEEDS:
        for start, n in MC_RANGES:
            want = _reference_count(*tables, 0.1, seed, start, n)
            assert K.mc_error_count(*tables, 0.1, seed, start, n) == want, (seed, start)


@pytest.mark.parametrize("sigma2", [0.1, 0.03])
def test_source_cdf_rounding_to_one(sigma2):
    """A source whose cdf[2] rounds to 1.0 never draws pair 11 (no word
    reaches that cut), as the decoder replay does not. Pair 11's point lies
    far out, so it keeps a disk; the smallest cut is below 1/2 at sigma2 =
    0.1 (every source word drawn) and past it at 0.03."""
    pri = from_joint(0.5, 0.25, 0.25, 1e-17)
    tables = _decoder_tables(CombinedConstellation(0j, 0.5 + 0j, 1 + 0j, 20 + 0j, pri), sigma2)
    assert tables[3][2] == 1.0 and K.word_cut(tables[3][2]) == 2**64
    assert (K.safe_disk(*tables[:3], sigma2)[1].min() > 0.5) == (sigma2 < 0.1)
    for seed in MC_SEEDS:
        want = _reference_count(*tables, sigma2, seed, 16_383, 40_001)
        assert want > 0
        assert K.mc_error_count(*tables, sigma2, seed, 16_383, 40_001) == want


@pytest.mark.parametrize("block", [1, 7, 4099, K._MC_BLOCK])
def test_counts_invariant_to_block_size(request, block, monkeypatch):
    """Every count equals the decoder replay whatever the block size, on
    ranges that cross block edges, for the collinear and planar screen cases
    and SCREEN_FIRST."""
    monkeypatch.setattr(K, "_MC_BLOCK", block)
    n = max(300, 2 * block + 5)
    cases = [(name, _decoder_tables(cc, sigma2), sigma2) for name, cc, sigma2 in SCREEN_CASES]
    cases += [(name, _screen_first_tables(request, name), 0.1) for name in SCREEN_FIRST]
    for name, tables, sigma2 in cases:
        for start in (block - 1, 2**40 + 1):
            want = _reference_count(*tables, sigma2, MC_SEEDS[1], start, n)
            assert K.mc_error_count(*tables, sigma2, MC_SEEDS[1], start, n) == want, (name, start)


def _counted_scoring(monkeypatch):
    """Trials in each _score_trials batch, appended to the list returned."""
    batches = []
    score = K._score_trials

    def counted(ax, ay, bias, sigma2, idx, *rest):
        batches.append(idx.size)
        return score(ax, ay, bias, sigma2, idx, *rest)

    monkeypatch.setattr(K, "_score_trials", counted)
    return batches


@pytest.mark.parametrize("block", [1, 7, 4099, K._MC_BLOCK])
def test_scoring_batches_span_blocks(request, block, monkeypatch):
    """The trials that leave their disk are scored in batches across
    blocks, none larger than _MC_BLOCK, and every count equals the decoder
    replay, on the SCREEN_CASES and MC_FROZEN tables."""
    monkeypatch.setattr(K, "_MC_BLOCK", block)
    batches = _counted_scoring(monkeypatch)
    n = max(300, 2 * block + 5)
    cases = [(_decoder_tables(cc, sigma2), sigma2) for _, cc, sigma2 in SCREEN_CASES]
    for amps, gamma_phi, source, sigma2, _ in MC_FROZEN.values():
        cc = build_cc(*amps, gamma_phi, request.getfixturevalue(source))
        cases.append((_decoder_tables(cc, sigma2), sigma2))
    for tables, sigma2 in cases:
        for start in (block - 1, 2**40 + 1):
            batches.clear()
            want = _reference_count(*tables, sigma2, MC_SEEDS[1], start, n)
            assert K.mc_error_count(*tables, sigma2, MC_SEEDS[1], start, n) == want
            assert max(batches, default=0) <= block


def test_high_snr_call_scores_in_one_batch(case1, monkeypatch):
    """500 000 trials on the mc-collinear benchmark's 16 dB table (fig9
    source and energies, joint design) cover 16 blocks, and the trials
    that leave their disk are scored in one batch."""
    batches = _counted_scoring(monkeypatch)
    sigma2 = convert_snr(16.0, "sum-energy", 2.0, 1.0, 1.0)
    inp = DesignInput(case1, 2.0, 1.0, 1.0, sigma2)
    tables = _decoder_tables(design("joint", inp).combined(inp), sigma2)
    n = 500_000
    assert -(-n // K._MC_BLOCK) == 16
    assert K.mc_error_count(*tables, sigma2, 7, 0, n) == _reference_count(*tables, sigma2, 7, 0, n)
    assert len(batches) == 1 and 0 < batches[0] <= K._MC_BLOCK


# SNRs of the batch-versus-scalar checks; sigma2 = 10^(-snr/10) against
# points of order one carries the error rates from about 0.5 down to
# values that underflow to 0.
BATCH_SNRS_DB = range(0, 41, 4)


def _assert_batch_matches(batch, scalar):
    """Batch equals scalar to 1e-12 relative, and exactly where it underflows."""
    for got, want in zip(batch, scalar):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_batch_tail_matches_scalar_tail():
    # the two libraries' erfc reach their subnormals at different x (scipy
    # from about 37.5 to 37.68, glibc on to about 38.5); the shared rule
    # flushes both to 0 from the smallest normal double on
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [math.nan, math.inf, -math.inf]])
    got = _qfunc_array(x)
    want = [qfunc(v) for v in x.tolist()]
    _assert_batch_matches(got[:-3], want[:-3])
    assert math.isnan(got[-3]) and got[-2] == 0.0 and got[-1] == 1.0


# Random designs keep every component on this dyadic grid, so a translate by
# a grid vector holds the design's separations bit for bit.
_GRID = 2.0**-30


def _on_grid(x):
    return np.round(x / _GRID) * _GRID


def _designs(rng, gamma_phi, n):
    """n random designs (d1, d2) on the grid: separations uniform on
    (-4, 4), sender 2's along sender2_axis(gamma_phi), real on the line."""
    d1 = _on_grid(rng.uniform(-4.0, 4.0, n))
    d2 = rng.uniform(-4.0, 4.0, n) * sender2_axis(gamma_phi)
    if abs(gamma_phi) == 1.0:
        return d1, _on_grid(d2.real)
    return d1, _on_grid(d2.real) + 1j * _on_grid(d2.imag)


def _translate(rng, d1, d2, priors):
    """The constellation {t, t + d2, t + d1, t + d1 + d2} of the design
    (d1, d2) at a random grid translate t, real when d2 is."""
    t = complex(*_on_grid(rng.uniform(-2.0, 2.0, 2)))
    if not isinstance(d2, complex):
        t = complex(t.real)
    return CombinedConstellation(t, t + d2, t + d1, t + d1 + d2, priors)


def test_collinear_batch_matches_exact(case1, case2):
    """Each design's batch error is the scalar error of a random translate."""
    rng = np.random.Generator(np.random.PCG64(55))
    for pri in (case1, case2):
        for snr in BATCH_SNRS_DB:
            sigma2 = 10.0 ** (-snr / 10.0)
            d1, d2 = _designs(rng, 1.0, 64)
            pe = K.collinear_pe_batch(d1, d2, pri.as_array(), sigma2)
            want = [exact_error_collinear(_translate(rng, a, b, pri), sigma2).p_err_exact
                    for a, b in zip(d1.tolist(), d2.tolist())]
            _assert_batch_matches(pe, want)


def test_collinear_batch_keeps_tail_precision(case1):
    """The design_collinear point stays exact where 1 - P_correct would not."""
    for snr in (20.0, 22.0, 24.0, 30.0, 36.0):
        sigma2 = 2.0 / 10.0 ** (snr / 10.0)
        inp = DesignInput(case1, 1.0, 1.0, 1.0, sigma2)
        res = design_collinear(inp)
        want = exact_error_collinear(res.combined(inp), sigma2).p_err_exact
        got = K.collinear_pe_batch(np.array([res.a11 - res.a10]), np.array([res.a21 - res.a20]),
                                   case1.as_array(), sigma2)
        assert 0.0 < want < 1e-9
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_collinear_batch_coincident_rivals(case1, case2):
    # merged designs: d1 = d2 puts a01 on a10, d1 = -d2 puts a00 on a11; the
    # more probable pair (the lower index on a tie) keeps the shared point,
    # the other misses surely, exactly as the scalar path resolves it
    d1 = np.array([0.75, -1.5, 0.75, -2.0])
    d2 = np.array([0.75, -1.5, -0.75, 2.0])
    rng = np.random.Generator(np.random.PCG64(56))
    for pri in (case1, case2):
        p = pri.as_array()
        got = K.collinear_pe_batch(d1, d2, p, 0.1)
        for k, (a, b) in enumerate(zip(d1.tolist(), d2.tolist())):
            want = exact_error_collinear(_translate(rng, a, b, pri), 0.1).p_err_exact
            assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0)
            i, j = (1, 2) if a == b else (0, 3)
            assert want >= p[j if p[i] >= p[j] else i]


@pytest.mark.parametrize("scale", [0.0, 5e-324, 2.0**-1030, 1.0, 1e300, math.inf, math.nan])
def test_rival_blocks_are_the_separations(case2, scale):
    """The x and y blocks of the rival table are +-d1 and +-d2 bit for bit,
    signed (1 - 2u) and (1 - 2v) for point uv, the d block their sum; each
    magnitude is Python's abs of its difference, and each design's
    tolerance is the scalar rule at its largest point magnitude max(|d1|,
    |d2|, |d1 + d2|), NaN and inf included. numpy's complex abs can differ
    from Python's by an ulp (|-0.5 u2| at gamma_phi 0.383 reads
    0.49999999999999994 against 0.5)."""
    d1 = scale * np.array([1.0, -1.0, 0.5])
    for d2 in (np.array([0.0, 0.75, -0.5]), np.array([0.0, 0.75, -0.5]) * sender2_axis(0.383)):
        c, dist, _, tol = K._rival(d1, d2, case2.as_array(), 0.1)
        x = np.array([d1, d1, -d1, -d1], dtype=c.dtype)
        y = np.array([d2, -d2, d2, -d2], dtype=c.dtype)
        assert c[:4].tobytes() == x.tobytes() and c[4:8].tobytes() == y.tobytes()
        assert c[8:].tobytes() == (x + y).tobytes()
        mags = [[abs(complex(v)) for v in row] for row in c.tolist()]
        assert list(map(repr, dist.ravel().tolist())) == list(map(repr, sum(mags, [])))
        for k, m in enumerate(zip(mags[0], mags[4], mags[8])):
            assert struct.pack("<d", coincidence_tol(max(m))) == struct.pack("<d", tol[k])


@pytest.mark.parametrize("gamma_phi", [0.383, -0.707, 0.924])
def test_rival_magnitudes_are_the_scalar_engines(case2, gamma_phi):
    """On random dyadic designs in the plane, whose translate t = 0 takes
    every difference exactly, each magnitude of the rival table is the
    scalar engine's abs of that rival's difference and each design's
    tolerance is coincidence_tol(cc.scale()), bit for bit."""
    rng = np.random.Generator(np.random.PCG64(63))
    d1, d2 = _designs(rng, gamma_phi, 200)
    _, dist, _, tol = K._rival(d1, d2, case2.as_array(), 0.1)
    for k, (a, b) in enumerate(zip(d1.tolist(), d2.tolist())):
        cc = CombinedConstellation(0j, b, complex(a), a + b, case2)
        pts = cc.points
        want = [abs(pts[j] - pts[i]) for i, j in zip(K._OWN.tolist(), K._RIVAL.tolist())]
        assert dist[:, k].tolist() == want, (a, b)
        assert tol[k] == coincidence_tol(cc.scale()), (a, b)


def _alpha(d1, d2, priors, sigma2):
    """Diagonal offsets alpha_uv of the four pairs of the design (d1, d2)
    (see analysis)."""
    out = []
    for uv in range(4):
        c_x = (1 - 2 * (uv >> 1)) * d1
        c_y = (1 - 2 * (uv & 1)) * d2
        ratio = priors[uv] * priors[uv ^ 3] / (priors[uv ^ 2] * priors[uv ^ 1])
        out.append(sigma2 * np.log(ratio) - (c_x * np.conj(c_y)).real)
    return out


@pytest.mark.parametrize("gamma_phi", [0.0, 0.383, 0.707, 0.924])
def test_planar_batch_matches_exact(case1, case2, gamma_phi):
    """Each design's batch error is the scalar error of a random translate,
    over both alpha branches."""
    rng = np.random.Generator(np.random.PCG64(57))
    branches = set()
    for pri in (case1, case2):
        priors = pri.as_array()
        for snr in BATCH_SNRS_DB:
            sigma2 = 10.0 ** (-snr / 10.0)
            d1, d2 = _designs(rng, gamma_phi, 32)
            pe = K.planar_pe_batch(d1, d2, priors, sigma2)
            want = []
            for a, b in zip(d1.tolist(), d2.tolist()):
                want.append(exact_error_planar(_translate(rng, a, b, pri), sigma2).p_err_exact)
                branches.update(x > 0.0 for x in _alpha(a, b, priors, sigma2))
            _assert_batch_matches(pe, want)
    assert branches == {True, False}


def test_planar_batch_non_bijective_is_inf(case2):
    from gmacpam.errors import NonBijective

    u2 = complex(0.5, np.sqrt(0.75))
    # a design; then sender 2's own points coincide, sender 1's lie within
    # the tolerance, and a01 sits on a10 (d2 = d1)
    d1 = np.array([2.0, 2.0, 1e-11, 1.5])
    d2 = np.array([2.0 * u2, 0.0, 2.0 * u2, 1.5])
    pe = K.planar_pe_batch(d1, d2, case2.as_array(), 0.1)
    assert np.isfinite(pe[0])
    assert (pe[1:] == np.inf).all()
    # off the real axis, so the scalar path takes them as planar
    t = u2 - 1.0
    for a, b in zip(d1[1:].tolist(), d2[1:].tolist()):
        with pytest.raises(NonBijective):
            exact_error_planar(CombinedConstellation(t, t + b, t + a, t + a + b, case2), 0.1)


# sha256 of the repr of every planar_pe_batch value over _planar_digest_batches(),
# recorded when the kernel came to take each rival's magnitude by hypot
PLANAR_BATCH_SHA256 = "8ec72ea404b5b9c63ad123929cfc50366158a830ac1133695fd7cb9f43edfc96"


def _planar_digest_batches(case1, case2):
    """(d1, d2, priors, sigma2) of the planar batch digest: 100 random
    designs (_designs) for each source, gamma_phi of {0, 0.383, 0.707,
    0.924} and sigma2 of {1, 0.1, 0.01}, 2 400 designs; then d1 = 1 and d2 =
    +-0.1 ... +-2 along sender 2's axis at gamma_phi 0 and 0.707, the case-2
    source and the sigma2 that makes a00's bound against a10 an exact
    zero."""
    rng = np.random.Generator(np.random.PCG64(59))
    batches = []
    for pri in (case1, case2):
        for gamma_phi in (0.0, 0.383, 0.707, 0.924):
            for sigma2 in (1.0, 0.1, 0.01):
                batches.append((*_designs(rng, gamma_phi, 100), pri.as_array(), sigma2))
    priors = case2.as_array()
    sigma2 = -0.5 / float(np.log(priors[0] / priors[2]))
    d2 = np.concatenate([-np.arange(1, 21) / 10.0, np.arange(1, 21) / 10.0])
    for gamma_phi in (0.0, 0.707):
        batches.append((np.ones(d2.size), d2 * sender2_axis(gamma_phi), priors, sigma2))
    return batches


def test_planar_batch_frozen_digest(case1, case2):
    """Every planar_pe_batch value, bit for bit, over designs that take both
    alpha branches, an exact zero bound and a zero correlation."""
    h = hashlib.sha256()
    branches, zero_bound, zero_rho = set(), False, False
    for d1, d2, priors, sigma2 in _planar_digest_batches(case1, case2):
        h.update(" ".join(map(repr, K.planar_pe_batch(d1, d2, priors, sigma2).tolist())).encode()
                 + b"\n")
        for a, b in zip(d1.tolist(), d2.tolist()):
            branches.update(x > 0.0 for x in _alpha(a, b, priors, sigma2))
        c, dist, z, _ = K._rival(d1, d2, priors, sigma2)
        zero_bound |= bool(np.any(z[:4] == 0.0))
        zero_rho |= bool(np.any(K._pair_corr(c[:4], c[4:8], dist[:4] * dist[4:8]) == 0.0))
    assert branches == {True, False} and zero_bound and zero_rho
    assert h.hexdigest() == PLANAR_BATCH_SHA256


@pytest.mark.parametrize("gamma_phi", [1.0, -1.0, 0.383, 0.924])
def test_batch_errors_invariant_under_negation(case1, case2, gamma_phi):
    """Negating both separations of every design leaves both batch errors
    bit-identical, so numerical_search need not score the mirror images."""
    rng = np.random.Generator(np.random.PCG64(61))
    kernel = K.collinear_pe_batch if abs(gamma_phi) == 1.0 else K.planar_pe_batch
    for pri in (case1, case2):
        for sigma2 in np.logspace(0.0, -3.0, 7):
            d1, d2 = _designs(rng, gamma_phi, 500)
            pe = kernel(d1, d2, pri.as_array(), sigma2)
            assert np.all(np.isfinite(pe))
            assert np.array_equal(kernel(-d1, -d2, pri.as_array(), sigma2), pe)

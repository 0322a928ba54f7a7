"""Seeded Monte-Carlo estimator: determinism, calibration, edge cases."""

import concurrent.futures
import importlib
import math

import numpy as np
import pytest
from scipy.stats import kstest

from gmacpam import DesignInput, _kernels, decode, design_collinear, exact_error, simulate
from gmacpam._kernels import mc_error_count, uniforms_numpy
from gmacpam.simulate import _decoder_tables, derive_seed
from gmacpam.sources import BIT_PAIRS

from conftest import build_cc

S18 = 10.0**-1.8
# the package exports a function under the module's name
simulate_mod = importlib.import_module("gmacpam.simulate")


@pytest.fixture(scope="module")
def t2cc(case1):
    inp = DesignInput(case1, 1.0, 1.0, 1.0, S18)
    return design_collinear(inp).combined(inp)


def test_worker_determinism(t2cc):
    ref = simulate(t2cc, 10.0**-0.8, 300_000, 20260815, workers=1)
    for workers in (4, 16):
        got = simulate(t2cc, 10.0**-0.8, 300_000, 20260815, workers=workers)
        assert got.errors == ref.errors
        assert got.p_hat == ref.p_hat
    assert ref.errors > 0


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers, maps serially."""

    seen: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_threads_capped_at_usable_cpus(t2cc, monkeypatch):
    # simulate imports the pool only on the branch that starts threads
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "seen", [])
    monkeypatch.setattr(simulate_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(simulate_mod.os, "cpu_count", lambda: 2)
    ref = simulate(t2cc, 10.0**-0.8, 5000, 20260815, workers=1)
    got = simulate(t2cc, 10.0**-0.8, 5000, 20260815, workers=10**6)
    assert _SerialPool.seen == [2]
    assert got.errors == ref.errors > 0
    # below the cap the requested chunking still runs, with the same count
    monkeypatch.setattr(simulate_mod.os, "sched_getaffinity", lambda pid: set(range(16)),
                        raising=False)
    monkeypatch.setattr(simulate_mod.os, "cpu_count", lambda: 16)
    got = simulate(t2cc, 10.0**-0.8, 5000, 20260815, workers=7)
    assert _SerialPool.seen == [2, 7]
    assert got.errors == ref.errors


def test_seed_changes_stream(t2cc):
    a = simulate(t2cc, 10.0**-0.8, 100_000, 1)
    b = simulate(t2cc, 10.0**-0.8, 100_000, 2)
    assert a.errors != b.errors


def test_negligible_noise_no_errors(t2cc):
    for sigma2 in (1e-6, 1e-300):
        res = simulate(t2cc, sigma2, 50_000, 7)
        assert res.errors == 0
        assert res.p_hat == 0.0


def test_ambiguity_floor(uniform):
    # identical antipodal senders: (0,1) and (1,0) collide, floor = 1/4
    cc = build_cc(-1.0, 1.0, -1.0, 1.0, 1.0, uniform)
    res = simulate(cc, 1e-4, 200_000, 11)
    assert abs(res.p_hat - 0.25) <= res.ci_halfwidth


def test_ci_formula(t2cc):
    res = simulate(t2cc, 10.0**-0.8, 100_000, 5)
    want = 3.0 * math.sqrt(res.p_hat * (1.0 - res.p_hat) / res.trials)
    assert res.ci_halfwidth == pytest.approx(want, rel=1e-15)


def test_trials_zero(t2cc):
    res = simulate(t2cc, 0.1, 0, 3)
    assert res.trials == 0 and res.errors == 0
    assert math.isnan(res.p_hat) and math.isnan(res.ci_halfwidth)


def test_argument_validation(t2cc):
    with pytest.raises(ValueError):
        simulate(t2cc, 0.1, -1, 3)
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            simulate(t2cc, bad, 10, 3)
    # the decoder scores would overflow (bias -inf, NaN scores)
    with pytest.raises(ValueError):
        simulate(t2cc, 1e-310, 1000, 3)
    with pytest.raises(ValueError):
        simulate(t2cc, 0.1, 10, 3, workers=0)
    with pytest.raises(ValueError):
        simulate(t2cc, 0.1, 10, -1)
    with pytest.raises(ValueError):
        simulate(t2cc, 0.1, 10, 2**63)


def _counted_builds(monkeypatch):
    """The sigma2 of each Monte-Carlo table build, appended to the list returned."""
    builds = []
    build = _kernels.mc_tables
    monkeypatch.setattr(_kernels, "mc_tables",
                        lambda xs, ys, bs, cdf, sigma2: builds.append(sigma2) or
                        build(xs, ys, bs, cdf, sigma2))
    return builds


def _fresh(cc):
    """A copy of cc that keeps nothing."""
    return type(cc)(*cc)


def test_mc_tables_kept_for_the_last_sigma2(t2cc, monkeypatch):
    """A constellation builds its Monte-Carlo tables once per noise level in
    a row of calls at it, rebuilds them at a new one (it keeps only the
    last), and counts as a fresh copy of itself does at every level."""
    builds = _counted_builds(monkeypatch)
    cc = _fresh(t2cc)
    levels = (10.0**-0.8, 10.0**-0.6, 10.0**-0.6, 10.0**-0.8)
    got = [simulate(cc, s2, 20_000, 20260815 + k).errors for k, s2 in enumerate(levels)]
    assert builds == [levels[0], levels[1], levels[3]]
    want = [simulate(_fresh(t2cc), s2, 20_000, 20260815 + k).errors
            for k, s2 in enumerate(levels)]
    assert got == want and min(got) > 0


def test_workers_share_one_setup(t2cc, monkeypatch):
    """One and two workers count from the same kept tables, built once, and
    give the same count."""
    builds = _counted_builds(monkeypatch)
    cc = _fresh(t2cc)
    one = simulate(cc, 10.0**-0.8, 100_000, 7, workers=1)
    two = simulate(cc, 10.0**-0.8, 100_000, 7, workers=2)
    assert len(builds) == 1
    assert one == two and one.errors > 0


def test_setup_raises_simulates_errors(t2cc, monkeypatch):
    """The inputs simulate refuses raise its errors before any table is
    built, and a constellation that fails keeps nothing: the scores that
    would overflow (also at 0 trials), points that are not finite or
    square past the float range, and a bad seed."""
    builds = _counted_builds(monkeypatch)
    cc = _fresh(t2cc)
    for trials in (1000, 0):
        with pytest.raises(ValueError, match="decoder scores overflow"):
            simulate(cc, 1e-310, trials, 3)
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer below 2\*\*63$"):
        simulate(cc, 0.1, 10, 2**63)
    for bad, match in ((math.nan, "is not finite"), (math.inf, "is not finite"),
                       (1e200, "squares past the float range")):
        with pytest.raises(OverflowError, match=match):
            simulate(cc._replace(a11=complex(bad, 0.0)), 0.1, 10, 3)
    assert builds == [] and "_mc_tables" not in cc.__dict__
    assert simulate(cc, 0.1, 1000, 3) == simulate(_fresh(t2cc), 0.1, 1000, 3)
    assert builds == [0.1, 0.1]


def _replay_misses(cc, sigma2, seed, n):
    """Per trial in [0, n): does decode() miss on the rebuilt received sample?"""
    t = np.arange(n, dtype=np.uint64) * np.uint64(3)
    u0 = uniforms_numpy(seed, t)
    u1 = uniforms_numpy(seed, t + np.uint64(1))
    u2 = uniforms_numpy(seed, t + np.uint64(2))
    cdf = cc.priors.cdf()
    sent = np.searchsorted(cdf[:3], u0, side="right")
    radius = math.sqrt(sigma2) * np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    misses = []
    for k in range(n):
        a = cc.as_array()[sent[k]]
        r = a + radius[k] * complex(math.cos(angle[k]), math.sin(angle[k]))
        misses.append(int(decode(r, cc, sigma2) != BIT_PAIRS[sent[k]]))
    return misses


def test_trials_match_decoder_replay(case2):
    """Every simulated trial reproduces decode() on the reconstructed draw."""
    cc = build_cc(-1.0, 0.8, -0.9, 0.7, 0.6, case2)
    sigma2 = 0.25
    seed = 424242
    n = 4096
    res = simulate(cc, sigma2, n, seed)
    assert res.errors == sum(_replay_misses(cc, sigma2, seed, n))


def test_collinear_trials_match_decoder_replay(case2):
    """Trial by trial, the collinear path (it never evaluates sin) agrees
    with decode() on the full complex sample, quadrature noise included."""
    cc = build_cc(-1.0, 0.8, -0.9, 0.7, 1.0, case2)
    assert not cc.as_array().imag.any()
    sigma2 = 0.25
    seed = 424243
    n = 4096
    tables = _decoder_tables(cc, sigma2)
    got = [mc_error_count(*tables, sigma2, seed, k, 1) for k in range(n)]
    want = _replay_misses(cc, sigma2, seed, n)
    assert sum(want) > 0
    assert got == want
    assert simulate(cc, sigma2, n, seed).errors == sum(want)


def test_collinear_decisions_ignore_imaginary_noise(case1, t2cc):
    """On a real-axis constellation the quadrature noise never flips a call."""
    sigma2 = 10.0**-0.8
    rng = np.random.Generator(np.random.PCG64(17))
    for zr, zi in rng.normal(scale=3.0, size=(2_000, 2)):
        r = complex(zr, zi)
        assert decode(r, t2cc, sigma2) == decode(complex(zr, 0.0), t2cc, sigma2)


def test_estimator_calibration(t2cc):
    """Standardized estimates over 100 seeds look standard normal (KS test)."""
    sigma2 = 10.0**-0.8
    n = 200_000
    p = exact_error(t2cc, sigma2).p_err_exact
    scale = math.sqrt(p * (1.0 - p) / n)
    zs = [
        (simulate(t2cc, sigma2, n, derive_seed(31337, k)).p_hat - p) / scale
        for k in range(100)
    ]
    assert kstest(zs, "norm").pvalue > 0.001


def test_decoder_tables_layout(t2cc):
    ax, ay, bias, cdf = _decoder_tables(t2cc, 0.1)
    assert np.allclose(ax, t2cc.as_array().real)
    assert np.allclose(ay, t2cc.as_array().imag)
    assert cdf[-1] == 1.0
    want = np.log(t2cc.priors.as_array()) - (ax**2 + ay**2) / (2 * 0.1)
    assert np.allclose(bias, want, rtol=1e-14)

#!/usr/bin/env python3
"""Time the hot kernels: Monte Carlo, batched and scalar exact error.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --trials 20000000 --rows 100000
    python3 benchmarks/bench_kernels.py --json BENCH_1.json

Each row is timed --repeat times (cold starts and worker passes: their own
counts, below) and prints its best and its median figure. With --json PATH
the same rows go to PATH as JSON: an environment stamp (time, Python,
numpy and scipy versions, platform, usable CPUs, CPU model, load average
and the options), then per row its name, unit, best and median figure,
the seconds of every repeat, the work one repeat does and its note.

The Monte-Carlo kernel is timed on one collinear constellation at
sigma2 = 10^-0.8 and one planar one at sigma2 = 0.25, on both at
sigma2 = 10^-1.6 (the -16dB rows), and at low SNR (the -lowSNR rows:
the case-2 collinear design at sigma2 = 4 and the planar constellation at
sigma2 = 2, where more than 80% of the trials leave their safe disk),
after checking that its count over all trials equals the sum over two
chunks. Trials inside a point's safe disk are decided without scoring,
so the kernel runs faster at lower error rates; each row notes the exact
error rate of its point, the share of trials that leave the disk and the
64-bit words drawn per trial, counted at the SplitMix finaliser around
an untimed call (the radius word of every trial, the source word past
the smallest cut when that cut is at least 1/2 and of every trial
otherwise, the angle word of the scored trials). Each
batched evaluator is checked against the scalar exact_error on a sample
of its rows before its rows/s are reported. The
scalar rows give microseconds per call of exact_error on the same two
constellations, of union_bound and of the two collinear threshold views
on the collinear one (threshold: collinear_pair_threshold of a00 against
a11; interval: collinear_decision_interval of a10), and of the joint
designer at the case-1 source, 18 dB table convention, for gamma_phi = 1
(collinear) and 0.924 (planar). A constellation keeps the noise-free half
of its pairwise table after its first exact-error call, so the exact,
union and view rows time the per-noise-level half; the
exact-collinear-first and exact-planar-first rows time exact_error on a
copy of the same constellation made afresh for each call (copies made
outside the timing), which builds both halves. The layer rows give
microseconds per call of three costs that repeat in a loop of CLI calls:
cli-main, one in-process gmacpam.cli.main call of a one-point evaluate
(case-1 source, gamma_phi = 1, sigma2 = 0.1, joint design) with stdout
captured, which includes the parser the call uses; safe-disk, one
safe_disk call on the mc-collinear 8 dB table (the fig9 source and
energies, joint design, 8 dB sum-energy SNR); and mc-planar-50k, one 50 000-trial mc_error_count
call, a planar-sweep benchmark row's size, where the per-call costs
weigh most, on that benchmark's gamma_phi = 0.707 joint design (case-2
source, 10 dB sum-energy SNR). The bvn-orthant rows give microseconds
per call of the scalar bivariate orthant (pure-Python Owen's T) at one of
the planar point's orthants at sigma2 = 0.25 and one at 10^-1.6, the
high-SNR case where h, k and h a are large. The search rows give seconds per
numerical_search call at 10 dB sum-energy SNR: the case-1 source (the
fig4 source) at grid 400 for gamma_phi = 1 and gamma_phi = 0.924, and
search-planar-grid10, the planar-sweep benchmark's search (case-2 source,
gamma_phi = 0.924, grid 10); each is checked to report the exact error of
its own design, and notes the kernel rows and calls one search scores,
counted by wrapping the two batch kernels in an untimed call. The
sweep-row rows give microseconds per row of the CLI sweep loop
(cli._sweep_rows) at the case-1 source: antipodal, individual and joint
designs, 0-20 dB sum-energy SNR in 0.5 dB steps, no Monte Carlo, for
gamma_phi = 1 (collinear) and 0.707 (planar). The mc-fig9-workers1 and
-workers2 rows give seconds per pass over the six simulate calls of the
mc-collinear benchmark workload (fig9 source and energies, individual
and joint designs, 0, 8 and 16 dB sum-energy SNR, 500 000 trials each) at
workers 1 and 2, ten passes each, interleaved, after checking that both
give the same error counts; each notes the CPU seconds of its median
pass, so CPU time near wall time means the threads never overlapped. The
cold-start rows give the seconds of seven fresh interpreters that import
gmacpam and make one joint design and one exact_error call at the case-1
source, 18 dB table convention: gamma_phi = 1 (collinear) and 0.924
(planar). Each row notes which of numpy and scipy.special the child
loaded: neither, since only the batched evaluators and Monte Carlo need
them, so a stray top-level import shows here.
"""

import argparse
import contextlib
import dataclasses
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import gmacpam
from gmacpam import _kernels
from gmacpam.analysis import (bvn_lower_orthant, collinear_decision_interval,
                               collinear_pair_threshold, exact_error, exact_error_collinear,
                               exact_error_planar, union_bound)
from gmacpam import cli
from gmacpam.cli import _sweep_rows
from gmacpam.config import build_config, convert_snr
from gmacpam.design import DesignInput, design, design_collinear, numerical_search
from gmacpam.geometry import CombinedConstellation, sender2_axis
from gmacpam.simulate import _decoder_tables, derive_seed, simulate
from gmacpam.sources import from_marginals_correlation


def timed(fn, repeat):
    """fn()'s last result and the seconds of each of `repeat` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def rate(seconds, work, unit):
    """A row's figure from the seconds one repeat took: work per second for
    a unit ending in /s, else seconds (or microseconds, for a unit starting
    with us/) per unit of work."""
    if unit.endswith("/s"):
        return work / seconds
    return seconds / work * (1e6 if unit.startswith("us/") else 1.0)


# Scalar calls per timed repeat.
SCALAR_CALLS = 2000


def _constellations():
    """(collinear, sigma2), (planar, sigma2): the design_collinear point for
    the case-1 source and a gamma_phi = 0.707 point for the case-2 source."""
    priors = from_marginals_correlation(0.1, 0.1, 0.9)
    sigma2 = 10.0**-0.8
    inp = DesignInput(priors, 1.0, 1.0, 1.0, sigma2)
    collinear = design_collinear(inp).combined(inp)
    u2 = sender2_axis(0.707)
    planar = CombinedConstellation(-1.0 - 0.9 * u2, -1.0 + 0.7 * u2, 0.8 - 0.9 * u2,
                                   0.8 + 0.7 * u2, from_marginals_correlation(0.2, 0.5, 0.4))
    return (collinear, sigma2), (planar, 0.25)


# sigma2 of the high-SNR Monte-Carlo rows
SIGMA2_16DB = 10.0**-1.6


def _low_snr_collinear(sigma2=4.0):
    """The case-2 collinear design at sigma2: most trials leave their disk."""
    inp = DesignInput(from_marginals_correlation(0.2, 0.5, 0.4), 1.0, 1.0, 1.0, sigma2)
    return design_collinear(inp).combined(inp), sigma2


def _live_share(tables, sigma2, trials):
    """Share of the first (at most 2^20) trials whose radius uniform is at or
    above their point's safe-disk cut: the trials the kernel scores."""
    t = np.arange(min(trials, 1 << 20), dtype=np.uint64)
    u0 = _kernels.uniforms_numpy(20260815, 3 * t)
    u1 = _kernels.uniforms_numpy(20260815, 3 * t + 1)
    idx = np.searchsorted(tables[3][:3], u0, side="right")
    return float(np.mean(u1 >= _kernels.safe_disk(*tables[:3], sigma2)[1][idx]))


def _words_drawn(fn):
    """64-bit words that fn() draws through the kernels' SplitMix finaliser."""
    sizes = []
    finaliser = _kernels._splitmix
    _kernels._splitmix = lambda z, tmp: sizes.append(z.size) or finaliser(z, tmp)
    try:
        fn()
    finally:
        _kernels._splitmix = finaliser
    return sum(sizes)


def bench_mc(trials, repeat):
    """Trials/s of the Monte-Carlo kernel. Trials inside a point's safe disk
    skip the angle draw and the scores, so the rate grows with SNR; each
    row notes the exact error rate of its point, the share of trials that
    are scored and the words drawn per trial."""
    (collinear, sigma2), (planar, s2_planar) = _constellations()
    rows = []
    for name, cc, s2 in (("mc-collinear", collinear, sigma2), ("mc-planar", planar, s2_planar),
                         ("mc-collinear-16dB", collinear, SIGMA2_16DB),
                         ("mc-planar-16dB", planar, SIGMA2_16DB),
                         ("mc-collinear-lowSNR", *_low_snr_collinear()),
                         ("mc-planar-lowSNR", planar, 2.0)):
        tables = _decoder_tables(cc, s2)
        count, t = timed(lambda: _kernels.mc_error_count(*tables, s2, 20260815, 0, trials),
                         repeat)
        half = trials // 2
        chunked = (_kernels.mc_error_count(*tables, s2, 20260815, 0, half)
                   + _kernels.mc_error_count(*tables, s2, 20260815, half, trials - half))
        assert chunked == count, f"{name}: chunked count {chunked} != {count}"
        words = _words_drawn(lambda: _kernels.mc_error_count(*tables, s2, 20260815, 0, trials))
        note = (f"exact error {exact_error(cc, s2).p_err_exact:.3g},"
                f" {_live_share(tables, s2, trials):.1%} scored, {words / trials:.3f} words/trial")
        rows.append((name, t, trials, "trials/s", note))
    return rows


def bench_scalar(repeat):
    (collinear, s2c), (planar, s2p) = _constellations()
    case1 = from_marginals_correlation(0.1, 0.1, 0.9)
    joint_collinear = DesignInput(case1, 1.0, 1.0, 1.0, 10.0**-1.8)
    joint_planar = DesignInput(case1, 1.0, 1.0, 0.924, 10.0**-1.8)
    rows = []
    for name, fn in (
        ("exact-collinear", lambda: exact_error(collinear, s2c)),
        ("exact-planar", lambda: exact_error(planar, s2p)),
        # orthants of the planar constellation at sigma2 = 0.25 and 10^-1.6
        ("bvn-orthant", lambda: bvn_lower_orthant(-0.2597249041920212, -0.9172072693477924,
                                                  0.5088205130521821)),
        ("bvn-orthant-16dB", lambda: bvn_lower_orthant(-5.627955504963747, -5.265306648024573,
                                                       0.707)),
        ("union", lambda: union_bound(collinear, s2c)),
        ("threshold", lambda: collinear_pair_threshold(collinear, s2c, (0, 0), (1, 1))),
        ("interval", lambda: collinear_decision_interval(collinear, s2c, (1, 0))),
        ("design-joint-collinear", lambda: design("joint", joint_collinear)),
        ("design-joint-planar", lambda: design("joint", joint_planar)),
    ):
        _, t = timed(lambda: [fn() for _ in range(SCALAR_CALLS)], repeat)
        rows.append((name, t, SCALAR_CALLS, "us/call"))
    # the rows above evaluate one constellation object, which keeps its
    # noise-free table after the first call; these pay the first call each time
    for name, cc, s2 in (("exact-collinear-first", collinear, s2c),
                         ("exact-planar-first", planar, s2p)):
        t = []
        for _ in range(repeat):
            fresh = [dataclasses.replace(cc) for _ in range(SCALAR_CALLS)]
            t += timed(lambda: [exact_error(c, s2) for c in fresh], 1)[1]
        rows.append((name, t, SCALAR_CALLS, "us/call"))
    return rows


# In-process CLI calls per timed repeat.
CLI_CALLS = 200
# Monte-Carlo calls per timed repeat of mc-planar-50k, and the trials of
# each: a planar-sweep benchmark row's.
MC_CALLS = 20
PLANAR_SWEEP_TRIALS = 50_000

_EVALUATE = ["evaluate", "--set", "p1=0.1", "--set", "p2=0.1", "--set", "gamma_m=0.9",
             "--set", "gamma_phi=1", "--set", "sigma2=0.1", "--set", "schemes=joint"]


def bench_layers(repeat):
    sink = io.StringIO()

    def evaluate():
        with contextlib.redirect_stdout(sink):
            for _ in range(CLI_CALLS):
                assert cli.main(_EVALUATE) == 0
        sink.seek(0)
        sink.truncate()

    sigma2 = convert_snr(8.0, "sum-energy", 2.0, 1.0, 1.0)
    inp = DesignInput(from_marginals_correlation(0.1, 0.1, 0.9), 2.0, 1.0, 1.0, sigma2)
    tables = _decoder_tables(design("joint", inp).combined(inp), sigma2)[:3]
    _, t_cli = timed(evaluate, repeat)
    _, t_disk = timed(lambda: [_kernels.safe_disk(*tables, sigma2)
                               for _ in range(SCALAR_CALLS)], repeat)

    s2_planar = convert_snr(10.0, "sum-energy", 1.0, 1.0, 0.707)
    inp = DesignInput(from_marginals_correlation(0.2, 0.5, 0.4), 1.0, 1.0, 0.707, s2_planar)
    planar = _decoder_tables(design("joint", inp).combined(inp), s2_planar)
    _, t_mc = timed(lambda: [_kernels.mc_error_count(*planar, s2_planar, 20260815, 0,
                                                     PLANAR_SWEEP_TRIALS)
                             for _ in range(MC_CALLS)], repeat)
    return [
        ("cli-main", t_cli, CLI_CALLS, "us/call"),
        ("safe-disk", t_disk, SCALAR_CALLS, "us/call"),
        ("mc-planar-50k", t_mc, MC_CALLS, "us/call"),
    ]


def _assert_matches_scalar(pts, got, priors, sigma2, exact):
    """The batch agrees with the scalar engine on a sample of rows."""
    for k in range(0, pts.shape[0], max(1, pts.shape[0] // 50)):
        want = exact(CombinedConstellation(*map(complex, pts[k]), priors), sigma2)
        assert abs(got[k] - want.p_err_exact) <= 1e-12 * want.p_err_exact, k


def bench_batch(rows_n, repeat):
    rng = np.random.default_rng(7)
    priors = from_marginals_correlation(0.2, 0.5, 0.4)
    pa = priors.as_array()

    pts = np.sort(rng.uniform(-3.0, 3.0, (rows_n, 4)), axis=1)
    pts += np.arange(4) * 0.05  # keep the sorted points apart
    _kernels.collinear_pe_batch(pts[:1], pa, 0.04)  # untimed: loads scipy.special for both
    got, t_col = timed(lambda: _kernels.collinear_pe_batch(pts, pa, 0.04), repeat)
    _assert_matches_scalar(pts, got, priors, 0.04, exact_error_collinear)

    u2 = sender2_axis(0.707)
    amp = rng.uniform(-2.0, 2.0, (rows_n, 4))
    planar = amp[:, [0, 0, 1, 1]] + amp[:, [2, 3, 2, 3]] * u2
    got, t_pl = timed(lambda: _kernels.planar_pe_batch(planar, pa, 0.04), repeat)
    _assert_matches_scalar(planar, got, priors, 0.04, exact_error_planar)

    return [
        ("collinear-batch", t_col, rows_n, "rows/s"),
        ("planar-batch", t_pl, rows_n, "rows/s"),
    ]


def _scored_rows(fn):
    """Kernel calls and rows that fn() scores through the two batch kernels."""
    sizes = []
    saved = {attr: getattr(_kernels, attr) for attr in ("collinear_pe_batch", "planar_pe_batch")}
    for attr, kernel in saved.items():
        setattr(_kernels, attr,
                lambda points, *rest, kernel=kernel: sizes.append(len(points)) or kernel(points, *rest))
    try:
        fn()
    finally:
        for attr, kernel in saved.items():
            setattr(_kernels, attr, kernel)
    return len(sizes), sum(sizes)


def bench_search(repeat):
    case1 = from_marginals_correlation(0.1, 0.1, 0.9)
    case2 = from_marginals_correlation(0.2, 0.5, 0.4)
    rows = []
    for name, priors, gamma_phi, grid in (("search-collinear", case1, 1.0, 400),
                                          ("search-planar", case1, 0.924, 400),
                                          ("search-planar-grid10", case2, 0.924, 10)):
        sigma2 = convert_snr(10.0, "sum-energy", 1.0, 1.0, gamma_phi)
        inp = DesignInput(priors, 1.0, 1.0, gamma_phi, sigma2)
        res, t = timed(lambda: numerical_search(inp, grid=grid), repeat)
        want = exact_error(res.combined(inp), inp.sigma2).p_err_exact
        assert abs(res.p_err - want) <= 1e-12 * want, name
        calls, n_rows = _scored_rows(lambda: numerical_search(inp, grid=grid))
        rows.append((name, t, 1, "s/call", f"scores {n_rows} rows in {calls} kernel calls"))
    return rows


# Sweeps per timed repeat.
SWEEP_PASSES = 10


def bench_sweep(repeat):
    snr_db = " ".join(str(k / 2) for k in range(41))
    rows = []
    for name, gamma_phi in (("sweep-row-collinear", "1"), ("sweep-row-planar", "0.707")):
        cfg = build_config({"p1": "0.1", "p2": "0.1", "gamma_m": "0.9", "gamma_phi": gamma_phi,
                            "snr_db": snr_db, "snr_convention": "sum-energy",
                            "schemes": "antipodal individual joint", "trials": "0"})
        out, t = timed(lambda: [_sweep_rows(cfg) for _ in range(SWEEP_PASSES)], repeat)
        rows.append((name, t, SWEEP_PASSES * len(out[0]), "us/row"))
    return rows


# Trials of each simulate call of the mc-collinear benchmark workload, and
# the interleaved passes over its six calls per worker count.
MC_ROW_TRIALS = 500_000
WORKER_PASSES = 10


def bench_workers():
    """Seconds per pass over the mc-collinear benchmark's six simulate calls
    (fig9 source and energies, individual and joint designs, 0, 8 and 16 dB
    sum-energy SNR) at workers 1 and 2, the passes interleaved; each row
    notes the CPU seconds of its median pass."""
    cfg = build_config({"p1": "0.1", "p2": "0.1", "gamma_m": "0.9", "gamma_phi": "1",
                        "e1": "2", "e2": "1", "snr_db": "0 8 16",
                        "snr_convention": "sum-energy", "schemes": "individual joint"})
    calls = []
    for point in cfg.noise:
        inp = DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        for scheme in cfg.schemes:
            calls.append((design(scheme, inp).combined(inp), point.sigma2,
                          derive_seed(cfg.seed, len(calls))))

    def run(workers):
        return [simulate(cc, s2, MC_ROW_TRIALS, seed, workers).errors for cc, s2, seed in calls]

    wall, cpu, counts = {1: [], 2: []}, {1: [], 2: []}, {w: run(w) for w in (1, 2)}
    assert counts[1] == counts[2], counts
    for n in range(WORKER_PASSES):
        for workers in ((1, 2) if n % 2 == 0 else (2, 1)):
            c0, t0 = time.process_time(), time.perf_counter()
            run(workers)
            wall[workers].append(time.perf_counter() - t0)
            cpu[workers].append(time.process_time() - c0)
    return [(f"mc-fig9-workers{w}", wall[w], 1, "s/pass",
             f"CPU {statistics.median(cpu[w]):.4f} s/pass") for w in (1, 2)]


# Fresh interpreters per cold-start row.
COLD_STARTS = 7

_COLD_START = """
import sys
import gmacpam
inp = gmacpam.DesignInput(gmacpam.from_marginals_correlation(0.1, 0.1, 0.9), 1.0, 1.0, {gamma_phi},
                          10.0**-1.8)
gmacpam.exact_error(gmacpam.design("joint", inp).combined(inp), inp.sigma2)
print(",".join(m for m in ("numpy", "scipy.special") if m in sys.modules) or "neither")
"""


def bench_cold_start():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gmacpam.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    rows = []
    for name, gamma_phi in (("cold-start-collinear", 1.0), ("cold-start-planar", 0.924)):
        argv = [sys.executable, "-c", _COLD_START.format(gamma_phi=gamma_phi)]
        # untimed: fills the bytecode cache and reports the loaded modules
        loaded = subprocess.run(argv, env=env, check=True, capture_output=True,
                                text=True).stdout.strip()
        times = []
        for _ in range(COLD_STARTS):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        rows.append((name, times, 1, "s/start", f"loaded: {loaded}"))
    return rows


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(ns):
    """Where and how the rows were measured."""
    return {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg": os.getloadavg(),
        "trials": ns.trials, "rows": ns.rows, "repeat": ns.repeat,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=5_000_000)
    ap.add_argument("--rows", type=int, default=50_000)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the environment stamp and every row's best and median "
                         "figure, repeat times and note to PATH")
    ns = ap.parse_args()

    rows = (bench_mc(ns.trials, ns.repeat) + bench_batch(ns.rows, ns.repeat)
            + bench_scalar(ns.repeat) + bench_layers(ns.repeat) + bench_sweep(ns.repeat)
            + bench_search(ns.repeat) + bench_workers() + bench_cold_start())
    print(f"{'kernel':<22} {'best time':>10} {'best':>10} {'median':>10}")
    records = []
    for kernel, times, work, unit, *note in rows:
        best, median = rate(min(times), work, unit), rate(statistics.median(times), work, unit)
        print(f"{kernel:<22} {min(times):>9.3f}s {best:>10.3g} {median:>10.3g} {unit:<9} "
              f"{' '.join(note)}".rstrip())
        records.append({"name": kernel, "unit": unit, "best": best, "median": median,
                        "seconds": times, "work": work, "note": " ".join(note)})
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(ns), "rows": records}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

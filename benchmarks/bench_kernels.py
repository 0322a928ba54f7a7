#!/usr/bin/env python3
"""Time the hot kernels: Monte Carlo, batched and scalar exact error.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --trials 20000000
    python3 benchmarks/bench_kernels.py --json BENCH_1.json
    python3 benchmarks/bench_kernels.py --against ../parent --repeat 11 --json ab.json

Each row is timed --repeat times (cold starts, worker and workload passes:
their own counts, below) and prints its best and its median figure. With
--json PATH the same rows go to PATH as JSON: an environment stamp (time, Python,
numpy and scipy versions, platform, usable CPUs, CPU model, load average
and the options), then per row its name, unit, best and median figure,
the seconds of every repeat, the work one repeat does and its note.

With --against PATH every row is built twice, once on the gmacpam that this
process imports (the change) and once on PATH/src/gmacpam, copied into a
temporary directory under the package name gmacpam_against and imported
from there, so that its own relative imports (design's and simulate's
function-level `from . import _kernels` among them) resolve to the copy
and never to the change's modules. The two sides of a row then take turns
in this one process for --repeat rounds (or the row's own count), the
order flipping each round; no calibration load runs. Each row prints, and
--json writes, the median and the quartiles (IQR) of the per-round ratio
change / parent of the seconds one repeat takes (below 1: the change is
faster, whatever the row's unit) and the rounds the change won, with both
sides' seconds and notes (the parent's printed only where it differs).
Cold-start and preset children of the parent import PATH/src, so the two
sides' fresh interpreters alternate too.

The Monte-Carlo kernel is timed on one collinear constellation at
sigma2 = 10^-0.8 and one planar one at sigma2 = 0.25, on both at
sigma2 = 10^-1.6 (the -16dB rows), and at low SNR (the -lowSNR rows:
the case-2 collinear design at sigma2 = 4 and the planar constellation at
sigma2 = 2, where more than 80% of the trials leave their safe disk),
after checking that its count over all trials equals the sum over two
chunks. Trials inside a point's safe disk are decided without scoring,
so the kernel runs faster at lower error rates; each row notes the exact
error rate of its point, the share of trials that leave the disk and the
64-bit words drawn per trial, counted around an untimed call at the
stage of the SplitMix finaliser that every drawn word goes through (the
radius word of every trial, the source word past the smallest cut when
that cut is at least 1/2 and of every trial otherwise, a source word drawn
again for a trial whose source bucket a cdf cut splits, the angle word of
the scored trials). The collinear-batch and
planar-batch rows give rows/s of each batched evaluator on the traffic a
search sends it: the 158-row scan batch, the first kernel call of the
search-collinear and search-planar searches (below), captured by
wrapping the kernel and checked against the scalar exact_error on a
sample of its rows before it is timed. Each side times its kernel on the
arguments its own search gave it (each design's separations (d1, d2);
an older checkout's kernels take four points a row). The
scalar rows give microseconds per call of exact_error on the same two
constellations (on each, union_bound is first checked to equal the
report's p_err_union and to be at least p_err_exact), of union_bound and
of the two collinear threshold views on the collinear one (threshold:
collinear_pair_threshold of a00 against a11; interval:
collinear_decision_interval of a10), and of the joint designer at the
case-1 source, 18 dB table convention, for gamma_phi = 1 (collinear) and
0.924 (planar). A constellation keeps the noise-free half
of its pairwise table after its first exact-error call, so the exact,
union and view rows time the per-noise-level half; the
exact-collinear-first and exact-planar-first rows time exact_error on a
copy of the same constellation made afresh for each call (copies made
outside the timing, followed by a full garbage collection), which builds
both halves. The layer rows give
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
gamma_phi = 1 (collinear) and 0.707 (planar); sweep-fine-collinear gives
microseconds per row of the same collinear sweep run whole through
cli.main, CSV written to a temporary file, as the collinear-design
benchmark workload runs it. The pass-collinear-design, pass-planar-sweep
and pass-mc-collinear rows give seconds per pass of that perfbench
workload (perfbench/workload.py's commands, imported from there) run
through cli.main in this process, its CSVs removed before each repeat,
41 rounds each; each notes the sha256 of its pass's CSVs and the
exact_error calls the CLI layer makes in a pass. A pass takes
10-60 ms, so these rows resolve a 2-5% change under --against that a whole
perfbench run barely separates from host drift. The mc-fixed-cost row
gives microseconds per simulate call at 1 000 trials over the 16
(constellation, sigma2) pairs of one planar-sweep pass, captured by
wrapping cli.simulate, on fresh copies of the pass's constellations each
repeat, shared by the calls as the pass's rows share them (41 rounds):
what a call pays whatever its trial count. The mc-fig9-workers1 and
-workers2 rows give seconds per pass over the six simulate calls of the
mc-collinear benchmark workload (fig9 source and energies, individual
and joint designs, 0, 8 and 16 dB sum-energy SNR, 500 000 trials each) at
workers 1 and 2, ten passes each, interleaved, after checking that both
give the same error counts; each notes the CPU seconds of its median
pass, so CPU time near wall time means the threads never overlapped. The
cold-start rows give the seconds of seven fresh interpreters that import
gmacpam and make one joint design and one exact_error call at the case-1
source, 18 dB table convention: gamma_phi = 1 (collinear) and 0.924
(planar). Each row notes which of numpy, scipy.special and dataclasses
the child loaded: none, since only the batched evaluators and Monte Carlo
need the first two and no record is a dataclass, so a stray top-level
import shows here. The preset rows give the seconds of seven fresh
interpreters that each run what the gmacpam console script runs,
`gmacpam reproduce --preset NAME` at default settings with the CSV
written to a temporary file, one row per preset (table2, table3, fig4 ...
fig9; interpreter start and imports included, which is most of a preset's
time); each notes the sha256 of the CSV and of stdout (the tests pin the
figure CSVs' digests) and the same loaded modules. The
presets-one-process row gives the seconds of seven fresh interpreters that
each run all eight presets through cli.main, one after another, after
checking that every CSV and stdout equals the one its own interpreter
writes; it notes each preset's CSV and stdout sha256. Interpreter start
and imports are most of that row, so the presets-same-process row gives
the seconds per pass of all eight presets through cli.main in this
process, as the pass rows run the perfbench workloads (CSVs removed
before each repeat, 41 rounds), after checking that each CSV and stdout
equals the one the preset's own interpreter writes: the presets' own
work.
"""

import argparse
import atexit
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from typing import Callable

import numpy as np

import gmacpam

# The modules a row reads, by attribute of a package namespace (see package).
MODULES = ("analysis", "cli", "config", "design", "geometry", "simulate", "sources", "_kernels")
# The name the --against copy is imported under.
AGAINST = "gmacpam_against"


def package(name, src):
    """The modules of the imported package `name`, and src, the directory a
    child interpreter puts on its path to import that code as gmacpam.
    Submodules come from importlib, since the package's `design` attribute
    is the function of that name."""
    importlib.import_module(name)
    return types.SimpleNamespace(src=src, **{m: importlib.import_module(f"{name}.{m}")
                                             for m in MODULES})


def against(path):
    """The package at PATH/src/gmacpam, imported as AGAINST from a copy."""
    tmp = tempfile.mkdtemp(prefix="bench-against-")
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)
    src = os.path.join(os.path.abspath(path), "src")
    shutil.copytree(os.path.join(src, "gmacpam"), os.path.join(tmp, AGAINST))
    sys.path.insert(0, tmp)
    g = package(AGAINST, src)
    assert g.design.__name__ == f"{AGAINST}.design", g.design.__name__
    return g


@dataclasses.dataclass
class Row:
    """One benchmark row: run() is one timed repeat, which does `work` units
    of work; prepare(), when given, runs untimed before each repeat and its
    result is run's argument. repeat overrides --repeat; rows that share a
    group take turns in one loop rather than one after another; cpu_note
    notes the CPU seconds of the median repeat."""

    name: str
    run: Callable
    work: float
    unit: str
    note: str = ""
    prepare: Callable | None = None
    repeat: int | None = None
    group: str | None = None
    cpu_note: bool = False


def interleaved(rows, rounds):
    """Wall and CPU seconds of each row's repeats, the rows taking turns and
    their order flipping each round."""
    wall, cpu = [[] for _ in rows], [[] for _ in rows]
    for r in range(rounds):
        for i in (range(len(rows)) if r % 2 == 0 else reversed(range(len(rows)))):
            row = rows[i]
            args = (row.prepare(),) if row.prepare else ()
            c0, t0 = time.process_time(), time.perf_counter()
            row.run(*args)
            wall[i].append(time.perf_counter() - t0)
            cpu[i].append(time.process_time() - c0)
    return wall, cpu


def rate(seconds, work, unit):
    """A row's figure from the seconds one repeat took: work per second for
    a unit ending in /s, else seconds (or microseconds, for a unit starting
    with us/) per unit of work."""
    if unit.endswith("/s"):
        return work / seconds
    return seconds / work * (1e6 if unit.startswith("us/") else 1.0)


# Scalar calls per timed repeat.
SCALAR_CALLS = 2000
# Seed of every Monte-Carlo row.
SEED = 20260815


def _constellations(g):
    """(collinear, sigma2), (planar, sigma2): the design_collinear point for
    the case-1 source and a gamma_phi = 0.707 point for the case-2 source."""
    priors = g.sources.from_marginals_correlation(0.1, 0.1, 0.9)
    sigma2 = 10.0**-0.8
    inp = g.design.DesignInput(priors, 1.0, 1.0, 1.0, sigma2)
    collinear = g.design.design_collinear(inp).combined(inp)
    u2 = g.geometry.sender2_axis(0.707)
    planar = g.geometry.CombinedConstellation(
        -1.0 - 0.9 * u2, -1.0 + 0.7 * u2, 0.8 - 0.9 * u2, 0.8 + 0.7 * u2,
        g.sources.from_marginals_correlation(0.2, 0.5, 0.4))
    return (collinear, sigma2), (planar, 0.25)


# sigma2 of the high-SNR Monte-Carlo rows
SIGMA2_16DB = 10.0**-1.6


def _low_snr_collinear(g, sigma2=4.0):
    """The case-2 collinear design at sigma2: most trials leave their disk."""
    inp = g.design.DesignInput(g.sources.from_marginals_correlation(0.2, 0.5, 0.4),
                               1.0, 1.0, 1.0, sigma2)
    return g.design.design_collinear(inp).combined(inp), sigma2


def _live_share(g, tables, sigma2, trials):
    """Share of the first (at most 2^20) trials whose radius uniform is at or
    above their point's safe-disk cut: the trials the kernel scores."""
    t = np.arange(min(trials, 1 << 20), dtype=np.uint64)
    u0 = g._kernels.uniforms_numpy(SEED, 3 * t)
    u1 = g._kernels.uniforms_numpy(SEED, 3 * t + 1)
    idx = np.searchsorted(tables[3][:3], u0, side="right")
    return float(np.mean(u1 >= g._kernels.safe_disk(*tables[:3], sigma2)[1][idx]))


def _words_drawn(g, fn):
    """64-bit words that fn() draws, counted at the stage of the SplitMix
    finaliser that every drawn word goes through: _mix, all but the last
    step, which only the words the kernel goes on to use take. An older
    checkout has no _mix; there every drawn word takes _splitmix whole."""
    stage = "_mix" if hasattr(g._kernels, "_mix") else "_splitmix"
    sizes = []
    mix = getattr(g._kernels, stage)
    setattr(g._kernels, stage, lambda z, tmp: sizes.append(z.size) or mix(z, tmp))
    try:
        fn()
    finally:
        setattr(g._kernels, stage, mix)
    return sum(sizes)


def bench_mc(g, trials):
    """Trials/s of the Monte-Carlo kernel. Trials inside a point's safe disk
    skip the angle draw and the scores, so the rate grows with SNR; each
    row notes the exact error rate of its point, the share of trials that
    are scored and the words drawn per trial."""
    (collinear, sigma2), (planar, s2_planar) = _constellations(g)
    rows = []
    for name, cc, s2 in (("mc-collinear", collinear, sigma2), ("mc-planar", planar, s2_planar),
                         ("mc-collinear-16dB", collinear, SIGMA2_16DB),
                         ("mc-planar-16dB", planar, SIGMA2_16DB),
                         ("mc-collinear-lowSNR", *_low_snr_collinear(g)),
                         ("mc-planar-lowSNR", planar, 2.0)):
        tables = g.simulate._decoder_tables(cc, s2)

        def run(tables=tables, s2=s2):
            return g._kernels.mc_error_count(*tables, s2, SEED, 0, trials)

        half = trials // 2
        chunked = (g._kernels.mc_error_count(*tables, s2, SEED, 0, half)
                   + g._kernels.mc_error_count(*tables, s2, SEED, half, trials - half))
        count = run()
        assert chunked == count, f"{name}: chunked count {chunked} != {count}"
        words = _words_drawn(g, run)
        note = (f"exact error {g.analysis.exact_error(cc, s2).p_err_exact:.3g},"
                f" {_live_share(g, tables, s2, trials):.1%} scored,"
                f" {words / trials:.3f} words/trial")
        rows.append(Row(name, run, trials, "trials/s", note))
    return rows


def _calls(fn, n=SCALAR_CALLS):
    """A repeat of n calls of fn."""
    return lambda: [fn() for _ in range(n)]


def bench_scalar(g):
    (collinear, s2c), (planar, s2p) = _constellations(g)
    a = g.analysis
    case1 = g.sources.from_marginals_correlation(0.1, 0.1, 0.9)
    joint_collinear = g.design.DesignInput(case1, 1.0, 1.0, 1.0, 10.0**-1.8)
    joint_planar = g.design.DesignInput(case1, 1.0, 1.0, 0.924, 10.0**-1.8)
    for cc, s2 in ((collinear, s2c), (planar, s2p)):
        rep = a.exact_error(cc, s2)
        assert a.union_bound(cc, s2) == rep.p_err_union >= rep.p_err_exact, cc
    rows = []
    for name, fn in (
        ("exact-collinear", lambda: a.exact_error(collinear, s2c)),
        ("exact-planar", lambda: a.exact_error(planar, s2p)),
        # orthants of the planar constellation at sigma2 = 0.25 and 10^-1.6
        ("bvn-orthant", lambda: a.bvn_lower_orthant(-0.2597249041920212, -0.9172072693477924,
                                                    0.5088205130521821)),
        ("bvn-orthant-16dB", lambda: a.bvn_lower_orthant(-5.627955504963747, -5.265306648024573,
                                                         0.707)),
        ("union", lambda: a.union_bound(collinear, s2c)),
        ("threshold", lambda: a.collinear_pair_threshold(collinear, s2c, (0, 0), (1, 1))),
        ("interval", lambda: a.collinear_decision_interval(collinear, s2c, (1, 0))),
        ("design-joint-collinear", lambda: g.design.design("joint", joint_collinear)),
        ("design-joint-planar", lambda: g.design.design("joint", joint_planar)),
    ):
        rows.append(Row(name, _calls(fn), SCALAR_CALLS, "us/call"))
    # the rows above evaluate one constellation object, which keeps its
    # noise-free table after the first call; these pay the first call each time
    for name, cc, s2 in (("exact-collinear-first", collinear, s2c),
                         ("exact-planar-first", planar, s2p)):
        rows.append(Row(name, lambda fresh, s2=s2: [a.exact_error(c, s2) for c in fresh],
                        SCALAR_CALLS, "us/call", prepare=lambda cc=cc: _fresh_copies(cc)))
    return rows


def _fresh_copies(cc):
    """SCALAR_CALLS constructor copies of cc, which keep no noise-free table,
    then a full collection: the copies just made sit in the oldest
    generation, so the collector does not walk them in the timed region.
    (A collection before every row's repeat would not do: it leaves the
    caches cold, and a 1 ms search timed after one reads 30-100% slower.)"""
    copies = [type(cc)(cc.a00, cc.a01, cc.a10, cc.a11, cc.priors) for _ in range(SCALAR_CALLS)]
    gc.collect()
    return copies


# In-process CLI calls per timed repeat.
CLI_CALLS = 200
# Monte-Carlo calls per timed repeat of mc-planar-50k, and the trials of
# each: a planar-sweep benchmark row's.
MC_CALLS = 20
PLANAR_SWEEP_TRIALS = 50_000

_EVALUATE = ["evaluate", "--set", "p1=0.1", "--set", "p2=0.1", "--set", "gamma_m=0.9",
             "--set", "gamma_phi=1", "--set", "sigma2=0.1", "--set", "schemes=joint"]


def bench_layers(g):
    sink = io.StringIO()

    def evaluate():
        with contextlib.redirect_stdout(sink):
            for _ in range(CLI_CALLS):
                assert g.cli.main(_EVALUATE) == 0
        sink.seek(0)
        sink.truncate()

    design, sources = g.design, g.sources
    sigma2 = g.config.convert_snr(8.0, "sum-energy", 2.0, 1.0, 1.0)
    inp = design.DesignInput(sources.from_marginals_correlation(0.1, 0.1, 0.9), 2.0, 1.0, 1.0,
                             sigma2)
    tables = g.simulate._decoder_tables(design.design("joint", inp).combined(inp), sigma2)[:3]

    s2_planar = g.config.convert_snr(10.0, "sum-energy", 1.0, 1.0, 0.707)
    inp = design.DesignInput(sources.from_marginals_correlation(0.2, 0.5, 0.4), 1.0, 1.0, 0.707,
                             s2_planar)
    planar = g.simulate._decoder_tables(design.design("joint", inp).combined(inp), s2_planar)
    return [
        Row("cli-main", evaluate, CLI_CALLS, "us/call"),
        Row("safe-disk", _calls(lambda: g._kernels.safe_disk(*tables, sigma2)), SCALAR_CALLS,
            "us/call"),
        Row("mc-planar-50k", _calls(lambda: g._kernels.mc_error_count(
            *planar, s2_planar, SEED, 0, PLANAR_SWEEP_TRIALS), MC_CALLS), MC_CALLS, "us/call"),
    ]


def _scan_constellations(g, args, priors):
    """The constellation of each row of a captured batch-kernel call: its
    design's translate {0, d2, d1, d1 + d2} from (d1, d2, priors, sigma2),
    or the four points of a row from the (points, priors, sigma2) form that
    an older checkout's kernels take."""
    if len(args) == 3:
        rows = args[0].tolist()
    else:
        rows = [(0.0, d2, d1, d1 + d2) for d1, d2 in zip(args[0].tolist(), args[1].tolist())]
    return [g.geometry.CombinedConstellation(*map(complex, row), priors) for row in rows]


def _assert_matches_scalar(g, args, got, priors, exact):
    """The batch agrees with the scalar engine on a sample of rows."""
    sigma2 = args[-1]
    ccs = _scan_constellations(g, args, priors)
    for k in range(0, len(ccs), max(1, len(ccs) // 50)):
        want = exact(ccs[k], sigma2)
        assert abs(got[k] - want.p_err_exact) <= 1e-12 * want.p_err_exact, k


# The search rows: name, source (p1, p2, gamma_m), gamma_phi and grid, at
# 10 dB sum-energy SNR and unit energies.
SEARCHES = (("search-collinear", (0.1, 0.1, 0.9), 1.0, 400),
            ("search-planar", (0.1, 0.1, 0.9), 0.924, 400),
            ("search-planar-grid10", (0.2, 0.5, 0.4), 0.924, 10))
# Kernel calls per timed repeat of the batch rows.
BATCH_CALLS = 200


def _search(g, source, gamma_phi, grid):
    """The search input of a SEARCHES entry, and a call of its search."""
    sigma2 = g.config.convert_snr(10.0, "sum-energy", 1.0, 1.0, gamma_phi)
    inp = g.design.DesignInput(g.sources.from_marginals_correlation(*source), 1.0, 1.0,
                               gamma_phi, sigma2)
    return inp, lambda: g.design.numerical_search(inp, grid=grid)


def _kernel_calls(g, fn):
    """(kernel, *args) of every batch-kernel call fn() makes."""
    calls = []
    saved = {attr: getattr(g._kernels, attr) for attr in ("collinear_pe_batch", "planar_pe_batch")}
    for attr, kernel in saved.items():
        setattr(g._kernels, attr,
                lambda *args, kernel=kernel: calls.append((kernel, *args)) or kernel(*args))
    try:
        fn()
    finally:
        for attr, kernel in saved.items():
            setattr(g._kernels, attr, kernel)
    return calls


def bench_batch(g):
    """Rows/s of each batch kernel on the scan batch its search sends first,
    called with the arguments the search gave it."""
    rows = []
    for name, (search, *spec) in zip(("collinear-batch", "planar-batch"), SEARCHES):
        inp, run = _search(g, *spec)
        kernel, *args = _kernel_calls(g, run)[0]
        _assert_matches_scalar(g, args, kernel(*args), inp.priors, g.analysis.exact_error)
        m = len(args[0])
        rows.append(Row(name, _calls(lambda kernel=kernel, args=args: kernel(*args), BATCH_CALLS),
                        BATCH_CALLS * m, "rows/s",
                        f"the {m}-row scan batch of {search}; not comparable with "
                        "BENCH_3.json's 50 000 random rows"))
    return rows


def bench_search(g):
    rows = []
    for name, *spec in SEARCHES:
        inp, run = _search(g, *spec)
        res = run()
        want = g.analysis.exact_error(res.combined(inp), inp.sigma2).p_err_exact
        assert abs(res.p_err - want) <= 1e-12 * want, name
        calls = _kernel_calls(g, run)
        rows.append(Row(name, run, 1, "s/call", f"scores {sum(len(c[1]) for c in calls)} rows "
                                                 f"in {len(calls)} kernel calls"))
    return rows


# Sweeps per timed repeat.
SWEEP_PASSES = 10
_FINE_SNR = " ".join(str(k / 2) for k in range(41))
_CASE1 = {"p1": "0.1", "p2": "0.1", "gamma_m": "0.9"}
_CLOSED_FORM = "antipodal individual joint"


def bench_sweep(g, out_dir):
    rows = []
    for name, gamma_phi in (("sweep-row-collinear", "1"), ("sweep-row-planar", "0.707")):
        cfg = g.config.build_config({**_CASE1, "gamma_phi": gamma_phi, "snr_db": _FINE_SNR,
                                     "snr_convention": "sum-energy", "schemes": _CLOSED_FORM,
                                     "trials": "0"})
        n_rows = len(g.cli._sweep_rows(cfg))
        rows.append(Row(name, _calls(lambda cfg=cfg: g.cli._sweep_rows(cfg), SWEEP_PASSES),
                        SWEEP_PASSES * n_rows, "us/row"))

    argv = ["sweep"] + [a for key, value in {**_CASE1, "gamma_phi": "1", "snr_db": _FINE_SNR,
                                             "snr_convention": "sum-energy",
                                             "schemes": _CLOSED_FORM}.items()
                        for a in ("--set", f"{key}={value}")]
    argv += ["--set", "out=" + os.path.join(out_dir, f"fine-{id(g)}.csv")]

    def fine():
        with contextlib.redirect_stderr(io.StringIO()):
            assert g.cli.main(argv) == 0

    rows.append(Row("sweep-fine-collinear", fine, 41 * 3, "us/row"))
    return rows


# Trials of each simulate call of the mc-collinear benchmark workload, and
# the interleaved passes over its six calls per worker count.
MC_ROW_TRIALS = 500_000
WORKER_PASSES = 10


def bench_workers(g):
    """Seconds per pass over the mc-collinear benchmark's six simulate calls
    (fig9 source and energies, individual and joint designs, 0, 8 and 16 dB
    sum-energy SNR) at workers 1 and 2, the passes interleaved; each row
    notes the CPU seconds of its median pass."""
    cfg = g.config.build_config({**_CASE1, "gamma_phi": "1", "e1": "2", "e2": "1",
                                 "snr_db": "0 8 16", "snr_convention": "sum-energy",
                                 "schemes": "individual joint"})
    calls = []
    for point in cfg.noise:
        inp = g.design.DesignInput(cfg.priors, cfg.e1, cfg.e2, cfg.gamma_phi, point.sigma2)
        for scheme in cfg.schemes:
            calls.append((g.design.design(scheme, inp).combined(inp), point.sigma2,
                          g.simulate.derive_seed(cfg.seed, len(calls))))

    def run(workers):
        return [g.simulate.simulate(cc, s2, MC_ROW_TRIALS, seed, workers).errors
                for cc, s2, seed in calls]

    assert run(1) == run(2)
    return [Row(f"mc-fig9-workers{w}", lambda w=w: run(w), 1, "s/pass", repeat=WORKER_PASSES,
                group="workers", cpu_note=True) for w in (1, 2)]


# Rounds of each pass row: a pass takes 10-60 ms, and a 2-5% change shows
# in the per-round ratios only over many rounds.
PASS_ROUNDS = 41
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _workload():
    """perfbench's workload module (it imports its sibling calibrate)."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workload
    finally:
        sys.path.remove(PERFBENCH)
    return workload


def _cli_exact_calls(g, fn):
    """The exact_error calls the CLI layer makes during fn()."""
    calls = []
    real = g.cli.exact_error
    g.cli.exact_error = lambda *args: calls.append(args) or real(*args)
    try:
        fn()
    finally:
        g.cli.exact_error = real
    return len(calls)


def bench_passes(g, out_dir):
    """Seconds per pass of each perfbench workload's commands through
    cli.main in this process, the CSVs removed before each repeat; each row
    notes the sha256 of the pass's CSVs and the exact_error calls the CLI
    layer makes in a pass."""
    workload = _workload()
    rows = []
    for name in workload.WORKLOADS:
        pass_dir = os.path.join(out_dir, f"{name}-{id(g)}")
        os.mkdir(pass_dir)
        cmds = workload.commands(name, SEED, pass_dir)
        files = [os.path.join(pass_dir, f) for f, _ in cmds]

        def fresh(files=files):
            for path in files:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

        def run(_, cmds=cmds):
            with contextlib.redirect_stderr(io.StringIO()):
                for _, argv in cmds:
                    assert g.cli.main(argv) == 0, argv

        # untimed: pays the first calls, and its CSVs and calls are the ones noted
        exact = _cli_exact_calls(g, lambda run=run, fresh=fresh: run(fresh()))
        digest = hashlib.sha256()
        for path in files:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        rows.append(Row(f"pass-{name}", run, 1, "s/pass",
                        f"csv sha256 {digest.hexdigest()}, {exact} exact_error calls",
                        prepare=fresh, repeat=PASS_ROUNDS))
    return rows


# Trials of each call of the mc-fixed-cost row: few enough that a call's
# cost is mostly what it pays whatever its trial count.
FIXED_COST_TRIALS = 1000


def bench_fixed_cost(g, out_dir):
    """Microseconds per simulate call at FIXED_COST_TRIALS trials over the
    (constellation, sigma2) pairs of the simulate calls of one planar-sweep
    benchmark pass, captured by wrapping cli.simulate. Each repeat runs on
    fresh copies of the pass's constellations, shared by its calls as the
    pass's rows share them, so nothing a constellation keeps outlives a
    repeat."""
    workload = _workload()
    pass_dir = os.path.join(out_dir, f"fixed-cost-{id(g)}")
    os.mkdir(pass_dir)
    calls = []
    real = g.cli.simulate
    g.cli.simulate = lambda cc, sigma2, trials, seed, workers=1: (
        calls.append((cc, sigma2, seed)) or real(cc, sigma2, trials, seed, workers))
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            for _, argv in workload.commands("planar-sweep", SEED, pass_dir):
                assert g.cli.main(argv) == 0, argv
    finally:
        g.cli.simulate = real

    def fresh():
        copies = {}
        pairs = [(copies.setdefault(id(cc), type(cc)(*cc)), sigma2, seed)
                 for cc, sigma2, seed in calls]
        gc.collect()
        return pairs

    def run(pairs):
        for cc, sigma2, seed in pairs:
            g.simulate.simulate(cc, sigma2, FIXED_COST_TRIALS, seed)

    return [Row("mc-fixed-cost", run, len(calls), "us/call",
                f"{len(calls)} calls on {len({id(cc) for cc, _, _ in calls})} constellations",
                prepare=fresh, repeat=PASS_ROUNDS)]


# Fresh interpreters per cold-start and preset row.
COLD_STARTS = 7
# The modules whose loading a cold-start or preset child reports: the
# array stack only the batched evaluators and Monte Carlo need, and the
# dataclasses module (with the inspect it pulls in) that no record needs.
WATCHED = ("numpy", "scipy.special", "dataclasses")
_LOADED = f"""
print(",".join(m for m in {WATCHED!r} if m in sys.modules) or "none", file=sys.stderr)
"""

_COLD_START = """
import sys
import gmacpam
inp = gmacpam.DesignInput(gmacpam.from_marginals_correlation(0.1, 0.1, 0.9), 1.0, 1.0, {gamma_phi},
                          10.0**-1.8)
gmacpam.exact_error(gmacpam.design("joint", inp).combined(inp), inp.sigma2)
""" + _LOADED

# What the gmacpam console script runs, reporting the loaded modules at exit.
_CLI = """
import sys
from gmacpam.cli import main
code = main()
""" + _LOADED + """
sys.exit(code)
"""


def _child_env(g):
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=g.src + (os.pathsep + inherited if inherited else ""))


def _start(argv, env):
    """A timed repeat: one fresh interpreter, its output discarded."""
    return lambda: subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)


def _loaded(stderr):
    """The WATCHED modules a child reported loaded, on its last stderr line."""
    return "loaded: " + stderr.splitlines()[-1]


def bench_cold_start(g):
    env = _child_env(g)
    rows = []
    for name, gamma_phi in (("cold-start-collinear", 1.0), ("cold-start-planar", 0.924)):
        argv = [sys.executable, "-c", _COLD_START.format(gamma_phi=gamma_phi)]
        # untimed: fills the bytecode cache and reports the loaded modules
        proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        rows.append(Row(name, _start(argv, env), 1, "s/start", _loaded(proc.stderr),
                        repeat=COLD_STARTS))
    return rows


# Every reproduce preset through cli.main in one interpreter, each CSV and
# each stdout written to the directory given as the first argument.
_ALL_PRESETS = """
import contextlib, io, os, sys
from gmacpam.cli import _PRESETS, main
for preset in _PRESETS:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["reproduce", "--preset", preset,
                     "--set", "out=" + os.path.join(sys.argv[1], preset + ".csv")])
    assert code == 0, preset
    with open(os.path.join(sys.argv[1], preset + ".stdout"), "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
"""


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bench_presets(g, out_dir):
    """Seconds of one fresh `gmacpam reproduce --preset NAME` at default
    settings, the CSV written to a file; each row notes the sha256 of the
    CSV and of stdout, and the loaded modules. Then seconds of all presets
    in one fresh interpreter, whose CSVs and stdouts must match the
    separate runs'; it notes each one's sha256. Last, seconds per pass of
    all presets through cli.main in this process, their CSVs removed
    before each repeat, whose CSVs and stdouts must match too."""
    env = _child_env(g)
    rows = []
    digests = {}
    for preset in g.cli._PRESETS:
        out = os.path.join(out_dir, f"{preset}-{id(g)}.csv")
        argv = [sys.executable, "-c", _CLI, "reproduce", "--preset", preset, "--set", f"out={out}"]
        # untimed: fills the bytecode cache, and its output is the one noted
        proc = subprocess.run(argv, env=env, check=True, capture_output=True)
        digests[preset] = (_sha256(out), hashlib.sha256(proc.stdout).hexdigest())
        note = (f"csv sha256 {digests[preset][0]}, stdout sha256 {digests[preset][1]}, "
                f"{_loaded(proc.stderr.decode())}")
        rows.append(Row(f"preset-{preset}", _start(argv, env), 1, "s/run", note,
                        repeat=COLD_STARTS))

    one_dir = os.path.join(out_dir, f"presets-{id(g)}")
    os.mkdir(one_dir)
    argv = [sys.executable, "-c", _ALL_PRESETS, one_dir]
    # untimed: its CSVs and stdouts are the ones checked and noted
    subprocess.run(argv, env=env, check=True)
    one = {preset: tuple(_sha256(os.path.join(one_dir, preset + ext))
                         for ext in (".csv", ".stdout"))
           for preset in g.cli._PRESETS}
    assert one == digests, "one process and one process per preset differ"
    note = "; ".join(f"{preset} csv sha256 {csv_sha}, stdout sha256 {out_sha}"
                     for preset, (csv_sha, out_sha) in one.items())
    rows.append(Row("presets-one-process", _start(argv, env), 1, "s/run", note,
                    repeat=COLD_STARTS))

    warm_dir = os.path.join(out_dir, f"presets-warm-{id(g)}")
    os.mkdir(warm_dir)
    csvs = [os.path.join(warm_dir, preset + ".csv") for preset in g.cli._PRESETS]

    def fresh():
        for path in csvs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run(_):
        return {preset: hashlib.sha256(_reproduce(g, preset, csv).encode()).hexdigest()
                for preset, csv in zip(g.cli._PRESETS, csvs)}

    # untimed: pays the first calls, and its outputs are the ones checked
    stdouts = run(fresh())
    warm = {preset: (_sha256(csv), stdouts[preset]) for preset, csv in zip(g.cli._PRESETS, csvs)}
    assert warm == digests, "this process and one process per preset differ"
    rows.append(Row("presets-same-process", run, 1, "s/pass",
                    "every csv and stdout sha256 as in the preset rows", prepare=fresh,
                    repeat=PASS_ROUNDS))
    return rows


def _reproduce(g, preset, out):
    """stdout of `reproduce --preset PRESET` through cli.main in this
    process, its CSV written to out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert g.cli.main(["reproduce", "--preset", preset, "--set", f"out={out}"]) == 0, preset
    return stdout.getvalue()


def build_rows(g, ns, out_dir):
    """Every row of package g, in print order."""
    return (bench_mc(g, ns.trials) + bench_batch(g) + bench_scalar(g) + bench_layers(g)
            + bench_sweep(g, out_dir) + bench_search(g) + bench_passes(g, out_dir)
            + bench_fixed_cost(g, out_dir)
            + bench_workers(g)
            + bench_cold_start(g) + bench_presets(g, out_dir))


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
        "trials": ns.trials, "repeat": ns.repeat, "against": ns.against,
    }


def run_rows(rows, ns):
    """Time each row (a group's rows in turns) and print and return its record."""
    print(f"{'kernel':<22} {'best time':>10} {'best':>10} {'median':>10}")
    records = []
    groups = {}
    for row in rows:
        groups.setdefault(row.group or row.name, []).append(row)
    for group in groups.values():
        wall, cpu = interleaved(group, group[0].repeat or ns.repeat)
        for row, times, cpu_times in zip(group, wall, cpu):
            note = row.note or (f"CPU {statistics.median(cpu_times):.4f} s/pass"
                                if row.cpu_note else "")
            best = rate(min(times), row.work, row.unit)
            median = rate(statistics.median(times), row.work, row.unit)
            print(f"{row.name:<22} {min(times):>9.3f}s {best:>10.3g} {median:>10.3g} "
                  f"{row.unit:<9} {note}".rstrip())
            records.append({"name": row.name, "unit": row.unit, "best": best, "median": median,
                            "seconds": times, "work": row.work, "note": note})
    return records


def run_against(rows, parent_rows, ns):
    """Time each row's change and parent side in turns; print and return the
    per-round ratio change / parent with its quartiles and the rounds won."""
    print(f"{'kernel':<22} {'ratio':>7} {'q1':>7} {'q3':>7} {'won':>7}")
    records = []
    for row, old in zip(rows, parent_rows, strict=True):
        assert row.name == old.name, (row.name, old.name)
        (new_t, old_t), _ = interleaved([row, old], row.repeat or ns.repeat)
        ratios = [a / b for a, b in zip(new_t, old_t)]
        q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                          if len(ratios) > 1 else ratios * 3)
        won = sum(r < 1.0 for r in ratios)
        note = row.note if row.note == old.note else f"{row.note}; parent {old.note}"
        print(f"{row.name:<22} {median:>7.3f} {q1:>7.3f} {q3:>7.3f} {won:>3}/{len(ratios):<3} "
              f"{note}".rstrip())
        records.append({"name": row.name, "ratio_median": median, "ratio_q1": q1,
                        "ratio_q3": q3, "rounds_won": won, "rounds": len(ratios),
                        "change_seconds": new_t, "parent_seconds": old_t,
                        "note": row.note, "parent_note": old.note})
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=5_000_000)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the environment stamp and every row's figures, repeat "
                         "times and note to PATH")
    ap.add_argument("--against", metavar="PATH",
                    help="time every row against the checkout at PATH (its src/gmacpam) in "
                         "turns and report the ratio change / parent")
    ns = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="bench-out-") as out_dir:
        change = package("gmacpam", os.path.dirname(os.path.dirname(
            os.path.abspath(gmacpam.__file__))))
        rows = build_rows(change, ns, out_dir)
        if ns.against:
            records = run_against(rows, build_rows(against(ns.against), ns, out_dir), ns)
        else:
            records = run_rows(rows, ns)
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(ns), "rows": records}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

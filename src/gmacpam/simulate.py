"""Monte-Carlo estimation of joint MAP decoding error.

The counter-based stream's constants, its seed check and the sweep
sub-seed live here, in plain Python ints, so that a sweep can derive its
seeds without loading numpy; _kernels, which does load it, reads them from
here. simulate imports _kernels on its first call.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .geometry import CombinedConstellation

# SplitMix64 increment and finaliser multipliers (see _kernels)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF


def backend_name() -> str:
    """Array backend of the Monte-Carlo and batched kernels."""
    return "numpy"


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**63:
        raise ValueError("seed must be a nonnegative integer below 2**63")


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-configuration sub-seed for sweeps.

    seed must lie in [0, 2^63), as simulate's does. Pure Python int
    arithmetic, masked to 64 bits; the result is kept below 2^63 so it can
    round-trip through any integer argument path.
    """
    _check_seed(seed)
    z = ((seed + _GOLDEN) * _MIX1) & _MASK64
    z = (z + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


class SimResult(NamedTuple):
    trials: int
    errors: int
    p_hat: float
    ci_halfwidth: float
    seed: int


def _decoder_lists(cc: CombinedConstellation, sigma2: float) -> tuple[list, list, list, list]:
    """The decoder's tables of cc at sigma2 as lists of floats: the points'
    real parts ax and imaginary parts ay, bias_k = ln p_k - |a_k|^2 /
    (2 sigma2), and the source cdf (cumulative sums of the priors in pair
    order, last entry exactly 1). The logarithms are np.log's of the four
    priors, which can differ from math.log's in the last bit; the rest is
    float arithmetic, which rounds as numpy's does."""
    import numpy as np

    pts = [complex(a) for a in cc.points]
    xs = [a.real for a in pts]
    ys = [a.imag for a in pts]
    p = cc.priors.as_tuple()
    log_p = np.log(np.array(p)).tolist()
    twice = 2.0 * sigma2
    bs = [lp - (x * x + y * y) / twice for lp, x, y in zip(log_p, xs, ys)]
    c0 = p[0]
    c1 = c0 + p[1]
    return xs, ys, bs, [c0, c1, c1 + p[2], 1.0]


def _decoder_tables(cc: CombinedConstellation, sigma2: float):
    """_decoder_lists as four float64 arrays (ax, ay, bias, cdf)."""
    import numpy as np

    return tuple(np.array(_decoder_lists(cc, sigma2)))


def _mc_tables(cc: CombinedConstellation, sigma2: float):
    """cc's Monte-Carlo tables at sigma2 (_kernels.McTables): everything
    the kernel reads before its first block, built on the first call at
    that sigma2 after simulate's checks of the points and the noise, and
    kept in cc's instance dict for its last sigma2 (as
    analysis._pair_geometry keeps the noise-free half), so rows that share
    a design at one noise point build them once. sigma2 must already be
    finite and positive. Inputs that fail a check keep nothing."""
    kept = cc.__dict__.get("_mc_tables")
    if kept is not None and kept.sigma2 == sigma2:
        return kept
    from . import _kernels

    # Every decoder score bias_k + <r, a_k> / sigma2 is below this in
    # magnitude, with a factor 2 to spare for rounding; past it a score can
    # be inf or NaN and the error count would mean nothing.
    amax = cc.scale()
    if not math.isfinite(amax * amax):
        raise OverflowError(f"largest point magnitude {amax!r} squares past the float range")
    reach = amax + _kernels.RADIUS_MAX * math.sqrt(sigma2)
    log_pmin = math.log(min(cc.priors.as_tuple()))
    bound = 2.0 * ((amax * amax / 2.0 + reach * amax) / sigma2 - log_pmin)
    if not math.isfinite(bound):
        raise ValueError(f"decoder scores overflow at sigma2 = {sigma2!r} for these points")
    tables = cc.__dict__["_mc_tables"] = _kernels.mc_tables(*_decoder_lists(cc, sigma2), sigma2)
    return tables


def simulate(
    cc: CombinedConstellation,
    sigma2: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Estimate the error probability with `trials` MAP-decoded samples.

    The draw for trial t depends only on (seed, t), so the result is
    identical for any worker count; at most one thread runs per usable CPU.
    numpy and the kernels load on the first call. The kernel's tables are
    kept with cc for its last sigma2 (_mc_tables).
    """
    from . import _kernels

    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_seed(seed)
    tables = _mc_tables(cc, sigma2)
    if trials == 0:
        return SimResult(0, 0, math.nan, math.nan, seed)

    if workers > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(workers, cpus or 1)
    edges = [trials * i // workers for i in range(workers + 1)]
    chunks = [(lo, hi - lo) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]

    def run(chunk):
        start, n = chunk
        return _kernels.mc_error_count(*tables[:4], sigma2, seed, start, n, tables)

    if len(chunks) == 1:
        counts = [run(chunks[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            counts = list(pool.map(run, chunks))
    errors = int(sum(counts))
    p_hat = errors / trials
    ci = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return SimResult(trials, errors, p_hat, ci, seed)

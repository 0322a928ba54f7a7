"""Monte-Carlo estimation of joint MAP decoding error."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .geometry import CombinedConstellation

# Largest Box-Muller radius, in units of sigma, that the uniform stream can
# draw: u1 <= 1 - 2**-53 gives sqrt(-2 ln 2**-53).
_RADIUS_MAX = math.sqrt(106.0 * math.log(2.0))


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    p_hat: float
    ci_halfwidth: float
    seed: int


def _decoder_tables(cc: CombinedConstellation, sigma2: float):
    pts = cc.as_array()
    ax = np.ascontiguousarray(pts.real)
    ay = np.ascontiguousarray(pts.imag)
    bias = np.log(cc.priors.as_array()) - (ax * ax + ay * ay) / (2.0 * sigma2)
    return ax, ay, bias, cc.priors.cdf()


def simulate(
    cc: CombinedConstellation,
    sigma2: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimResult:
    """Estimate the error probability with `trials` MAP-decoded samples.

    The draw for trial t depends only on (seed, t), so the result is
    identical for any worker count.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if not 0 <= seed < 2**63:
        raise ValueError("seed must be a nonnegative integer below 2**63")
    # Every decoder score bias_k + <r, a_k> / sigma2 is below this in
    # magnitude, with a factor 2 to spare for rounding; past it a score can
    # be inf or NaN and the error count would mean nothing.
    amax = cc.scale()
    reach = amax + _RADIUS_MAX * math.sqrt(sigma2)
    log_pmin = math.log(min(cc.priors.as_tuple()))
    bound = 2.0 * ((amax * amax / 2.0 + reach * amax) / sigma2 - log_pmin)
    if not math.isfinite(bound):
        raise ValueError(f"decoder scores overflow at sigma2 = {sigma2!r} for these points")
    if trials == 0:
        return SimResult(0, 0, math.nan, math.nan, seed)

    ax, ay, bias, cdf = _decoder_tables(cc, sigma2)
    edges = [trials * i // workers for i in range(workers + 1)]
    chunks = [(lo, hi - lo) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]

    def run(chunk):
        start, n = chunk
        return _kernels.mc_error_count(ax, ay, bias, cdf, sigma2, seed, start, n)

    if len(chunks) == 1:
        counts = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            counts = list(pool.map(run, chunks))
    errors = int(sum(counts))
    p_hat = errors / trials
    ci = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return SimResult(trials, errors, p_hat, ci, seed)


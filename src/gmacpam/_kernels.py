"""Hot numeric kernels: Monte-Carlo decoding and batched exact error.

All kernels are numpy. Randomness is counter based: uniform draw j of
trial t is a pure function of (seed, 3 t + j) through a SplitMix64
finaliser (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), so Monte Carlo error counts are invariant to chunking, worker
count and block size. Each trial consumes exactly three uniforms: one
source draw and two Box-Muller uniforms for the complex noise sample.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, owens_t

from .analysis import _RHO_LIMIT, _wins_degenerate, qfunc
from .geometry import coincidence_tol

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF
_U64 = np.uint64
_INV_2_53 = 2.0**-53


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# counter-based uniforms
# ---------------------------------------------------------------------------


def mask64(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return seed & _MASK64


def _splitmix_uniforms(seed: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws at the uint64 counters in z, overwriting z.

    tmp is scratch of z's shape. seed + (counter + 1) * golden is folded
    into counter * golden + (seed + golden); uint64 arithmetic wraps, so
    both forms give the same word.
    """
    z *= _U64(_GOLDEN)
    z += _U64((mask64(seed) + _GOLDEN) & _MASK64)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        z *= _U64(mix)
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    z >>= _U64(11)
    # below 2**53, so the signed view converts exactly (and faster)
    u = z.view(np.int64).astype(np.float64)
    u *= _INV_2_53
    return u


def uniforms_numpy(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws at the given 64-bit counters."""
    z = counters.astype(_U64)
    return _splitmix_uniforms(seed, z, np.empty_like(z))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-configuration sub-seed for sweeps.

    Pure Python int arithmetic, masked to 64 bits; the result is kept below
    2^63 so it can round-trip through any integer argument path.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    z = ((mask64(seed) + _GOLDEN) * _MIX1) & mask
    z = (z + (index + 1) * _GOLDEN) & mask
    z = ((z ^ (z >> 30)) * _MIX1) & mask
    z = ((z ^ (z >> 27)) * _MIX2) & mask
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Monte-Carlo trial kernel
# ---------------------------------------------------------------------------

# Trials per block: small enough that a block's temporaries (about 3 MB
# in all) stay in cache.
_MC_BLOCK = 1 << 14


def mc_error_count(
    ax: np.ndarray,
    ay: np.ndarray,
    bias: np.ndarray,
    cdf: np.ndarray,
    sigma2: float,
    seed: int,
    start: int,
    n: int,
) -> int:
    """Number of MAP decoding errors over trials [start, start + n).

    Per trial: pair idx = #{k < 3 : u0 >= cdf[k]} (the source draw),
    received sample a[idx] + r exp(i 2 pi u2) with Box-Muller radius
    r = sigma sqrt(-2 log1p(-u1)), and the decision is the first k that
    maximises bias[k] + (re * ax[k] + im * ay[k]) / sigma2, as argmax
    breaks ties (a NaN score, as in argmax, counts as the maximum). When
    every ay is 0 (collinear geometry) the quadrature terms are skipped:
    they add only +-0 to a score, which cannot change a comparison, so sin
    is never evaluated there.
    """
    sigma = math.sqrt(sigma2)
    c0, c1, c2 = (float(c) for c in cdf[:3])
    planar = bool(np.any(ay != 0.0))
    b = min(_MC_BLOCK, n)
    # counter of uniform j of trial i in a block, laid out (3, b) so that
    # each uniform stream is contiguous
    ramp = np.arange(3, dtype=_U64)[:, None] + np.arange(0, 3 * b, 3, dtype=_U64)
    z = np.empty_like(ramp)
    tmp = np.empty_like(ramp)
    errors = 0
    done = 0
    while done < n:
        m = min(b, n - done)
        zm = z[:, :m]
        np.add(ramp[:, :m], _U64(3 * (start + done) & _MASK64), out=zm)
        u0, u1, u2 = _splitmix_uniforms(seed, zm, tmp[:, :m])

        idx = (u0 >= c0).view(np.uint8) + (u0 >= c1).view(np.uint8)
        idx += (u0 >= c2).view(np.uint8)
        r = np.negative(u1, out=u1)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        r *= sigma
        ang = np.multiply(u2, 2.0 * math.pi, out=u2)
        rre = np.cos(ang)
        rre *= r
        rre += ax.take(idx)
        if planar:
            rim = np.sin(ang, out=ang)
            rim *= r
            rim += ay.take(idx)
            quad = u0  # u0 is spent; reuse it for the quadrature terms

        scores = []
        for k in range(4):
            s = rre * ax[k]
            if planar:
                s += np.multiply(rim, ay[k], out=quad)
            s /= sigma2
            s += bias[k]
            scores.append(s)
        top = np.maximum(scores[0], scores[1])
        np.maximum(top, scores[2], out=top)
        np.maximum(top, scores[3], out=top)
        if np.isnan(top).any():
            # overflowing inputs; argmax counts a NaN as the maximum
            best = np.argmax(np.stack(scores), axis=0)
        else:
            # first k attaining the maximum = the number of leading scores below it
            below = scores[0] != top
            best = below.view(np.uint8).copy()
            for s in scores[1:3]:
                below &= s != top
                best += below.view(np.uint8)
        errors += int(np.count_nonzero(best != idx))
        done += m
    return errors


# ---------------------------------------------------------------------------
# batched exact error (for the grid designer)
# ---------------------------------------------------------------------------

# Rival indices in lexicographic pair order: rival k of pair uv is uv ^ k,
# so k = 2 flips sender 1's bit, k = 1 sender 2's and k = 3 both.
_UV = np.arange(4)
_ADJ_X = _UV ^ 2
_ADJ_Y = _UV ^ 1
_DIAG = _UV ^ 3


def collinear_pe_batch(points: np.ndarray, priors: np.ndarray, sigma2: float) -> np.ndarray:
    """Exact collinear MAP error for a batch of real-axis constellations.

    points has shape (m, 4) in lexicographic pair order. Mirrors
    analysis.exact_error_collinear, vectorised over candidates: each pair's
    miss probability is the sum of the Gaussian tails past its two binding
    thresholds, Q(hi / sigma) + Q(-lo / sigma), never 1 - P_correct, so
    small error rates keep their relative precision.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    sigma = math.sqrt(sigma2)
    tol = coincidence_tol(np.max(np.abs(pts), axis=1))
    p_err = np.zeros(m)
    for uv in range(4):
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        dead = np.zeros(m, dtype=bool)
        for lm in range(4):
            if lm == uv:
                continue
            c = pts[:, lm] - pts[:, uv]
            if not _wins_degenerate(uv, lm, priors[uv], priors[lm]):
                dead |= np.abs(c) <= tol
            t = c * c / 2.0 + sigma2 * math.log(priors[uv] / priors[lm])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = t / c
            # a coincident rival (|c| <= tol) sets no threshold
            np.minimum(hi, ratio, out=hi, where=c > tol)
            np.maximum(lo, ratio, out=lo, where=c < -tol)
        miss = qfunc(hi / sigma)
        miss += qfunc(lo / -sigma)
        # an empty interval misses surely; its two tails overlap to >= 1
        np.minimum(miss, 1.0, out=miss, where=lo >= hi)
        miss[dead] = 1.0
        p_err += priors[uv] * miss
    return np.clip(p_err, 0.0, 1.0)


def _bvn_lower_orthant(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Vectorised analysis.bvn_lower_orthant with every special case kept.

    rho must already lie within +-_RHO_LIMIT (the callers clip it).
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        finite = np.isfinite(h) & np.isfinite(k)
        hh = np.where(h == 0.0, 1e-14, np.where(finite, h, 1.0))
        kk = np.where(k == 0.0, 1e-14, np.where(finite, k, 1.0))
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        ah = (kk / hh - rho) / s
        ak = (hh / kk - rho) / s
        c = np.where(hh * kk > 0.0, 0.0, 0.5)
        val = 0.5 * (ndtr(hh) + ndtr(kk)) - owens_t(hh, ah) - owens_t(kk, ak) - c
        val = np.clip(val, 0.0, 1.0)
        val = np.where((h == 0.0) & (k == 0.0), 0.25 + np.arcsin(rho) / (2.0 * math.pi), val)
        val = np.where(rho == 0.0, ndtr(h) * ndtr(k), val)
        # an infinite bound leaves a marginal, 0 or 1
        edge = np.where(h == np.inf, ndtr(k), ndtr(h))
        edge = np.where((h == -np.inf) | (k == -np.inf), 0.0, edge)
        return np.where(finite, val, edge)


def _pair_corr(c_a: np.ndarray, c_b: np.ndarray) -> np.ndarray:
    """Cosine between difference vectors, clipped as analysis._pair_corr."""
    denom = np.abs(c_a) * np.abs(c_b)
    dot = c_a.real * c_b.real + c_a.imag * c_b.imag
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom == 0.0, 0.0, dot / denom)
    return np.clip(rho, -_RHO_LIMIT, _RHO_LIMIT)


def planar_pe_batch(points: np.ndarray, priors: np.ndarray, sigma2: float) -> np.ndarray:
    """Exact planar MAP error for a batch of complex constellations.

    points has shape (m, 4) in lexicographic pair order. Mirrors
    analysis.exact_error_planar, vectorised over candidates and over the
    four transmitted pairs: three rival tails, the alpha_uv branch and the
    bivariate orthant corrections, all in tail form. A row whose four
    points are not pairwise distinct (the is_bijective rule, which also
    catches a sender whose own two points coincide) gets +inf, so argmin
    passes over it.
    """
    pts = np.asarray(points, dtype=np.complex128)
    p = np.asarray(priors, dtype=np.float64)
    sigma = math.sqrt(sigma2)
    tol = coincidence_tol(np.max(np.abs(pts), axis=1))
    bijective = np.ones(pts.shape[0], dtype=bool)
    for i in range(4):
        for j in range(i + 1, 4):
            bijective &= np.abs(pts[:, i] - pts[:, j]) > tol

    def rival(idx):
        c = pts[:, idx] - pts
        dist = np.abs(c)
        t = dist**2 / 2.0 + sigma2 * np.log(p / p[idx])
        with np.errstate(invalid="ignore", divide="ignore"):
            z = -t / (sigma * dist)
        return c, z

    c_x, z_x = rival(_ADJ_X)
    c_y, z_y = rival(_ADJ_Y)
    c_d, z_d = rival(_DIAG)
    t_x = qfunc(-z_x)
    t_y = qfunc(-z_y)
    t_d = qfunc(-z_d)
    cross = c_x.real * c_y.real + c_x.imag * c_y.imag
    alpha = sigma2 * np.log(p * p[_DIAG] / (p[_ADJ_X] * p[_ADJ_Y])) - cross
    wedge = alpha > 0.0
    # alpha > 0: miss = T_x + T_y + T_d - B_dx - B_dy; else T_x + T_y - J_xy
    first = _bvn_lower_orthant(
        np.where(wedge, z_d, z_x),
        np.where(wedge, z_x, z_y),
        np.where(wedge, _pair_corr(c_d, c_x), _pair_corr(c_x, c_y)),
    )
    second = np.zeros_like(first)
    second[wedge] = _bvn_lower_orthant(
        z_d[wedge], z_y[wedge], _pair_corr(c_d[wedge], c_y[wedge])
    )
    adj = t_x + t_y
    miss = np.where(wedge, adj + t_d - first - second, adj - first)
    p_err = np.clip(np.clip(miss, 0.0, 1.0) @ p, 0.0, 1.0)
    return np.where(bijective, p_err, np.inf)

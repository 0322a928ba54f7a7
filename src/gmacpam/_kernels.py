"""Hot numeric kernels: Monte-Carlo decoding and batched exact error.

The Monte-Carlo kernel has a numba fast path and a pure numpy fallback;
set GMACPAM_NO_NUMBA=1 to force the numpy one (the flag is read at import
time). Both are always importable individually so tests and benchmarks can
compare them directly. The batched exact-error kernels are numpy only.

Randomness is counter based: uniform draw j of trial t is a pure function
of (seed, 3 t + j) through a splitmix-style 64-bit finaliser, so Monte
Carlo error counts are invariant to chunking, worker count and backend.
Each trial consumes exactly three uniforms: one source draw and two
Box-Muller uniforms for the complex noise sample.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import ndtr, owens_t

from .analysis import _RHO_LIMIT, qfunc
from .geometry import COINCIDENCE_RTOL

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = np.uint64
_INV_2_53 = 2.0**-53


def numba_disabled_by_env() -> bool:
    return os.environ.get("GMACPAM_NO_NUMBA", "").strip().lower() in ("1", "true", "yes", "on")


try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    numba = None
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA and not numba_disabled_by_env()


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# counter-based uniforms (numpy)
# ---------------------------------------------------------------------------


def mask64(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return seed & 0xFFFFFFFFFFFFFFFF


def uniforms_numpy(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws at the given 64-bit counters."""
    z = (_U64(mask64(seed)) + (counters.astype(_U64) + _U64(1)) * _U64(_GOLDEN))
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    z = z ^ (z >> _U64(31))
    return (z >> _U64(11)).astype(np.float64) * _INV_2_53


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

_MC_BLOCK = 1 << 20


def mc_error_count_numpy(
    ax: np.ndarray,
    ay: np.ndarray,
    bias: np.ndarray,
    cdf: np.ndarray,
    sigma2: float,
    seed: int,
    start: int,
    n: int,
) -> int:
    """Number of MAP decoding errors over trials [start, start + n)."""
    sigma = math.sqrt(sigma2)
    cdf3 = cdf[:3]
    errors = 0
    done = 0
    while done < n:
        m = min(_MC_BLOCK, n - done)
        t = np.arange(start + done, start + done + m, dtype=_U64) * _U64(3)
        u0 = uniforms_numpy(seed, t)
        u1 = uniforms_numpy(seed, t + _U64(1))
        u2 = uniforms_numpy(seed, t + _U64(2))
        idx = np.searchsorted(cdf3, u0, side="right")
        r = sigma * np.sqrt(-2.0 * np.log1p(-u1))
        ang = (2.0 * math.pi) * u2
        rre = ax[idx] + r * np.cos(ang)
        rim = ay[idx] + r * np.sin(ang)
        scores = bias[None, :] + (np.outer(rre, ax) + np.outer(rim, ay)) / sigma2
        best = np.argmax(scores, axis=1)
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


def _coincidence_tol(pts: np.ndarray) -> np.ndarray:
    return COINCIDENCE_RTOL * np.maximum(np.max(np.abs(pts), axis=1), 1e-300)


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
    tol = _coincidence_tol(pts)
    p_err = np.zeros(m)
    for uv in range(4):
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        dead = np.zeros(m, dtype=bool)
        for lm in range(4):
            if lm == uv:
                continue
            c = pts[:, lm] - pts[:, uv]
            if priors[uv] != priors[lm]:
                wins = priors[uv] > priors[lm]
            else:
                wins = uv < lm
            if not wins:
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
    tol = _coincidence_tol(pts)
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


# ---------------------------------------------------------------------------
# numba fast path
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _njit = numba.njit(cache=True, nogil=True)

    @_njit
    def _uniform_nb(seed: np.uint64, counter: np.uint64) -> float:
        z = seed + (counter + _U64(1)) * _U64(_GOLDEN)
        z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
        z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
        z = z ^ (z >> _U64(31))
        return (z >> _U64(11)) * _INV_2_53

    @_njit
    def mc_error_count_numba(ax, ay, bias, cdf, sigma2, seed, start, n):
        sigma = math.sqrt(sigma2)
        seed_u = _U64(seed)
        errors = 0
        for t in range(start, start + n):
            base = _U64(3 * t)
            u0 = _uniform_nb(seed_u, base)
            if u0 < cdf[0]:
                idx = 0
            elif u0 < cdf[1]:
                idx = 1
            elif u0 < cdf[2]:
                idx = 2
            else:
                idx = 3
            u1 = _uniform_nb(seed_u, base + _U64(1))
            u2 = _uniform_nb(seed_u, base + _U64(2))
            r = sigma * math.sqrt(-2.0 * math.log1p(-u1))
            ang = (2.0 * math.pi) * u2
            rre = ax[idx] + r * math.cos(ang)
            rim = ay[idx] + r * math.sin(ang)
            best = 0
            best_score = bias[0] + (rre * ax[0] + rim * ay[0]) / sigma2
            for k in range(1, 4):
                s = bias[k] + (rre * ax[k] + rim * ay[k]) / sigma2
                if s > best_score:
                    best_score = s
                    best = k
            if best != idx:
                errors += 1
        return errors

else:  # pragma: no cover - exercised via the env flag instead
    mc_error_count_numba = None


mc_error_count = mc_error_count_numba if USING_NUMBA else mc_error_count_numpy


def warmup() -> None:
    """Trigger jit compilation so timing runs exclude compile cost."""
    if not USING_NUMBA:
        return
    ax = np.array([-1.0, 0.0, 0.0, 1.0])
    ay = np.zeros(4)
    bias = np.zeros(4)
    cdf = np.array([0.25, 0.5, 0.75, 1.0])
    mc_error_count(ax, ay, bias, cdf, 0.1, 1, 0, 8)

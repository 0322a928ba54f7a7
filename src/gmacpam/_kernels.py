"""Hot numeric kernels: Monte-Carlo decoding and batched exact error.

The kernels are numpy, except safe_disk, which is scalar (Python floats
and the math module) because its tables hold four points. The batched
exact-error kernels score designs given by their two separations (d1, d2),
on which the MAP error alone depends; each row's error depends on that row
alone, and they take scipy's erfc and owens_t where called, so Monte Carlo
never loads scipy.
Randomness is counter based: uniform draw j of trial t is a pure function of (seed, 3 t + j)
through a SplitMix64 finaliser (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), so Monte Carlo error counts are invariant to chunking, worker
count and block size. Each trial owns three counters: one source draw
and two Box-Muller uniforms for the complex noise sample. Every cut is
compared on the raw word (word_cut), which is exact. The finaliser's
last step keeps the top 31 bits of its input, so the kernel picks the
trials to look at on the words before it (pre_cut) and finishes only
theirs. It takes the radius word (the 64-bit word behind the radius
uniform) of every trial that far; when the smallest safe-disk cut (see
safe_disk) is at least 1/2, the source word only of trials at or past
it, since one below it decodes correctly whatever its sent point, and
otherwise the source word of every trial; when few trials are expected
past their cuts, the top byte of that word looks up the trial's cut
(_bucket_cuts), and only the trials at or past it are finished. It draws
the angle word only of the trials it scores: those at or past their own
point's cut, and on the bucket path a few inside it, which the full
decision gets right as it does every trial there. Words not drawn keep
their counters reserved, so every count is the one the full decision
gives.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analysis import _RHO_LIMIT, _TINY
from .geometry import COINCIDENCE_RTOL, SCALE_FLOOR, coincidence_tol
# the stream's constants and seed check live in simulate, so that no sweep needs numpy for them
from .simulate import _GOLDEN, _MASK64, _MIX1, _MIX2, _check_seed

_U64 = np.uint64
_INV_2_53 = 2.0**-53
_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# counter-based uniforms
# ---------------------------------------------------------------------------


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser of the words in z, in place, up to its last
    xorshift: the stage every drawn word goes through. tmp is scratch of
    z's shape. The word of counter c is the finaliser of seed + (c + 1) *
    golden; uint64 arithmetic wraps, so any grouping of that sum gives it."""
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _U64(shift), out=tmp)
        z ^= tmp
        z *= _U64(mix)
    return z


def _finish(y: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The finaliser's last step, w = y ^ (y >> 31), in place; tmp is
    scratch of y's shape. It leaves the top 31 bits of y as they are, so
    w >= c implies y >= pre_cut(c), and w and y share their top byte."""
    np.right_shift(y, _U64(31), out=tmp)
    y ^= tmp
    return y


def _splitmix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of the words in z, in place (see _mix)."""
    return _finish(_mix(z, tmp), tmp)


def pre_cut(c: int) -> int:
    """Smallest word y before the finaliser's last step whose top 31 bits
    can give a final word w >= c: c with its low 33 bits cleared."""
    return c & ~((1 << 33) - 1)


def _uniforms(w: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws (w >> 11) 2**-53 of the 64-bit words w, written
    over w: the result is a float64 view of w's memory."""
    w >>= _U64(11)
    # below 2**53, so the signed view converts exactly (and faster); the
    # cast reads each word before it writes its draw, so it runs in place
    u = w.view(np.float64)
    np.multiply(w.view(np.int64), _INV_2_53, out=u)
    return u


def word_cut(c: float) -> int:
    """Smallest 64-bit word w whose uniform (w >> 11) 2**-53 is >= c, for c
    in [0, 1]: ceil(c 2**53) 2**11, exact since c 2**53 is. It is 2**64,
    which no word reaches, for c = 1."""
    return math.ceil(math.ldexp(c, 53)) << 11


def uniforms_numpy(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0,1) draws at the given 64-bit counters; seed as simulate's."""
    _check_seed(seed)
    z = counters.astype(_U64)
    z *= _U64(_GOLDEN)
    z += _U64((seed + _GOLDEN) & _MASK64)
    return _uniforms(_splitmix(z, np.empty_like(z)))


# ---------------------------------------------------------------------------
# Monte-Carlo trial kernel
# ---------------------------------------------------------------------------

# Trials per block, and the most trials one scoring batch takes: small
# enough that a block's temporaries (three 256 KB word arrays and the
# smaller gathers) stay in cache.
_MC_BLOCK = 1 << 15

# Largest Box-Muller radius, in units of sigma, that the uniform stream can
# draw: u1 <= 1 - 2**-53 gives sqrt(-2 ln 2**-53).
RADIUS_MAX = math.sqrt(106.0 * math.log(2.0))

# Safe-disk margin, relative to the magnitude of the terms of a score
# difference (see safe_disk). The kernel's rounding of the received sample
# and of the scores, of log1p, sqrt and cos in the radius, and of the
# disk's own arithmetic stays below about 40 ulp (2**-48) of it; this is
# 256 times that.
_DISK_RTOL = 2.0**-40
# Absolute floor of those terms, in units of 1 + sigma2, for roundings
# that fall into the subnormal range.
_DISK_TINY = 2.0**-1000
_FLOAT_MIN = 2.0**-1022


def safe_disk(ax: np.ndarray, ay: np.ndarray, bias: np.ndarray,
              sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point i, a noise radius rho_i that cannot be decoded wrongly,
    and the cut on the radius uniform that keeps a trial inside it.

    With c = a_k - a_i and the kernel's own tables, sigma2 (s_i - s_k) =
    D_k - N.c with D_k = sigma2 (bias_i - bias_k) - a_i.c, so every noise
    sample with |N| < min_k D_k / |c| scores i strictly above each rival.
    rho_i is that minimum with each D_k shrunk by _DISK_RTOL times
    sigma2 (|bias_i| + |bias_k|) + (|a_i| + R)(|a_i| + |a_k|), R the
    largest radius the kernel draws: a bound on every term the kernel and
    this function round. A trial with u1 < cut_i has Box-Muller radius
    sigma sqrt(-2 log1p(-u1)) < rho_i; cut_i = -expm1(-rho_i^2 / (2
    sigma2)) less 4 * 2**-53, which covers the rounding of expm1.

    rho_i and cut_i are 0 for a point with a coincident rival (|c| at or
    below the coincidence tolerance), and for every point when a table
    entry or sigma2 is not a finite normal number, a score could
    overflow, or a rho_i is not a finite number: those trials all take
    the full decision.

    The tables hold four points, so this one is scalar: Python floats and
    the math module, not numpy. Magnitudes are abs of a complex, which is
    libm's hypot as np.hypot is; both arrays come back as float64.
    """
    zeros = (np.zeros(len(ax)), np.zeros(len(ax)))
    xs, ys, bs = ax.tolist(), ay.tolist(), bias.tolist()
    if not (_FLOAT_MIN <= sigma2 < math.inf and all(map(math.isfinite, xs + ys + bs))):
        return zeros
    pts = [complex(x, y) for x, y in zip(xs, ys)]
    try:
        amp = [abs(a) for a in pts]
    except OverflowError:  # a magnitude past the float range: no score bound
        return zeros
    radius = RADIUS_MAX * math.sqrt(sigma2)
    reach = [m + radius for m in amp]
    abias = [abs(b) for b in bs]
    # 4x a bound on every score the kernel computes; past it, no distance
    # below overflows either
    if not math.isfinite(4.0 * (max(abias) + max(reach) * max(amp) / sigma2)):
        return zeros
    tol = coincidence_tol(max(amp))
    floor = _DISK_TINY * (1.0 + sigma2)
    rho = []
    for i, a in enumerate(pts):
        ratios = []
        for k, b in enumerate(pts):
            if k == i:
                continue
            c = b - a  # rival k of sent point i
            dist = abs(c)
            if dist <= tol:  # a coincident rival
                rho.append(0.0)
                break
            d = sigma2 * (bs[i] - bs[k]) - (xs[i] * c.real + ys[i] * c.imag)
            terms = sigma2 * (abias[i] + abias[k]) + reach[i] * (amp[i] + amp[k]) + floor
            ratios.append((d - _DISK_RTOL * terms) / dist)
        else:
            if any(map(math.isnan, ratios)):  # inf - inf in a D_k or its margin
                return zeros
            r = max(min(ratios), 0.0)
            rho.append(0.0 if r * r < _FLOAT_MIN else r)
    x = [r * r / (2.0 * sigma2) for r in rho]
    if not all(map(math.isfinite, x)):
        return zeros
    cut = [max(-math.expm1(-v) - 4.0 * _INV_2_53, 0.0) for v in x]
    return np.array(rho), np.array(cut)


@functools.cache
def _counter_ramp(block: int) -> np.ndarray:
    """Read-only counters 3 i golden, i < block: stream j's word of trial i
    of a block is the finaliser of entry i plus the block's offset for j
    (see _splitmix). Built on the first Monte-Carlo call at each block size."""
    ramp = np.arange(0, 3 * block, 3, dtype=_U64)
    ramp *= _U64(_GOLDEN)
    ramp.flags.writeable = False
    return ramp


# Source words fall into 256 buckets by their top byte, which the word
# before the finaliser's last step already has (see _finish): bucket k
# holds the words [k 2**56, (k + 1) 2**56).
_BUCKET_FIRST = np.arange(256, dtype=_U64) << _U64(56)
_BUCKET_LAST = _BUCKET_FIRST | _U64((1 << 56) - 1)
# The pair of a bucket that a cdf cut splits
_SPLIT = 4
# Largest expected share of a block's trials past their bucket's cut for
# which the candidate path runs; past it, the full-block finish is cheaper
# (see mc_error_count; measured break-even 26-30%).
_SPARSE_SHARE = 0.25


def _bucket_cuts(cut: np.ndarray, cdf_cut: list) -> tuple[np.ndarray, np.ndarray]:
    """Per source bucket, the pre_cut of the radius-word cut of its pair and
    that pair; a bucket a cdf cut splits takes the smallest pre_cut of all
    and the pair _SPLIT. cut holds each pair's word cut, cdf_cut the
    source's cdf cuts (word_cut of each cdf entry below 1)."""
    cdf = np.array(cdf_cut, dtype=_U64)
    first = np.searchsorted(cdf, _BUCKET_FIRST, side="right")
    last = np.searchsorted(cdf, _BUCKET_LAST, side="right")
    pre = np.array([pre_cut(c) for c in cut.tolist()], dtype=_U64)
    whole = first == last
    return (np.where(whole, pre[first], pre.min()),
            np.where(whole, first, _SPLIT).astype(np.uint8))


def _pairs(w0: np.ndarray, cdf_cut: list) -> np.ndarray:
    """Sent pair #{k : w0 >= cdf_cut[k]} of each source word in w0."""
    idx = np.zeros(w0.size, dtype=np.uint8)
    for c in cdf_cut:
        idx += (w0 >= c).view(np.uint8)
    return idx


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
    """Number of MAP decoding errors over trials [start, start + n); seed
    as simulate's.

    Per trial t: pair idx = #{k < 3 : u0 >= cdf[k]} (the source draw),
    received sample a[idx] + r exp(i 2 pi u2) with Box-Muller radius
    r = sigma sqrt(-2 log1p(-u1)), and the decision is the first k that
    maximises bias[k] + (re * ax[k] + im * ay[k]) / sigma2, as argmax
    breaks ties (a NaN score, as in argmax, counts as the maximum). Uniform
    j of trial t sits at counter 3 t + j.

    A trial with u1 below its point's safe-disk cut (safe_disk) decodes
    correctly whatever u2 is, so it is counted as correct without drawing
    u2 or scoring; the rest are drawn and decided as above. Cuts are
    compared on the words, w >= word_cut(c) for u >= c, which is exact.
    Each block of _MC_BLOCK trials takes one of three paths:

    - screen, when the smallest cut is at least 1/2: every trial's radius
      word before the finaliser's last step, y1 (see _finish), is compared
      with the pre_cut of the smallest cut. Only the trials at or past it,
      a superset of those past the cut, get their radius word finished and
      their source word drawn;
    - candidates, when fewer than _SPARSE_SHARE of the trials are expected
      past their cuts: every trial's source and radius words are taken to
      y0 and y1, and y1 is compared with the pre_cut of y0's top byte
      (_bucket_cuts). Only the trials at or past it get their radius word
      finished, and all of them are scored: their pair is their bucket's,
      or, in a bucket a cdf cut splits, drawn again from its counter when
      its batch is scored. The few inside their own disk decode correctly
      when scored, as every trial there does;
    - full block, otherwise: every source and radius word is finished.

    The screen and the full block test the finished radius word of each of
    their trials against its own point's cut, exactly, and keep those at or
    past it. The blocks' remaining trials (sent pair, radius word, angle
    counter) are collected and scored by _score_trials in batches of at
    most _MC_BLOCK trials across blocks, so at high SNR, where about 1% of
    trials leave their disk, a call runs the scoring stage once rather than
    once a block.
    """
    _check_seed(seed)
    cut = np.array([word_cut(c) for c in safe_disk(ax, ay, bias, sigma2)[1].tolist()],
                   dtype=_U64)
    # a cdf entry that rounds to 1 has no word at or past it
    cdf_cut = [_U64(w) for w in map(word_cut, cdf[:3].tolist()) if w <= _MASK64]
    # Radius words below the smallest cut are inside every point's disk, so
    # only trials past it need a source word. Gathering those trials costs
    # more than the words it spares when the cut is below about 1/2
    # (measured break-even 0.45-0.5), so there, and when a point has no
    # disk (cut 0), every trial draws its source word, and the bucket cuts
    # pick the trials to finish when few are expected past them.
    screen = bool(cut.min() >= word_cut(0.5))
    if screen:
        threshold = _U64(pre_cut(int(cut.min())))
        sparse = False
    else:
        table, table_pair = _bucket_cuts(cut, cdf_cut)
        # each bucket holds 1/256 of the source words
        sparse = 1.0 - math.ldexp(table.mean(dtype=np.float64), -64) < _SPARSE_SHARE
    b = min(_MC_BLOCK, n)
    ramp = _counter_ramp(_MC_BLOCK)[:b]
    words = np.empty_like(ramp)
    tmp = np.empty_like(ramp)
    # the trials left to score, collected across blocks (sent pairs,
    # radius words and angle counters), and the scoring's scratch
    idx_q, w1_q, z2_q = np.empty(b, dtype=np.uint8), np.empty_like(ramp), np.empty_like(ramp)
    work = np.empty((6, b))
    # the block's source buckets, as take indices: a narrower index would
    # make each take convert it to a temporary of this size
    bucket = np.empty(b if sparse else 0, dtype=np.int64)

    def score(size: int) -> int:
        # a trial from a bucket a cdf cut splits gets its pair here
        split = np.flatnonzero(idx_q[:size] == _SPLIT)
        if split.size:
            # the source counter of a trial is its angle counter less 2 golden
            z0 = z2_q.take(split) - _U64(2 * _GOLDEN & _MASK64)
            idx_q[split] = _pairs(_splitmix(z0, work[0, :split.size].view(_U64)), cdf_cut)
        return _score_trials(ax, ay, bias, sigma2, idx_q[:size], w1_q[:size], z2_q[:size], work)

    size = 0
    errors = 0
    done = 0
    while done < n:
        m = min(b, n - done)
        first = 3 * (start + done)
        offset = [_U64(((first + j + 1) * _GOLDEN + seed) & _MASK64) for j in range(3)]
        done += m
        if screen or sparse:
            if sparse:
                y0 = _mix(np.add(ramp[:m], offset[0], out=words[:m]), tmp[:m])
                np.right_shift(y0, _U64(56), out=bucket[:m].view(_U64))
            y1 = _mix(np.add(ramp[:m], offset[1], out=words[:m]), tmp[:m])
            if sparse:
                threshold = np.take(table, bucket[:m], out=tmp[:m], mode="clip")
            rows = np.flatnonzero(y1 >= threshold)
            if rows.size == 0:
                continue
            w1 = _finish(y1.take(rows), tmp[:rows.size])
            if screen:
                # in-range indices: mode "clip" writes to out directly,
                # where "raise" would fill a buffered copy of it
                z0 = np.take(ramp, rows, out=words[:rows.size], mode="clip")
                z0 += offset[0]
                idx = _pairs(_splitmix(z0, tmp[:rows.size]), cdf_cut)
            else:
                idx = np.take(table_pair, bucket.take(rows))
        else:
            # the source words go first, so that both streams fit in
            # `words` in turn
            rows = None
            idx = _pairs(_splitmix(np.add(ramp[:m], offset[0], out=words[:m]), tmp[:m]), cdf_cut)
            w1 = _splitmix(np.add(ramp[:m], offset[1], out=words[:m]), tmp[:m])
        if sparse:
            # every candidate is scored: the few inside their own disk (from
            # a split bucket, or past the pre_cut only) decode correctly
            live = None
        else:
            live = np.flatnonzero(w1 >= np.take(cut, idx, out=tmp[:idx.size], mode="clip"))
            if live.size == 0:
                continue
        count = idx.size if live is None else live.size
        if size + count > b:
            errors += score(size)
            size = 0
        end = size + count
        if live is None:
            idx_q[size:end] = idx
            w1_q[size:end] = w1
        else:
            np.take(idx, live, out=idx_q[size:end], mode="clip")
            np.take(w1, live, out=w1_q[size:end], mode="clip")
            rows = live if rows is None else rows.take(live)
        # the scored trials' rows in the block give their angle counters
        z2 = np.take(ramp, rows, out=z2_q[size:end], mode="clip")
        z2 += offset[2]
        size = end
    if size:
        errors += score(size)
    return errors


def _score_trials(ax: np.ndarray, ay: np.ndarray, bias: np.ndarray, sigma2: float,
                  idx: np.ndarray, w1: np.ndarray, z2: np.ndarray, work: np.ndarray) -> int:
    """Decoding errors among trials with sent pairs idx, radius words w1
    and angle counters z2 (the angle words before the finaliser). Every
    array of the batch's length lives in w1, z2 (both overwritten) or a row
    of work, float64 scratch of shape (6, m), m >= idx.size, that the
    caller keeps for its whole call: a batch frees nothing large, which
    would let the allocator hand the pages back and fault them in again
    for the next one. When every ay is 0 (collinear geometry) the
    quadrature terms are skipped: they add only +-0 to a score, which
    cannot change a comparison, so sin is never evaluated there."""
    rim, top, *scores = (row[:idx.size] for row in work)
    planar = bool(np.any(ay != 0.0))
    r = _uniforms(w1)
    ang = _uniforms(_splitmix(z2, rim.view(_U64)))

    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    r *= math.sqrt(sigma2)
    ang *= 2.0 * math.pi
    if planar:
        np.sin(ang, out=rim)
        rim *= r
        rim += np.take(ay, idx, out=top, mode="clip")
    rre = np.cos(ang, out=ang)
    rre *= r
    rre += np.take(ax, idx, out=top, mode="clip")
    quad = r  # r is spent; reuse it for the quadrature terms

    for k, s in enumerate(scores):
        np.multiply(rre, ax[k], out=s)
        if planar:
            s += np.multiply(rim, ay[k], out=quad)
        s /= sigma2
        s += bias[k]
    np.maximum(scores[0], scores[1], out=top)
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
    return int(np.count_nonzero(best != idx))


# ---------------------------------------------------------------------------
# batched exact error (for the numerical search)
# ---------------------------------------------------------------------------

def _qfunc_array(x: np.ndarray) -> np.ndarray:
    """0.5 erfc(x / sqrt 2) elementwise on scipy's erfc, with analysis.qfunc's
    underflow rule but not its compensation of x / sqrt 2: near x = 37 it is
    off by up to about 1 600 ulp (4e-13 relative), qfunc by at most 4."""
    from scipy.special import erfc

    q = erfc(x / _SQRT2)
    q *= 0.5
    np.copyto(q, 0.0, where=q < _TINY)
    return q


# A batch of m designs takes all three rivals of every point at once: row
# 4 j + uv of its (12, m) arrays is rival _RIVAL[4 j + uv] of point uv, the
# pair that flips sender 1's bit u (j = 0, the x block), sender 2's bit v
# (j = 1, y) or both (j = 2, d); each loop runs along m.
_UV = np.arange(4)
_OWN = np.tile(_UV, 3)
_RIVAL = np.concatenate((_UV ^ 2, _UV ^ 1, _UV ^ 3))


def _rival(d1: np.ndarray, d2: np.ndarray, p: np.ndarray, sigma2: float):
    """Difference vectors c, their magnitudes dist and bounds z of the rival
    table of m designs, and each design's coincidence tolerance.

    A design's points are {t, t + d2, t + d1, t + d1 + d2} for any translate
    t, so point uv's rivals lie at (1 - 2u) d1 (x), (1 - 2v) d2 (y) and their
    sum (d), the blocks of analysis._planar_point. A magnitude is hypot of
    the parts, as Python's abs of a complex (numpy's complex abs can differ
    by an ulp); rows 10 and 11 negate rows 9 and 8. z is analysis._tails'
    z[4 uv + lm], -(|c|^2/2 + sigma2 ln(p_uv / p_lm)) / (sigma |c|). The
    tolerance is geometry.coincidence_tol of the translate t = 0's largest
    point magnitude, max(|d1|, |d2|, |d1 + d2|).
    """
    c = np.empty((12, d1.size), dtype=d2.dtype)
    c[:2] = d1
    np.negative(d1, out=c[2:4])
    c[4:8:2] = d2
    np.negative(d2, out=c[5:8:2])
    np.add(c[:4], c[4:8], out=c[8:])
    if c.dtype.kind == "c":
        dist = np.empty((12, d1.size))
        dist[:4] = np.abs(d1)
        dist[4:8] = np.hypot(d2.real, d2.imag)
        np.hypot(c[8:10].real, c[8:10].imag, out=dist[8:10])
        dist[10:] = dist[9:7:-1]
    else:  # hypot(x, 0) = |x|, as np.abs gives it
        dist = np.abs(c)
    tol = np.maximum(np.maximum(dist[0], dist[4]), dist[8])
    np.maximum(tol, SCALE_FLOOR, out=tol)
    tol *= COINCIDENCE_RTOL
    # past sigma2 ~ 1e308 the prior term overflows to +-inf, as on the scalar path
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = dist**2 / 2.0 + (sigma2 * np.log(p[_OWN] / p[_RIVAL]))[:, None]
        z = -t / (math.sqrt(sigma2) * dist)
    return c, dist, z, tol


def collinear_pe_batch(d1: np.ndarray, d2: np.ndarray, priors: np.ndarray,
                       sigma2: float) -> np.ndarray:
    """Exact MAP error of each of m designs on the real axis.

    d1 and d2 are the senders' signed separations, real arrays of length m.
    Mirrors analysis.exact_error_collinear, vectorised over designs and
    pairs, with its binding rule: Phi is monotone, so on each side of a
    point the rival with the largest z binds. The miss probability sums
    those two tails, taken in one erfc call, never 1 - P_correct, capped at
    1. A coincident rival sets no bound; it kills the point when it takes
    the shared point (analysis._wins_degenerate: larger prior, then lower
    index). A row's error adds its four prior-weighted misses in pair order.
    """
    p = np.asarray(priors, dtype=np.float64)
    c, dist, z, tol = _rival(d1, d2, p, sigma2)
    # each rival's bound on the side of the point it sits on, -inf on the other
    bound = np.full((2, *z.shape), -np.inf)
    np.copyto(bound[0], z, where=c > tol)
    np.copyto(bound[1], z, where=c < -tol)
    # each side's binding bound over the rival blocks (a reduction costs more)
    top = np.maximum(bound[:, :4], bound[:, 4:8])
    np.maximum(top, bound[:, 8:], out=top)
    tail = _qfunc_array(np.negative(top, out=top))
    miss = np.minimum(tail[0] + tail[1], 1.0)
    coincident = dist <= tol
    if coincident.any():
        loses = (p[_OWN] < p[_RIVAL]) | ((p[_OWN] == p[_RIVAL]) & (_OWN > _RIVAL))
        miss[np.logical_or.reduce((coincident & loses[:, None]).reshape(3, 4, -1))] = 1.0
    miss *= p[:, None]
    return np.clip(miss[0] + miss[1] + miss[2] + miss[3], 0.0, 1.0)


def _bvn_lower_orthant(h: np.ndarray, k: np.ndarray, rho: np.ndarray,
                       phi_h: np.ndarray, phi_k: np.ndarray) -> np.ndarray:
    """Vectorised analysis._bvn: Pr(X <= h, Y <= k) given Phi(h) and Phi(k),
    on scipy's owens_t ufunc (one call takes T(h, a_h) and T(k, a_k)), with
    _bvn's special cases in its order (NaN, infinite bounds, rho = 0,
    h = k = 0). A single zero bound takes owens_t(0, +-inf) = +-1/4
    exactly, as the scalar path does.

    rho must already lie within +-_RHO_LIMIT (the callers clip it).
    """
    from scipy.special import owens_t

    hk = np.concatenate((h, k)).reshape(2, -1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        a = np.where(hk == 0.0, np.copysign(np.inf, hk[::-1]), (hk[::-1] / hk - rho) / s)
        t = owens_t(hk, a)
        val = 0.5 * (phi_h + phi_k) - t[0] - t[1] - np.where((h < 0.0) == (k < 0.0), 0.0, 0.5)
    np.clip(val, 0.0, 1.0, out=val)
    # each special case overrides those after it in _bvn's order
    zero = (h == 0.0) & (k == 0.0)
    if zero.any():
        np.copyto(val, 0.25 + np.arcsin(rho) / (2.0 * math.pi), where=zero)
    np.copyto(val, phi_h * phi_k, where=rho == 0.0)
    if not np.isfinite(hk).all():
        # an infinite bound leaves a marginal, 0 or 1
        np.copyto(val, phi_h, where=k == np.inf)
        np.copyto(val, phi_k, where=h == np.inf)
        np.copyto(val, 0.0, where=(h == -np.inf) | (k == -np.inf))
        np.copyto(val, np.nan, where=np.isnan(h) | np.isnan(k))
    return val


def _pair_corr(c_a: np.ndarray, c_b: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Cosine between difference vectors, given the product of their
    lengths, clipped as analysis._pair_corr."""
    dot = c_a.real * c_b.real + c_a.imag * c_b.imag
    rho = np.divide(dot, denom, out=np.zeros_like(dot), where=denom != 0.0)
    return np.clip(rho, -_RHO_LIMIT, _RHO_LIMIT, out=rho)


def planar_pe_batch(d1: np.ndarray, d2: np.ndarray, priors: np.ndarray,
                    sigma2: float) -> np.ndarray:
    """Exact MAP error of each of m designs in the plane.

    d1 is sender 1's separation, a real array of length m, and d2 sender
    2's separation vector, a complex one. Mirrors analysis.exact_error_planar,
    vectorised over designs and over the four transmitted pairs: three rival
    tails, the alpha_uv branch and the bivariate orthant corrections, all in
    tail form. A design whose points are not pairwise distinct (the
    is_bijective rule: |d1|, |d2| or |d1 +- d2| at or below the coincidence
    tolerance) gets +inf, so argmin passes over it. A row's error adds its
    weighted misses in pair order.
    """
    p = np.asarray(priors, dtype=np.float64)
    c, dist, z, tol = _rival(d1, d2, p, sigma2)
    # the 12 ordered pairs hold each of the 6 pairs twice
    bijective = np.logical_and.reduce(dist > tol, axis=0)
    # tail = Phi(z), the marginals each orthant needs
    tail = _qfunc_array(-z)
    c_x, c_y = c[:4], c[4:8]
    cross = c_x.real * c_y.real + c_x.imag * c_y.imag
    with np.errstate(over="ignore"):
        alpha = (sigma2 * np.log(p * p[_UV ^ 3] / (p[_UV ^ 2] * p[_UV ^ 1])))[:, None] - cross
    wedge = alpha > 0.0

    # alpha > 0: miss = T_x + T_y + T_d - B_dx - B_dy; else T_x + T_y - J_xy.
    # One orthant call takes the first orthant of every point (B_dx or
    # J_xy), then B_dy of the wedge points, each with the rho of its pair:
    # h and k index the flat (12, m) arrays, x of point uv in row uv.
    x = np.arange(wedge.size).reshape(wedge.shape)
    on = 4 * x.shape[1] * wedge
    h = np.concatenate(((x + 2 * on).ravel(), x[wedge] + 2 * wedge.size))
    k = np.concatenate(((x + wedge.size - on).ravel(), x[wedge] + wedge.size))
    rho = _pair_corr(c.take(h), c.take(k), dist.take(h) * dist.take(k))
    orthant = _bvn_lower_orthant(z.take(h), z.take(k), rho, tail.take(h), tail.take(k))
    miss = tail[:4] + tail[4:8]
    np.add(miss, tail[8:], out=miss, where=wedge)
    miss -= orthant[:wedge.size].reshape(wedge.shape)
    miss[wedge] -= orthant[wedge.size:]
    np.clip(miss, 0.0, 1.0, out=miss)
    miss *= p[:, None]
    return np.where(bijective, np.clip(miss[0] + miss[1] + miss[2] + miss[3], 0.0, 1.0), np.inf)

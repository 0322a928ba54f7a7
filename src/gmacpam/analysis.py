"""Exact MAP error probabilities and analytic bounds.

For a transmitted pair (u, v) and a candidate (l, m), define the pairwise
decision statistic

    Delta_{uv,lm} = Re[N conj(a_lm - a_uv)] - |a_lm - a_uv|^2 / 2
                    - sigma2 ln(p_uv / p_lm),

which is Gaussian with mean -|a_lm - a_uv|^2/2 - sigma2 ln(p_uv/p_lm) and
standard deviation sigma |a_lm - a_uv|. Correct decoding of (u, v) is the
event that all three statistics are negative.

Each exact-error and union-bound call reads one pairwise table for its
constellation and noise level, in two halves. The noise-free half is built
once per constellation object, on its first call, and kept with it: the
points, the priors, the collinear and bijective flags (by the coincidence
tolerance), each distinct pair's distance d, d^2/2 and log prior ratios (a
coincident pair's bound is +-inf), the side each collinear rival sits on,
and each planar point's alpha_uv terms and pair correlations. The noise
half is two flat lists filled per call, in one pass over the distinct
pairs, with no object around them: for each of the 12 ordered pairs, the
standardised bound z with Pr(Delta > 0) = Phi(z) and that tail
probability. The same call then takes each point's miss and union term
and builds the report. The collinear threshold views read only the
noise-free half. Two exact evaluation paths read the table and cover every
constellation:

* collinear (all points on the real axis): each Delta < 0 condition is a
  half-line constraint on Re[N], so the correct region is an interval and
  the miss probability is the pair of Gaussian tails past its two binding
  thresholds; Q is monotone, so on each side of the point the binding
  rival is the one whose table tail is larger;
* planar: the diagonal statistic decomposes as
  Delta_{uv, comp(uv)} = Delta_1 + Delta_2 + alpha_uv with
  alpha_uv = sigma2 ln(p_uv p_compuv / (p_adj1 p_adj2)) - Re[x conj(y)],
  where x, y are the two adjacent difference vectors. When alpha_uv <= 0
  the adjacent constraints imply the diagonal one and the miss probability
  is T_adj1 + T_adj2 minus their joint exceedance; when alpha_uv > 0 the
  correction beta (the wedge {x<0, y<0, x+y>-alpha} mass) collapses by the
  same decomposition into bivariate orthant terms, so no quadrature over
  the wedge is ever needed and accuracy is set by the orthant evaluator:
  within 1e-15 of the larger marginal Phi(z), the scale each orthant is
  subtracted from (at most 4.9e-16 measured against 30-digit mpmath).

Both paths accumulate tail terms directly (never 1 - P_correct), keeping
relative precision at arbitrarily small error rates. The union bound sums
p_uv Pr(Delta_{uv,lm} > 0) from the same table, each point's term its three
rival tails added in one order on both paths (_union). Rounded addition of
non-negatives is monotone, so a term is at least any two of its tails
summed (the collinear miss) and at least its partial sums less orthants
(the planar miss): the bound cannot round below the exact value. The
high-SNR variants replace the tilted thresholds by midpoints.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cache
from typing import NamedTuple

from .errors import CaseMismatch, CollinearInput, CorrelationAtUnity, NonBijective, NotCollinear
from .geometry import CombinedConstellation, coincidence_tol, on_real_axis
from .sources import pair_index

_TWO_PI = 2.0 * math.pi

# |rho| above this is delegated to the collinear path.
_RHO_LIMIT = 1.0 - 1e-12


# qfunc and the batched _kernels._qfunc_array flush a tail below the
# smallest normal double to 0 (NaN passes through), so they agree exactly
# where it underflows: math.erfc and scipy's erfc return different
# subnormals there, or 0 where the other does not.
_TINY = sys.float_info.min

_SPLITTER = 134217729.0  # 2**27 + 1
_RSQRT2 = math.sqrt(0.5)
_RSQRT2_ERR = -4.833646656726457e-17  # 1/sqrt(2) - _RSQRT2
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# Dekker's split of 1/sqrt(2) into halves of at most 26 significant bits,
# so that its product with a half of x split the same way is exact
_RSQRT2_HI = _SPLITTER * _RSQRT2 - (_SPLITTER * _RSQRT2 - _RSQRT2)
_RSQRT2_LO = _RSQRT2 - _RSQRT2_HI


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2)) of a scalar.

    Stays relatively accurate far into the tail (erfc based, no 1 - CDF
    cancellation): within a few ulp of Q at the given double x, as close
    as the libm erfc allows. A tail below the smallest normal double, from
    x ~ 37.5 on, is exactly 0; NaN gives NaN.
    """
    t = x * _RSQRT2
    e = math.erfc(t)
    if abs(t) < 27.0:
        # t misses x / sqrt(2) by r, up to half an ulp of t, which moves
        # the tail by up to about 2 t^2 ulp (some 1500 ulp at x = 37). r is
        # the exact error of the product x * _RSQRT2 (Dekker) plus x times
        # the rounding of 1/sqrt(2), and the first-order correction
        # erfc(t + r) = erfc(t) - r 2/sqrt(pi) exp(-t^2) leaves far less
        # than an ulp. Past |t| = 27 the tail is 0 or 1 anyway.
        x_hi = _SPLITTER * x
        x_hi -= x_hi - x
        x_lo = x - x_hi
        r = (((x_hi * _RSQRT2_HI - t) + x_hi * _RSQRT2_LO + x_lo * _RSQRT2_HI)
             + x_lo * _RSQRT2_LO + x * _RSQRT2_ERR)
        e -= r * _TWO_OVER_SQRT_PI * math.exp(-t * t)
    q = 0.5 * e
    return q if not q < _TINY else 0.0


class ErrorReport(NamedTuple):
    """System error probability with the per-pair miss probabilities.

    miss_per_pair holds Pr(error | (u, v) sent) in lexicographic pair order,
    each in tail form, so a miss far below 1e-16 keeps its relative
    precision; p_err_exact is their prior-weighted sum. method names the
    exact path that ran: 'collinear' or 'planar'. p_err_union (what
    union_bound returns) and bijective (what is_bijective returns) are read
    from the same pairwise table.
    """

    p_err_exact: float
    miss_per_pair: tuple[float, float, float, float]
    method: str
    p_err_union: float
    bijective: bool


def is_collinear(cc: CombinedConstellation) -> bool:
    """True when every combined point sits on the real axis within the
    coincidence tolerance."""
    return on_real_axis(cc.points, coincidence_tol(cc.scale()))


def _wins_degenerate(uv_idx: int, lm_idx: int, p_uv: float, p_lm: float) -> bool:
    """Does (u,v) keep the shared region against a coincident rival (l,m)?"""
    if p_uv != p_lm:
        return p_uv > p_lm
    return uv_idx < lm_idx


# The six unordered pairs i < j with their flat indices 4i + j and 4j + i,
# and each point's rivals j != i in order with their flat index 4i + j.
_PAIRS = tuple((i, j, 4 * i + j, 4 * j + i) for i in range(4) for j in range(i + 1, 4))
_RIVALS = tuple(tuple((j, 4 * i + j) for j in range(4) if j != i) for i in range(4))
# Each point i with its rivals that flip u, flip v and flip both, as flat indices 4i + j.
_FLIPS = tuple((i, 4 * i + (i ^ 2), 4 * i + (i ^ 1), 4 * i + (i ^ 3)) for i in range(4))


def _check_noise(sigma2: float) -> None:
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")


class _PairGeometry:
    """The noise-free half of the pairwise table of one constellation: what
    the exact paths and the union bound read at every noise level and that
    does not depend on it. _pair_geometry builds it on first use and keeps
    it with the constellation, so a constellation evaluated at many noise
    levels pays for it once.

    Point i = 2u + v is a_uv. After the input checks (every point finite,
    by cc.scale(), and the largest distance squaring to a finite number),
    one pass over the six unordered pairs fills: the points as stored, the
    priors, the collinear and bijective flags (by the coincidence tolerance);
    for each distinct pair, its two flat indices 4i + j and 4j + i, d^2/2,
    d and both log prior ratios (spread); for each coincident pair, z and
    tail at both flat indices (NaN elsewhere), resolved by the decoder's
    prior / lexicographic rule: z = -inf when i keeps the shared point,
    +inf when it loses it. A collinear constellation also keeps, at flat
    index 4i + j, the side of point i that rival j sits on (side: +1
    above, -1 below, 0 within the tolerance); a bijective planar one keeps,
    per point, its three rivals, the log prior factor and the cross term of
    alpha_uv and the three pair correlations its orthants take (planar).
    """

    def __init__(self, cc: CombinedConstellation):
        self.pts = pts = cc.points
        self.priors = p = cc.priors.as_tuple()
        tol = coincidence_tol(cc.scale())
        # abs of a negated difference is bit-equal, so one distance per pair
        dist = [abs(pts[j] - pts[i]) for i, j, _, _ in _PAIRS]
        far = max(dist)
        if not math.isfinite(far * far):
            raise OverflowError(f"largest pairwise distance {far!r} squares past the float range")
        self.collinear = on_real_axis(pts, tol)
        self.z = z = [math.nan] * 16
        self.tail = tail = [math.nan] * 16
        self.spread = spread = []
        log = math.log
        for (i, j, ij, ji), d in zip(_PAIRS, dist):
            if d <= tol:
                z_ij = -math.inf if _wins_degenerate(i, j, p[i], p[j]) else math.inf
                # the rule is antisymmetric: one of the two keeps the point
                z[ij], z[ji], tail[ij], tail[ji] = z_ij, -z_ij, qfunc(-z_ij), qfunc(z_ij)
            else:
                spread.append((ij, ji, d**2 / 2.0, d, log(p[i] / p[j]), log(p[j] / p[i])))
        self.bijective = len(spread) == len(_PAIRS)
        if self.collinear:
            # re[i] - re[j] is -(re[j] - re[i]) exactly, so one side per pair
            self.side = side = [0] * 16
            for i, j, ij, ji in _PAIRS:
                c = pts[j].real - pts[i].real
                side[ij] = s = 1 if c > tol else -1 if c < -tol else 0
                side[ji] = -s
        elif self.bijective:
            self.planar = [_planar_point(pts, p, i) for i in range(4)]


def _pair_geometry(cc: CombinedConstellation) -> _PairGeometry:
    """cc's _PairGeometry, built on the first call and kept in cc's instance
    dict from then on (as functools.cached_property keeps a value, past the
    record's __setattr__, which refuses every assignment). A constellation
    that fails the input checks keeps nothing and raises on every call."""
    geo = cc.__dict__.get("_pair_geometry")
    if geo is None:
        geo = cc.__dict__["_pair_geometry"] = _PairGeometry(cc)
    return geo


def _tails(cc: CombinedConstellation, sigma2: float) -> tuple[_PairGeometry, list, list]:
    """cc's noise-free half (_PairGeometry) and two lists filled in one pass
    over its distinct pairs: at flat index 4i + j of each ordered pair, z,
    with Pr(Delta_ij > 0) = Phi(z) at sigma2, and tail = Q(-z). A
    coincident pair's entries come from the noise-free half as they are."""
    _check_noise(sigma2)
    geo = _pair_geometry(cc)
    z, tail = geo.z.copy(), geo.tail.copy()
    sd_unit = math.sqrt(sigma2)
    for ij, ji, half, d, log_ij, log_ji in geo.spread:
        sd = sd_unit * d
        z_ij = (-half - sigma2 * log_ij) / sd
        z_ji = (-half - sigma2 * log_ji) / sd
        z[ij], z[ji], tail[ij], tail[ji] = z_ij, z_ji, qfunc(-z_ij), qfunc(-z_ji)
    return geo, z, tail


# ---------------------------------------------------------------------------
# collinear exact path
# ---------------------------------------------------------------------------


def _line_limits(cc: CombinedConstellation, sigma2: float, i: int):
    """Yield each rival j of point i with its constraint on Re[N] (see
    collinear_pair_threshold), from the noise-free geometry alone: no tail
    is taken."""
    _check_noise(sigma2)
    geo = _pair_geometry(cc)
    if not geo.collinear:
        raise NotCollinear("combined constellation has points off the real axis")
    pts, p, side = geo.pts, geo.priors, geo.side
    for j, k in _RIVALS[i]:
        if not side[k]:
            yield j, (("win" if _wins_degenerate(i, j, p[i], p[j]) else "lose"), math.nan)
        else:
            c = pts[j].real - pts[i].real
            t = c * c / 2.0 + sigma2 * math.log(p[i] / p[j])
            yield j, (("upper" if side[k] > 0 else "lower"), t / c)


def collinear_pair_threshold(
    cc: CombinedConstellation, sigma2: float, uv: tuple[int, int], lm: tuple[int, int]
) -> tuple[str, float]:
    """One rival's constraint on Re[N] for the collinear MAP region of (u, v).

    A rival (l, m) with signed separation c = a_lm - a_uv demands
    c Re[N] < c^2/2 + sigma2 ln(p_uv/p_lm): ('upper', t/c) when c > 0,
    ('lower', t/c) when c < 0. A coincident rival gives ('win', nan) or
    ('lose', nan) by prior comparison, lexicographic order on exact ties.
    """
    i, j = pair_index(*uv), pair_index(*lm)
    limits = dict(_line_limits(cc, sigma2, i))
    if j == i:
        raise ValueError("rival must differ from the transmitted pair")
    return limits[j]


def collinear_decision_interval(
    cc: CombinedConstellation, sigma2: float, uv: tuple[int, int]
) -> tuple[float, float, bool]:
    """Interval of Re[N] values that decode to (u, v), with a liveness flag.

    Intersects the three rival constraints from collinear_pair_threshold;
    a losing coincident rival kills the region outright.
    """
    limits = dict(_line_limits(cc, sigma2, pair_index(*uv))).values()
    if any(kind == "lose" for kind, _ in limits):
        return 0.0, 0.0, False
    lo = max((t for kind, t in limits if kind == "lower"), default=-math.inf)
    hi = min((t for kind, t in limits if kind == "upper"), default=math.inf)
    return lo, hi, True


def _line_misses(geo: _PairGeometry, z: list, tail: list) -> list[float]:
    """The miss probability of each point on the real axis.

    Q is monotone in the threshold, so on each side of point i the binding
    rival is the one with the largest tail. The miss probability sums those
    two tails, so it keeps full relative precision however small it gets;
    it is capped at 1, which an empty region reaches in exact arithmetic,
    and is 1 when a coincident rival takes the shared point (z = +inf). The
    side of each rival comes from the noise-free geometry, z and the tails
    from _tails.
    """
    side = geo.side
    miss = []
    for rivals in _RIVALS:
        below = above = 0.0  # binding tail on each side of i
        dead = False
        for _, k in rivals:
            t = tail[k]
            if side[k] > 0:
                if t > above:
                    above = t
            elif side[k] < 0:
                if t > below:
                    below = t
            else:
                # only here can z = +inf leave below + above under 1: on a side its tail of 1 binds
                dead = dead or z[k] == math.inf
        miss.append(1.0 if dead else min(1.0, below + above))
    return miss


# ---------------------------------------------------------------------------
# bivariate normal lower orthant
# ---------------------------------------------------------------------------


@cache
def _gauss_legendre(m: int) -> tuple[tuple[float, float], ...]:
    """The m positive nodes and their weights of the 2m-point Gauss-Legendre
    rule on [-1, 1], by Newton's method on the Legendre recurrence.

    For 2m up to 44 the nodes lie within about 1 ulp of the Legendre roots
    and the weights within 3.1e-16 of a 30-digit evaluation; numpy's
    leggauss rule misses the integrals of x^2 ... x^12 by up to 4e-14 at
    2m = 40.
    """
    n = 2 * m

    def legendre(x):
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    rule = []
    for i in range(m):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        dp = legendre(x)[1]
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


# For a <= 1 and h * a above this, T(h, a) = Q(h)/2 - eps with
# eps < 2.2 Q(h * a) T(h, a) ~ 1e-17 T(h, a).
_T_FLAT = 8.6


def owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) = (1/2 pi) int_0^a exp(-h^2 (1 + x^2)/2) / (1 + x^2) dx.

    Regimes (Owen 1956 for the identities): T is even in h and odd in a;
    T(0, a) = atan(a) / 2 pi exactly (so T(0, +-inf) = +-1/4), and
    T(h, inf) = Q(|h|)/2. For a > 1 the reflection
    T(h, a) = Q(h)/2 + Q(ah)/2 - Q(h) Q(ah) - T(ah, 1/a), written in tails,
    maps onto a < 1. For a <= 1 the substitution x = tan(t) gives
    T = exp(-h^2/2) / (2 pi) int_0^atan(a) exp(-h^2 tan(t)^2 / 2) dt, an
    integrand without poles, summed by a symmetric Gauss-Legendre rule whose
    size grows with h atan(a), the Gaussian's width in rule units; past
    h a = 8.6 T is Q(h)/2 to double precision. Relative error is within
    1e-15 of T for every a, and the result is 0 below the smallest normal
    double, as qfunc's. NaN gives NaN.
    """
    if math.isnan(a):
        return math.nan
    return _owens_t(abs(h), a, None)


def _owens_t(h: float, a: float, q_h: float | None) -> float:
    """owens_t for h >= 0; q_h is Q(h) when the caller has it, else None."""
    if a < 0.0:
        return -_owens_t(h, -a, q_h)
    if h == 0.0:
        return math.atan(a) / _TWO_PI
    if a > 1.0:
        if q_h is None:
            q_h = qfunc(h)
        if a == math.inf:
            return 0.5 * q_h
        ah = a * h
        q_ah = qfunc(ah)
        return 0.5 * q_h - _owens_t(ah, 1.0 / a, q_ah) + q_ah * (0.5 - q_h)
    if not h * a <= _T_FLAT:  # NaN h lands here too
        return 0.5 * (qfunc(h) if q_h is None else q_h)
    theta = math.atan(a)
    hh = h * h
    k = -0.5 * hh
    tan, exp = math.tan, math.exp
    s = 0.0
    for u, w in _gauss_legendre(max(4 + int(6.0 * a), int(2.0 * h * theta + 4.5))):
        t = tan(theta * u)
        s += w * exp(k * t * t)
    t = exp(k) * theta * s / _TWO_PI
    if hh > 4.0:
        # exp(-h^2/2) with hh + lo = h^2 exactly (Dekker): the rounding of
        # hh costs up to hh/4 ulp, some 360 ulp at h = 38 (below 1 ulp
        # for h <= 2)
        h_hi = _SPLITTER * h
        h_hi -= h_hi - h
        h_lo = h - h_hi
        t *= 1.0 - 0.5 * (((h_hi * h_hi - hh) + 2.0 * h_hi * h_lo) + h_lo * h_lo)
    return t if not t < _TINY else 0.0


def bvn_lower_orthant(h: float, k: float, rho: float) -> float:
    """Pr(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Owen's (1956) identity Phi2 = (Phi(h) + Phi(k))/2 - T(h, ah) - T(k, ak)
    - c, with Phi from qfunc and T from owens_t, so it runs on the math
    module alone; a zero bound takes T(0, +-inf) = +-1/4 exactly. Its error
    is within 1e-15 of max(Phi(h), Phi(k)), the scale _planar_misses
    subtracts it from. NaN in h or k gives NaN. Correlations within 1e-12
    of +/-1 are rejected; callers should use the collinear path for
    effectively one-dimensional geometry.
    """
    if not abs(rho) <= _RHO_LIMIT:
        raise CorrelationAtUnity(f"|rho| = {abs(rho)} exceeds {_RHO_LIMIT}")
    return _bvn(h, k, rho, qfunc(-h), qfunc(-k))


def _bvn(h: float, k: float, rho: float, phi_h: float, phi_k: float) -> float:
    """bvn_lower_orthant for a valid rho, given Phi(h) and Phi(k)."""
    if math.isnan(h) or math.isnan(k):
        return math.nan
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf or k == math.inf:
        return phi_k if h == math.inf else phi_h
    if rho == 0.0:
        return phi_h * phi_k
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / _TWO_PI
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    ah = (k / h - rho) / s if h else math.copysign(math.inf, k)
    ak = (h / k - rho) / s if k else math.copysign(math.inf, h)
    c = 0.0 if (h < 0.0) == (k < 0.0) else 0.5
    # Phi(h) = Q(|h|) for h < 0, which the T reflection needs
    t_h = _owens_t(abs(h), ah, phi_h if h < 0.0 else None)
    t_k = _owens_t(abs(k), ak, phi_k if k < 0.0 else None)
    val = 0.5 * (phi_h + phi_k) - t_h - t_k - c
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# planar exact path
# ---------------------------------------------------------------------------


def _pair_corr(dot: float, denom: float) -> float:
    """Correlation of two pairwise statistics: cosine between their
    difference vectors, from their dot product and the product of their
    lengths, clipped away from +-1 for the orthant evaluator."""
    if denom == 0.0:
        return 0.0
    rho = dot / denom
    return -_RHO_LIMIT if rho < -_RHO_LIMIT else _RHO_LIMIT if rho > _RHO_LIMIT else rho


def _planar_point(pts, p, i: int) -> tuple:
    """The noise-free terms of point i's planar miss: the flat indices
    4i + j of its rivals j that flip u, flip v and flip both (_FLIPS), the
    log prior factor and the cross term of alpha_uv, and the correlations
    of the (d, x), (d, y) and (x, y) statistics."""
    x, y, d = i ^ 2, i ^ 1, i ^ 3
    c_x = pts[x] - pts[i]
    c_y = pts[y] - pts[i]
    c_d = pts[d] - pts[i]
    m_x, m_y, m_d = abs(c_x), abs(c_y), abs(c_d)
    cross = c_x.real * c_y.real + c_x.imag * c_y.imag
    return (*_FLIPS[i][1:], math.log(p[i] * p[d] / (p[x] * p[y])), cross,
            _pair_corr(c_d.real * c_x.real + c_d.imag * c_x.imag, m_d * m_x),
            _pair_corr(c_d.real * c_y.real + c_d.imag * c_y.imag, m_d * m_y),
            _pair_corr(cross, m_x * m_y))


def _planar_misses(geo: _PairGeometry, sigma2: float, z: list, tail: list) -> list[float]:
    """The miss probability of each point off the real axis.

    Inclusion-exclusion over the three rival exceedance events, split on the
    diagonal offset alpha_uv. For alpha_uv <= 0 the two adjacent conditions
    already imply the diagonal one inside the correct region, so
    miss = T_x + T_y - J with J the joint adjacent exceedance. For
    alpha_uv > 0 the joint adjacent event is a subset of the diagonal event,
    collapsing the triple term, and miss = T_x + T_y + T_d - B_dx - B_dy
    with B the diagonal-adjacent joint exceedances. Every piece is a small
    orthant quantity, so miss keeps relative precision at high SNR.
    Everything but z, the tails and the sigma2 factor of alpha_uv comes from
    the noise-free geometry (_planar_point).
    """
    miss = []
    for x, y, d, log_prior, cross, rho_dx, rho_dy, rho_xy in geo.planar:
        alpha = sigma2 * log_prior - cross
        adj = tail[x] + tail[y]
        # tail[j] = Phi(z[j]), the marginals each orthant needs
        if alpha > 0.0:
            b_dx = _bvn(z[d], z[x], rho_dx, tail[d], tail[x])
            b_dy = _bvn(z[d], z[y], rho_dy, tail[d], tail[y])
            m = adj + tail[d] - b_dx - b_dy
        else:
            m = adj - _bvn(z[x], z[y], rho_xy, tail[x], tail[y])
        miss.append(min(1.0, max(0.0, m)))
    return miss


# ---------------------------------------------------------------------------
# exact error and union bound
# ---------------------------------------------------------------------------


def _union(p: tuple, tail: list) -> float:
    """Sum over the points of p_i (T_x + T_y + T_d), on either geometry."""
    return math.fsum([p[i] * (tail[x] + tail[y] + tail[d]) for i, x, y, d in _FLIPS])


def exact_error(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability, routed by constellation geometry: one
    pass fills z and the tails (_tails), takes each point's miss on the path
    the geometry takes, sums the misses over the priors and adds _union."""
    geo, z, tail = _tails(cc, sigma2)
    if geo.collinear:
        method = "collinear"
        miss = _line_misses(geo, z, tail)
    elif geo.bijective:
        method = "planar"
        miss = _planar_misses(geo, sigma2, z, tail)
    else:
        raise NonBijective("combined points coincide; planar analysis requires distinct points")
    p = geo.priors
    # by position: keywords make the named tuple's __new__ about twice as slow
    return ErrorReport(min(max(math.fsum(map(operator.mul, p, miss)), 0.0), 1.0),
                       tuple(miss), method, _union(p, tail), geo.bijective)


def exact_error_collinear(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability for a real-axis combined constellation."""
    _check_noise(sigma2)
    if not _pair_geometry(cc).collinear:
        raise NotCollinear("combined constellation has points off the real axis")
    return exact_error(cc, sigma2)


def exact_error_planar(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability for a genuinely two-dimensional constellation.

    Each conditional miss probability combines the rival tail terms with
    their bivariate-normal joint exceedances; the branch on the diagonal
    offset alpha_uv absorbs the wedge correction exactly.
    """
    _check_noise(sigma2)
    if _pair_geometry(cc).collinear:
        raise CollinearInput("use exact_error_collinear for real-axis constellations")
    return exact_error(cc, sigma2)


def union_bound(cc: CombinedConstellation, sigma2: float) -> float:
    """Sum of pairwise error probabilities p_uv Pr(Delta_{uv,lm} > 0).

    Coincident pairs contribute their deterministic outcome: the full prior
    when the rival wins the shared point, nothing when it loses. It is
    exact_error's p_err_union (_union), which the module docstring shows
    never rounds below the computed exact error.
    """
    geo, _, tail = _tails(cc, sigma2)
    return _union(geo.priors, tail)


def closed_form_qam(d1_len: float, d2_len: float, sigma: float) -> float:
    """Error probability of an orthogonal pair of antipodal senders.

    With uniform independent sources and gamma_phi = 0 the two senders
    decouple, giving 1 - (1 - Q(d1/2s))(1 - Q(d2/2s)), expanded to
    Q1 + Q2 - Q1 Q2 so the tails survive when both are tiny.
    """
    q1 = qfunc(d1_len / (2.0 * sigma))
    q2 = qfunc(d2_len / (2.0 * sigma))
    return q1 + q2 - q1 * q2


# ---------------------------------------------------------------------------
# high-SNR union bound
# ---------------------------------------------------------------------------


def high_snr_union_bound(
    d1_len: float, d2_len: float, psi: float, priors, sigma: float
) -> float:
    """Union bound with prior-tilted thresholds replaced by midpoints.

    The four distinct pairwise distances are |d1|, |d2| (each over priors
    summing to one) and the two diagonals sqrt(|d1|^2 + |d2|^2 +- 2 |d1| |d2|
    cos psi), weighted by p00 + p11 and p01 + p10 respectively.
    """
    if not (d1_len > 0.0 and d2_len > 0.0):
        raise ValueError("separations must be positive")
    p00, p01, p10, p11 = priors.as_tuple()
    cos_psi = math.cos(psi)
    diag_plus = math.sqrt(d1_len**2 + d2_len**2 + 2.0 * d1_len * d2_len * cos_psi)
    diag_minus = math.sqrt(max(d1_len**2 + d2_len**2 - 2.0 * d1_len * d2_len * cos_psi, 0.0))
    two_sigma = 2.0 * sigma
    return (
        qfunc(d1_len / two_sigma)
        + qfunc(d2_len / two_sigma)
        + (p00 + p11) * qfunc(diag_plus / two_sigma)
        + (p01 + p10) * qfunc(diag_minus / two_sigma)
    )


# ---------------------------------------------------------------------------
# collinear high-SNR closed forms
# ---------------------------------------------------------------------------

def collinear_sign_case(d1: float, d2: float) -> int:
    """Classify signed separations into sign cases 1 through 8.

    The case is 1 + 4 [d1 < 0] + 2 [d2 < 0] + [|d1| < |d2|]: cases 1-4
    have d1 > 0, and within each half d2 > 0 comes first, |d1| > |d2|
    before |d1| < |d2|. Zero separations and |d1| = |d2| sit on case
    boundaries and are rejected.
    """
    if d1 == 0.0 or d2 == 0.0 or abs(d1) == abs(d2):
        raise CaseMismatch(f"(d1, d2) = {(d1, d2)} lies on a sign-case boundary")
    return 1 + 4 * (not d1 > 0) + 2 * (not d2 > 0) + (not abs(d1) > abs(d2))


def high_snr_correct_prob(case: int, d1: float, d2: float, priors, sigma: float) -> float:
    """Closed-form high-SNR system correct probability for one sign case.

    Every case is one rule: with the points u d1 + v d2 sorted on the
    line, each gap g between neighbours takes a midpoint threshold that
    both neighbours miss with probability Q(g / 2 sigma). This drops the
    sigma2 ln(prior ratio) threshold tilts, so it approaches the exact
    collinear result as sigma -> 0. The requested case must match the
    actual signs of (d1, d2).
    """
    if case not in range(1, 9):
        raise CaseMismatch(f"case must be 1..8, got {case}")
    if collinear_sign_case(d1, d2) != case:
        raise CaseMismatch(
            f"(d1, d2) = {(d1, d2)} does not satisfy the conditions of case {case}"
        )
    line = sorted(zip((0.0, d2, d1, d1 + d2), priors.as_tuple()))
    # q[k] and q[k + 1] are the gaps on either side of point k
    q = [0.0, *(qfunc((b - a) / (2.0 * sigma)) for (a, _), (b, _) in zip(line, line[1:])), 0.0]
    return 1.0 - math.fsum(p * (q[k] + q[k + 1]) for k, (_, p) in enumerate(line))

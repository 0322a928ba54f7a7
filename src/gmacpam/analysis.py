"""Exact MAP error probabilities and analytic bounds.

For a transmitted pair (u, v) and a candidate (l, m), define the pairwise
decision statistic

    Delta_{uv,lm} = Re[N conj(a_lm - a_uv)] - |a_lm - a_uv|^2 / 2
                    - sigma2 ln(p_uv / p_lm),

which is Gaussian with mean -|a_lm - a_uv|^2/2 - sigma2 ln(p_uv/p_lm) and
standard deviation sigma |a_lm - a_uv|. Correct decoding of (u, v) is the
event that all three statistics are negative.

Each public call builds one pairwise table for its constellation and noise
level: the points, the priors, the coincidence tolerance, the collinear and
bijective flags and, for each of the 12 ordered pairs, the standardised
bound z with Pr(Delta > 0) = Phi(z) and that tail probability. Two exact
evaluation paths read it and cover every constellation:

* collinear (all points on the real axis): each Delta < 0 condition is a
  half-line constraint on Re[N], so the correct region is an interval and
  the miss probability is the pair of Gaussian tails past its two binding
  thresholds;
* planar: the diagonal statistic decomposes as
  Delta_{uv, comp(uv)} = Delta_1 + Delta_2 + alpha_uv with
  alpha_uv = sigma2 ln(p_uv p_compuv / (p_adj1 p_adj2)) - Re[x conj(y)],
  where x, y are the two adjacent difference vectors. When alpha_uv <= 0
  the adjacent constraints imply the diagonal one and the miss probability
  is T_adj1 + T_adj2 minus their joint exceedance; when alpha_uv > 0 the
  correction beta (the wedge {x<0, y<0, x+y>-alpha} mass) collapses by the
  same decomposition into bivariate orthant terms, so no quadrature is ever
  needed and accuracy is set by the orthant evaluator (~1e-14).

Both paths accumulate tail terms directly (never 1 - P_correct), keeping
relative precision at arbitrarily small error rates. The union bound sums
p_uv Pr(Delta_{uv,lm} > 0) over ordered pairs from the same table, starting
each per-pair sum from the exact path's own leading floats so the bound
cannot round below the exact value; the high-SNR variants replace the
tilted thresholds by plain midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfc, ndtr, owens_t

from .errors import (
    CaseMismatch,
    CollinearInput,
    CorrelationAtUnity,
    NonBijective,
    NotCollinear,
)
from .geometry import CombinedConstellation, coincidence_tol

_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)

# |rho| above this is delegated to the collinear path.
_RHO_LIMIT = 1.0 - 1e-12


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2)).

    Stays relatively accurate far into the tail (erfc based, no 1 - CDF
    cancellation); underflows gracefully to 0 near x ~ 38.6.
    """
    return 0.5 * erfc(x / _SQRT2)


@dataclass(frozen=True)
class ErrorReport:
    """System error probability with per-pair conditional correct probabilities.

    p_c_per_pair holds Pr(correct | (u, v) sent) in lexicographic pair
    order; p_err_exact is the prior-weighted sum of the per-pair miss
    probabilities 1 - p_c_uv, accumulated in tail form so small values keep
    relative precision. method names the exact path that ran: 'collinear'
    or 'planar'.
    """

    p_err_exact: float
    p_c_per_pair: tuple[float, float, float, float]
    method: str


def is_collinear(cc: CombinedConstellation) -> bool:
    """True when every combined point sits on the real axis within the
    coincidence tolerance."""
    tol = coincidence_tol(cc.scale())
    return all(abs(p.imag) <= tol for p in (cc.a00, cc.a01, cc.a10, cc.a11))


def _wins_degenerate(uv_idx: int, lm_idx: int, p_uv: float, p_lm: float) -> bool:
    """Does (u,v) keep the shared region against a coincident rival (l,m)?"""
    if p_uv != p_lm:
        return p_uv > p_lm
    return uv_idx < lm_idx


class _PairTable:
    """Pairwise statistics of one constellation at one noise level.

    Point i = 2u + v is a_uv. Construction reads the geometry: the points
    as stored, their real parts as a float64 array, the priors, the
    coincidence tolerance, the pairwise distances and the collinear and
    bijective flags; a constellation whose largest pairwise distance
    squares past the float range raises OverflowError here. z[i][j], the
    standardised bound with
    Pr(Delta_ij > 0) = Phi(z[i][j]), and tail[i][j] = Q(-z[i][j]) are filled
    on first use, so a view that rejects the geometry raises before any
    noise-dependent arithmetic. A coincident rival resolves by the decoder's
    prior / lexicographic rule: z = -inf when i keeps the shared point, +inf
    when it loses it.
    """

    def __init__(self, cc: CombinedConstellation, sigma2: float):
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and positive, got {sigma2!r}")
        pts = (cc.a00, cc.a01, cc.a10, cc.a11)
        tol = coincidence_tol(cc.scale())
        self.pts = pts
        self.re = cc.as_array().real
        self.priors = cc.priors.as_tuple()
        self.sigma2 = sigma2
        self.tol = tol
        self.collinear = all(abs(p.imag) <= tol for p in pts)
        self.dist = [[abs(b - a) for b in pts] for a in pts]
        far = float(max(map(max, self.dist)))
        if not math.isfinite(far * far):
            raise OverflowError(f"largest pairwise distance {far!r} squares past the float range")
        self.bijective = not any(
            self.dist[j][i] <= tol for i in range(4) for j in range(i + 1, 4)
        )

    @cached_property
    def z(self) -> list[list[float]]:
        p, sigma2 = self.priors, self.sigma2
        sd_unit = math.sqrt(sigma2)
        z = [[math.nan] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if j == i:
                    continue
                d = self.dist[i][j]
                if d <= self.tol:
                    z[i][j] = -math.inf if _wins_degenerate(i, j, p[i], p[j]) else math.inf
                else:
                    mu = -(d**2) / 2.0 - sigma2 * math.log(p[i] / p[j])
                    z[i][j] = mu / (sd_unit * d)
        return z

    @cached_property
    def tail(self) -> list[list[float]]:
        return qfunc(-np.array(self.z)).tolist()

    def threshold(self, i: int, j: int) -> tuple[str, float]:
        """Rival j's constraint on Re[N] around point i; see collinear_pair_threshold."""
        c = self.re[j] - self.re[i]
        p = self.priors
        if abs(c) <= self.tol:
            return ("win" if _wins_degenerate(i, j, p[i], p[j]) else "lose"), math.nan
        t = c * c / 2.0 + self.sigma2 * math.log(p[i] / p[j])
        return ("upper" if c > 0.0 else "lower"), t / c


# ---------------------------------------------------------------------------
# collinear exact path
# ---------------------------------------------------------------------------


def _line_table(cc: CombinedConstellation, sigma2: float) -> _PairTable:
    table = _PairTable(cc, sigma2)
    if not table.collinear:
        raise NotCollinear("combined constellation has points off the real axis")
    return table


def collinear_pair_threshold(
    cc: CombinedConstellation, sigma2: float, uv: tuple[int, int], lm: tuple[int, int]
) -> tuple[str, float]:
    """One rival's constraint on Re[N] for the collinear MAP region of (u, v).

    A rival (l, m) with signed separation c = a_lm - a_uv demands
    c Re[N] < c^2/2 + sigma2 ln(p_uv/p_lm): ('upper', t/c) when c > 0,
    ('lower', t/c) when c < 0. A coincident rival gives ('win', nan) or
    ('lose', nan) by prior comparison, lexicographic order on exact ties.
    """
    table = _line_table(cc, sigma2)
    uv_idx = 2 * uv[0] + uv[1]
    lm_idx = 2 * lm[0] + lm[1]
    if lm_idx == uv_idx:
        raise ValueError("rival must differ from the transmitted pair")
    return table.threshold(uv_idx, lm_idx)


def _collinear_binding(table: _PairTable, i: int):
    """The binding rivals of point i on the real axis.

    Returns (up, hi, low, lo, rest, dead): the rival with the lowest upper
    threshold and that threshold (None and +inf when no rival bounds from
    above), the same for the highest lower threshold, the other rivals in
    the order met, and whether a coincident rival takes the shared point.
    """
    up = low = None
    hi, lo = math.inf, -math.inf
    rest = []
    dead = False
    for j in range(4):
        if j == i:
            continue
        kind, value = table.threshold(i, j)
        if kind == "upper" and (up is None or value < hi):
            if up is not None:
                rest.append(up)
            up, hi = j, value
        elif kind == "lower" and (low is None or value > lo):
            if low is not None:
                rest.append(low)
            low, lo = j, value
        else:
            dead = dead or kind == "lose"
            rest.append(j)
    return up, hi, low, lo, rest, dead


def collinear_decision_interval(
    cc: CombinedConstellation, sigma2: float, uv: tuple[int, int]
) -> tuple[float, float, bool]:
    """Interval of Re[N] values that decode to (u, v), with a liveness flag.

    Intersects the three rival constraints from collinear_pair_threshold;
    a losing coincident rival kills the region outright.
    """
    _, hi, _, lo, _, dead = _collinear_binding(_line_table(cc, sigma2), 2 * uv[0] + uv[1])
    if dead:
        return 0.0, 0.0, False
    return lo, hi, True


def _collinear_terms(table: _PairTable, i: int) -> tuple[float, float]:
    """(miss probability, union term) for point i on the real axis.

    The miss probability sums the two tails past the binding thresholds, so
    it keeps full relative precision however small it gets. The union term
    starts from those same two floats and then adds the remaining rivals'
    terms; floating-point addition of non-negatives is monotone, so the
    computed bound can never round below the computed exact value.
    """
    up, hi, low, lo, rest, dead = _collinear_binding(table, i)
    tail = table.tail[i]
    core = (0.0 if up is None else tail[up]) + (0.0 if low is None else tail[low])
    union_term = core
    for j in rest:
        union_term += tail[j]
    if dead:
        miss = 1.0
    elif lo >= hi:
        # Empty region: the true miss is exactly 1, and the two tails overlap
        # to at least that in exact arithmetic.
        miss = min(1.0, core)
    else:
        miss = core
    return miss, union_term


# ---------------------------------------------------------------------------
# bivariate normal lower orthant
# ---------------------------------------------------------------------------


def bvn_lower_orthant(h: float, k: float, rho: float) -> float:
    """Pr(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Evaluated through Owen's T identity,
    Phi2 = (Phi(h) + Phi(k))/2 - T(h, ah) - T(k, ak) - c, which is accurate
    to ~1e-14. Correlations within 1e-12 of +/-1 are rejected; callers should
    use the collinear path for effectively one-dimensional geometry.
    """
    if not abs(rho) <= _RHO_LIMIT:
        raise CorrelationAtUnity(f"|rho| = {abs(rho)} exceeds {_RHO_LIMIT}")
    if math.isinf(h) or math.isinf(k):
        if h == -math.inf or k == -math.inf:
            return 0.0
        if h == math.inf and k == math.inf:
            return 1.0
        return float(ndtr(k if h == math.inf else h))
    if rho == 0.0:
        return float(ndtr(h) * ndtr(k))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / _TWO_PI
    # Nudging an exactly zero bound sidesteps the T limit cases; the induced
    # error is below phi(0) * 1e-14.
    hh = h if h != 0.0 else 1e-14
    kk = k if k != 0.0 else 1e-14
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    ah = (kk / hh - rho) / s
    ak = (hh / kk - rho) / s
    c = 0.0 if hh * kk > 0.0 else 0.5
    val = 0.5 * (ndtr(hh) + ndtr(kk)) - owens_t(hh, ah) - owens_t(kk, ak) - c
    return min(1.0, max(0.0, float(val)))


# ---------------------------------------------------------------------------
# planar exact path
# ---------------------------------------------------------------------------


def _pair_corr(c_a: complex, c_b: complex) -> float:
    """Correlation of two pairwise statistics: cosine between their
    difference vectors, clipped away from +-1 for the orthant evaluator."""
    denom = abs(c_a) * abs(c_b)
    if denom == 0.0:
        return 0.0
    rho = (c_a.real * c_b.real + c_a.imag * c_b.imag) / denom
    return min(max(rho, -_RHO_LIMIT), _RHO_LIMIT)


def _planar_miss(table: _PairTable, i: int) -> float:
    """Miss probability for point i off the real axis.

    Inclusion-exclusion over the three rival exceedance events, split on the
    diagonal offset alpha_uv. For alpha_uv <= 0 the two adjacent conditions
    already imply the diagonal one inside the correct region, so
    miss = T_x + T_y - J with J the joint adjacent exceedance. For
    alpha_uv > 0 the joint adjacent event is a subset of the diagonal event,
    collapsing the triple term, and miss = T_x + T_y + T_d - B_dx - B_dy
    with B the diagonal-adjacent joint exceedances. Every piece is a small
    orthant quantity, so miss keeps relative precision at high SNR; the
    union term T_x + T_y + T_d extends the same partial sums by
    non-negative tails only, so it cannot round below miss.
    """
    # rivals that flip u, flip v, and flip both
    x, y, d = i ^ 2, i ^ 1, i ^ 3
    z, tail, p, pts = table.z[i], table.tail[i], table.priors, table.pts
    c_x = pts[x] - pts[i]
    c_y = pts[y] - pts[i]
    c_d = pts[d] - pts[i]
    cross = c_x.real * c_y.real + c_x.imag * c_y.imag
    alpha = table.sigma2 * math.log(p[i] * p[d] / (p[x] * p[y])) - cross
    adj = tail[x] + tail[y]
    if alpha > 0.0:
        b_dx = bvn_lower_orthant(z[d], z[x], _pair_corr(c_d, c_x))
        b_dy = bvn_lower_orthant(z[d], z[y], _pair_corr(c_d, c_y))
        miss = adj + tail[d] - b_dx - b_dy
    else:
        miss = adj - bvn_lower_orthant(z[x], z[y], _pair_corr(c_x, c_y))
    return min(1.0, max(0.0, miss))


# ---------------------------------------------------------------------------
# exact error and union bound: views of the pairwise table
# ---------------------------------------------------------------------------


def _exact(table: _PairTable) -> ErrorReport:
    if table.collinear:
        method = "collinear"
        miss = [_collinear_terms(table, i)[0] for i in range(4)]
    else:
        if not table.bijective:
            raise NonBijective(
                "combined points coincide; planar analysis requires distinct points"
            )
        method = "planar"
        miss = [_planar_miss(table, i) for i in range(4)]
    p_err = math.fsum(p * m for p, m in zip(table.priors, miss))
    p_c = tuple(1.0 - m for m in miss)
    return ErrorReport(p_err_exact=min(max(p_err, 0.0), 1.0), p_c_per_pair=p_c, method=method)


def exact_error_collinear(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability for a real-axis combined constellation."""
    return _exact(_line_table(cc, sigma2))


def exact_error_planar(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability for a genuinely two-dimensional constellation.

    Each conditional miss probability combines the rival tail terms with
    their bivariate-normal joint exceedances; the branch on the diagonal
    offset alpha_uv absorbs the wedge correction exactly.
    """
    table = _PairTable(cc, sigma2)
    if table.collinear:
        raise CollinearInput("use exact_error_collinear for real-axis constellations")
    return _exact(table)


def exact_error(cc: CombinedConstellation, sigma2: float) -> ErrorReport:
    """Exact MAP error probability, routed by constellation geometry."""
    return _exact(_PairTable(cc, sigma2))


def union_bound(cc: CombinedConstellation, sigma2: float) -> float:
    """Sum of pairwise error probabilities p_uv Pr(Delta_{uv,lm} > 0).

    Coincident pairs contribute their deterministic outcome: the full prior
    when the rival wins the shared point, nothing when it loses. Per-pair
    terms accumulate in the order the exact path of the same geometry uses,
    so the computed bound never rounds below the computed exact error.
    """
    table = _PairTable(cc, sigma2)
    if table.collinear:
        terms = [_collinear_terms(table, i)[1] for i in range(4)]
    else:
        terms = [tail[i ^ 2] + tail[i ^ 1] + tail[i ^ 3] for i, tail in enumerate(table.tail)]
    return math.fsum(p * t for p, t in zip(table.priors, terms))


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

# The eight sign cases of (d1, d2, |d1| vs |d2|) for collinear geometry.
_SIGN_CASES = {
    1: (1, 1, 1),
    2: (1, 1, -1),
    3: (1, -1, 1),
    4: (1, -1, -1),
    5: (-1, 1, 1),
    6: (-1, 1, -1),
    7: (-1, -1, 1),
    8: (-1, -1, -1),
}


def collinear_sign_case(d1: float, d2: float) -> int:
    """Classify signed separations into sign cases 1 through 8.

    Zero separations and |d1| = |d2| sit on case boundaries and are
    rejected.
    """
    if d1 == 0.0 or d2 == 0.0 or abs(d1) == abs(d2):
        raise CaseMismatch(f"(d1, d2) = {(d1, d2)} lies on a sign-case boundary")
    key = (1 if d1 > 0 else -1, 1 if d2 > 0 else -1, 1 if abs(d1) > abs(d2) else -1)
    for case, pattern in _SIGN_CASES.items():
        if key == pattern:
            return case
    raise CaseMismatch(f"unclassifiable separations {(d1, d2)}")


def high_snr_correct_prob(case: int, d1: float, d2: float, priors, sigma: float) -> float:
    """Closed-form high-SNR system correct probability for one sign case.

    These expressions drop the sigma2 ln(prior ratio) threshold tilts, so
    they approach the exact collinear result as sigma -> 0. The requested
    case must match the actual signs of (d1, d2).
    """
    if case not in _SIGN_CASES:
        raise CaseMismatch(f"case must be 1..8, got {case}")
    if collinear_sign_case(d1, d2) != case:
        raise CaseMismatch(
            f"(d1, d2) = {(d1, d2)} does not satisfy the conditions of case {case}"
        )
    p00, p01, p10, p11 = priors.as_tuple()
    s_anti = p10 + p01
    s_diag = p00 + p11
    two_sigma = 2.0 * sigma
    if case == 1:
        return 1.0 - qfunc(d2 / two_sigma) - s_anti * qfunc((d1 - d2) / two_sigma)
    if case == 2:
        return 1.0 - qfunc(d1 / two_sigma) - s_anti * qfunc((d2 - d1) / two_sigma)
    if case == 3:
        return qfunc(d2 / two_sigma) - s_diag * qfunc((d1 + d2) / two_sigma)
    if case == 4:
        return s_anti - qfunc(d1 / two_sigma) + s_diag * qfunc((d1 + d2) / two_sigma)
    if case == 5:
        return s_anti - qfunc(d2 / two_sigma) + s_diag * qfunc((d1 + d2) / two_sigma)
    if case == 6:
        return qfunc(d1 / two_sigma) - s_diag * qfunc((d1 + d2) / two_sigma)
    if case == 7:
        return qfunc(d2 / two_sigma) - s_anti * qfunc((d2 - d1) / two_sigma)
    return qfunc(d1 / two_sigma) - s_anti * qfunc((d1 - d2) / two_sigma)

"""Constellation designers for the two-sender binary PAM channel.

All designers work in each sender's own coordinates and return the four
real transmit amplitudes. Sender 2's axis is rotated by theta =
arccos(gamma_phi) when the pair is embedded in the plane, so a positive
orientation here means "along your own waveform".
"""

from __future__ import annotations

import math
from typing import NamedTuple

# unused here; perfbench/spans.py wraps design.exact_error and
# design.exact_error_collinear by attribute lookup
from .analysis import exact_error, exact_error_collinear  # noqa: F401
from .errors import ConfigError, InfeasibleRoot, WrongGammaPhi
from .geometry import CombinedConstellation, coincidence_tol, combine, from_amplitudes, sender2_axis
from .sources import JointSourceDistribution


class _DesignFields(NamedTuple):
    priors: JointSourceDistribution
    e1: float
    e2: float
    gamma_phi: float
    sigma2: float


class DesignInput(_DesignFields):
    __slots__ = ()

    def __new__(cls, priors: JointSourceDistribution, e1: float, e2: float, gamma_phi: float,
                sigma2: float):
        if not (0.0 < e1 < math.inf and 0.0 < e2 < math.inf):
            raise ValueError("per-sender energies must be finite and positive")
        if not 0.0 < sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and positive")
        if not abs(gamma_phi) <= 1.0:
            raise ValueError("gamma_phi must lie in [-1, 1]")
        return tuple.__new__(cls, (priors, e1, e2, gamma_phi, sigma2))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the new fields too
        return cls(*iterable)


class DesignResult(NamedTuple):
    """Transmit amplitudes (sender's own coordinates) plus branch metadata."""

    a10: float
    a11: float
    a20: float
    a21: float
    branch: str
    swapped: bool
    p_err: float | None = None

    def combined(self, inp: DesignInput) -> CombinedConstellation:
        c1, c2 = from_amplitudes(self.a10, self.a11, self.a20, self.a21, inp.gamma_phi)
        return combine(c1, c2, inp.priors)


def d_max(p: float, e: float) -> float:
    """Largest separation a binary constellation can buy with energy e:
    finite for every finite e, since past the float range of the quotient
    the two square roots are taken apart."""
    q = e / (p * (1.0 - p))
    if q < math.inf:
        return math.sqrt(q)
    return math.sqrt(e) / math.sqrt(p * (1.0 - p))


def max_separation(p: float, e: float, sign: float = 1.0) -> tuple[float, float]:
    """Amplitudes hitting d_max; sign < 0 reverses the orientation. Every
    designer's amplitudes that can pass the float range come from here, so
    OverflowError here keeps them all finite."""
    s0 = -sign * math.sqrt((1.0 - p) * e / p)
    s1 = sign * math.sqrt(p * e / (1.0 - p))
    # each is at most 1.4e154 when finite, so their distance is finite exactly when both are
    if not math.isfinite(s1 - s0):
        raise OverflowError(f"amplitudes ({s0:.9g}, {s1:.9g}) at p = {p:.9g}, e = {e:.9g} "
                            "are not finite")
    return s0, s1


def _signed_root_pair(d: float, p: float, e: float) -> tuple[float, float]:
    # bit-1 amplitude solving p*s0^2 + (1-p)*s1^2 = e with s1 - s0 = d, on
    # the negative root; up to d_max a negative discriminant is rounding
    disc = d * d * p * (p - 1.0) + e
    if disc < 0.0:
        if abs(d) > d_max(p, e):
            raise InfeasibleRoot(f"no real amplitude pair for separation {d!r}")
        disc = 0.0
    s1 = d * p - math.sqrt(disc)
    return s1 - d, s1


def _on_shell(d: float, p: float, e: float) -> tuple[float, float]:
    """A sender's amplitudes at signed separation d on its energy shell.

    From d_max on it sits on its energy boundary, oriented by the sign of
    d; below it, on the negative shell root. The positive root only
    translates the combined constellation, which leaves the MAP error
    unchanged.
    """
    if abs(d) >= d_max(p, e):
        return max_separation(p, e, sign=math.copysign(1.0, d))
    return _signed_root_pair(d, p, e)


def antipodal(inp: DesignInput) -> DesignResult:
    r1 = math.sqrt(inp.e1)
    r2 = math.sqrt(inp.e2)
    return DesignResult(-r1, r1, -r2, r2, "antipodal", False)


def individually_optimized(inp: DesignInput) -> DesignResult:
    """Each sender maximises its own separation, ignoring the other."""
    s10, s11 = max_separation(inp.priors.p1, inp.e1)
    s20, s21 = max_separation(inp.priors.p2, inp.e2)
    return DesignResult(s10, s11, s20, s21, "individual", False)


def design_orthogonal(inp: DesignInput) -> DesignResult:
    if inp.gamma_phi != 0.0:
        raise WrongGammaPhi("orthogonal design needs gamma_phi = 0")
    res = individually_optimized(inp)
    return DesignResult(res.a10, res.a11, res.a20, res.a21, "orthogonal", False)


def _roles(inp: DesignInput) -> tuple[bool, tuple[float, float, float], tuple[float, float, float]]:
    """(swapped, stronger, weaker), each sender as (marginal, energy, d_max).

    The stronger sender is the one with the larger d_max; sender 1 on a tie.
    """
    one = (inp.priors.p1, inp.e1, d_max(inp.priors.p1, inp.e1))
    two = (inp.priors.p2, inp.e2, d_max(inp.priors.p2, inp.e2))
    if two[2] > one[2]:
        return True, two, one
    return False, one, two


def _place(swapped: bool, strong: tuple[float, float, float], weak: tuple[float, float, float],
           d: float, gamma_phi: float) -> DesignResult:
    """Stronger sender at full separation, weaker one at signed separation d.

    The weaker sender sits where _on_shell puts it: on its energy boundary
    from its d_max on, on the negative shell root below it. Sender 2 takes
    the sign of gamma_phi: negating it with gamma_phi mirrors the combined
    constellation across the real axis, so a rule stated for gamma_phi > 0
    gives the same error at -gamma_phi.
    """
    first = max_separation(strong[0], strong[1])
    branch = "boundary" if abs(d) >= weak[2] else "minus"
    second = _on_shell(d, weak[0], weak[1])
    s1, s2 = (second, first) if swapped else (first, second)
    sign = math.copysign(1.0, gamma_phi)
    return DesignResult(s1[0], s1[1], sign * s2[0], sign * s2[1], branch, swapped)


def design_collinear(inp: DesignInput) -> DesignResult:
    """Joint design for fully correlated waveforms (gamma_phi = +-1).

    The stronger sender takes its full separation; the weaker one trades
    separation against the prior tilt of the diagonal versus anti-diagonal
    source pairs. When that separation reaches the weaker sender's d_max it
    sits on its energy boundary (branch "boundary"); otherwise it takes the
    negative root of its energy shell ("minus"). The positive root only
    translates the combined constellation, which leaves the MAP error
    unchanged, so it is never evaluated.
    """
    if abs(inp.gamma_phi) != 1.0:
        raise WrongGammaPhi("collinear design needs |gamma_phi| = 1")
    pr = inp.priors
    swapped, strong, weak = _roles(inp)
    da = strong[2]
    s_diag = pr.p00 + pr.p11
    s_anti = pr.p01 + pr.p10
    if s_diag >= s_anti:
        d = -4.0 * inp.sigma2 * math.log(s_anti) / da + da / 2.0
    else:
        d = 4.0 * inp.sigma2 * math.log(s_diag) / da - da / 2.0
    return _place(swapped, strong, weak, d, inp.gamma_phi)


def design_general(inp: DesignInput) -> DesignResult:
    """Joint design for partially correlated waveforms (|gamma_phi| < 1).

    The weaker sender's difference vector sits at angle psi to the
    stronger one's: theta itself when diagonal pairs dominate, theta + pi
    otherwise. Its length is capped by both the energy shell and the
    closest-approach condition between the cross pairs. The weaker sender
    is then placed as in design_collinear: on its energy boundary at d_max,
    on the negative shell root below it.
    """
    if abs(inp.gamma_phi) == 1.0:
        raise WrongGammaPhi("use the collinear designer when |gamma_phi| = 1")
    pr = inp.priors
    swapped, strong, weak = _roles(inp)
    da, db = strong[2], weak[2]
    orient = 1.0 if pr.p00 + pr.p11 >= pr.p01 + pr.p10 else -1.0
    theta = math.acos(inp.gamma_phi)
    abs_cos_psi = abs(math.cos(theta))  # |cos psi| for psi = theta or theta + pi

    abs2c = 2.0 * abs_cos_psi
    interior = da / abs2c if abs2c > 0.0 else math.inf
    cross = da * da + db * db - 2.0 * da * db * abs_cos_psi
    if cross <= interior * interior <= db * db:
        d_len = interior
    else:
        d_len = db
    return _place(swapped, strong, weak, orient * d_len, inp.gamma_phi)


# Candidates whose errors agree to this relative tolerance are tied, and the
# first in loop order wins, so that rounding alone never splits the sender
# swap of a symmetric source, a twin with equal error on the loop.
_TIE_RTOL = 1e-12
# Scan points per half-edge of the loop.
_SCAN = 40
# Local minima of the scan that are refined. On a recorded sweep of 1 500
# random inputs, refining the best alone lost once by 1.45x.
_MINIMA = 4
# Points of a refinement window: the last round's step either side, at a tenth.
_WINDOW = 21
# Rounds past grid's resolution when grid > _SCAN. With three, one of the
# same 1 500 searches lost to the 2-D grid search at grid 400 by 1.87e-9.
_EXTRA_ROUNDS = 4


def numerical_search(inp: DesignInput, grid: int = 400) -> DesignResult:
    """Search of the two senders' separations for the lowest exact error.

    Every difference of two combined points is d1, d2 u2 or d1 +- d2 u2,
    with d1 = a11 - a10, d2 = a21 - a20 and u2 sender 2's axis, and the
    noise is circularly symmetric; so the MAP error depends on the signed
    separations and the priors alone, within the box |d1| <= D1, |d2| <= D2
    of the senders' d_max. Scaling a constellation by t >= 1 divides the
    noise by t, and the noisier observation is a garbling of the quieter one
    (Blackwell 1953), so the error cannot rise with t: the box's boundary
    holds an optimum. Under the mirror a -> -a it is one loop of two edges,
    sender 1 at D1 with d2 from -D2 to D2, then sender 2 at D2 with d1 from
    D1 to -D1 (see _separations), and the search runs along it alone.

    A fixed scan of 40 points per half-edge holds both corners exactly and
    skips the edge midpoints, whose zero separation is no design. Its best
    _MINIMA local minima are refined together: each round scores a 21-point
    window about each, one step of the last round either side, in one
    batched call, and moves each to its window's best point. The points lie
    on a lattice, so a corner stays exact, and each window's centre and ends
    lie on the last round's: they keep the scores they got there, so no
    point is sent to the kernel twice. `grid` is the resolution per
    edge: rounds go on until the step is at most 1 / (10 (grid - 1)) of an
    edge, and past grid 40, which asks more than the scan holds, four more
    follow. So grid 10 takes one round, grid 400 six.

    Ties within _TIE_RTOL go to the first point in loop order, which starts
    on sender 1's edge, so for a swap-symmetric source sender 1 holds the
    wider separation. Each sender is placed by _on_shell, as the joint
    designers place the weaker one, and labelled in their terms: `swapped`
    when sender 2 alone holds its d_max, `branch` "boundary" when both do
    and "minus" otherwise. numpy and the batched kernels load on first use.

    A batch kernel scores each row on its own, so rows may be grouped into
    calls freely, and the reported p_err is the kernel's score of the
    returned design taken alone. A loop whose span D1 + D2 squares past the
    float range raises OverflowError, as exact_error does for such a
    constellation.
    """
    import numpy as np

    if grid < 2:
        raise ValueError("grid must be at least 2")
    pr = inp.priors
    dmax = (d_max(pr.p1, inp.e1), d_max(pr.p2, inp.e2))
    span = dmax[0] + dmax[1]
    if not math.isfinite(span * span):
        raise OverflowError(f"loop span D1 + D2 = {span!r} squares past the float range")
    score = _loop_scorer(inp, dmax)
    size = _SCAN
    points = np.arange(4 * size)
    pe = scores = score(points, size)
    local = np.flatnonzero((pe <= np.roll(pe, 1)) & (pe <= np.roll(pe, -1)))
    at = local[np.argsort(pe[local], kind="stable")[:_MINIMA]]
    step = _WINDOW // 2
    offsets, rows = np.arange(-step, step + 1), np.arange(len(at))
    rounds = 1
    while _SCAN * step**rounds < 5 * (grid - 1):
        rounds += 1
    rounds += _EXTRA_ROUNDS if grid > _SCAN else 0
    # the 14th round's step, 2.5e-16 of a half-edge, is a double's resolution
    for _ in range(min(rounds, 14)):
        size *= step
        last, last_scores = points * step, scores
        windows = np.sort((at[:, None] * step + offsets) % (4 * size), axis=1)
        # the windows' distinct points in order (np.unique's, at less cost)
        points = np.sort(windows, axis=None)
        points = points[np.concatenate(([True], points[1:] != points[:-1]))]
        # the last round's points (each window's centre and ends) keep their scores
        k = np.searchsorted(last, points)
        fresh = last.take(k, mode="clip") != points
        scores = last_scores.take(k, mode="clip")
        scores[fresh] = score(points[fresh], size)
        pe = scores[np.searchsorted(points, windows)]
        pick = _first_best(pe)
        at, pe = windows[rows, pick], pe[rows, pick]

    order = np.argsort(at)
    best = order[_first_best(pe[order])]
    d1, d2 = map(float, _separations(at[best], size, dmax))
    swapped = d1 < dmax[0]
    a10, a11 = _on_shell(d1, pr.p1, inp.e1)
    a20, a21 = _on_shell(d2, pr.p2, inp.e2)
    return DesignResult(a10, a11, a20, a21,
                        "minus" if swapped or abs(d2) < dmax[1] else "boundary", swapped,
                        float(pe[best]))


def _first_best(pe):
    """Index along the last axis of the first score within _TIE_RTOL of the least."""
    return (pe <= pe.min(axis=-1, keepdims=True) * (1.0 + _TIE_RTOL)).argmax(axis=-1)


def _separations(n, size, dmax):
    """Signed separations (d1, d2) at the loop's integer points n, size per half-edge.

    Points 0 ... 2 size run along sender 1's edge, d1 = D1 and d2 from -D2
    to D2; points 2 size ... 4 size along sender 2's, d2 = D2 and d1 from
    D1 to -D1, mirrored to d1 >= 0.
    """
    import numpy as np

    first = n <= 2 * size
    t = np.where(first, n - size, 3 * size - n) / size
    return (np.where(first, dmax[0], dmax[0] * np.abs(t)),
            np.where(first, dmax[1] * t, dmax[1] * np.sign(t)))


def _loop_scorer(inp, dmax):
    """score(n, size): the exact errors at the loop points n (see
    _separations) in one batched call, with what stays fixed over a search
    (sender 2's axis, the kernel, the coincidence tolerances, the priors and
    sigma2) worked out once. Each row's score depends on that row alone, so
    any grouping of the points gives the same scores.

    A separation at or below coincidence_tol(D_k), sender k's largest
    separation, is zero, and a zero separation is no Constellation: it
    scores +inf unsent. This rule asks whether one sender's two points
    coincide, not whether two combined points do (the kernels' rule, at
    the design's largest pairwise distance); D_k is a separation, so it is
    free of translation as well. Every other point goes to the kernel as
    its separations (d1, d2 u2): on the line that includes a merged design
    (d1 = +-d2), whose shared point the decoder gives by prior, as
    exact_error scores it. In the plane two nonzero separations keep the
    points distinct, so the planar kernel's +inf for non-bijective designs
    never fires here.
    """
    import numpy as np

    from . import _kernels

    tol1, tol2 = coincidence_tol(dmax[0]), coincidence_tol(dmax[1])
    u2 = sender2_axis(inp.gamma_phi)
    # kept real on the line, where the collinear kernel takes real separations
    if abs(inp.gamma_phi) == 1.0:
        u2, kernel = u2.real, _kernels.collinear_pe_batch
    else:
        kernel = _kernels.planar_pe_batch
    priors, sigma2 = inp.priors.as_array(), inp.sigma2

    def score(n, size):
        d1, d2 = _separations(n, size, dmax)
        keep = (d1 > tol1) & (np.abs(d2) > tol2)
        if keep.all():
            return kernel(d1, d2 * u2, priors, sigma2)
        pe = np.full(len(n), np.inf)
        pe[keep] = kernel(d1[keep], d2[keep] * u2, priors, sigma2)
        return pe

    return score


def design(scheme: str, inp: DesignInput, grid: int = 400) -> DesignResult:
    """Scheme-name dispatch used by the command line driver."""
    if scheme == "antipodal":
        return antipodal(inp)
    if scheme == "individual":
        return individually_optimized(inp)
    if scheme == "joint":
        if inp.gamma_phi == 0.0:
            return design_orthogonal(inp)
        if abs(inp.gamma_phi) == 1.0:
            return design_collinear(inp)
        return design_general(inp)
    if scheme == "numerical":
        return numerical_search(inp, grid=grid)
    raise ConfigError(f"unknown scheme {scheme!r}")

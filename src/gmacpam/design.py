"""Constellation designers for the two-sender binary PAM channel.

All designers work in each sender's own coordinates and return the four
real transmit amplitudes. Sender 2's axis is rotated by theta =
arccos(gamma_phi) when the pair is embedded in the plane, so a positive
orientation here means "along your own waveform".
"""

from __future__ import annotations

from dataclasses import dataclass
import math

# unused here; perfbench/spans.py wraps design.exact_error and
# design.exact_error_collinear by attribute lookup
from .analysis import exact_error, exact_error_collinear  # noqa: F401
from .errors import (
    ConfigError,
    InfeasibleRoot,
    WrongGammaPhi,
)
from .geometry import CombinedConstellation, coincidence_tol, combine, from_amplitudes, sender2_axis
from .sources import JointSourceDistribution


@dataclass(frozen=True)
class DesignInput:
    priors: JointSourceDistribution
    e1: float
    e2: float
    gamma_phi: float
    sigma2: float

    def __post_init__(self):
        if not (0.0 < self.e1 < math.inf and 0.0 < self.e2 < math.inf):
            raise ValueError("per-sender energies must be finite and positive")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and positive")
        if not abs(self.gamma_phi) <= 1.0:
            raise ValueError("gamma_phi must lie in [-1, 1]")


@dataclass(frozen=True)
class DesignResult:
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
    """Largest separation a binary constellation can buy with energy e."""
    return math.sqrt(e / (p * (1.0 - p)))


def max_separation(p: float, e: float, sign: float = 1.0) -> tuple[float, float]:
    """Amplitudes hitting d_max; sign < 0 reverses the orientation."""
    s0 = -sign * math.sqrt((1.0 - p) * e / p)
    s1 = sign * math.sqrt(p * e / (1.0 - p))
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
    return DesignResult(-r1, r1, -r2, r2, branch="antipodal", swapped=False)


def individually_optimized(inp: DesignInput) -> DesignResult:
    """Each sender maximises its own separation, ignoring the other."""
    s10, s11 = max_separation(inp.priors.p1, inp.e1)
    s20, s21 = max_separation(inp.priors.p2, inp.e2)
    return DesignResult(s10, s11, s20, s21, branch="individual", swapped=False)


def design_orthogonal(inp: DesignInput) -> DesignResult:
    if inp.gamma_phi != 0.0:
        raise WrongGammaPhi("orthogonal design needs gamma_phi = 0")
    res = individually_optimized(inp)
    return DesignResult(res.a10, res.a11, res.a20, res.a21, branch="orthogonal", swapped=False)


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
    return DesignResult(s1[0], s1[1], sign * s2[0], sign * s2[1],
                        branch=branch, swapped=swapped)


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


# Candidates of one exhaustive pass or refinement window whose errors agree
# to this relative tolerance are tied, and the first in row-major order
# wins. The twin with equal exact error left on the searched rectangle,
# the sender swap for symmetric sources, would otherwise be split by
# rounding alone.
_TIE_RTOL = 1e-12

# Points per axis of the exhaustive pass.
_COARSE = 40
# Points per axis of one refinement window.
_WINDOW = 21
# Each round's window half-width is this fraction of the one before.
_SHRINK = 0.15
# Rounds past those that reach grid's resolution. On a recorded collinear
# sweep (990 searches at grids 60/61/400) stopping at that resolution lost
# to the exhaustive grid in 22 cases, by up to 0.23%; one more round lost
# none.
_EXTRA_ROUNDS = 2


def numerical_search(inp: DesignInput, grid: int = 400) -> DesignResult:
    """Coarse-to-fine search of the two senders' separations for the lowest exact error.

    Every difference of two combined points is d1, d2 u2 or d1 +- d2 u2,
    with d1 = a11 - a10, d2 = a21 - a20 and u2 sender 2's axis, and the
    noise is circularly symmetric; so the MAP error depends on the signed
    separations and the priors alone. The search ranges over the rectangle
    d1 in [0, d_max1], d2 in [-d_max2, d_max2] and scores each candidate as
    the translate {0, d2 u2, d1, d1 + d2 u2} (see _score_windows). The
    mirror a -> -a covers d1 < 0.

    `grid` is the resolution per axis. Each round scores one window of
    candidates in one batched tail-form call. Round 0 is the exhaustive
    pass: min(grid, 40) points per axis over the whole rectangle. Each
    later round scores a 21 x 21 window around the best point so far; the
    first spans one coarse step either side, each later one 0.15 of the
    one before. Every window is clipped to the rectangle, and its axes
    (see _axis) hold each value once and never a zero separation, which
    is no design. For grid <= 40 one round follows the pass, so the
    result is the exhaustive grid's best point refined once. Above 40 the
    rounds go on until the window spacing is at most 1 / (10 (grid - 1))
    of the axis, what one round gives after an exhaustive pass at grid,
    and then two more. So no call scores more than 39 x 40 rows, a
    refinement round at most 441, and the rounds grow as log(grid).

    Each sender is reported where _on_shell puts its separation: on its
    energy boundary at d_max, on the negative shell root below it, as the
    joint designers place the weaker sender. For a swap-symmetric input
    (p01 == p10, e1 == e2) the sender swap is a twin with equal error; the
    result is put in the form where sender 1 has the wider separation.
    numpy and the batched kernels load on the first call.
    """
    import numpy as np

    if grid < 2:
        raise ValueError("grid must be at least 2")
    pr = inp.priors
    dmax = (d_max(pr.p1, inp.e1), d_max(pr.p2, inp.e2))
    n = min(grid, _COARSE)
    # round 0 is the exhaustive pass: n points per axis about (d_max1 / 2, 0)
    # at half-widths (d_max1 / 2, d_max2) span the rectangle exactly, and
    # round 1's half-widths are its steps
    best, half, size = (dmax[0] / 2.0, 0.0), (dmax[0] / 2.0, dmax[1]), n
    pe_best = math.inf
    for r in range(_rounds(n, grid) + 1):
        g1 = np.linspace(best[0] - half[0], best[0] + half[0], size)
        g2 = np.linspace(best[1] - half[1], best[1] + half[1], size)
        w1, w2 = _axis(g1, 0.0, dmax[0]), _axis(g2, -dmax[1], dmax[1])
        pe = _score_windows(inp, w1, w2)
        i, j = divmod(_first_best(pe), len(w2))
        if pe[i, j] < pe_best:
            pe_best, best = float(pe[i, j]), (w1[i], w2[j])
        if not math.isfinite(pe_best):
            raise InfeasibleRoot("no nondegenerate candidate on the search grid")
        half = (g1[1] - g1[0], g2[1] - g2[0]) if r == 0 else (half[0] * _SHRINK, half[1] * _SHRINK)
        size = _WINDOW

    d1, d2 = float(best[0]), float(best[1])
    if pr.p01 == pr.p10 and inp.e1 == inp.e2 and abs(d2) > d1:
        # the swap image, mirrored so that sender 1's separation stays >= 0
        d1, d2 = abs(d2), math.copysign(d1, d2)
    a10, a11 = _on_shell(d1, pr.p1, inp.e1)
    a20, a21 = _on_shell(d2, pr.p2, inp.e2)
    return DesignResult(a10, a11, a20, a21, branch="search", swapped=False, p_err=pe_best)


def _rounds(n: int, grid: int) -> int:
    """Refinement rounds for an exhaustive pass of n points standing in for grid."""
    if n == grid:
        return 1
    # round r's window spacing is 0.15^r of the grid-point refinement's
    # times (grid - 1) / (n - 1); logs keep any integer grid finite
    ratio = math.log(grid - 1) - math.log(n - 1)
    return math.ceil(ratio / -math.log(_SHRINK)) + 1 + _EXTRA_ROUNDS


def _axis(w, lo, hi):
    """The sorted axis w clipped to [lo, hi], with each repeated value kept
    once, in order, and each value the coincidence rule calls zero dropped.

    A zero separation is no design, so it is never scored, nor are the
    ulps linspace can leave where 0 belongs (4e-16 at some odd grids).
    Clipping a refinement window to the rectangle repeats its edge values;
    the first copy of each stays, so the first tie in row-major order is
    the same candidate as on the full window. Adjacent comparisons suffice
    on a sorted axis and, unlike np.unique, run no sort.
    """
    import numpy as np

    w = np.clip(w, lo, hi)
    keep = np.abs(w) > coincidence_tol(max(-lo, hi))
    keep[1:] &= w[1:] != w[:-1]
    return w[keep]


def _first_best(pe) -> int:
    """Flat index of the first score, in row-major order, within _TIE_RTOL
    of the minimum."""
    import numpy as np

    return int(np.argmax(pe <= np.min(pe) * (1.0 + _TIE_RTOL)))


def _score_windows(inp, w1, w2):
    """Exact errors of the candidates w1 x w2, in one batched call.

    Entry [i, j] of the result scores sender 1's separation w1[i] with
    sender 2's w2[j] as the translate {0, d2 u2, d1, d1 + d2 u2} of its
    design. The axes hold no separation the coincidence rule calls zero
    (see _axis), and every candidate is scored: on the line that includes
    a merged design (d1 = +-d2), whose shared point the decoder gives by
    prior, as exact_error scores it. In the plane two such separations
    keep the points distinct, so the planar kernel's +inf for
    non-bijective rows never fires here.
    """
    import numpy as np

    from . import _kernels

    u2 = sender2_axis(inp.gamma_phi)
    # kept real on the line so the collinear kernel reads the points as they are
    if abs(inp.gamma_phi) == 1.0:
        u2, kernel = u2.real, _kernels.collinear_pe_batch
    else:
        kernel = _kernels.planar_pe_batch
    d1 = w1[:, None]
    d2 = (w2 * u2)[None, :]
    both = d1 + d2
    points = np.stack(np.broadcast_arrays(np.zeros_like(both), d2, d1, both), axis=-1)
    return kernel(points.reshape(-1, 4), inp.priors.as_array(), inp.sigma2).reshape(both.shape)


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

"""Constellation designers for the two-sender binary PAM channel.

All designers work in each sender's own coordinates and return the four
real transmit amplitudes. Sender 2's axis is rotated by theta =
arccos(gamma_phi) when the pair is embedded in the plane, so a positive
orientation here means "along your own waveform".
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
# unused here; perfbench/spans.py wraps design.exact_error and
# design.exact_error_collinear by attribute lookup
from .analysis import exact_error, exact_error_collinear  # noqa: F401
from .errors import (
    ConfigError,
    InfeasibleRoot,
    WrongGammaPhi,
)
from .geometry import CombinedConstellation, combine, from_amplitudes, sender2_axis
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
    # the negative root
    disc = d * d * p * (p - 1.0) + e
    if disc < 0.0:
        raise InfeasibleRoot(f"no real amplitude pair for separation {d!r}")
    s1 = d * p - math.sqrt(disc)
    return s1 - d, s1


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
           d: float, gamma_phi: float = 1.0) -> DesignResult:
    """Stronger sender at full separation, weaker one at signed separation d.

    From the weaker sender's d_max on it sits on its energy boundary,
    oriented by the sign of d; below it, on the negative shell root.
    design_collinear places sender 2 on the combined line, where its
    amplitudes appear scaled by gamma_phi = +-1, so that is undone here;
    design_general works in sender 2's own coordinates and keeps 1.
    """
    first = max_separation(strong[0], strong[1])
    p_b, e_b, d_b = weak
    if abs(d) >= d_b:
        branch, second = "boundary", max_separation(p_b, e_b, sign=math.copysign(1.0, d))
    else:
        branch, second = "minus", _signed_root_pair(d, p_b, e_b)
    s1, s2 = (second, first) if swapped else (first, second)
    return DesignResult(s1[0], s1[1], gamma_phi * s2[0], gamma_phi * s2[1],
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
    return _place(swapped, strong, weak, orient * d_len)


def _shell_amplitudes(a0: np.ndarray, p: float, e: float, sign: float) -> np.ndarray:
    return sign * np.sqrt(np.maximum(e - p * a0 * a0, 0.0) / (1.0 - p))


_SIGN_BRANCHES = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))

# Search candidates whose errors agree to this relative tolerance are tied,
# and the first in search order wins. Mirror images (the global sign flip,
# and the sender swap for symmetric sources) have equal exact error, which
# rounding alone would otherwise split.
_TIE_RTOL = 1e-12


def numerical_search(inp: DesignInput, grid: int = 400, refine: bool = True) -> DesignResult:
    """Exhaustive search of both energy shells for the lowest exact error.

    Each sender's bit-0 amplitude runs over `grid` points of its feasible
    range; the bit-1 amplitude is then fixed by the energy budget up to a
    sign, giving four sign branches. Each branch is scored in one batched
    tail-form call, the collinear kernel for |gamma_phi| = 1 and the planar
    one otherwise, so the full default grid is practical in both geometries.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    pr = inp.priors
    priors_arr = pr.as_array()
    amax1 = math.sqrt(inp.e1 / pr.p1)
    amax2 = math.sqrt(inp.e2 / pr.p2)
    g1 = np.linspace(-amax1, amax1, grid)
    g2 = np.linspace(-amax2, amax2, grid)
    collinear = abs(inp.gamma_phi) == 1.0

    best = (math.inf, None, None)
    for sgn1, sgn2 in _SIGN_BRANCHES:
        cand, pe = _search_branch(inp, g1, g2, sgn1, sgn2, priors_arr, collinear)
        if pe < best[0] * (1.0 - _TIE_RTOL):
            best = (pe, cand, (sgn1, sgn2))
    pe_best, cand, signs = best

    if refine:
        step1 = g1[1] - g1[0]
        step2 = g2[1] - g2[0]
        r1 = np.clip(np.linspace(cand[0] - step1, cand[0] + step1, 21), -amax1, amax1)
        r2 = np.clip(np.linspace(cand[2] - step2, cand[2] + step2, 21), -amax2, amax2)
        fine, pe_fine = _search_branch(inp, r1, r2, signs[0], signs[1], priors_arr, collinear)
        if pe_fine < pe_best:
            cand, pe_best = fine, pe_fine

    return DesignResult(cand[0], cand[1], cand[2], cand[3],
                        branch="search", swapped=False, p_err=pe_best)


def _search_branch(inp, g1, g2, sgn1, sgn2, priors_arr, collinear):
    """Best candidate over one sign branch of the two energy shells.

    Every candidate is scored in one batched call; ties (within
    _TIE_RTOL) go to the first minimum in row-major (g1, g2) order, and
    rows the planar kernel rejects as non-bijective (+inf) are passed over.
    """
    pr = inp.priors
    b1 = _shell_amplitudes(g1, pr.p1, inp.e1, sgn1)
    b2 = _shell_amplitudes(g2, pr.p2, inp.e2, sgn2)
    # kept real on the line so the collinear kernel reads the points as they are
    u2 = sender2_axis(inp.gamma_phi)
    if collinear:
        u2 = u2.real
    points = np.empty((g1.size * g2.size, 4), dtype=type(u2))
    points[:, 0] = np.add.outer(g1, g2 * u2).ravel()
    points[:, 1] = np.add.outer(g1, b2 * u2).ravel()
    points[:, 2] = np.add.outer(b1, g2 * u2).ravel()
    points[:, 3] = np.add.outer(b1, b2 * u2).ravel()
    if collinear:
        pe = _kernels.collinear_pe_batch(points, priors_arr, inp.sigma2)
    else:
        pe = _kernels.planar_pe_batch(points, priors_arr, inp.sigma2)
    pe_min = np.min(pe)
    if not np.isfinite(pe_min):
        raise InfeasibleRoot("no nondegenerate candidate on the search grid")
    k = int(np.argmax(pe <= pe_min * (1.0 + _TIE_RTOL)))
    i, j = divmod(k, g2.size)
    return (g1[i], b1[i], g2[j], b2[j]), float(pe[k])


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

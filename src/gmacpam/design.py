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
from .analysis import exact_error, exact_error_collinear
from .errors import (
    ConfigError,
    InfeasibleRoot,
    WrongGammaPhi,
)
from .geometry import ChannelGeometry, CombinedConstellation, combine, from_amplitudes
from .sources import JointSourceDistribution


@dataclass(frozen=True)
class DesignInput:
    priors: JointSourceDistribution
    e1: float
    e2: float
    gamma_phi: float
    sigma2: float

    def __post_init__(self):
        if self.e1 <= 0.0 or self.e2 <= 0.0:
            raise ValueError("per-sender energies must be positive")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        if abs(self.gamma_phi) > 1.0:
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
        geom = ChannelGeometry(inp.gamma_phi, inp.sigma2)
        c1, c2 = from_amplitudes(self.a10, self.a11, self.a20, self.a21, geom)
        return combine(c1, c2, inp.priors)


def d_max(p: float, e: float) -> float:
    """Largest separation a binary constellation can buy with energy e."""
    return math.sqrt(e / (p * (1.0 - p)))


def max_separation(p: float, e: float, sign: float = 1.0) -> tuple[float, float]:
    """Amplitudes hitting d_max; sign < 0 reverses the orientation."""
    s0 = -sign * math.sqrt((1.0 - p) * e / p)
    s1 = sign * math.sqrt(p * e / (1.0 - p))
    return s0, s1


def _signed_root_pair(d: float, p: float, e: float, root_sign: float) -> tuple[float, float]:
    # bit-1 amplitude solving p*s0^2 + (1-p)*s1^2 = e with s1 - s0 = d
    disc = d * d * p * (p - 1.0) + e
    if disc < 0.0:
        raise InfeasibleRoot(f"no real amplitude pair for separation {d!r}")
    s1 = d * p + root_sign * math.sqrt(disc)
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


def _roles(inp: DesignInput) -> tuple[bool, float, float, float, float]:
    """Order the senders so the one with the larger d_max is designed first."""
    d1m = d_max(inp.priors.p1, inp.e1)
    d2m = d_max(inp.priors.p2, inp.e2)
    swapped = d2m > d1m
    if swapped:
        return True, d2m, d1m, inp.priors.p1, inp.e1
    return False, d1m, d2m, inp.priors.p2, inp.e2


def _assemble(swapped: bool, first: tuple[float, float], second: tuple[float, float],
              branch: str, gamma_phi: float = 1.0) -> DesignResult:
    # design_collinear places sender 2 on the combined line, where its
    # amplitudes appear scaled by gamma_phi = +-1, so that is undone here;
    # design_general works in sender 2's own coordinates and keeps 1
    if swapped:
        s1, s2 = second, first
    else:
        s1, s2 = first, second
    return DesignResult(s1[0], s1[1], gamma_phi * s2[0], gamma_phi * s2[1],
                        branch=branch, swapped=swapped)


def _collinear_pe(t1: tuple[float, float], t2: tuple[float, float],
                  priors: JointSourceDistribution, sigma2: float) -> float:
    cc = CombinedConstellation(
        complex(t1[0] + t2[0]), complex(t1[0] + t2[1]),
        complex(t1[1] + t2[0]), complex(t1[1] + t2[1]), priors)
    return exact_error_collinear(cc, sigma2).p_err_exact


def design_collinear(inp: DesignInput) -> DesignResult:
    """Joint design for fully correlated waveforms (gamma_phi = +-1).

    The stronger sender takes its full separation; the weaker one trades
    separation against the prior tilt of the diagonal versus anti-diagonal
    source pairs. Both quadratic roots place the weaker pair and the one
    with the lower exact error wins (the negative root on a tie).
    """
    if abs(inp.gamma_phi) != 1.0:
        raise WrongGammaPhi("collinear design needs |gamma_phi| = 1")
    pr = inp.priors
    swapped, da, db, p_b, e_b = _roles(inp)
    p_a = pr.p2 if swapped else pr.p1
    e_a = inp.e2 if swapped else inp.e1
    first = max_separation(p_a, e_a)

    s_diag = pr.p00 + pr.p11
    s_anti = pr.p01 + pr.p10
    if s_diag >= s_anti:
        d = -4.0 * inp.sigma2 * math.log(s_anti) / da + da / 2.0
        orient = 1.0
    else:
        d = 4.0 * inp.sigma2 * math.log(s_diag) / da - da / 2.0
        orient = -1.0

    if abs(d) >= db:
        second = max_separation(p_b, e_b, sign=orient)
        return _assemble(swapped, first, second, "boundary", inp.gamma_phi)

    minus = _signed_root_pair(d, p_b, e_b, -1.0)
    plus = _signed_root_pair(d, p_b, e_b, +1.0)
    pe_minus = _collinear_pe(first, minus, pr, inp.sigma2)
    pe_plus = _collinear_pe(first, plus, pr, inp.sigma2)
    if pe_plus < pe_minus:
        return _assemble(swapped, first, plus, "plus", inp.gamma_phi)
    return _assemble(swapped, first, minus, "minus", inp.gamma_phi)


def design_general(inp: DesignInput) -> DesignResult:
    """Joint design for partially correlated waveforms (|gamma_phi| < 1).

    The weaker sender's difference vector sits at angle psi to the
    stronger one's: theta itself when diagonal pairs dominate, theta + pi
    otherwise. Its length is capped by both the energy shell and the
    closest-approach condition between the cross pairs.
    """
    if abs(inp.gamma_phi) == 1.0:
        raise WrongGammaPhi("use the collinear designer when |gamma_phi| = 1")
    pr = inp.priors
    theta = math.acos(inp.gamma_phi)
    swapped, da, db, p_b, e_b = _roles(inp)
    p_a = pr.p2 if swapped else pr.p1
    e_a = inp.e2 if swapped else inp.e1
    first = max_separation(p_a, e_a)

    s_diag = pr.p00 + pr.p11
    if s_diag >= pr.p01 + pr.p10:
        cos_psi = math.cos(theta)
        orient = 1.0
    else:
        cos_psi = -math.cos(theta)
        orient = -1.0

    abs2c = 2.0 * abs(cos_psi)
    interior = da / abs2c if abs2c > 0.0 else math.inf
    cross = da * da + db * db - 2.0 * da * db * abs(cos_psi)
    if cross <= interior * interior <= db * db:
        d_len = interior
    else:
        d_len = db

    if d_len >= db:
        second = max_separation(p_b, e_b, sign=orient)
        return _assemble(swapped, first, second, "boundary")

    d = orient * d_len
    minus = _signed_root_pair(d, p_b, e_b, -1.0)
    plus = _signed_root_pair(d, p_b, e_b, +1.0)
    res_minus = _assemble(swapped, first, minus, "minus")
    res_plus = _assemble(swapped, first, plus, "plus")
    pe_minus = exact_error(res_minus.combined(inp), inp.sigma2).p_err_exact
    pe_plus = exact_error(res_plus.combined(inp), inp.sigma2).p_err_exact
    return res_plus if pe_plus < pe_minus else res_minus


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
    # sender 2's unit vector as from_amplitudes places it, kept real on
    # the line so the collinear kernel reads the points as they are
    if collinear:
        u2 = float(inp.gamma_phi)
    else:
        u2 = complex(inp.gamma_phi, math.sqrt(1.0 - inp.gamma_phi**2))
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

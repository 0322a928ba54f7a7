"""Joint maximum a posteriori decoding of one received sample.

The decoder scores every candidate bit pair (l, m) with

    H_lm = ln p_lm + (2 Re[r conj(a_lm)] - |a_lm|^2) / (2 sigma2)

and returns the argmax. Score ties are broken toward the lexicographically
smallest pair, (0,0) < (0,1) < (1,0) < (1,1), which is what makes decisions
well defined when combined points coincide.
"""

from __future__ import annotations

import math

from .geometry import CombinedConstellation
from .sources import BIT_PAIRS


def score(r: complex, a: complex, prior: float, sigma2: float) -> float:
    """Posterior score of candidate point a with prior probability."""
    cross = r.real * a.real + r.imag * a.imag
    return math.log(prior) + (2.0 * cross - abs(a) ** 2) / (2.0 * sigma2)


def decode(r: complex, cc: CombinedConstellation, sigma2: float) -> tuple[int, int]:
    """MAP decision for one received sample, ties broken lexicographically."""
    priors = cc.priors.as_tuple()
    best_pair = BIT_PAIRS[0]
    best = score(r, cc.a00, priors[0], sigma2)
    for k in range(1, 4):
        u, v = BIT_PAIRS[k]
        s = score(r, cc.point(u, v), priors[k], sigma2)
        if s > best:
            best = s
            best_pair = (u, v)
    return best_pair

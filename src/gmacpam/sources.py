"""Joint distribution of two correlated binary sources.

Cell probabilities are kept in lexicographic order of the bit pair (u, v):
p00, p01, p10, p11, where u is sender 1's bit and v is sender 2's bit.
Marginals follow the convention p1 = Pr(U = 0) and p2 = Pr(V = 0).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InfeasibleCorrelation, NonPositiveProbability, SumOutOfTolerance

BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# from_joint accepts this much drift from unit total and renormalises.
_SUM_TOL = 1e-9


def pair_index(u: int, v: int) -> int:
    """Index 2u + v of the bit pair (u, v) in lexicographic order; a bit
    other than 0 or 1 raises ValueError naming the pair."""
    if u not in (0, 1) or v not in (0, 1):
        raise ValueError(f"bit pair ({u!r}, {v!r}) has a bit other than 0 or 1")
    return 2 * u + v


class _Cells(NamedTuple):
    p00: float
    p01: float
    p10: float
    p11: float


class JointSourceDistribution(_Cells):
    """Joint pmf of the two source bits, every cell strictly positive."""

    __slots__ = ()

    def __new__(cls, p00: float, p01: float, p10: float, p11: float):
        cells = (p00, p01, p10, p11)
        if any(not (p > 0.0) for p in cells):
            raise NonPositiveProbability(f"all four cells must be > 0, got {cells}")
        total = math.fsum(cells)
        if abs(total - 1.0) > 1e-12:
            raise SumOutOfTolerance(f"cells sum to {total!r}, expected 1 within 1e-12")
        return tuple.__new__(cls, cells)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the new cells too
        return cls(*iterable)

    @property
    def p1(self) -> float:
        """Pr(U = 0)."""
        return self.p00 + self.p01

    @property
    def p2(self) -> float:
        """Pr(V = 0)."""
        return self.p00 + self.p10

    @property
    def gamma_m(self) -> float:
        """Pearson correlation of the two bits."""
        p1, p2 = self.p1, self.p2
        denom = math.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2))
        return (self.p11 - (1.0 - p1) * (1.0 - p2)) / denom

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)

    def as_array(self):
        """The cells as a float64 numpy array; numpy loads on first use."""
        import numpy as np

        return np.array(self.as_tuple(), dtype=np.float64)

    def prob(self, u: int, v: int) -> float:
        return self.as_tuple()[pair_index(u, v)]

    def cdf(self):
        """Cumulative sums in lexicographic cell order, last entry exactly 1,
        as a numpy array."""
        import numpy as np

        c = np.cumsum(self.as_array())
        c[-1] = 1.0
        return c


def from_joint(p00: float, p01: float, p10: float, p11: float) -> JointSourceDistribution:
    """Build a distribution from raw cells, renormalising drift up to 1e-9;
    the constructor rejects a cell that is not > 0."""
    cells = (p00, p01, p10, p11)
    # a non-finite cell fails the sum check (fsum raises ValueError on inf + -inf)
    total = math.fsum(cells) if all(map(math.isfinite, cells)) else math.nan
    if not abs(total - 1.0) <= _SUM_TOL:
        raise SumOutOfTolerance(f"cells {cells} sum to {total!r}, tolerance is {_SUM_TOL}")
    return JointSourceDistribution(p00 / total, p01 / total, p10 / total, p11 / total)


def from_marginals_correlation(p1: float, p2: float, gamma_m: float) -> JointSourceDistribution:
    """Build the joint pmf with given zero-bit marginals and bit correlation.

    The (1,1) cell is gamma_m * sqrt(p1 (1-p1) p2 (1-p2)) + (1-p1)(1-p2);
    the remaining cells follow from the marginals.
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError(f"marginals must lie strictly inside (0, 1), got {(p1, p2)}")
    p11 = gamma_m * math.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2)) + (1.0 - p1) * (1.0 - p2)
    p10 = (1.0 - p1) - p11
    p01 = (1.0 - p2) - p11
    p00 = 1.0 - p01 - p10 - p11
    cells = (p00, p01, p10, p11)
    if any(not (p > 0.0) for p in cells):
        raise InfeasibleCorrelation(
            f"gamma_m={gamma_m} with marginals {(p1, p2)} yields cells {cells}"
        )
    return JointSourceDistribution(*cells)

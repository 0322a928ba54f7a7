"""A fixed calibration load that measures how fast the host runs right now.

On a shared host, other tenants on the same cores and caches slow a
process by up to a half for minutes at a time, and its wall and CPU time
both move with them. The benchmark times this load right beside each
measurement and divides by it, which gives times at a reference host
speed. The load uses only the interpreter and numpy, never gmacpam, so a
change to gmacpam cannot move it.

The load mixes the three kinds of work the workloads do: interpreted
scalar code, numpy calls on small arrays (where call overhead dominates)
and numpy passes over arrays larger than the core's caches.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

# Seconds one load takes on the reference host (about this machine's speed
# when it is not contended). Normalised times are in seconds at that speed.
REFERENCE_S = 0.055



@functools.cache
def _inputs() -> tuple[np.ndarray, np.ndarray]:
    # Made on first use, so that importing this module takes no memory.
    large = np.random.default_rng(0).random(1 << 19)
    return large[:64].copy(), large


def _load() -> float:
    small, large = _inputs()
    acc = 0.0
    for i in range(100_000):
        acc += math.sqrt(i) * 1.5 % 7.0
    x = small
    for _ in range(4_000):
        x = np.exp(-x * x) + np.sqrt(x + 1.0) - 1.0
    y = large
    for _ in range(2):
        y = np.sort(np.exp(-y * y) * np.sqrt(y + 1.0))
    return acc + float(x[0]) + float(y[0])


def measure() -> tuple[float, float]:
    """(wall s, CPU s) of one calibration load."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _load()
    return time.perf_counter() - t0, time.process_time() - c0


def scale(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Factors that take a (wall, CPU) time measured between two loads to
    the reference speed."""
    return (2.0 * REFERENCE_S / (before[0] + after[0]),
            2.0 * REFERENCE_S / (before[1] + after[1]))

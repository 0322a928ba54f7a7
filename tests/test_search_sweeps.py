"""Recorded search sweeps: the boundary search against the grid search it replaced.

search_sweeps.json holds the p_err that numerical_search returned at grid
400 while it still searched the whole separation rectangle (a 40 x 40
exhaustive pass, then shrinking 21 x 21 windows), on two sweeps:

- "random": the 1 500 inputs of random_inputs(), drawn with Python's
  random.Random(2017);
- "paper": the paper's two sources at gamma_phi 1 / 0.924 / 0.707 /
  0.383 / 0, 0-40 dB sum-energy in 1 dB steps, unit energies
  (paper_inputs()).

A search must match or beat every recorded value to 1e-9 relative. A
recorded 0.0 is an underflowed score, which only 0.0 matches.
"""

import itertools
import json
import math
import pathlib
import random

import pytest

from gmacpam import DesignInput, from_joint, from_marginals_correlation, numerical_search
from gmacpam.config import convert_snr

RECORDED = json.loads((pathlib.Path(__file__).with_name("search_sweeps.json")).read_text())

RANDOM_GAMMAS = (1.0, -1.0, 0.99, 0.924, 0.707, 0.383, 0.1, 0.0, -0.5)
RANDOM_E2 = (0.25, 0.5, 1.0, 2.0, 4.0)
PAPER_GAMMAS = (1.0, 0.924, 0.707, 0.383, 0.0)


def random_inputs():
    """1 500 inputs: 4 cells uniform on [0.01, 1], then normalised; e1 = 1,
    e2 and gamma_phi drawn from their lists; -15...35 dB sum-energy."""
    rng = random.Random(2017)
    for _ in range(1500):
        cells = [rng.uniform(0.01, 1.0) for _ in range(4)]
        total = math.fsum(cells)
        gamma_phi = rng.choice(RANDOM_GAMMAS)
        e2 = rng.choice(RANDOM_E2)
        snr_db = rng.uniform(-15.0, 35.0)
        s2 = convert_snr(snr_db, "sum-energy", 1.0, e2, gamma_phi)
        yield DesignInput(from_joint(*(c / total for c in cells)), 1.0, e2, gamma_phi, s2)


def paper_inputs(snrs=range(41)):
    """The paper's case-1 and case-2 sources, in the order of RECORDED["paper"]
    when snrs is 0...40 dB."""
    for pri in (from_marginals_correlation(0.1, 0.1, 0.9),
                from_marginals_correlation(0.2, 0.5, 0.4)):
        for gamma_phi in PAPER_GAMMAS:
            for snr_db in snrs:
                s2 = convert_snr(snr_db, "sum-energy", 1.0, 1.0, gamma_phi)
                yield DesignInput(pri, 1.0, 1.0, gamma_phi, s2)


def _assert_matches_or_beats(inputs, recorded):
    worse = []
    for inp, pe in zip(inputs, recorded, strict=True):
        got = numerical_search(inp, grid=400).p_err
        if not got <= pe * (1.0 + 1e-9):
            worse.append((inp, got, pe))
    assert not worse, worse[:3]


def test_search_matches_or_beats_recorded_sweeps_subset():
    """Tier-1 subset: the paper sources at 0, 10, 20 and 30 dB, and every
    15th random input."""
    paper = [pe for pe, snr_db in zip(RECORDED["paper"], [*range(41)] * 10)
             if snr_db in (0, 10, 20, 30)]
    _assert_matches_or_beats(paper_inputs((0, 10, 20, 30)), paper)
    _assert_matches_or_beats(itertools.islice(random_inputs(), 0, None, 15),
                             RECORDED["random"][::15])


@pytest.mark.slow
@pytest.mark.parametrize("sweep", ["random", "paper"])
def test_search_matches_or_beats_recorded_sweep(sweep):
    inputs = random_inputs() if sweep == "random" else paper_inputs()
    _assert_matches_or_beats(inputs, RECORDED[sweep])

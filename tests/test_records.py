"""The nine result and input records: immutable named tuples whose repr,
equality, hash and constructor checks are part of the API (digests hash
the repr, and callers compare and key records by value)."""

import pytest

from gmacpam import (
    CombinedConstellation,
    Constellation,
    DesignInput,
    DesignResult,
    ErrorReport,
    ExperimentConfig,
    JointSourceDistribution,
    NoisePoint,
    SimResult,
    analysis,
)
from gmacpam.errors import (
    ConfigError,
    DegenerateConstellation,
    NonPositiveProbability,
    SumOutOfTolerance,
)

_CELLS = (0.25, 0.25, 0.25, 0.25)
_CONFIG = dict(priors=JointSourceDistribution(*_CELLS), e1=1.0, e2=1.0, gamma_phi=1.0,
               noise=(NoisePoint(10.0, 0.05),), schemes=("joint",), trials=0, seed=7,
               workers=1, grid=400, out=None)

# one instance of each record, built from fresh arguments on each call, and
# its repr
_RECORDS = {
    "JointSourceDistribution": (
        lambda: JointSourceDistribution(*_CELLS),
        "JointSourceDistribution(p00=0.25, p01=0.25, p10=0.25, p11=0.25)"),
    "Constellation": (
        lambda: Constellation(complex(-1.0), complex(1.0)),
        "Constellation(s0=(-1+0j), s1=(1+0j))"),
    "CombinedConstellation": (
        lambda: CombinedConstellation(complex(-2.0), complex(0.0), complex(0.5), complex(2.5),
                                      JointSourceDistribution(*_CELLS)),
        "CombinedConstellation(a00=(-2+0j), a01=0j, a10=(0.5+0j), a11=(2.5+0j), "
        "priors=JointSourceDistribution(p00=0.25, p01=0.25, p10=0.25, p11=0.25))"),
    "ErrorReport": (
        lambda: ErrorReport(1e-3, (0.001, 0.002, 0.003, 0.0005), "collinear", 1.5e-3, True),
        "ErrorReport(p_err_exact=0.001, miss_per_pair=(0.001, 0.002, 0.003, 0.0005), "
        "method='collinear', p_err_union=0.0015, bijective=True)"),
    "DesignInput": (
        lambda: DesignInput(JointSourceDistribution(*_CELLS), 1.0, 2.0, 0.5, 0.1),
        "DesignInput(priors=JointSourceDistribution(p00=0.25, p01=0.25, p10=0.25, p11=0.25), "
        "e1=1.0, e2=2.0, gamma_phi=0.5, sigma2=0.1)"),
    "DesignResult": (
        lambda: DesignResult(-1.0, 1.0, -0.5, 0.5, "minus", False),
        "DesignResult(a10=-1.0, a11=1.0, a20=-0.5, a21=0.5, branch='minus', swapped=False, "
        "p_err=None)"),
    "NoisePoint": (
        lambda: NoisePoint(None, 0.1),
        "NoisePoint(snr_db=None, sigma2=0.1)"),
    "ExperimentConfig": (
        lambda: ExperimentConfig(**_CONFIG),
        "ExperimentConfig(priors=JointSourceDistribution(p00=0.25, p01=0.25, p10=0.25, "
        "p11=0.25), e1=1.0, e2=1.0, gamma_phi=1.0, noise=(NoisePoint(snr_db=10.0, "
        "sigma2=0.05),), schemes=('joint',), trials=0, seed=7, workers=1, grid=400, out=None)"),
    "SimResult": (
        lambda: SimResult(1000, 3, 0.003, 0.0034, 7),
        "SimResult(trials=1000, errors=3, p_hat=0.003, ci_halfwidth=0.0034, seed=7)"),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_repr_equality_hash_and_immutability(name):
    build, text = _RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b)
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def _raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert (info.type, str(info.value)) == (exc_type, message)


def test_joint_source_checks():
    _raises(NonPositiveProbability, "all four cells must be > 0, got (0.0, 0.5, 0.25, 0.25)",
            lambda: JointSourceDistribution(0.0, 0.5, 0.25, 0.25))
    _raises(SumOutOfTolerance, "cells sum to 2.0, expected 1 within 1e-12",
            lambda: JointSourceDistribution(0.5, 0.5, 0.5, 0.5))


def test_constellation_check():
    _raises(DegenerateConstellation, "signal points coincide at (1+0j)",
            lambda: Constellation(1 + 0j, 1 + 0j))


def test_design_input_checks():
    priors = JointSourceDistribution(*_CELLS)
    energies = "per-sender energies must be finite and positive"
    _raises(ValueError, energies, lambda: DesignInput(priors, 0.0, 1.0, 1.0, 0.1))
    _raises(ValueError, energies, lambda: DesignInput(priors, 1.0, float("inf"), 1.0, 0.1))
    _raises(ValueError, "sigma2 must be finite and positive",
            lambda: DesignInput(priors, 1.0, 1.0, 1.0, float("nan")))
    _raises(ValueError, "gamma_phi must lie in [-1, 1]",
            lambda: DesignInput(priors, 1.0, 1.0, 1.5, 0.1))


@pytest.mark.parametrize("change, message", [
    ({"noise": ()}, "at least one noise point is required"),
    ({"schemes": ()}, "at least one scheme is required"),
    ({"schemes": ("joint", "best")},
     "unknown scheme 'best'; choose from antipodal, individual, joint, numerical"),
    ({"trials": -1}, "trials must be nonnegative"),
    ({"seed": 2**63}, "seed must be a nonnegative integer below 2**63"),
    ({"workers": 0}, "workers must be at least 1"),
    ({"grid": 1}, "grid must be at least 2"),
])
def test_experiment_config_checks(change, message):
    _raises(ConfigError, message, lambda: ExperimentConfig(**{**_CONFIG, **change}))


def test_replace_runs_the_checks():
    # _replace builds the new record through the checking constructor
    _raises(ValueError, "sigma2 must be finite and positive",
            lambda: _RECORDS["DesignInput"][0]()._replace(sigma2=-1.0))
    _raises(DegenerateConstellation, "signal points coincide at (1+0j)",
            lambda: Constellation(0j, 1 + 0j)._replace(s0=1 + 0j))
    _raises(ConfigError, "grid must be at least 2",
            lambda: ExperimentConfig(**_CONFIG)._replace(grid=0))
    _raises(SumOutOfTolerance, "cells sum to 1.25, expected 1 within 1e-12",
            lambda: JointSourceDistribution(*_CELLS)._replace(p00=0.5))


def test_combined_constellation_keeps_its_own_pair_table():
    cc = _RECORDS["CombinedConstellation"][0]()
    geo = analysis._pair_geometry(cc)
    assert analysis._pair_geometry(cc) is geo
    copy = type(cc)(cc.a00, cc.a01, cc.a10, cc.a11, cc.priors)
    assert copy == cc and "_pair_geometry" not in copy.__dict__
    assert analysis._pair_geometry(copy) is not geo

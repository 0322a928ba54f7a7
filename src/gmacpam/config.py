"""Experiment configuration: noise conventions, file parsing, validation.

Config files are flat `key = value` text. `#` starts a comment, blank
lines are skipped, and the keys are the ones `--set KEY=VALUE` takes, so
a file is just a bag of defaults that each `--set` may override.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError, UnknownConvention
from .sources import JointSourceDistribution, from_joint, from_marginals_correlation

CONVENTIONS = ("sum-energy", "table-reproduction")
SCHEMES = ("antipodal", "individual", "joint", "numerical")


def convert_snr(snr_db: float, convention: str, e1: float, e2: float,
                gamma_phi: float) -> float:
    """Map an SNR figure to a noise variance under a named convention.

    sum-energy divides the total transmit energy by the SNR and halves
    the result when the waveforms are not fully correlated (two noise
    dimensions instead of one). table-reproduction ignores the energies
    entirely. A noise variance given as such needs no convention: that is
    the sigma2 key.
    """
    if convention == "sum-energy":
        n0 = (e1 + e2) / 10.0 ** (snr_db / 10.0)
        return n0 if abs(gamma_phi) == 1.0 else n0 / 2.0
    if convention == "table-reproduction":
        return 10.0 ** (-snr_db / 10.0)
    raise UnknownConvention(f"unknown snr convention {convention!r}")


class NoisePoint(NamedTuple):
    """One sweep point; snr_db is None when sigma2 was given directly."""

    snr_db: float | None
    sigma2: float


class _ConfigFields(NamedTuple):
    priors: JointSourceDistribution
    e1: float
    e2: float
    gamma_phi: float
    noise: tuple[NoisePoint, ...]
    schemes: tuple[str, ...]
    trials: int
    seed: int
    workers: int
    grid: int
    out: str | None


class ExperimentConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, priors: JointSourceDistribution, e1: float, e2: float, gamma_phi: float,
                noise: tuple[NoisePoint, ...], schemes: tuple[str, ...], trials: int, seed: int,
                workers: int, grid: int, out: str | None):
        if not noise:
            raise ConfigError("at least one noise point is required")
        if not schemes:
            raise ConfigError("at least one scheme is required")
        for s in schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from {', '.join(SCHEMES)}")
        if trials < 0:
            raise ConfigError("trials must be nonnegative")
        if not 0 <= seed < 2**63:
            raise ConfigError("seed must be a nonnegative integer below 2**63")
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        if grid < 2:
            raise ConfigError("grid must be at least 2")
        return tuple.__new__(cls, (priors, e1, e2, gamma_phi, noise, schemes, trials, seed,
                                   workers, grid, out))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the new fields too
        return cls(*iterable)


_KEYS = (
    "p00", "p01", "p10", "p11", "p1", "p2", "gamma_m",
    "e1", "e2", "gamma_phi",
    "snr_db", "sigma2", "snr_convention", "schemes",
    "trials", "seed", "workers", "grid", "out",
)


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value file into a string dict."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, value = text.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            if not value:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            raw[key] = value
    return raw


def _parse_float(raw: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in raw:
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: could not parse {raw[key]!r} as a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw[key]!r} is not a finite number")
    return value


def _parse_int(raw: dict[str, str], key: str, default: int) -> int:
    if key not in raw:
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: could not parse {raw[key]!r} as an integer") from None


def _parse_float_list(raw: dict[str, str], key: str) -> list[float] | None:
    if key not in raw:
        return None
    items = raw[key].replace(",", " ").split()
    try:
        values = [float(v) for v in items]
    except ValueError:
        raise ConfigError(f"key {key!r}: could not parse {raw[key]!r} as numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: {raw[key]!r} holds a value that is not a finite number")
    return values


def _build_priors(raw: dict[str, str]) -> JointSourceDistribution:
    joint_keys = ("p00", "p01", "p10", "p11")
    marg_keys = ("p1", "p2", "gamma_m")
    have_joint = [k for k in joint_keys if k in raw]
    have_marg = [k for k in marg_keys if k in raw]
    if have_joint and have_marg:
        raise ConfigError("give either p00..p11 or p1/p2/gamma_m, not both")
    if have_joint:
        if len(have_joint) < 4:
            missing = sorted(set(joint_keys) - set(have_joint))
            raise ConfigError(f"joint source form needs all of p00..p11; missing {missing}")
        return from_joint(*(_parse_float(raw, k) for k in joint_keys))
    if have_marg:
        if len(have_marg) < 3:
            missing = sorted(set(marg_keys) - set(have_marg))
            raise ConfigError(f"marginal source form needs p1, p2 and gamma_m; missing {missing}")
        return from_marginals_correlation(
            _parse_float(raw, "p1"), _parse_float(raw, "p2"), _parse_float(raw, "gamma_m"))
    raise ConfigError("no source distribution given (p00..p11 or p1/p2/gamma_m)")


def _snr_sigma2(snr_db: float, convention: str, e1: float, e2: float, gamma_phi: float) -> float:
    # an SNR far outside the float range has no noise variance; NaN lets
    # build_config reject it with the others
    try:
        return convert_snr(snr_db, convention, e1, e2, gamma_phi)
    except ArithmeticError:
        return math.nan


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Validate a string dict (from a file and/or flags) into a config."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
    priors = _build_priors(raw)
    e1 = _parse_float(raw, "e1", 1.0)
    e2 = _parse_float(raw, "e2", 1.0)
    gamma_phi = _parse_float(raw, "gamma_phi", 1.0)
    if e1 <= 0.0 or e2 <= 0.0:
        raise ConfigError("energies e1 and e2 must be positive")
    if abs(gamma_phi) > 1.0:
        raise ConfigError("gamma_phi must lie in [-1, 1]")

    snrs = _parse_float_list(raw, "snr_db")
    sigmas = _parse_float_list(raw, "sigma2")
    convention = raw.get("snr_convention")
    if convention is not None and convention not in CONVENTIONS:
        raise UnknownConvention(f"unknown snr convention {convention!r}")
    if snrs is not None and sigmas is not None:
        raise ConfigError("give either snr_db or sigma2, not both")
    if snrs is not None:
        if convention is None:
            raise ConfigError("snr_db needs snr_convention")
        noise = tuple(NoisePoint(s, _snr_sigma2(s, convention, e1, e2, gamma_phi))
                      for s in snrs)
    elif sigmas is not None:
        if convention is not None:
            raise ConfigError(f"sigma2 values conflict with convention {convention!r}")
        noise = tuple(NoisePoint(None, s) for s in sigmas)
    else:
        raise ConfigError("no noise points given (snr_db or sigma2)")
    for point in noise:
        if not 0.0 < point.sigma2 < math.inf:
            if point.snr_db is None:
                raise ConfigError(f"sigma2 must be positive, got {point.sigma2!r}")
            raise ConfigError(f"snr_db {point.snr_db!r} under {convention} leaves "
                              "no finite positive sigma2")

    schemes = tuple(raw["schemes"].replace(",", " ").split()) if "schemes" in raw else ()
    return ExperimentConfig(
        priors=priors,
        e1=e1,
        e2=e2,
        gamma_phi=gamma_phi,
        noise=noise,
        schemes=schemes,
        trials=_parse_int(raw, "trials", 0),
        seed=_parse_int(raw, "seed", 20260815),
        workers=_parse_int(raw, "workers", 1),
        grid=_parse_int(raw, "grid", 400),
        out=raw.get("out"),
    )

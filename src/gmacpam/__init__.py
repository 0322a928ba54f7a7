"""Binary PAM design and exact MAP error analysis for two correlated
senders on a shared Gaussian channel."""

import importlib

from . import errors
from .analysis import (
    ErrorReport,
    bvn_lower_orthant,
    closed_form_qam,
    collinear_decision_interval,
    collinear_pair_threshold,
    collinear_sign_case,
    exact_error,
    exact_error_collinear,
    exact_error_planar,
    high_snr_correct_prob,
    high_snr_union_bound,
    is_bijective,
    is_collinear,
    qfunc,
    union_bound,
)
from .design import (
    DesignInput,
    DesignResult,
    antipodal,
    d_max,
    design,
    design_collinear,
    design_general,
    design_orthogonal,
    individually_optimized,
    max_separation,
    numerical_search,
)
from .geometry import (
    CombinedConstellation,
    Constellation,
    check_energy,
    combine,
    from_amplitudes,
    pair_geometry,
)
from .simulate import SimResult, backend_name, derive_seed, simulate
from .sources import JointSourceDistribution, from_joint, from_marginals_correlation

__version__ = "0.1.0"

# config and decoder load on first use: nothing on the library path needs
# them, and the CLI imports config itself. design and simulate cannot wait,
# since a later import of the submodule of either name would rebind the
# package attribute from the function to the module.
_LAZY = {
    **dict.fromkeys(("ExperimentConfig", "NoisePoint", "build_config", "convert_snr",
                     "parse_config_file"), "config"),
    **dict.fromkeys(("decode", "score"), "decoder"),
}


def __getattr__(name):
    if name in ("config", "decoder"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, "config", "decoder"})

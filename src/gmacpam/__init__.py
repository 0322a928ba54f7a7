"""Binary PAM design and exact MAP error analysis for two correlated
senders on a shared Gaussian channel."""

from . import errors
from ._kernels import backend_name, derive_seed
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
    is_collinear,
    qfunc,
    union_bound,
)
from .config import (
    CONVENTIONS,
    SCHEMES,
    ExperimentConfig,
    NoisePoint,
    build_config,
    convert_snr,
    parse_config_file,
)
from .decoder import decode, score
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
    is_bijective,
    pair_geometry,
)
from .simulate import SimResult, simulate
from .sources import JointSourceDistribution, from_joint, from_marginals_correlation

__version__ = "0.1.0"

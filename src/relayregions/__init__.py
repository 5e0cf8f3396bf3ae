"""Rate regions for a relay broadcast channel with additive interference.

The channel has a source, a relay that also decodes a common message,
and a far destination whose observation is a further degraded copy of
the relay's. An additive Gaussian interference term is known either to
every node or to the source alone; the two cases give the exact region
and a dirty-paper style inner bound respectively. All rates are in bits
per channel use and all powers are linear.
"""

from .model import (
    ChannelParams,
    Frontier,
    FrontierPoint,
    GdpcParams,
    InformedBothParams,
    OutOfRange,
    RatePoint,
    RelayRegionsError,
    SCHEMES,
    SingularSubmatrix,
    rho_upper_bound,
    validate_gdpc,
)
from .rates import cap_c, gdpc_rates, nostate_terms
from .gaussian import (
    TermCheck,
    VerifyReport,
    build_cov_informed_both,
    build_cov_informed_source,
    gaussian_cmi,
    sample_mi_estimate,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)
from .optimize import (
    GridSpec,
    OptResult,
    frontier,
    max_beta_nostate,
    max_r02_gdpc,
    sweep_snr,
)
from .dmc import (
    AuxJoint,
    DmcSpec,
    binary_pipes_spec,
    discrete_cmi,
    dmc_maximize,
    eval_informed_both,
    eval_informed_source,
)

__version__ = "0.1.0"

__all__ = [
    "AuxJoint",
    "ChannelParams",
    "DmcSpec",
    "Frontier",
    "FrontierPoint",
    "GdpcParams",
    "GridSpec",
    "InformedBothParams",
    "OptResult",
    "OutOfRange",
    "RatePoint",
    "RelayRegionsError",
    "SCHEMES",
    "SingularSubmatrix",
    "TermCheck",
    "VerifyReport",
    "binary_pipes_spec",
    "build_cov_informed_both",
    "build_cov_informed_source",
    "cap_c",
    "discrete_cmi",
    "dmc_maximize",
    "eval_informed_both",
    "eval_informed_source",
    "frontier",
    "gaussian_cmi",
    "gdpc_rates",
    "max_beta_nostate",
    "max_r02_gdpc",
    "nostate_terms",
    "rho_upper_bound",
    "sample_mi_estimate",
    "sweep_snr",
    "validate_gdpc",
    "verify_gdpc",
    "verify_informed_both",
    "verify_relay_identity",
    "__version__",
]

"""Ergodic secrecy rates of correlated MIMO wiretap channels via
large-system deterministic equivalents, with transmit-covariance
optimization and seeded Monte Carlo validation.
"""

from .channel import ArraySpec, ChannelStatistics, gen_correlation
from .detequiv import (
    FixedPoint,
    LslRate,
    lsl_mutual_information,
    lsl_objective,
    lsl_secrecy_rate,
    solve_fixed_point,
)
from .experiment import ExperimentConfig, SweepResult, figure_preset, parse_config, run_sweep
from .linalg import GsvdFactorization, eigh, gsvd, hermitian_sqrt, logdet_hpd
from .montecarlo import McEstimate, mc_ergodic_mi, mc_secrecy_rate, validate_lsl
from .precoders import (
    Precoder,
    PowerAllocation,
    Strategy,
    gsvd_power_allocation,
    gsvd_precoder,
    isotropic_precoder,
    optimize,
    waterfill_levels,
    waterfill_precoder,
)

__all__ = [
    "ArraySpec",
    "ChannelStatistics",
    "ExperimentConfig",
    "FixedPoint",
    "GsvdFactorization",
    "LslRate",
    "McEstimate",
    "Precoder",
    "PowerAllocation",
    "Strategy",
    "SweepResult",
    "eigh",
    "figure_preset",
    "gen_correlation",
    "gsvd",
    "gsvd_power_allocation",
    "gsvd_precoder",
    "hermitian_sqrt",
    "isotropic_precoder",
    "logdet_hpd",
    "lsl_mutual_information",
    "lsl_objective",
    "lsl_secrecy_rate",
    "mc_ergodic_mi",
    "mc_secrecy_rate",
    "optimize",
    "parse_config",
    "run_sweep",
    "solve_fixed_point",
    "validate_lsl",
    "waterfill_levels",
    "waterfill_precoder",
]

__version__ = "0.1.0"

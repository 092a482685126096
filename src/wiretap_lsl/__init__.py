"""Ergodic secrecy rates of correlated MIMO wiretap channels via
large-system deterministic equivalents, with transmit-covariance
optimization and seeded Monte Carlo validation.
"""

from .channel import ArraySpec, ChannelStatistics, gen_correlation
from .experiment import ExperimentConfig, figure_preset, parse_config, run_sweep
from .montecarlo import mc_secrecy_rate
from .precoders import optimize

__all__ = [
    "ArraySpec",
    "ChannelStatistics",
    "ExperimentConfig",
    "figure_preset",
    "gen_correlation",
    "mc_secrecy_rate",
    "optimize",
    "parse_config",
    "run_sweep",
]

__version__ = "0.1.0"

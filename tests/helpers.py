"""Shared test fixtures."""

import numpy as np

from wiretap_lsl.channel import ChannelStatistics
from wiretap_lsl.detequiv import lsl_secrecy_rate
from wiretap_lsl.precoders import isotropic_precoder


def iid_stats(snr, n, m):
    """Uncorrelated link: T = I (M x M) and R = I (N x N)."""
    return ChannelStatistics(snr=snr, t_corr=np.eye(m), r_eigs=np.ones(n))


def isotropic_start(stats_m, stats_e):
    """Both links solved at P = I: the start rate that optimize takes."""
    return lsl_secrecy_rate(stats_m, stats_e, isotropic_precoder(stats_m.num_tx))

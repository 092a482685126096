"""Shared test fixtures."""

import numpy as np

from wiretap_lsl.channel import ChannelStatistics


def iid_stats(snr, n, m):
    """Uncorrelated link: T = I (M x M) and R = I (N x N)."""
    return ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=np.eye(m), r_corr=np.eye(n))

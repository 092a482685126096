"""Shared test fixtures."""

import numpy as np

from wiretap_lsl import precoders
from wiretap_lsl.channel import ChannelStatistics
from wiretap_lsl.detequiv import lsl_secrecy_rate
from wiretap_lsl.errors import BisectionFailure
from wiretap_lsl.linalg import congruence
from wiretap_lsl.precoders import gsvd_power_allocation, isotropic_precoder, subchannel_terms


def iid_stats(snr, n, m):
    """Uncorrelated link: T = I (M x M) and R = I (N x N)."""
    return ChannelStatistics(snr=snr, t_corr=np.eye(m), r_eigs=np.ones(n))


def isotropic_start(stats_m, stats_e):
    """Both links solved at P = I: the start rate that optimize takes."""
    return lsl_secrecy_rate(stats_m, stats_e, isotropic_precoder(stats_m.num_tx))


def reference_gsvd_precoder(stats_m, stats_e, em, ee):
    """gsvd_precoder with a bisection that evaluates the allocation at
    every step: the oracle that gsvd_precoder must match byte for byte,
    BisectionFailure messages included. It takes the GSVD from the
    precoders module, so a test that replaces it there replaces it here."""
    m = stats_m.num_tx
    a = np.sqrt(stats_m.beta * em) * stats_m.t_sqrt
    b = np.sqrt(stats_e.beta * ee) * stats_e.t_sqrt
    sigma_m, sigma_e, x = precoders.gsvd(a, b)
    sm2 = sigma_m**2
    se2 = sigma_e**2
    v_diag = np.einsum("ij,ij->j", x, x.conj()).real

    if not np.any(sm2 > se2 + 1e-12):
        return np.zeros((m, m), dtype=complex)

    terms = subchannel_terms(sm2, se2, v_diag)
    lo, hi = precoders._MU_LO, precoders._MU_HI
    mu = np.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
    while lo < mu < hi:
        levels = gsvd_power_allocation(terms, mu)
        excess = float(np.dot(levels, v_diag)) - m  # the trace budget is M
        if abs(excess) <= precoders._POWER_TOL:
            return precoders._within_budget(congruence(x, levels))
        if excess > 0:
            lo = mu
        else:
            hi = mu
        mu = np.sqrt(lo * hi)
    raise BisectionFailure(
        f"power budget not met for mu in [{precoders._MU_LO:g}, {precoders._MU_HI:g}]; last excess {excess:.3e}"
    )

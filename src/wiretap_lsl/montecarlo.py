"""Seeded Monte Carlo estimation of ergodic rates.

The ground truth against which every deterministic-equivalent value is
validated. Realizations are drawn in fixed-size blocks of 256 with
per-block RNG streams derived from a master seed, so estimates are
bit-identical for a given seed regardless of how blocks would be
scheduled. Each block consumes its stream in a fixed order (all real
parts of W, then all imaginary parts).

W is unitarily invariant, so a link enters only through R's spectrum
and that of K = T^(1/2) P T^(1/2), one eigendecomposition per call (see
sample_channel_block). Per block the kernel does one elementwise scaling
of W and one batched Cholesky of a Gram matrix in the smaller of N and
M. Blocks bound the memory: drawing all n realizations at once would
allocate n * N * M complex values per array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, sample_channel_block

_BLOCK_SIZE = 256


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n realizations."""

    mean: float
    std_error: float
    num_realizations: int


def _logdet_block(g: np.ndarray) -> np.ndarray:
    """(1/M) ln det(I + G Gᴴ) for a (count, N, M) stack of precoded channels.

    The Sylvester identity det(I_N + G Gᴴ) = det(I_M + Gᴴ G) lets the
    Cholesky factor the smaller Gram matrix. The Gram matrix is not
    symmetrized first: the factorization reads one triangle and the real
    part of the diagonal.
    """
    count, n, m = g.shape
    g_h = g.conj().transpose(0, 2, 1)
    gram = g @ g_h if n <= m else g_h @ g
    diag = np.arange(gram.shape[1])
    gram[:, diag, diag] += 1.0
    chol = np.linalg.cholesky(gram)
    diags = np.diagonal(chol, axis1=1, axis2=2).real
    return 2.0 * np.sum(np.log(diags), axis=1) / m


def mc_ergodic_mi(stats: ChannelStatistics, p: np.ndarray, n: int, seed: int) -> McEstimate:
    """Average per-antenna MI over n sampled channel realizations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k_eigs = stats.k_eigs(p)
    num_blocks = (n + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    values = np.empty(n)
    offset = 0
    for child in np.random.SeedSequence(seed).spawn(num_blocks):
        count = min(_BLOCK_SIZE, n - offset)
        rng = np.random.default_rng(child)
        g = sample_channel_block(stats, k_eigs, count, rng)
        values[offset : offset + count] = _logdet_block(g)
        offset += count
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, num_realizations=n)


def mc_secrecy_rate(
    stats_m: ChannelStatistics,
    stats_e: ChannelStatistics,
    p: np.ndarray,
    n: int,
    seed: int,
) -> McEstimate:
    """Clamped difference of the two links' Monte Carlo mean MIs.

    The clamp is applied to the difference of the averages, never per
    realization. Both links consume the same seed (common random
    numbers), so identical statistics yield an exact zero.
    """
    est_m = mc_ergodic_mi(stats_m, p, n, seed)
    est_e = mc_ergodic_mi(stats_e, p, n, seed)
    mean = max(0.0, est_m.mean - est_e.mean)
    std_error = float(np.hypot(est_m.std_error, est_e.std_error))
    return McEstimate(mean=mean, std_error=std_error, num_realizations=n)

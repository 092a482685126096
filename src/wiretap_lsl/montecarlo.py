"""Seeded Monte Carlo estimation of ergodic rates.

The ground truth against which every deterministic-equivalent value is
validated. Each estimate draws from one generator, seeded by the
caller, in blocks of 256 realizations taken in order, so a seed gives
the same estimate every time and the first k full blocks do not depend
on n. Each block draws all real parts of W, then all imaginary parts.

W is unitarily invariant, so a link at a precoder P enters only through
R's spectrum and that of K = T^(1/2) P T^(1/2) (see sample_channel_block),
both held by the FixedPoint solved at P: this module never sees P and
makes no eigendecomposition. Per block the kernel does one elementwise
scaling of W and one batched Cholesky of a Gram matrix in the smaller of
N and M. Blocks bound the memory: drawing all n realizations at once
would allocate n * N * M complex values per array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import sample_channel_block
from .detequiv import FixedPoint, LslRate

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


def mc_ergodic_mi(fp: FixedPoint, n: int, seed: int | tuple[int, ...]) -> McEstimate:
    """Average per-antenna MI of fp's link at its precoder over n channels
    sampled from one generator seeded by seed, an int or a tuple of ints.
    A Generator raises TypeError: the links of a rate could not share it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = np.empty(n)
    for offset in range(0, n, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, n - offset)
        g = sample_channel_block(fp.stats, fp.k_eigs, count, rng)
        values[offset : offset + count] = _logdet_block(g)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=std_error, num_realizations=n)


def mc_secrecy_rate(rate: LslRate, n: int, seed: int | tuple[int, ...]) -> McEstimate:
    """Clamped difference of the Monte Carlo mean MIs of rate's two links.

    The clamp is applied to the difference of the averages, never per
    realization. Both links consume the same seed (common random
    numbers), so identical statistics yield an exact zero.
    """
    est_m = mc_ergodic_mi(rate.fp_main, n, seed)
    est_e = mc_ergodic_mi(rate.fp_eave, n, seed)
    mean = max(0.0, est_m.mean - est_e.mean)
    std_error = float(np.hypot(est_m.std_error, est_e.std_error))
    return McEstimate(mean=mean, std_error=std_error, num_realizations=n)

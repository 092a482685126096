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

A secrecy rate pairs its two links: each block draws one W with the
rows of the taller link, and each link scales its own first N rows.
Each link keeps its law, so the per-realization difference of their
MIs is unbiased, and its spread, not that of either MI, sets the
standard error. The trace and squared Frobenius norm of each link's
Gram matrix have closed-form means and serve as control variates: the
difference is regressed on them, and the intercept is the estimate
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 4).
Its standard error, the residual standard deviation over sqrt(n), is
the spread of the estimate across seeds; it is smaller than that of
the plain paired mean wherever the moments correlate with the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import sample_channel_block
from .detequiv import FixedPoint, LslRate

_BLOCK_SIZE = 256
# Up to this many realizations the secrecy rate is the plain paired mean:
# the regression fits 5 coefficients.
_MIN_REGRESSION = 6


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n realizations."""

    mean: float
    std_error: float
    num_realizations: int


def _logdet_block(g: np.ndarray, moments: np.ndarray | None = None) -> np.ndarray:
    """(1/M) ln det(I + G Gᴴ) for a (count, N, M) stack of precoded channels.

    The Sylvester identity det(I_N + G Gᴴ) = det(I_M + Gᴴ G) lets the
    Cholesky factor the smaller Gram matrix. The Gram matrix is not
    symmetrized first: the factorization reads one triangle and the real
    part of the diagonal. If moments, a (2, count) array, is given, the
    Gram matrix's trace and squared Frobenius norm, the same for either
    Gram matrix, are written into it before the identity is added.
    """
    count, n, m = g.shape
    g_h = g.conj().transpose(0, 2, 1)
    gram = g @ g_h if n <= m else g_h @ g
    if moments is not None:
        moments[0] = np.einsum("kii->k", gram).real
        flat = gram.view(float).reshape(count, -1)
        moments[1] = np.einsum("ij,ij->i", flat, flat)
    diag = np.arange(gram.shape[1])
    gram[:, diag, diag] += 1.0
    chol = np.linalg.cholesky(gram)
    diags = np.diagonal(chol, axis1=1, axis2=2).real
    return 2.0 * np.sum(np.log(diags), axis=1) / m


def _sample(fps: tuple[FixedPoint, ...], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """Per-realization MI, Gram trace and squared Gram Frobenius norm of
    each link of fps, shape (links, 3, n), drawn in blocks from one
    generator seeded by seed. The links share every W."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stats = [fp.stats for fp in fps]
    k_eigs = [fp.k_eigs for fp in fps]
    rows = np.cumsum([0] + [s.num_rx for s in stats])
    out = np.empty((len(fps), 3, n))
    for offset in range(0, n, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, n - offset)
        g = sample_channel_block(stats, k_eigs, count, rng)
        for i, block in enumerate(out[:, :, offset : offset + count]):
            block[0] = _logdet_block(g[:, rows[i] : rows[i + 1]], block[1:])
    return out


def _exact_moments(fp: FixedPoint) -> np.ndarray:
    """Means of the Gram trace and squared Frobenius norm of fp's link:
    c sum(r) sum(k) and c^2 ((sum r)^2 sum k^2 + sum r^2 (sum k)^2), c = rho/M."""
    r, k = fp.stats.r_eigs, fp.k_eigs
    c = fp.stats.snr / fp.stats.num_tx
    sr, sk = r.sum(), k.sum()
    return np.array([c * sr * sk, c**2 * (sr**2 * np.dot(k, k) + np.dot(r, r) * sk**2)])


def _mean_and_error(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    std_error = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), std_error


def mc_ergodic_mi(fp: FixedPoint, n: int, seed: int | tuple[int, ...]) -> McEstimate:
    """Average per-antenna MI of fp's link at its precoder over n channels
    sampled from one generator seeded by seed, an int or a tuple of ints.
    A Generator raises TypeError: the links of a rate could not share it."""
    mean, std_error = _mean_and_error(_sample((fp,), n, seed)[0, 0])
    return McEstimate(mean=mean, std_error=std_error, num_realizations=n)


def mc_secrecy_rate(rate: LslRate, n: int, seed: int | tuple[int, ...]) -> McEstimate:
    """Clamped Monte Carlo estimate of the difference of the mean MIs of
    rate's two links.

    Both links see the same W each realization (common random numbers),
    so identical statistics yield an exact zero. The per-realization
    difference is regressed by least squares on an intercept and both
    links' centred Gram moments, each divided by its mean so that no
    column dwarfs the intercept's (the squared norm grows as rho^2, and
    the least-squares rank cut would drop the intercept); the intercept
    is the estimate and the residual standard deviation over sqrt(n) its
    standard error. Moments that are identically zero, as at rho = 0, get
    the minimum-norm coefficient 0. Up to _MIN_REGRESSION realizations
    the plain paired mean is used. The clamp is applied to the estimate,
    never per realization.
    """
    fps = (rate.fp_main, rate.fp_eave)
    sample = _sample(fps, n, seed)
    diff = sample[0, 0] - sample[1, 0]
    if n <= _MIN_REGRESSION:
        mean, std_error = _mean_and_error(diff)
    else:
        exact = np.array([_exact_moments(fp) for fp in fps])[:, :, None]
        # A moment with mean 0 is identically 0; tiny keeps 0 / 0 out.
        scaled = (sample[:, 1:] - exact) / np.maximum(exact, np.finfo(float).tiny)
        design = np.column_stack([np.ones(n), scaled.reshape(-1, n).T])
        coef, _, rank, _ = np.linalg.lstsq(design, diff, rcond=None)
        resid = diff - design @ coef
        mean, std_error = float(coef[0]), float(np.sqrt(resid @ resid / (n - rank) / n))
    return McEstimate(mean=max(0.0, mean), std_error=std_error, num_realizations=n)

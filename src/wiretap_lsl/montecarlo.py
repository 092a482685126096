"""Seeded Monte Carlo estimation of ergodic rates.

The ground truth against which every deterministic-equivalent value is
validated. Each estimate draws from one generator, seeded by the
caller, in blocks of 256 realizations taken in order, so a seed gives
the same estimate every time and the first k full blocks do not depend
on n. Each block draws all real parts of W, then all imaginary parts.
mc_secrecy_rate takes a sequence of rates and returns the list of
their estimates; a sweep makes one call per grid point, seeded by
(seed, grid index), for the rates of all its strategies.

W is unitarily invariant, so a link at a precoder P enters only through
R's spectrum and that of K = T^(1/2) P T^(1/2) (see sample_channel_block),
both held by the FixedPoint solved at P: this module never sees P and
makes no eigendecomposition. Per block each link costs one elementwise
scaling of W and ln det(I + Gram) of the Gram matrix in the smaller of
N and M. Blocks bound the memory: drawing all n realizations at once
would allocate n * N * M complex values per array.

Every link of every rate in a call shares each block's W, drawn with
the rows of the tallest link; each link scales its own first N rows.
The links with the same N then go through the log-det kernel as one
stack. Up to order _SMALL_GRAM the kernel keeps the batch on the last
axis and builds the Gram matrix and its Gaussian elimination with one
vectorized operation per entry row; larger Gram matrices take a stacked
matmul and a batched Cholesky. Either kernel also returns the Gram
moments that the estimate regresses on.

Each link keeps its law, so the per-realization difference of a rate's
two MIs is unbiased, and its spread, not that of either MI, sets the
standard error. The trace and squared Frobenius norm of each link's
Gram matrix have closed-form means and serve as control variates: the
difference is regressed on them, and the intercept is the estimate
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, ch. 4).
Its standard error, the residual standard deviation over sqrt(n), is
the spread of the estimate across seeds; it is smaller than that of
the plain paired mean wherever the moments correlate with the
difference. Each rate keeps its own regression; rates whose links are
no taller than its own change none of its numbers.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import sample_channel_block
from .detequiv import FixedPoint, LslRate

_BLOCK_SIZE = 256
# Up to this many realizations the secrecy rate is the plain paired mean:
# the regression fits 5 coefficients.
_MIN_REGRESSION = 6
# Largest Gram order min(N, M) that _Eliminator takes. With the three
# links of a sweep point stacked it was 1.1-1.5 times as fast as
# _logdet_cholesky at order 6 and 0.7-1.1 times at order 8.
_SMALL_GRAM = 6


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n realizations."""

    mean: float
    std_error: float
    num_realizations: int


def _logdet_cholesky(g: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """The log-det kernel: (1/M) ln det(I + G Gᴴ) of each channel of a
    stack g, (..., N, M), by a stacked matmul and a batched Cholesky of
    the smaller Gram matrix (det(I_N + G Gᴴ) = det(I_M + Gᴴ G)), whose
    trace and squared Frobenius norm, those of the larger one, go into
    moments, (2, ...). The Gram matrix is not symmetrized first: the
    factorization reads one triangle and the real part of the diagonal."""
    n, m = g.shape[-2:]
    g_h = g.conj().swapaxes(-1, -2)
    gram = g @ g_h if n <= m else g_h @ g
    moments[0] = np.einsum("...ii->...", gram).real
    flat = gram.view(float).reshape(*gram.shape[:-2], -1)
    moments[1] = np.einsum("...i,...i->...", flat, flat)
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += 1.0
    chol = np.linalg.cholesky(gram)
    diags = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log(diags), axis=-1) / m


class _Eliminator:
    """The same kernel for stacks of one shape with the batch flattened onto
    the last axis of every array, so that each step is one vectorized
    operation over all matrices.

    The d rows of the smaller factor (G, or the transpose of G, whose
    Gram matrix is the conjugate of Gᴴ G: same determinant and moments)
    give the upper triangle of the conjugated Gram matrix one row at a
    time. Gaussian elimination then takes ln det(I + Gram) as the sum of
    the logs of its pivots. I + Gram is Hermitian positive definite with
    a unit lower bound, so every pivot is at least 1 and no pivoting is
    needed.

    The arrays are allocated once, for the shape given, and every call
    reuses them; a stack with a shorter first axis uses their leading
    columns. Fresh arrays for every block page-faulted on each call and
    took twice the time. Every step works on two columns at least:
    numpy sums a lone column pairwise but several in sequence, so a
    stack of one matrix would differ in its last bits from the same
    matrix in a larger stack. A padding column holds zeros or an earlier
    block's channel, and its results are dropped.
    """

    def __init__(self, shape: tuple[int, ...]):
        *batch, n, m = shape
        self.transpose, self.m = n > m, m
        d, length, size = min(n, m), max(n, m), max(2, int(np.prod(batch)))
        self.rows = np.zeros((d, length, size), dtype=complex)
        self.products = np.empty((d, length, size), dtype=complex)
        # Only the upper triangle is ever written: the lower stays 0.
        self.gram = np.zeros((d, d, size), dtype=complex)
        self.pivots = np.empty((d, size))
        self.scaled = np.empty((d, size), dtype=complex)
        self.update = np.empty((d, size), dtype=complex)

    def __call__(self, g: np.ndarray, moments: np.ndarray) -> np.ndarray:
        batch = g.shape[:-2]
        d, length = self.rows.shape[:2]
        size = int(np.prod(batch))
        cols = max(2, size)
        rows = self.rows[:, :, :cols]
        factor = g.swapaxes(-1, -2) if self.transpose else g
        np.copyto(rows[:, :, :size].reshape(d, length, *batch), np.moveaxis(factor, (-2, -1), (0, 1)))
        gram, pivots = self.gram[:, :, :cols], self.pivots[:, :cols]
        for i in range(d):
            products = np.multiply(rows[i].conj(), rows[i:], out=self.products[: d - i, :, :cols])
            products.sum(axis=1, out=gram[i, i:])
        diag = np.einsum("iib->ib", gram).real
        flat = gram.view(float).reshape(d * d, -1)
        squares = np.einsum("kb,kb->b", flat, flat)
        # The lower triangle is 0, so the off-diagonal entries count twice.
        trace_sq = np.einsum("ib,ib->b", diag, diag)
        moments[0] = diag.sum(axis=0)[:size].reshape(batch)
        moments[1] = (2.0 * (squares[0::2] + squares[1::2]) - trace_sq)[:size].reshape(batch)
        for k in range(d):
            np.add(gram[k, k].real, 1.0, out=pivots[k])
            row = gram[k, k + 1 :]
            scaled = np.conjugate(row, out=self.scaled[: d - k - 1, :cols])
            np.divide(scaled, pivots[k], out=scaled)
            for j in range(k + 1, d):
                update = np.multiply(scaled[j - k - 1], row[j - k - 1 :], out=self.update[: d - j, :cols])
                np.subtract(gram[j, j:], update, out=gram[j, j:])
        return np.log(pivots).sum(axis=0)[:size].reshape(batch) / self.m


def _sample(fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """Per-realization MI, Gram trace and squared Gram Frobenius norm of
    each link of fps, shape (links, 3, n), drawn in blocks from one
    generator seeded by seed. All links share every W; the links with
    the same N go as one stack through _Eliminator up to Gram order
    _SMALL_GRAM, through _logdet_cholesky above it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not fps:
        return np.empty((0, 3, n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = sorted(range(len(fps)), key=lambda i: fps[i].stats.num_rx)
    stats = [fps[i].stats for i in order]
    k_eigs = [fps[i].k_eigs for i in order]
    m, size = stats[0].num_tx, min(n, _BLOCK_SIZE)
    # (first link, first row, links, N, kernel) of each run of equal N.
    stacks, first, start = [], 0, 0
    for rows, run in itertools.groupby(s.num_rx for s in stats):
        links = len(list(run))
        kernel = _Eliminator((size, links, rows, m)) if min(rows, m) <= _SMALL_GRAM else _logdet_cholesky
        stacks.append((first, start, links, rows, kernel))
        first, start = first + links, start + links * rows
    out = np.empty((len(fps), 3, n))
    for offset in range(0, n, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, n - offset)
        g = sample_channel_block(stats, k_eigs, count, rng)
        for first, start, links, rows, kernel in stacks:
            stack = g[:, start : start + links * rows].reshape(count, links, rows, m)
            moments = np.empty((2, count, links))
            block = out[first : first + links, :, offset : offset + count]
            block[:, 0] = kernel(stack, moments).T
            block[:, 1:] = moments.transpose(2, 0, 1)
    return out[np.argsort(order)]


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


def _secrecy_estimate(rate: LslRate, sample: np.ndarray) -> McEstimate:
    """The clamped control-variate estimate of rate from its links'
    sample, shape (2, 3, n): main link, then eavesdropper."""
    n = sample.shape[2]
    diff = sample[0, 0] - sample[1, 0]
    if n <= _MIN_REGRESSION:
        mean, std_error = _mean_and_error(diff)
    else:
        exact = np.array([_exact_moments(rate.fp_main), _exact_moments(rate.fp_eave)])[:, :, None]
        # A moment with mean 0 is identically 0; tiny keeps 0 / 0 out.
        scaled = (sample[:, 1:] - exact) / np.maximum(exact, np.finfo(float).tiny)
        design = np.column_stack([np.ones(n), scaled.reshape(-1, n).T])
        coef, _, rank, _ = np.linalg.lstsq(design, diff, rcond=None)
        resid = diff - design @ coef
        mean, std_error = float(coef[0]), float(np.sqrt(resid @ resid / (n - rank) / n))
    return McEstimate(mean=max(0.0, mean), std_error=std_error, num_realizations=n)


def mc_secrecy_rate(rates: Sequence[LslRate], n: int, seed: int | tuple[int, ...]) -> list[McEstimate]:
    """Clamped Monte Carlo estimates, one per rate, of the difference of
    the mean MIs of the rate's two links.

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

    All rates share every W, so they must share M, and each link's
    k_eigs must hold M eigenvalues (else ValueError); each rate keeps
    its own law and its own regression. Where all their links
    have the same numbers of receive antennas, as the rates of one sweep
    point do, each estimate equals that of its rate alone, bit for bit.
    No rates give no estimates.
    """
    sample = _sample([fp for rate in rates for fp in (rate.fp_main, rate.fp_eave)], n, seed)
    return [_secrecy_estimate(rate, sample[2 * i : 2 * i + 2]) for i, rate in enumerate(rates)]

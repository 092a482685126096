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
the eigenvalues r of R and k of K = T^(1/2) P T^(1/2), with eigenvectors
Q_R and Q_K, both spectra held by the FixedPoint solved at P: this
module never sees P and makes no eigendecomposition. For the Kronecker
channel H = sqrt(rho/M) R^(1/2) W T^(1/2), H P Hᴴ = Q_R G Gᴴ Q_Rᴴ with
G = sqrt(rho/M) diag(sqrt(r)) W' diag(sqrt(k)), where W' = Q_Rᴴ W Q_K has
the law of W; so ln det(I + G Gᴴ) has the law of ln det(I + H P Hᴴ). Per
block each link costs ln det(I + Gram) of its Gram matrix in the smaller
of N and M. Blocks bound the memory: drawing all n realizations at once
would allocate n * N * M complex values per array.

Every link of every rate in a call shares each block's W, drawn once by
sample_channel_block with the rows of the tallest link, unscaled; each
link reads W's first N rows. The links that share N and r form a group,
whose Gram matrices are built once per block. Where N >= M a link's
Gram matrix is Gᴴ G = diag(s) A diag(s), with A = Wᴴ diag(r) W over W's
first N rows and s = sqrt((rho/2M) k), whose 1/2 undoes the variance 2
of W's entries as drawn: the group forms A once and scales it per link,
and no tall link's channel is ever built. The links of all strategies at a sweep
point share N and r, hence A. Where N < M each link scales its rows of W
into G and builds G Gᴴ. Up to Gram order _SMALL_GRAM the batch stays on
the last axis, and one vectorized operation per entry row builds the
Gram matrices and eliminates them; larger ones take stacked matmuls and
a batched Cholesky. Either kernel also returns the Gram moments that the
estimate regresses on.

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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, sample_channel_block
from .detequiv import FixedPoint, LslRate

_BLOCK_SIZE = 256
# Up to this many realizations the secrecy rate is the plain paired mean:
# the regression fits 5 coefficients.
_MIN_REGRESSION = 6
# Largest Gram order min(N, M) that _Eliminator takes. A group of three
# links with 256 realizations each, its Gram matrices built as _Group
# builds them, took 1.4-2.7 times as long through _logdet_cholesky at
# order 6 and 1.5-1.9 times at order 8 (medians over N = M, N > M and
# N < M, one BLAS thread). No workload runs above order 6, so none has
# timed a higher threshold end to end.
_SMALL_GRAM = 6


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n realizations."""

    mean: float
    std_error: float
    num_realizations: int


def _logdet_cholesky(gram: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """The log-det kernel: ln det(I + Gram) of each Gram matrix of a
    stack (..., d, d), whose trace and squared Frobenius norm go into
    moments, (2, ...), by a batched Cholesky. The Gram matrices are not
    symmetrized first: the factorization reads one triangle and the real
    part of the diagonal. The stack is overwritten."""
    moments[0] = np.einsum("...ii->...", gram).real
    flat = gram.view(float).reshape(*gram.shape[:-2], -1)
    moments[1] = np.einsum("...i,...i->...", flat, flat)
    diag = np.arange(gram.shape[-1])
    gram[..., diag, diag] += 1.0
    chol = np.linalg.cholesky(gram)
    diags = np.diagonal(chol, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log(diags), axis=-1)


class _Eliminator:
    """The same kernel for a stack of d x d Gram matrices held batch-last,
    (d, d, size), so that each step is one vectorized operation over all
    matrices. Only the upper triangle is read, and the lower must be 0.

    Gaussian elimination takes ln det(I + Gram) as the sum of the logs of
    its pivots. I + Gram is Hermitian positive definite with a unit lower
    bound, so every pivot is at least 1 and no pivoting is needed. Each
    pivot row is scaled by the pivot's reciprocal: numpy divides a complex
    value by a real one as its product with the reciprocal, so the bits
    are those of the division, at less than half its cost.

    The work arrays are allocated once, for the size given, and a smaller
    stack uses their leading columns.
    """

    def __init__(self, d: int, size: int):
        self.pivots = np.empty((d, size))
        self.scaled = np.empty((d, size), dtype=complex)
        self.update = np.empty((d, size), dtype=complex)

    def __call__(self, gram: np.ndarray, moments: np.ndarray) -> np.ndarray:
        """ln det(I + Gram), (size,), of gram, which it overwrites; the
        Gram trace and squared Frobenius norm go into moments, (2, size)."""
        d, size = gram.shape[1:]
        pivots = self.pivots[:, :size]
        diag = np.einsum("iib->ib", gram).real
        flat = gram.view(float).reshape(d * d, -1)
        squares = np.einsum("kb,kb->b", flat, flat)
        # The lower triangle is 0, so the off-diagonal entries count twice.
        trace_sq = np.einsum("ib,ib->b", diag, diag)
        moments[0] = diag.sum(axis=0)
        moments[1] = 2.0 * (squares[0::2] + squares[1::2]) - trace_sq
        for k in range(d):
            np.add(gram[k, k].real, 1.0, out=pivots[k])
            row = gram[k, k + 1 :]
            scaled = np.conjugate(row, out=self.scaled[: d - k - 1, :size])
            np.multiply(scaled, 1.0 / pivots[k], out=scaled)
            for j in range(k + 1, d):
                update = np.multiply(scaled[j - k - 1], row[j - k - 1 :], out=self.update[: d - j, :size])
                np.subtract(gram[j, j:], update, out=gram[j, j:])
        return np.log(pivots).sum(axis=0)


def _upper_gram(rows: np.ndarray, gram: np.ndarray, products: np.ndarray) -> None:
    """Write gram[i, j] = sum over axis 1 of conj(rows[i]) rows[j] for
    j >= i, one entry row at a time; products, of rows' shape, is work
    space. The lower triangle of gram is left as it is."""
    d = len(rows)
    for i in range(d):
        part = np.multiply(rows[i].conj(), rows[i:], out=products[: d - i])
        part.sum(axis=1, out=gram[i, i:])


class _Group:
    """The links of one _sample call that share N and r, and the work
    arrays of their blocks.

    Up to Gram order _SMALL_GRAM the arrays are allocated once, for blocks
    of up to size realizations, and every block reuses them; a shorter
    block uses their leading columns. Fresh arrays for every block
    page-faulted on each call and took twice the time. Every step works
    on two realizations per link at least: numpy sums a lone column
    pairwise but several in sequence, so a block of one realization would
    differ in its last bits from the same realization in a larger block.
    The padding column holds zeros or an earlier block's rows, so its
    Gram matrices, which are rebuilt with every block, stay valid; its
    results are dropped.
    """

    def __init__(self, stats: ChannelStatistics, weights: np.ndarray, size: int):
        """stats is any link of the group, whose N, M and r it reads;
        weights, (links, M), holds each link's (rho/2M) k."""
        n, m = stats.num_rx, stats.num_tx
        links, d = len(weights), min(n, m)
        self.n, self.links, self.shared, self.small = n, links, n >= m, d <= _SMALL_GRAM
        if self.shared:
            self.sqrt_r = np.sqrt(stats.r_eigs)
            s = np.sqrt(weights)
            scales = s[:, :, None] * s[:, None, :]
        else:
            scales = np.sqrt(stats.r_eigs[:, None] * weights[:, None, :])
        # Laid out to broadcast against the block: (links, 1, rows, M)
        # above _SMALL_GRAM, (rows, M, links, 1) up to it.
        if not self.small:
            self.scales = scales[:, None]
            return
        self.scales = np.ascontiguousarray(scales.transpose(1, 2, 0))[..., None]
        cols = max(2, size)
        # The rows whose products build the Gram matrices: those of Wᵀ
        # weighted by sqrt(r) for the shared A, else those of each link's G.
        self.rows = np.zeros((m, n, cols) if self.shared else (n, m, links * cols), dtype=complex)
        self.products = np.empty_like(self.rows)
        # Only the upper triangles are ever written: the lower stay 0.
        if self.shared:
            self.a = np.zeros((m, m, cols), dtype=complex)
        self.gram = np.zeros((d, d, links * cols), dtype=complex)
        self.kernel = _Eliminator(d, links * cols)

    def grams(self, w: np.ndarray) -> np.ndarray:
        """The Gram matrices of the group's links on a block w of W,
        (count, rows, M). Up to order _SMALL_GRAM, their upper triangles
        batch-last, (d, d, links * c) with c = max(2, count) realizations
        per link and the lower triangles 0; where N < M they are the
        conjugates of G Gᴴ, with the same determinant and moments. Above
        it the full matrices, (links, count, d, d)."""
        x = w[:, : self.n]
        if not self.small:
            if self.shared:
                x = x * self.sqrt_r[:, None]
                return (x.conj().swapaxes(-1, -2) @ x) * self.scales
            g = x * self.scales
            return g @ g.conj().swapaxes(-1, -2)
        count = len(w)
        c = max(2, count)
        d, size = len(self.gram), self.links * c
        gram = self.gram[:, :, :size]
        if self.shared:
            rows, a = self.rows[:, :, :c], self.a[:, :, :c]
            np.multiply(x.transpose(2, 1, 0), self.sqrt_r[:, None], out=rows[:, :, :count])
            _upper_gram(rows, a, self.products[:, :, :c])
            np.multiply(a[:, :, None], self.scales, out=gram.reshape(d, d, self.links, c))
        else:
            rows = self.rows[:, :, :size].reshape(d, -1, self.links, c)
            np.multiply(x.transpose(1, 2, 0)[:, :, None], self.scales, out=rows[..., :count])
            products = self.products[:, :, :size].reshape(rows.shape)
            _upper_gram(rows, gram.reshape(d, d, self.links, c), products)
        return gram

    def __call__(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ln det(I + Gram), (links, count), and the Gram trace and
        squared Frobenius norm, (2, links, count), of the group's links on
        a block w of W."""
        count = len(w)
        gram = self.grams(w)
        if not self.small:
            moments = np.empty((2, self.links, count))
            return _logdet_cholesky(gram, moments), moments
        c = max(2, count)
        moments = np.empty((2, self.links, c))
        logdet = self.kernel(gram, moments.reshape(2, -1))
        return logdet.reshape(self.links, c)[:, :count], moments[:, :, :count]


def _column_weights(stats: Sequence[ChannelStatistics], k_eigs: Sequence[np.ndarray]) -> np.ndarray:
    """(rho/2M) k of each link, (links, M), given as equal-length
    sequences of stats and k_eigs. With W as sample_channel_block draws
    it, G = diag(sqrt(r)) W diag(sqrt((rho/2M) k)). Links that differ in
    M, a spectrum k without its link's M entries, or sequences of
    different lengths raise ValueError."""
    m = stats[0].num_tx
    if any(s.num_tx != m for s in stats):
        raise ValueError("all links must share the transmit antenna count")
    for i, k in enumerate(k_eigs):
        if np.shape(k) != (m,):
            raise ValueError(f"spectrum {i} has shape {np.shape(k)}, not the ({m},) of its link's M")
    return np.array([(s.snr / (2.0 * m)) * k for s, k in zip(stats, k_eigs, strict=True)])


def _sample(fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """Per-realization MI, Gram trace and squared Gram Frobenius norm of
    each link of fps, shape (links, 3, n), drawn in blocks from one
    generator seeded by seed. All links share every W; the links with
    the same N and r form one _Group."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not fps:
        return np.empty((0, 3, n))
    stats = [fp.stats for fp in fps]
    weights = _column_weights(stats, [fp.k_eigs for fp in fps])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    members = {}
    for i, s in enumerate(stats):
        members.setdefault((s.num_rx, s.r_eigs.tobytes()), []).append(i)
    size = min(n, _BLOCK_SIZE)
    groups = [(links, _Group(stats[links[0]], weights[links], size)) for links in members.values()]
    rows, m = max(s.num_rx for s in stats), stats[0].num_tx
    out = np.empty((len(fps), 3, n))
    for offset in range(0, n, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, n - offset)
        w = sample_channel_block(count, rows, m, rng)
        block = out[:, :, offset : offset + count]
        for links, group in groups:
            logdet, moments = group(w)
            block[links, 0] = logdet / m
            block[links, 1:] = moments.swapaxes(0, 1)
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

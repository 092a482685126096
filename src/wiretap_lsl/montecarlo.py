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
a batched Cholesky. Both kernels return log-dets only; the group reads
the control variates off the same Gram matrices, or off A.

Each link keeps its law, so the per-realization difference of a rate's
two MIs is unbiased, and its spread, not that of either MI, sets the
standard error. The control variates of a link are the first two terms
of the Taylor expansion of ln det(I + S) about S's mean diag(s0):
with D = S - diag(s0) and b = 1 / (1 + s0), L1 = sum b_i D_ii and
L2 = sum b_i b_j |D_ij|^2, so that ln det(I + S) is about
ln det(I + diag(s0)) + L1 - L2 / 2. The S_ii are independent weighted
sums of unit exponentials, so E L1 = 0, and Var L1 and E L2 have closed
forms for any spectra. Each link gives three columns of mean 0:
z = L1 / sd(L1), q = L2 / E L2 - 1 and z^2 - 1. The difference is
regressed on an intercept and both links' columns (Glasserman, Monte
Carlo Methods in Financial Engineering, 2004, ch. 4), cross-fitted: the
realizations fall into _FOLDS folds, and the slopes applied to each one
are fitted on the other folds. The estimate is the mean of the
difference less the variates times those slopes, unbiased at any fixed
count, as a fit that includes a realization's own draw is not: its
O(p/n) bias grows as the count shrinks. Its standard error, the
standard deviation of those terms over sqrt(n), is the spread of the
estimate across seeds; it is smaller than that of the plain paired mean
wherever the variates correlate with the difference.

n sets a precision, not a count: each rate aims at the standard error
that n unpaired realizations would give, sqrt((Var I_M + Var I_E) / n).
Its pilot, the first _PILOT_BLOCKS blocks, estimates both variances and
the cross-fitted one, and so the count that reaches that target, in
whole blocks and at most n; the rate then fits the first count
realizations of the stream. The point draws the largest count of its
rates. A rate's count and estimate depend on its own realizations only,
so where all links of a call have the same numbers of receive antennas,
as at a sweep point, each rate's estimate is, bit for bit, the one it
gets alone.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, sample_channel_block
from .detequiv import FixedPoint, LslRate

_BLOCK_SIZE = 256
# A rate's pilot, the blocks that size its sample (see mc_secrecy_rate).
_PILOT_BLOCKS = 2
# The regression's design: an intercept and three control variates per link.
_COLUMNS = 7
# The cross-fit's folds: realization i lies in fold i mod _FOLDS.
_FOLDS = 8
# Up to this many realizations the secrecy rate is the plain paired mean.
# Past it the fit of every fold, on the n - ceil(n / _FOLDS) realizations
# of the others, keeps at least 2 residual degrees of freedom: n = 11 is
# the first n with n - ceil(n / _FOLDS) >= _COLUMNS + 2.
_MIN_REGRESSION = 10
# Eigenvalues of a fold's Gram matrix at most this times its largest are
# cut: singular values of its design at most 1e-6 times the largest.
_RANK_CUT = 1e-12
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


def _logdet_cholesky(gram: np.ndarray) -> np.ndarray:
    """The log-det kernel: ln det(I + Gram) of each Gram matrix of a
    stack (..., d, d), by a batched Cholesky. The Gram matrices are not
    symmetrized first: the factorization reads one triangle and the real
    part of the diagonal. The stack is overwritten."""
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

    def __call__(self, gram: np.ndarray) -> np.ndarray:
        """ln det(I + Gram), (size,), of gram, which it overwrites."""
        d, size = gram.shape[1:]
        pivots = self.pivots[:, :size]
        for k in range(d):
            np.add(gram[k, k].real, 1.0, out=pivots[k])
            row = gram[k, k + 1 :]
            scaled = np.conjugate(row, out=self.scaled[: d - k - 1, :size])
            np.multiply(scaled, 1.0 / pivots[k], out=scaled)
            for j in range(k + 1, d):
                update = np.multiply(scaled[j - k - 1], row[j - k - 1 :], out=self.update[: d - j, :size])
                np.subtract(gram[j, j:], update, out=gram[j, j:])
        return np.log(pivots).sum(axis=0)


@functools.cache
def _upper_weights(d: int) -> np.ndarray:
    """(d, d): 1 on the diagonal, 2 above it and 0 below, the weights of
    |D_ij|^2 in L2 over the upper triangle of a Gram matrix."""
    return np.triu(np.full((d, d), 2.0), 1) + np.eye(d)


def _upper_gram(rows: np.ndarray, gram: np.ndarray, products: np.ndarray) -> None:
    """Write gram[i, j] = sum over axis 1 of conj(rows[i]) rows[j] for
    j >= i, one entry row at a time; products, of rows' shape, is work
    space. The lower triangle of gram is left as it is."""
    d = len(rows)
    for i in range(d):
        part = np.multiply(rows[i].conj(), rows[i:], out=products[: d - i])
        part.sum(axis=1, out=gram[i, i:])


class _Group:
    """The links of one _Sampler that share N and r, and the work
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
        # On the diagonal of a link's Gram matrix S, Gᴴ G where shared, else
        # G Gᴴ, S_ii = sum_j alpha_i beta_j |W_ij|^2, each |W_ij|^2 / 2 an
        # independent unit exponential: E S = diag(s0), and b = 1 / (1 + s0).
        alpha, beta = (weights, stats.r_eigs) if self.shared else (stats.r_eigs, weights)
        s0 = 2.0 * alpha * beta.sum(axis=-1, keepdims=True)
        b = 1.0 / (1.0 + s0)
        # Per link, (4, links, d): b alpha, o = b s0 and their squares,
        # summed over each link's row by one reduction.
        parts = np.empty((4, links, d))
        np.multiply(b, alpha, out=parts[0])
        np.multiply(b, s0, out=parts[1])
        np.square(parts[:2], out=parts[2:])
        ba_sum, o_sum, ba_sq, o_sq = parts.sum(axis=-1)
        # The laws of L1 and L2: E L1 = 0, Var L1 = 4 sum(beta^2)
        # sum((b alpha)^2) and E L2 = 4 sum(beta^2) (sum(b alpha))^2.
        beta_sq = 4.0 * (beta * beta).sum(axis=-1)
        self.spread = np.sqrt(beta_sq * ba_sq)
        self.mean = beta_sq * ba_sum**2
        # The moments read A where shared, whose S_ij is A_ij sqrt(alpha_i
        # alpha_j), else the Gram matrices. With x_i = source_ii, o = b s0
        # and v = b alpha where shared, else b, b_i D_ii = v_i x_i - o_i:
        # L1 = sum(v x) - sum(o), and L2 = sum(v^2 x^2) - 2 sum(v o x) +
        # sum(o^2) plus 2 v_i v_j |source_ij|^2 over the upper triangle.
        # Over its law each is a constant plus a weighted sum of
        # [|source|^2; x], (d + 1, d, c), whose weights are the link's
        # terms: L1's on the last row only.
        v, o = (parts[0] if self.shared else b), parts[1]
        # Both moments are identically 0 where E L2 = 0: at rho = 0, or
        # where r or k is 0. Their variates are then 0 too, and the
        # reciprocals of both laws, (2, links, 1), are taken as 0.
        live = self.mean > 0.0
        inv_spread, inv_mean = (live / (np.array([self.spread, self.mean]) + ~live))[:, :, None]
        self.terms = np.zeros((links, 2, d + 1, d))
        np.multiply(v, inv_spread, out=self.terms[:, 0, d])
        np.multiply((v * inv_mean)[:, :, None] * v[:, None, :], _upper_weights(d), out=self.terms[:, 1, :d])
        np.multiply(-2.0 * v * o, inv_mean, out=self.terms[:, 1, d])
        self.live = live.astype(float)[:, None]
        self.constants = np.array([-o_sum * inv_spread[:, 0], o_sq * inv_mean[:, 0] - self.live[:, 0]])[:, :, None]
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
        it the full matrices, (links, count, d, d). Where shared, self.a
        holds A."""
        x = w[:, : self.n]
        if not self.small:
            if self.shared:
                x = x * self.sqrt_r[:, None]
                self.a = x.conj().swapaxes(-1, -2) @ x
                return self.a * self.scales
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

    def variates(self, source: np.ndarray) -> np.ndarray:
        """The control variates z = L1 / sd(L1), q = L2 / E L2 - 1 and
        z^2 - 1 of each link, (3, links, c), from the upper triangles of
        source, (d, d, 1, c) A where shared, else (d, d, links, c) the
        Gram matrices. Each has mean 0. Each link takes one einsum call,
        whose shapes do not depend on the number of links."""
        d = len(source)
        parts = np.empty((d + 1,) + source.shape[1:])
        np.square(source.real, out=parts[:d])
        parts[:d] += np.square(source.imag)
        parts[d] = np.einsum("ii...->i...", source).real
        variates = np.empty((3, self.links, source.shape[-1]))
        for link in range(self.links):
            variates[:2, link] = np.einsum("tik,ikc->tc", self.terms[link], parts[:, :, 0 if self.shared else link])
        variates[:2] += self.constants
        np.multiply(variates[0], variates[0], out=variates[2])
        variates[2] -= self.live
        return variates

    def __call__(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ln det(I + Gram), (links, count), and the control variates,
        (3, links, count), of the group's links on a block w of W."""
        count = len(w)
        gram = self.grams(w)
        if not self.small:
            variates = self.variates(np.moveaxis(self.a[None] if self.shared else gram, (-2, -1), (0, 1)))
            return _logdet_cholesky(gram), variates
        c = max(2, count)
        source = self.a[:, :, None, :c] if self.shared else gram.reshape(len(gram), -1, self.links, c)
        variates = self.variates(source)
        logdet = self.kernel(gram)
        return logdet.reshape(self.links, c)[:, :count], variates[:, :, :count]


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


class _Sampler:
    """Per-realization MI and the three control variates (see
    _Group.variates) of each link of fps, shape (links, 4, n), drawn in
    blocks from one generator seeded by seed, as far as asked. All links
    share every W; the links with the same N and r form one _Group. The
    realizations are written into one array, allocated for n and filled
    from the start."""

    def __init__(self, fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.out = np.empty((len(fps), 4, n))
        self.drawn = 0 if fps else n
        if not fps:
            return
        stats = [fp.stats for fp in fps]
        weights = _column_weights(stats, [fp.k_eigs for fp in fps])
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        members = {}
        for i, s in enumerate(stats):
            members.setdefault((s.num_rx, s.r_eigs.tobytes()), []).append(i)
        size = min(n, _BLOCK_SIZE)
        self.groups = [(links, _Group(stats[links[0]], weights[links], size)) for links in members.values()]
        self.rows, self.m = max(s.num_rx for s in stats), stats[0].num_tx

    def draw(self, count: int) -> np.ndarray:
        """The first count realizations, (links, 4, count), drawing the
        blocks not drawn yet; count is n or ends a block."""
        n = self.out.shape[-1]
        while self.drawn < count:
            size = min(_BLOCK_SIZE, n - self.drawn)
            w = sample_channel_block(size, self.rows, self.m, self.rng)
            block = self.out[:, :, self.drawn : self.drawn + size]
            for links, group in self.groups:
                logdet, variates = group(w)
                block[links, 0] = logdet / self.m
                block[links, 1:] = variates.swapaxes(0, 1)
            self.drawn += size
        return self.out[:, :, :count]


def _sample(fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """All n realizations of _Sampler(fps, n, seed), (links, 4, n)."""
    return _Sampler(fps, n, seed).draw(n)


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


def _cross_fit(sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cross-fitted control-variate estimates of rates from their
    links' sample, shape (rates, 2, 4, n): main link, then eavesdropper.
    Returns each rate's estimate, unclamped, and the variance of its
    per-realization terms, both (rates,); the standard error is the root
    of that variance over n.

    Realization i lies in fold i mod _FOLDS. Each fold's slopes come from
    the least-squares fit of the difference, centred on its mean, on an
    intercept and both links' variates over the other folds, so that no
    realization's own draw enters the coefficients applied to it; the
    terms are the differences less the variates times those slopes. Each
    fold's normal equations are the Gram sums of [design, difference]
    over all folds less its own, one stacked matmul and one stacked eigh
    for all rates and folds; eigenvalues at most _RANK_CUT times the
    largest are cut, so degenerate columns take the minimum-norm
    coefficients. Every step's shapes per rate do not depend on the
    number of rates. Up to _MIN_REGRESSION realizations the terms are the
    plain paired differences."""
    rates, n = len(sample), sample.shape[-1]
    diff = sample[:, 0, 0] - sample[:, 1, 0]
    if n <= _MIN_REGRESSION:
        return diff.mean(axis=-1), (diff.var(axis=-1, ddof=1) if n > 1 else np.zeros(rates))
    # [intercept, variates, centred difference] by rounds of the folds,
    # padded with zero realizations to a whole round, which add nothing
    # to any Gram sum: (rates, columns, rounds, folds).
    rounds = -(-n // _FOLDS)
    system = np.zeros((rates, _COLUMNS + 1, rounds * _FOLDS))
    system[:, 0, :n] = 1.0
    system[:, 1:_COLUMNS, :n] = sample[:, :, 1:].reshape(rates, -1, n)
    centre = diff.mean(axis=-1)
    np.subtract(diff, centre[:, None], out=system[:, _COLUMNS, :n])
    folds = np.ascontiguousarray(system.reshape(rates, _COLUMNS + 1, rounds, _FOLDS).transpose(0, 3, 1, 2))
    grams = folds @ folds.swapaxes(-1, -2)
    held_out = grams.sum(axis=1, keepdims=True) - grams
    lam, vec = np.linalg.eigh(held_out[..., :_COLUMNS, :_COLUMNS])
    along = (vec * held_out[..., :_COLUMNS, _COLUMNS, None]).sum(axis=-2)
    keep = lam > _RANK_CUT * lam[..., -1:]
    coef = (vec * np.divide(along, lam, out=np.zeros_like(lam), where=keep)[..., None, :]).sum(axis=-1)
    terms = folds[:, :, _COLUMNS] - (coef[..., 1:, None] * folds[:, :, 1:_COLUMNS]).sum(axis=-2)
    terms = terms.swapaxes(1, 2).reshape(rates, -1)[:, :n]
    return centre + terms.mean(axis=-1), terms.var(axis=-1, ddof=1)


def mc_secrecy_rate(rates: Sequence[LslRate], n: int, seed: int | tuple[int, ...]) -> list[McEstimate]:
    """Clamped Monte Carlo estimates, one per rate, of the difference of
    the mean MIs of the rate's two links, each at the standard error that
    n unpaired realizations would give.

    Both links see the same W each realization (common random numbers),
    so identical statistics yield an exact zero. The per-realization
    difference is regressed on an intercept and both links' three control
    variates z, q and z^2 - 1 (see the module docstring), each
    standardized by its closed-form law, with coefficients cross-fitted
    over _FOLDS folds (see _cross_fit); the estimate is the mean of the
    difference less the variates' fitted part. A link whose variates are
    identically zero, as at rho = 0, gets coefficients 0. Up to
    _MIN_REGRESSION realizations the plain paired mean is used. The clamp
    is applied to the estimate, never per realization.

    Each rate's pilot is the first _PILOT_BLOCKS blocks, or all n if that
    is fewer. The pilot's variances of the two MIs give the target
    standard error, sqrt((Var I_M + Var I_E) / n), and its cross-fitted
    variance the count that reaches it: n times their ratio, rounded up
    to whole blocks and clipped to [pilot, n]. A rate's estimate is the
    fit of its first count realizations: the pilot's fit, or a refit of
    all count. The point draws the largest count. Where no variance is
    seen, as at rho = 0, the count is the pilot.

    All rates share every W, so they must share M, and each link's
    k_eigs must hold M eigenvalues (else ValueError); each rate keeps
    its own law, its own count and its own regression. Where all their
    links have the same numbers of receive antennas, as the rates of one
    sweep point do, each estimate equals that of its rate alone, bit for
    bit. No rates give no estimates.
    """
    sampler = _Sampler([fp for rate in rates for fp in (rate.fp_main, rate.fp_eave)], n, seed)
    if not rates:
        return []
    pilot = min(n, _PILOT_BLOCKS * _BLOCK_SIZE)
    sample = sampler.draw(pilot).reshape(len(rates), 2, 4, pilot)
    means, variances = _cross_fit(sample)
    counts = np.full(len(rates), pilot)
    if pilot < n:
        spread = sample[:, :, 0].var(axis=-1, ddof=1).sum(axis=-1)
        ratio = np.divide(variances, spread, out=np.zeros_like(spread), where=spread > 0.0)
        counts = np.clip(np.ceil(n * ratio / _BLOCK_SIZE).astype(int) * _BLOCK_SIZE, pilot, n)
    sample = sampler.draw(int(counts.max())).reshape(len(rates), 2, 4, -1)
    estimates = []
    for i, count in enumerate(counts.tolist()):
        mean, variance = means[i], variances[i]
        if count > pilot:
            (mean,), (variance,) = _cross_fit(sample[i : i + 1, ..., :count])
        estimates.append(McEstimate(max(0.0, float(mean)), float(np.sqrt(variance / count)), count))
    return estimates

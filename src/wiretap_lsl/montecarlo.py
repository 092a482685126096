"""Seeded Monte Carlo estimation of ergodic rates.

The ground truth against which every deterministic-equivalent value is
validated. Each estimate draws from one generator, seeded by the
caller, in blocks of 256 realizations taken in order, so a seed gives
the same estimate every time and the first k full blocks do not depend
on n. Each block draws all real parts of W, then all imaginary parts.
mc_secrecy_rate takes a sequence of rates and returns the list of
their estimates; a sweep makes one call per chunk of grid points,
seeded by its seed alone, for the rates of every strategy at every
point of the chunk.

W is unitarily invariant, so a link at a precoder P enters only through
its N (R = I) and the eigenvalues k of K = T^(1/2) P T^(1/2), with
eigenvectors Q_K, held by the FixedPoint solved at P: this module never
sees P and makes no eigendecomposition. For the Kronecker channel
H = sqrt(rho/M) W T^(1/2), H P Hᴴ = G Gᴴ with
G = sqrt(rho/M) W' diag(sqrt(k)), where W' = W Q_K has the law of W; so
ln det(I + G Gᴴ) has the law of ln det(I + H P Hᴴ). Per block each link
costs ln det(I + Gram) of its Gram matrix in the smaller of N and M.
Blocks bound the memory: drawing all n realizations at once would
allocate n * N * M complex values per array.

Every link of every rate in a call shares each block's W, drawn once by
sample_channel_block, unscaled, with as many rows as the caller asks,
by default those of the tallest link; each link reads W's first N rows.
The links that share N form a group, whose Gram matrices are built once
per block. Where N >= M a link's Gram matrix is Gᴴ G = diag(s) A
diag(s), with A = Wᴴ W over W's first N rows and s = sqrt((rho/2M) k),
whose 1/2 undoes the variance 2 of W's entries as drawn: the group
forms A once and scales it per link, and no tall link's channel is ever
built. Where N < M each link scales its rows of W into G and builds
G Gᴴ. A group's links run in tiles of up to _TILE links, which bound
the kernels' arrays whatever the number of links. At every Gram order
the batch stays on the last axis, and one vectorized operation per
entry row builds the Gram matrices and eliminates them, in work arrays
that every group of a call shares. The kernel returns log-dets only;
the group reads the control variates off the same Gram matrices, or
off A.

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
realizations of the stream. Each block past the pilot computes only
the links of the rates whose count it has not reached. A link's
realizations depend on W and its own statistics only, whatever the
other links of its group and tile, so each rate's count and estimate
are, bit for bit, those it gets alone from the same seed and rows of W.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, sample_channel_block
from .detequiv import FixedPoint, LslRate, shared_num_tx
from .errors import NUMERICAL_FAILURES, as_value

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
# Links per kernel call, and rates per pilot tile and stacked fit. The MC
# calls of a fig2-fig5 pass at seed 0, one per preset, on a 2-core Xeon
# with one BLAS thread (medians of 16 interleaved passes, two runs) took
# 197-208 ms at 3, 183-189 at 4, 164-169 at 6, 160-162 at 8 and 152-154
# at 12. The traced peak of fig2's sweep, the largest, was 3.30, 3.61,
# 4.23, 4.94 and 6.47 MB; TestSweepWork holds it to 5.43 MB.
_TILE = 6


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n realizations."""

    mean: float
    std_error: float
    num_realizations: int


class _Eliminator:
    """The log-det kernel: ln det(I + Gram) of each of a stack of d x d
    Gram matrices held batch-last, (d, d, size), so that each step is one
    vectorized operation over all matrices. Only the upper triangle is
    read, and the lower must be 0.

    Gaussian elimination takes ln det(I + Gram) as the sum of the logs of
    its pivots. I + Gram is Hermitian positive definite with a unit lower
    bound, so every pivot is at least 1 and no pivoting is needed. Each
    pivot row is scaled by the pivot's reciprocal: numpy divides a complex
    value by a real one as its product with the reciprocal, so the bits
    are those of the division, at less than half its cost.

    The work arrays are allocated once, for the order and size given, and
    a stack of a smaller order or size uses their leading rows and columns.
    """

    def __init__(self, d: int, size: int):
        self.pivots = np.empty((d, size))
        self.scaled = np.empty((d, size), dtype=complex)
        self.update = np.empty((d, size), dtype=complex)

    def __call__(self, gram: np.ndarray) -> np.ndarray:
        """ln det(I + Gram), (size,), of gram, which it overwrites."""
        d, size = gram.shape[1:]
        pivots = self.pivots[:d, :size]
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


class _Work:
    """The work arrays of the groups, shared by every group of a sampler
    and reused by every block, for blocks of up to cols realizations.

    Fresh arrays for every block page-faulted on each call and took twice
    the time; a set per group would grow with the number of groups, one
    per N_E in fig4's sweep. So one set serves all: the Gram matrices of a
    tile of order d take the leading d x d entries of gram, whose lower
    triangles are never written and stay 0, and the rows of a tile or of
    A take the leading part of rows and products, viewed in the tile's
    own shape. Every step works on two realizations per link at least:
    numpy sums a lone column pairwise but several in sequence, so a block
    of one realization would differ in its last bits from the same
    realization in a larger block. The padding column holds zeros or the
    rows of an earlier tile, so its Gram matrices, which are rebuilt with
    every tile, stay valid; its results are dropped.
    """

    def __init__(self, m: int, cols: int, groups: Sequence[tuple[int, int]]):
        """groups holds (N, links) of every group the arrays serve."""
        d = max(min(n, m) for n, _ in groups)
        width = cols * max(min(links, _TILE) for _, links in groups)
        rows = max(m * n * cols if n >= m else n * m * min(links, _TILE) * cols for n, links in groups)
        self.cols = cols
        self.gram = np.zeros((d, d, width), dtype=complex)
        self.kernel = _Eliminator(d, width)
        self.rows = np.zeros(rows, dtype=complex)
        self.products = np.empty(rows, dtype=complex)
        self.a = np.zeros((m, m, cols), dtype=complex) if any(n >= m for n, _ in groups) else None


class _Group:
    """The links of one _Sampler that share N: their laws, their scales,
    and their kernels, which run in tiles of up to _TILE links."""

    def __init__(self, stats: ChannelStatistics, weights: np.ndarray, size: int, work: _Work | None = None):
        """stats is any link of the group, whose N and M it reads;
        weights, (links, M), holds each link's (rho/2M) k. Blocks hold up
        to size realizations. The group computes in work, or in arrays of
        its own if none is given."""
        n, m = stats.num_rx, stats.num_tx
        links, d = len(weights), min(n, m)
        self.n, self.m, self.d, self.links = n, m, d, links
        self.shared = n >= m
        # On the diagonal of a link's Gram matrix S, Gᴴ G where shared, else
        # G Gᴴ, S_ii = sum_j alpha_i beta_j |W_ij|^2, each |W_ij|^2 / 2 an
        # independent unit exponential: E S = diag(s0), and b = 1 / (1 + s0).
        # The receive side's weights are ones (R = I).
        alpha, beta = (weights, np.ones(n)) if self.shared else (np.ones(n), weights)
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
        # where k is 0. Their variates are then 0 too, and the
        # reciprocals of both laws, (2, links, 1), are taken as 0.
        live = self.mean > 0.0
        inv_spread, inv_mean = (live / (np.array([self.spread, self.mean]) + ~live))[:, :, None]
        self.terms = np.zeros((links, 2, d + 1, d))
        np.multiply(v, inv_spread, out=self.terms[:, 0, d])
        np.multiply((v * inv_mean)[:, :, None] * v[:, None, :], _upper_weights(d), out=self.terms[:, 1, :d])
        np.multiply(-2.0 * v * o, inv_mean, out=self.terms[:, 1, d])
        self.live = live.astype(float)[:, None]
        self.constants = np.array([-o_sum * inv_spread[:, 0], o_sq * inv_mean[:, 0] - self.live[:, 0]])[:, :, None]
        s = np.sqrt(weights)
        scales = s[:, :, None] * s[:, None, :] if self.shared else s[:, None, :]
        # Laid out to broadcast against the block: (M or 1, M, links, 1).
        self.scales = np.ascontiguousarray(scales.transpose(1, 2, 0))[..., None]
        self.work = work if work is not None else _Work(m, max(2, size), [(n, links)])

    def source(self, w: np.ndarray) -> np.ndarray:
        """What every link of the group reads of a block w of W, (count,
        rows, M): where shared, A = Wᴴ W over W's first N rows, formed
        once for all links, as upper triangles batch-last, (M, M, c), in
        the work arrays; else W's first N rows."""
        x = w[:, : self.n]
        if not self.shared:
            return x
        count, (m, n, cols) = len(w), (self.m, self.n, self.work.cols)
        c = max(2, count)
        rows = self.work.rows[: m * n * cols].reshape(m, n, cols)[:, :, :c]
        products = self.work.products[: m * n * cols].reshape(m, n, cols)[:, :, :c]
        a = self.work.a[:, :, :c]
        np.copyto(rows[:, :, :count], x.transpose(2, 1, 0))
        _upper_gram(rows, a, products)
        return a

    def grams(self, source: np.ndarray, tile: np.ndarray, count: int) -> np.ndarray:
        """The Gram matrices of the group's links tile, indices into its
        links, on a block of count realizations whose source is given:
        their upper triangles batch-last, (d, d, tile * c) with c = max(2,
        count) realizations per link and the lower triangles 0; where
        N < M they are the conjugates of G Gᴴ, with the same determinant
        and moments."""
        scales = self.scales[:, :, tile]
        d, c, links = self.d, max(2, count), len(tile)
        gram = self.work.gram[:d, :d, : links * c]
        if self.shared:
            np.multiply(source[:, :, None], scales, out=gram.reshape(d, d, links, c))
            return gram
        size = self.n * self.m * links * c
        rows = self.work.rows[:size].reshape(d, self.m, links, c)
        np.multiply(source.transpose(1, 2, 0)[:, :, None], scales, out=rows[..., :count])
        _upper_gram(rows, gram.reshape(d, d, links, c), self.work.products[:size].reshape(rows.shape))
        return gram

    def parts(self, source: np.ndarray) -> np.ndarray:
        """[|source_ij|^2; source_ii], (d + 1, d, ..., c), what the
        variates read of source, (d, d, ..., c): A where shared, else the
        Gram matrices."""
        d = len(source)
        parts = np.empty((d + 1,) + source.shape[1:])
        np.square(source.real, out=parts[:d])
        parts[:d] += np.square(source.imag)
        parts[d] = np.einsum("ii...->i...", source).real
        return parts

    def variates(self, parts: np.ndarray, tile: np.ndarray) -> np.ndarray:
        """The control variates z = L1 / sd(L1), q = L2 / E L2 - 1 and
        z^2 - 1 of the links tile, (3, tile, c), from parts of A where
        shared, (d + 1, d, 1, c), else of the tile's Gram matrices, (d + 1,
        d, tile, c). Each has mean 0. Each link takes one einsum call,
        whose shapes do not depend on the number of links."""
        variates = np.empty((3, len(tile), parts.shape[-1]))
        for j, link in enumerate(tile):
            variates[:2, j] = np.einsum("tik,ikc->tc", self.terms[link], parts[:, :, 0 if self.shared else j])
        variates[:2] += self.constants[:, tile]
        np.multiply(variates[0], variates[0], out=variates[2])
        variates[2] -= self.live[tile]
        return variates

    def __call__(
        self,
        w: np.ndarray,
        links: np.ndarray | None = None,
        out: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        source: np.ndarray | None = None,
    ) -> np.ndarray:
        """The MI ln det(I + Gram) / M and the three control variates of
        the group's links, indices into them, all by default, on a block w
        of W, (4, count) per link, written to out's rows rows, by default
        to a new (links, 4, count) array in order. source is what
        self.source(w) returns, formed here if not given."""
        count = len(w)
        links = np.arange(self.links) if links is None else links
        rows = np.arange(len(links)) if rows is None else rows
        out = np.empty((len(links), 4, count)) if out is None else out
        source = self.source(w) if source is None else source
        c = max(2, count)
        if self.shared:
            parts = self.parts(source[:, :, None])
        for first in range(0, len(links), _TILE):
            tile, at = links[first : first + _TILE], rows[first : first + _TILE]
            gram = self.grams(source, tile, count)
            if not self.shared:
                parts = self.parts(gram.reshape(self.d, self.d, len(tile), c))
            variates = self.variates(parts, tile)
            logdet = self.work.kernel(gram).reshape(len(tile), c)[:, :count]
            out[at, 0] = logdet / self.m
            out[at, 1:] = variates[:, :, :count].swapaxes(0, 1)
        return out


def _column_weights(stats: Sequence[ChannelStatistics], k_eigs: Sequence[np.ndarray]) -> np.ndarray:
    """(rho/2M) k of each link, (links, M), given as equal-length
    sequences of stats and k_eigs. With W as sample_channel_block draws
    it, G = W diag(sqrt((rho/2M) k)) over W's first N rows. Links that
    differ in M or a spectrum k without its link's M entries
    (detequiv.shared_num_tx), or sequences of different lengths, raise
    ValueError."""
    m = shared_num_tx(stats, k_eigs)
    return np.array([(s.snr / (2.0 * m)) * k for s, k in zip(stats, k_eigs, strict=True)])


class _Sampler:
    """The blocks of W, drawn in order from one generator seeded by seed
    with rows rows, by default the tallest link's, and on each the
    per-realization MI and the three control variates (see
    _Group.variates) of any links of fps. The links with the same N form
    one _Group; all groups share one _Work."""

    def __init__(self, fps: Sequence[FixedPoint], size: int, seed: int | tuple[int, ...], rows: int | None = None):
        """Blocks hold up to size realizations."""
        stats = [fp.stats for fp in fps]
        weights = _column_weights(stats, [fp.k_eigs for fp in fps])
        tallest = max(s.num_rx for s in stats)
        if rows is not None and rows < tallest:
            raise ValueError(f"W needs at least the {tallest} rows of the tallest link, not {rows}")
        self.rows, self.m = tallest if rows is None else rows, stats[0].num_tx
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        members = {}
        for i, s in enumerate(stats):
            members.setdefault(s.num_rx, []).append(i)
        work = _Work(self.m, max(2, size), [(n, len(links)) for n, links in members.items()])
        self.links = len(fps)
        self.groups = [
            (np.array(links), _Group(stats[links[0]], weights[links], size, work)) for links in members.values()
        ]

    def draw(self, size: int) -> np.ndarray:
        """The next block of size realizations of W."""
        return sample_channel_block(size, self.rows, self.m, self.rng)

    def compute(
        self, w: np.ndarray, out: np.ndarray, links: np.ndarray | None = None, sources: dict | None = None
    ) -> dict[int, Exception]:
        """Write the realizations of links, indices into fps, all by
        default, on the block w, to out, (links, 4, count), in that order.
        Each group with links among them forms its source of w once for
        all of them; given sources, a dict kept with w, the source of each
        group that forms A is kept there for later calls on the same w.
        Returns the numerical failure of each link whose kernel failed on
        its own, by index: a tile that fails is run again link by link."""
        row = np.arange(self.links) if links is None else np.full(self.links, -1)
        if links is not None:
            row[links] = np.arange(len(links))
        failures = {}
        for index, (members, group) in enumerate(self.groups):
            chosen = np.flatnonzero(row[members] >= 0)
            if not len(chosen):
                continue
            source = None
            if sources is not None and group.shared:
                source = sources.get(index)
                if source is None:
                    # A group forms A in the work arrays, which the next
                    # group's source overwrites.
                    source = sources[index] = group.source(w).copy()
            try:
                group(w, chosen, out, row[members[chosen]], source)
            except NUMERICAL_FAILURES:
                for link in chosen:
                    try:
                        group(w, link[None], out, row[members[link, None]], source)
                    except NUMERICAL_FAILURES as exc:
                        failures[int(members[link])] = as_value(exc)
        return failures


def _sample(fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """All n realizations of every link of fps, (links, 4, n), from one
    _Sampler; a kernel's failure is raised."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = _Sampler(fps, min(n, _BLOCK_SIZE), seed)
    out = np.empty((len(fps), 4, n))
    for start in range(0, n, _BLOCK_SIZE):
        w = sampler.draw(min(_BLOCK_SIZE, n - start))
        for exc in sampler.compute(w, out[:, :, start : start + len(w)]).values():
            raise exc
    return out


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
    for link, first in enumerate(range(1, _COLUMNS, 3)):
        system[:, first : first + 3, :n] = sample[:, link, 1:]
    centre = diff.mean(axis=-1)
    np.subtract(diff, centre[:, None], out=system[:, _COLUMNS, :n])
    folds = np.ascontiguousarray(system.reshape(rates, _COLUMNS + 1, rounds, _FOLDS).transpose(0, 3, 1, 2))
    del system
    grams = folds @ folds.swapaxes(-1, -2)
    held_out = grams.sum(axis=1, keepdims=True) - grams
    lam, vec = np.linalg.eigh(held_out[..., :_COLUMNS, :_COLUMNS])
    along = (vec * held_out[..., :_COLUMNS, _COLUMNS, None]).sum(axis=-2)
    keep = lam > _RANK_CUT * lam[..., -1:]
    coef = (vec * np.divide(along, lam, out=np.zeros_like(lam), where=keep)[..., None, :]).sum(axis=-1)
    terms = folds[:, :, _COLUMNS] - (coef[..., 1:, None] * folds[:, :, 1:_COLUMNS]).sum(axis=-2)
    terms = terms.swapaxes(1, 2).reshape(rates, -1)[:, :n]
    return centre + terms.mean(axis=-1), terms.var(axis=-1, ddof=1)


def _fits(sample: np.ndarray) -> list:
    """(estimate, variance) of each rate of sample, as _cross_fit gives
    them, or the numerical failure of its fit: if the stacked fit fails,
    the rates are fitted one at a time, so that the failure stays with
    its rate."""
    try:
        return list(zip(*_cross_fit(sample)))
    except NUMERICAL_FAILURES as exc:
        if len(sample) == 1:
            return [as_value(exc)]
        return [fit for i in range(len(sample)) for fit in _fits(sample[i : i + 1])]


def _fail(results: list, failures: dict[int, Exception]) -> None:
    """Give each rate of results, whose links are 2 i and 2 i + 1, the
    first failure of its links, unless it has a result."""
    for link, exc in failures.items():
        if results[link // 2] is None:
            results[link // 2] = exc


def _pilots(sampler: _Sampler, n: int, results: list) -> dict[int, tuple[int, list[np.ndarray]]]:
    """Draw the pilot's blocks, sample every rate's pilot on them and fit
    it, _TILE rates at a time, and size its count (see mc_secrecy_rate).
    The blocks are kept until every tile has read them, and so is each
    group's A of each block, formed once. A rate whose kernel or fit
    fails gets the failure in results, and a rate whose count is the
    pilot its estimate. Returns the other rates, by index, with their
    counts and their realizations so far: a copy of the pilot's, to which
    each later block's are appended, which one array would hold at the
    count's full size from the start."""
    pilot = min(n, _PILOT_BLOCKS * _BLOCK_SIZE)
    blocks = [sampler.draw(min(_BLOCK_SIZE, pilot - start)) for start in range(0, pilot, _BLOCK_SIZE)]
    sources = [{} for _ in blocks]
    pending = {}
    for first in range(0, len(results), _TILE):
        tile = range(first, min(first + _TILE, len(results)))
        sample = np.empty((len(tile), 2, 4, pilot))
        for start, w, kept in zip(range(0, pilot, _BLOCK_SIZE), blocks, sources):
            out = sample.reshape(-1, 4, pilot)[:, :, start : start + len(w)]
            _fail(results, sampler.compute(w, out, np.arange(2 * tile.start, 2 * tile.stop), kept))
        live = [j for j, i in enumerate(tile) if results[i] is None]
        if not live:
            continue
        if len(live) < len(tile):
            sample = sample[live]
        fits = _fits(sample)
        counts = [pilot] * len(live)
        if pilot < n:
            spread = sample[:, :, 0].var(axis=-1, ddof=1).sum(axis=-1)
            variances = np.array([0.0 if isinstance(fit, Exception) else fit[1] for fit in fits])
            ratio = np.divide(variances, spread, out=np.zeros_like(spread), where=spread > 0.0)
            counts = np.clip(np.ceil(n * ratio / _BLOCK_SIZE).astype(int) * _BLOCK_SIZE, pilot, n).tolist()
        for j, fit, count, realizations in zip(live, fits, counts, sample):
            if isinstance(fit, Exception) or count == pilot:
                results[tile[j]] = fit if isinstance(fit, Exception) else _estimate(*fit, count)
            else:
                pending[tile[j]] = count, [realizations.copy()]
    return pending


def mc_secrecy_rate(
    rates: Sequence[LslRate], n: int, seed: int | tuple[int, ...], rows: int | None = None
) -> list[McEstimate | Exception]:
    """Clamped Monte Carlo estimates, one per rate, of the difference of
    the mean MIs of the rate's two links, each at the standard error that
    n unpaired realizations would give; a rate whose estimate fails
    numerically gets that failure in its place.

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
    all count. The pilots are sampled and fitted _TILE rates at a time on
    the pilot's blocks, kept until every tile has read them. The call
    draws the blocks of the largest count, and each block past the pilot
    computes the links of the rates still short of their count only.
    Where no variance is seen, as at rho = 0, the count is the pilot.

    All rates share every W, so a call is one M: the links of all rates
    must share M, and each link's k_eigs must hold M eigenvalues (else
    ValueError, see detequiv.shared_num_tx). W has rows rows,
    by default those of the tallest link of any rate, and at least
    those (else ValueError); each link reads W's first N rows. Each rate
    keeps its own law, its own count and its own regression, so its
    estimate equals, bit for bit, the one it gets alone from the same
    seed and rows: a rate alone, with rows left out, reads a W as tall
    as its taller link. No rates give no estimates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not rates:
        return []
    sampler = _Sampler([fp for rate in rates for fp in (rate.fp_main, rate.fp_eave)], min(n, _BLOCK_SIZE), seed, rows)
    results: list = [None] * len(rates)
    pending = _pilots(sampler, n, results)
    drawn = min(n, _PILOT_BLOCKS * _BLOCK_SIZE)
    while pending:
        w = sampler.draw(min(_BLOCK_SIZE, n - drawn))
        drawn += len(w)
        block = np.empty((2 * len(pending), 4, len(w)))
        _fail(results, sampler.compute(w, block, np.array([link for i in pending for link in (2 * i, 2 * i + 1)])))
        for j, (i, (count, realizations)) in enumerate(list(pending.items())):
            if results[i] is None:
                realizations.append(block[2 * j : 2 * j + 2].copy())
                if count > drawn:
                    continue
                (fit,) = _fits(np.concatenate(realizations, axis=-1)[None])
                results[i] = fit if isinstance(fit, Exception) else _estimate(*fit, count)
            del pending[i]
    return results


def _estimate(mean: float, variance: float, count: int) -> McEstimate:
    """A rate's estimate from its fit over count realizations, clamped at 0."""
    return McEstimate(max(0.0, float(mean)), float(np.sqrt(variance / count)), count)

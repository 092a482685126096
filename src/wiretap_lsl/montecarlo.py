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

A rate keeps sums, not realizations: per fold, the Gram sums of
[1, variates, difference - shift], 8 x 8 floats, where the shift is the
pilot's mean difference. The sums of the other folds are a fold's
normal equations, and its own give the sums of its terms and of their
squares, so the estimate and its standard error need nothing else
(_cross_fit), and a rate's memory does not grow with its count.

n sets a precision, not a count: each rate aims at the standard error
that n unpaired realizations would give, sqrt((Var I_M + Var I_E) / n).
Its pilot, the first _PILOT_BLOCKS blocks, estimates both variances and
the cross-fitted one, and so the count that reaches that target, in
whole blocks and at most n; the rate's estimate is the fit of the first
count realizations of the stream. Each block past the pilot computes
only the links of the rates whose count it has not reached and adds
their sums. A call fits the pilots of all its rates at once, and then
all the rates past the pilot at once. A link's realizations depend on W
and its own statistics only, whatever the other links of its group and
tile, and a rate's fit depends on its own sums only, so each rate's
count and estimate are, bit for bit, those it gets alone from the same
seed and rows of W.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, is_integer, sample_channel_block
from .detequiv import FixedPoint, LslRate, shared_num_tx
from .errors import NUMERICAL_FAILURES, NonFiniteSample, as_value

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
# A column of a fold's fit whose pivot, the squared norm of its part
# outside the columns kept before it, is at most this times its own
# squared norm is cut: a residual at most 1e-6 of the column.
_RANK_CUT = 1e-12
# Links per kernel call, and rates per pilot tile. The MC calls of a
# fig2-fig5 pass at seed 0, one per preset, on a 2-core Xeon with one
# BLAS thread (medians of 16 interleaved passes, two runs) took 81-83 ms
# at 3, 77 at 4, 68-71 at 6, 68-69 at 8 and 65-72 at 12. The traced
# peak of fig2's sweep was 2.40, 2.72, 3.44, 4.25 and 5.87 MB;
# TestSweepWork holds it to 5.43 MB.
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
        d, tile, c). Each has mean 0. The tile takes one einsum call,
        which sums each link's products in the same order whatever the
        tile's size."""
        variates = np.empty((3, len(tile), parts.shape[-1]))
        if self.shared:
            np.einsum("ltik,ikc->tlc", self.terms[tile], parts[:, :, 0], out=variates[:2])
        else:
            np.einsum("ltik,iklc->tlc", self.terms[tile], parts, out=variates[:2])
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


def _check_draws(n: int, seed: int | tuple[int, ...]) -> None:
    """Check a call's realization count n, an integer >= 1, and its seed,
    an integer or a tuple of them. A wrong type raises TypeError, and
    n < 1 raises ValueError, as SeedSequence does for a negative seed.
    None would seed from fresh OS entropy, so that a seeded estimate
    changed from call to call, and a Generator would be consumed by the
    links in turn."""
    if not is_integer(n):
        raise TypeError(f"n must be an integer, not {type(n).__name__}")
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = seed if isinstance(seed, tuple) else (seed,)
    if not all(is_integer(part) for part in parts):
        raise TypeError(f"seed must be an integer or a tuple of integers, not {seed!r}")


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
    _check_draws(n, seed)
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


def _fold_sums(sample: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The Gram sums, fold by fold, of the columns [intercept, variates,
    difference - shift] over a run of realizations of rates, sample
    (rates, 2, 4, count) as _Sampler writes them: main link, then
    eavesdropper. The run starts at a multiple of _FOLDS, so that its j-th
    realization lies in fold j mod _FOLDS, and each rate's difference is
    taken less its shift, (rates,). Returns (rates, _FOLDS, 8, 8). The run
    is padded with zero realizations to a whole round of the folds, which
    add nothing to any sum. Sums of successive runs add up to those of
    their concatenation, so a rate keeps its sums, not its realizations."""
    rates, count = len(sample), sample.shape[-1]
    rounds = -(-count // _FOLDS)
    system = np.zeros((rates, _COLUMNS + 1, rounds * _FOLDS))
    system[:, 0, :count] = 1.0
    for link, first in enumerate(range(1, _COLUMNS, 3)):
        system[:, first : first + 3, :count] = sample[:, link, 1:]
    np.subtract(sample[:, 0, 0], sample[:, 1, 0], out=system[:, _COLUMNS, :count])
    system[:, _COLUMNS, :count] -= shift[:, None]
    folds = np.ascontiguousarray(system.reshape(rates, _COLUMNS + 1, rounds, _FOLDS).transpose(0, 3, 1, 2))
    del system
    return folds @ folds.swapaxes(-1, -2)


def _residual_weights(held: np.ndarray) -> np.ndarray:
    """u = [0, -slopes, 1] of each system of normal equations in held,
    (..., 8, 8), the Gram sums of [intercept, variates, difference] over
    the realizations it fits, so that a realization's term is u times its
    columns. Gaussian elimination in column order, one vectorized step per
    column over all systems, in place in held and with no LAPACK call: a
    column whose pivot, the squared norm of its part outside the span of
    the columns kept before it, is at most _RANK_CUT times its own squared
    norm is cut and takes slope 0. So a column of zeros, as at rho = 0, or
    one that repeats another, as z^2 - 1 repeats q on a link of rank 1,
    takes no slope."""
    cut = _RANK_CUT * np.diagonal(held, axis1=-2, axis2=-1)
    kept = np.zeros(held.shape[:-1], dtype=bool)
    for k in range(_COLUMNS):
        pivot = held[..., k, k]
        np.greater(pivot, cut[..., k], out=kept[..., k])
        column = held[..., k + 1 : _COLUMNS, k]
        factors = np.divide(column, pivot[..., None], out=np.zeros_like(column), where=kept[..., k, None])
        held[..., k + 1 : _COLUMNS, k + 1 :] -= factors[..., None] * held[..., k, None, k + 1 :]
    u = np.zeros(held.shape[:-1])
    u[..., _COLUMNS] = 1.0
    for k in range(_COLUMNS - 1, 0, -1):
        along = -(held[..., k, k + 1 :] * u[..., k + 1 :]).sum(axis=-1)
        np.divide(along, held[..., k, k], out=u[..., k], where=kept[..., k])
    return u


def _cross_fit(sums: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cross-fitted control-variate estimate of each rate, unclamped,
    and the variance of its per-realization terms, both (rates,), from
    its fold sums, (rates, _FOLDS, 8, 8), and its shift, (rates,), as
    _fold_sums takes them; the standard error is the root of that variance
    over the count, which the sums hold.

    Realization i lies in fold i mod _FOLDS. Each fold's slopes come from
    the least-squares fit of the difference on an intercept and both
    links' variates over the other folds, so that no realization's own
    draw enters the coefficients applied to it; a realization's term is its
    difference less its variates times those slopes. A fold's normal
    equations are the sums of all folds less its own, solved for every
    rate and fold at once (_residual_weights). With u = [0, -slopes, 1] and
    the columns c = [1, variates, difference - shift], a term is u . c, so
    the fold's sum of its terms is u . sum(c) and their sum of squares
    u . sum(c cᵀ) u, both read off its own sums. Up to _MIN_REGRESSION
    realizations the slopes are 0: the terms are the plain paired
    differences."""
    count = sums[:, :, 0, 0].sum(axis=1)
    u = _residual_weights(sums.sum(axis=1, keepdims=True) - sums)
    u[count <= _MIN_REGRESSION, :, 1:_COLUMNS] = 0.0
    total = np.einsum("rfi,rfi->r", u, sums[..., 0])
    square = np.einsum("rfi,rfij,rfj->r", u, sums, u)
    variance = np.divide(square - total * total / count, count - 1.0, out=np.zeros_like(count), where=count > 1.0)
    return shift + total / count, np.maximum(variance, 0.0)


def _fits(sums: np.ndarray, shift: np.ndarray) -> list:
    """(estimate, variance) of each rate, as _cross_fit gives them from its
    fold sums and shift, or, where its sums are not finite, a
    NonFiniteSample in its place. The rates are fitted together, and a
    rate's fit does not depend on the others."""
    finite = np.isfinite(sums).all(axis=(1, 2, 3))
    fits = zip(*_cross_fit(sums[finite], shift[finite]))
    return [next(fits) if ok else NonFiniteSample("Monte Carlo realizations are not finite") for ok in finite]


def _fail(results: list, failures: dict[int, Exception]) -> None:
    """Give each rate of results, whose links are 2 i and 2 i + 1, the
    first failure of its links, unless it has a result."""
    for link, exc in failures.items():
        if results[link // 2] is None:
            results[link // 2] = exc


def _pilots(sampler: _Sampler, n: int, results: list) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """Draw the pilot's blocks, sample every rate's pilot on them, _TILE
    rates at a time, and take its fold sums (see _fold_sums), shifted by
    its pilot's mean difference; then fit every rate at once and size its
    count (see mc_secrecy_rate). The blocks are kept until every tile has
    read them, and so is each group's A of each block, formed once; both
    are released before the fit. A rate whose kernel or fit fails gets
    the failure in results, and a rate whose count is the pilot its
    estimate. Returns every rate's fold sums and shift, (rates, _FOLDS, 8,
    8) and (rates,), and the other rates, by index, with their counts."""
    pilot = min(n, _PILOT_BLOCKS * _BLOCK_SIZE)
    blocks = [sampler.draw(min(_BLOCK_SIZE, pilot - start)) for start in range(0, pilot, _BLOCK_SIZE)]
    sources = [{} for _ in blocks]
    sums = np.zeros((len(results), _FOLDS, _COLUMNS + 1, _COLUMNS + 1))
    shift, spread = np.zeros(len(results)), np.zeros(len(results))
    for first in range(0, len(results), _TILE):
        tile = range(first, min(first + _TILE, len(results)))
        sample = np.empty((len(tile), 2, 4, pilot))
        for start, w, kept in zip(range(0, pilot, _BLOCK_SIZE), blocks, sources):
            out = sample.reshape(-1, 4, pilot)[:, :, start : start + len(w)]
            _fail(results, sampler.compute(w, out, np.arange(2 * tile.start, 2 * tile.stop), kept))
        live = [j for j, i in enumerate(tile) if results[i] is None]
        if len(live) < len(tile):
            sample = sample[live]
        rates = np.array(tile)[live]
        shift[rates] = (sample[:, 0, 0] - sample[:, 1, 0]).mean(axis=-1)
        sums[rates] = _fold_sums(sample, shift[rates])
        if pilot < n:
            spread[rates] = sample[:, :, 0].var(axis=-1, ddof=1).sum(axis=-1)
    del blocks, sources
    live = [i for i, result in enumerate(results) if result is None]
    fits = _fits(sums[live], shift[live])
    counts = [pilot] * len(live)
    if pilot < n:
        variances = np.array([0.0 if isinstance(fit, Exception) else fit[1] for fit in fits])
        ratio = np.divide(variances, spread[live], out=np.zeros(len(live)), where=spread[live] > 0.0)
        counts = np.clip(np.ceil(n * ratio / _BLOCK_SIZE).astype(int) * _BLOCK_SIZE, pilot, n).tolist()
    pending = {}
    for i, fit, count in zip(live, fits, counts):
        if isinstance(fit, Exception) or count == pilot:
            results[i] = fit if isinstance(fit, Exception) else _estimate(*fit, count)
        else:
            pending[i] = count
    return sums, shift, pending


def mc_secrecy_rate(
    rates: Sequence[LslRate], n: int, seed: int | tuple[int, ...], rows: int | None = None
) -> list[McEstimate | Exception]:
    """Clamped Monte Carlo estimates, one per rate, of the difference of
    the mean MIs of the rate's two links, each at the standard error that
    n unpaired realizations would give; a rate whose estimate fails
    numerically gets that failure in its place: a kernel's, or a
    NonFiniteSample where its realizations are not finite.

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
    fit of its first count realizations: the pilot's fit, or a fit of the
    fold sums (see _fold_sums) of all count. The pilots are sampled _TILE
    rates at a time on the pilot's blocks, kept until every tile has read
    them, and fitted all at once. The call draws the blocks of the largest
    count, and each block past the pilot computes the links of the rates
    still short of their count only and adds to their sums; the rates
    past the pilot are fitted all at once when the last reaches its
    count. Where no variance is seen, as at rho = 0, the count is the
    pilot.

    All rates share every W, so a call is one M: the links of all rates
    must share M, and each link's k_eigs must hold M eigenvalues (else
    ValueError, see detequiv.shared_num_tx). W has rows rows,
    by default those of the tallest link of any rate, and at least
    those (else ValueError); each link reads W's first N rows. Each rate
    keeps its own law, its own count and its own regression, so its
    estimate equals, bit for bit, the one it gets alone from the same
    seed and rows: a rate alone, with rows left out, reads a W as tall
    as its taller link. No rates give no estimates. n must be an integer
    >= 1 and seed an integer or a tuple of them (else TypeError or
    ValueError, see _check_draws).
    """
    _check_draws(n, seed)
    if not rates:
        return []
    sampler = _Sampler([fp for rate in rates for fp in (rate.fp_main, rate.fp_eave)], min(n, _BLOCK_SIZE), seed, rows)
    results: list = [None] * len(rates)
    sums, shift, pending = _pilots(sampler, n, results)
    counts = dict(pending)
    drawn = min(n, _PILOT_BLOCKS * _BLOCK_SIZE)
    while pending:
        w = sampler.draw(min(_BLOCK_SIZE, n - drawn))
        drawn += len(w)
        order = np.array(list(pending))
        block = np.empty((len(order), 2, 4, len(w)))
        links = np.stack([2 * order, 2 * order + 1], axis=-1).ravel()
        _fail(results, sampler.compute(w, block.reshape(-1, 4, len(w)), links))
        live = [j for j, i in enumerate(order) if results[i] is None]
        if len(live) < len(order):
            block, order = block[live], order[live]
        sums[order] += _fold_sums(block, shift[order])
        for i in list(pending):
            if results[i] is not None or pending[i] <= drawn:
                del pending[i]
    past = [i for i in counts if results[i] is None]
    for i, fit in zip(past, _fits(sums[past], shift[past])):
        results[i] = fit if isinstance(fit, Exception) else _estimate(*fit, counts[i])
    return results


def _estimate(mean: float, variance: float, count: int) -> McEstimate:
    """A rate's estimate from its fit over count realizations, clamped at 0."""
    return McEstimate(max(0.0, float(mean)), float(np.sqrt(variance / count)), count)

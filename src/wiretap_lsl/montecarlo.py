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
regressed on an intercept and both links' columns, and the intercept is
the estimate (Glasserman, Monte Carlo Methods in Financial Engineering,
2004, ch. 4). Its standard error, the residual standard deviation over
sqrt(n), is the spread of the estimate across seeds; it is smaller than
that of the plain paired mean wherever the variates correlate with the
difference. Each rate keeps its own regression, solved in one stack
with the others of its call; rates whose links are no taller than its
own change none of its numbers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, sample_channel_block
from .detequiv import FixedPoint, LslRate

_BLOCK_SIZE = 256
# The regression's design: an intercept and three control variates per link.
_COLUMNS = 7
# Up to this many realizations the secrecy rate is the plain paired mean,
# so that the regression keeps at least 2 residual degrees of freedom.
_MIN_REGRESSION = _COLUMNS + 1
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
        # On the diagonal of a link's Gram matrix S, Gᴴ G where shared, else
        # G Gᴴ, S_ii = sum_j alpha_i beta_j |W_ij|^2, each |W_ij|^2 / 2 an
        # independent unit exponential: E S = diag(s0), and b = 1 / (1 + s0).
        alpha, beta = (weights, stats.r_eigs) if self.shared else (stats.r_eigs, weights)
        s0 = 2.0 * alpha * beta.sum(axis=-1, keepdims=True)
        b = 1.0 / (1.0 + s0)
        # The laws of L1 and L2: E L1 = 0, Var L1 = 4 sum(beta^2)
        # sum((b alpha)^2) and E L2 = 4 sum(beta^2) (sum(b alpha))^2.
        ba = b * alpha
        beta_sq = 4.0 * (beta * beta).sum(axis=-1)
        self.spread = np.sqrt(beta_sq * (ba * ba).sum(axis=1))
        self.mean = beta_sq * ba.sum(axis=1) ** 2
        # The moments read A where shared, whose S_ij is A_ij sqrt(alpha_i
        # alpha_j), else the Gram matrices. With x_i = source_ii, o = b s0
        # and v = b alpha where shared, else b, b_i D_ii = v_i x_i - o_i:
        # L1 = sum(v x) - sum(o), and L2 = sum(v^2 x^2) - 2 sum(v o x) +
        # sum(o^2) plus 2 v_i v_j |source_ij|^2 over the upper triangle.
        # Over its law each is a constant plus a weighted sum of
        # [|source|^2; x], (d + 1, d, c), whose weights are the link's
        # terms: L1's on the last row only.
        v, o = (ba if self.shared else b), b * s0
        # Both moments are identically 0 where E L2 = 0: at rho = 0, or
        # where r or k is 0. Their variates are then 0 too.
        live = self.mean > 0.0
        laws = np.array([self.spread, self.mean])
        inv_spread, inv_mean = np.divide(1.0, laws, out=np.zeros_like(laws), where=live)[:, :, None]
        self.terms = np.zeros((links, 2, d + 1, d))
        self.terms[:, 0, d] = v * inv_spread
        upper = np.triu(np.full((d, d), 2.0), 1) + np.eye(d)
        self.terms[:, 1, :d] = v[:, :, None] * v[:, None, :] * inv_mean[:, :, None] * upper
        self.terms[:, 1, d] = -2.0 * v * o * inv_mean
        self.live = live.astype(float)[:, None]
        self.constants = np.array([-o.sum(axis=1) * inv_spread[:, 0], (o * o).sum(axis=1) * inv_mean[:, 0]])[:, :, None]
        self.constants[1] -= self.live
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


def _sample(fps: Sequence[FixedPoint], n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """Per-realization MI and the three control variates (see
    _Group.variates) of each link of fps, shape (links, 4, n), drawn in
    blocks from one generator seeded by seed. All links share every W;
    the links with the same N and r form one _Group."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not fps:
        return np.empty((0, 4, n))
    stats = [fp.stats for fp in fps]
    weights = _column_weights(stats, [fp.k_eigs for fp in fps])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    members = {}
    for i, s in enumerate(stats):
        members.setdefault((s.num_rx, s.r_eigs.tobytes()), []).append(i)
    size = min(n, _BLOCK_SIZE)
    groups = [(links, _Group(stats[links[0]], weights[links], size)) for links in members.values()]
    rows, m = max(s.num_rx for s in stats), stats[0].num_tx
    out = np.empty((len(fps), 4, n))
    for offset in range(0, n, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, n - offset)
        w = sample_channel_block(count, rows, m, rng)
        block = out[:, :, offset : offset + count]
        for links, group in groups:
            logdet, variates = group(w)
            block[links, 0] = logdet / m
            block[links, 1:] = variates.swapaxes(0, 1)
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


def _secrecy_estimates(sample: np.ndarray) -> list[McEstimate]:
    """The clamped control-variate estimates of rates from their links'
    sample, shape (rates, 2, 4, n): main link, then eavesdropper.

    The least-squares fit of each rate's difference on its design takes
    the QR factor R of [design, difference], one stacked QR for all
    rates, and then the SVD of R's leading _COLUMNS x _COLUMNS block with
    np.linalg.lstsq's rank cut, eps * max(n, _COLUMNS) times the largest
    singular value; the residual is R's last diagonal entry and the part
    of R's last column along the singular vectors cut. Past the stacked
    factorizations each rate's arithmetic is its own, on arrays whose
    shapes do not depend on the number of rates."""
    rates, n = len(sample), sample.shape[-1]
    diff = sample[:, 0, 0] - sample[:, 1, 0]
    if n <= _MIN_REGRESSION or not rates:
        fits = [_mean_and_error(d) for d in diff]
        return [McEstimate(mean=max(0.0, mean), std_error=error, num_realizations=n) for mean, error in fits]
    # Each rate's [design, difference] by columns, so that the QR reads
    # it in LAPACK's column-major order without a transposing copy.
    system = np.empty((rates, _COLUMNS + 1, n))
    system[:, 0] = 1.0
    system[:, 1:_COLUMNS] = sample[:, :, 1:].reshape(rates, -1, n)
    system[:, _COLUMNS] = diff
    r = np.linalg.qr(system.swapaxes(1, 2), mode="r")
    u, sv, vh = np.linalg.svd(r[:, :_COLUMNS, :_COLUMNS])
    fits = []
    for u_i, sv_i, vh_i, r_i in zip(u, sv, vh, r):
        along = (u_i * r_i[:_COLUMNS, _COLUMNS, None]).sum(axis=0)
        keep = sv_i > np.finfo(float).eps * max(n, _COLUMNS) * sv_i[0]
        resid = r_i[_COLUMNS, _COLUMNS] ** 2 + (along[~keep] ** 2).sum()
        fits.append(((vh_i[keep, 0] * along[keep] / sv_i[keep]).sum(), np.sqrt(resid / (n - keep.sum()) / n)))
    return [McEstimate(mean=max(0.0, float(mean)), std_error=float(error), num_realizations=n) for mean, error in fits]


def mc_secrecy_rate(rates: Sequence[LslRate], n: int, seed: int | tuple[int, ...]) -> list[McEstimate]:
    """Clamped Monte Carlo estimates, one per rate, of the difference of
    the mean MIs of the rate's two links.

    Both links see the same W each realization (common random numbers),
    so identical statistics yield an exact zero. The per-realization
    difference is regressed by least squares on an intercept and both
    links' three control variates z, q and z^2 - 1 (see the module
    docstring), each standardized by its closed-form law so that no
    column dwarfs the intercept's and the least-squares rank cut keeps
    it; the intercept is the estimate and the residual standard
    deviation over sqrt(n) its standard error. A link whose variates are
    identically zero, as at rho = 0, gets the minimum-norm coefficients
    0. Up to _MIN_REGRESSION realizations the plain paired mean is used.
    The clamp is applied to the estimate, never per realization.

    All rates share every W, so they must share M, and each link's
    k_eigs must hold M eigenvalues (else ValueError); each rate keeps
    its own law and its own regression, and the regressions of all
    rates are one stacked solve. Where all their links
    have the same numbers of receive antennas, as the rates of one sweep
    point do, each estimate equals that of its rate alone, bit for bit.
    No rates give no estimates.
    """
    sample = _sample([fp for rate in rates for fp in (rate.fp_main, rate.fp_eave)], n, seed)
    return _secrecy_estimates(sample.reshape(len(rates), 2, 4, n))

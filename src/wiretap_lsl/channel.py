"""Correlation-matrix generation and Kronecker-model channel sampling.

Transmit correlation follows a uniform linear array illuminated by a
Gaussian power azimuth spectrum; entries are numerical integrals over
the azimuth angle, normalized to a unit diagonal. The integrals run
over the window theta +- 10 sigma clipped to [-pi, pi], outside which
the spectrum is below exp(-50) of its peak, with Gauss-Legendre node
doubling until two successive rows agree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureFailure
from .linalg import congruence, hermitianize, psd_eigh

_QUAD_MIN_NODES = 64
_QUAD_MAX_NODES = 8192
_QUAD_TOL = 1e-9
_QUAD_WINDOW_SPREADS = 10.0


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array plus the angular power profile seen by it.

    Angles are in degrees at this interface; spacing is in wavelengths.
    All are finite: a large finite spread gives the uniform-azimuth limit.
    """

    num_antennas: int
    spacing_wavelengths: float = 1.0
    mean_angle_deg: float = 40.0
    angle_spread_deg: float = 5.0

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if not np.isfinite([self.spacing_wavelengths, self.mean_angle_deg, self.angle_spread_deg]).all():
            raise ValueError("spacing_wavelengths, mean_angle_deg and angle_spread_deg must be finite")
        if self.spacing_wavelengths < 0:
            raise ValueError("spacing_wavelengths must be >= 0")
        if self.angle_spread_deg <= 0:
            raise ValueError("angle_spread_deg must be > 0")


@dataclass(frozen=True)
class ChannelStatistics:
    """Statistical CSI of one link: SNR, sizes and correlation matrices.

    t_eigh is T's eigenvalues (ascending, clipped at 0) and eigenvectors,
    and t_sqrt is built from them; r_eigs is R's eigenvalues alone, all
    that the solver and the sampler read of R. Each is computed once, on
    first use. Nothing here depends on the precoder: the spectrum of
    K = T^(1/2) P T^(1/2) belongs to the FixedPoint solved at P.
    """

    snr: float
    num_rx: int
    num_tx: int
    t_corr: np.ndarray
    r_corr: np.ndarray

    def __post_init__(self):
        if self.num_rx < 1 or self.num_tx < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.snr < 0:
            raise ValueError("snr must be >= 0")
        if self.t_corr.shape != (self.num_tx, self.num_tx):
            raise ValueError("t_corr must be num_tx x num_tx")
        if self.r_corr.shape != (self.num_rx, self.num_rx):
            raise ValueError("r_corr must be num_rx x num_rx")

    @property
    def beta(self) -> float:
        return self.num_rx / self.num_tx

    @cached_property
    def t_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return psd_eigh(self.t_corr)

    @cached_property
    def t_sqrt(self) -> np.ndarray:
        lam, q = self.t_eigh
        return congruence(q, np.sqrt(lam))

    @cached_property
    def r_eigs(self) -> np.ndarray:
        return psd_eigh(self.r_corr)[0]


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return roots_legendre(n)


@lru_cache(maxsize=256)
def _correlation_row(spec: ArraySpec) -> np.ndarray:
    """First row of the (Toeplitz) correlation matrix.

    Gauss-Legendre over [theta - 10 sigma, theta + 10 sigma] clipped to
    [-pi, pi], starting at _QUAD_MIN_NODES and doubling; the finer of the
    first two successive rows that agree within _QUAD_TOL is returned.
    """
    # Wrap the mean angle into (-180, 180] so theta and theta + 360 agree.
    theta = np.deg2rad((spec.mean_angle_deg + 180.0) % 360.0 - 180.0)
    spread = np.deg2rad(spec.angle_spread_deg)
    reach = _QUAD_WINDOW_SPREADS * spread
    lo, hi = max(-np.pi, theta - reach), min(np.pi, theta + reach)
    k = np.arange(spec.num_antennas)

    def row_at(nodes: int) -> np.ndarray:
        x, w = _leggauss(nodes)
        half = 0.5 * (hi - lo)
        phi = half * x + 0.5 * (hi + lo)
        weight = half * w * np.exp(-((phi - theta) ** 2) / (2.0 * spread**2))
        phase = np.exp(2j * np.pi * spec.spacing_wavelengths * np.outer(k, np.sin(phi)))
        row = phase @ weight
        return row / row[0].real

    nodes = _QUAD_MIN_NODES
    row = row_at(nodes)
    while nodes < _QUAD_MAX_NODES:
        nodes *= 2
        finer = row_at(nodes)
        if np.abs(finer - row).max() <= _QUAD_TOL:
            return finer
        row = finer
    raise QuadratureFailure(f"correlation row not within {_QUAD_TOL:g} at {_QUAD_MAX_NODES} nodes")


def gen_correlation(spec: ArraySpec) -> np.ndarray:
    """Transmit correlation matrix of a ULA under a Gaussian azimuth spectrum.

    Entry (a, b) is the normalized integral over [-pi, pi] of
    exp(2*pi*i*d*(a-b)*sin(phi)) against a Gaussian angular weight; the
    diagonal is exactly 1. The result is Hermitian PSD (tiny negative
    eigenvalues from the quadrature are clipped). Raises
    QuadratureFailure if the quadrature does not settle.
    """
    row = _correlation_row(spec)
    m = spec.num_antennas
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    full = np.where(idx >= 0, row[np.abs(idx)], row[np.abs(idx)].conj())
    t = hermitianize(full)
    lam, q = psd_eigh(t)
    if lam[0] == 0.0:  # an eigenvalue was clipped, or is exactly 0
        t = congruence(q, lam)
    # Rescale to an exactly unit diagonal (congruence, preserves PSD).
    d = np.sqrt(np.diag(t).real)
    t = t / np.outer(d, d)
    np.fill_diagonal(t, 1.0)
    return hermitianize(t)


def sample_channel_block(
    stats: Sequence[ChannelStatistics],
    k_eigs: Sequence[np.ndarray],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample `count` precoded channels G = sqrt(rho/M) diag(sqrt(r)) W diag(sqrt(k))
    of each link, given as equal-length sequences of stats and k_eigs.

    A link's r, its stats' r_eigs, and k, its entry of k_eigs, are the
    eigenvalues of R and of K = T^(1/2) P T^(1/2), with eigenvectors Q_R
    and Q_K. For the Kronecker
    channel H = sqrt(rho/M) R^(1/2) W T^(1/2), H P Hᴴ = Q_R G' G'ᴴ Q_Rᴴ,
    where G' is G with W replaced by Q_Rᴴ W Q_K, which has the law of W.
    So ln det(I + G Gᴴ) has the law of ln det(I + H P Hᴴ).

    W has i.i.d. circular complex Gaussian entries of unit variance,
    drawn as one standard-normal (2, count, N, M) array: real parts, then
    imaginary parts, with N the most rows any link has. The links share
    M and this one W: each scales W's first N rows, folding W's
    1/sqrt(2) and sqrt(rho/M) into one N x M elementwise scaling, and
    keeps its law. Their channels come back stacked by rows,
    (count, sum of the N, M).
    """
    n, m = max(s.num_rx for s in stats), stats[0].num_tx
    w = np.empty((count, n, m), dtype=complex)
    w.real, w.imag = rng.standard_normal((2, count, n, m))
    g = np.empty((count, sum(s.num_rx for s in stats), m), dtype=complex)
    start = 0
    for s, k in zip(stats, k_eigs):
        scale = np.sqrt(np.outer(s.r_eigs, (s.snr / (2.0 * m)) * k))
        np.multiply(w[:, : s.num_rx], scale, out=g[:, start : start + s.num_rx])
        start += s.num_rx
    return g

"""Correlation-matrix generation and Kronecker-model channel sampling.

Transmit correlation follows a uniform linear array illuminated by a
Gaussian power azimuth spectrum; entries are numerical integrals over
the azimuth angle, normalized to a unit diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureFailure
from .linalg import clip_psd, eigh, hermitian_sqrt, hermitianize

_QUAD_NODES = 4096
_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array plus the angular power profile seen by it.

    Angles are in degrees at this interface; spacing is in wavelengths.
    """

    num_antennas: int
    spacing_wavelengths: float = 1.0
    mean_angle_deg: float = 40.0
    angle_spread_deg: float = 5.0

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if self.spacing_wavelengths < 0:
            raise ValueError("spacing_wavelengths must be >= 0")
        if self.angle_spread_deg <= 0:
            raise ValueError("angle_spread_deg must be > 0")


@dataclass(frozen=True)
class ChannelStatistics:
    """Statistical CSI of one link: SNR, sizes and correlation matrices."""

    snr: float
    num_rx: int
    num_tx: int
    t_corr: np.ndarray
    r_corr: np.ndarray
    beta: float = field(init=False)

    def __post_init__(self):
        if self.num_rx < 1 or self.num_tx < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.snr < 0:
            raise ValueError("snr must be >= 0")
        if self.t_corr.shape != (self.num_tx, self.num_tx):
            raise ValueError("t_corr must be num_tx x num_tx")
        if self.r_corr.shape != (self.num_rx, self.num_rx):
            raise ValueError("r_corr must be num_rx x num_rx")
        object.__setattr__(self, "beta", self.num_rx / self.num_tx)

    @cached_property
    def t_sqrt(self) -> np.ndarray:
        return hermitian_sqrt(self.t_corr)

    @cached_property
    def r_sqrt(self) -> np.ndarray:
        return hermitian_sqrt(self.r_corr)

    @cached_property
    def r_eigs(self) -> np.ndarray:
        """Eigenvalues of R, ascending, with rounding negatives clipped to 0."""
        return np.clip(eigh(self.r_corr)[0], 0.0, None)


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled channel matrix (num_rx x num_tx amplitude gains)."""

    h: np.ndarray


@lru_cache(maxsize=8)
def _leggauss(n: int):
    return roots_legendre(n)


@lru_cache(maxsize=256)
def _correlation_row(spec: ArraySpec, nodes: int) -> np.ndarray:
    """First row of the (Toeplitz) correlation matrix at a given node count."""
    # Wrap the mean angle into (-180, 180] so theta and theta + 360 agree.
    theta = np.deg2rad((spec.mean_angle_deg + 180.0) % 360.0 - 180.0)
    spread = np.deg2rad(spec.angle_spread_deg)
    x, w = _leggauss(nodes)
    phi = np.pi * x
    weight = np.pi * w * np.exp(-((phi - theta) ** 2) / (2.0 * spread**2))
    k = np.arange(spec.num_antennas)
    phase = np.exp(2j * np.pi * spec.spacing_wavelengths * np.outer(k, np.sin(phi)))
    row = phase @ weight
    return row / row[0].real


def gen_correlation(spec: ArraySpec) -> np.ndarray:
    """Transmit correlation matrix of a ULA under a Gaussian azimuth spectrum.

    Entry (a, b) is the normalized integral over [-pi, pi] of
    exp(2*pi*i*d*(a-b)*sin(phi)) against a Gaussian angular weight; the
    diagonal is exactly 1. The result is Hermitian PSD (tiny negative
    eigenvalues from the quadrature are clipped).
    """
    row = _correlation_row(spec, _QUAD_NODES)
    row_check = _correlation_row(spec, 2 * _QUAD_NODES)
    err = np.abs(row - row_check).max()
    if err > _QUAD_TOL:
        raise QuadratureFailure(f"estimated quadrature error {err:.3e}")
    m = spec.num_antennas
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    full = np.where(idx >= 0, row[np.abs(idx)], row[np.abs(idx)].conj())
    t = clip_psd(hermitianize(full))
    # Rescale to an exactly unit diagonal (congruence, preserves PSD).
    d = np.sqrt(np.diag(t).real)
    t = t / np.outer(d, d)
    np.fill_diagonal(t, 1.0)
    return hermitianize(t)


def complex_gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circular complex Gaussian entries, zero mean, unit variance."""
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel_block(
    stats: ChannelStatistics, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample `count` Kronecker-model channel matrices as a (count, N, M) array."""
    n, m = stats.num_rx, stats.num_tx
    re = rng.standard_normal((count, n, m))
    im = rng.standard_normal((count, n, m))
    w = (re + 1j * im) / np.sqrt(2.0)
    scale = np.sqrt(stats.snr / m)
    return scale * (stats.r_sqrt @ w @ stats.t_sqrt)


def sample_channel(stats: ChannelStatistics, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization H = sqrt(rho/M) R^(1/2) W T^(1/2)."""
    return ChannelRealization(h=sample_channel_block(stats, 1, rng)[0])

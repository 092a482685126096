"""Correlation-matrix generation and Kronecker-model channel sampling.

Every receiver is uncorrelated, R = I, so a link's receive side is its
antenna count alone. Transmit correlation follows a uniform linear
array illuminated by a Gaussian power azimuth spectrum; entries are
numerical integrals over the azimuth angle, normalized to a unit
diagonal. The integrals run over the window theta +- 10 sigma clipped
to [-pi, pi], outside which the spectrum is below exp(-50) of its peak,
with Gauss-Legendre node doubling until two successive rows agree.
gen_correlation only builds T; it is PSD up to the quadrature's
roundoff.

A link is its SNR, its receive antenna count and a Transmit: T with the
eigendecomposition and square root that every solve and design reads,
factored once, when the Transmit is made, and shared by every link
that holds it. The Transmit is the one place that checks T, clips its
roundoff negative eigenvalues and factors it.

The Gauss-Legendre rules, 64 * 2**k nodes up to _QUAD_MAX_NODES, are
read from gauss_legendre.npz beside this module: for each node count,
the non-negative nodes (ascending) and their weights. The rules are
symmetric, so that half rebuilds each one exactly. Regenerate the table
from the package root with scipy:

    python -c "import numpy as np; from scipy.special import roots_legendre as r; np.savez('src/wiretap_lsl/gauss_legendre.npz', **{str(n): np.stack(r(n))[:, n // 2 :] for n in (64 << k for k in range(8))})"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import QuadratureFailure
from .linalg import congruence, psd_eigh

_QUAD_MIN_NODES = 64
_QUAD_MAX_NODES = 8192
_QUAD_TOL = 1e-9
_QUAD_WINDOW_SPREADS = 10.0
_QUAD_TABLE = Path(__file__).with_name("gauss_legendre.npz")


def is_integer(value) -> bool:
    """Whether value is an int or a NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is an int or a float, NumPy ones included, and not a
    bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ArraySpec:
    """Uniform linear array plus the angular power profile seen by it.

    Angles are in degrees at this interface; spacing is in wavelengths.
    All are finite real numbers (is_real): a large finite spread gives
    the uniform-azimuth limit.
    """

    num_antennas: int
    spacing_wavelengths: float = 1.0
    mean_angle_deg: float = 40.0
    angle_spread_deg: float = 5.0

    def __post_init__(self):
        if not is_integer(self.num_antennas) or self.num_antennas < 1:
            raise ValueError("num_antennas must be an integer >= 1")
        values = self.spacing_wavelengths, self.mean_angle_deg, self.angle_spread_deg
        if not all(is_real(v) for v in values) or not np.isfinite(values).all():
            raise ValueError("spacing_wavelengths, mean_angle_deg and angle_spread_deg must be finite real numbers")
        if self.spacing_wavelengths < 0:
            raise ValueError("spacing_wavelengths must be >= 0")
        if self.angle_spread_deg <= 0:
            raise ValueError("angle_spread_deg must be > 0")


@dataclass(frozen=True, eq=False)
class Transmit:
    """A transmit correlation T, checked and factored once, when it is
    made: t_eigh is T's eigenvalues (ascending, clipped at 0) and
    eigenvectors, and t_sqrt = T^(1/2) is built from them. All three
    arrays are read-only and belong to the Transmit, which works on its
    own copy of the matrix given, so every link that holds it can share
    them. This is the one place where T is checked: an eigenvalue below
    the PSD tolerance (-1e-12) raises NotPsd, one between it and 0 is
    quadrature roundoff and is clipped to 0 in t_eigh and t_sqrt (t_corr
    keeps the matrix given), and LAPACK failing on T raises a
    LinAlgError.
    """

    t_corr: np.ndarray
    t_eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    t_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.t_corr)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
            raise ValueError("t_corr must be a nonempty square matrix")
        lam, q = psd_eigh(t)
        for name, value in (("t_corr", t), ("t_eigh", (lam, q)), ("t_sqrt", congruence(q, np.sqrt(lam)))):
            object.__setattr__(self, name, value)
        for array in (t, lam, q, self.t_sqrt):
            array.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ChannelStatistics:
    """Statistical CSI of one link: SNR, transmit correlation T, factored
    (a Transmit, which the links of one ArraySpec share), and the number
    of receive antennas N, whose correlation is R = I; M is T's order.
    The spectrum of K = T^(1/2) P T^(1/2) belongs to the FixedPoint
    solved at P, not to the link.

    A link compares and hashes by identity: its transmit side holds
    arrays, whose == is elementwise and which do not hash.
    """

    snr: float
    transmit: Transmit
    num_rx: int

    def __post_init__(self):
        if not is_real(self.snr) or not self.snr >= 0:
            raise ValueError("snr must be a real number >= 0")
        if not isinstance(self.transmit, Transmit):
            raise ValueError("transmit must be a Transmit")
        if not is_integer(self.num_rx) or self.num_rx < 1:
            raise ValueError("num_rx must be an integer >= 1")

    @cached_property
    def num_tx(self) -> int:
        return self.transmit.t_corr.shape[0]

    @property
    def beta(self) -> float:
        return self.num_rx / self.num_tx


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-node Gauss-Legendre rule."""
    with np.load(_QUAD_TABLE) as table:
        x, w = table[str(n)]
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _correlation_row(spec: ArraySpec) -> np.ndarray:
    """First row of the (Toeplitz) correlation matrix.

    Gauss-Legendre over [theta - 10 sigma, theta + 10 sigma] clipped to
    [-pi, pi], starting at _QUAD_MIN_NODES and doubling; the finer of the
    first two successive rows that agree within _QUAD_TOL is returned.
    A spread so small that the window rounds to one point, or that its
    square underflows, gives the plane-wave row exp(2 pi i d k sin theta),
    the sigma -> 0 limit, which the quadrature reaches just above it.
    Nothing is cached here: a sweep builds each spec's T once, through
    experiment._transmit.
    """
    # Wrap the mean angle into (-180, 180] so theta and theta + 360 agree.
    theta = np.deg2rad((spec.mean_angle_deg + 180.0) % 360.0 - 180.0)
    spread = np.deg2rad(spec.angle_spread_deg)
    reach = _QUAD_WINDOW_SPREADS * spread
    lo, hi = max(-np.pi, theta - reach), min(np.pi, theta + reach)
    k = np.arange(spec.num_antennas)
    with np.errstate(over="ignore"):  # inf at a huge spread: uniform weights
        two_var = 2.0 * spread**2
    if lo == hi or two_var == 0.0:  # nothing left to integrate: the sigma -> 0 limit
        return np.exp(2j * np.pi * spec.spacing_wavelengths * k * np.sin(theta))

    def row_at(nodes: int) -> np.ndarray:
        x, w = _leggauss(nodes)
        half = 0.5 * (hi - lo)
        phi = half * x + 0.5 * (hi + lo)
        weight = half * w * np.exp(-((phi - theta) ** 2) / two_var)
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
    exp(2*pi*i*d*(a-b)*sin(phi)) against a Gaussian angular weight: the
    Toeplitz matrix of the first row, rescaled to an exactly unit
    diagonal. The result is exactly Hermitian, and PSD up to the
    quadrature's roundoff: it is neither checked nor factored here, but
    by the Transmit made of it, which clips that roundoff. Raises
    QuadratureFailure if the quadrature does not settle.
    """
    row = _correlation_row(spec)
    m = spec.num_antennas
    idx = np.subtract.outer(np.arange(m), np.arange(m))
    t = np.where(idx >= 0, row[np.abs(idx)], row[np.abs(idx)].conj())
    # Rescale to an exactly unit diagonal: D^-1 T D^-1 with D^2 = diag(T),
    # which keeps T exactly Hermitian.
    d = np.sqrt(np.diag(t).real)
    t = t / np.outer(d, d)
    np.fill_diagonal(t, 1.0)
    return t


def sample_channel_block(count: int, num_rx: int, num_tx: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` matrices W, (count, num_rx, num_tx), of i.i.d.
    circular complex Gaussian entries whose real and imaginary parts are
    standard normal: one standard-normal (2, count, N, M) array, real
    parts, then imaginary parts.

    W is drawn once per block and left unscaled: every link that shares
    it folds W's variance of 2 and its own SNR and spectrum into its Gram
    matrix (see montecarlo).
    """
    w = np.empty((count, num_rx, num_tx), dtype=complex)
    w.real, w.imag = rng.standard_normal((2, count, num_rx, num_tx))
    return w

"""Large-system (deterministic-equivalent) rates for correlated MIMO links.

A link at a precoder P is seen through the spectra of R and of
K = T^(1/2) P T^(1/2). Its ergodic MI is approximated in closed form from
them and a pair (e, delta) that solves two coupled trace equations
(Hachem, Loubaton and Najim, 2007). FixedPoint is that evaluated link,
which Monte Carlo samples too. The secrecy rate is the clamped difference
of the two links' MIs. All rates here are in nats per transmit antenna;
conversion to bits happens at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelStatistics
from .errors import NoConvergence
from .linalg import psd_eigh

_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000


@dataclass(frozen=True)
class FixedPoint:
    """One link evaluated at a precoder P: the solution (e, delta) of its
    coupled trace equations, the eigenvalues k_eigs of K = T^(1/2) P T^(1/2)
    that the solve used, and the link's stats; together they give its MI."""

    e: float
    delta: float
    iterations: int
    residual: float
    k_eigs: np.ndarray = field(repr=False, compare=False)
    stats: ChannelStatistics = field(repr=False, compare=False)

    @cached_property
    def mi(self) -> float:
        """Deterministic-equivalent ergodic MI, nats per transmit antenna.

        (1/M) ln det(I + b e K) + (1/M) ln det(I + d R) - (b/rho) d e, with
        K = T^(1/2) P T^(1/2) (same determinant as T P, but guaranteed HPD).
        """
        rho, beta, m = self.stats.snr, self.stats.beta, self.stats.num_tx
        if rho == 0.0:
            return 0.0
        term_t = np.sum(np.log1p(beta * self.e * self.k_eigs))
        term_r = np.sum(np.log1p(self.delta * self.stats.r_eigs))
        return float((term_t + term_r) / m - (beta / rho) * self.delta * self.e)

    @cached_property
    def mi_variance(self) -> float:
        """Variance of one realization of the per-antenna MI that Monte
        Carlo averages, from the CLT for Kronecker channels (Hachem,
        Loubaton and Najim, Ann. Appl. Probab., 2008): -ln(1 - a b) / M^2,
        with a = (rho/N) sum r^2 / (1 + delta r)^2 and
        b = (rho/M) beta sum k^2 / (1 + beta e k)^2.

        1 - a b is the derivative dg of solve_fixed_point's scalar equation
        at its root, here evaluated on demand so that the solve does no
        extra work.
        """
        rho, beta = self.stats.snr, self.stats.beta
        n, m = self.stats.num_rx, self.stats.num_tx
        r, k = self.stats.r_eigs, self.k_eigs
        a = (rho / n) * np.sum((r / (1.0 + self.delta * r)) ** 2)
        b = (rho / m) * beta * np.sum((k / (1.0 + beta * self.e * k)) ** 2)
        return float(-np.log1p(-a * b) / m**2)


@dataclass(frozen=True)
class LslRate:
    """Deterministic-equivalent secrecy rate: the clamped gap of the MIs
    of both links, evaluated at the same precoder."""

    fp_main: FixedPoint
    fp_eave: FixedPoint

    @property
    def rs(self) -> float:
        return max(0.0, self.fp_main.mi - self.fp_eave.mi)


def solve_fixed_point(stats: ChannelStatistics, p: np.ndarray) -> FixedPoint:
    """Solve e = (rho/N) tr{R(I+dR)^-1}, d = (rho/M) tr{K(I+b e K)^-1}.

    K is the symmetrized T^(1/2) P T^(1/2), factored here and nowhere
    else; its eigenvalues are clipped at 0 (one below -1e-12 raises
    NotPsd). The returned FixedPoint carries them and stats, so its mi
    and Monte Carlo reuse that factorization. The first equation gives
    e as an explicit function e(d), which turns the pair into the scalar
    equation

        g(d) = d - (rho/M) sum_i k_i / (1 + b e(d) k_i) = 0.

    The sum is positive and at most (rho/M) sum_i k_i, so g(0) <= 0 <=
    g(hi) on the bracket [0, hi = (rho/M) sum_i k_i], and the root is
    unique because g(d)/d increases. Newton steps d - g(d)/g'(d), with
    g' from the chain rule through e'(d), start at hi; each evaluation
    shrinks the bracket to the side that keeps the sign change, and a
    step that would leave the bracket is replaced by its midpoint.

    The solve stops once one more substitution step would move d by at
    most 1e-12 relative to max(1, d); that size is the returned
    residual. rho = 0 returns e = d = 0 exactly.
    """
    rho, beta = stats.snr, stats.beta
    n, m = stats.num_rx, stats.num_tx
    r_eigs = stats.r_eigs
    k_eigs = psd_eigh(stats.t_sqrt @ p @ stats.t_sqrt)[0]

    lo, hi = 0.0, (rho / m) * float(np.sum(k_eigs))
    delta = hi
    residual = np.inf
    for it in range(1, _FP_MAX_ITER + 1):
        r_den = 1.0 + delta * r_eigs
        e = (rho / n) * np.sum(r_eigs / r_den)
        k_den = 1.0 + beta * e * k_eigs
        g = delta - (rho / m) * np.sum(k_eigs / k_den)
        residual = abs(g) / max(1.0, delta)
        if residual <= _FP_TOL:
            return FixedPoint(float(e), float(delta), it, float(residual), k_eigs, stats)
        if g < 0.0:
            lo = delta
        else:
            hi = delta
        de = -(rho / n) * np.sum((r_eigs / r_den) ** 2)
        dg = 1.0 + (rho / m) * beta * de * np.sum((k_eigs / k_den) ** 2)
        if dg > 0.0 and lo < delta - g / dg < hi:
            delta -= g / dg
        else:
            delta = 0.5 * (lo + hi)
    raise NoConvergence(f"fixed point residual {residual:.3e} after {_FP_MAX_ITER} iterations")


def lsl_secrecy_rate(stats_m: ChannelStatistics, stats_e: ChannelStatistics, p: np.ndarray) -> LslRate:
    """Clamped difference of both links' deterministic-equivalent MIs."""
    if stats_m.num_tx != stats_e.num_tx:
        raise ValueError("both links must share the transmit antenna count")
    return LslRate(fp_main=solve_fixed_point(stats_m, p), fp_eave=solve_fixed_point(stats_e, p))

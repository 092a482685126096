"""Large-system (deterministic-equivalent) rates for correlated MIMO links.

The ergodic mutual information of one link is approximated by a
closed-form expression parameterized by a pair (e, delta) that solves
two coupled trace equations; the secrecy rate is the clamped difference
of the two links' approximations. All rates here are in nats per
transmit antenna; conversion to bits happens at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelStatistics
from .errors import NoConvergence

_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000


@dataclass(frozen=True)
class FixedPoint:
    """Solution (e, delta) of one link's coupled trace equations.

    k_eigs are the eigenvalues of K = T^(1/2) P T^(1/2) the solve used,
    kept so the mutual information needs no second eigendecomposition.
    """

    e: float
    delta: float
    iterations: int
    residual: float
    k_eigs: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class LslRate:
    """Deterministic-equivalent rates: both links' MI and their clamped gap,
    plus the fixed points they were computed from."""

    i_main: float
    i_eave: float
    fp_main: FixedPoint
    fp_eave: FixedPoint

    @property
    def rs(self) -> float:
        return max(0.0, self.i_main - self.i_eave)


def solve_fixed_point(stats: ChannelStatistics, p: np.ndarray) -> FixedPoint:
    """Solve e = (rho/N) tr{R(I+dR)^-1}, d = (rho/M) tr{K(I+b e K)^-1}.

    K is the symmetrized T^(1/2) P T^(1/2); its eigenvalues, clipped at
    0, come from stats.k_eigs, the solve's only eigendecomposition, and
    are returned as k_eigs (one below -1e-12 raises NotPsd). The first
    equation gives e as an explicit function e(d), which turns the pair
    into the scalar equation

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
    k_eigs = stats.k_eigs(p)

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
            return FixedPoint(e=float(e), delta=float(delta), iterations=it, residual=float(residual), k_eigs=k_eigs)
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


def lsl_mutual_information(stats: ChannelStatistics, fp: FixedPoint) -> float:
    """Deterministic-equivalent ergodic MI, nats per transmit antenna.

    (1/M) ln det(I + b e K) + (1/M) ln det(I + d R) - (b/rho) d e, with
    K = T^(1/2) P T^(1/2) (same determinant as T P, but guaranteed HPD)
    for the precoder P that fp was solved for.
    """
    rho, beta, m = stats.snr, stats.beta, stats.num_tx
    if rho == 0.0:
        return 0.0
    term_t = np.sum(np.log1p(beta * fp.e * fp.k_eigs))
    term_r = np.sum(np.log1p(fp.delta * stats.r_eigs))
    return float((term_t + term_r) / m - (beta / rho) * fp.delta * fp.e)


def lsl_secrecy_rate(stats_m: ChannelStatistics, stats_e: ChannelStatistics, p: np.ndarray) -> LslRate:
    """Clamped difference of both links' deterministic-equivalent MIs."""
    if stats_m.num_tx != stats_e.num_tx:
        raise ValueError("both links must share the transmit antenna count")
    fp_m = solve_fixed_point(stats_m, p)
    fp_e = solve_fixed_point(stats_e, p)
    return LslRate(
        i_main=lsl_mutual_information(stats_m, fp_m),
        i_eave=lsl_mutual_information(stats_e, fp_e),
        fp_main=fp_m,
        fp_eave=fp_e,
    )

"""Transmit covariance construction: isotropic, water-filling and
GSVD-based beamforming, plus the outer loop that couples the precoder to
the large-system statistics.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .detequiv import LslRate, lsl_secrecy_rate
from .errors import AllZeroGains, BisectionFailure, OuterLoopNoConvergence
from .linalg import clip_psd, eigh, gsvd, hermitianize

_TRACE_SLACK = 1e-6
_POWER_TOL = 1e-8
_MU_LO = 1e-12
_MU_HI = 1e12
_BISECT_MAX_ITER = 200
_OUTER_TOL = 1e-9
_OUTER_MAX_ITER = 100


class Strategy(str, enum.Enum):
    ISOTROPIC = "iso"
    WATER_FILLING = "wf"
    GSVD_BEAMFORMING = "gsvd"


@dataclass(frozen=True)
class Precoder:
    """Hermitian PSD transmit covariance with a trace budget of M."""

    p: np.ndarray
    strategy: Strategy
    trace_budget: float

    def __post_init__(self):
        p = clip_psd(np.asarray(self.p, dtype=complex), floor=-1e-10)
        object.__setattr__(self, "p", p)
        trace = float(np.trace(p).real)
        if trace > self.trace_budget + _TRACE_SLACK:
            raise ValueError(f"trace {trace:.6f} exceeds budget {self.trace_budget}")


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subchannel power levels and the water level / multiplier mu."""

    levels: np.ndarray
    mu: float


def isotropic_precoder(m: int) -> Precoder:
    """Identity covariance: spend the budget uniformly in all directions."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Precoder(p=np.eye(m, dtype=complex), strategy=Strategy.ISOTROPIC, trace_budget=float(m))


def waterfill_levels(gains, budget: float) -> PowerAllocation:
    """Exact water-filling over parallel subchannels with power gains.

    levels[i] = max(0, 1/mu - 1/gains[i]), with mu fixed by the budget
    through an active-set computation (no numerical search).
    """
    gains = np.asarray(gains, dtype=float)
    if budget <= 0:
        raise ValueError("budget must be > 0")
    positive = gains > 0
    if not positive.any():
        raise AllZeroGains("water-filling needs at least one positive gain")

    order = np.argsort(-gains)
    sorted_gains = gains[order]
    k_max = int(positive.sum())
    inv = 1.0 / sorted_gains[:k_max]
    # Largest active set whose common water level clears its worst channel.
    level = None
    for k in range(k_max, 0, -1):
        candidate = (budget + inv[:k].sum()) / k
        if candidate > inv[k - 1]:
            level = candidate
            active = k
            break
    assert level is not None  # k = 1 always qualifies
    levels_sorted = np.zeros_like(gains)
    levels_sorted[:active] = level - inv[:active]
    levels = np.zeros_like(gains)
    levels[order] = levels_sorted
    return PowerAllocation(levels=levels, mu=1.0 / level)


def waterfill_precoder(stats_m: ChannelStatistics, em: float, literal_gains: bool = False) -> Precoder:
    """Water-filling over the main channel's effective statistics.

    Gains default to the eigenvalues of beta*em*T (the KKT-consistent
    squared singular values). literal_gains=True instead uses the
    unsquared singular values sqrt(beta*em*lambda), for comparison.
    """
    if em <= 0:
        raise ValueError("em must be > 0")
    m = stats_m.num_tx
    lam, q = eigh(stats_m.t_corr)
    gains = stats_m.beta * em * np.clip(lam, 0.0, None)
    if literal_gains:
        gains = np.sqrt(gains)
    alloc = waterfill_levels(gains, float(m))
    p = hermitianize((q * alloc.levels) @ q.conj().T)
    return Precoder(p=p, strategy=Strategy.WATER_FILLING, trace_budget=float(m))


def gsvd_power_allocation(sigma_m2, sigma_e2, v_diag, budget: float, mu: float) -> np.ndarray:
    """Closed-form per-subchannel powers for GSVD beamforming at a given mu.

    Subchannels where the main-channel share does not exceed the
    eavesdropper's get zero power; a negative discriminant likewise
    means the subchannel cannot pay for itself at this mu.
    """
    sm = np.asarray(sigma_m2, dtype=float)
    se = np.asarray(sigma_e2, dtype=float)
    v = np.asarray(v_diag, dtype=float)
    if mu <= 0:
        raise ValueError("mu must be > 0")
    gain = (sm - se) / (np.log(2.0) * mu * v)
    prod = sm * se
    quadratic = prod > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = 1.0 - 4.0 * prod + 4.0 * prod * gain
        root = (-1.0 + np.sqrt(disc)) / (2.0 * prod)
    # sigma_e -> 0 limit (prod <= 1e-14): the quadratic degenerates to linear.
    levels = np.where(quadratic, np.where(disc > 0, root, 0.0), gain - 1.0)
    return np.where(sm > se, np.maximum(0.0, levels), 0.0)


def gsvd_precoder(
    stats_m: ChannelStatistics,
    stats_e: ChannelStatistics,
    em: float,
    ee: float,
) -> Precoder:
    """GSVD beamforming covariance with bisected power multiplier.

    Factorizes the two effective transmit square roots jointly, allocates
    power over the resulting parallel subchannels, and maps the diagonal
    allocation back through V^-H. Returns the zero covariance when no
    subchannel favors the legitimate receiver.
    """
    m = stats_m.num_tx
    a = np.sqrt(stats_m.beta * em) * stats_m.t_sqrt
    b = np.sqrt(stats_e.beta * ee) * stats_e.t_sqrt
    fact = gsvd(a, b)
    sm2 = fact.sigma_m**2
    se2 = fact.sigma_e**2
    v_diag = fact.v_inv_gram_diag
    budget = float(m)

    # Rounding can split an exact sigma tie by ~1e-16; such subchannels
    # carry no secrecy gain and must not count as active.
    if not np.any(sm2 > se2 + 1e-12):
        return Precoder(p=np.zeros((m, m), dtype=complex), strategy=Strategy.GSVD_BEAMFORMING, trace_budget=budget)

    def total_power(mu: float) -> float:
        return float(np.dot(gsvd_power_allocation(sm2, se2, v_diag, budget, mu), v_diag))

    lo, hi = _MU_LO, _MU_HI
    if total_power(lo) < budget or total_power(hi) > budget:
        raise BisectionFailure("power budget not bracketed by the mu search range")
    for _ in range(_BISECT_MAX_ITER):
        mu = np.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
        levels = gsvd_power_allocation(sm2, se2, v_diag, budget, mu)
        excess = float(np.dot(levels, v_diag)) - budget
        if abs(excess) <= _POWER_TOL:
            break
        if excess > 0:
            lo = mu
        else:
            hi = mu
    else:
        raise BisectionFailure(f"residual power mismatch {excess:.3e}")

    v_inv = np.linalg.inv(fact.v)
    p = hermitianize(v_inv.conj().T @ np.diag(levels.astype(complex)) @ v_inv)
    return Precoder(p=p, strategy=Strategy.GSVD_BEAMFORMING, trace_budget=budget)


def optimize(
    strategy: Strategy,
    stats_m: ChannelStatistics,
    stats_e: ChannelStatistics,
) -> tuple[Precoder, LslRate, int]:
    """Alternate fixed-point statistics and precoder design until the
    secrecy rate stabilizes. Returns (precoder, rate, outer iterations).

    Each precoder matrix determines the next one, so a matrix that
    recurs bit for bit puts the loop on a cycle whose steps have all
    failed the convergence test: it would run to the cap. The loop then
    stops and returns the cycle's state at the cap, the same result as
    iterating there.
    """
    strategy = Strategy(strategy)
    m = stats_m.num_tx
    precoder = isotropic_precoder(m)
    rate = lsl_secrecy_rate(stats_m, stats_e, precoder)
    if strategy is Strategy.ISOTROPIC:
        return precoder, rate, 1

    history = [(precoder, rate)]
    first_seen = {precoder.p.tobytes(): 0}
    for it in range(1, _OUTER_MAX_ITER + 1):
        # rate holds the fixed points solved for the current precoder.
        if strategy is Strategy.WATER_FILLING:
            new_precoder = waterfill_precoder(stats_m, rate.fp_main.e)
        else:
            new_precoder = gsvd_precoder(stats_m, stats_e, rate.fp_main.e, rate.fp_eave.e)
        new_rate = lsl_secrecy_rate(stats_m, stats_e, new_precoder)
        converged = abs(new_rate.rs - rate.rs) < _OUTER_TOL
        precoder, rate = new_precoder, new_rate
        if converged:
            return precoder, rate, it
        start = first_seen.setdefault(precoder.p.tobytes(), it)
        if start != it:
            precoder, rate = history[start + (_OUTER_MAX_ITER - start) % (it - start)]
            break
        history.append((precoder, rate))
    warnings.warn("outer precoder loop hit its iteration cap", OuterLoopNoConvergence)
    return precoder, rate, _OUTER_MAX_ITER

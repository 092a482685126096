"""Transmit covariance construction: isotropic, water-filling and
GSVD-based beamforming, plus the outer loop that couples the precoder to
the large-system statistics.

A precoder is its covariance: a Hermitian PSD (M, M) complex matrix
with trace at most M.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelStatistics
from .detequiv import LslRate, lsl_secrecy_rate
from .errors import AllZeroGains, BisectionFailure, OuterLoopNoConvergence
from .linalg import congruence, gsvd

_TRACE_SLACK = 1e-6
_POWER_TOL = 1e-8
_MU_LO = 1e-12
_MU_HI = 1e12
_OUTER_TOL = 1e-9
_OUTER_MAX_ITER = 100
_LN2 = np.log(2.0)


class Strategy(str, enum.Enum):
    ISOTROPIC = "iso"
    WATER_FILLING = "wf"
    GSVD_BEAMFORMING = "gsvd"


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subchannel power levels and the water level / multiplier mu."""

    levels: np.ndarray
    mu: float


def _within_budget(p: np.ndarray) -> np.ndarray:
    """Return a designed covariance after checking its trace against M.

    No PSD clip follows: the designs are Hermitian PSD up to roundoff
    (eigenvalues >= -3.5e-15 over the presets and 20 stress passes),
    far above the -1e-12 floor that psd_eigh enforces.
    """
    budget = float(p.shape[0])
    trace = float(np.trace(p).real)
    if trace > budget + _TRACE_SLACK:
        raise ValueError(f"trace {trace:.6f} exceeds budget {budget}")
    return p


def isotropic_precoder(m: int) -> np.ndarray:
    """Identity covariance: spend the budget uniformly in all directions."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.eye(m, dtype=complex)


def waterfill_levels(gains, budget: float) -> PowerAllocation:
    """Exact water-filling over parallel subchannels with power gains.

    levels[i] = max(0, 1/mu - 1/gains[i]), with mu fixed by the budget
    through an active-set computation (no numerical search). A gain whose
    reciprocal overflows, such as a subnormal one, counts as zero.
    """
    gains = np.asarray(gains, dtype=float)
    if budget <= 0:
        raise ValueError("budget must be > 0")
    k_max = int(np.count_nonzero(gains > 1.0 / np.finfo(float).max))
    if k_max == 0:
        raise AllZeroGains("water-filling needs a gain whose reciprocal is finite")

    order = np.argsort(-gains)
    inv = 1.0 / gains[order[:k_max]]
    # Water level of each active set of the k strongest channels; the
    # largest set whose level clears its worst channel is the answer.
    water = (budget + np.cumsum(inv)) / np.arange(1, k_max + 1)
    clears = water > inv
    clears[0] = True  # exact for k = 1, unless budget + inv[0] rounds to inv[0]
    active = int(np.flatnonzero(clears)[-1]) + 1
    level = water[active - 1]
    levels = np.zeros_like(gains)
    levels[order[:active]] = level - inv[:active]
    return PowerAllocation(levels=levels, mu=1.0 / level)


def waterfill_precoder(stats_m: ChannelStatistics, em: float) -> np.ndarray:
    """Water-filling over the main channel's effective statistics.

    Gains are the eigenvalues of beta*em*T (the KKT-consistent squared
    singular values). em = 0 only at rho = 0, where no gain is positive
    and waterfill_levels raises AllZeroGains.
    """
    lam, q = stats_m.t_eigh
    gains = stats_m.beta * em * lam
    alloc = waterfill_levels(gains, float(stats_m.num_tx))
    return _within_budget(congruence(q, alloc.levels))


class SubchannelTerms(NamedTuple):
    """The mu-independent arrays of the GSVD power allocation: for squared
    generalized singular values sm, se and power costs v, diff = sm - se,
    the multiples of p = sm * se that the closed form reads, and its two
    masks. gsvd_precoder builds them once per call, not once per mu."""

    diff: np.ndarray
    v: np.ndarray
    quadratic: np.ndarray
    one_minus_4p: np.ndarray
    four_p: np.ndarray
    two_p: np.ndarray
    active: np.ndarray


def subchannel_terms(sigma_m2, sigma_e2, v_diag) -> SubchannelTerms:
    """The allocation's terms, grouped as its closed form evaluates them."""
    sm = np.asarray(sigma_m2, dtype=float)
    se = np.asarray(sigma_e2, dtype=float)
    prod = sm * se
    four_p = 4.0 * prod
    return SubchannelTerms(
        diff=sm - se,
        v=np.asarray(v_diag, dtype=float),
        quadratic=prod > 1e-14,
        one_minus_4p=1.0 - four_p,
        four_p=four_p,
        two_p=2.0 * prod,
        active=sm > se,
    )


def gsvd_power_allocation(terms: SubchannelTerms, mu: float) -> np.ndarray:
    """Closed-form per-subchannel powers for GSVD beamforming at a given mu.

    Subchannels where the main-channel share does not exceed the
    eavesdropper's get zero power; a negative discriminant likewise
    means the subchannel cannot pay for itself at this mu.
    """
    if mu <= 0:
        raise ValueError("mu must be > 0")
    gain = terms.diff / (_LN2 * mu * terms.v)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = terms.one_minus_4p + terms.four_p * gain
        root = (-1.0 + np.sqrt(disc)) / terms.two_p
    # sigma_e -> 0 limit (prod <= 1e-14): the quadratic degenerates to linear.
    levels = np.where(terms.quadratic, np.where(disc > 0, root, 0.0), gain - 1.0)
    return np.where(terms.active, np.maximum(0.0, levels), 0.0)


def gsvd_precoder(
    stats_m: ChannelStatistics,
    stats_e: ChannelStatistics,
    em: float,
    ee: float,
) -> np.ndarray:
    """GSVD beamforming covariance with bisected power multiplier.

    Factorizes the two effective transmit square roots jointly, allocates
    power over the resulting parallel subchannels, and maps the diagonal
    allocation back through V^-H. Returns the zero covariance when no
    subchannel favors the legitimate receiver. Each bisection step stops
    or strictly shrinks the bracket, so no mu is evaluated twice; once the
    midpoint rounds onto an end of the bracket, BisectionFailure is raised.
    """
    m = stats_m.num_tx
    a = np.sqrt(stats_m.beta * em) * stats_m.t_sqrt
    b = np.sqrt(stats_e.beta * ee) * stats_e.t_sqrt
    sigma_m, sigma_e, x = gsvd(a, b)
    sm2 = sigma_m**2
    se2 = sigma_e**2
    # P = X diag(levels) Xᴴ has trace sum_i levels[i] ||x_i||², so the
    # squared column norms of X are the subchannels' power costs.
    v_diag = np.einsum("ij,ij->j", x, x.conj()).real

    # Rounding can split an exact sigma tie by ~1e-16; such subchannels
    # carry no secrecy gain and must not count as active.
    if not np.any(sm2 > se2 + 1e-12):
        return np.zeros((m, m), dtype=complex)

    terms = subchannel_terms(sm2, se2, v_diag)
    lo, hi = _MU_LO, _MU_HI
    mu = np.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
    while lo < mu < hi:
        levels = gsvd_power_allocation(terms, mu)
        excess = float(np.dot(levels, v_diag)) - m  # the trace budget is M
        if abs(excess) <= _POWER_TOL:
            return _within_budget(congruence(x, levels))
        if excess > 0:
            lo = mu
        else:
            hi = mu
        mu = np.sqrt(lo * hi)
    raise BisectionFailure(f"power budget not met for mu in [{_MU_LO:g}, {_MU_HI:g}]; last excess {excess:.3e}")


def optimize(strategy: Strategy, start: LslRate) -> tuple[np.ndarray, LslRate, int]:
    """Alternate fixed-point statistics and precoder design until the
    secrecy rate stabilizes. Returns (covariance, rate, outer iterations).

    start is the rate at the isotropic precoder,
    lsl_secrecy_rate(stats_m, stats_e, isotropic_precoder(M)); the links'
    stats are read from its fixed points, and every strategy at a point
    can share it. iso returns (I, start, 1).

    Each precoder matrix determines the next one, so a matrix that
    recurs bit for bit puts the loop on a cycle whose steps have all
    failed the convergence test: it would run to the cap. The loop then
    stops and returns the cycle's state at the cap, the same result as
    iterating there.
    """
    strategy = Strategy(strategy)
    stats_m, stats_e = start.fp_main.stats, start.fp_eave.stats
    p, rate = isotropic_precoder(stats_m.num_tx), start
    if strategy is Strategy.ISOTROPIC:
        return p, rate, 1

    history = [(p, rate)]
    first_seen = {p.tobytes(): 0}
    for it in range(1, _OUTER_MAX_ITER + 1):
        # rate holds the fixed points solved for the current p.
        if strategy is Strategy.WATER_FILLING:
            new_p = waterfill_precoder(stats_m, rate.fp_main.e)
        else:
            new_p = gsvd_precoder(stats_m, stats_e, rate.fp_main.e, rate.fp_eave.e)
        new_rate = lsl_secrecy_rate(stats_m, stats_e, new_p)
        converged = abs(new_rate.rs - rate.rs) < _OUTER_TOL
        p, rate = new_p, new_rate
        if converged:
            return p, rate, it
        start = first_seen.setdefault(p.tobytes(), it)
        if start != it:
            p, rate = history[start + (_OUTER_MAX_ITER - start) % (it - start)]
            break
        history.append((p, rate))
    warnings.warn("outer precoder loop hit its iteration cap", OuterLoopNoConvergence)
    return p, rate, _OUTER_MAX_ITER

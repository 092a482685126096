"""Transmit covariance construction: isotropic, water-filling and
GSVD-based beamforming, plus the outer loop that couples the precoder to
the large-system statistics.

A precoder is its covariance: a Hermitian PSD (M, M) complex matrix
with trace at most M.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelStatistics
from .detequiv import LslRate, lsl_secrecy_rates
from .errors import NUMERICAL_FAILURES, AllZeroGains, BisectionFailure, OuterLoopNoConvergence, as_value
from .linalg import congruence, gsvd

_TRACE_SLACK = 1e-6
_POWER_TOL = 1e-8
_MU_LO = 1e-12
_MU_HI = 1e12
# The Newton search that lets the bisection skip steps aims at a power
# excess of +-_NEWTON_AIM * _POWER_TOL, takes an end whose excess is
# within _NEWTON_TIGHT * _POWER_TOL as close enough, and gives up after
# _NEWTON_MAX_STEPS evaluations.
_NEWTON_AIM = 1.1
_NEWTON_TIGHT = 1.5
_NEWTON_MAX_STEPS = 60
_OUTER_TOL = 1e-9
_OUTER_MAX_ITER = 100
_LN2 = math.log(2.0)


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
    masks. two_p is 1 where the subchannel is linear (p <= 1e-14), so the
    quadratic root computed and discarded there stays finite.
    gsvd_precoder builds them once per call, not once per mu."""

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
    quadratic = prod > 1e-14
    return SubchannelTerms(
        diff=sm - se,
        v=np.asarray(v_diag, dtype=float),
        quadratic=quadratic,
        one_minus_4p=1.0 - four_p,
        four_p=four_p,
        two_p=np.where(quadratic, 2.0 * prod, 1.0),
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
    disc = terms.one_minus_4p + terms.four_p * gain
    # A non-positive discriminant gives the root -1/(2p) < 0, clipped to 0.
    root = (-1.0 + np.sqrt(np.maximum(disc, 0.0))) / terms.two_p
    # sigma_e -> 0 limit (prod <= 1e-14): the quadratic degenerates to linear.
    levels = np.where(terms.quadratic, root, gain - 1.0)
    return np.where(terms.active, np.maximum(0.0, levels), 0.0)


def _power_excess(terms: SubchannelTerms, m: int, mu: float, evaluated: dict) -> tuple[np.ndarray, float]:
    """(levels, power minus the trace budget M) at mu, allocated once per mu."""
    if mu not in evaluated:
        levels = gsvd_power_allocation(terms, mu)
        evaluated[mu] = levels, float(np.dot(levels, terms.v)) - m
    return evaluated[mu]


def _newton_step(terms: SubchannelTerms, mu: float, levels: np.ndarray, excess: float, target: float) -> float:
    """The Newton step from mu towards excess = target, or NaN.

    d excess / d log mu = -slope / (ln2 mu) and d excess / d (1/mu) =
    slope / ln2, where slope sums diff / (1 + 2 p level) over the powered
    subchannels. The excess is convex in log mu and, but for the kinks
    where a subchannel switches on, concave in 1/mu, so a step from above
    the target is taken in log mu and one from below in 1/mu: either
    lands on its own side of the target.
    """
    if not math.isfinite(excess):
        return math.nan
    slope = float(np.dot(terms.diff / (1.0 + 0.5 * terms.four_p * levels), levels > 0))
    if not slope > 0:
        return math.nan
    if excess > target:
        return mu * math.exp(min((excess - target) * _LN2 * mu / slope, 700.0))
    return 1.0 / (1.0 / mu + (target - excess) * _LN2 / slope)


def _newton_bracket(terms: SubchannelTerms, m: int, evaluated: dict) -> tuple[float, float]:
    """Evaluated multipliers over < under whose power excess is above +tol
    at over and below -tol at under; 0 and inf stand for no such point.

    Newton steps aim just outside the band |excess| <= tol, first on the
    side of the current point, then on the other, until the excess at
    both ends is within _NEWTON_TIGHT * tol. The first point is the root
    of the linear model with every active subchannel powered, exact when
    all of them are linear and powered. A step that leaves (over, under)
    or repeats a point is replaced by the geometric midpoint, and the
    search ends when that fails too: any evaluated ends are valid.
    """
    active = terms.active
    mu = float(np.sum(terms.diff[active]) / (_LN2 * (m + np.sum(terms.v[active]))))
    over, under = 0.0, math.inf
    excess_over, excess_under = math.inf, -math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        if not over < mu < under or mu in evaluated:
            mu = math.sqrt(over) * math.sqrt(under)
            if not over < mu < under or mu in evaluated:
                break
        levels, excess = _power_excess(terms, m, mu, evaluated)
        if excess > _POWER_TOL:
            over, excess_over = mu, excess
        elif excess < -_POWER_TOL:
            under, excess_under = mu, excess
        need_over = excess_over > _NEWTON_TIGHT * _POWER_TOL
        need_under = excess_under < -_NEWTON_TIGHT * _POWER_TOL
        if need_over and (excess > 0 or not need_under):
            mu = _newton_step(terms, mu, levels, excess, _NEWTON_AIM * _POWER_TOL)
        elif need_under:
            mu = _newton_step(terms, mu, levels, excess, -_NEWTON_AIM * _POWER_TOL)
        else:
            break
    return over, under


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
    subchannel favors the legitimate receiver.

    mu is where a bisection of log mu over [_MU_LO, _MU_HI] first finds
    the allocation's power within _POWER_TOL of the budget M. A Newton
    search (_newton_bracket) first evaluates a mu = over whose power
    excess is above +tol and a mu = under whose excess is below -tol, both
    close to the root. The bisection then takes every step at mu <= over
    or mu >= under without evaluating it: such a step raises the lower end
    or lowers the upper end of the bracket. These skips are exact. Every
    operation of gsvd_power_allocation and of the dot product with the
    power costs is correctly rounded and monotone in mu, so the computed
    excess never increases with mu, and the bisection would have taken
    the same branch at each skipped step. The stop, the covariance and
    every BisectionFailure message are thus those of the bisection that
    evaluates each step. Each step stops or strictly shrinks the bracket,
    and no mu is evaluated twice; once the midpoint rounds onto an end of
    the bracket, BisectionFailure reports the excess at the last midpoint.
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
    evaluated = {}
    over, under = _newton_bracket(terms, m, evaluated)
    lo, hi = _MU_LO, _MU_HI
    mu = math.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
    while lo < mu < hi:
        last = mu
        if over < mu < under:
            levels, excess = _power_excess(terms, m, mu, evaluated)
            if abs(excess) <= _POWER_TOL:
                return _within_budget(congruence(x, levels))
        else:  # decided by the Newton search, which knows only the sign
            excess = math.inf if mu <= over else -math.inf
        if excess > 0:
            lo = mu
        else:
            hi = mu
        mu = math.sqrt(lo * hi)
    excess = _power_excess(terms, m, last, evaluated)[1]
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

    This is the one-start case of optimize_many.
    """
    (result,) = optimize_many([(strategy, start)])
    if isinstance(result, Exception):
        raise result
    return result


def optimize_many(jobs: Sequence[tuple[Strategy, LslRate]]) -> list[tuple[np.ndarray, LslRate, int] | Exception]:
    """optimize(strategy, start) of every (strategy, start) in jobs, with
    all their outer loops in lockstep.

    Each outer iteration designs the next precoder of every running
    loop, then solves both links at all of them in one
    lsl_secrecy_rates call. A loop leaves the lockstep when it converges,
    reaches a cycle or fails, and each keeps its own cap, cycle detection
    and OuterLoopNoConvergence warning; the cycle replay stays until the
    benchmark stops pinning it (ROADMAP items 1 and 3). Returns, in the
    order of jobs, what optimize returns for each, or the numerical
    failure it would raise (a WiretapError or a LinAlgError), without its
    traceback; any other exception propagates.
    """
    results = [None] * len(jobs)
    running = []
    for slot, (strategy, start) in enumerate(jobs):
        loop = _OuterLoop(Strategy(strategy), start)
        if loop.strategy is Strategy.ISOTROPIC:
            results[slot] = loop.p, start, 1
        else:
            running.append((slot, loop))
    for it in range(1, _OUTER_MAX_ITER + 1):
        if not running:
            break
        designed = []
        for slot, loop in running:
            try:
                designed.append((slot, loop, loop.design()))
            except NUMERICAL_FAILURES as exc:
                results[slot] = as_value(exc)
        rates = lsl_secrecy_rates([(loop.stats_m, loop.stats_e, p) for _, loop, p in designed])
        running = []
        for (slot, loop, p), rate in zip(designed, rates):
            outcome = rate if isinstance(rate, Exception) else loop.advance(it, p, rate)
            if outcome is None:
                running.append((slot, loop))
            else:
                results[slot] = outcome
    for slot, loop in running:
        results[slot] = _capped(loop.p, loop.rate)
    return results


class _OuterLoop:
    """One optimize call between outer iterations: the current precoder
    and its rate, and the precoders seen so far."""

    def __init__(self, strategy: Strategy, start: LslRate):
        self.strategy = strategy
        self.stats_m, self.stats_e = start.fp_main.stats, start.fp_eave.stats
        self.p, self.rate = isotropic_precoder(self.stats_m.num_tx), start
        self.history = [(self.p, self.rate)]
        self.first_seen = {self.p.tobytes(): 0}

    def design(self) -> np.ndarray:
        """The next precoder; rate holds the fixed points solved for p."""
        if self.strategy is Strategy.WATER_FILLING:
            return waterfill_precoder(self.stats_m, self.rate.fp_main.e)
        return gsvd_precoder(self.stats_m, self.stats_e, self.rate.fp_main.e, self.rate.fp_eave.e)

    def advance(self, it: int, p: np.ndarray, rate: LslRate) -> tuple[np.ndarray, LslRate, int] | None:
        """Move to outer iteration it's precoder p and its rate; return
        optimize's result if the loop stops there, else None."""
        converged = abs(rate.rs - self.rate.rs) < _OUTER_TOL
        self.p, self.rate = p, rate
        if converged:
            return p, rate, it
        start = self.first_seen.setdefault(p.tobytes(), it)
        if start != it:
            return _capped(*self.history[start + (_OUTER_MAX_ITER - start) % (it - start)])
        self.history.append((p, rate))
        return None


def _capped(p: np.ndarray, rate: LslRate) -> tuple[np.ndarray, LslRate, int]:
    warnings.warn("outer precoder loop hit its iteration cap", OuterLoopNoConvergence)
    return p, rate, _OUTER_MAX_ITER

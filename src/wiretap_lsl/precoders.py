"""Transmit covariance construction: isotropic, water-filling and
GSVD-based beamforming, plus the outer loop that couples the precoder to
the large-system statistics.

A precoder is its covariance: a Hermitian PSD (M, M) complex matrix
with trace at most M. The stacked designs return each as a Design, with
the spectra of K = T^(1/2) P T^(1/2) that the design already holds, so
that the solve at it factors no K it need not.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Generator, Sequence
from typing import NamedTuple

import numpy as np

from .channel import ChannelStatistics
from .detequiv import LslRate, lsl_secrecy_rates, shared_num_tx
from .errors import AllZeroGains, BisectionFailure, OuterLoopNoConvergence, OverBudget
from .linalg import congruence, gsvd

_TRACE_SLACK = 1e-6
# A gain at or below this has no finite reciprocal and counts as zero.
_SMALLEST_GAIN = 1.0 / np.finfo(float).max
# The smallest normal float: where 4p c is below it, c is the GSVD level
# to full precision.
_TINY = np.finfo(float).tiny
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


class Design(NamedTuple):
    """A designed precoder: its covariance p, and the eigenvalues of
    K = T^(1/2) p T^(1/2) that the design holds in closed form for the
    main link and for the eavesdropper, ascending, or None where it
    holds none or they are not finite (see detequiv.solve_fixed_points).

    Water-filling works in the main link's T eigenbasis, T = Q diag(lam)
    Qᴴ and p = Q diag(levels) Qᴴ, so the main link's K is
    Q diag(lam levels) Qᴴ; the eavesdropper's T has its own eigenbasis.
    The GSVD maps A = sqrt(b_M e_M) T_M^(1/2) onto U_M diag(sigma_M)
    through X, and p = X diag(levels) Xᴴ, so the main link's K is
    U_M diag(sigma_M^2 levels) U_Mᴴ / (b_M e_M), and likewise for the
    eavesdropper's with sigma_E, b_E and e_E.
    """

    p: np.ndarray
    k_main: np.ndarray | None
    k_eave: np.ndarray | None


def _within_budget(p: np.ndarray) -> list[np.ndarray | OverBudget]:
    """Each designed covariance of a stack (B, M, M), or in its place an
    OverBudget error when its trace exceeds M.

    No PSD clip follows: the designs are Hermitian PSD up to roundoff
    (eigenvalues >= -3.5e-15 over the presets and 20 stress passes),
    far above the -1e-12 floor that psd_eigh enforces.
    """
    budget = float(p.shape[-1])
    traces = np.trace(p, axis1=-2, axis2=-1).real.tolist()
    return [
        cov if trace <= budget + _TRACE_SLACK else OverBudget(f"trace {trace:.6f} exceeds budget {budget}")
        for cov, trace in zip(p, traces)
    ]


def isotropic_precoder(m: int) -> np.ndarray:
    """Identity covariance: spend the budget uniformly in all directions."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.eye(m, dtype=complex)


def waterfill_stack(gains: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray, list[AllZeroGains | None]]:
    """Exact water-filling over parallel subchannels, for each row of
    power gains (B, M) with one budget: the levels (B, M), the water
    levels' reciprocals mu (B,) and, per row, None or the AllZeroGains
    that fails it, whose row of levels and mu are NaN.

    levels[i] = max(0, 1/mu - 1/gains[i]), with mu fixed by the budget
    through an active-set computation (no numerical search). A gain whose
    reciprocal overflows, such as a subnormal one, counts as zero; a row
    with no other gain fails. Each row is sorted on its own, and its
    water levels are a cumsum along the row, which is sequential, so
    every row's results are bit for bit those of the row alone. A gain
    that counts as zero is never inverted, so zero and subnormal gains
    raise no floating-point warning.
    """
    gains = np.asarray(gains, dtype=float)
    count, m = gains.shape
    rank, row = np.arange(m), np.arange(count)[:, None]
    order = np.argsort(-gains, axis=-1)
    ranked = gains[row, order]
    usable = ranked > _SMALLEST_GAIN  # sorted, the usable gains come first
    inv = 1.0 / np.where(usable, ranked, np.inf)
    # Water level of each active set of the k strongest channels; the
    # largest set whose level clears its worst channel is the answer.
    water = (budget + np.cumsum(inv, axis=-1)) / (rank + 1)
    clears = (water > inv) & usable
    clears[:, 0] = True  # exact for k = 1, unless budget + inv[0] rounds to inv[0]
    active = m - np.argmax(clears[:, ::-1], axis=-1)
    level = water[row[:, 0], active - 1]
    levels = np.empty(gains.shape)
    levels[row, order] = np.where(rank < active[:, None], level[:, None] - inv, 0.0)
    mu = 1.0 / level
    failed = ~usable[:, 0]
    message = "water-filling needs a gain whose reciprocal is finite"
    errors = [AllZeroGains(message) if f else None for f in failed.tolist()]
    if failed.any():
        levels[failed], mu[failed] = np.nan, np.nan
    return levels, mu, errors


def waterfill_precoder(stats_m: ChannelStatistics, em: float) -> np.ndarray:
    """Water-filling over the main channel's effective statistics.

    Gains are the eigenvalues of beta*em*T (the KKT-consistent squared
    singular values). em = 0 only at rho = 0, where no gain is positive
    and waterfill_stack fails the row with AllZeroGains. The one-item
    case of waterfill_precoders.
    """
    (result,) = waterfill_precoders([(stats_m, em)])
    if isinstance(result, Exception):
        raise result
    return result.p


def waterfill_precoders(items: Sequence[tuple[ChannelStatistics, float]]) -> list[Design | Exception]:
    """waterfill_precoder of every (stats_m, em) in items as a Design,
    with the main link's spectrum lam * levels, all as one stack: one
    waterfill_stack and one stacked congruence. The links must share M
    (else ValueError, see detequiv.shared_num_tx). An item that fails
    gets, in place of its design, the error that waterfill_precoder
    raises for it."""
    links = [stats for stats, _ in items]
    if shared_num_tx(links) is None:
        return []
    lam = np.stack([stats.transmit.t_eigh[0] for stats in links])
    q = np.stack([stats.transmit.t_eigh[1] for stats in links])
    scale = np.array([stats.beta * em for stats, em in items])
    levels, _, errors = waterfill_stack(scale[:, None] * lam, float(lam.shape[-1]))
    return _covariances(q, levels, errors, (lam * levels, None))


def _covariances(x: np.ndarray, levels: np.ndarray, errors: list, spectra: tuple) -> list[Design | Exception]:
    """Per row of the stacks x (B, M, M) and levels (B, M), its error in
    errors where it has one, and else the Design of the covariance
    X diag(levels) Xᴴ, all from one stacked congruence, or the OverBudget
    error of a covariance whose trace exceeds M. spectra holds, for the
    main link and the eavesdropper, None or the stack (B, M) of K's
    eigenvalues in any order; each design takes its row sorted, or None
    where that row is not finite."""
    results = list(errors)
    good = [j for j, error in enumerate(errors) if error is None]
    if len(good) < len(errors):
        x, levels = x[good], levels[good]
    if good:
        known = [[None] * len(good) if k is None else _ascending(k[good]) for k in spectra]
        for j, p, k_main, k_eave in zip(good, _within_budget(congruence(x, levels)), *known):
            results[j] = p if isinstance(p, Exception) else Design(p, k_main, k_eave)
    return results


def _ascending(k: np.ndarray) -> list[np.ndarray | None]:
    """Each row of a stack (B, M), sorted ascending, or None where it is
    not finite."""
    k = np.sort(k, axis=-1)
    return [row if finite else None for row, finite in zip(k, np.isfinite(k).all(axis=-1).tolist())]


class SubchannelTerms(NamedTuple):
    """The mu-independent arrays of the GSVD power allocation, each
    (..., M): for squared generalized singular values sm, se and power
    costs v, diff = sm - se, v, and four_p = 4p with p = sm * se. A
    subchannel is favored where diff > 0. gsvd_precoders builds them once
    per stack, not once per mu."""

    diff: np.ndarray
    v: np.ndarray
    four_p: np.ndarray

    def rows(self, index) -> SubchannelTerms:
        """The terms of the rows index of a stack."""
        return SubchannelTerms(*(terms[index] for terms in self))


def subchannel_terms(sigma_m2, sigma_e2, v_diag) -> SubchannelTerms:
    """The allocation's terms, grouped as its closed form reads them."""
    sm = np.asarray(sigma_m2, dtype=float)
    se = np.asarray(sigma_e2, dtype=float)
    return SubchannelTerms(diff=sm - se, v=np.asarray(v_diag, dtype=float), four_p=4.0 * (sm * se))


def gsvd_power_allocation(terms: SubchannelTerms, mu) -> np.ndarray:
    """Closed-form per-subchannel powers for GSVD beamforming at a given mu,
    or of each row of stacked terms (B, M) at its own mu (B, 1).

    A subchannel's level is the root x >= 0 of p x^2 + x = c, with
    gain = diff / (ln2 mu v) and c = max(0, gain - 1): zero where the
    main link's share does not exceed the eavesdropper's or cannot pay
    for itself at this mu. It is computed as
    expm1(log1p(4p c) / 2) / (2p), which cancels nowhere, and as c where
    4p c is below the smallest normal float, where c is the root to full
    precision (p = 0 included). Every step is monotone in c (log1p and
    expm1 as measured, see gsvd_precoder), so the level never decreases
    as mu falls.
    """
    if np.less_equal(mu, 0.0).any():
        raise ValueError("mu must be > 0")
    c = np.maximum(terms.diff / (_LN2 * mu * terms.v) - 1.0, 0.0)
    four_pc = terms.four_p * c
    return np.divide(np.expm1(0.5 * np.log1p(four_pc)), 0.5 * terms.four_p, out=c, where=four_pc >= _TINY)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with that of b, (L, M) -> (L,):
    a stack of (1, M) @ (M, 1) products, each the BLAS dot that np.dot
    makes of the two rows alone."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _power_excess(terms: SubchannelTerms, m: int, mu: list[float]) -> tuple[np.ndarray, list[float], list[float]]:
    """The levels (L, M) of the rows of terms at their multipliers mu and,
    per row, its power minus the trace budget M and the slope that a
    Newton step from mu reads: the sum of diff / (1 + 2 p level) over the
    powered subchannels, or NaN where the excess is not finite."""
    levels = gsvd_power_allocation(terms, np.array(mu)[:, None])
    excess = (_row_dots(levels, terms.v) - m).tolist()
    finite = [i for i, x in enumerate(excess) if math.isfinite(x)]
    diff, four_p, powered = terms.diff, terms.four_p, levels
    if len(finite) < len(mu):
        diff, four_p, powered = diff[finite], four_p[finite], powered[finite]
    slope = [math.nan] * len(mu)
    dots = _row_dots(diff / (1.0 + 0.5 * four_p * powered), (powered > 0).astype(float))
    for i, x in zip(finite, dots.tolist()):
        slope[i] = x
    return levels, excess, slope


def _newton_step(mu: float, excess: float, slope: float, target: float) -> float:
    """The Newton step from mu towards excess = target, or NaN.

    d excess / d log mu = -slope / (ln2 mu) and d excess / d (1/mu) =
    slope / ln2. The excess is convex in log mu and, but for the kinks
    where a subchannel switches on, concave in 1/mu, so a step from above
    the target is taken in log mu and one from below in 1/mu: either
    lands on its own side of the target.
    """
    if not slope > 0:
        return math.nan
    if excess > target:
        return mu * math.exp(min((excess - target) * _LN2 * mu / slope, 700.0))
    return 1.0 / (1.0 / mu + (target - excess) * _LN2 / slope)


def _search(diff: np.ndarray, v: np.ndarray, m: int, evaluated: dict) -> Generator:
    """The multiplier search of one row of the terms (its diff and v): a
    generator that yields each mu it evaluates, finds
    (levels, excess, slope) at mu in evaluated when resumed, and returns
    the levels at the mu that gsvd_precoder takes, or the
    BisectionFailure it raises.

    First a Newton search brackets the root: it evaluates a mu = over
    whose power excess is above +tol and a mu = under whose excess is
    below -tol, with 0 and inf for no such point. Its steps aim just
    outside the band |excess| <= tol, first on the side of the current
    point, then on the other, until the excess at both ends is within
    _NEWTON_TIGHT * tol. The first point is the root of the linear
    model with every favored subchannel (diff > 0) powered, exact when
    all of them have p = 0 and are powered. A step that leaves
    (over, under) or repeats a point is replaced by the geometric
    midpoint, and the search ends when that fails too: any evaluated
    ends are valid.

    Then the bisection of log mu over [_MU_LO, _MU_HI] evaluates only
    its steps inside (over, under); see gsvd_precoder.
    """
    favored = diff > 0
    mu = float(np.sum(diff[favored]) / (_LN2 * (m + np.sum(v[favored]))))
    over, under = 0.0, math.inf
    excess_over, excess_under = math.inf, -math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        if not over < mu < under or mu in evaluated:
            mu = math.sqrt(over) * math.sqrt(under)
            if not over < mu < under or mu in evaluated:
                break
        yield mu
        _, excess, slope = evaluated[mu]
        if excess > _POWER_TOL:
            over, excess_over = mu, excess
        elif excess < -_POWER_TOL:
            under, excess_under = mu, excess
        need_over = excess_over > _NEWTON_TIGHT * _POWER_TOL
        need_under = excess_under < -_NEWTON_TIGHT * _POWER_TOL
        if need_over and (excess > 0 or not need_under):
            mu = _newton_step(mu, excess, slope, _NEWTON_AIM * _POWER_TOL)
        elif need_under:
            mu = _newton_step(mu, excess, slope, -_NEWTON_AIM * _POWER_TOL)
        else:
            break

    lo, hi = _MU_LO, _MU_HI
    mu = math.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
    while lo < mu < hi:
        last = mu
        if over < mu < under:
            if mu not in evaluated:
                yield mu
            levels, excess, _ = evaluated[mu]
            if abs(excess) <= _POWER_TOL:
                return levels
        else:  # decided by the Newton search, which knows only the sign
            excess = math.inf if mu <= over else -math.inf
        if excess > 0:
            lo = mu
        else:
            hi = mu
        mu = math.sqrt(lo * hi)
    if last not in evaluated:
        yield last
    return BisectionFailure(
        f"power budget not met for mu in [{_MU_LO:g}, {_MU_HI:g}]; last excess {evaluated[last][1]:.3e}"
    )


def _searches(terms: SubchannelTerms, m: int) -> tuple[np.ndarray, list, list[dict]]:
    """_search of every row of terms (B, M), all in lockstep: each round
    evaluates the multipliers that the waiting searches yield as one
    stack, adds them to their rows' evaluations and resumes those
    searches. Every evaluation is bit for bit the one of its row alone,
    so each search takes the steps it takes alone. Returns the levels
    found (B, M), NaN in a failed row; per row, None or its
    BisectionFailure; and each row's evaluations, mu -> (levels, excess,
    slope)."""
    evaluated = [{} for _ in terms.diff]
    searches = [_search(diff, v, m, ev) for diff, v, ev in zip(terms.diff, terms.v, evaluated)]
    waiting = list(enumerate(searches))
    found, errors = np.full(terms.diff.shape, np.nan), [None] * len(searches)
    asked, rows = list(range(len(searches))), terms
    while waiting:
        asks = []
        for j, search in waiting:
            try:
                asks.append((j, search, next(search)))
            except StopIteration as stop:
                if isinstance(stop.value, Exception):
                    errors[j] = stop.value
                else:
                    found[j] = stop.value
        if asks:
            previous, asked = asked, [j for j, _, _ in asks]
            if asked != previous:
                rows = terms.rows(asked)
            levels, excesses, slopes = _power_excess(rows, m, [mu for _, _, mu in asks])
            for i, (j, _, mu) in enumerate(asks):
                evaluated[j][mu] = levels[i], excesses[i], slopes[i]
        waiting = [(j, search) for j, search, _ in asks]
    return found, errors, evaluated


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
    search (_search) first evaluates a mu = over whose power
    excess is above +tol and a mu = under whose excess is below -tol, both
    close to the root. The bisection then takes every step at mu <= over
    or mu >= under without evaluating it: such a step raises the lower end
    or lowers the upper end of the bracket. These skips are exact if the
    computed excess never increases with mu, for then the bisection would
    have taken the same branch at each skipped step. Their premise is
    that the level is monotone in mu between adjacent floats. Every
    arithmetic operation of gsvd_power_allocation and of the dot product
    with the power costs is correctly rounded, and so monotone; log1p and
    expm1 need not be, since IEEE 754 does not require them to be
    correctly rounded. So the premise is measured, not proven, and a test
    over adjacent floats of mu (TestGsvdSkips) checks it on each platform
    that runs the tests. Given it, the stop, the covariance and
    every BisectionFailure message are those of the bisection that
    evaluates each step. Each step stops or strictly shrinks the bracket,
    and no mu is evaluated twice; once the midpoint rounds onto an end of
    the bracket, BisectionFailure reports the excess at the last midpoint.

    The one-item case of gsvd_precoders.
    """
    (result,) = gsvd_precoders([(stats_m, stats_e, em, ee)])
    if isinstance(result, Exception):
        raise result
    return result.p


def gsvd_precoders(
    items: Sequence[tuple[ChannelStatistics, ChannelStatistics, float, float]],
) -> list[Design | Exception]:
    """gsvd_precoder of every (stats_m, stats_e, em, ee) in items as a
    Design, with both links' spectra sigma^2 levels / (beta e), or zeros
    for the zero covariance, all as one stack: one gsvd, the multiplier
    searches of all of them in lockstep (_searches) and one stacked
    congruence. The links must share M (else ValueError, see
    detequiv.shared_num_tx). An item that fails gets, in place of its
    design, the error that gsvd_precoder raises for it (RankDeficient,
    BisectionFailure, or a LinAlgError from LAPACK)."""
    m = shared_num_tx([stats for main, eave, _, _ in items for stats in (main, eave)])
    if m is None:
        return []
    gain_m = np.array([main.beta * em for main, _, em, _ in items])
    gain_e = np.array([eave.beta * ee for _, eave, _, ee in items])
    a = np.sqrt(gain_m)[:, None, None] * np.stack([main.transmit.t_sqrt for main, _, _, _ in items])
    b = np.sqrt(gain_e)[:, None, None] * np.stack([eave.transmit.t_sqrt for _, eave, _, _ in items])
    sigma_m, sigma_e, x, errors = gsvd(a, b)
    sm2 = sigma_m**2
    se2 = sigma_e**2
    # P = X diag(levels) Xᴴ has trace sum_i levels[i] ||x_i||², so the
    # squared column norms of X are the subchannels' power costs.
    v_diag = np.einsum("bij,bij->bj", x, x.conj()).real

    # Rounding can split an exact sigma tie by ~1e-16; such subchannels
    # carry no secrecy gain and must not count as active.
    favored = (sm2 > se2 + 1e-12).any(-1).tolist()
    results = list(errors)
    powered = []
    for j, (error, any_favored) in enumerate(zip(errors, favored)):
        if error is None and not any_favored:
            results[j] = Design(np.zeros((m, m), dtype=complex), np.zeros(m), np.zeros(m))
        elif error is None:
            powered.append(j)
    if not powered:
        return results
    if len(powered) < len(items):
        x, sm2, se2, v_diag = x[powered], sm2[powered], se2[powered], v_diag[powered]
        gain_m, gain_e = gain_m[powered], gain_e[powered]
    levels, errors, _ = _searches(subchannel_terms(sm2, se2, v_diag), m)
    # e = 0 (rho = 0) leaves a spectrum 0 / 0 or x / 0, which the solve
    # then factors.
    with np.errstate(divide="ignore", invalid="ignore"):
        spectra = sm2 * levels / gain_m[:, None], se2 * levels / gain_e[:, None]
    for j, design in zip(powered, _covariances(x, levels, errors, spectra)):
        results[j] = design
    return results


def optimize(strategy: Strategy, start: LslRate) -> tuple[np.ndarray, LslRate, int]:
    """Alternate fixed-point statistics and precoder design until the
    secrecy rate stabilizes. Returns (covariance, rate, outer iterations).

    start is the rate at the isotropic precoder,
    lsl_secrecy_rate(stats_m, stats_e, isotropic_precoder(M)); the links'
    stats are read from its fixed points, and every strategy at a point
    can share it. iso returns (I, start, 1).

    Each outer iteration solves both links at the new precoder from the
    deltas of the rate before it (solve_fixed_point's start); the solve
    at the isotropic start stays cold. So a precoder matrix and the two
    deltas it is solved from determine the next matrix and deltas, and
    a state that recurs bit for bit puts the loop on a cycle whose steps
    have all failed the convergence test: it would run to the cap. The
    loop then stops and returns the cycle's state at the cap, the same
    result as iterating there.

    This is the one-start case of optimize_many.
    """
    (result,) = optimize_many([(strategy, start)])
    if isinstance(result, Exception):
        raise result
    return result


def optimize_many(jobs: Sequence[tuple[Strategy, LslRate]]) -> list[tuple[np.ndarray, LslRate, int] | Exception]:
    """optimize(strategy, start) of every (strategy, start) in jobs, with
    all their outer loops in lockstep. The links of every start must
    share M (else ValueError, see detequiv.shared_num_tx).

    Each outer iteration designs the next precoder of every running
    loop, those of each strategy as one stack, then solves both links
    at all of them in one lsl_secrecy_rates call, each link from
    its loop's previous delta and with the spectrum of K that its design
    holds: only the water-filling eavesdropper's K is factored. A loop
    leaves the lockstep when it converges, reaches a cycle or fails, and
    each keeps its own cap, cycle detection and OuterLoopNoConvergence
    warning; the cycle replay stays until the benchmark stops pinning it
    (ROADMAP items 1 and 3).
    Returns, in the order of jobs, what optimize returns for each, or
    the numerical failure it would raise (a WiretapError or a
    LinAlgError), without its traceback; any other exception
    propagates.
    """
    shared_num_tx([fp.stats for _, start in jobs for fp in (start.fp_main, start.fp_eave)])
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
        for (slot, loop), design in zip(running, _designs([loop for _, loop in running])):
            if isinstance(design, Exception):
                results[slot] = design
            else:
                designed.append((slot, loop, design))
        rates = lsl_secrecy_rates(
            [(loop.stats_m, loop.stats_e, design.p) for _, loop, design in designed],
            [loop.starts for _, loop, _ in designed],
            [(design.k_main, design.k_eave) for _, _, design in designed],
        )
        running = []
        for (slot, loop, design), rate in zip(designed, rates):
            outcome = rate if isinstance(rate, Exception) else loop.advance(it, design.p, rate)
            if outcome is None:
                running.append((slot, loop))
            else:
                results[slot] = outcome
    for slot, loop in running:
        results[slot] = _capped(loop.p, loop.rate)
    return results


def _designs(loops: list[_OuterLoop]) -> list[Design | Exception]:
    """The next precoder of each loop from the fixed points of its rate,
    with the spectra it knows, or the error that designing it raises:
    the water-filling loops in one waterfill_precoders call and the GSVD
    loops in one gsvd_precoders call, each of them one stack."""
    designs = [None] * len(loops)
    wf = [i for i, loop in enumerate(loops) if loop.strategy is Strategy.WATER_FILLING]
    gs = [i for i, loop in enumerate(loops) if loop.strategy is Strategy.GSVD_BEAMFORMING]
    if wf:
        items = [(loops[i].stats_m, loops[i].rate.fp_main.e) for i in wf]
        for i, p in zip(wf, waterfill_precoders(items)):
            designs[i] = p
    if gs:
        items = [(loops[i].stats_m, loops[i].stats_e, loops[i].rate.fp_main.e, loops[i].rate.fp_eave.e) for i in gs]
        for i, p in zip(gs, gsvd_precoders(items)):
            designs[i] = p
    return designs


class _OuterLoop:
    """One optimize call between outer iterations: the current precoder
    and its rate, and the states seen so far, each a precoder and the
    start deltas of its solve. The isotropic start, solved cold, is not
    one of them: a later state at P = I is solved warm."""

    def __init__(self, strategy: Strategy, start: LslRate):
        self.strategy = strategy
        self.stats_m, self.stats_e = start.fp_main.stats, start.fp_eave.stats
        self.p, self.rate = isotropic_precoder(self.stats_m.num_tx), start
        self.history = [(self.p, self.rate)]
        self.first_seen = {}

    @property
    def starts(self) -> tuple[float, float]:
        """The start deltas of both links' solves at the next precoder."""
        return self.rate.fp_main.delta, self.rate.fp_eave.delta

    def advance(self, it: int, p: np.ndarray, rate: LslRate) -> tuple[np.ndarray, LslRate, int] | None:
        """Move to outer iteration it's precoder p and its rate, solved
        from self.starts; return optimize's result if the loop stops
        there, else None."""
        converged = abs(rate.rs - self.rate.rs) < _OUTER_TOL
        key = p.tobytes(), *self.starts
        self.p, self.rate = p, rate
        if converged:
            return p, rate, it
        start = self.first_seen.setdefault(key, it)
        if start != it:
            return _capped(*self.history[start + (_OUTER_MAX_ITER - start) % (it - start)])
        self.history.append((p, rate))
        return None


def _capped(p: np.ndarray, rate: LslRate) -> tuple[np.ndarray, LslRate, int]:
    warnings.warn("outer precoder loop hit its iteration cap", OuterLoopNoConvergence)
    return p, rate, _OUTER_MAX_ITER

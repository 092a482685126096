"""Shared test fixtures."""

import math

import numpy as np

from wiretap_lsl import detequiv, experiment, montecarlo, precoders
from wiretap_lsl.channel import ChannelStatistics, Transmit, sample_channel_block
from wiretap_lsl.detequiv import FixedPoint, lsl_secrecy_rates
from wiretap_lsl.errors import (
    AllZeroGains,
    BisectionFailure,
    NoConvergence,
    NotPsd,
    OverBudget,
    RankDeficient,
    WiretapError,
)
from wiretap_lsl.linalg import congruence, gsvd
from wiretap_lsl.precoders import gsvd_power_allocation, isotropic_precoder, subchannel_terms, waterfill_stack


def iid_stats(snr, n, m):
    """Uncorrelated link: T = I (M x M), with N receive antennas."""
    return ChannelStatistics(snr=snr, transmit=Transmit(np.eye(m)), num_rx=n)


def link_channels(stats, k_eigs, count, rng):
    """The channels G = W diag(sqrt((rho/2M) k)) of the links stats at the
    spectra k_eigs, on one block of count draws of W from
    sample_channel_block with the rows of the tallest link, stacked by
    rows, (count, sum of the N, M): each link scales W's first N rows.
    Monte Carlo builds the Gram matrices of these channels."""
    weights = montecarlo._column_weights(stats, k_eigs)
    w = sample_channel_block(count, max(s.num_rx for s in stats), stats[0].num_tx, rng)
    return np.concatenate([np.sqrt(v) * w[:, : s.num_rx] for s, v in zip(stats, weights)], axis=1)


def per_m(batched, items):
    """batched, a batched call of the solve or the designs, over items of
    mixed M, one batch per M: one call on the items whose first link has
    that M, in their order. The results in the order of items."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(item[0].num_tx, []).append(i)
    results = [None] * len(items)
    for slots in groups.values():
        for i, result in zip(slots, batched([items[i] for i in slots])):
            results[i] = result
    return results


def isotropic_start(stats_m, stats_e):
    """Both links solved at P = I, K's spectrum being T's, as run_sweep
    solves them: the start rate that optimize takes. A failure is
    raised."""
    spectra = [(stats_m.transmit.t_eigh[0], stats_e.transmit.t_eigh[0])]
    (rate,) = lsl_secrecy_rates([(stats_m, stats_e, isotropic_precoder(stats_m.num_tx))], spectra=spectra)
    if isinstance(rate, Exception):
        raise rate
    return rate


def gsvd_pair(a, b):
    """The stacked gsvd of one pair (M, M): its sigma_m, sigma_e and x,
    or its error raised."""
    sigma_m, sigma_e, x, (error,) = gsvd(np.asarray(a)[None], np.asarray(b)[None])
    if error is not None:
        raise error
    return sigma_m[0], sigma_e[0], x[0]


def reference_gsvd(a, b):
    """The GSVD of one pair of square matrices on 2-D arrays, with its
    own two np.linalg.svd calls: the oracle that every pair of a stacked
    gsvd must match byte for byte, RankDeficient messages included."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m = a.shape[0]
    u, sv, yh = np.linalg.svd(np.vstack([a, b]), full_matrices=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise RankDeficient(f"stacked matrix condition {sv[0] / max(sv[-1], 1e-300):.3e}")
    _, sigma_e, wh = np.linalg.svd(u[m:])
    sigma_e = sigma_e[::-1]
    w = wh[::-1].conj().T
    sigma_m = np.linalg.norm(u[:m] @ w, axis=0)
    return sigma_m, sigma_e, (yh.conj().T / sv) @ w


def waterfill_row(gains, budget):
    """waterfill_stack of one gain vector: its row 0 of levels and of mu,
    and its error, None or AllZeroGains."""
    levels, mu, (error,) = waterfill_stack(np.asarray(gains, dtype=float)[None], budget)
    return levels[0], mu[0], error


def reference_waterfill_levels(gains, budget):
    """Water-filling of one gain vector on 1-D arrays, (levels, mu): the
    oracle that every row of waterfill_stack must match byte for byte."""
    gains = np.asarray(gains, dtype=float)
    k_max = int(np.count_nonzero(gains > 1.0 / np.finfo(float).max))
    if k_max == 0:
        raise AllZeroGains("water-filling needs a gain whose reciprocal is finite")
    order = np.argsort(-gains)
    inv = 1.0 / gains[order[:k_max]]
    water = (budget + np.cumsum(inv)) / np.arange(1, k_max + 1)
    clears = water > inv
    clears[0] = True
    active = int(np.flatnonzero(clears)[-1]) + 1
    level = water[active - 1]
    levels = np.zeros_like(gains)
    levels[order[:active]] = level - inv[:active]
    return levels, 1.0 / level


def reference_newton_bracket(terms, m):
    """The Newton search of one row of terms on 1-D arrays, each power
    and slope an np.dot: the oracle of each row of a lockstep search.
    Returns (over, under, evaluations)."""
    tol, aim, tight = precoders._POWER_TOL, precoders._NEWTON_AIM, precoders._NEWTON_TIGHT
    ln2 = math.log(2.0)

    def step(mu, levels, excess, target):
        if not math.isfinite(excess):
            return math.nan
        slope = float(np.dot(terms.diff / (1.0 + 0.5 * terms.four_p * levels), levels > 0))
        if not slope > 0:
            return math.nan
        if excess > target:
            return mu * math.exp(min((excess - target) * ln2 * mu / slope, 700.0))
        return 1.0 / (1.0 / mu + (target - excess) * ln2 / slope)

    active = terms.active
    mu = float(np.sum(terms.diff[active]) / (ln2 * (m + np.sum(terms.v[active]))))
    evaluated = {}
    over, under = 0.0, math.inf
    excess_over, excess_under = math.inf, -math.inf
    for _ in range(precoders._NEWTON_MAX_STEPS):
        if not over < mu < under or mu in evaluated:
            mu = math.sqrt(over) * math.sqrt(under)
            if not over < mu < under or mu in evaluated:
                break
        levels = gsvd_power_allocation(terms, mu)
        excess = float(np.dot(levels, terms.v)) - m
        evaluated[mu] = levels, excess
        if excess > tol:
            over, excess_over = mu, excess
        elif excess < -tol:
            under, excess_under = mu, excess
        need_over = excess_over > tight * tol
        need_under = excess_under < -tight * tol
        if need_over and (excess > 0 or not need_under):
            mu = step(mu, levels, excess, aim * tol)
        elif need_under:
            mu = step(mu, levels, excess, -aim * tol)
        else:
            break
    return over, under, evaluated


def design_spectrum(k):
    """A design's spectrum of K on a 1-D array: sorted ascending, or None
    where it is not finite."""
    k = np.sort(k)
    return k if np.isfinite(k).all() else None


def reference_gsvd_precoder(stats_m, stats_e, em, ee, factors=None):
    """gsvd_precoders' Design of one item, with a bisection that
    evaluates the allocation at every step: the oracle that every element
    of gsvd_precoders must match byte for byte, both links' spectra
    sigma^2 levels / (beta e) and BisectionFailure messages included. It
    takes the GSVD from reference_gsvd, or uses the (sigma_m, sigma_e,
    x) given as factors."""
    m = stats_m.num_tx
    if factors is None:
        a = np.sqrt(stats_m.beta * em) * stats_m.transmit.t_sqrt
        b = np.sqrt(stats_e.beta * ee) * stats_e.transmit.t_sqrt
        factors = reference_gsvd(a, b)
    sigma_m, sigma_e, x = factors
    sm2 = sigma_m**2
    se2 = sigma_e**2
    v_diag = np.einsum("ij,ij->j", x, x.conj()).real

    if not np.any(sm2 > se2 + 1e-12):
        return precoders.Design(np.zeros((m, m), dtype=complex), np.zeros(m), np.zeros(m))

    terms = subchannel_terms(sm2, se2, v_diag)
    lo, hi = precoders._MU_LO, precoders._MU_HI
    mu = np.sqrt(lo * hi)  # mu spans 24 decades; bisect in log scale
    while lo < mu < hi:
        levels = gsvd_power_allocation(terms, mu)
        excess = float(np.dot(levels, v_diag)) - m  # the trace budget is M
        if abs(excess) <= precoders._POWER_TOL:
            p = congruence(x, levels)
            if np.trace(p).real > m + precoders._TRACE_SLACK:
                raise OverBudget(f"trace {np.trace(p).real:.6f} exceeds budget {float(m)}")
            with np.errstate(divide="ignore", invalid="ignore"):
                k_main, k_eave = sm2 * levels / (stats_m.beta * em), se2 * levels / (stats_e.beta * ee)
            return precoders.Design(p, design_spectrum(k_main), design_spectrum(k_eave))
        if excess > 0:
            lo = mu
        else:
            hi = mu
        mu = np.sqrt(lo * hi)
    raise BisectionFailure(
        f"power budget not met for mu in [{precoders._MU_LO:g}, {precoders._MU_HI:g}]; last excess {excess:.3e}"
    )


def reference_mi(stats, e, delta, k_eigs):
    """The deterministic-equivalent MI of one link on 1-D arrays: the
    oracle of FixedPoint.mi, which the batched solve evaluates."""
    rho, beta, m = stats.snr, stats.beta, stats.num_tx
    if rho == 0.0:
        return 0.0
    term_t = np.log1p(beta * e * k_eigs).sum()
    term_r = stats.num_rx * np.log1p(delta)
    return float((term_t + term_r) / m - (beta / rho) * delta * e)


def reference_solve_fixed_point(stats, p, start=None, k_eigs=None):
    """The fixed-point solve of one link on 1-D arrays, from start if it
    lies inside the bracket (0, hi) and from hi otherwise, with K's
    spectrum k_eigs as given, the way a sweep hands a design's, or else
    factored by its own np.linalg.eigh call: the oracle that every
    element of a batched solve must match field for field, k_eigs byte
    for byte, and NotPsd and NoConvergence messages included. It reads
    _FP_MAX_ITER from detequiv, so a test that patches it there patches
    it here."""
    if k_eigs is None:
        k = np.asarray(stats.transmit.t_sqrt @ p @ stats.transmit.t_sqrt, dtype=complex)
        lam = np.linalg.eigh(0.5 * (k + k.conj().T))[0]
        if lam[0] < -1e-12:
            raise NotPsd(f"eigenvalue {lam[0]:.3e} below PSD tolerance")
        k_eigs = np.clip(lam, 0.0, None)
    rho, beta, m = stats.snr, stats.beta, stats.num_tx
    lo, hi = 0.0, (rho / m) * float(k_eigs.sum())
    delta = start if start is not None and 0.0 < start < hi else hi
    residual = np.inf
    for it in range(1, detequiv._FP_MAX_ITER + 1):
        e = rho / (1.0 + delta)  # (rho/N) tr (I + delta I)^-1 at R = I
        k_q = k_eigs / (1.0 + beta * e * k_eigs)
        g = delta - (rho / m) * np.sum(k_q)
        residual = abs(g) / max(1.0, delta)
        if residual <= detequiv._FP_TOL:
            e, delta = float(e), float(delta)
            return FixedPoint(e, delta, it, float(residual), reference_mi(stats, e, delta, k_eigs), k_eigs, stats)
        if g < 0.0:
            lo = delta
        else:
            hi = delta
        de = -e / (1.0 + delta)
        dg = 1.0 + (rho / m) * beta * de * np.sum(k_q**2)
        if dg > 0.0 and lo < delta - g / dg < hi:
            delta -= g / dg
        else:
            delta = 0.5 * (lo + hi)
    raise NoConvergence(f"fixed point residual {residual:.3e} after {detequiv._FP_MAX_ITER} iterations")


def reference_run_sweep(config, include_mc=True):
    """run_sweep one grid point at a time, each strategy optimized on its
    own with optimize(strategy, start), and the point's rates estimated
    by one mc_secrecy_rate call of their own, seeded by the sweep's seed,
    with W as tall as the sweep's tallest receiver: the oracle whose rows
    run_sweep must match, error texts included. It reads build_statistics
    and mc_secrecy_rate from the experiment module and optimize from the
    precoders module, so a test that patches them there patches them
    here."""
    failures = (WiretapError, np.linalg.LinAlgError)
    ln2 = math.log(2.0)
    tallest = max(config.n_main, *(experiment.point_config(config, v).n_eave for v in config.sweep_grid))
    rows = []
    for value in config.sweep_grid:
        try:
            start = isotropic_start(*experiment.build_statistics(experiment.point_config(config, value)))
        except failures as exc:
            rows.extend(experiment._error_row(config, value, strategy, exc) for strategy in config.strategies)
            continue
        # Per strategy: [rate, outer iterations, MC estimate], or the exception.
        outcomes = []
        for strategy in config.strategies:
            try:
                _, rate, iterations = precoders.optimize(strategy, start)
                outcomes.append([rate, iterations, None])
            except failures as exc:
                outcomes.append(exc)
        solved = [outcome for outcome in outcomes if not isinstance(outcome, Exception)]
        if include_mc and solved:
            estimates = experiment.mc_secrecy_rate([o[0] for o in solved], config.mc_realizations, config.seed, tallest)
            for outcome, mc in zip(solved, estimates):
                outcome[2] = mc
        for strategy, outcome in zip(config.strategies, outcomes):
            if not isinstance(outcome, Exception) and isinstance(outcome[2], Exception):
                outcome = outcome[2]
            if isinstance(outcome, Exception):
                rows.append(experiment._error_row(config, value, strategy, outcome))
                continue
            rate, iterations, mc = outcome
            rows.append(
                experiment.SweepRow(
                    sweep_var=config.sweep,
                    sweep_value=value,
                    strategy=strategy.value,
                    rs_lsl_per_antenna_bits=rate.rs / ln2,
                    rs_lsl_total_bits=rate.rs * config.m / ln2,
                    rs_mc_per_antenna_bits=None if mc is None else mc.mean / ln2,
                    rs_mc_std_error=None if mc is None else mc.std_error / ln2,
                    outer_iterations=iterations,
                )
            )
    return experiment.SweepResult(rows=tuple(rows))


def reference_secrecy_estimate(sample):
    """The cross-fitted control-variate estimate of one rate from its
    links' sample, (2, 4, n) as montecarlo._Sampler draws it: for each
    fold k, realizations i with i mod 8 = k, np.linalg.lstsq of the
    difference on an intercept and both links' variates over the other
    folds, with singular values at most 1e-6 of the largest cut; each
    realization's term is its difference less its variates times its
    fold's slopes. Returns (mean, std_error) of the terms, the mean
    clamped at 0: the oracle for mc_secrecy_rate's stacked cross-fit."""
    folds = montecarlo._FOLDS
    n = sample.shape[-1]
    diff = sample[0, 0] - sample[1, 0]
    design = np.column_stack([np.ones(n), sample[:, 1:].reshape(-1, n).T])
    terms = np.empty(n)
    for k in range(folds):
        own = np.arange(n) % folds == k
        coef = np.linalg.lstsq(design[~own], diff[~own], rcond=math.sqrt(montecarlo._RANK_CUT))[0]
        terms[own] = diff[own] - design[own, 1:] @ coef[1:]
    return max(0.0, float(terms.mean())), float(terms.std(ddof=1) / math.sqrt(n))

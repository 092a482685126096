"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import exp1

from helpers import iid_stats, isotropic_start
from wiretap_lsl.detequiv import solve_fixed_point
from wiretap_lsl.experiment import build_statistics, figure_preset, point_config
from wiretap_lsl.linalg import gsvd
from wiretap_lsl.montecarlo import mc_ergodic_mi, mc_secrecy_rate
from wiretap_lsl.precoders import (
    Strategy,
    gsvd_power_allocation,
    optimize,
    subchannel_terms,
    waterfill_levels,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_scalar_fixed_point():
    fp = solve_fixed_point(iid_stats(1.0, 1, 1), np.eye(1))
    err = max(abs(fp.e - GOLDEN), abs(fp.delta - GOLDEN))
    report(1, err <= 1e-9, f"e={fp.e:.12f}, analytic err={err:.2e}")


def test_criterion_02_scalar_lsl_mi():
    # Analytic oracle: MI = 2 ln(1+e) - e^2 at e = (sqrt(5)-1)/2, which
    # is 0.58045763886910... nats (the coarser figure 0.5804581
    # sometimes quoted comes from rounding e to 7 digits).
    mi = solve_fixed_point(iid_stats(1.0, 1, 1), np.eye(1)).mi
    expected = 2.0 * np.log(1.0 + GOLDEN) - GOLDEN**2
    err = abs(mi - expected)
    report(2, err <= 1e-8, f"mi={mi:.10f}, oracle={expected:.10f}, err={err:.2e}")


def test_criterion_03_scalar_rayleigh_oracle():
    est = mc_ergodic_mi(solve_fixed_point(iid_stats(1.0, 1, 1), np.eye(1)), 10**6, seed=12345)
    truth = float(np.e * exp1(1.0))
    z = abs(est.mean - truth) / est.std_error
    report(3, z <= 3.0, f"mc={est.mean:.6f}, truth={truth:.6f}, z={z:.2f}")


def test_criterion_04_lsl_consistency_large_dim():
    fp = solve_fixed_point(iid_stats(10.0, 64, 64), np.eye(64))
    mi = fp.mi
    est = mc_ergodic_mi(fp, 200, seed=64)
    rel = abs(est.mean - mi) / mi
    report(4, rel <= 0.005, f"lsl={mi:.6f}, mc={est.mean:.6f}, rel={rel:.4%}")


def test_criterion_05_fig2_reproduction():
    config = figure_preset("fig2")
    worst = ""
    ok = True
    for snr_db in (0.0, 10.0, 20.0):
        start = isotropic_start(*build_statistics(point_config(config, snr_db)))
        for strategy in Strategy:
            _, rate, _ = optimize(strategy, start)
            mc = mc_secrecy_rate([rate], 10_000, seed=2026)[0]
            gap = abs(rate.rs - mc.mean)
            tol = max(3.0 * mc.std_error, 0.02 * mc.mean)
            if gap > tol:
                ok = False
                worst = f"{strategy.value}@{snr_db}dB gap={gap:.4f}>tol={tol:.4f}"
    report(5, ok, worst or "all 9 (snr, strategy) points within tolerance")


def test_criterion_06_fig3_strategy_ordering():
    config = figure_preset("fig3")
    ok = True
    detail = []
    for snr_db in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        start = isotropic_start(*build_statistics(point_config(config, snr_db)))
        rs = {s: optimize(s, start)[1].rs for s in Strategy}
        if not (
            rs[Strategy.GSVD_BEAMFORMING] >= rs[Strategy.WATER_FILLING] - 1e-9
            and rs[Strategy.GSVD_BEAMFORMING] >= rs[Strategy.ISOTROPIC] - 1e-9
        ):
            ok = False
            detail.append(f"violated at {snr_db} dB: {rs}")
    report(6, ok, "; ".join(detail) or "gsvd >= wf and gsvd >= iso at all 6 SNRs")


def test_criterion_07_eavesdropper_scaling():
    config = figure_preset("fig4")
    start = isotropic_start(*build_statistics(point_config(config, 12)))
    rs = {s: optimize(s, start)[1].rs for s in Strategy}
    ok = (
        rs[Strategy.ISOTROPIC] == 0.0
        and rs[Strategy.WATER_FILLING] == 0.0
        and rs[Strategy.GSVD_BEAMFORMING] > 0.0
    )
    report(
        7,
        ok,
        f"iso={rs[Strategy.ISOTROPIC]:.4f}, wf={rs[Strategy.WATER_FILLING]:.4f}, "
        f"gsvd={rs[Strategy.GSVD_BEAMFORMING]:.4f} at N_E=12",
    )


def test_criterion_08_spacing_non_monotonicity():
    config = figure_preset("fig5")
    rates = []
    for spacing in config.sweep_grid:
        start = isotropic_start(*build_statistics(point_config(config, spacing)))
        rates.append(optimize(Strategy.GSVD_BEAMFORMING, start)[1].rs)
    rates = np.array(rates)
    margin = 1e-6
    interior = range(1, len(rates) - 1)
    has_max = any(rates[i] > rates[i - 1] + margin and rates[i] > rates[i + 1] + margin for i in interior)
    has_min = any(rates[i] < rates[i - 1] - margin and rates[i] < rates[i + 1] - margin for i in interior)
    report(8, has_max and has_min, f"interior max={has_max}, interior min={has_min}")


def test_criterion_09_gsvd_property_suite():
    rng = np.random.default_rng(909)
    ok = True
    detail = "100 random pairs satisfy all invariants"
    for trial in range(100):
        m = int(rng.integers(2, 9))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        sigma_m, sigma_e, x = gsvd(a, b)
        ax, bx = a @ x, b @ x
        checks = [
            np.linalg.norm(ax.conj().T @ ax - np.diag(sigma_m**2)) <= 1e-8,
            np.linalg.norm(bx.conj().T @ bx - np.diag(sigma_e**2)) <= 1e-8,
            np.abs(sigma_m**2 + sigma_e**2 - 1).max() <= 1e-10,
            bool(np.all(np.diff(sigma_m) <= 1e-14)),
        ]
        sm2, se2 = sigma_m**2, sigma_e**2
        cost = np.sum(np.abs(x) ** 2, axis=0)  # power cost of each subchannel
        if np.any(sm2 > se2):
            budget = float(m)
            terms = subchannel_terms(sm2, se2, cost)

            def excess(log_mu):
                levels = gsvd_power_allocation(terms, np.exp(log_mu))
                return np.dot(levels, cost) - budget

            log_mu = brentq(excess, np.log(1e-12), np.log(1e12), xtol=1e-13)
            levels = gsvd_power_allocation(terms, np.exp(log_mu))
            if np.any(levels > 0):
                checks.append(abs(np.dot(levels, cost) - budget) <= 1e-8)
        if not all(checks):
            ok = False
            detail = f"trial {trial} (m={m}) failed checks {checks}"
            break
    report(9, ok, detail)


def test_criterion_10_symmetry_zero():
    config = figure_preset("fig2")
    stats_m, _ = build_statistics(point_config(config, 10.0))
    ok = True
    detail = []
    start = isotropic_start(stats_m, stats_m)
    for strategy in Strategy:
        _, rate, _ = optimize(strategy, start)
        mc = mc_secrecy_rate([rate], 1000, seed=10)[0]
        if rate.rs != 0.0 or mc.mean != 0.0:
            ok = False
            detail.append(f"{strategy.value}: lsl={rate.rs}, mc={mc.mean}")
    report(10, ok, "; ".join(detail) or "rs_lsl = 0 and mc clamp = 0 for all strategies")


def test_criterion_11_waterfilling_kkt():
    rng = np.random.default_rng(1111)
    ok = True
    detail = "complementary slackness and budget equality on 50 gain vectors"
    for trial in range(50):
        k = int(rng.integers(1, 10))
        gains = rng.uniform(0.01, 20.0, size=k)
        budget = float(rng.uniform(0.5, 10.0))
        alloc = waterfill_levels(gains, budget)
        budget_ok = abs(alloc.levels.sum() - budget) <= 1e-10
        slack_ok = all(
            (level == 0 and 1.0 / alloc.mu <= 1.0 / gain + 1e-12)
            or abs(level - (1.0 / alloc.mu - 1.0 / gain)) <= 1e-12
            for level, gain in zip(alloc.levels, gains)
        )
        if not (budget_ok and slack_ok):
            ok = False
            detail = f"trial {trial} failed (gains={gains}, budget={budget})"
            break
    report(11, ok, detail)

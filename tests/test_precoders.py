import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from helpers import iid_stats, isotropic_start
from wiretap_lsl import detequiv, precoders
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, gen_correlation
from wiretap_lsl.detequiv import lsl_secrecy_rate
from wiretap_lsl.errors import AllZeroGains, BisectionFailure, OuterLoopNoConvergence
from wiretap_lsl.experiment import ExperimentConfig, build_statistics, figure_preset, point_config
from wiretap_lsl.linalg import gsvd
from wiretap_lsl.precoders import (
    Strategy,
    gsvd_power_allocation,
    gsvd_precoder,
    isotropic_precoder,
    optimize,
    subchannel_terms,
    waterfill_levels,
    waterfill_precoder,
)


def correlated_stats(snr, n, m, theta, spacing=1.0, spread=5.0):
    t = gen_correlation(ArraySpec(m, spacing, theta, spread))
    return ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=t, r_corr=np.eye(n))


def column_norms2(x):
    """Squared column norms of the GSVD's X: the subchannels' power costs."""
    return np.sum(np.abs(x) ** 2, axis=0)


def reference_power_allocation(sigma_m2, sigma_e2, v_diag, mu):
    """Scalar loop over subchannels: the oracle for gsvd_power_allocation."""
    sm = np.asarray(sigma_m2, dtype=float)
    se = np.asarray(sigma_e2, dtype=float)
    v = np.asarray(v_diag, dtype=float)
    levels = np.zeros_like(sm)
    gain = (sm - se) / (np.log(2.0) * mu * v)
    prod = sm * se
    for i in np.flatnonzero(sm > se):
        if prod[i] > 1e-14:
            disc = 1.0 - 4.0 * prod[i] + 4.0 * prod[i] * gain[i]
            if disc <= 0:
                continue
            levels[i] = max(0.0, (-1.0 + np.sqrt(disc)) / (2.0 * prod[i]))
        else:
            levels[i] = max(0.0, gain[i] - 1.0)
    return levels


def reference_optimize(strategy, stats_m, stats_e):
    """The outer loop run to convergence or to the cap, step by step: the
    oracle for optimize, which skips ahead once the loop cycles."""
    p = isotropic_precoder(stats_m.num_tx)
    rate = lsl_secrecy_rate(stats_m, stats_e, p)
    for it in range(1, precoders._OUTER_MAX_ITER + 1):
        if strategy is Strategy.WATER_FILLING:
            new_p = waterfill_precoder(stats_m, rate.fp_main.e)
        else:
            new_p = gsvd_precoder(stats_m, stats_e, rate.fp_main.e, rate.fp_eave.e)
        new_rate = lsl_secrecy_rate(stats_m, stats_e, new_p)
        converged = abs(new_rate.rs - rate.rs) < precoders._OUTER_TOL
        p, rate = new_p, new_rate
        if converged:
            return p, rate, it
    return p, rate, precoders._OUTER_MAX_ITER


def sweep_point_stats(m, n_main, n_eave, snr_main_db, snr_eave_db, spacing, spread):
    config = ExperimentConfig(
        m=m,
        n_main=n_main,
        n_eave=n_eave,
        sweep="snr",
        sweep_grid=(0.0,),
        snr_main_db=snr_main_db,
        snr_eave_db=snr_eave_db,
        array_main=ArraySpec(m, spacing, 40.0, spread),
        array_eave=ArraySpec(m, spacing, -10.0, spread),
    )
    return build_statistics(config)


# GSVD outer loops that never converge: the first alternates between two
# precoders from its first iterations on; the second enters a cycle of
# five after about twenty.
CYCLING_POINTS = [
    (4, 3, 6, 17.0, 7.5, 1.8, 56.0),
    (2, 5, 1, 20.0, 20.0, 0.3970337807969213, 41.54485717078261),
]


class TestIsotropic:
    def test_identity(self):
        p = isotropic_precoder(3)
        assert np.array_equal(p, np.eye(3))
        assert np.trace(p).real == 3.0

    def test_symmetric_channels_zero_rate(self):
        stats = iid_stats(2.0, 2, 2)
        assert lsl_secrecy_rate(stats, stats, isotropic_precoder(2)).rs == 0.0


class TestWaterfillLevels:
    def test_two_active_subchannels(self):
        alloc = waterfill_levels([4.0, 1.0], 2.0)
        assert np.allclose(alloc.levels, [1.375, 0.625])
        assert 1.0 / alloc.mu == pytest.approx(1.625)

    def test_single_subchannel(self):
        alloc = waterfill_levels([0.3], 1.0)
        assert np.allclose(alloc.levels, [1.0])

    def test_weak_subchannel_shut_off(self):
        # Water level 1/mu = 1.1 < 100 = 1/g2, so the weak channel is off.
        alloc = waterfill_levels([10.0, 0.01], 1.0)
        assert np.allclose(alloc.levels, [1.0, 0.0])

    def test_all_zero_gains(self):
        with pytest.raises(AllZeroGains):
            waterfill_levels([0.0, 0.0], 1.0)

    def test_gain_with_overflowing_reciprocal_counts_as_zero(self):
        # 1 / 1.36e-309 overflows; such a channel stays off, without a warning.
        alloc = waterfill_levels([1.36e-309, 5.0, 0.0], 5.0)
        assert alloc.levels.tolist() == [0.0, 5.0, 0.0]
        assert alloc.mu == waterfill_levels([5.0], 5.0).mu
        with pytest.raises(AllZeroGains):
            waterfill_levels([1.36e-309, 0.0], 1.0)

    def test_budget_below_rounding_of_strongest_inverse_gain(self):
        # 4 + 1e20 rounds to 1e20, so even the one-channel water level
        # does not clear its channel in floating point; k = 1 is taken.
        alloc = waterfill_levels([1e-20, 1e-21], 4.0)
        assert alloc.levels.tolist() == [0.0, 0.0]
        assert alloc.mu == 1e-20

    def test_matches_active_set_loop(self):
        # The largest active set whose water level clears its worst
        # channel, searched one set at a time, is the oracle. Below 8
        # channels the cumulative sum adds in the loop's order, so the
        # results are bit for bit; from 8 on, numpy's pairwise sum does
        # not, and they agree to roundoff.
        rng = np.random.default_rng(4)
        for _ in range(300):
            gains = rng.exponential(size=int(rng.integers(1, 17))) * 10.0 ** rng.uniform(-3, 3)
            budget = float(rng.uniform(0.1, 10.0))
            inv = 1.0 / np.sort(gains)[::-1]
            k = max(k for k in range(1, len(inv) + 1) if (budget + inv[:k].sum()) / k > inv[k - 1])
            level = (budget + inv[:k].sum()) / k
            expected = np.where(1.0 / gains <= inv[k - 1], level - 1.0 / gains, 0.0)
            alloc = waterfill_levels(gains, budget)
            if len(gains) < 8:
                assert alloc.mu == 1.0 / level
                assert np.array_equal(alloc.levels, expected)
            else:
                assert alloc.mu == pytest.approx(1.0 / level, rel=1e-13)
                assert np.allclose(alloc.levels, expected, rtol=1e-13, atol=1e-13 * budget)

    @pytest.mark.parametrize("seed", range(50))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        gains = rng.uniform(0.01, 10.0, size=k)
        budget = float(rng.uniform(0.5, 5.0))
        alloc = waterfill_levels(gains, budget)
        assert np.all(alloc.levels >= 0)
        assert alloc.levels.sum() == pytest.approx(budget, abs=1e-10)
        for level, gain in zip(alloc.levels, gains):
            # complementary slackness: active levels sit exactly at the
            # water line, inactive gains fail the water-level test
            if level > 0:
                assert level == pytest.approx(1.0 / alloc.mu - 1.0 / gain, abs=1e-12)
            else:
                assert 1.0 / alloc.mu <= 1.0 / gain + 1e-12


class TestWaterfillPrecoder:
    def test_identity_correlation(self):
        p = waterfill_precoder(iid_stats(1.0, 3, 3), em=0.5)
        assert np.allclose(p, np.eye(3), atol=1e-12)

    def test_rank_one_correlation(self):
        stats = correlated_stats(1.0, 2, 4, 40.0, spacing=0.0)
        p = waterfill_precoder(stats, em=0.5)
        lam = np.linalg.eigvalsh(p)
        assert lam[-1] == pytest.approx(4.0, abs=1e-8)
        assert np.abs(lam[:-1]).max() <= 1e-8

    def test_eigen_domain_levels(self):
        # T with eigenvalues (4, 1)/(beta*em) reduces to the hand-computed
        # two-channel case with budget 2.
        em, beta = 0.7, 1.5
        t = np.diag([4.0, 1.0]) / (beta * em)
        stats = ChannelStatistics(snr=1.0, num_rx=3, num_tx=2, t_corr=t, r_corr=np.eye(3))
        p = waterfill_precoder(stats, em=em)
        lam = np.sort(np.linalg.eigvalsh(p))
        assert np.allclose(lam, [0.625, 1.375], atol=1e-10)


class TestGsvdPowerAllocation:
    def test_eave_dominant_zero(self):
        levels = gsvd_power_allocation(subchannel_terms([0.2], [0.8], [1.0]), 0.1)
        assert levels[0] == 0.0

    def test_tie_zero(self):
        levels = gsvd_power_allocation(subchannel_terms([0.5], [0.5], [1.0]), 0.1)
        assert levels[0] == 0.0

    def test_matches_scalar_kkt_oracle(self):
        sm, se, v, mu = 0.8, 0.2, 1.0, 0.05
        level = gsvd_power_allocation(subchannel_terms([sm], [se], [v]), mu)[0]
        assert level > 0

        def negated(p):
            return -(np.log2(1 + sm * p) - np.log2(1 + se * p) - mu * v * p)

        coarse = minimize_scalar(negated, bounds=(0.0, 1e3), method="bounded")
        assert level == pytest.approx(coarse.x, abs=1e-6)

        # stationarity of the same objective, solved to machine precision
        def slope(p):
            return sm / (1 + sm * p) - se / (1 + se * p) - mu * v * np.log(2.0)

        root = brentq(slope, 0.0, 1e3, xtol=1e-13)
        assert level == pytest.approx(root, abs=1e-8)

    def test_high_mu_shuts_everything_off(self):
        levels = gsvd_power_allocation(subchannel_terms([0.8, 0.6], [0.2, 0.4], [1.0, 2.0]), 1e9)
        assert np.all(levels == 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = 64
        sm = rng.uniform(0.0, 1.0, k)
        se = rng.uniform(0.0, 1.0, k)
        se[:8] = rng.choice([0.0, 1e-17, 1e-15], 8)  # prod <= 1e-14: linear branch
        se[8:12] = sm[8:12]  # ties
        sm[12:20], se[12:20] = 0.9, 0.5  # prod > 1/4: disc <= 0 once mu is large
        v = 10.0 ** rng.uniform(-2.0, 2.0, k)
        active, prod = sm > se, sm * se
        assert np.any(~active) and np.any(active & (prod <= 1e-14))
        disc_le_0 = False
        for mu in [1e-12, 1e-6, 1e-2, 0.3, 1.0, 7.0, 1e3, 1e12, 1e200]:
            expected = reference_power_allocation(sm, se, v, mu)
            assert np.array_equal(gsvd_power_allocation(subchannel_terms(sm, se, v), mu), expected)
            disc = 1.0 - 4.0 * prod + 4.0 * prod * (sm - se) / (np.log(2.0) * mu * v)
            disc_le_0 |= bool(np.any(active & (prod > 1e-14) & (disc <= 0)))
        assert disc_le_0


class TestGsvdPrecoder:
    def test_symmetric_channels_zero_precoder(self):
        stats = correlated_stats(1.0, 2, 3, 40.0)
        p = gsvd_precoder(stats, stats, em=0.5, ee=0.5)
        assert np.all(p == 0)
        assert lsl_secrecy_rate(stats, stats, p).rs == 0.0

    def test_trace_budget(self):
        main = correlated_stats(10.0, 3, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        p = gsvd_precoder(main, eave, em=1.2, ee=0.9)
        assert np.trace(p).real <= 4.0 + 1e-6

    def test_power_identity_and_separability(self):
        m = 4
        main = correlated_stats(10.0, 4, m, 40.0)
        eave = correlated_stats(10.0, 2, m, -10.0)
        em, ee = 1.2, 0.9
        p = gsvd_precoder(main, eave, em=em, ee=ee)

        a = np.sqrt(main.beta * em) * main.t_sqrt
        b = np.sqrt(eave.beta * ee) * eave.t_sqrt
        sigma_m, sigma_e, x = gsvd(a, b)
        # P = X diag(levels) Xᴴ with X = V^-H, so X⁻¹ P X⁻ᴴ recovers the diagonal
        x_inv = np.linalg.inv(x)
        levels = np.diag(x_inv @ p @ x_inv.conj().T).real
        # allocated power, weighted by the squared column norms of X,
        # uses the whole budget
        assert np.dot(levels, column_norms2(x)) == pytest.approx(m, abs=1e-8)
        # the log-det gap at frozen (em, ee) separates over subchannels
        k_m = np.linalg.eigvalsh(main.t_sqrt @ p @ main.t_sqrt)
        k_e = np.linalg.eigvalsh(eave.t_sqrt @ p @ eave.t_sqrt)
        direct = np.sum(np.log1p(main.beta * em * k_m)) - np.sum(np.log1p(eave.beta * ee * k_e))
        separable = np.sum(np.log1p(sigma_m**2 * levels) - np.log1p(sigma_e**2 * levels))
        assert direct / m == pytest.approx(separable / m, abs=1e-8)

    def test_power_costs_are_squared_column_norms(self, monkeypatch):
        # P = X diag(levels) Xᴴ spends levels[i] ||x_i||² of the budget on
        # subchannel i.
        main = correlated_stats(10.0, 4, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        costs = []
        original = precoders.gsvd_power_allocation

        def recording(terms, mu):
            costs.append(terms.v)
            return original(terms, mu)

        monkeypatch.setattr(precoders, "gsvd_power_allocation", recording)
        gsvd_precoder(main, eave, em=1.2, ee=0.9)
        _, _, x = gsvd(np.sqrt(main.beta * 1.2) * main.t_sqrt, np.sqrt(eave.beta * 0.9) * eave.t_sqrt)
        assert costs and all(cost is costs[0] for cost in costs)
        assert np.allclose(costs[0], np.diag(x.conj().T @ x).real, atol=1e-10)
        assert np.all(costs[0] > 0)

    def test_total_power_monotone_in_mu(self):
        main = correlated_stats(10.0, 3, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        a = np.sqrt(main.beta * 1.0) * main.t_sqrt
        b = np.sqrt(eave.beta * 1.0) * eave.t_sqrt
        sigma_m, sigma_e, x = gsvd(a, b)
        cost = column_norms2(x)
        powers = [
            np.dot(gsvd_power_allocation(subchannel_terms(sigma_m**2, sigma_e**2, cost), mu), cost)
            for mu in np.logspace(-6, 2, 30)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(powers, powers[1:]))


class TestGsvdBisection:
    @pytest.mark.parametrize("fails", [False, True], ids=["converges", "fails"])
    def test_each_mu_evaluated_once(self, monkeypatch, fails):
        mus = []
        original = precoders.gsvd_power_allocation

        def recording(terms, mu):
            mus.append(mu)
            return original(terms, mu)

        monkeypatch.setattr(precoders, "gsvd_power_allocation", recording)
        if fails:
            # A stress point whose first GSVD step narrows the bracket
            # until the midpoint rounds onto an end.
            main, eave = sweep_point_stats(4, 14, 5, -40.0, -40.0, 0.021275485809498784, 16.805879122516238)
            with pytest.raises(BisectionFailure):
                optimize(Strategy.GSVD_BEAMFORMING, isotropic_start(main, eave))
        else:
            main = correlated_stats(10.0, 3, 4, 40.0)
            eave = correlated_stats(10.0, 2, 4, -10.0)
            gsvd_precoder(main, eave, em=1.2, ee=0.9)
        assert len(mus) > 3
        assert len(set(mus)) == len(mus)


class TestOptimize:
    def test_fixed_points_reused_across_outer_iterations(self, monkeypatch):
        calls = []
        original = detequiv.solve_fixed_point

        def counting(stats, p):
            calls.append(stats)
            return original(stats, p)

        start = isotropic_start(*build_statistics(point_config(figure_preset("fig5"), 1.0)))
        monkeypatch.setattr(detequiv, "solve_fixed_point", counting)
        monkeypatch.setattr(precoders, "solve_fixed_point", counting, raising=False)
        _, _, iterations = optimize(Strategy.GSVD_BEAMFORMING, start)
        # The isotropic start is given: one solve per link and new precoder.
        assert iterations > 1
        assert len(calls) == 2 * iterations

    def test_waterfilling_factors_t_once(self, monkeypatch):
        main = correlated_stats(10.0, 4, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        calls = []
        original = np.linalg.eigh

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        _, _, iterations = optimize(Strategy.WATER_FILLING, isotropic_start(main, eave))
        assert 1 < iterations < precoders._OUTER_MAX_ITER
        # T and R once per link, then K once per link and precoder: the
        # water-filling steps reuse the main link's cached T spectrum.
        assert len(calls) == 4 + 2 * (iterations + 1)

    @pytest.mark.parametrize("point", CYCLING_POINTS)
    def test_cycle_skip_matches_the_full_loop(self, point):
        main, eave = sweep_point_stats(*point)
        with pytest.warns(OuterLoopNoConvergence):
            p, rate, iterations = optimize(Strategy.GSVD_BEAMFORMING, isotropic_start(main, eave))
        ref_p, ref_rate, ref_iterations = reference_optimize(Strategy.GSVD_BEAMFORMING, main, eave)
        assert iterations == ref_iterations == precoders._OUTER_MAX_ITER
        assert np.array_equal(p, ref_p)
        assert rate.rs == ref_rate.rs
        assert (rate.fp_main.e, rate.fp_eave.e) == (ref_rate.fp_main.e, ref_rate.fp_eave.e)

    def test_cycle_skip_stops_designing_precoders(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return gsvd_precoder(*args)

        monkeypatch.setattr(precoders, "gsvd_precoder", counting)
        main, eave = sweep_point_stats(*CYCLING_POINTS[0])
        with pytest.warns(OuterLoopNoConvergence):
            _, _, iterations = optimize(Strategy.GSVD_BEAMFORMING, isotropic_start(main, eave))
        assert iterations == precoders._OUTER_MAX_ITER
        assert len(calls) <= 5

    @pytest.mark.parametrize("strategy", [Strategy.WATER_FILLING, Strategy.GSVD_BEAMFORMING])
    @pytest.mark.parametrize("spacing", [0.2, 1.0, 2.5])
    def test_converging_loop_matches_the_full_loop(self, strategy, spacing):
        main, eave = build_statistics(point_config(figure_preset("fig5"), spacing))
        p, rate, iterations = optimize(strategy, isotropic_start(main, eave))
        ref_p, ref_rate, ref_iterations = reference_optimize(strategy, main, eave)
        assert iterations == ref_iterations < precoders._OUTER_MAX_ITER
        assert np.array_equal(p, ref_p)
        assert rate.rs == ref_rate.rs

    def test_isotropic_matches_direct_rate(self):
        main = correlated_stats(5.0, 3, 3, 40.0)
        eave = correlated_stats(5.0, 2, 3, -10.0)
        start = isotropic_start(main, eave)
        p, rate, iterations = optimize(Strategy.ISOTROPIC, start)
        assert iterations == 1 and rate is start
        assert np.array_equal(p, isotropic_precoder(3))
        direct = lsl_secrecy_rate(main, eave, isotropic_precoder(3))
        assert rate.rs == pytest.approx(direct.rs, abs=1e-12)

    def test_waterfilling_identity_correlation_immediate(self):
        main = iid_stats(5.0, 3, 3)
        eave = iid_stats(1.0, 2, 3)
        p, rate, iterations = optimize(Strategy.WATER_FILLING, isotropic_start(main, eave))
        assert iterations <= 2
        assert np.allclose(p, np.eye(3), atol=1e-10)

    def test_every_strategy_respects_trace_budget(self):
        # Precoders are not clipped to PSD after design: on every preset
        # point each one must already sit inside the trace budget and
        # above the -1e-12 eigenvalue floor, which optimize's solve at the
        # returned P enforces on K = T^(1/2) P T^(1/2). One test over all
        # points keeps a single test id.
        for name in ("fig2", "fig3", "fig4", "fig5"):
            config = figure_preset(name)
            for value in config.sweep_grid:
                start = isotropic_start(*build_statistics(point_config(config, value)))
                for strategy in Strategy:
                    point = f"{name} {config.sweep}={value} {strategy.value}"
                    p, _, _ = optimize(strategy, start)
                    assert np.trace(p).real <= config.m + 1e-6, point
                    assert np.linalg.eigvalsh(p).min() >= -1e-12, point

    def test_waterfilling_at_zero_snr_raises_typed_error(self):
        # At rho = 0 the fixed point gives e = 0, so no gain is positive.
        main = correlated_stats(0.0, 3, 4, 40.0)
        eave = correlated_stats(0.0, 2, 4, -10.0)
        with pytest.raises(AllZeroGains):
            optimize(Strategy.WATER_FILLING, isotropic_start(main, eave))

    def test_strategy_accepts_string(self):
        main = iid_stats(1.0, 2, 2)
        eave = iid_stats(1.0, 2, 2)
        _, rate, _ = optimize("iso", isotropic_start(main, eave))
        assert rate.rs == 0.0

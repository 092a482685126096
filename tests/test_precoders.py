import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from helpers import (
    design_spectrum,
    gsvd_pair,
    iid_stats,
    isotropic_start,
    per_m,
    reference_gsvd,
    reference_gsvd_precoder,
    reference_newton_bracket,
    reference_waterfill_levels,
    waterfill_row,
)
from wiretap_lsl import detequiv, precoders
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, Transmit, gen_correlation
from wiretap_lsl.detequiv import lsl_secrecy_rate, lsl_secrecy_rates
from wiretap_lsl.errors import (
    AllZeroGains,
    BisectionFailure,
    OuterLoopNoConvergence,
    OverBudget,
    RankDeficient,
    WiretapError,
)
from wiretap_lsl.experiment import (
    ExperimentConfig,
    build_statistics,
    config_from_dict,
    figure_preset,
    point_config,
    run_sweep,
)
from wiretap_lsl.linalg import congruence, gsvd
from wiretap_lsl.precoders import (
    Strategy,
    gsvd_power_allocation,
    gsvd_precoder,
    gsvd_precoders,
    isotropic_precoder,
    optimize,
    subchannel_terms,
    waterfill_precoder,
    waterfill_precoders,
    waterfill_stack,
)


def correlated_stats(snr, n, m, theta, spacing=1.0, spread=5.0):
    t = gen_correlation(ArraySpec(m, spacing, theta, spread))
    return ChannelStatistics(snr=snr, transmit=Transmit(t), num_rx=n)


def column_norms2(x):
    """Squared column norms of the GSVD's X: the subchannels' power costs."""
    return np.sum(np.abs(x) ** 2, axis=0)


def reference_power_allocation(sigma_m2, sigma_e2, v_diag, mu):
    """Scalar loop over subchannels: the oracle for gsvd_power_allocation.
    Each level is the root of p x^2 + x = c, c = max(0, gain - 1), as
    expm1(log1p(4p c) / 2) / (2p), or c where 4p c is not a normal float."""
    sm = np.asarray(sigma_m2, dtype=float)
    se = np.asarray(sigma_e2, dtype=float)
    v = np.asarray(v_diag, dtype=float)
    levels = np.zeros_like(sm)
    for i in range(len(sm)):
        gain = (sm[i] - se[i]) / (np.log(2.0) * mu * v[i])
        c = max(gain - 1.0, 0.0)
        four_pc = 4.0 * (sm[i] * se[i]) * c
        if four_pc >= np.finfo(float).tiny:
            levels[i] = np.expm1(0.5 * np.log1p(four_pc)) / (2.0 * (sm[i] * se[i]))
        else:
            levels[i] = c
    return levels


def reference_optimize(strategy, stats_m, stats_e):
    """The outer loop run to convergence or to the cap, step by step, each
    step's solves started from the deltas of the step before, with the
    spectra of K that the step's design holds, and the isotropic start's
    cold: the oracle for optimize, which skips ahead once the loop
    cycles."""
    p = isotropic_precoder(stats_m.num_tx)
    rate = isotropic_start(stats_m, stats_e)
    for it in range(1, precoders._OUTER_MAX_ITER + 1):
        if strategy is Strategy.WATER_FILLING:
            (design,) = waterfill_precoders([(stats_m, rate.fp_main.e)])
        else:
            (design,) = gsvd_precoders([(stats_m, stats_e, rate.fp_main.e, rate.fp_eave.e)])
        starts = (rate.fp_main.delta, rate.fp_eave.delta)
        (new_rate,) = lsl_secrecy_rates([(stats_m, stats_e, design.p)], [starts], [design[1:]])
        new_p = design.p
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
    """waterfill_stack on one gain vector, read as its row 0."""

    def test_two_active_subchannels(self):
        levels, mu, error = waterfill_row([4.0, 1.0], 2.0)
        assert error is None
        assert np.allclose(levels, [1.375, 0.625])
        assert 1.0 / mu == pytest.approx(1.625)

    def test_single_subchannel(self):
        levels, _, error = waterfill_row([0.3], 1.0)
        assert error is None and np.allclose(levels, [1.0])

    def test_weak_subchannel_shut_off(self):
        # Water level 1/mu = 1.1 < 100 = 1/g2, so the weak channel is off.
        levels, _, error = waterfill_row([10.0, 0.01], 1.0)
        assert error is None and np.allclose(levels, [1.0, 0.0])

    def test_all_zero_gains(self):
        levels, mu, error = waterfill_row([0.0, 0.0], 1.0)
        assert isinstance(error, AllZeroGains)
        assert np.isnan(levels).all() and np.isnan(mu)

    def test_gain_with_overflowing_reciprocal_counts_as_zero(self):
        # 1 / 1.36e-309 overflows; such a channel stays off, without a warning.
        levels, mu, error = waterfill_row([1.36e-309, 5.0, 0.0], 5.0)
        assert error is None and levels.tolist() == [0.0, 5.0, 0.0]
        assert mu == waterfill_row([5.0], 5.0)[1]
        assert isinstance(waterfill_row([1.36e-309, 0.0], 1.0)[2], AllZeroGains)

    def test_budget_below_rounding_of_strongest_inverse_gain(self):
        # 4 + 1e20 rounds to 1e20, so even the one-channel water level
        # does not clear its channel in floating point; k = 1 is taken.
        levels, mu, error = waterfill_row([1e-20, 1e-21], 4.0)
        assert error is None and levels.tolist() == [0.0, 0.0]
        assert mu == 1e-20

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
            levels, mu, error = waterfill_row(gains, budget)
            assert error is None
            if len(gains) < 8:
                assert mu == 1.0 / level
                assert np.array_equal(levels, expected)
            else:
                assert mu == pytest.approx(1.0 / level, rel=1e-13)
                assert np.allclose(levels, expected, rtol=1e-13, atol=1e-13 * budget)

    @pytest.mark.parametrize("seed", range(50))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        gains = rng.uniform(0.01, 10.0, size=k)
        budget = float(rng.uniform(0.5, 5.0))
        levels, mu, error = waterfill_row(gains, budget)
        assert error is None
        assert np.all(levels >= 0)
        assert levels.sum() == pytest.approx(budget, abs=1e-10)
        for level, gain in zip(levels, gains):
            # complementary slackness: active levels sit exactly at the
            # water line, inactive gains fail the water-level test
            if level > 0:
                assert level == pytest.approx(1.0 / mu - 1.0 / gain, abs=1e-12)
            else:
                assert 1.0 / mu <= 1.0 / gain + 1e-12


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
        stats = ChannelStatistics(snr=1.0, transmit=Transmit(t), num_rx=3)
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

    def test_no_floating_point_error_on_discarded_branches(self):
        # errstate(all="raise") turns every divide or invalid operation
        # into an error, even one whose result would be discarded: the
        # division by 2p where p = 0, whose level is c, and a subchannel
        # that cannot pay for itself (p = 0.72, whose quadratic has a
        # negative discriminant: c = 0).
        sm, se, v, mu = np.array([0.9, 0.6]), np.array([0.8, 0.0]), np.ones(2), 0.5
        terms = subchannel_terms(sm, se, v)
        assert 1.0 - terms.four_p[0] + terms.four_p[0] * 0.1 / (np.log(2.0) * mu) < 0
        with np.errstate(all="raise"):
            levels = gsvd_power_allocation(terms, mu)
        assert levels[0] == 0.0
        assert levels[1] == 0.6 / (np.log(2.0) * mu) - 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = 64
        sm = rng.uniform(0.0, 1.0, k)
        se = rng.uniform(0.0, 1.0, k)
        se[:8] = rng.choice([0.0, 1e-310, 1e-17, 1e-15], 8)  # p = 0, subnormal or tiny
        se[:2] = 0.0, 1e-310  # 4p c below the smallest normal: the level is c
        se[8:12] = sm[8:12]  # ties
        sm[12:20], se[12:20] = 0.9, 0.5  # p > 1/4: c = 0 once mu is large
        v = 10.0 ** rng.uniform(-2.0, 2.0, k)
        favored, four_p = sm > se, 4.0 * (sm * se)
        assert np.any(~favored)
        linear = switched_off = False
        for mu in [1e-12, 1e-6, 1e-2, 0.3, 1.0, 7.0, 1e3, 1e12, 1e200]:
            expected = reference_power_allocation(sm, se, v, mu)
            assert np.array_equal(gsvd_power_allocation(subchannel_terms(sm, se, v), mu), expected)
            c = np.maximum((sm - se) / (np.log(2.0) * mu * v) - 1.0, 0.0)
            linear |= bool(np.any((c > 0) & (four_p * c < np.finfo(float).tiny)))
            switched_off |= bool(np.any(favored & (four_p > 1.0) & (c == 0)))
        assert linear and switched_off

    def test_cancellation_free_at_large_m(self):
        # p = sm * se falls to 4.6e-10 on favored subchannels here, where
        # (-1 + sqrt(1 + 4p c)) / (2p) cancels: no mu met the power
        # budget, and the design raised BisectionFailure ("last excess
        # 2.769e-07").
        config = config_from_dict(
            {
                "m": 32,
                "n_main": 32,
                "n_eave": 16,
                "sweep": "snr",
                "sweep_grid": [0.0],
                "spacing_wavelengths": 0.5,
                "angle_spread_deg": 10.0,
                "strategies": ["gsvd"],
            }
        )
        main, eave = build_statistics(point_config(config, 0.0))
        p, rate, _ = optimize(Strategy.GSVD_BEAMFORMING, isotropic_start(main, eave))
        # The power meets the budget M = 32 to the search's tolerance,
        # which lies inside the budget's slack.
        assert abs(np.trace(p).real - 32.0) <= precoders._POWER_TOL < precoders._TRACE_SLACK
        assert rate.rs / np.log(2.0) == pytest.approx(0.2404, abs=5e-5)


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

        a = np.sqrt(main.beta * em) * main.transmit.t_sqrt
        b = np.sqrt(eave.beta * ee) * eave.transmit.t_sqrt
        sigma_m, sigma_e, x = gsvd_pair(a, b)
        # P = X diag(levels) Xᴴ with X = V^-H, so X⁻¹ P X⁻ᴴ recovers the diagonal
        x_inv = np.linalg.inv(x)
        levels = np.diag(x_inv @ p @ x_inv.conj().T).real
        # allocated power, weighted by the squared column norms of X,
        # uses the whole budget
        assert np.dot(levels, column_norms2(x)) == pytest.approx(m, abs=1e-8)
        # the log-det gap at frozen (em, ee) separates over subchannels
        k_m = np.linalg.eigvalsh(main.transmit.t_sqrt @ p @ main.transmit.t_sqrt)
        k_e = np.linalg.eigvalsh(eave.transmit.t_sqrt @ p @ eave.transmit.t_sqrt)
        direct = np.sum(np.log1p(main.beta * em * k_m)) - np.sum(np.log1p(eave.beta * ee * k_e))
        separable = np.sum(np.log1p(sigma_m**2 * levels) - np.log1p(sigma_e**2 * levels))
        assert direct / m == pytest.approx(separable / m, abs=1e-8)

    def test_power_costs_are_squared_column_norms(self, monkeypatch):
        # P = X diag(levels) Xᴴ spends levels[i] ||x_i||² of the budget on
        # subchannel i. The costs are built once per design, with the
        # allocation's other terms, and every allocation reads them.
        main = correlated_stats(10.0, 4, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        built, costs = [], []
        original_terms, original = precoders.subchannel_terms, precoders.gsvd_power_allocation

        def building(*args):
            terms = original_terms(*args)
            built.append(terms.v)
            return terms

        def recording(terms, mu):
            costs.append(terms.v)
            return original(terms, mu)

        monkeypatch.setattr(precoders, "subchannel_terms", building)
        monkeypatch.setattr(precoders, "gsvd_power_allocation", recording)
        gsvd_precoder(main, eave, em=1.2, ee=0.9)
        _, _, x = gsvd_pair(
            np.sqrt(main.beta * 1.2) * main.transmit.t_sqrt, np.sqrt(eave.beta * 0.9) * eave.transmit.t_sqrt
        )
        assert len(built) == 1 and costs and all(cost.tobytes() == built[0].tobytes() for cost in costs)
        assert np.allclose(built[0][0], np.diag(x.conj().T @ x).real, atol=1e-10)
        assert np.all(built[0] > 0)

    def test_total_power_monotone_in_mu(self):
        main = correlated_stats(10.0, 3, 4, 40.0)
        eave = correlated_stats(10.0, 2, 4, -10.0)
        a = np.sqrt(main.beta * 1.0) * main.transmit.t_sqrt
        b = np.sqrt(eave.beta * 1.0) * eave.transmit.t_sqrt
        sigma_m, sigma_e, x = gsvd_pair(a, b)
        cost = column_norms2(x)
        powers = [
            np.dot(gsvd_power_allocation(subchannel_terms(sigma_m**2, sigma_e**2, cost), mu), cost)
            for mu in np.logspace(-6, 2, 30)
        ]
        assert all(b <= a for a, b in zip(powers, powers[1:]))


class TestGsvdBisection:
    @pytest.mark.parametrize("fails", [False, True], ids=["converges", "fails"])
    def test_each_mu_evaluated_once(self, monkeypatch, fails):
        mus = []
        original = precoders.gsvd_power_allocation

        def recording(terms, mu):
            mus.extend(np.ravel(mu).tolist())  # one mu per row of a stack
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


def same_outcome(args, factors=None):
    """gsvd_precoder returns the oracle's bytes, or raises its error; the
    oracle uses the GSVD factors given, if any."""
    try:
        expected = reference_gsvd_precoder(*args, factors=factors).p
    except WiretapError as err:  # BisectionFailure, or RankDeficient from the GSVD
        with pytest.raises(type(err)) as raised:
            gsvd_precoder(*args)
        return str(raised.value) == str(err)
    return gsvd_precoder(*args).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def preset_gsvd_pass():
    """The gsvd_precoder inputs of a one-pass fig2-fig5 sweep without MC,
    the size of each stacked gsvd that factors them, and the number of
    power allocations it makes, each row of a stacked one counted."""
    calls, stacks, rows = [], [], []
    design, factor, allocate = precoders.gsvd_precoders, precoders.gsvd, precoders.gsvd_power_allocation

    def recording(items):
        calls.append(list(items))
        return design(items)

    def factoring(a, b):
        stacks.append(len(a))
        return factor(a, b)

    def counting(terms, mu):
        rows.append(np.size(mu))
        return allocate(terms, mu)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(precoders, "gsvd_precoders", recording)
        patch.setattr(precoders, "gsvd", factoring)
        patch.setattr(precoders, "gsvd_power_allocation", counting)
        for name in ("fig2", "fig3", "fig4", "fig5"):
            run_sweep(figure_preset(name), include_mc=False)
    return [item for items in calls for item in items], stacks, sum(rows), calls


def random_unitary(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_link_pair(rng):
    """Two links over one array of M = 1 to 64 antennas, with e's of -200 to
    +60 dB. Main and eavesdropper share eigenvectors and part of their
    spectrum, so some subchannels nearly tie, and the eavesdropper misses
    some directions, so some subchannels are linear (p <= 1e-14)."""
    m = min(64, int(2.0 ** rng.uniform(0.0, 6.0)))
    n = int(rng.integers(1, 2 * m + 1))
    q = random_unitary(rng, m)
    lam_m = rng.exponential(1.0, m)
    lam_e = np.where(rng.random(m) < 0.3, lam_m, rng.exponential(1.0, m))
    lam_e[rng.random(m) < 0.2] = 0.0
    lam_m[np.argmax(lam_m)] += 1.0  # keeps [A; B] of full rank where lam_e is 0
    lam_m[lam_e == 0.0] = np.maximum(lam_m[lam_e == 0.0], 0.1)
    main = ChannelStatistics(snr=1.0, transmit=Transmit((q * lam_m) @ q.conj().T), num_rx=n)
    eave = ChannelStatistics(snr=1.0, transmit=Transmit((q * lam_e) @ q.conj().T), num_rx=n)
    em = 10.0 ** rng.uniform(-20.0, 6.0)
    ee = em if rng.random() < 0.3 else 10.0 ** rng.uniform(-20.0, 6.0)
    return main, eave, em, ee


def random_gsvd(rng, m=None):
    """A GSVD of M subchannels, or M = 1 to 64, with exact ties, linear
    subchannels (sigma_e = 0 or below 1e-7) and power costs scaled as at
    -200 to +60 dB."""
    if m is None:
        m = min(64, int(2.0 ** rng.uniform(0.0, 6.0)))
    sigma_e = np.sqrt(rng.uniform(0.0, 1.0, m))
    kind = rng.random(m)
    sigma_e[kind < 0.2] = np.sqrt(0.5)
    sigma_e[(kind >= 0.2) & (kind < 0.35)] = 0.0
    sigma_e[(kind >= 0.35) & (kind < 0.45)] = 10.0 ** rng.uniform(-16.0, -7.0)
    sigma_m = np.sqrt(1.0 - sigma_e**2)
    sigma_m[kind < 0.2] = np.sqrt(0.5)
    scale = 10.0 ** (-rng.uniform(-200.0, 60.0) / 20.0)
    x = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return sigma_m, sigma_e, x


class TestGsvdSkips:
    """gsvd_precoder skips the bisection steps that a Newton search has
    already decided, and must still return what the full bisection
    (reference_gsvd_precoder) returns, bit for bit."""

    def test_power_evaluations_per_preset_pass(self, preset_gsvd_pass):
        # The full bisection makes 5,581 allocations in this pass, about
        # 33 per design. The 169 designs are factored in 15 stacked
        # GSVDs, one per outer step that has a gsvd loop running.
        inputs, stacks, evaluations, _ = preset_gsvd_pass
        assert (len(inputs), evaluations) == (169, 1166)
        assert (len(stacks), sum(stacks)) == (15, 169)

    def test_preset_pass_matches_full_bisection(self, preset_gsvd_pass):
        inputs, _, _, _ = preset_gsvd_pass
        assert all(same_outcome(args) for args in inputs)

    def test_random_links_match_full_bisection(self, monkeypatch):
        rng = np.random.default_rng(19)
        failing = sweep_point_stats(4, 14, 5, -40.0, -40.0, 0.021275485809498784, 16.805879122516238)
        floor = build_statistics(
            point_config(ExperimentConfig(m=4, n_main=4, n_eave=2, sweep="snr", sweep_grid=(-1000.0,)), -1000.0)
        )
        cases = []
        for main, eave in (failing, floor):
            start = isotropic_start(main, eave)
            cases.append((main, eave, start.fp_main.e, start.fp_eave.e))
        cases += [random_link_pair(rng) for _ in range(500)]
        outcomes = [same_outcome(args) for args in cases]
        links = {m: iid_stats(1.0, 1, m) for m in range(1, 65)}
        for _ in range(1500):
            factors = random_gsvd(rng)
            monkeypatch.setattr(precoders, "gsvd", lambda a, b: (*(f[None] for f in factors), [None]))
            link = links[len(factors[0])]
            outcomes.append(same_outcome((link, link, 1.0, 1.0), factors))
        assert len(outcomes) == 2002 and all(outcomes)

    def test_total_power_exactly_monotone_in_mu(self):
        # The skips rest on this: the computed power never increases with
        # mu, not even from one float to the next.
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 65))
            se2 = rng.uniform(0.0, 1.0, k)
            kind = rng.random(k)
            se2[kind < 0.2] = 0.5
            se2[(kind >= 0.2) & (kind < 0.4)] = rng.choice([0.0, 1e-17, 1e-15])
            small = (kind >= 0.4) & (kind < 0.6)  # p in [1e-14, 1e-6]: (-1 + sqrt(1 + 4p c)) / (2p) cancels
            se2[small] = 10.0 ** rng.uniform(-14.0, -6.0, np.count_nonzero(small))
            sm2 = 1.0 - se2
            v = 10.0 ** rng.uniform(-3.0, 3.0, k) * 10.0 ** rng.uniform(-20.0, 20.0)
            terms = subchannel_terms(sm2, se2, v)
            active = terms.diff > 0
            if not active.any():
                continue
            knees = terms.diff[active] / (np.log(2.0) * v[active])  # gain 1: a subchannel switches on
            centers = np.concatenate([knees, 10.0 ** rng.uniform(np.log10(knees.min()) - 3, np.log10(knees.max()), 8)])
            cluster = (centers.view(np.int64)[:, None] + np.arange(-8, 9)).ravel().view(np.float64)
            mus = np.unique(np.concatenate([cluster, np.logspace(-14, 14, 57)]))
            powers = [np.dot(gsvd_power_allocation(terms, mu), v) for mu in mus]
            assert all(b <= a for a, b in zip(powers, powers[1:]))


def design_bytes(design):
    """The bytes of a Design's covariance and spectra (None where it has
    none)."""
    return tuple(None if x is None else x.tobytes() for x in design)


def outcome_bytes(result):
    """A design's bytes, or its error's type and message."""
    return (type(result), str(result)) if isinstance(result, Exception) else design_bytes(result)


def oracle_bytes(oracle, *args, **kwargs):
    """What outcome_bytes reads of the oracle's result or error."""
    try:
        return design_bytes(oracle(*args, **kwargs))
    except WiretapError as err:
        return type(err), str(err)


def reference_waterfill_precoder(stats_m, em):
    """waterfill_precoders' Design of one link, its levels from the 1-D
    oracle and the main link's spectrum lam * levels."""
    lam, q = stats_m.transmit.t_eigh
    m = stats_m.num_tx
    levels = reference_waterfill_levels(stats_m.beta * em * lam, float(m))[0]
    p = congruence(q, levels)
    if np.trace(p).real > m + precoders._TRACE_SLACK:
        raise OverBudget(f"trace {np.trace(p).real:.6f} exceeds budget {float(m)}")
    return precoders.Design(p, design_spectrum(lam * levels), None)


def assert_rows_match_oracle(gains, budget):
    """Each row of waterfill_stack is the 1-D oracle's, or its error."""
    levels, mu, errors = waterfill_stack(gains, budget)
    for row, row_levels, row_mu, error in zip(gains, levels, mu, errors):
        try:
            expected_levels, expected_mu = reference_waterfill_levels(row, budget)
        except AllZeroGains as err:
            assert isinstance(error, AllZeroGains) and str(error) == str(err)
            assert np.isnan(row_levels).all() and np.isnan(row_mu)
        else:
            assert error is None
            assert (row_levels.tobytes(), row_mu) == (expected_levels.tobytes(), expected_mu)


def assert_searches_match_oracle(terms, m):
    """Each row of the lockstep multiplier search makes the evaluations
    of the 1-D Newton search, in its order, and then evaluates only
    inside that search's bracket, but for the excess that a
    BisectionFailure reports."""
    _, errors, evaluated = precoders._searches(terms, m)
    for i, error in enumerate(errors):
        over, under, ref_evaluated = reference_newton_bracket(terms.rows(i), m)
        items = [(mu, lv.tobytes(), repr(ex)) for mu, (lv, ex, _) in evaluated[i].items()]
        assert items[: len(ref_evaluated)] == [(mu, lv.tobytes(), repr(ex)) for mu, (lv, ex) in ref_evaluated.items()]
        walk = items[len(ref_evaluated) :]
        if isinstance(error, BisectionFailure):
            walk = walk[:-1]
        assert all(over < mu < under for mu, _, _ in walk)


def stacked_terms(sigma_m, sigma_e, x):
    """The allocation terms of the rows of a stacked GSVD that favor the
    main link, as gsvd_precoders builds them."""
    sm2, se2 = sigma_m**2, sigma_e**2
    favored = np.any(sm2 > se2 + 1e-12, axis=-1)
    v = np.einsum("bij,bij->bj", x, x.conj()).real
    return subchannel_terms(sm2[favored], se2[favored], v[favored])


def rank_deficient_pair(rng):
    """Two links of M = 2 to 8 antennas whose transmit correlations share
    a null direction, so that the stacked GSVD input lacks full rank
    unless rounding leaves that direction's eigenvalues above 1e-20."""
    m = int(rng.integers(2, 9))
    q = random_unitary(rng, m)
    links = []
    for _ in range(2):
        lam = rng.exponential(1.0, m)
        lam[0] = 0.0
        links.append(ChannelStatistics(snr=1.0, transmit=Transmit((q * lam) @ q.conj().T), num_rx=2))
    return links[0], links[1], 1.0, 1.0


@pytest.fixture(scope="module")
def preset_wf_calls():
    """The item lists of the waterfill_precoders calls of a one-pass
    fig2-fig5 sweep without MC."""
    calls = []
    design = precoders.waterfill_precoders

    def recording(items):
        calls.append(list(items))
        return design(items)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(precoders, "waterfill_precoders", recording)
        for name in ("fig2", "fig3", "fig4", "fig5"):
            run_sweep(figure_preset(name), include_mc=False)
    return calls


class TestStackedDesigns:
    """The stacked designs against their 1-D oracles in helpers.py: each
    element of a stack is, byte for byte, its design alone."""

    def test_preset_gsvd_stacks_match_oracles(self, preset_gsvd_pass):
        *_, calls = preset_gsvd_pass
        for items in calls:
            expected = [oracle_bytes(reference_gsvd_precoder, *item) for item in items]
            assert [outcome_bytes(p) for p in gsvd_precoders(items)] == expected
            a = np.stack([np.sqrt(main.beta * em) * main.transmit.t_sqrt for main, _, em, _ in items])
            b = np.stack([np.sqrt(eave.beta * ee) * eave.transmit.t_sqrt for _, eave, _, ee in items])
            *factors, errors = gsvd(a, b)
            assert errors == [None] * len(items)
            for i in range(len(items)):
                assert [f[i].tobytes() for f in factors] == [f.tobytes() for f in reference_gsvd(a[i], b[i])]
            assert_searches_match_oracle(stacked_terms(*factors), a.shape[-1])

    def test_preset_wf_stacks_match_oracles(self, preset_wf_calls):
        assert sum(map(len, preset_wf_calls)) == 301
        for items in preset_wf_calls:
            expected = [oracle_bytes(reference_waterfill_precoder, *item) for item in items]
            assert [outcome_bytes(p) for p in waterfill_precoders(items)] == expected
            gains = np.stack([main.beta * em * main.transmit.t_eigh[0] for main, em in items])
            assert_rows_match_oracle(gains, float(gains.shape[-1]))

    def test_random_waterfill_stacks(self):
        # M = 1 to 16, with tied, zero, subnormal and negative gains and
        # rows that have no usable gain at all; none raises a warning.
        rng = np.random.default_rng(31)
        for _ in range(400):
            count, m = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            gains = rng.exponential(1.0, (count, m)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
            kind = rng.random((count, m))
            gains[kind < 0.15] = gains[0, 0]
            gains[(kind >= 0.15) & (kind < 0.25)] = 0.0
            gains[(kind >= 0.25) & (kind < 0.3)] = rng.choice([5e-324, 1.36e-309, 2e-308])
            gains[(kind >= 0.3) & (kind < 0.33)] = -1.0
            if rng.random() < 0.2:
                gains[int(rng.integers(count))] = rng.choice([0.0, 1e-310])
            assert_rows_match_oracle(gains, float(rng.uniform(0.1, 10.0)))
        assert_rows_match_oracle(np.array([[1e-20, 1e-21], [0.0, 0.0], [4.0, 1.0]]), 4.0)

    def test_random_gsvd_stacks(self, monkeypatch):
        # Stacks of GSVDs of one M, with exact ties, linear subchannels
        # and power costs scaled as at -200 to +60 dB: every row's
        # multiplier search and design is that of the row alone.
        rng = np.random.default_rng(32)
        for _ in range(150):
            m = min(64, int(2.0 ** rng.uniform(0.0, 6.0)))
            rows = [random_gsvd(rng, m) for _ in range(int(rng.integers(1, 9)))]
            factors = [np.stack(f) for f in zip(*rows)]
            assert_searches_match_oracle(stacked_terms(*factors), m)
            monkeypatch.setattr(precoders, "gsvd", lambda a, b: (*factors, [None] * len(rows)))
            link = iid_stats(1.0, 1, m)
            expected = [oracle_bytes(reference_gsvd_precoder, link, link, 1.0, 1.0, factors=f) for f in rows]
            assert [outcome_bytes(p) for p in gsvd_precoders([(link, link, 1.0, 1.0)] * len(rows))] == expected

    def test_mixed_sizes_match_oracles(self):
        # Links of M = 1 to 64 in random order, one call per M, with
        # rank-deficient pairs among them for gsvd and e = 0 for wf.
        rng = np.random.default_rng(33)
        items = [random_link_pair(rng) for _ in range(60)] + [rank_deficient_pair(rng) for _ in range(6)]
        items = [items[i] for i in rng.permutation(len(items))]
        expected = [oracle_bytes(reference_gsvd_precoder, *item) for item in items]
        assert any(isinstance(e, tuple) and e[0] is RankDeficient for e in expected)
        assert [outcome_bytes(p) for p in per_m(gsvd_precoders, items)] == expected
        # Gains below about 1e-16 lose the budget to cancellation in
        # water - 1/gain, so the water-filling's e stays above 1e-6.
        wf = [(main, 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 6.0)) for main, _, _, _ in items]
        expected = [oracle_bytes(reference_waterfill_precoder, *item) for item in wf]
        assert any(isinstance(e, tuple) and e[0] is AllZeroGains for e in expected)
        assert [outcome_bytes(p) for p in per_m(waterfill_precoders, wf)] == expected

    def test_over_budget_design_fails_alone(self):
        # At M = 13 with gains from 4e-19 to 1.1e-17, water - 1/gain
        # loses the budget to cancellation and the levels sum to 16. That
        # element gets OverBudget as its result, and the other elements
        # of its stack keep their bytes.
        tiny = ChannelStatistics(snr=1.0, transmit=Transmit(np.diag(np.linspace(0.04, 1.1, 13))), num_rx=13)
        assert tiny.beta * 1e-17 * tiny.transmit.t_eigh[0].min() == pytest.approx(4e-19)
        good = ChannelStatistics(snr=1.0, transmit=Transmit(gen_correlation(ArraySpec(13, 0.5, 20.0, 10.0))), num_rx=13)
        items = [(good, 1.0), (tiny, 1e-17), (good, 3.0)]
        expected = [oracle_bytes(reference_waterfill_precoder, *item) for item in items]
        assert expected[1] == (OverBudget, "trace 16.000000 exceeds budget 13.0")
        assert [outcome_bytes(p) for p in waterfill_precoders(items)] == expected
        with pytest.raises(OverBudget):
            waterfill_precoder(tiny, 1e-17)


class TestOptimize:
    def test_fixed_points_reused_across_outer_iterations(self, monkeypatch):
        calls = []
        original = detequiv.solve_fixed_points

        def counting(pairs, starts=None, spectra=None):
            calls.extend(stats for stats, _ in pairs)
            return original(pairs, starts, spectra)

        start = isotropic_start(*build_statistics(point_config(figure_preset("fig5"), 1.0)))
        monkeypatch.setattr(detequiv, "solve_fixed_points", counting)
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

        monkeypatch.setattr(np.linalg, "eigh", counting)  # after each Transmit factored its T
        _, _, iterations = optimize(Strategy.WATER_FILLING, isotropic_start(main, eave))
        assert 1 < iterations < precoders._OUTER_MAX_ITER
        # The water-filling steps reuse the main link's cached T spectrum,
        # and so does its K, lam * levels; the start's Ks are the links'
        # T. Only the eavesdropper's K is factored, one per precoder.
        assert [a.shape for a in calls] == [(1, 4, 4)] * iterations

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

        def counting(items):
            calls.extend(items)
            return gsvd_precoders(items)

        monkeypatch.setattr(precoders, "gsvd_precoders", counting)
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

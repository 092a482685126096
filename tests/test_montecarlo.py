import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from helpers import iid_stats
from wiretap_lsl import channel, montecarlo
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, gen_correlation, sample_channel_block
from wiretap_lsl.detequiv import lsl_secrecy_rate, solve_fixed_point
from wiretap_lsl.experiment import DEFAULT_MC_REALIZATIONS, PRESETS, figure_preset, run_sweep
from wiretap_lsl.linalg import hermitianize
from wiretap_lsl.montecarlo import (
    _SMALL_GRAM,
    _Eliminator,
    _kernel,
    _logdet_cholesky,
    mc_ergodic_mi,
    mc_secrecy_rate,
)


def principal_sqrt(a):
    lam, q = np.linalg.eigh(a)
    return (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.conj().T


def reference_mc_ergodic_mi(stats, p, n, seed):
    """The direct kernel: H = sqrt(rho/M) R^(1/2) W T^(1/2), Cholesky of I_N + H P Hᴴ.

    R^(1/2) and T^(1/2) are built here from r_corr and t_corr, apart from
    the package's spectra. Returns (mean, std_error) over n realizations
    drawn in blocks of 256, in order, from one generator seeded as
    mc_ergodic_mi seeds its own.
    """
    r_sqrt, t_sqrt = principal_sqrt(stats.r_corr), principal_sqrt(stats.t_corr)
    values = []
    rng = np.random.default_rng(seed)
    for start in range(0, n, 256):
        count = min(256, n - start)
        nr, m = stats.num_rx, stats.num_tx
        re = rng.standard_normal((count, nr, m))
        im = rng.standard_normal((count, nr, m))
        w = (re + 1j * im) / np.sqrt(2.0)
        h = np.sqrt(stats.snr / m) * (r_sqrt @ w @ t_sqrt)
        gram = np.eye(nr) + h @ p @ h.conj().transpose(0, 2, 1)
        gram = 0.5 * (gram + gram.conj().transpose(0, 2, 1))
        chol = np.linalg.cholesky(gram)
        diags = np.diagonal(chol, axis1=1, axis2=2).real
        values.append(2.0 * np.sum(np.log(diags), axis=1) / m)
    values = np.concatenate(values)
    return values.mean(), (values.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0)


def correlated_stats(snr, n, m, r_corr=None):
    t = gen_correlation(ArraySpec(m, 1.0, 40.0, 5.0))
    r = np.eye(n) if r_corr is None else r_corr
    return ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=t, r_corr=r)


def receive_correlation(n):
    return gen_correlation(ArraySpec(n, 0.7, -30.0, 10.0))


def generic_precoder(m, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p = a @ a.conj().T
    return hermitianize(m * p / np.trace(p).real)


class TestKernelOracle:
    @pytest.mark.parametrize(
        "snr, n, m, p, r",
        [
            (10.0, 2, 4, generic_precoder(4), receive_correlation(2)),
            (10.0, 4, 4, generic_precoder(4, 1), receive_correlation(4)),
            (10.0, 12, 4, generic_precoder(4, 2), receive_correlation(12)),
            (3.0, 3, 1, np.eye(1), None),
            (1e6, 3, 4, generic_precoder(4, 3), None),
            (5.0, 6, 4, np.diag([2.0, 0.0, 2.0, 0.0]).astype(complex), None),
            (5.0, 2, 4, np.diag([4.0, 0.0, 0.0, 0.0]).astype(complex), None),
            (10.0, 5, 4, generic_precoder(4, 5), receive_correlation(5)),
        ],
        ids=["n<m", "n=m", "n>m", "m=1", "60dB", "rank2-p", "rank1-p", "correlated-r"],
    )
    def test_matches_direct_kernel(self, snr, n, m, p, r):
        # The spectral sampler maps W to a different channel than the
        # direct kernel does, so the two agree in distribution only: the
        # means, from independent seeds, within 4 combined standard
        # errors, and the standard errors within 5%.
        stats = correlated_stats(snr, n, m, r_corr=r)
        est = mc_ergodic_mi(solve_fixed_point(stats, p), 20_000, seed=17)
        mean, std_error = reference_mc_ergodic_mi(stats, p, 20_000, seed=18)
        assert abs(est.mean - mean) <= 4.0 * np.hypot(est.std_error, std_error)
        assert est.std_error == pytest.approx(std_error, rel=0.05)

    @pytest.mark.parametrize("n, m", [(2, 4), (4, 4), (6, 4)], ids=["n<m", "n=m", "n>m"])
    def test_diagonal_inputs_match_draw_for_draw(self, n, m):
        # With diagonal T, R and P whose diagonals (and that of T P)
        # ascend, the eigenbases are the identity and both kernels map
        # each W to the same channel.
        t = np.diag(np.linspace(0.4, 1.6, m)).astype(complex)
        r = np.diag(np.linspace(0.5, 1.5, n)).astype(complex)
        p = np.diag(np.linspace(0.0, 2.0, m)).astype(complex)
        stats = ChannelStatistics(snr=10.0, num_rx=n, num_tx=m, t_corr=t, r_corr=r)
        est = mc_ergodic_mi(solve_fixed_point(stats, p), 700, seed=17)
        mean, std_error = reference_mc_ergodic_mi(stats, p, 700, seed=17)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=1e-14)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [6, 12])
    def test_high_snr_tall_channel_matches_svd(self, n):
        # At 60 dB with N > M an N x N Gram I_N + G Gᴴ carries N - M unit
        # eigenvalues next to ~1e6 ones and is off from the SVD value by
        # up to ~1e-11; the M x M Gram has no such eigenvalues.
        stats = correlated_stats(1e6, n, 4, r_corr=receive_correlation(n))
        k_eigs = solve_fixed_point(stats, generic_precoder(4, 4)).k_eigs
        g = sample_channel_block([stats], [k_eigs], 256, np.random.default_rng(1))
        sv = np.linalg.svd(g, compute_uv=False)
        expected = np.sum(np.log1p(sv**2), axis=1) / 4
        assert np.allclose(_kernel(g.shape)(g, np.empty((2, 256))), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, m", [(2, 4), (12, 4)])
    def test_zero_snr_exact(self, n, m):
        stats = correlated_stats(0.0, n, m)
        est = mc_ergodic_mi(solve_fixed_point(stats, generic_precoder(m)), 300, seed=2)
        assert reference_mc_ergodic_mi(stats, generic_precoder(m), 300, seed=2) == (0.0, 0.0)
        assert est.mean == 0.0 and est.std_error == 0.0


def channel_stack(count, links, n, m, snr, seed):
    """(count, links, n, m) channels sqrt(rho/M) diag(a) W diag(sqrt(b)),
    with fixed weights a and b, and b's smallest entry 0."""
    rng = np.random.default_rng(seed)
    shape = (count, links, n, m)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    a, b = rng.uniform(0.2, 1.5, n), np.linspace(0.0, 2.0, m)
    return np.sqrt(snr / m) * a[:, None] * w * np.sqrt(b)


def svd_logdet(g):
    sv = np.linalg.svd(g, compute_uv=False)
    return np.sum(np.log1p(sv**2), axis=-1) / g.shape[-1]


BRANCHES = {
    "elimination": lambda g, moments: _Eliminator(g.shape)(g, moments),
    "cholesky": _logdet_cholesky,
}
# Gram orders up to _SMALL_GRAM, then above it; 1e6 is 60 dB.
KERNEL_CASES = [
    (1, 4, 10.0),
    (4, 1, 10.0),
    (3, 5, 10.0),
    (4, 4, 10.0),
    (6, 2, 10.0),
    (5, 5, 1e6),
    (2, 6, 1e6),
    (7, 12, 10.0),
    (8, 8, 10.0),
    (12, 7, 10.0),
    (9, 9, 1e6),
    (16, 10, 1e6),
]
KERNEL_IDS = [f"{n}x{m}-{10 * np.log10(snr):g}dB" for n, m, snr in KERNEL_CASES]


class TestLogdetKernels:
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("n, m, snr", KERNEL_CASES, ids=KERNEL_IDS)
    def test_matches_svd(self, branch, n, m, snr):
        g = channel_stack(64, 2, n, m, snr, seed=n * m)
        assert np.allclose(BRANCHES[branch](g, np.empty((2, 64, 2))), svd_logdet(g), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("n, m, snr", KERNEL_CASES, ids=KERNEL_IDS)
    def test_moments_are_trace_and_squared_frobenius_norm(self, branch, n, m, snr):
        g = channel_stack(64, 2, n, m, snr, seed=n + m)
        moments = np.empty((2, 64, 2))
        BRANCHES[branch](g, moments)
        gram = g @ g.conj().swapaxes(-1, -2)
        assert np.allclose(moments[0], np.trace(gram, axis1=-2, axis2=-1).real, rtol=1e-12, atol=0)
        assert np.allclose(moments[1], np.sum(np.abs(gram) ** 2, axis=(-2, -1)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0)], ids=["n=m", "n<m", "n>m"])
    def test_branches_agree_at_the_crossover(self, n, m):
        g = channel_stack(64, 3, _SMALL_GRAM + n, _SMALL_GRAM + m, 10.0, seed=4)
        moments = np.empty((2, 2, 64, 3))
        eliminated = BRANCHES["elimination"](g, moments[0])
        assert np.allclose(eliminated, _logdet_cholesky(g, moments[1]), rtol=1e-12, atol=0)
        assert np.allclose(moments[0], moments[1], rtol=1e-12, atol=0)
        assert isinstance(_kernel(g.shape), _Eliminator)
        assert _kernel((64, 3, _SMALL_GRAM + n + 1, _SMALL_GRAM + m + 1)) is _logdet_cholesky

    def test_reused_eliminator_matches_a_fresh_one(self):
        # The kernel keeps its arrays across calls; a shorter last block
        # uses their leading part.
        kernel = _Eliminator((256, 3, 4, 6))
        for count, snr in [(256, 10.0), (256, 1e6), (100, 0.1)]:
            g = channel_stack(count, 3, 4, 6, snr, seed=count)
            reused, fresh = np.empty((2, count, 3)), np.empty((2, count, 3))
            assert np.array_equal(kernel(g, reused), _Eliminator(g.shape)(g, fresh))
            assert np.array_equal(reused, fresh)


class TestSpectra:
    @pytest.fixture
    def eighs(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_no_eigendecomposition_and_no_square_root(self, eighs, monkeypatch):
        main = correlated_stats(10.0, 5, 4, r_corr=receive_correlation(5))
        eave = correlated_stats(10.0, 2, 4)
        rate = lsl_secrecy_rate(main, eave, generic_precoder(4, 6))
        eighs.clear()
        congruences = []
        original_congruence = channel.congruence

        def counting_congruence(*args):
            congruences.append(args)
            return original_congruence(*args)

        monkeypatch.setattr(channel, "congruence", counting_congruence)
        # The rate's fixed points hold both links' spectra: MC factors
        # nothing and builds no square root.
        mc_secrecy_rate([rate], 600, seed=1)
        assert not eighs and not congruences

    def test_sweep_factors_as_often_with_mc_as_without(self, eighs):
        config = replace(figure_preset("fig3"), sweep_grid=(10.0,), mc_realizations=16)
        run_sweep(config, include_mc=False)
        without_mc = len(eighs)
        eighs.clear()
        result = run_sweep(config, include_mc=True)
        assert result.num_failed == 0
        assert len(eighs) == without_mc > 0


class TestMcErgodicMi:
    def test_same_seed_bit_identical(self):
        stats = iid_stats(3.0, 3, 2)
        a = mc_ergodic_mi(solve_fixed_point(stats, np.eye(2)), 1000, seed=42)
        b = mc_ergodic_mi(solve_fixed_point(stats, np.eye(2)), 1000, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_zero_snr(self):
        est = mc_ergodic_mi(solve_fixed_point(iid_stats(0.0, 2, 2), np.eye(2)), 100, seed=0)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_single_realization(self):
        est = mc_ergodic_mi(solve_fixed_point(iid_stats(1.0, 2, 2), np.eye(2)), 1, seed=5)
        assert est.num_realizations == 1
        assert est.std_error == 0.0
        assert est.mean > 0

    def test_std_error_scaling(self):
        stats = iid_stats(5.0, 2, 2)
        small = mc_ergodic_mi(solve_fixed_point(stats, np.eye(2)), 2000, seed=1)
        large = mc_ergodic_mi(solve_fixed_point(stats, np.eye(2)), 8000, seed=1)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_rotation_invariant_in_distribution(self):
        # With T = I a unitary congruence of the precoder leaves the MI
        # distribution unchanged.
        stats = iid_stats(4.0, 3, 3)
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        p = np.diag([2.0, 0.7, 0.3])
        base = mc_ergodic_mi(solve_fixed_point(stats, p), 20_000, seed=11)
        rotated = mc_ergodic_mi(solve_fixed_point(stats, hermitianize(q @ p @ q.conj().T)), 20_000, seed=12)
        combined = np.hypot(base.std_error, rotated.std_error)
        assert abs(base.mean - rotated.mean) < 3 * combined

    def test_one_generator_and_no_spawned_streams(self, monkeypatch):
        # The blocks run in one loop, so one generator draws them in order.
        generators, spawned = [], []
        original_rng = np.random.default_rng

        def counting_rng(*args, **kwargs):
            generators.append(args)
            return original_rng(*args, **kwargs)

        class RecordingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(np.random, "SeedSequence", RecordingSeedSequence)
        fp = solve_fixed_point(iid_stats(2.0, 2, 2), np.eye(2))
        mc_ergodic_mi(fp, 10_000, seed=(3, 1, 2))
        assert len(generators) == 1 and not spawned

    def test_first_full_blocks_independent_of_n(self, monkeypatch):
        blocks = []
        original = montecarlo.sample_channel_block

        def recording(*args):
            blocks.append(original(*args))
            return blocks[-1].copy()

        monkeypatch.setattr(montecarlo, "sample_channel_block", recording)
        fp = solve_fixed_point(iid_stats(2.0, 3, 2), np.eye(2))
        mc_ergodic_mi(fp, 512, seed=8)
        short = blocks[:]
        blocks.clear()
        mc_ergodic_mi(fp, 700, seed=8)
        assert [len(b) for b in short] == [256, 256] and [len(b) for b in blocks] == [256, 256, 188]
        assert all(np.array_equal(a, b) for a, b in zip(short, blocks))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            mc_ergodic_mi(solve_fixed_point(iid_stats(1.0, 2, 2), np.eye(2)), 0, seed=0)


class TestMcSecrecyRate:
    def test_identical_statistics_exact_zero(self):
        stats = iid_stats(2.0, 3, 3)
        est = mc_secrecy_rate([lsl_secrecy_rate(stats, stats, np.eye(3))], 500, seed=3)[0]
        assert est.mean == 0.0

    def test_generator_seed_refused(self):
        # The two links would consume a Generator in turn, not share it.
        stats = iid_stats(2.0, 3, 3)
        with pytest.raises(TypeError):
            mc_secrecy_rate([lsl_secrecy_rate(stats, stats, np.eye(3))], 500, seed=np.random.default_rng(3))

    def test_clamped_at_zero(self):
        main = iid_stats(1.0, 2, 2)
        eave = iid_stats(50.0, 2, 2)
        est = mc_secrecy_rate([lsl_secrecy_rate(main, eave, np.eye(2))], 500, seed=6)[0]
        assert est.mean == 0.0

    def test_zero_snr_exact(self):
        # Every Gram moment is identically 0: its coefficient is the
        # minimum-norm 0, and nothing divides 0 by 0.
        rate = lsl_secrecy_rate(correlated_stats(0.0, 3, 2), correlated_stats(0.0, 5, 2), generic_precoder(2))
        est = mc_secrecy_rate([rate], 600, seed=2)[0]
        assert est.mean == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize("n", [1, 6, 7, DEFAULT_MC_REALIZATIONS])
    def test_identical_links_exact_zero_at_every_n(self, n):
        stats = correlated_stats(10.0, 4, 3, r_corr=receive_correlation(4))
        est = mc_secrecy_rate([lsl_secrecy_rate(stats, stats, generic_precoder(3, 7))], n, seed=5)[0]
        assert est.mean == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize("n", [1, 6])
    def test_few_realizations_give_the_plain_paired_mean(self, n):
        # Alone, a link with N rows draws the same W as when paired with
        # another link of N rows.
        main = correlated_stats(10.0, 3, 2)
        eave = correlated_stats(2.0, 3, 2)
        rate = lsl_secrecy_rate(main, eave, generic_precoder(2, 8))
        est = mc_secrecy_rate([rate], n, seed=9)[0]
        em, ee = mc_ergodic_mi(rate.fp_main, n, seed=9), mc_ergodic_mi(rate.fp_eave, n, seed=9)
        assert est.mean == pytest.approx(em.mean - ee.mean, rel=1e-12)
        assert est.num_realizations == n
        assert (est.std_error == 0.0) == (n == 1)

    @pytest.mark.parametrize(
        "m, n_main, n_eave",
        [(3, 4, 2), (3, 4, 4), (8, 8, 9), (4, 4, 2), (6, 6, 2), (6, 6, 8), (4, 8, 3)],
        ids=["unequal-n", "equal-n", "large-gram", "fig4", "fig2", "tall-eave", "tall-main"],
    )
    @pytest.mark.parametrize("n", [1, 6, 7, 257, 700])
    def test_sequence_matches_each_rate_alone(self, monkeypatch, m, n_main, n_eave, n):
        # The rates of one sweep point: the same two links at three
        # precoders. One W per block serves all six links, and each
        # rate's estimate is, bit for bit, the one it gets alone. A rate
        # alone with unequal N runs each link as a stack of one; at n = 1
        # and n = 257 its last block holds a single matrix.
        main = correlated_stats(10.0, n_main, m, r_corr=receive_correlation(n_main))
        eave = correlated_stats(4.0, n_eave, m)
        precoders = (np.eye(m), generic_precoder(m, 1), generic_precoder(m, 2))
        rates = [lsl_secrecy_rate(main, eave, p) for p in precoders]
        shapes = []
        original = montecarlo.sample_channel_block

        def recording(*args):
            g = original(*args)
            shapes.append(g.shape)
            return g

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "sample_channel_block", recording)
            estimates = mc_secrecy_rate(rates, n, seed=(5, 1))
        assert shapes == [(min(256, n - start), 3 * (n_main + n_eave), m) for start in range(0, n, 256)]
        assert estimates == [mc_secrecy_rate([rate], n, seed=(5, 1))[0] for rate in rates]

    def test_no_rates_no_estimates(self):
        assert mc_secrecy_rate([], 300, seed=0) == []

    def test_moments_rescaled_at_high_snr(self):
        # At 60 dB the squared Frobenius norms are ~1e13; left unscaled,
        # the least-squares rank cut drops the intercept and the estimate
        # reads 0. Equal N: both links see the same W alone and paired.
        t_main = gen_correlation(ArraySpec(4, 0.5, 40.0, 10.0))
        t_eave = gen_correlation(ArraySpec(4, 0.5, -10.0, 10.0))
        main = ChannelStatistics(snr=1e6, num_rx=4, num_tx=4, t_corr=t_main, r_corr=np.eye(4))
        eave = ChannelStatistics(snr=2.5e5, num_rx=4, num_tx=4, t_corr=t_eave, r_corr=np.eye(4))
        rate = lsl_secrecy_rate(main, eave, np.eye(4))
        est = mc_secrecy_rate([rate], 3000, seed=1)[0]
        em, ee = mc_ergodic_mi(rate.fp_main, 3000, seed=1), mc_ergodic_mi(rate.fp_eave, 3000, seed=1)
        assert abs(est.mean - (em.mean - ee.mean)) <= 4.0 * np.hypot(em.std_error, ee.std_error)
        assert est.mean == pytest.approx(rate.rs, rel=1e-3)


def gamma_mi(rho, n):
    """E ln(1 + rho X), X ~ Gamma(n, 1): the MI of an M = 1, N = n link
    with T = R = 1, whose Gram matrix is rho times a sum of n unit
    exponentials."""

    def integrand(x):
        return np.log1p(rho * x) * x ** (n - 1) * np.exp(-x) / special.gamma(n)

    return integrate.quad(integrand, 0.0, np.inf)[0]


class TestPairedEstimator:
    """mc_secrecy_rate with N_M != N_E: the links share each W's first rows."""

    @staticmethod
    def unequal_rate():
        main = correlated_stats(10.0, 5, 3, r_corr=receive_correlation(5))
        eave = correlated_stats(4.0, 2, 3)
        return lsl_secrecy_rate(main, eave, generic_precoder(3, 4))

    @pytest.mark.parametrize("rho", [0.1, 10.0])
    def test_exact_oracle_seed_sweep(self, rho):
        # M = 1, N_M = 2, N_E = 1 and T = R = 1: the secrecy rate is
        # gamma_mi(rho, 2) - gamma_mi(rho, 1) exactly. Over 100 seeds at
        # the default count, the mean z-score measured -0.13 (rho = 0.1)
        # and +0.16 (rho = 10), against a standard deviation of 0.1 for
        # an unbiased estimator; the spread of the estimates over the mean
        # reported SE measured 1.04 and 0.97, against a standard deviation
        # of 0.07 from 100 seeds. Both bounds are 3.5 of those deviations.
        rate = lsl_secrecy_rate(iid_stats(rho, 2, 1), iid_stats(rho, 1, 1), np.eye(1))
        truth = gamma_mi(rho, 2) - gamma_mi(rho, 1)
        n = DEFAULT_MC_REALIZATIONS
        estimates = [mc_secrecy_rate([rate], n, seed=s)[0] for s in range(100)]
        means = np.array([e.mean for e in estimates])
        errors = np.array([e.std_error for e in estimates])
        assert abs(np.mean((means - truth) / errors)) <= 0.35
        assert np.std(means, ddof=1) / np.mean(errors) == pytest.approx(1.0, abs=0.25)
        # Treating the links as independent overstates that spread.
        em, ee = mc_ergodic_mi(rate.fp_main, n, seed=0), mc_ergodic_mi(rate.fp_eave, n, seed=0)
        assert np.hypot(em.std_error, ee.std_error) >= 3.0 * np.std(means, ddof=1)

    def test_same_seed_bit_identical(self):
        rate = self.unequal_rate()
        a = mc_secrecy_rate([rate], 1000, seed=(4, 2, 1))
        b = mc_secrecy_rate([rate], 1000, seed=(4, 2, 1))
        assert a == b

    def test_one_generator_and_no_spawned_streams(self, monkeypatch):
        rate = self.unequal_rate()
        generators, spawned = [], []
        original_rng = np.random.default_rng

        def counting_rng(*args, **kwargs):
            generators.append(args)
            return original_rng(*args, **kwargs)

        class RecordingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(np.random, "SeedSequence", RecordingSeedSequence)
        mc_secrecy_rate([rate], 3000, seed=(3, 1, 2))
        assert len(generators) == 1 and not spawned

    def test_first_full_blocks_independent_of_n(self, monkeypatch):
        blocks = []
        original = montecarlo.sample_channel_block

        def recording(*args):
            blocks.append(original(*args))
            return blocks[-1].copy()

        monkeypatch.setattr(montecarlo, "sample_channel_block", recording)
        rate = self.unequal_rate()
        mc_secrecy_rate([rate], 512, seed=8)
        short = blocks[:]
        blocks.clear()
        mc_secrecy_rate([rate], 700, seed=8)
        assert [b.shape for b in short] == [(256, 7, 3)] * 2
        assert [len(b) for b in blocks] == [256, 256, 188]
        assert all(np.array_equal(a, b) for a, b in zip(short, blocks))


class TestPresetStandardErrors:
    def test_every_row_at_or_below_the_reference(self):
        # perfbench/reference.json holds each fig2-fig5 row at seed 0 with
        # 10,000 unpaired realizations. At the default count the weakest
        # row, fig2 at 20 dB with wf, reports 0.947 of its reference SE.
        # The deterministic columns pass the benchmark's own gate: 1e-9
        # relative, absolute below 1 bit (worst gap today 2.45e-10), and
        # the same outer iteration count.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        reference = json.loads(path.read_text())["presets"]
        for name, config in PRESETS.items():
            assert config.mc_realizations == DEFAULT_MC_REALIZATIONS and config.seed == 0
            rows = run_sweep(config).rows
            assert [(r.sweep_value, r.strategy) for r in rows] == [
                (r["sweep_value"], r["strategy"]) for r in reference[name]
            ]
            for row, ref in zip(rows, reference[name]):
                assert row.rs_mc_std_error <= ref["rs_mc_std_error"], (name, row)
                for column in ("rs_lsl_per_antenna_bits", "rs_lsl_total_bits"):
                    gap = abs(getattr(row, column) - ref[column])
                    assert gap <= 1e-9 * max(1.0, abs(ref[column])), (name, column, row)
                assert row.outer_iterations == ref["outer_iterations"], (name, row)


CLT_CASES = [
    (2, 2, -10.0),
    (2, 24, 30.0),
    (16, 2, 0.0),
    (16, 24, 10.0),
    (4, 4, 20.0),
    (8, 12, -5.0),
    (3, 6, 5.0),
    (12, 8, 30.0),
    (6, 2, 15.0),
    (2, 5, 0.0),
]


class TestCltVariance:
    @pytest.mark.parametrize("m, n, snr_db", CLT_CASES, ids=[f"m{m}-n{n}-{s:g}dB" for m, n, s in CLT_CASES])
    def test_sample_variance_matches_fixed_point(self, m, n, snr_db):
        # The CLT's variance is noise-free and depends on rho/M, r and k
        # the way the sampler's scaling does. Over these cases at 20,480
        # realizations, sample variance / prediction measured 0.993-1.046
        # (worst at M = N = 2); the sample variance alone is uncertain by
        # about 1.5% there.
        t = gen_correlation(ArraySpec(m, 0.5, 40.0, 10.0))
        stats = ChannelStatistics(
            snr=10.0 ** (snr_db / 10.0), num_rx=n, num_tx=m, t_corr=t, r_corr=receive_correlation(n)
        )
        fp = solve_fixed_point(stats, generic_precoder(m, CLT_CASES.index((m, n, snr_db))))
        est = mc_ergodic_mi(fp, 20_480, seed=CLT_CASES.index((m, n, snr_db)))
        assert est.std_error**2 * 20_480 == pytest.approx(fp.mi_variance, rel=0.08)

import numpy as np
import pytest

from helpers import iid_stats
from wiretap_lsl import channel
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, gen_correlation, sample_channel_block
from wiretap_lsl.errors import NotPsd
from wiretap_lsl.linalg import hermitianize
from wiretap_lsl.montecarlo import _logdet_block, mc_ergodic_mi, mc_secrecy_rate


def principal_sqrt(a):
    lam, q = np.linalg.eigh(a)
    return (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.conj().T


def reference_mc_ergodic_mi(stats, p, n, seed):
    """The direct kernel: H = sqrt(rho/M) R^(1/2) W T^(1/2), Cholesky of I_N + H P Hᴴ.

    R^(1/2) and T^(1/2) are built here from r_corr and t_corr, apart from
    the package's spectra. Returns (mean, std_error) over n realizations
    drawn in blocks of 256 from the same per-block streams as
    mc_ergodic_mi.
    """
    r_sqrt, t_sqrt = principal_sqrt(stats.r_corr), principal_sqrt(stats.t_corr)
    values = []
    children = np.random.SeedSequence(seed).spawn((n + 255) // 256)
    for b, child in enumerate(children):
        count = min(256, n - 256 * b)
        rng = np.random.default_rng(child)
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
        est = mc_ergodic_mi(stats, p, 20_000, seed=17)
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
        est = mc_ergodic_mi(stats, p, 700, seed=17)
        mean, std_error = reference_mc_ergodic_mi(stats, p, 700, seed=17)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=1e-14)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [6, 12])
    def test_high_snr_tall_channel_matches_svd(self, n):
        # At 60 dB with N > M an N x N Gram I_N + G Gᴴ carries N - M unit
        # eigenvalues next to ~1e6 ones and is off from the SVD value by
        # up to ~1e-11; the M x M Gram has no such eigenvalues.
        stats = correlated_stats(1e6, n, 4, r_corr=receive_correlation(n))
        k_eigs = stats.k_eigs(generic_precoder(4, 4))
        g = sample_channel_block(stats, k_eigs, 256, np.random.default_rng(1))
        sv = np.linalg.svd(g, compute_uv=False)
        expected = np.sum(np.log1p(sv**2), axis=1) / 4
        assert np.allclose(_logdet_block(g), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, m", [(2, 4), (12, 4)])
    def test_zero_snr_exact(self, n, m):
        stats = correlated_stats(0.0, n, m)
        est = mc_ergodic_mi(stats, generic_precoder(m), 300, seed=2)
        assert reference_mc_ergodic_mi(stats, generic_precoder(m), 300, seed=2) == (0.0, 0.0)
        assert est.mean == 0.0 and est.std_error == 0.0


class TestSpectra:
    def test_one_eigendecomposition_per_link_and_no_square_root(self, monkeypatch):
        main = correlated_stats(10.0, 5, 4, r_corr=receive_correlation(5))
        eave = correlated_stats(10.0, 2, 4)
        for stats in (main, eave):  # T's and R's spectra, cached per link
            stats.t_sqrt, stats.r_eigs
        eighs, congruences = [], []
        original_eigh, original_congruence = np.linalg.eigh, channel.congruence

        def counting_eigh(a, *args, **kwargs):
            eighs.append(a)
            return original_eigh(a, *args, **kwargs)

        def counting_congruence(*args):
            congruences.append(args)
            return original_congruence(*args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(channel, "congruence", counting_congruence)
        p = generic_precoder(4, 6)
        mc_secrecy_rate(main, eave, p, 600, seed=1)
        # Only K = T^(1/2) P T^(1/2), main link first; no square root of
        # P or R is built.
        assert len(eighs) == 2 and not congruences
        assert np.allclose(eighs[0], main.t_sqrt @ p @ main.t_sqrt, atol=1e-12)
        assert np.allclose(eighs[1], eave.t_sqrt @ p @ eave.t_sqrt, atol=1e-12)

    def test_precoder_below_psd_floor_raises(self):
        with pytest.raises(NotPsd):
            mc_ergodic_mi(iid_stats(1.0, 2, 2), np.diag([1.0, -1e-6]).astype(complex), 10, seed=0)


class TestMcErgodicMi:
    def test_same_seed_bit_identical(self):
        stats = iid_stats(3.0, 3, 2)
        a = mc_ergodic_mi(stats, np.eye(2), 1000, seed=42)
        b = mc_ergodic_mi(stats, np.eye(2), 1000, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_zero_snr(self):
        est = mc_ergodic_mi(iid_stats(0.0, 2, 2), np.eye(2), 100, seed=0)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_single_realization(self):
        est = mc_ergodic_mi(iid_stats(1.0, 2, 2), np.eye(2), 1, seed=5)
        assert est.num_realizations == 1
        assert est.std_error == 0.0
        assert est.mean > 0

    def test_std_error_scaling(self):
        stats = iid_stats(5.0, 2, 2)
        small = mc_ergodic_mi(stats, np.eye(2), 2000, seed=1)
        large = mc_ergodic_mi(stats, np.eye(2), 8000, seed=1)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_rotation_invariant_in_distribution(self):
        # With T = I a unitary congruence of the precoder leaves the MI
        # distribution unchanged.
        stats = iid_stats(4.0, 3, 3)
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        p = np.diag([2.0, 0.7, 0.3])
        base = mc_ergodic_mi(stats, p, 20_000, seed=11)
        rotated = mc_ergodic_mi(stats, hermitianize(q @ p @ q.conj().T), 20_000, seed=12)
        combined = np.hypot(base.std_error, rotated.std_error)
        assert abs(base.mean - rotated.mean) < 3 * combined

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            mc_ergodic_mi(iid_stats(1.0, 2, 2), np.eye(2), 0, seed=0)


class TestMcSecrecyRate:
    def test_identical_statistics_exact_zero(self):
        stats = iid_stats(2.0, 3, 3)
        est = mc_secrecy_rate(stats, stats, np.eye(3), 500, seed=3)
        assert est.mean == 0.0

    def test_combined_std_error(self):
        main = iid_stats(5.0, 3, 2)
        eave = iid_stats(1.0, 2, 2)
        est = mc_secrecy_rate(main, eave, np.eye(2), 2000, seed=4)
        em = mc_ergodic_mi(main, np.eye(2), 2000, seed=4)
        ee = mc_ergodic_mi(eave, np.eye(2), 2000, seed=4)
        assert est.mean == max(0.0, em.mean - ee.mean)
        assert est.std_error == pytest.approx(np.hypot(em.std_error, ee.std_error))

    def test_clamped_at_zero(self):
        main = iid_stats(1.0, 2, 2)
        eave = iid_stats(50.0, 2, 2)
        est = mc_secrecy_rate(main, eave, np.eye(2), 500, seed=6)
        assert est.mean == 0.0

import numpy as np
import pytest
from scipy.integrate import quad

from wiretap_lsl.channel import (
    ArraySpec,
    ChannelStatistics,
    complex_gaussian_matrix,
    gen_correlation,
    sample_channel,
)


def iid_stats(snr, n, m):
    return ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=np.eye(m), r_corr=np.eye(n))


class TestGenCorrelation:
    def test_zero_spacing_all_ones(self):
        t = gen_correlation(ArraySpec(4, 0.0, 40.0, 5.0))
        assert np.allclose(t, np.ones((4, 4)), atol=1e-12)

    def test_unit_diagonal_exact(self):
        t = gen_correlation(ArraySpec(6, 1.0, 40.0, 5.0))
        assert np.all(np.diag(t) == 1.0)

    def test_off_diagonal_matches_adaptive_quadrature(self):
        t = gen_correlation(ArraySpec(2, 1.0, 40.0, 5.0))
        theta, spread = np.deg2rad(40.0), np.deg2rad(5.0)

        def weight(phi):
            return np.exp(-((phi - theta) ** 2) / (2 * spread**2))

        kw = dict(epsabs=1e-13, epsrel=1e-13, limit=500)
        re = quad(lambda p: np.cos(2 * np.pi * np.sin(p)) * weight(p), -np.pi, np.pi, **kw)[0]
        im = quad(lambda p: np.sin(2 * np.pi * np.sin(p)) * weight(p), -np.pi, np.pi, **kw)[0]
        den = quad(weight, -np.pi, np.pi, **kw)[0]
        # entry (0, 1) has antenna offset a - b = -1
        oracle = (re - 1j * im) / den
        assert abs(t[0, 1] - oracle) <= 1e-10

    def test_hermitian_symmetry_exact(self):
        t = gen_correlation(ArraySpec(5, 1.5, -10.0, 5.0))
        assert np.array_equal(t, t.conj().T)

    def test_mean_angle_periodicity(self):
        t1 = gen_correlation(ArraySpec(3, 1.0, 40.0, 5.0))
        t2 = gen_correlation(ArraySpec(3, 1.0, 400.0, 5.0))
        assert np.array_equal(t1, t2)

    def test_large_spread_decorrelates(self):
        narrow = gen_correlation(ArraySpec(2, 1.0, 40.0, 5.0))
        wide = gen_correlation(ArraySpec(2, 1.0, 40.0, 1e4))
        assert abs(wide[0, 1]) < abs(narrow[0, 1])

    def test_psd(self):
        t = gen_correlation(ArraySpec(8, 3.0, 40.0, 5.0))
        lam = np.linalg.eigvalsh(t)
        assert lam.min() >= -1e-12


class TestComplexGaussian:
    def test_moments(self):
        rng = np.random.default_rng(101)
        w = complex_gaussian_matrix(1000, 1000, rng)
        assert abs(w.mean()) <= 3e-3
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_reproducible(self):
        w1 = complex_gaussian_matrix(5, 5, np.random.default_rng(7))
        w2 = complex_gaussian_matrix(5, 5, np.random.default_rng(7))
        assert np.array_equal(w1, w2)


class TestSampleChannel:
    def test_iid_unit_variance(self):
        m = 10
        stats = iid_stats(snr=float(m), n=10, m=m)
        rng = np.random.default_rng(0)
        entries = np.concatenate(
            [sample_channel(stats, rng).h.ravel() for _ in range(1000)]
        )
        assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_snr(self):
        stats = iid_stats(snr=0.0, n=3, m=2)
        h = sample_channel(stats, np.random.default_rng(1)).h
        assert np.all(h == 0)

    def test_fixed_seed_bit_identical(self):
        stats = iid_stats(snr=2.0, n=4, m=3)
        h1 = sample_channel(stats, np.random.default_rng(99)).h
        h2 = sample_channel(stats, np.random.default_rng(99)).h
        assert np.array_equal(h1, h2)

    def test_kronecker_covariance(self):
        m, n, snr = 3, 4, 2.0
        t = gen_correlation(ArraySpec(m, 0.5, 40.0, 20.0))
        r = np.eye(n)
        stats = ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=t, r_corr=r)
        rng = np.random.default_rng(5)
        samples = np.stack([sample_channel(stats, rng).h for _ in range(10_000)])
        vecs = samples.reshape(len(samples), -1, order="F")  # vec(H) stacks columns
        emp = np.einsum("ki,kj->ij", vecs, vecs.conj()) / len(samples)
        target = (snr / m) * np.kron(t.T, r)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel <= 0.05


class TestStatisticsCache:
    def test_r_eigs_cached_and_clipped(self):
        stats = ChannelStatistics(snr=1.0, num_rx=2, num_tx=2, t_corr=np.eye(2), r_corr=np.ones((2, 2)))
        assert stats.r_eigs is stats.r_eigs
        assert np.all(stats.r_eigs >= 0.0)
        assert np.allclose(stats.r_eigs, [0.0, 2.0], atol=1e-12)


class TestValidation:
    def test_bad_array_spec(self):
        with pytest.raises(ValueError):
            ArraySpec(0, 1.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            ArraySpec(2, -1.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 1.0, 40.0, 0.0)

    def test_beta(self):
        stats = iid_stats(snr=1.0, n=3, m=2)
        assert stats.beta == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ChannelStatistics(snr=1.0, num_rx=2, num_tx=2, t_corr=np.eye(3), r_corr=np.eye(2))

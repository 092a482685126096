from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from helpers import iid_stats
from wiretap_lsl import channel, detequiv
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, gen_correlation, sample_channel_block
from wiretap_lsl.detequiv import solve_fixed_point
from wiretap_lsl.errors import QuadratureFailure


@lru_cache(maxsize=2)
def full_interval_nodes(nodes):
    return roots_legendre(nodes)


def reference_correlation_row(spec, nodes=4096):
    """Full-interval rule: `nodes` Gauss-Legendre nodes over all of [-pi, pi].

    With 4096 nodes this is the quadrature the windowed rule replaced.
    """
    theta = np.deg2rad((spec.mean_angle_deg + 180.0) % 360.0 - 180.0)
    spread = np.deg2rad(spec.angle_spread_deg)
    x, w = full_interval_nodes(nodes)
    phi = np.pi * x
    weight = np.pi * w * np.exp(-((phi - theta) ** 2) / (2.0 * spread**2))
    k = np.arange(spec.num_antennas)
    phase = np.exp(2j * np.pi * spec.spacing_wavelengths * np.outer(k, np.sin(phi)))
    row = phase @ weight
    return row / row[0].real


def adaptive_entry(spec, offset):
    """Correlation between antennas `offset` apart by adaptive quadrature over [-pi, pi]."""
    theta = np.deg2rad((spec.mean_angle_deg + 180.0) % 360.0 - 180.0)
    spread = np.deg2rad(spec.angle_spread_deg)

    def weight(phi):
        return np.exp(-((phi - theta) ** 2) / (2 * spread**2))

    # The weight is below exp(-72) of its peak outside theta +- 12 sigma.
    lo, hi = max(-np.pi, theta - 12 * spread), min(np.pi, theta + 12 * spread)
    arg = 2 * np.pi * spec.spacing_wavelengths * offset
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=500)
    re = quad(lambda p: np.cos(arg * np.sin(p)) * weight(p), lo, hi, **kw)[0]
    im = quad(lambda p: np.sin(arg * np.sin(p)) * weight(p), lo, hi, **kw)[0]
    return (re + 1j * im) / quad(weight, lo, hi, **kw)[0]


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


class TestQuadrature:
    PRESET_SPECS = [
        ArraySpec(m, spacing, theta, 5.0)
        for m in (2, 4, 6)
        for theta in (40.0, -10.0)
        for spacing in np.round(np.arange(0.2, 3.0 + 1e-9, 0.1), 10)
    ]

    def test_preset_rows_match_full_interval_rule(self):
        for spec in self.PRESET_SPECS:
            row = channel._correlation_row(spec)
            assert np.abs(row - reference_correlation_row(spec)).max() <= 1e-12, spec

    def test_random_rows_match_full_interval_rule(self):
        # Where the weight peaks within a few spreads of +-pi, the
        # full-interval rule itself is off by up to ~4e-11 (its 4096- and
        # 8192-node rows differ by more than that); the bound adds that
        # self-estimate of its error to 1e-12.
        rng = np.random.default_rng(20260)
        for _ in range(300):
            spec = ArraySpec(
                int(rng.integers(1, 33)),
                float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(-360.0, 360.0)),
                float(rng.uniform(0.5, 60.0)),
            )
            reference = reference_correlation_row(spec)
            err = np.abs(channel._correlation_row(spec) - reference).max()
            if err > 1e-12:
                own_error = np.abs(reference - reference_correlation_row(spec, 8192)).max()
                assert err <= 1e-12 + own_error, spec

    @pytest.mark.parametrize(
        "spec",
        [ArraySpec(4, 1.0, 40.0, 0.5), ArraySpec(4, 1.0, 175.0, 5.0), ArraySpec(4, 1.0, 180.0, 0.5)],
        ids=["narrow-spread", "window-reaches-pi", "peak-at-pi"],
    )
    def test_matches_adaptive_quadrature(self, spec):
        row = channel._correlation_row(spec)
        for offset in range(1, spec.num_antennas):
            assert abs(row[offset] - adaptive_entry(spec, offset)) <= 1e-12

    def test_default_spec_needs_few_nodes(self, monkeypatch):
        # The cold start is cheap only while the window keeps the rule small.
        used = []
        real = channel._leggauss

        def recording(nodes):
            used.append(nodes)
            return real(nodes)

        monkeypatch.setattr(channel, "_leggauss", recording)
        channel._correlation_row.cache_clear()
        gen_correlation(ArraySpec(6, 1.0, 40.0, 5.0))
        assert max(used) <= 256

    def test_failure_when_rows_never_settle(self, monkeypatch):
        spec = ArraySpec(32, 3.0, 0.0, 60.0)
        monkeypatch.setattr(channel, "_QUAD_MAX_NODES", 128)
        channel._correlation_row.cache_clear()
        with pytest.raises(QuadratureFailure):
            gen_correlation(spec)


class TestComplexGaussian:
    """The i.i.d. draws W inside sample_channel_block (R = I, k = 1)."""

    def test_moments(self):
        stats = iid_stats(snr=1000.0, n=1, m=1000)
        w = sample_channel_block([stats], [np.ones(1000)], 1000, np.random.default_rng(101))
        assert abs(w.mean()) <= 3e-3
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_reproducible(self):
        # The stream is all real parts, then all imaginary parts.
        stats = iid_stats(snr=5.0, n=4, m=5)
        w = sample_channel_block([stats], [np.ones(5)], 3, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        re = rng.standard_normal((3, 4, 5))
        im = rng.standard_normal((3, 4, 5))
        assert np.allclose(w, (re + 1j * im) / np.sqrt(2.0), rtol=0, atol=1e-15)


class TestSampleChannel:
    def test_iid_unit_variance(self):
        m = 10
        stats = iid_stats(snr=float(m), n=10, m=m)
        h = sample_channel_block([stats], [np.ones(m)], 1000, np.random.default_rng(0))
        assert h.shape == (1000, 10, m)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_snr(self):
        stats = iid_stats(snr=0.0, n=3, m=2)
        h = sample_channel_block([stats], [np.ones(2)], 4, np.random.default_rng(1))
        assert np.all(h == 0)

    def test_fixed_seed_bit_identical(self):
        stats = iid_stats(snr=2.0, n=4, m=3)
        k = np.array([0.0, 1.0, 2.0])
        h1 = sample_channel_block([stats], [k], 5, np.random.default_rng(99))
        h2 = sample_channel_block([stats], [k], 5, np.random.default_rng(99))
        assert np.array_equal(h1, h2)

    def test_links_share_w(self):
        # Each link scales the first N rows of one W draw; the taller link
        # sets the rows drawn.
        main = ChannelStatistics(snr=2.0, num_rx=2, num_tx=3, t_corr=np.eye(3), r_corr=np.diag([0.5, 1.5]))
        eave = iid_stats(snr=6.0, n=4, m=3)
        k_main, k_eave = np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 2.0])
        g = sample_channel_block([main, eave], [k_main, k_eave], 5, np.random.default_rng(3))
        alone = sample_channel_block([eave], [k_eave], 5, np.random.default_rng(3))
        assert g.shape == (5, 6, 3)
        assert np.array_equal(g[:, 2:], alone)
        w = alone[:, :2, 1:] / np.sqrt(np.outer([1.0, 1.0], k_eave[1:]))
        expected = w * np.sqrt(np.outer(main.r_eigs, (2.0 / 6.0) * k_main[1:]))
        assert np.allclose(g[:, :2, 1:], expected, rtol=1e-14, atol=0)

    @staticmethod
    def covariance_error(t, r, snr, p):
        # In the eigenbases of R and K = T^(1/2) P T^(1/2) the Kronecker
        # covariance (rho/M) K^T (x) R is diagonal: (rho/M) r_i k_j.
        n, m = r.shape[0], t.shape[0]
        stats = ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=t, r_corr=r)
        k = solve_fixed_point(stats, p).k_eigs
        samples = sample_channel_block([stats], [k], 10_000, np.random.default_rng(5))
        vecs = samples.reshape(len(samples), -1, order="F")  # vec(G) stacks columns
        emp = np.einsum("ki,kj->ij", vecs, vecs.conj()) / len(samples)
        target = (snr / m) * np.diag(np.kron(k, np.linalg.eigvalsh(r)))
        return np.linalg.norm(emp - target) / np.linalg.norm(target)

    def test_kronecker_covariance(self):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        assert self.covariance_error(t, np.eye(4), snr=2.0, p=np.eye(3)) <= 0.05

    def test_kronecker_covariance_correlated_receiver(self):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        r = gen_correlation(ArraySpec(4, 0.7, -30.0, 10.0))
        p = np.array([[1.5, 0.3j, 0.0], [-0.3j, 1.0, 0.2], [0.0, 0.2, 0.5]])
        assert self.covariance_error(t, r, snr=2.0, p=p) <= 0.05


class TestStatisticsCache:
    def test_r_eigs_cached_and_clipped(self):
        stats = ChannelStatistics(snr=1.0, num_rx=2, num_tx=2, t_corr=np.eye(2), r_corr=np.ones((2, 2)))
        assert stats.r_eigs is stats.r_eigs
        assert np.all(stats.r_eigs >= 0.0)
        assert np.allclose(stats.r_eigs, [0.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_identity_receiver_spectrum_is_exactly_ones(self, n):
        # Sampling scales by sqrt(r) with no R = I branch; that matches
        # R = I exactly only because its spectrum is exactly ones.
        assert iid_stats(snr=1.0, n=n, m=2).r_eigs.tolist() == [1.0] * n

    def test_k_eigs_reuse_t_factorization(self, monkeypatch):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        calls = []
        original = channel.psd_eigh

        def counting(a):
            calls.append(a)
            return original(a)

        # T is factored in channel, K in detequiv: count both.
        monkeypatch.setattr(channel, "psd_eigh", counting)
        monkeypatch.setattr(detequiv, "psd_eigh", counting)
        stats = ChannelStatistics(snr=1.0, num_rx=2, num_tx=3, t_corr=t, r_corr=np.eye(2))
        stats.r_eigs  # R's one factorization, before counting starts
        calls.clear()
        p = np.diag([0.5, 1.0, 1.5])
        k = solve_fixed_point(stats, p).k_eigs
        solve_fixed_point(stats, np.eye(3))
        assert len(calls) == 3 and calls[0] is t
        assert np.allclose(k, np.linalg.eigvalsh(stats.t_sqrt @ p @ stats.t_sqrt), atol=1e-12)
        assert np.allclose(stats.t_sqrt @ stats.t_sqrt, t, atol=1e-12)


class TestValidation:
    def test_bad_array_spec(self):
        with pytest.raises(ValueError):
            ArraySpec(0, 1.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            ArraySpec(2, -1.0, 40.0, 5.0)
        with pytest.raises(ValueError):
            ArraySpec(2, 1.0, 40.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("spacing_wavelengths", float("nan")),
            ("spacing_wavelengths", float("inf")),
            ("mean_angle_deg", float("nan")),
            ("mean_angle_deg", float("inf")),
            ("mean_angle_deg", float("-inf")),
            ("angle_spread_deg", float("nan")),
            ("angle_spread_deg", float("inf")),
        ],
    )
    def test_non_finite_array_spec(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ArraySpec(2, **{field: value})

    def test_beta(self):
        stats = iid_stats(snr=1.0, n=3, m=2)
        assert stats.beta == 1.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ChannelStatistics(snr=1.0, num_rx=2, num_tx=2, t_corr=np.eye(3), r_corr=np.eye(2))

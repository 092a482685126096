import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, roots_legendre

from helpers import iid_stats, link_channels
import wiretap_lsl
from wiretap_lsl import channel, detequiv
from wiretap_lsl.channel import ArraySpec, ChannelStatistics, Transmit, gen_correlation, sample_channel_block
from wiretap_lsl.detequiv import lsl_secrecy_rate, solve_fixed_point
from wiretap_lsl.errors import NotPsd, QuadratureFailure
from wiretap_lsl.linalg import congruence, psd_eigh
from wiretap_lsl.precoders import Strategy, optimize


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

    # Spacing 0 gives the rank-1 all-ones T, with M - 1 zero eigenvalues;
    # M = 64 is the largest accepted array.
    @pytest.mark.parametrize(
        "spec",
        [ArraySpec(5, 1.5, -10.0, 5.0), ArraySpec(5, 0.0, 40.0, 5.0), ArraySpec(64, 1.0, 40.0, 5.0)],
        ids=["m5", "m5-spacing0", "m64"],
    )
    def test_hermitian_symmetry_exact(self, spec):
        t = gen_correlation(spec)
        assert np.array_equal(t, t.conj().T)

    @pytest.mark.parametrize("spacing", [0.0, 1.5])
    def test_builds_t_without_factoring_it(self, monkeypatch, spacing):
        # Checking, clipping and factoring T is its Transmit's job alone.
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        t = gen_correlation(ArraySpec(5, spacing, 40.0, 5.0))
        assert calls == [] and t.shape == (5, 5)

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
        # The rules come from a stored table, so the cold start no longer
        # pays for node generation; the window keeps row_at's own cost,
        # linear in the nodes, small.
        used = []
        real = channel._leggauss

        def recording(nodes):
            used.append(nodes)
            return real(nodes)

        monkeypatch.setattr(channel, "_leggauss", recording)
        gen_correlation(ArraySpec(6, 1.0, 40.0, 5.0))
        assert max(used) <= 256

    @pytest.mark.parametrize("spread", [1e-15, 1e-16, 1e-100, 1e-200, 1e-300])
    @pytest.mark.parametrize("theta", [0.0, 40.0, -90.0, 180.0])
    def test_vanishing_spread_gives_plane_wave(self, theta, spread):
        # Below about 1e-15 degrees the window theta +- 10 sigma rounds to
        # one point, or sigma**2 underflows; there the row is the limit
        # sigma -> 0, the plane wave from theta, as the quadrature gives
        # just above, and no floating-point warning is raised.
        spec = ArraySpec(6, 1.0, theta, spread)
        plane = np.exp(2j * np.pi * np.arange(6) * np.sin(np.deg2rad(theta)))
        assert np.abs(channel._correlation_row(spec) - plane).max() <= 1e-13
        assert np.abs(gen_correlation(spec) - np.outer(plane, plane.conj())).max() <= 1e-12

    def test_huge_spread_gives_uniform_limit(self):
        # sigma**2 overflows to inf, so every node weighs the same: the
        # uniform-azimuth limit J0(2 pi d k), with no overflow warning.
        row = channel._correlation_row(ArraySpec(6, 1.0, 40.0, 1e300))
        assert np.abs(row - j0(2 * np.pi * np.arange(6))).max() <= 1e-9

    def test_failure_when_rows_never_settle(self, monkeypatch):
        spec = ArraySpec(32, 3.0, 0.0, 60.0)
        monkeypatch.setattr(channel, "_QUAD_MAX_NODES", 128)
        with pytest.raises(QuadratureFailure):
            gen_correlation(spec)


class TestLegendreTable:
    """The stored Gauss-Legendre rules that _leggauss reads."""

    SIZES = [channel._QUAD_MIN_NODES << k for k in range(8)]

    def test_sizes_double_from_min_to_max(self):
        assert self.SIZES[-1] == channel._QUAD_MAX_NODES
        with np.load(channel._QUAD_TABLE) as table:
            stored = {int(name): table[name].shape for name in table.files}
        assert sorted(stored) == self.SIZES
        assert all(shape == (2, n // 2) for n, shape in stored.items())

    @pytest.mark.parametrize("n", SIZES)
    def test_rule_properties(self, n):
        x, w = channel._leggauss(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
        assert np.all(w > 0) and abs(w.sum() - 2.0) <= 1e-14
        # Exact for polynomials of degree < 2n, up to the rounding of the
        # nodes (at most 5.4e-13, at 2048); odd powers cancel by symmetry.
        for j in range(1, 6):
            assert abs(np.dot(w, x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-12

    @pytest.mark.parametrize("n", SIZES[:6])
    def test_matches_scipy(self, n):
        # A tolerance, not bitwise: another scipy may round differently.
        # The 4096- and 8192-node rules cost scipy seconds to compute.
        x, w = channel._leggauss(n)
        ref_x, ref_w = roots_legendre(n)
        np.testing.assert_array_max_ulp(x, ref_x, maxulp=2)
        np.testing.assert_array_max_ulp(w, ref_w, maxulp=2)

    def test_import_loads_no_scipy(self):
        # A fresh process: this one has imported scipy for the tests.
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import wiretap_lsl; "
            "from wiretap_lsl.channel import ArraySpec, gen_correlation; gen_correlation(ArraySpec(6)); "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
        )
        src = str(Path(wiretap_lsl.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == []


class TestComplexGaussian:
    """The i.i.d. draws W of sample_channel_block, scaled to unit variance."""

    def test_moments(self):
        w = sample_channel_block(1000, 1, 1000, np.random.default_rng(101)) / np.sqrt(2.0)
        assert abs(w.mean()) <= 3e-3
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_reproducible(self):
        # The stream is all real parts, then all imaginary parts.
        w = sample_channel_block(3, 4, 5, np.random.default_rng(7)) / np.sqrt(2.0)
        rng = np.random.default_rng(7)
        re = rng.standard_normal((3, 4, 5))
        im = rng.standard_normal((3, 4, 5))
        assert np.allclose(w, (re + 1j * im) / np.sqrt(2.0), rtol=0, atol=1e-15)


class TestSampleChannel:
    """Each link's channel G = W diag(sqrt((rho/2M) k)) over W's first N
    rows, as helpers.link_channels scales it from the sampler's W with
    the column weights that Monte Carlo uses."""

    def test_iid_unit_variance(self):
        m = 10
        stats = iid_stats(snr=float(m), n=10, m=m)
        h = link_channels([stats], [np.ones(m)], 1000, np.random.default_rng(0))
        assert h.shape == (1000, 10, m)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_snr(self):
        stats = iid_stats(snr=0.0, n=3, m=2)
        h = link_channels([stats], [np.ones(2)], 4, np.random.default_rng(1))
        assert np.all(h == 0)

    def test_fixed_seed_bit_identical(self):
        stats = iid_stats(snr=2.0, n=4, m=3)
        k = np.array([0.0, 1.0, 2.0])
        h1 = link_channels([stats], [k], 5, np.random.default_rng(99))
        h2 = link_channels([stats], [k], 5, np.random.default_rng(99))
        assert np.array_equal(h1, h2)

    def test_links_share_w(self):
        # Each link scales the first N rows of one W draw; the taller link
        # sets the rows drawn.
        main = iid_stats(snr=2.0, n=2, m=3)
        eave = iid_stats(snr=6.0, n=4, m=3)
        k_main, k_eave = np.array([0.5, 1.0, 1.5]), np.array([0.0, 1.0, 2.0])
        g = link_channels([main, eave], [k_main, k_eave], 5, np.random.default_rng(3))
        alone = link_channels([eave], [k_eave], 5, np.random.default_rng(3))
        assert g.shape == (5, 6, 3)
        assert np.array_equal(g[:, 2:], alone)
        w = alone[:, :2, 1:] / np.sqrt(np.outer([1.0, 1.0], k_eave[1:]))
        expected = w * np.sqrt((2.0 / 6.0) * k_main[1:])
        assert np.allclose(g[:, :2, 1:], expected, rtol=1e-14, atol=0)

    def test_links_must_share_m(self):
        # Every link scales W's M columns: a narrower link after a wider
        # one was broadcast over them, and before it failed to broadcast.
        wide, narrow = iid_stats(2.0, 3, 4), iid_stats(2.0, 3, 1)
        for stats in ([wide, narrow], [narrow, wide]):
            with pytest.raises(ValueError, match="transmit antenna count"):
                link_channels(stats, [np.ones(s.num_tx) for s in stats], 5, np.random.default_rng(0))

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_spectrum_must_have_m_entries(self, length):
        # A 1-entry k was broadcast over the M = 3 columns, and a 2-entry
        # one failed with numpy's broadcast error.
        with pytest.raises(ValueError, match=rf"spectrum 1 has shape \({length},\), not the \(3,\)"):
            link_channels([iid_stats(2.0, 2, 3)] * 2, [np.ones(3), np.ones(length)], 4, np.random.default_rng(0))

    @pytest.mark.parametrize("links, spectra", [(2, 1), (1, 2)])
    def test_one_spectrum_per_link(self, links, spectra):
        # Two links and one spectrum left the second link's rows unwritten.
        with pytest.raises(ValueError):
            link_channels([iid_stats(2.0, 2, 3)] * links, [np.ones(3)] * spectra, 4, np.random.default_rng(0))

    @staticmethod
    def covariance_error(t, n, snr, p):
        # In the eigenbasis of K = T^(1/2) P T^(1/2) the Kronecker
        # covariance (rho/M) K^T (x) I_N is diagonal: (rho/M) k_j.
        m = t.shape[0]
        stats = ChannelStatistics(snr=snr, transmit=Transmit(t), num_rx=n)
        k = solve_fixed_point(stats, p).k_eigs
        samples = link_channels([stats], [k], 10_000, np.random.default_rng(5))
        vecs = samples.reshape(len(samples), -1, order="F")  # vec(G) stacks columns
        emp = np.einsum("ki,kj->ij", vecs, vecs.conj()) / len(samples)
        target = (snr / m) * np.diag(np.kron(k, np.ones(n)))
        return np.linalg.norm(emp - target) / np.linalg.norm(target)

    def test_kronecker_covariance(self):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        assert self.covariance_error(t, 4, snr=2.0, p=np.eye(3)) <= 0.05

    def test_kronecker_covariance_precoded(self):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        p = np.array([[1.5, 0.3j, 0.0], [-0.3j, 1.0, 0.2], [0.0, 0.2, 0.5]])
        assert self.covariance_error(t, 4, snr=2.0, p=p) <= 0.05


class TestStatisticsCache:
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_identity_receiver_spectrum_is_exactly_ones(self, n):
        # R = I's spectrum is exactly ones, so the solver's closed forms at
        # R = I, e = rho / (1 + delta) and the MI's receive term
        # N ln(1 + delta), are the sums over that spectrum, to roundoff.
        assert psd_eigh(np.eye(n))[0].tolist() == np.linalg.eigvalsh(np.eye(n)).tolist() == [1.0] * n
        stats = ChannelStatistics(snr=3.0, transmit=Transmit(gen_correlation(ArraySpec(4, 0.5, 40.0, 20.0))), num_rx=n)
        fp = solve_fixed_point(stats, np.eye(4))
        assert fp.e == 3.0 / (1.0 + fp.delta)
        assert fp.e == pytest.approx((3.0 / n) * np.sum(np.ones(n) / (1.0 + fp.delta)), rel=1e-15)
        terms = np.log1p(stats.beta * fp.e * fp.k_eigs).sum(), np.log1p(fp.delta * np.ones(n)).sum()
        assert fp.mi == pytest.approx((terms[0] + terms[1]) / 4 - stats.beta / 3.0 * fp.delta * fp.e, rel=1e-14)

    def test_k_eigs_reuse_t_factorization(self, monkeypatch):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        calls = []
        original = np.linalg.eigh

        def counting(a):
            calls.append(a)
            return original(a)

        # T is factored once by its Transmit, K once per solve at a caller's
        # own P. R = I is never factored.
        monkeypatch.setattr(np.linalg, "eigh", counting)
        stats = ChannelStatistics(snr=1.0, transmit=Transmit(t), num_rx=2)
        p = np.diag([0.5, 1.0, 1.5])
        k = solve_fixed_point(stats, p).k_eigs
        solve_fixed_point(stats, np.eye(3))
        assert len(calls) == 3 and np.array_equal(calls[0][0], t)
        assert np.allclose(k, np.linalg.eigvalsh(stats.transmit.t_sqrt @ p @ stats.transmit.t_sqrt), atol=1e-12)
        assert np.allclose(stats.transmit.t_sqrt @ stats.transmit.t_sqrt, t, atol=1e-12)


class TestTransmit:
    def test_factors_once(self, monkeypatch):
        # T is factored when the Transmit is made, and never again: not
        # by the links that share it, nor by a solve or a design.
        t = gen_correlation(ArraySpec(4, 0.5, 40.0, 20.0))
        calls = []
        original = channel.psd_eigh

        def counting(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(channel, "psd_eigh", counting)
        transmit = Transmit(t)
        main, eave = (ChannelStatistics(1.0, transmit, n) for n in (4, 2))
        rate = lsl_secrecy_rate(main, eave, np.eye(4))
        optimize(Strategy.WATER_FILLING, rate)
        assert len(calls) == 1

    def test_holds_read_only_factors_of_its_own_copy(self):
        t = gen_correlation(ArraySpec(3, 0.5, 40.0, 20.0))
        transmit = Transmit(t)
        lam, q = psd_eigh(t)
        assert t.flags.writeable and transmit.t_corr is not t and np.array_equal(transmit.t_corr, t)
        assert np.array_equal(transmit.t_eigh[0], lam) and np.array_equal(transmit.t_eigh[1], q)
        assert np.array_equal(transmit.t_sqrt, congruence(q, np.sqrt(lam)))
        assert not any(x.flags.writeable for x in (transmit.t_corr, *transmit.t_eigh, transmit.t_sqrt))
        with pytest.raises(ValueError, match="read-only"):
            transmit.t_sqrt[0, 0] = 0.0

    def test_not_psd_raises_at_construction(self):
        with pytest.raises(NotPsd):
            Transmit(np.diag([1.0, -1e-6]))


class TestIdentity:
    def test_links_compare_and_hash_by_identity(self):
        link, twin = iid_stats(1.0, 2, 2), iid_stats(1.0, 2, 2)
        assert link == link and link != twin
        assert hash(link) == hash(link) != hash(twin)
        assert link in {link} and twin not in {link}
        assert len({link, twin, link}) == 2


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
            # A bool was taken as 0 or 1 and a complex angle as given; a
            # string or None raised a bare TypeError from np.isfinite.
            ("spacing_wavelengths", True),
            ("mean_angle_deg", 1j),
            ("spacing_wavelengths", "1"),
            ("angle_spread_deg", None),
        ],
    )
    def test_non_finite_array_spec(self, field, value):
        with pytest.raises(ValueError, match="finite real numbers"):
            ArraySpec(2, **{field: value})

    def test_numpy_and_infinite_values_accepted(self):
        # NumPy ints and floats are real numbers; an infinite SNR stays
        # accepted (see test_nan_residual_hides_no_other_pair).
        spec = ArraySpec(np.int64(2), np.float32(0.5), np.int64(40), np.float64(5.0))
        assert spec.spacing_wavelengths == 0.5
        for snr in (np.float64(2.0), np.int32(2), 2, np.inf):
            assert ChannelStatistics(snr, Transmit(np.eye(2)), 3).snr == snr

    def test_beta(self):
        stats = iid_stats(snr=1.0, n=3, m=2)
        assert (stats.num_rx, stats.num_tx, stats.beta) == (3, 2, 1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr", float("nan")),
            ("snr", -1.0),
            ("snr", True),
            ("snr", "1"),
            ("snr", 1j),
            ("snr", None),
            ("transmit", np.eye(2)),
            ("num_rx", 0),
            ("num_rx", -1),
            ("num_rx", float("nan")),
            ("num_rx", float("inf")),
            ("num_rx", 2.5),
            ("num_rx", True),
            ("num_rx", np.ones((2, 2))),
            ("num_rx", np.empty(0)),
        ],
        # The receive side, -r, is its antenna count N: an integer >= 1.
        ids=[
            "nan-snr",
            "negative-snr",
            "bool-snr",
            "str-snr",
            "complex-snr",
            "none-snr",
            "bare-array-t",
            "zero-r",
            "negative-r",
            "nan-r",
            "inf-r",
            "fractional-r",
            "bool-r",
            "2d-r",
            "empty-r",
        ],
    )
    def test_invalid_link_rejected(self, field, value):
        # A link takes T as a Transmit, never as the bare matrix.
        link = {"snr": 1.0, "transmit": Transmit(np.eye(2)), "num_rx": 3, field: value}
        with pytest.raises(ValueError, match=field):
            ChannelStatistics(**link)

    @pytest.mark.parametrize(
        "t_corr",
        [np.ones((2, 3)), np.ones(3), np.empty((0, 0)), np.full((2, 2), np.nan), np.diag([1.0, np.inf])],
        # NaN passed the PSD test and gave NaN factors; inf raised a
        # RuntimeWarning from the factorization.
        ids=["non-square-t", "1d-t", "empty-t", "nan-t", "inf-t"],
    )
    def test_invalid_transmit_rejected(self, t_corr):
        with pytest.raises(ValueError, match="t_corr"):
            Transmit(t_corr)

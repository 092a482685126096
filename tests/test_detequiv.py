import numpy as np
import pytest

from wiretap_lsl import detequiv
from wiretap_lsl.channel import ChannelStatistics, gen_correlation, ArraySpec
from wiretap_lsl.detequiv import (
    lsl_mutual_information,
    lsl_objective,
    lsl_secrecy_rate,
    solve_fixed_point,
)
from wiretap_lsl.errors import NoConvergence
from wiretap_lsl.linalg import hermitianize

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def iid_stats(snr, n, m):
    return ChannelStatistics(snr=snr, num_rx=n, num_tx=m, t_corr=np.eye(m), r_corr=np.eye(n))


def scalar_delta(rho, beta):
    """Analytic solution of e = rho/(1+delta), delta = rho/(1+beta*e).

    delta is the positive root of delta^2 + b delta - rho = 0; for b > 0
    the rationalized form avoids cancelling -b against the square root.
    """
    b = 1.0 + beta * rho - rho
    root = np.sqrt(b * b + 4 * rho)
    if b > 0:
        return 2.0 * rho / (b + root)
    return (-b + root) / 2.0


def fig_default_stats(snr_db, m=4):
    t = gen_correlation(ArraySpec(m, 1.0, 40.0, 5.0))
    return ChannelStatistics(snr=10.0 ** (snr_db / 10.0), num_rx=m, num_tx=m, t_corr=t, r_corr=np.eye(m))


class TestFixedPoint:
    def test_scalar_golden_ratio(self):
        fp = solve_fixed_point(iid_stats(1.0, 1, 1), np.eye(1))
        assert fp.e == pytest.approx(GOLDEN, abs=1e-9)
        assert fp.delta == pytest.approx(GOLDEN, abs=1e-9)

    def test_zero_snr(self):
        fp = solve_fixed_point(iid_stats(0.0, 1, 1), np.eye(1))
        assert fp.e == 0.0 and fp.delta == 0.0

    def test_scalar_rho_ten(self):
        fp = solve_fixed_point(iid_stats(10.0, 4, 4), np.eye(4))
        expected = (-1.0 + np.sqrt(41.0)) / 2.0
        assert fp.e == pytest.approx(expected, abs=1e-9)
        assert fp.delta == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, 1e-4, 1e3, 1e6])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_scalar_quadratic(self, rho, beta):
        m = 2
        n = int(round(beta * m))
        fp = solve_fixed_point(iid_stats(rho, n, m), np.eye(m))
        delta = scalar_delta(rho, beta)
        e = rho / (1.0 + delta)
        # e and delta reach 5e5 at rho = 1e6, where only a relative bound
        # is attainable in double precision.
        assert fp.delta == pytest.approx(delta, rel=1e-12, abs=1e-10)
        assert fp.e == pytest.approx(e, rel=1e-12, abs=1e-10)
        assert fp.residual <= 1e-12

    def test_scalar_sixty_db(self):
        # M = N = 1 at 60 dB: e = delta = 2 rho / (1 + sqrt(1 + 4 rho)).
        rho = 1e6
        fp = solve_fixed_point(iid_stats(rho, 1, 1), np.eye(1))
        expected = 2.0 * rho / (1.0 + np.sqrt(1.0 + 4.0 * rho))
        assert fp.delta == pytest.approx(expected, rel=1e-12)
        assert fp.e == pytest.approx(expected, rel=1e-12)
        assert fp.residual <= 1e-12

    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0, 60.0])
    def test_few_iterations_correlated(self, snr_db):
        fp = solve_fixed_point(fig_default_stats(snr_db), np.eye(4))
        assert fp.iterations <= 20
        assert fp.residual <= 1e-12

    def test_few_iterations_iid_high_snr(self):
        fp = solve_fixed_point(iid_stats(1e4, 4, 4), np.eye(4))
        assert fp.iterations <= 20
        assert fp.delta == pytest.approx(scalar_delta(1e4, 1.0), rel=1e-12)

    def test_zero_precoder(self):
        # K = 0 collapses the bracket to delta = 0, where e = (rho/N) tr R.
        fp = solve_fixed_point(iid_stats(4.0, 2, 3), np.zeros((3, 3)))
        assert fp.delta == 0.0
        assert fp.e == pytest.approx(4.0, abs=1e-15)

    def test_raises_at_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(detequiv, "_FP_MAX_ITER", 2)
        with pytest.raises(NoConvergence):
            solve_fixed_point(fig_default_stats(60.0), np.eye(4))

    def test_residual_below_tolerance(self):
        fp = solve_fixed_point(iid_stats(5.0, 3, 2), np.eye(2))
        assert fp.residual <= 1e-12


class TestSpectraOnce:
    @pytest.fixture
    def spectra_calls(self, monkeypatch):
        calls = []
        original = detequiv._spectra

        def counting(stats, p):
            calls.append(stats)
            return original(stats, p)

        monkeypatch.setattr(detequiv, "_spectra", counting)
        return calls

    def test_one_eigendecomposition_per_link(self, spectra_calls):
        main = fig_default_stats(10.0)
        eave = iid_stats(10.0, 2, 4)
        rate = lsl_secrecy_rate(main, eave, np.eye(4))
        assert len(spectra_calls) == 2
        assert spectra_calls[0] is main and spectra_calls[1] is eave
        assert rate.fp_main == solve_fixed_point(main, np.eye(4))
        assert rate.fp_eave == solve_fixed_point(eave, np.eye(4))

    def test_k_eigs_travel_with_fixed_point(self):
        stats = fig_default_stats(10.0)
        p = np.diag([2.0, 1.0, 0.5, 0.5])
        fp = solve_fixed_point(stats, p)
        expected = np.linalg.eigvalsh(stats.t_sqrt @ p @ stats.t_sqrt)
        assert np.allclose(fp.k_eigs, np.clip(expected, 0.0, None), atol=1e-12)


class TestMutualInformation:
    def test_zero_snr(self):
        stats = iid_stats(0.0, 2, 2)
        fp = solve_fixed_point(stats, np.eye(2))
        assert lsl_mutual_information(stats, fp) == 0.0

    def test_scalar_analytic_value(self):
        # Oracle: plug e = delta = (sqrt(5)-1)/2 into the closed form:
        # 2 ln(1+e) - e^2 = 0.5804576388691... nats.
        stats = iid_stats(1.0, 1, 1)
        fp = solve_fixed_point(stats, np.eye(1))
        expected = 2.0 * np.log(1.0 + GOLDEN) - GOLDEN**2
        assert expected == pytest.approx(0.5804576388691, abs=1e-12)
        assert lsl_mutual_information(stats, fp) == pytest.approx(expected, abs=1e-8)

    def test_unitary_congruence_invariance(self):
        rng = np.random.default_rng(8)
        m = 4
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        t = hermitianize(np.eye(m) + g @ g.conj().T / m)
        gp = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        p = hermitianize(gp @ gp.conj().T / m)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))

        def mi(t_mat, p_mat):
            stats = ChannelStatistics(snr=3.0, num_rx=m, num_tx=m, t_corr=t_mat, r_corr=np.eye(m))
            fp = solve_fixed_point(stats, p_mat)
            return lsl_mutual_information(stats, fp)

        base = mi(t, p)
        rotated = mi(hermitianize(q @ t @ q.conj().T), hermitianize(q @ p @ q.conj().T))
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_monotone_in_snr(self):
        t = gen_correlation(ArraySpec(3, 1.0, 40.0, 5.0))
        previous = -1.0
        for snr in [0.1, 0.5, 1.0, 5.0, 10.0, 50.0]:
            stats = ChannelStatistics(snr=snr, num_rx=3, num_tx=3, t_corr=t, r_corr=np.eye(3))
            fp = solve_fixed_point(stats, np.eye(3))
            mi = lsl_mutual_information(stats, fp)
            assert mi > previous
            previous = mi


class TestSecrecyRate:
    def test_identical_statistics_zero(self):
        stats = iid_stats(2.0, 3, 3)
        rate = lsl_secrecy_rate(stats, stats, np.eye(3))
        assert rate.rs == 0.0

    def test_strong_eavesdropper_clamped(self):
        main = iid_stats(1.0, 2, 2)
        eave = iid_stats(100.0, 2, 2)
        rate = lsl_secrecy_rate(main, eave, np.eye(2))
        assert rate.i_eave > rate.i_main
        assert rate.rs == 0.0

    def test_transmit_dim_mismatch(self):
        with pytest.raises(ValueError):
            lsl_secrecy_rate(iid_stats(1.0, 2, 2), iid_stats(1.0, 2, 3), np.eye(2))


class TestObjective:
    def test_symmetric_zero(self):
        stats = iid_stats(1.0, 2, 2)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2, 2))
        p = g @ g.T
        assert lsl_objective(0.7, 0.7, stats, stats, p) == 0.0

    def test_zero_precoder(self):
        main = iid_stats(2.0, 2, 2)
        eave = iid_stats(1.0, 4, 2)
        assert lsl_objective(0.5, 0.3, main, eave, np.zeros((2, 2))) == 0.0

    def test_consistent_with_full_rate(self):
        # At converged fixed points, the objective must equal the
        # difference of the log-det terms inside the full expression.
        t_m = gen_correlation(ArraySpec(3, 1.0, 40.0, 5.0))
        t_e = gen_correlation(ArraySpec(3, 1.0, -10.0, 5.0))
        main = ChannelStatistics(snr=5.0, num_rx=3, num_tx=3, t_corr=t_m, r_corr=np.eye(3))
        eave = ChannelStatistics(snr=5.0, num_rx=2, num_tx=3, t_corr=t_e, r_corr=np.eye(2))
        p = np.eye(3)
        fp_m = solve_fixed_point(main, p)
        fp_e = solve_fixed_point(eave, p)
        obj = lsl_objective(fp_m.e, fp_e.e, main, eave, p)
        term_m = np.linalg.slogdet(np.eye(3) + main.beta * fp_m.e * t_m)[1]
        term_e = np.linalg.slogdet(np.eye(3) + eave.beta * fp_e.e * t_e)[1]
        assert obj == pytest.approx(max(0.0, (term_m - term_e) / 3), abs=1e-10)

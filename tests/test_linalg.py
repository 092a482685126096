import numpy as np
import pytest

from wiretap_lsl.errors import NotPsd, RankDeficient
from wiretap_lsl.linalg import congruence, gsvd, psd_eigh


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestPsdEigh:
    def test_diagonal_input(self):
        lam, q = psd_eigh(np.diag([3.0, 1.0]))
        assert np.allclose(lam, [1.0, 3.0])
        assert np.allclose(np.abs(q), [[0, 1], [1, 0]])

    def test_identity(self):
        lam, q = psd_eigh(np.eye(4))
        assert np.allclose(lam, 1.0)
        assert np.allclose(q.conj().T @ q, np.eye(4), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, 4, 4)
        a = g @ g.conj().T
        lam, q = psd_eigh(a)
        recon = congruence(q, lam)
        assert np.array_equal(recon, recon.conj().T)
        assert np.linalg.norm(recon - a) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_rounding_negatives_clipped(self):
        # Between the -1e-12 floor and 0 an eigenvalue is rounding noise.
        lam, _ = psd_eigh(np.diag([2.0, -5e-13, 1.0]))
        assert lam.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("negative", [-2e-12, -1e-6])
    def test_below_floor_raises(self, negative):
        with pytest.raises(NotPsd):
            psd_eigh(np.diag([1.0, negative]))


class TestGsvd:
    def test_identity_pair(self):
        eye = np.eye(2, dtype=complex)
        f = gsvd(eye, eye)
        assert np.allclose(f.sigma_m, 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(f.sigma_e, 1 / np.sqrt(2), atol=1e-12)
        check_factorization(f, eye, eye)

    def test_hand_computed_2x2(self):
        # Column norms of the stacked [diag(2,1); I] are sqrt(5) and
        # sqrt(2); normalizing each column gives the cosine/sine split.
        a, b = np.diag([2.0, 1.0]).astype(complex), np.eye(2, dtype=complex)
        f = gsvd(a, b)
        assert np.allclose(f.sigma_m**2, [4 / 5, 1 / 2], atol=1e-12)
        assert np.allclose(f.sigma_e**2, [1 / 5, 1 / 2], atol=1e-12)
        check_factorization(f, a, b)

    def test_rank_deficient_raises(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        with pytest.raises(RankDeficient):
            gsvd(a, a)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs_invariants(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            m = int(rng.integers(2, 9))
            a = random_complex(rng, m, m)
            b = random_complex(rng, m, m)
            f = gsvd(a, b)
            check_factorization(f, a, b)

    def test_small_sines_to_relative_accuracy(self):
        # The subchannels that favor A have tiny sines; they must come
        # out to relative accuracy, not to the absolute roundoff that a
        # route through the cosines (all near 1 there) would give.
        rng = np.random.default_rng(7)
        sigma_e = np.array([0.9, 0.5, 1e-6, 1e-9])
        sigma_m = np.sqrt(1 - sigma_e**2)
        u_m = np.linalg.qr(random_complex(rng, 4, 4))[0]
        u_e = np.linalg.qr(random_complex(rng, 4, 4))[0]
        vh = random_complex(rng, 4, 4)
        f = gsvd(u_m @ np.diag(sigma_m) @ vh, u_e @ np.diag(sigma_e) @ vh)
        assert np.allclose(f.sigma_e, np.sort(sigma_e), rtol=1e-5, atol=0)


def check_factorization(f, a, b):
    """X = V^-H jointly diagonalizes AᴴA and BᴴB into σ_M² and σ_E²."""
    x = f.v_inv_h
    ax, bx = a @ x, b @ x
    assert np.linalg.norm(ax.conj().T @ ax - np.diag(f.sigma_m**2)) <= 1e-8
    assert np.linalg.norm(bx.conj().T @ bx - np.diag(f.sigma_e**2)) <= 1e-8
    assert np.abs(f.sigma_m**2 + f.sigma_e**2 - 1).max() <= 1e-10
    assert np.all(np.diff(f.sigma_m) <= 1e-14)
    assert np.allclose(f.v_inv_gram_diag, np.diag(x.conj().T @ x).real, atol=1e-10)
    assert np.all(f.v_inv_gram_diag > 0)

"""Dense complex-matrix kernel: one PSD eigendecomposition, the
covariances built from it, and a GSVD built from two SVDs.

All matrices are numpy arrays of complex128. Hermitian inputs are
symmetrized at the boundary so that downstream eigen-solvers see exactly
conjugate-symmetric data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPsd, RankDeficient

_PSD_FLOOR = -1e-12
_RANK_RTOL = 1e-10


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return (A + Aᴴ)/2, the exactly conjugate-symmetric part of A."""
    return 0.5 * (a + a.conj().T)


def psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).
    Eigenvalues in [-1e-12, 0) are treated as rounding noise and clipped
    to zero; anything more negative raises NotPsd.
    """
    lam, q = np.linalg.eigh(hermitianize(np.asarray(a, dtype=complex)))
    if lam[0] < _PSD_FLOOR:
        raise NotPsd(f"eigenvalue {lam[0]:.3e} below PSD tolerance")
    return np.clip(lam, 0.0, None), q


def congruence(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """X diag(d) Xᴴ, exactly Hermitian: a covariance built from a factor."""
    return hermitianize((x * d) @ x.conj().T)


@dataclass(frozen=True)
class GsvdFactorization:
    """Joint diagonalization of two square matrices A and B.

    With X = v_inv_h, Xᴴ Aᴴ A X = diag(σ_M²) and Xᴴ Bᴴ B X = diag(σ_E²),
    so A = U_M diag(σ_M) Vᴴ and B = U_E diag(σ_E) Vᴴ with V⁻ᴴ = X and
    unitary U_M, U_E. σ_M² + σ_E² = 1 elementwise and σ_M is sorted
    descending. v_inv_gram_diag holds the diagonal of V⁻¹V⁻ᴴ (the
    squared column norms of X), needed by the per-subchannel power
    constraint.
    """

    sigma_m: np.ndarray
    sigma_e: np.ndarray
    v_inv_h: np.ndarray
    v_inv_gram_diag: np.ndarray


def gsvd(a: np.ndarray, b: np.ndarray) -> GsvdFactorization:
    """Generalized SVD of two square matrices with a shared right factor.

    Route: the thin SVD [A; B] = U Σ Yᴴ, then the SVD of the lower block
    U[M:] = Z diag(σ_E) Wᴴ. U[:M] W has orthogonal columns whose norms
    are σ_M, and X = Y Σ⁻¹ W maps A and B onto U[:M] W and U[M:] W.
    Requires the stacked matrix to have full column rank (relative
    tolerance 1e-10 on Σ).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or b.shape != (m, m):
        raise ValueError("gsvd expects two square matrices of equal size")
    u, sv, yh = np.linalg.svd(np.vstack([a, b]), full_matrices=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise RankDeficient(
            f"stacked matrix condition {sv[0] / max(sv[-1], 1e-300):.3e}"
        )

    # The subchannels that favor A have small sines, which only the
    # lower block resolves; their cosines cluster at 1. Reversed, the
    # sines ascend and the cosines descend.
    _, sigma_e, wh = np.linalg.svd(u[m:])
    sigma_e = sigma_e[::-1]
    w = wh[::-1].conj().T
    sigma_m = np.linalg.norm(u[:m] @ w, axis=0)
    v_inv_h = (yh.conj().T / sv) @ w
    v_inv_gram_diag = np.einsum("ij,ij->j", v_inv_h, v_inv_h.conj()).real

    return GsvdFactorization(
        sigma_m=sigma_m,
        sigma_e=sigma_e,
        v_inv_h=v_inv_h,
        v_inv_gram_diag=v_inv_gram_diag,
    )

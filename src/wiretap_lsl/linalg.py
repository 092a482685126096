"""Dense complex-matrix kernel: one PSD eigendecomposition, the
covariances built from it, and a GSVD built from two SVDs.

All matrices are numpy arrays of complex128. Hermitian inputs are
symmetrized at the boundary so that downstream eigen-solvers see exactly
conjugate-symmetric data.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPsd, RankDeficient

_PSD_FLOOR = -1e-12
_RANK_RTOL = 1e-10


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return (A + Aᴴ)/2, the exactly conjugate-symmetric part of A, or
    of each matrix of a stack (..., M, M)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).
    Eigenvalues in [-1e-12, 0) are treated as rounding noise and clipped
    to zero; anything more negative raises NotPsd.
    """
    lam, q, (error,) = psd_eigh_stack(np.asarray(a)[None])
    if error is not None:
        raise error
    return lam[0], q[0]


def psd_eigh_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[NotPsd | None]]:
    """psd_eigh of each matrix of a stack (B, M, M), in one LAPACK call.

    Returns the clipped eigenvalues (B, M), the eigenvectors (B, M, M)
    and, per matrix, None or the NotPsd that psd_eigh raises for it.
    Each matrix's results are bit for bit those of psd_eigh on it alone.
    """
    lam, q = np.linalg.eigh(hermitianize(np.asarray(a, dtype=complex)))
    errors = [
        NotPsd(f"eigenvalue {low:.3e} below PSD tolerance") if low < _PSD_FLOOR else None for low in lam[:, 0].tolist()
    ]
    return np.maximum(lam, 0.0), q, errors


def congruence(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """X diag(d) Xᴴ, exactly Hermitian: a covariance built from a factor."""
    return hermitianize((x * d) @ x.conj().T)


def gsvd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generalized SVD of two square matrices with a shared right factor.

    Returns (sigma_m, sigma_e, x) with Xᴴ Aᴴ A X = diag(σ_M²) and
    Xᴴ Bᴴ B X = diag(σ_E²), so A = U_M diag(σ_M) Vᴴ and
    B = U_E diag(σ_E) Vᴴ with V⁻ᴴ = X and unitary U_M, U_E.
    σ_M² + σ_E² = 1 elementwise and σ_M is sorted descending.

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
    return sigma_m, sigma_e, (yh.conj().T / sv) @ w

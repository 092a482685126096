"""Dense complex-matrix kernel: eigendecompositions, square roots and a GSVD.

All matrices are numpy arrays of complex128. Hermitian inputs are
symmetrized at the boundary so that downstream eigen-solvers see exactly
conjugate-symmetric data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceFailure, NotPsd, RankDeficient

_PSD_FLOOR = -1e-12
_RANK_RTOL = 1e-10


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Return (A + Aᴴ)/2, the exactly conjugate-symmetric part of A."""
    return 0.5 * (a + a.conj().T)


def eigh(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).
    """
    a = hermitianize(np.asarray(a, dtype=complex))
    try:
        lam, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return lam, q


def hermitian_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-12, 0) are treated as rounding noise and clipped
    to zero; anything more negative raises NotPsd.
    """
    lam, q = eigh(a)
    if lam.min() < _PSD_FLOOR:
        raise NotPsd(f"eigenvalue {lam.min():.3e} below PSD tolerance")
    lam = np.clip(lam, 0.0, None)
    return hermitianize((q * np.sqrt(lam)) @ q.conj().T)


def clip_psd(a: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues of a Hermitian matrix to zero."""
    lam, q = eigh(a)
    if lam.min() >= 0.0:
        return hermitianize(np.asarray(a, dtype=complex))
    if lam.min() < _PSD_FLOOR:
        raise NotPsd(f"eigenvalue {lam.min():.3e} below PSD tolerance")
    lam = np.clip(lam, 0.0, None)
    return hermitianize((q * lam) @ q.conj().T)


@dataclass(frozen=True)
class GsvdFactorization:
    """Joint factorization A = U_M diag(σ_M) Vᴴ, B = U_E diag(σ_E) Vᴴ.

    σ_M² + σ_E² = 1 elementwise and σ_M is sorted descending.
    v_inv_gram_diag holds the diagonal of V⁻¹V⁻ᴴ, needed by the
    per-subchannel power constraint.
    """

    u_m: np.ndarray
    u_e: np.ndarray
    sigma_m: np.ndarray
    sigma_e: np.ndarray
    v: np.ndarray
    v_inv_gram_diag: np.ndarray


def gsvd(a: np.ndarray, b: np.ndarray) -> GsvdFactorization:
    """Generalized SVD of two square matrices with a shared right factor.

    Route: QR of the stacked [A; B], then a cosine-sine decomposition of
    the orthonormal factor. Requires the stacked matrix to have full
    column rank (relative tolerance 1e-10 on its singular values).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or b.shape != (m, m):
        raise ValueError("gsvd expects two square matrices of equal size")
    stacked = np.vstack([a, b])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise RankDeficient(
            f"stacked matrix condition {sv[0] / max(sv[-1], 1e-300):.3e}"
        )

    q, r = np.linalg.qr(stacked)
    # Complete the orthonormal factor to a full unitary; null_space keeps
    # the leading M columns bitwise intact, which the CS step relies on.
    complement = sla.null_space(q.conj().T)
    q_full = np.hstack([q, complement])
    u, cs, vdh = sla.cossin(q_full, p=m, q=m)
    u_m = u[:m, :m]
    u_e = u[m:, m:]
    sigma_m = np.diag(cs[:m, :m]).real.copy()
    sigma_e = np.diag(cs[m:, :m]).real.copy()
    vh = vdh[:m, :m] @ r

    order = np.argsort(-sigma_m, kind="stable")
    u_m = u_m[:, order]
    u_e = u_e[:, order]
    sigma_m = sigma_m[order]
    sigma_e = sigma_e[order]
    vh = vh[order, :]

    v = vh.conj().T
    v_inv = np.linalg.inv(v)
    v_inv_gram_diag = np.einsum("ij,ij->i", v_inv, v_inv.conj()).real

    return GsvdFactorization(
        u_m=u_m,
        u_e=u_e,
        sigma_m=sigma_m,
        sigma_e=sigma_e,
        v=v,
        v_inv_gram_diag=v_inv_gram_diag,
    )

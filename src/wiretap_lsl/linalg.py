"""Dense complex-matrix kernel: one PSD eigendecomposition, the
covariances built from it, and a GSVD built from two SVDs.

All matrices are numpy arrays of complex128. Hermitian inputs are
symmetrized at the boundary so that downstream eigen-solvers see exactly
conjugate-symmetric data.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPsd, RankDeficient, as_value

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
    """X diag(d) Xᴴ, exactly Hermitian: a covariance built from a factor,
    or one of each factor (..., M, M) and diagonal (..., M) of a stack."""
    return hermitianize((x * d[..., None, :]) @ x.conj().swapaxes(-1, -2))


def gsvd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """Generalized SVD of each pair of square matrices of two stacks
    (B, M, M), with a shared right factor per pair.

    Returns (sigma_m, sigma_e, x, errors), with sigma_m and sigma_e
    (B, M) and x (B, M, M): per pair, Xᴴ Aᴴ A X = diag(σ_M²) and
    Xᴴ Bᴴ B X = diag(σ_E²), so A = U_M diag(σ_M) Vᴴ and
    B = U_E diag(σ_E) Vᴴ with V⁻ᴴ = X and unitary U_M, U_E.
    σ_M² + σ_E² = 1 elementwise and σ_M is sorted descending.

    Route: the thin SVD [A; B] = U Σ Yᴴ, then the SVD of the lower block
    U[M:] = Z diag(σ_E) Wᴴ. U[:M] W has orthogonal columns whose norms
    are σ_M, and X = Y Σ⁻¹ W maps A and B onto U[:M] W and U[M:] W.
    Each of the two SVDs is one LAPACK call over the stack, and each
    pair's results are bit for bit those of the same route on it alone.

    errors holds, per pair, None or the error that fails it: a
    RankDeficient when its stacked matrix lacks full column rank
    (relative tolerance 1e-10 on Σ), or a LinAlgError from LAPACK. A
    failed pair's rows of the results are NaN. If LAPACK fails on a
    stack, its pairs are redone one at a time, so that the failure stays
    with its pair.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    count, m = a.shape[:2]
    if a.shape != (count, m, m) or b.shape != a.shape:
        raise ValueError("gsvd expects two stacks of square matrices of equal shape")
    try:
        u, sv, yh = np.linalg.svd(np.concatenate([a, b], axis=1), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        return _gsvd_one_by_one(a, b, exc)
    deficient = sv[:, -1] <= _RANK_RTOL * sv[:, 0]
    errors = [
        RankDeficient(f"stacked matrix condition {first / max(last, 1e-300):.3e}") if bad else None
        for bad, first, last in zip(deficient.tolist(), sv[:, 0].tolist(), sv[:, -1].tolist())
    ]
    if any(errors):  # a deficient pair runs on with Σ = 1, then gets NaNs
        sv = np.where(deficient[:, None], 1.0, sv)

    # The subchannels that favor A have small sines, which only the
    # lower block resolves; their cosines cluster at 1. Reversed, the
    # sines ascend and the cosines descend.
    try:
        _, sigma_e, wh = np.linalg.svd(u[:, m:])
    except np.linalg.LinAlgError as exc:
        return _gsvd_one_by_one(a, b, exc)
    sigma_e = sigma_e[:, ::-1]
    w = wh[:, ::-1].conj().swapaxes(-1, -2)
    sigma_m = np.linalg.norm(u[:, :m] @ w, axis=-2)
    x = (yh.conj().swapaxes(-1, -2) / sv[:, None, :]) @ w
    if any(errors):
        for rows in (sigma_m, sigma_e, x):
            rows[deficient] = np.nan
    return sigma_m, sigma_e, x, errors


def _gsvd_one_by_one(a: np.ndarray, b: np.ndarray, exc: np.linalg.LinAlgError):
    """gsvd of a stack on which LAPACK failed, one pair at a time: a
    pair alone that fails again gets the error."""
    if len(a) == 1:
        nan = np.full(a.shape[:2], np.nan)
        return nan, nan.copy(), np.full(a.shape, np.nan, dtype=complex), [as_value(exc)]
    sigma_m, sigma_e, x, errors = zip(*(gsvd(a[i : i + 1], b[i : i + 1]) for i in range(len(a))))
    return np.concatenate(sigma_m), np.concatenate(sigma_e), np.concatenate(x), [error for (error,) in errors]

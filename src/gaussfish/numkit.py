"""Dense linear-algebra helpers used throughout the package.

Everything here is plain numpy with explicit tolerance semantics, so the
numerically delicate pieces (pseudo-inverses near rank changes, trace norms
of antisymmetric blocks) behave the same way in every caller.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def transpose(a):
    """Transpose of the last two axes: of a matrix, or of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def adjoint(a):
    """Conjugate transpose of the last two axes."""
    return a.swapaxes(-1, -2).conj()


def hermitize(a):
    """Return the Hermitian part (a + a†)/2, absorbing round-off asymmetry."""
    a = np.asarray(a)
    return 0.5 * (a + adjoint(a))


def pinv(a, size=None):
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values <= eps * size * sigma_max are treated as zero, with
    size = max(rows, cols) by default, i.e. zero matrices map to zero.  A
    stack (..., rows, cols) is inverted matrix by matrix, each with its own
    cutoff; size broadcasts over the stack, so a stack padded with zero rows
    passes each matrix's unpadded size.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("pinv expects a matrix")
    if a.size == 0:
        return np.zeros(adjoint(a).shape, dtype=a.dtype)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    tol = EPS * (max(a.shape[-2:]) if size is None else np.asarray(size)) * s[..., 0]
    keep = s > tol[..., None]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return adjoint(vh) @ (inv_s[..., :, None] * adjoint(u))


def pinv_psd(a, neg_tol=1e-10):
    """Pseudo-inverse of a symmetric (Hermitian) PSD matrix and the PSD root of that inverse.

    One eigendecomposition of the Hermitian part gives both, equal to
    pinv(a) and sqrtm_psd(pinv(a)).  The cutoff is pinv's: for a Hermitian
    matrix the singular values are |w|, so eigenvalues with
    |w| <= eps * n * max|w| count as zero.  A kept inverse eigenvalue below
    -neg_tol is rejected as sqrtm_psd rejects it.  A stack (..., n, n) is
    treated matrix by matrix, each with its own cutoff.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(hermitize(a))
    tol = EPS * a.shape[-1] * np.abs(w).max(axis=-1, initial=0.0)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > tol[..., None])
    if inv_w.size and inv_w.min() < -neg_tol:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % inv_w.min())
    uh = adjoint(u)
    inverse = (u * inv_w[..., None, :]) @ uh
    root = (u * np.sqrt(inv_w.clip(0.0, None))[..., None, :]) @ uh
    return inverse, root


def float_or_stack(x):
    """A float for one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def trace_abs(a):
    """Sum of |eigenvalues| of a real antisymmetric matrix, or of each matrix of a stack.

    The eigenvalues come in +-i*kappa pairs, so i (a - a^T)/2 is Hermitian
    with eigenvalues +-kappa and one eigvalsh gives them.  This is the trace
    norm needed for the imaginary part of an inverse RLD information matrix
    and for the incompatibility term of b_h_mid.  A symmetric part of the
    input (round-off, for those callers) is dropped.
    """
    a = np.asarray(a)
    skew = 0.5 * (a - transpose(a))
    return float_or_stack(np.abs(np.linalg.eigvalsh(1j * skew)).sum(axis=-1))


def is_psd(a, tol=1e-9):
    """Minimum eigenvalue of the Hermitian part >= -tol."""
    w = np.linalg.eigvalsh(hermitize(a))
    return bool(w[0] >= -tol)


def sqrtm_psd(a, neg_tol=1e-10):
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Eigenvalues below -neg_tol are rejected; small negative round-off is
    clipped to zero.  A stack (..., n, n) is rooted matrix by matrix.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(hermitize(a))
    if w.size and w[..., 0].min() < -neg_tol:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % w[..., 0].min())
    root = (u * np.sqrt(w.clip(0.0, None))[..., None, :]) @ adjoint(u)
    return root.real if np.isrealobj(a) else root

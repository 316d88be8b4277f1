"""Dense linear-algebra helpers used throughout the package.

Everything here is plain numpy with explicit tolerance semantics, so the
numerically delicate pieces (pseudo-inverses near rank changes, trace norms
of antisymmetric blocks) behave the same way in every caller.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def hermitize(a):
    """Return the Hermitian part (a + a†)/2, absorbing round-off asymmetry."""
    a = np.asarray(a)
    return 0.5 * (a + np.conj(a.T))


def vec(a):
    """Column-stacking vectorization: vec(AXB) = (B^T ⊗ A) vec(X)."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v, shape=None):
    """Inverse of :func:`vec`.  Square matrix assumed when shape is omitted."""
    v = np.asarray(v)
    if shape is None:
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise ValueError("unvec of non-square length %d" % v.size)
        shape = (n, n)
    return v.reshape(shape, order="F")


def pinv(a, tol=None):
    """Moore-Penrose pseudo-inverse via SVD with an absolute cutoff.

    Singular values <= tol are treated as zero.  The default cutoff is
    eps * max(rows, cols) * sigma_max, i.e. zero matrices map to zero.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("pinv expects a matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return np.zeros(a.T.shape, dtype=a.dtype)
    if tol is None:
        tol = EPS * max(a.shape) * s[0]
    keep = s > tol
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return np.conj(vh.T) @ (inv_s[:, None] * np.conj(u.T))


def trace_abs(a, tol=1e-12):
    """Sum of |eigenvalues|.

    For (nearly) Hermitian input the Hermitian part is diagonalized; for
    (nearly) skew-Hermitian input the eigenvalues come in +-i*kappa pairs and
    i*a is diagonalized instead -- this is the case needed for the imaginary
    part of an inverse RLD information matrix, which is real antisymmetric.
    Anything else falls back to the general eigenvalue spectrum.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace_abs expects a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    herm = 0.5 * (a + np.conj(a.T))
    skew = 0.5 * (a - np.conj(a.T))
    if np.max(np.abs(skew)) <= tol * scale:
        w = np.linalg.eigvalsh(herm)
    elif np.max(np.abs(herm)) <= tol * scale:
        w = np.linalg.eigvalsh(1j * skew)
    else:
        w = np.linalg.eigvals(a)
    return float(np.sum(np.abs(w)))


def largest_eig_abs(a):
    """max |lambda_i|.  Uses the Hermitian path when the input allows it."""
    a = np.asarray(a)
    if np.allclose(a, np.conj(a.T), atol=1e-12 * max(1.0, np.max(np.abs(a)))):
        w = np.linalg.eigvalsh(hermitize(a))
    else:
        w = np.linalg.eigvals(a)
    return float(np.max(np.abs(w))) if w.size else 0.0


def is_psd(a, tol=1e-9):
    """Minimum eigenvalue of the Hermitian part >= -tol."""
    w = np.linalg.eigvalsh(hermitize(a))
    return bool(w[0] >= -tol)


def sqrtm_psd(a, neg_tol=1e-10):
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Eigenvalues below -neg_tol are rejected; small negative round-off is
    clipped to zero.
    """
    w, u = np.linalg.eigh(hermitize(a))
    if w.size and w[0] < -neg_tol:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % w[0])
    w = np.clip(w, 0.0, None)
    root = (u * np.sqrt(w)) @ np.conj(u.T)
    if np.isrealobj(np.asarray(a)):
        root = root.real
    return root

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


def pinv(a, tol=None, size=None):
    """Moore-Penrose pseudo-inverse via SVD with an absolute cutoff.

    Singular values <= tol are treated as zero.  The default cutoff is
    eps * size * sigma_max with size = max(rows, cols), i.e. zero matrices
    map to zero.  A stack (..., rows, cols) is inverted matrix by matrix,
    each with its own cutoff; tol and size broadcast over the stack, so a
    stack padded with zero rows passes each matrix's unpadded size.
    """
    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("pinv expects a matrix")
    if a.size == 0:
        return np.zeros(adjoint(a).shape, dtype=a.dtype)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if tol is None:
        tol = EPS * (max(a.shape[-2:]) if size is None else np.asarray(size)) * s[..., 0]
    keep = s > np.asarray(tol)[..., None]
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


def trace_abs(a, tol=1e-12):
    """Sum of |eigenvalues|.

    For (nearly) Hermitian input the Hermitian part is diagonalized; for
    (nearly) skew-Hermitian input the eigenvalues come in +-i*kappa pairs and
    i*a is diagonalized instead -- this is the case needed for the imaginary
    part of an inverse RLD information matrix, which is real antisymmetric.
    Anything else falls back to the general eigenvalue spectrum.  A stack
    (..., n, n) picks the branch matrix by matrix and returns an array.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("trace_abs expects a square matrix")
    axes = (-2, -1)
    bound = tol * np.maximum(1.0, np.abs(a).max(axis=axes, initial=0.0))
    herm = hermitize(a)
    skew = 0.5 * (a - adjoint(a))
    is_herm = np.abs(skew).max(axis=axes, initial=0.0) <= bound
    is_skew = ~is_herm & (np.abs(herm).max(axis=axes, initial=0.0) <= bound)
    out = np.empty(a.shape[:-2])
    for branch, spectrum, m in (
        (is_herm, np.linalg.eigvalsh, herm),
        (is_skew, np.linalg.eigvalsh, 1j * skew),
        (~(is_herm | is_skew), np.linalg.eigvals, a),
    ):
        if branch.all():  # one branch for the whole stack: no masked copy
            return float_or_stack(np.abs(spectrum(m)).sum(axis=-1))
        if branch.any():
            out[branch] = np.abs(spectrum(m[branch])).sum(axis=-1)
    return float_or_stack(out)


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
    clipped to zero.  A stack (..., n, n) is rooted matrix by matrix.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(hermitize(a))
    if w.size and w[..., 0].min() < -neg_tol:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % w[..., 0].min())
    root = (u * np.sqrt(w.clip(0.0, None))[..., None, :]) @ adjoint(u)
    return root.real if np.isrealobj(a) else root

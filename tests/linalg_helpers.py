"""Dense linear-algebra helpers that only the tests use: vectorization for the
kron-matrix oracles and a largest-eigenvalue scale."""

import numpy as np


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


def largest_eig_abs(a):
    """max |lambda_i|.  Uses the Hermitian path when the input allows it."""
    a = np.asarray(a)
    if np.allclose(a, np.conj(a.T), atol=1e-12 * max(1.0, np.max(np.abs(a)))):
        w = np.linalg.eigvalsh(0.5 * (a + np.conj(a.T)))
    else:
        w = np.linalg.eigvals(a)
    return float(np.max(np.abs(w))) if w.size else 0.0

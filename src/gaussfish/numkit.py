"""Dense linear-algebra helpers used throughout the package.

Everything here is plain numpy with explicit tolerance semantics, so the
numerically delicate pieces (pseudo-inverses near rank changes, trace norms
of antisymmetric blocks) behave the same way in every caller.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
# Eigenvalues below -NEG_TOL reject a matrix as not positive semidefinite;
# smaller negative round-off is clipped to zero.
NEG_TOL = 1e-10
# Margin of the 2x2 closed-form certificate det(a / tr a) > SPD2_MARGIN eps (see _spd2).
SPD2_MARGIN = 16.0


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


def pinv_gram(a, size=None):
    """pinv(a) pinv(a)^H, matrix by matrix, with pinv's cutoff (size as in :func:`pinv`)."""
    x = pinv(a, size)
    return x @ adjoint(x)


def pinv_psd(a):
    """Pseudo-inverse of a symmetric (Hermitian) PSD matrix and the PSD root of that inverse.

    Both equal pinv(a) and sqrtm_psd(pinv(a)), from one eigendecomposition of each matrix's
    Hermitian part.  Its cutoff is pinv's: for a Hermitian matrix the singular values are
    |w|, so eigenvalues with |w| <= eps * n * max|w| count as zero.  A kept inverse
    eigenvalue below -NEG_TOL is rejected as sqrtm_psd rejects it.  A stack (..., n, n) is
    treated matrix by matrix, each with its own cutoff.  A matrix with a non-finite eigenvalue
    (eigh gives NaN for a NaN or inf entry) has no cutoff: its inverse and root are NaN.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(hermitize(a))
    tol = EPS * a.shape[-1] * np.abs(w).max(axis=-1, initial=0.0)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > tol[..., None])
    inv_w[~np.isfinite(tol)] = np.nan
    low = np.fmin.reduce(inv_w, axis=None, initial=np.inf)  # the NaN of such a matrix aside
    if low < -NEG_TOL:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % low)
    uh = adjoint(u)
    inverse = (u * inv_w[..., None, :]) @ uh
    root = (u * np.sqrt(inv_w.clip(0.0, None))[..., None, :]) @ uh
    return inverse, root


def _spd2(a00, a11, a01):
    """The certificate and trace-scaled entries of a stack of real 2x2 matrices a, from the
    columns a00, a11 and a01 = a_01 + a_10: (ok, (s, -q, p), f, det, tr).

    Each matrix a is read as symmetric and divided by its trace tr first, so no scale
    over- or underflows: b = [[p, q], [q, s]] = (a + a^T) / (2 tr) has trace 1 and
    determinant det, and a^-1 = f adj with f = 1 / (det tr) and adj = [[s, -q], [-q, p]].
    For a PSD matrix the trace lies between max |entry| and twice it, and det is about
    lam_min / lam_max.  The certificate ok is det > SPD2_MARGIN eps and det tr > TINY (so
    tr > 0): the smaller eigenvalue then exceeds the rounding of det (about eps) and
    pinv's cutoff 2 eps lam_max with room to spare, so only positive definite matrices
    that eigh keeps at full rank pass, and their inverse is finite.  Where ok is False the values are meaningless: a zero,
    indefinite or non-finite matrix fails, so call this under np.errstate(all="ignore").
    The work is on (K,) columns, which numpy runs faster than (K, 2, 2) stacks, in few
    calls: each costs about 1 us whatever K.  The two-parameter bound chain of
    :mod:`gaussfish.qfi_gaussian` reads its terms from them.
    """
    tr = a00 + a11
    h = np.reciprocal(tr)
    p, s, q = a00 * h, a11 * h, a01 * (0.5 * h)
    det = p * s - q * q
    det_tr = det * tr
    ok = (det > SPD2_MARGIN * EPS) & (det_tr > TINY)
    return ok, (s, -q, p), np.reciprocal(det_tr), det, tr


def float_or_stack(x):
    """A float for one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def trace_abs(a):
    """Sum of |eigenvalues| of a real antisymmetric matrix, or of each matrix of a stack.

    The eigenvalues come in +-i*kappa pairs, so i (a - a^T)/2 is Hermitian
    with eigenvalues +-kappa and one eigvalsh gives them; a 2x2 matrix has the
    one pair +-i a_01, so its trace norm is 2 |(a - a^T)_01 / 2| without
    eigvalsh.  This is the trace norm needed for the imaginary part of an
    inverse RLD information matrix and for the incompatibility term of
    b_h_mid.  A symmetric part of the input (round-off, for those callers) is
    dropped.
    """
    a = np.asarray(a)
    if a.shape[-2:] == (2, 2):
        return float_or_stack(np.abs(a[..., 0, 1] - a[..., 1, 0]))
    skew = 0.5 * (a - transpose(a))
    return float_or_stack(np.abs(np.linalg.eigvalsh(1j * skew)).sum(axis=-1))


def is_psd(a, tol=1e-9):
    """Minimum eigenvalue of the Hermitian part >= -tol; for a stack, of every matrix."""
    w = np.linalg.eigvalsh(hermitize(a))
    return bool(w[..., 0].min() >= -tol)


def sqrtm_psd(a):
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Eigenvalues below -NEG_TOL are rejected; small negative round-off is
    clipped to zero.  A stack (..., n, n) is rooted matrix by matrix.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(hermitize(a))
    if w.size and w[..., 0].min() < -NEG_TOL:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % w[..., 0].min())
    root = (u * np.sqrt(w.clip(0.0, None))[..., None, :]) @ adjoint(u)
    return root.real if np.isrealobj(a) else root

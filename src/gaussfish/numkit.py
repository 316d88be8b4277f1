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
    """pinv(a) pinv(a)^H, matrix by matrix, with pinv's cutoff (size as in :func:`pinv`).

    One QR of the whole stack, a = Q R, gives R^-1 R^-H for every matrix (m, p)
    whose R passes a full-rank certificate, prod |r_ii| / ||R||_F^p > eps * size.
    As |det R| <= sigma_min sigma_max^(p-1) and ||R||_F >= sigma_max, it bounds
    sigma_min / sigma_max from below, so it admits only matrices that pinv keeps
    at full rank; each |r_ii| is divided by ||R||_F before the product, so no
    scale overflows.  Any other matrix (rank-deficient, a zero column, or m < p)
    goes through pinv, for that subset only.
    """
    a = np.asarray(a)
    m, p = a.shape[-2:]
    size = np.asarray(max(m, p) if size is None else size)
    if m < p:
        x = pinv(a, size)
        return x @ adjoint(x)
    r = np.linalg.qr(a, mode="r")
    ab = np.abs(r)
    norm = np.sqrt((ab * ab).sum(axis=(-2, -1)))
    ok = (ab.diagonal(0, -2, -1) / np.maximum(norm, TINY)[..., None]).prod(axis=-1) > EPS * size
    if ok.all():
        return _inverse_gram(r)
    gram = _inverse_gram(np.where(ok[..., None, None], r, np.eye(p)))
    x = pinv(a[~ok], np.broadcast_to(size, ok.shape)[~ok])
    gram[~ok] = x @ adjoint(x)
    return gram


def _inverse_gram(r):
    """R^-1 R^-H of each invertible upper-triangular R of a stack; p = 2 in closed form.

    With R = [[a, b], [0, d]], R^-1 = [[1/a, x], [0, 1/d]] with x = -(b/a)/d, so the Gram
    matrix is [[|1/a|^2 + |x|^2, x conj(1/d)], [conj(x) (1/d), |1/d|^2]]; b/a is formed
    before the division by d, so a d never underflows.  Other sizes take inv.
    """
    if r.shape[-1] != 2:
        r_inv = np.linalg.inv(r)
        return r_inv @ adjoint(r_inv)
    inv_a, inv_d = 1.0 / r[..., 0, 0], 1.0 / r[..., 1, 1]
    x = -(r[..., 0, 1] * inv_a) * inv_d
    gram = np.empty_like(r)
    gram[..., 0, 0] = np.abs(inv_a) ** 2 + np.abs(x) ** 2
    gram[..., 0, 1] = x * inv_d.conj()
    gram[..., 1, 0] = gram[..., 0, 1].conj()
    gram[..., 1, 1] = np.abs(inv_d) ** 2
    return gram


def pinv_psd(a):
    """Pseudo-inverse of a symmetric (Hermitian) PSD matrix and the PSD root of that inverse.

    Both equal pinv(a) and sqrtm_psd(pinv(a)).  A real 2x2 matrix that passes
    the certificate of :func:`_spd2` (positive definite, well inside pinv's
    cutoff) takes closed forms in b = a / tr(a), which has trace 1: with
    g = sqrt(det b), a^-1 = adj(b) / (det(b) tr(a)) and
    a^-1/2 = (adj(b) + g I) / (g sqrt(1 + 2 g) sqrt(tr(a))), the root of a
    2x2 PSD matrix by Cayley-Hamilton.  Any other matrix takes one
    eigendecomposition of the Hermitian part, for that subset only.
    Its cutoff is pinv's: for a Hermitian matrix the singular values are |w|,
    so eigenvalues with |w| <= eps * n * max|w| count as zero.  A kept inverse
    eigenvalue below -NEG_TOL is rejected as sqrtm_psd rejects it.  A stack
    (..., n, n) is treated matrix by matrix, each with its own cutoff.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2) or np.iscomplexobj(a):
        return _pinv_psd_eigh(a)
    flat = a.reshape(-1, 2, 2)
    with np.errstate(all="ignore"):  # only a matrix that fails the certificate meets an error
        ok, inverse, (p, q, s, det, tr) = _spd2(flat)
        g = np.sqrt(det)
        f = 1.0 / (g * np.sqrt(1.0 + 2.0 * g) * np.sqrt(tr))
        root = _sym2((s + g) * f, -q * f, (p + g) * f)
    if not ok.all():
        inverse[~ok], root[~ok] = _pinv_psd_eigh(flat[~ok])
    return inverse.reshape(a.shape), root.reshape(a.shape)


def _pinv_psd_eigh(a):
    """:func:`pinv_psd` by one eigendecomposition of each matrix's Hermitian part."""
    w, u = np.linalg.eigh(hermitize(a))
    tol = EPS * a.shape[-1] * np.abs(w).max(axis=-1, initial=0.0)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > tol[..., None])
    if inv_w.size and inv_w.min() < -NEG_TOL:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % inv_w.min())
    uh = adjoint(u)
    inverse = (u * inv_w[..., None, :]) @ uh
    root = (u * np.sqrt(inv_w.clip(0.0, None))[..., None, :]) @ uh
    return inverse, root


def inv_sym(a):
    """Inverse of a real symmetric matrix, or of each matrix of a stack.

    A 2x2 matrix that passes the certificate of :func:`_spd2` takes the closed
    form adj / det; any other matrix takes np.linalg.inv, for that subset only,
    which raises LinAlgError for a singular matrix.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2) or np.iscomplexobj(a):
        return np.linalg.inv(a)
    flat = a.reshape(-1, 2, 2)
    with np.errstate(all="ignore"):  # only a matrix that fails the certificate meets an error
        ok, inverse, _ = _spd2(flat)
    if not ok.all():
        inverse[~ok] = np.linalg.inv(flat[~ok])
    return inverse.reshape(a.shape)


def _spd2(a):
    """Certified closed-form inverses of a real (K, 2, 2) stack: (ok, inverse, (p, q, s, det, tr)).

    Each matrix a is read as symmetric and divided by its trace tr first, so no
    scale over- or underflows: b = [[p, q], [q, s]] = (a + a^T) / (2 tr) has
    trace 1 and determinant det, and a^-1 = [[s, -q], [-q, p]] / (det tr).  For
    a PSD matrix the trace lies between max |entry| and twice it, and det is
    about lam_min / lam_max.  The certificate ok is det > SPD2_MARGIN eps and
    det tr > TINY (so tr > 0): the smaller eigenvalue then exceeds the rounding
    of det (about eps) and pinv's cutoff 2 eps lam_max with room to spare, so
    only positive definite matrices that eigh keeps at full rank pass, and
    their inverse is finite.  Where ok is False the values are meaningless: a
    zero, indefinite or non-finite matrix fails, so call this under
    np.errstate(all="ignore").  The work is on (K,) columns, which numpy runs
    faster than (K, 2, 2) stacks.
    """
    tr = a[:, 0, 0] + a[:, 1, 1]
    h = 1.0 / tr
    p, s, q = a[:, 0, 0] * h, a[:, 1, 1] * h, (a[:, 0, 1] + a[:, 1, 0]) * (0.5 * h)
    det = p * s - q * q
    det_tr = det * tr
    ok = (det > SPD2_MARGIN * EPS) & (det_tr > TINY)
    f = 1.0 / det_tr
    return ok, _sym2(s * f, -q * f, p * f), (p, q, s, det, tr)


def _sym2(p, q, s):
    """The (K, 2, 2) stack [[p, q], [q, s]] from its (K,) columns."""
    out = np.empty(p.shape + (2, 2))
    out[:, 0, 0], out[:, 1, 1] = p, s
    out[:, 0, 1] = out[:, 1, 0] = q
    return out


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

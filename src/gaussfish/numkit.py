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
# Margin of the 4x4 closed-form certificate |p| - |q| > ANTISYM4_MARGIN eps |p| (see eigh_antisym).
ANTISYM4_MARGIN = 16.0
# A stack of at least STACK_MIN matrices takes the closed forms of inv_sym and eigh_antisym;
# a shorter one takes LAPACK, whose fixed cost per call is lower.  Measured on one core,
# eigh_antisym breaks even near 18 matrices and inv_sym near 48; at 24 the two together
# cost less than LAPACK's eigh and inv (CHANGES.md has the timings).
STACK_MIN = 24


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
    if a.shape[-2:] != (2, 2) or a.dtype.kind == "c":
        return _pinv_psd_eigh(a)
    flat = a.reshape(-1, 2, 2)
    with np.errstate(all="ignore"):  # only a matrix that fails the certificate meets an error
        ok, inverse, (s, nq, p), det, tr = _spd2(flat)
        g = np.sqrt(det)
        f = np.reciprocal(g * np.sqrt(1.0 + 2.0 * g) * np.sqrt(tr))
        root = _sym2((s + g) * f, nq * f, (p + g) * f)
    if np.count_nonzero(ok) < ok.size:
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

    In a stack of at least STACK_MIN 2x2 matrices, a matrix that passes the
    certificate of :func:`_spd2` takes the closed form adj / det; any other
    matrix takes np.linalg.inv, for that subset only, which raises LinAlgError
    for a singular matrix.  A shorter stack takes np.linalg.inv whole.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2) or a.dtype.kind == "c" or a.size < 4 * STACK_MIN:
        return np.linalg.inv(a)
    flat = a.reshape(-1, 2, 2)
    with np.errstate(all="ignore"):  # only a matrix that fails the certificate meets an error
        ok, inverse, *_ = _spd2(flat)
    if np.count_nonzero(ok) < ok.size:
        inverse[~ok] = np.linalg.inv(flat[~ok])
    return inverse.reshape(a.shape)


def _spd2(a):
    """Certified closed-form inverses of a real (K, 2, 2) stack: (ok, inverse, (s, -q, p), det, tr).

    Each matrix a is read as symmetric and divided by its trace tr first, so no
    scale over- or underflows: b = [[p, q], [q, s]] = (a + a^T) / (2 tr) has
    trace 1 and determinant det, and a^-1 = adj / (det tr), adj = [[s, -q], [-q, p]].  For
    a PSD matrix the trace lies between max |entry| and twice it, and det is
    about lam_min / lam_max.  The certificate ok is det > SPD2_MARGIN eps and
    det tr > TINY (so tr > 0): the smaller eigenvalue then exceeds the rounding
    of det (about eps) and pinv's cutoff 2 eps lam_max with room to spare, so
    only positive definite matrices that eigh keeps at full rank pass, and
    their inverse is finite.  Where ok is False the values are meaningless: a
    zero, indefinite or non-finite matrix fails, so call this under
    np.errstate(all="ignore").  The work is on (K,) columns, which numpy runs
    faster than (K, 2, 2) stacks, in few calls: each costs about 1 us whatever K.
    """
    a00, a11 = a[:, 0, 0], a[:, 1, 1]
    tr = a00 + a11
    h = np.reciprocal(tr)
    p, s, q = a00 * h, a11 * h, (a[:, 0, 1] + a[:, 1, 0]) * (0.5 * h)
    det = p * s - q * q
    det_tr = det * tr
    ok = (det > SPD2_MARGIN * EPS) & (det_tr > TINY)
    nq, f = -q, np.reciprocal(det_tr)
    return ok, _sym2(s * f, nq * f, p * f), (s, nq, p), det, tr


def _sym2(p, q, s):
    """The (K, 2, 2) stack [[p, q], [q, s]] from its (K,) columns."""
    out = np.empty(p.shape + (4,))
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = p, q, q, s
    return out.reshape(-1, 2, 2)


def _unit_antisym4():
    """(L, R, MAP, IU): two commuting triples of real antisymmetric 4x4 unit matrices.

    With e_ab = E_ab - E_ba, L = (e01 + e23, e02 - e13, e03 + e12) and
    R = (e01 - e23, e02 + e13, e03 - e12) are left and right multiplication by the
    quaternion units i, j, k: each squares to -I, each triple anticommutes, and every
    L_m commutes with every R_n.  Together they span the antisymmetric 4x4 matrices,
    a = sum p_m L_m + sum q_m R_m with (p, q) = a[IU] @ MAP over the upper entries a[IU],
    and L_1 = Omega of two modes.
    """
    eye = np.eye(4)

    def e(i, j):
        return np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])

    L = np.array([e(0, 1) + e(2, 3), e(0, 2) - e(1, 3), e(0, 3) + e(1, 2)])
    R = np.array([e(0, 1) - e(2, 3), e(0, 2) + e(1, 3), e(0, 3) - e(1, 2)])
    iu = np.triu_indices(4, 1)
    return L.reshape(3, 16), R.reshape(3, 16), 0.5 * np.concatenate([L, R])[:, iu[0], iu[1]].T, iu


_L4, _R4, _PQ_MAP, _IU4 = _unit_antisym4()
_SIGNS2 = np.array([-1.0, 1.0])[:, None, None]  # eigenvalue |p| - |q|, then |p| + |q|


def eigh_antisym(a):
    """(lam, u): the n positive eigenvalues, ascending, and unit eigenvectors of the Hermitian i a.

    a is a real antisymmetric 2n x 2n matrix, or a stack of them, whose i a has n
    positive and n negative eigenvalues (a = V^-1/2 Omega V^-1/2 of a covariance V):
    lam (..., n) and u (..., 2n, n) are the upper halves of np.linalg.eigh(1j * a).

    A stack of at least STACK_MIN 4x4 matrices takes a closed form.  Write
    a = P + Q, P = sum p_m L_m and Q = sum q_m R_m (:func:`_unit_antisym4`): P and Q
    commute, P^2 = -|p|^2 I and Q^2 = -|q|^2 I, so i a has the eigenvalues
    +-|p| +-|q|, and |p|^2 - |q|^2 = Pf(a) > 0 for a covariance.  The positive ones are
    |p| - |q| and |p| + |q|, with the rank-1 projectors
    Pi = (I + i P/|p|)(I -+ i Q/|q|) / 4.  Each eigenvector is the column of Pi with
    the largest diagonal entry (at least 1/4), divided by its root; it is u up to a
    unit phase.  |p| and |q| are hypot chains, so no scale over- or underflows.  At
    q = 0 (a double eigenvalue) any unit q works and e_1 is taken, as it is for
    |q| < TINY, where q has too few digits for a direction and |q| < eps |p|.  A
    member passes the certificate if |p| - |q| > ANTISYM4_MARGIN eps |p| and
    |p| > TINY / eps, which a non-finite, zero or subnormal member fails; any other
    member takes eigh, for that subset only.  Shorter stacks, one matrix and other
    sizes take eigh.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (4, 4) or a.size < 16 * STACK_MIN:
        return _eigh_antisym_lapack(a)
    flat = a.reshape(-1, 4, 4)
    p1, p2, p3, q1, q2, q3 = pq = (flat[:, _IU4[0], _IU4[1]] @ _PQ_MAP).T
    with np.errstate(all="ignore"):  # only a member that fails the certificate meets an error
        norm_p, norm_q = np.hypot(np.hypot(p1, p2), p3), np.hypot(np.hypot(q1, q2), q3)
        ok = (norm_p - norm_q > ANTISYM4_MARGIN * EPS * norm_p) & (norm_p > TINY / EPS)
        q_zero = norm_q < TINY
        p_hat = ((pq[:3] / norm_p).T @ _L4).reshape(-1, 1, 4, 4)
        q_unit = pq[3:] / np.where(q_zero, 1.0, norm_q)
        q_unit[0, q_zero] = 1.0
        q_hat = (q_unit.T @ _R4).reshape(-1, 1, 4, 4)
        proj = np.empty((len(flat), 2, 4, 4), dtype=complex)  # 4 Pi of each eigenvalue
        proj.real = np.eye(4) - _SIGNS2 * (p_hat @ q_hat)
        proj.imag = p_hat + _SIGNS2 * q_hat
        diag = proj.real.diagonal(0, 2, 3)
        k = diag.argmax(axis=-1)[..., None, None]
        u = np.take_along_axis(proj, k, axis=3)[..., 0] / (2.0 * np.sqrt(diag.max(axis=-1)))[..., None]
    lam, u = np.stack([norm_p - norm_q, norm_p + norm_q], axis=-1), u.swapaxes(1, 2)
    if np.count_nonzero(ok) < ok.size:
        lam[~ok], u[~ok] = _eigh_antisym_lapack(flat[~ok])
    return lam.reshape(a.shape[:-2] + (2,)), u.reshape(a.shape[:-1] + (2,))


def _eigh_antisym_lapack(a):
    """:func:`eigh_antisym` by np.linalg.eigh of i a."""
    n = a.shape[-1] // 2
    lam, u = np.linalg.eigh(1j * a)
    return lam[..., n:], u[..., n:]


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

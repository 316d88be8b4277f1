"""Quantum Fisher information matrices and scalar bounds for Gaussian models.

A model is a map theta -> GaussianState.  Every information quantity is
evaluated at the moment level in the Williamson basis V = S diag(nu) S^T
(S symplectic; Safranek, J. Phys. A 52, 035304 (2019); Monras,
arXiv:1303.3682).  The rows of T = J S^-1, J taking each pair (q, p) to
(q + i p, q - i p)/sqrt2, are normal coordinates a with eigenvalue nu_a and
sign s_a = +-1, in which V + i Omega is diagonal with lam_a = nu_a + s_a
(:func:`williamson` gives them up to a unit phase per row).
Both moments of parameter mu enter as one augmented matrix
D_mu = [[dV_mu, dd_mu], [dd_mu^T, 0]], whose extra coordinate (kept as is by
T) counts as nu = 1/2, s = 0.  Its coefficients k_mu = vec(T D_mu T^T) over
pairs (a, b) give, with G(w)_{mu nu} = sum conj(k_mu) w k_nu,

    F^S = Re G(w_S),  w_S = 1 / (2 (nu_a nu_b + s_a s_b))
    F^R =    G(w_R),  w_R = 1 / (2 lam_a lam_b)
    U   = Re G(w_U),  w_U = -i (s_a nu_b + s_b nu_a) / (2 (nu_a nu_b + s_a s_b)^2)

These are the blockwise solutions of the SLD equation V X V + Om X Om = dV
and the RLD equation M X M^T = dV (M = V + i Omega); on the pairs (a, extra)
and (extra, a) the weights sum to the first-moment terms 2 / nu_a,
2 / lam_a and -2i s_a / nu_a^2 of 2 dd^T V^-1 dd, 2 dd^T M^-1 dd and
2 dd^T V^-1 Om V^-1 dd.  :func:`evaluate` returns a :class:`PointMoments`
that every information function accepts in place of (model, theta), so one
evaluation and one decomposition serve them all.

Live rows.  Only coefficient rows that can be nonzero are formed, and the
sums above run over them alone: the border T_n dd_mu (T_n = T[:n, :n]) on
the pairs (a, extra) and (extra, a), and the block T_n dV_mu T_n^T only
when some dV is nonzero (T_n is invertible, so the block vanishes
otherwise); of those, the rows that vanish for every parameter at every
point of a stack are dropped.  A displacement model (dV = 0) thus has 2n
rows, not (n+1)^2, and every Gram matrix, the RLD split and the SLD/RLD
components work on the same rows.

Scalar bounds for a weight matrix W (default identity):

    b_s        = Tr[W F_S^{-1}]
    b_r        = Tr[W Re F_R^{-1}] + TrAbs(sqrt(W) Im F_R^{-1} sqrt(W))
    b_h_mid    = b_s + TrAbs(sqrt(W) F_S^{-1} U F_S^{-1} sqrt(W))
    b_h_upper  = (1 + R_Q) b_s,   R_Q = || i F_S^{-1} U ||_inf in [0, 1]

and the chain max(b_s, b_r) <= b_h_mid <= b_h_upper <= 2 b_s holds pointwise.

A pure mode (nu = 1) makes M singular; see :func:`rld_inverse_limit`.

Stack axis.  A PointMoments may hold K points at once: a state with d of
shape (K, 2N) and V of shape (K, 2N, 2N), with dds (K, p, 2N) and dVs
(K, p, 2N, 2N), as a model evaluated on a whole sweep grid gives.  Every
function here then works on the leading axis in one call and returns
(K, p, p) matrices and (K,) bounds; without the axis it is the one-point
case and returns (p, p) matrices and floats.  The formulas are elementwise
in nu, so a point's values do not depend on the other points of its stack:
the purity cut, the rank cut of :func:`rld_inverse_limit` and every pinv
cutoff are taken point by point.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import numkit
from .gaussian_core import (
    GaussianState,
    apply,
    omega,
    rotation,
)
from .channels import NoisyChannel, evolve

DEFAULT_FD_STEP = 1e-5


@dataclass
class GaussianModel:
    """Parameterized family of Gaussian states.

    state_fn maps a parameter vector (length n_params) to a GaussianState.
    Analytic derivative hooks may be supplied; otherwise symmetric finite
    differences are used (see :meth:`fd_derivatives`).
    """

    state_fn: Callable[[np.ndarray], GaussianState]
    n_params: int
    d_derivs: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None
    v_derivs: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None

    def state(self, theta) -> GaussianState:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_params:
            raise ValueError("expected %d parameters, got %d" % (self.n_params, theta.size))
        return self.state_fn(theta)

    def derivatives(self, theta):
        """Lists of d d/d theta_mu and d V/d theta_mu (analytic if available)."""
        if self.d_derivs is not None and self.v_derivs is not None:
            theta = np.asarray(theta, dtype=float).reshape(-1)
            dds = [np.asarray(x, dtype=float) for x in self.d_derivs(theta)]
            dVs = [np.asarray(x, dtype=float) for x in self.v_derivs(theta)]
            return dds, dVs
        return self.fd_derivatives(theta)

    def fd_derivatives(self, theta, step: float = DEFAULT_FD_STEP):
        """Symmetric finite differences of the moments (always numerical)."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        h = float(step)
        dds, dVs = [], []
        for mu in range(self.n_params):
            tp = theta.copy()
            tm = theta.copy()
            tp[mu] += h
            tm[mu] -= h
            sp = self.state_fn(tp)
            sm = self.state_fn(tm)
            dds.append((sp.d - sm.d) / (2.0 * h))
            dVs.append((sp.V - sm.V) / (2.0 * h))
        return dds, dVs


SldComponents = namedtuple("SldComponents", ["l0", "l1", "l2"])
RldComponents = namedtuple("RldComponents", ["l0", "l1", "l2"])
BoundChain = namedtuple("BoundChain", ["b_s", "b_r", "b_h_mid", "b_h_upper", "r_q"])

# Relative tolerance on nu - 1, scaled by cond(V): the round-off of the
# decomposition grows like eps * cond(V) (about 6e-9 at cond(V) = 5e8).
PURE_TOL = 1e-12


def williamson(V):
    """(nu, Z): the symplectic eigenvalues, one per mode, and the normal coordinates of V.

    The eigenvectors u_k of the Hermitian i V^-1/2 Omega V^-1/2 for its
    eigenvalues 1/nu_k give the rows z_k = sqrt(nu_k) u_k^H V^-1/2 of the
    complex Z (N x 2N).  These are the s = +1 rows of the normal coordinates
    T of the module docstring, and conj(Z) its s = -1 rows, so
    T (V + i Omega) T^H = diag(nu + s).  A mode with
    nu - 1 <= PURE_TOL cond(V) is pure and gets nu = 1 exactly; an
    unphysical V (not positive definite, or nu below 1 by more) raises
    ValueError, as does a V with an entry that is not finite.  A stack V
    (K, 2N, 2N) is decomposed matrix by matrix.
    """
    if not np.isfinite(V).all():
        raise ValueError("covariance is not finite")
    w, u = np.linalg.eigh(V)
    if not (w[..., 0] > 0.0).all():
        raise ValueError(
            "covariance is not positive definite (smallest eigenvalue %.3e)" % w[..., 0].min()
        )
    v_isqrt = (u / np.sqrt(w)[..., None, :]) @ numkit.transpose(u)
    n = V.shape[-1] // 2
    lam, vecs = np.linalg.eigh(1j * (v_isqrt @ omega(n) @ v_isqrt))
    nu = 1.0 / lam[..., n:]  # eigenvalues come as -1/nu_k, +1/nu_k in ascending order
    tol = (PURE_TOL * w[..., -1] / w[..., 0])[..., None]
    if not (nu >= 1.0 - tol).all():
        raise ValueError("unphysical state: symplectic eigenvalue %.15g < 1" % nu.min())
    nu = np.where(nu - 1.0 <= tol, 1.0, nu)
    return nu, np.sqrt(nu)[..., :, None] * (numkit.adjoint(vecs[..., n:]) @ v_isqrt)


def _inverse(x, zero_to):
    """Elementwise 1/x, with zero_to where x == 0 (a pure-mode direction)."""
    return np.divide(1.0, x, out=np.full(x.shape, zero_to, dtype=x.dtype), where=x != 0)


def _weights(nu, s, ia, ib) -> dict:
    """w_S, w_R and w_U (module docstring) on the coefficient pairs (ia, ib), the live rows.

    A zero denominator occurs only with pure modes: it gives weight 0 to F_S
    and U (the pseudo-inverse, exact for a physical model) and weight inf to
    F_R, whose information diverges along it.
    """
    nu_a, nu_b, s_a, s_b = nu[..., ia], nu[..., ib], s[ia], s[ib]
    g = _inverse(nu_a * nu_b + s_a * s_b, 0.0)
    return {
        "sld": 0.5 * g,
        "rld": 0.5 * _inverse((nu_a + s_a) * (nu_b + s_b), np.inf),
        "u": -0.5j * (s_a * nu_b + nu_a * s_b) * g * g,
    }


@lru_cache(maxsize=None)
def _signs(n: int) -> np.ndarray:
    """The signs s of the n normal coordinates, alternating +1, -1, and 0 for the extra one."""
    signs = np.zeros(n + 1)
    signs[0:n:2], signs[1:n:2] = 1.0, -1.0
    signs.flags.writeable = False  # one cached array serves every caller
    return signs


@lru_cache(maxsize=None)
def _layout(n: int, has_block: bool):
    """(ia, ib, src): the pairs of the (n+1) x (n+1) layout that can be nonzero, by s_a + s_b.

    src is the entry each pair reads from the coefficients of
    :attr:`PointMoments.rows`: the border (index a of (a, extra) and
    (extra, a)), then, with has_block, the flattened block (n + a n + b).
    The pairs are sorted by s_a + s_b, ascending and otherwise row-major, so
    the rows with the largest RLD weight 1 / (2 lam_a lam_b), lam = nu + s,
    come first near a pure mode: Householder QR of the RLD split is
    row-wise stable only with its heavy rows first (Powell and Reid 1969;
    Cox and Higham 1998).
    """
    src = np.full((n + 1, n + 1), -1)
    src[:n, n] = src[n, :n] = np.arange(n)
    if has_block:
        src[:n, :n] = n + np.arange(n * n).reshape(n, n)
    ia, ib = np.nonzero(src >= 0)
    s = _signs(n)
    order = np.argsort(s[ia] + s[ib], kind="stable")
    ia, ib = ia[order], ib[order]
    return ia, ib, src[ia, ib]


class PointMoments:
    """A model evaluated at one parameter point, or at a stack of K points.

    Holds the state and its moment derivatives, dds (..., p, 2N) and dVs
    (..., p, 2N, 2N), and, on first use, one Williamson decomposition of V
    per point and the coefficient rows and weights of the module docstring.
    A stack carries a leading axis of length K on the state, dds, dVs and
    everything derived from them; each point's values do not depend on the
    other points of its stack.
    """

    def __init__(self, st: GaussianState, dds, dVs, n_params: int):
        self.st = st
        self.dds = np.stack(dds, axis=-2)
        self.dVs = np.stack(dVs, axis=-3)
        self.n_params = n_params

    @cached_property
    def normal_modes(self):
        """(T, nu, s) on the augmented coordinates from one Williamson decomposition of V.

        The rows of T alternate z_k and conj(z_k) (s = +1, -1) from
        :func:`williamson`, each with the eigenvalue nu_k of its mode; the
        extra coordinate is kept as is, with nu = 1/2 and s = 0.
        """
        nu, Z = williamson(self.st.V)
        lead, n = nu.shape[:-1], 2 * nu.shape[-1]
        T = np.zeros(lead + (n + 1, n + 1), dtype=complex)
        T[..., 0:n:2, :n] = Z
        T[..., 1:n:2, :n] = np.conj(Z)
        T[..., n, n] = 1.0
        nu_aug = np.full(lead + (n + 1,), 0.5)
        nu_aug[..., :n] = np.repeat(nu, 2, axis=-1)
        return T, nu_aug, _signs(n)

    @cached_property
    def rows(self):
        """(K, (ia, ib), w): the live coefficient rows, their pairs and their weights of each kind.

        Row (a, b) of K, column mu, is (T D_mu T^T)_ab with
        D_mu = [[dV_mu, dd_mu], [dd_mu^T, 0]]: the border T_n dd_mu
        (T_n = T[:n, :n]) on the pairs (a, extra) and (extra, a), and the
        block T_n dV_mu T_n^T on the pairs (a, b) of normal coordinates.  The
        block is formed only when some dV of the stack is nonzero (T_n is
        invertible, so it vanishes otherwise), and only the rows that are
        nonzero at some point of the stack are kept, in the order of
        :func:`_layout`; a displacement model keeps its 2n border rows.
        ia, ib are the pair indices of the rows kept.
        """
        T, nu, s = self.normal_modes
        n = nu.shape[-1] - 1
        Tn = T[..., None, :n, :n]
        coef = (Tn @ self.dds[..., None])[..., 0]  # (..., p, n): the border T_n dd_mu
        has_block = bool(self.dVs.any())
        if has_block:
            block = Tn @ self.dVs @ numkit.transpose(Tn)
            coef = np.concatenate([coef, block.reshape(coef.shape[:-1] + (n * n,))], axis=-1)
        ia, ib, src = _layout(n, has_block)
        live = (coef != 0).any(axis=-2).reshape(-1, coef.shape[-1]).any(axis=0)[src]
        ia, ib, src = ia[live], ib[live], src[live]
        K = numkit.transpose(np.take(coef, src, axis=-1))
        return K, (ia, ib), _weights(nu, s, ia, ib)

    def gram(self, kind: str) -> np.ndarray:
        K, _, w = self.rows
        return numkit.adjoint(K) @ (w[kind][..., :, None] * K)

    @cached_property
    def rld_split(self):
        """(C, A, n_c): weighted in-range live rows with F_R = C^H C, and the out-of-range rows.

        The live rows (see :attr:`rows`) are the same at every point of the
        stack, so C holds a point's out-of-range rows as zero rows and A its
        in-range rows; n_c is each point's count of nonzero in-range rows, the
        row count of its C on its own.
        """
        K, _, w = self.rows
        out = np.isinf(w["rld"])
        C = np.sqrt(np.where(out, 0.0, w["rld"]))[..., None] * K
        A = np.where(out[..., None], K, 0.0)
        return C, A, (C != 0).any(axis=-1).sum(axis=-1)

    def components(self, kind: str, mu: int):
        """(l0, l1, l2) of L = l0 + l1^T R + R^T l2 R, the SLD or RLD of parameter mu.

        For one point (no stack axis).  The weighted live rows are scattered
        back into the (n+1) x (n+1) layout, zero on the other pairs.
        """
        T, nu, _ = self.normal_modes
        K, (ia, ib), w = self.rows
        x = np.zeros((nu.size, nu.size), dtype=complex)
        x[ia, ib] = 2.0 * np.where(np.isinf(w[kind]), 0.0, w[kind]) * K[:, mu]
        X = np.conj(T.T) @ x @ np.conj(T)
        l2, d = X[:-1, :-1], self.st.d
        l1 = X[:-1, -1] - 2.0 * l2 @ d
        return -0.5 * np.trace(self.st.V @ l2) - d @ l1 - d @ l2 @ d, l1, l2


def evaluate(model: GaussianModel | PointMoments, theta=None) -> PointMoments:
    """Evaluate a model once at theta; a PointMoments is returned unchanged.

    A model whose state_fn returns a stack of states (and whose derivative
    hooks return matching stacks) gives a stacked PointMoments.
    """
    if isinstance(model, PointMoments):
        return model
    if theta is None:
        raise TypeError("theta is required to evaluate a GaussianModel")
    st = model.state(theta)
    dds, dVs = model.derivatives(theta)
    return PointMoments(st, dds, dVs, model.n_params)


def sld_components(model: GaussianModel | PointMoments, theta, mu: int) -> SldComponents:
    """Moment expansion of the symmetric logarithmic derivative.

    L = l0 + l1^T R + R^T l2 R with l2 the solution of V l2 V + Om l2 Om = dV.
    """
    l0, l1, l2 = evaluate(model, theta).components("sld", mu)
    return SldComponents(float(l0.real), l1.real, numkit.hermitize(l2.real))


def rld_components(model: GaussianModel | PointMoments, theta, mu: int) -> RldComponents:
    """Moment expansion of the right logarithmic derivative.

    l2 solves M l2 M^T = dV with M = V + i Omega (on the range of M when M is
    singular); l2 is complex and in general not symmetric.
    """
    l0, l1, l2 = evaluate(model, theta).components("rld", mu)
    return RldComponents(complex(l0), l1, l2)


def qfim_sld(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """SLD quantum Fisher information matrix (real symmetric; (K, p, p) for a stack)."""
    return numkit.hermitize(evaluate(model, theta).gram("sld").real)


def qfim_rld(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """RLD quantum Fisher information matrix (complex Hermitian; (K, p, p) for a stack).

    Directions where the true RLD information diverges (pure modes) are left
    out, which silently regularizes it; for bound evaluation on such models
    use :func:`rld_inverse_limit`.
    """
    C = evaluate(model, theta).rld_split[0]
    return numkit.hermitize(numkit.adjoint(C) @ C)


def incompatibility(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """Mean Uhlmann-curvature-type matrix U (real antisymmetric; (K, p, p) for a stack).

    U = 0 iff the SLD bound is attainable without measurement incompatibility
    penalty; in general b_h_upper = (1 + R_Q) b_s with R_Q built from U.
    """
    U = evaluate(model, theta).gram("u").real
    return 0.5 * (U - numkit.transpose(U))


def quantumness(f_sld, u) -> float:
    """R_Q = largest |eigenvalue| of i F^{-1} U, the incompatibility ratio.

    Evaluated through the similarity-equivalent Hermitian matrix
    i F^{-1/2} U F^{-1/2}.  For p = 2 its eigenvalues are
    +-|(F^{-1/2} U F^{-1/2})_01| (an antisymmetric 2x2 x has the one pair
    +-i x_01), so no eigvalsh is needed.  Values outside [0, 1] by more than
    1e-8 indicate an inconsistent (F, U) pair and trigger a warning; round-off
    excursions are clamped.  Stacks of (F, U) give an array of ratios.
    """
    _, root_finv = numkit.pinv_psd(np.asarray(f_sld, dtype=float))
    return _quantumness(root_finv, np.asarray(u, dtype=float))


def _quantumness(root_finv, u):
    """R_Q from the PSD root of F^{-1}; see :func:`quantumness`."""
    x = root_finv @ u @ root_finv
    if x.shape[-2:] == (2, 2):  # the entry of the antisymmetric part, as hermitize keeps it
        rq = 0.5 * np.abs(x[..., 0, 1] - x[..., 1, 0])
    else:
        rq = np.abs(np.linalg.eigvalsh(numkit.hermitize(1j * x))).max(axis=-1)
    inconsistent = rq > 1.0 + 1e-8
    if inconsistent.any():
        warnings.warn("quantumness ratio %.6g exceeds 1; F and U are inconsistent" % rq.max())
    return numkit.float_or_stack(np.where(inconsistent, rq, np.minimum(rq, 1.0)))


def rld_inverse_limit(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """Limiting inverse of the RLD information matrix.

    Coefficient rows with an infinite RLD weight (pure-mode directions, see
    :func:`_weights`) make the RLD information diverge, and the inverse must
    vanish on the parameter directions that reach them.  With A those rows,
    F_R = C^H C from the remaining weighted rows, and Q the right-singular
    vectors of A with the first rank(A) (rank relative to the largest
    coefficient) set to zero, the limit is

        F_R^{-1} -> P P^+,   P = Q pinv(C Q)

    which covers every rank of A: Q = I (pinv(F_R)) when A = 0, Q = 0 (the
    zero inverse) when ker A = 0.  A stack is one :func:`numkit.pinv_gram`
    call on X = C, or C Q at the points with out-of-range rows, each point
    with its own cutoff, size max(n_c, p - rank(A)): a QR for the points of
    full rank and the SVD pinv for the others.  Q and the products with it
    are formed only at the points with out-of-range rows.
    """
    pt = evaluate(model, theta)
    C, A, n_c = pt.rld_split
    pure = A.any(axis=(-2, -1))  # points with out-of-range rows
    if not pure.any():
        return numkit.pinv_gram(C, n_c)
    p = C.shape[-1]
    _, s, vh = np.linalg.svd(A[pure])
    cut = 1e-10 * np.abs(pt.rows[0][pure]).max(axis=(-2, -1))
    rank = (s > cut[..., None]).sum(axis=-1)
    Q = numkit.adjoint(vh) * (np.arange(p) >= rank[..., None])[..., None, :]
    X, size = C.copy(), np.array(n_c)
    X[pure] = C[pure] @ Q
    size[pure] = np.maximum(size[pure], p - rank)
    G = numkit.pinv_gram(X, size)
    G[pure] = Q @ G[pure] @ numkit.adjoint(Q)
    return G


def weight_root(weight, m: int) -> np.ndarray:
    """sqrt(W) of a weight matrix W; W must be a symmetric positive semidefinite m x m matrix."""
    W = np.asarray(weight, dtype=float)
    if W.shape != (m, m) or np.max(np.abs(W - W.T)) > 1e-10:
        raise ValueError("weight must be a symmetric %dx%d matrix" % (m, m))
    try:
        return numkit.sqrtm_psd(W)  # its eigendecomposition also checks W >= 0
    except ValueError:
        raise ValueError("weight must be positive semidefinite") from None


def bound_chain(f_sld, u, *, rld_inverse, weight=None) -> BoundChain:
    """Scalar bound family for a weight matrix (identity by default).

    rld_inverse is the limiting inverse of the RLD information matrix, the
    output of :func:`rld_inverse_limit`; a plain pinv of F_R is wrong at
    pure points.  Stacked matrices (K, p, p) share the weight and give
    arrays of K bounds.
    """
    f_sld = np.asarray(f_sld, dtype=float)
    m = f_sld.shape[-1]
    if weight is None:
        W = sw = np.eye(m)
    else:
        W = np.asarray(weight, dtype=float)
        sw = weight_root(W, m)
    finv_s, root_finv_s = numkit.pinv_psd(f_sld)
    finv_r = np.asarray(rld_inverse, dtype=complex)
    u = np.asarray(u, dtype=float)
    # one stacked call for both trace norms, of sw Im F_R^-1 sw and of sw F_S^-1 U F_S^-1 sw
    tn_r, tn_u = numkit.trace_abs(np.array([sw @ finv_r.imag @ sw, sw @ finv_s @ u @ finv_s @ sw]))
    b_s = (W @ finv_s).trace(axis1=-2, axis2=-1)
    b_r = (W @ finv_r.real).trace(axis1=-2, axis2=-1) + tn_r
    b_h_mid = b_s + tn_u
    r_q = _quantumness(root_finv_s, u)
    b_h_upper = (1.0 + r_q) * b_s
    return BoundChain(*(numkit.float_or_stack(x) for x in (b_s, b_r, b_h_mid, b_h_upper, r_q)))


@dataclass
class QfimReport:
    """All information matrices and scalar bounds of a model at one point (or a stack)."""

    f_sld: np.ndarray
    f_rld: np.ndarray
    u: np.ndarray
    b_s: float
    b_r: float
    b_h_mid: float
    b_h_upper: float
    r_q: float

    def to_dict(self):
        return {
            "f_sld": self.f_sld.tolist(),
            "f_rld_re": self.f_rld.real.tolist(),
            "f_rld_im": self.f_rld.imag.tolist(),
            "u": self.u.tolist(),
            "b_s": self.b_s,
            "b_r": self.b_r,
            "b_h_mid": self.b_h_mid,
            "b_h_upper": self.b_h_upper,
            "r_q": self.r_q,
        }


def qfim_report(model: GaussianModel | PointMoments, theta=None, weight=None) -> QfimReport:
    """Evaluate F_S, F_R, U and the scalar bound chain at one parameter point.

    A stacked PointMoments gives a report of (K, p, p) matrices and (K,) bounds.
    """
    pt = evaluate(model, theta)
    f_s = qfim_sld(pt)
    f_r = qfim_rld(pt)
    u = incompatibility(pt)
    chain = bound_chain(f_s, u, rld_inverse=rld_inverse_limit(pt), weight=weight)
    return QfimReport(f_s, f_r, u, *chain)


# ----------------------------------------------------------------------------
# built-in model families (analytic derivative hooks)
# ----------------------------------------------------------------------------


def displacement_model(
    probe: GaussianState,
    channel: Optional[NoisyChannel] = None,
    t=0.0,
) -> GaussianModel:
    """Two displacement parameters on the first mode, then optional damping.

    theta = (theta1, theta2) shifts (Q1, P1) of the probe before the channel,
    so dd = e^{-gamma t / 2} (e1, e2) and dV = 0: the covariance carries no
    parameter dependence and the QFIM is purely first-moment.  A stacked
    probe, channel or array of times t gives a model of stacked states, one
    per grid point (see :func:`gaussfish.channels.evolve`).
    """
    modes = probe.modes
    if channel is not None and channel.modes != modes:
        raise ValueError("channel/probe mode mismatch")

    def state_fn(theta):
        shift = np.zeros(2 * modes)
        shift[:2] = theta[0], theta[1]
        st = GaussianState(probe.d + shift, probe.V)
        if channel is not None:
            st = evolve(channel, st, t)
        return st

    eta = 1.0
    if channel is not None:
        eta = np.exp(-0.5 * channel.gamma[..., 0] * np.asarray(t, dtype=float))
    dd = np.zeros((2,) + np.broadcast_shapes(np.shape(eta), probe.V.shape[:-2]) + (2 * modes,))
    dd[0, ..., 0] = dd[1, ..., 1] = eta  # e1, e2
    zero = np.zeros(dd.shape + (2 * modes,))
    return GaussianModel(
        state_fn, n_params=2, d_derivs=lambda theta: dd, v_derivs=lambda theta: zero
    )


def phase_model(probe: GaussianState) -> GaussianModel:
    """Single-mode phase-rotation family theta -> R_theta applied to the probe."""
    if probe.modes != 1:
        raise ValueError("phase model is single-mode")
    om = omega(1)

    def state_fn(theta):
        return apply(rotation(theta[0]), probe)

    def d_derivs(theta):
        R = rotation(theta[0]).S
        return [om @ R @ probe.d]

    def v_derivs(theta):
        R = rotation(theta[0]).S
        V = R @ probe.V @ R.T
        return [om @ V - V @ om]

    return GaussianModel(state_fn, n_params=1, d_derivs=d_derivs, v_derivs=v_derivs)

"""Quantum Fisher information matrices and scalar bounds for Gaussian models.

A model is a map theta -> GaussianState.  Every information quantity is
evaluated at the moment level (Monras, arXiv:1303.3682; Safranek, J. Phys. A
52, 035304 (2019)), by one of two paths.

First-moment models.  Where every dV is zero, as in every displacement
sweep, the information lies in the first moments, D = (dd_mu) (p x 2N), and
has closed forms in V and M = V + i Omega:

    F^S = 2 D V^-1 D^T,   U = 2 D V^-1 Omega V^-1 D^T,   F^R = 2 D M^-1 D^T.

:attr:`PointMoments.solved` takes all three, the limiting inverse of F^R included, in
closed form for a two-mode, two-parameter stack whose state carries its Williamson form
V = O diag(lam) O^T with delta = nu^2 - 1 (:class:`GaussianState`), as every built-in
probe through a uniform channel does: from the 2x2 blocks of E = sqrt2 D O, one per mode,
as sums of nonnegative terms in delta, with no LAPACK call (:func:`first_moment_columns`),
whichever of its modes are pure at each point.  The limit is finite at pure points and 0
where the directions reach the null coordinates of M with full rank (Genoni et al., PRA
87, 012107 (2013)).  A scenario sweep calls the same kernel on the probe's eigen-factor
with no state built, at the unit dd (e1, e2) of a displacement, reads the bound chain from
its (K,) columns with no matrix packed (:func:`factored_chain`), and scales its bounds by
e^(gamma t) (:mod:`gaussfish.scenarios`).

The Williamson basis.  Every other stack (some dV nonzero, a state without an eigen-factor,
a nonzero dd not of full row rank at any of its points, or dd that reach more than p
coordinates between them; no built-in probe builds one) is evaluated in
the Williamson basis V = S diag(nu) S^T (S symplectic), which also referees the closed
form in the tests.  The rows of T = J S^-1, J taking each pair (q, p) to
(q + i p, q - i p)/sqrt2, are normal coordinates a with eigenvalue nu_a and sign
s_a = +-1, in which V + i Omega is diagonal with lam_a = nu_a + s_a (:func:`williamson`
gives them up to a unit phase per row).
Both moments of parameter mu enter as one augmented matrix
D_mu = [[dV_mu, dd_mu], [dd_mu^T, 0]], whose extra coordinate (kept as is by
T) counts as nu = 1/2, s = 0.  Its coefficients k_mu = vec(T D_mu T^T) over
pairs (a, b) give, with G(w)_{mu nu} = sum conj(k_mu) w k_nu,

    F^S = Re G(w_S),  w_S = 1 / (2 (nu_a nu_b + s_a s_b))
    F^R =    G(w_R),  w_R = 1 / (2 lam_a lam_b)
    U   = Re G(w_U),  w_U = -i (s_a nu_b + s_b nu_a) / (2 (nu_a nu_b + s_a s_b)^2)

These are the blockwise solutions of the SLD equation V X V + Om X Om = dV
and the RLD equation M X M^T = dV; on the pairs (a, extra) and (extra, a)
the weights sum to the first-moment terms 2 / nu_a, 2 / lam_a and
-2i s_a / nu_a^2 of the closed forms above.  :func:`evaluate` returns a
:class:`PointMoments` that every information function accepts in place of
(model, theta), so one evaluation and one decomposition serve them all.
F^R itself (:func:`qfim_rld`, :attr:`QfimReport.f_rld`) always takes this
basis: it drops the directions along which the information diverges, which a
pseudo-inverse of the Schur complement does not.

Live rows.  The sums above run over the coefficient rows that are nonzero:
the border T_n dd_mu (T_n = T[:n, :n]) on the pairs (a, extra) and
(extra, a), and the block T_n dV_mu T_n^T, less the rows that vanish for
every parameter at every point of a stack.  The block of a zero dV is
exactly zero, so a displacement model (dV = 0) has 2n rows, not (n+1)^2,
and every Gram matrix, the RLD split and the SLD/RLD components work on the
same rows.  The rows come heaviest RLD weight first (:func:`_layout`), which
the SVD of the RLD split needs near a pure mode.

Scalar bounds for a weight matrix W (default identity):

    b_s        = Tr[W F_S^{-1}]
    b_r        = Tr[W Re F_R^{-1}] + TrAbs(sqrt(W) Im F_R^{-1} sqrt(W))
    b_h_mid    = b_s + TrAbs(sqrt(W) F_S^{-1} U F_S^{-1} sqrt(W))
    b_h_upper  = (1 + R_Q) b_s,   R_Q = || i F_S^{-1} U ||_inf in [0, 1]

and the chain max(b_s, b_r) <= b_h_mid <= b_h_upper <= 2 b_s holds pointwise.  For two
parameters, F_S = [[a, c], [c, b]] with d = ab - c^2 and U antisymmetric, these are short
formulas in the entries, which :func:`bound_chain` takes with no pseudo-inverse or root:

    b_h_mid = b_s + 2 sqrt(det W) |u01| / d,   R_Q = |u01| / sqrt(d),
    b_r     = Tr[W Re F_R^{-1}] + 2 sqrt(det W) |Im (F_R^{-1})_01|

A pure mode (nu = 1) makes M singular; see :func:`rld_inverse_limit`.

Stack axis.  A PointMoments may hold K points at once: a state with d of shape (K, 2N)
and V of shape (K, 2N, 2N), with dds (K, p, 2N) and dVs (K, p, 2N, 2N), as a model
evaluated on a whole sweep grid gives.  Every function here then works on the leading
axis in one call and returns (K, p, p) matrices and (K,) bounds; without the axis it is
the one-point case and returns (p, p) matrices and floats.  The formulas are elementwise
in nu, and the purity cut, the rank cut of :func:`rld_inverse_limit` and every pinv
cutoff are taken point by point.  The path is chosen per stack: the closed form serves the
stack whole or not at all (:meth:`PointMoments.merged`), so a point that it does not serve
moves its neighbours to the Williamson basis, where they match their own evaluation to
rounding.  A point whose dd is 0 is one of those (dd = e^{-gamma t / 2} (e1, e2) underflows
from gamma t of about 1490); the basis gives it exact zeros.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field
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

# Relative rank cut of the limiting RLD inverse at a pure point: a singular value of the
# pure-mode rows in the Williamson basis (_rld_inverse_in_basis) at most RANK_CUT times the
# largest entry counts as 0; in the factored closed form (first_moment_columns) the
# anticonformal part of C, ((c00 - c11)^2 + (c01 + c10)^2)^1/2, at most RANK_CUT ||C||_F
# counts as 0.
RANK_CUT = 1e-10

_SQRT2 = np.sqrt(2.0)  # E = sqrt2 D O: the built-in O holds cos and sin of phi/2 over sqrt2


@lru_cache(maxsize=None)
def _omega(n: int) -> np.ndarray:
    """omega(n), built once per mode count; read-only, as one cached array serves every caller."""
    om = omega(n)
    om.flags.writeable = False
    return om


def _whiten(V, factor=None):
    """(cond(V), W, A): the condition number of V, W = u diag(lam)^-1/2 and A = W^T Omega W.

    (u, lam) is an eigenbasis of V = u diag(lam) u^T, so V^-1 = W W^T: W whitens on
    one side, each column at its own scale lam^-1/2.  The state's Williamson form
    V = O diag(lam) O^T, where it carries one (:class:`GaussianState`), is that basis with
    no LAPACK call; as O^T Omega O = Omega, A is then the blocks omega / nu_k,
    1/nu_k = 1 / sqrt(lam_2k lam_2k+1), with no matrix product and no lam in it.
    Without a factor one eigh of V gives W and A.  lam is checked first
    (:func:`_check_spectrum`).  A stack V (K, 2N, 2N) is decomposed matrix by matrix.
    """
    if factor is None:
        if not np.isfinite(V).all():
            raise ValueError("covariance is not finite")
        lam, u = np.linalg.eigh(V)
    else:
        u, lam, _ = factor
    _check_spectrum(lam)
    cond, root = lam.max(axis=-1) / lam.min(axis=-1), np.sqrt(lam)
    w, om = u / root[..., None, :], _omega(V.shape[-1] // 2)
    if factor is None:
        return cond, w, numkit.transpose(w) @ (om @ w)
    inv_nu = 1.0 / (root[..., 0::2] * root[..., 1::2])
    return cond, w, om * np.repeat(inv_nu, 2, axis=-1)[..., None, :]


def _check_spectrum(lam):
    """ValueError for eigenvalues lam of V that are not finite, or not positive."""
    if not (lam.min() > 0.0 and lam.max() < np.inf):
        if not np.isfinite(lam).all():
            raise ValueError("covariance is not finite")
        raise ValueError("covariance is not positive definite (smallest eigenvalue %.3e)" % lam.min())


def _purity_cut(lam, cond):
    """The symplectic eigenvalues nu = 1 / lam of a V of condition number cond, checked and cut.

    lam are the positive eigenvalues of i A, A = W^T Omega W (:func:`_whiten`).  A mode with
    nu - 1 <= PURE_TOL cond(V) is pure and gets nu = 1 exactly; a nu below 1 by
    more raises ValueError.  The cut is taken point by point.
    """
    nu = 1.0 / lam
    tol = (PURE_TOL * cond)[..., None]
    if not (nu >= 1.0 - tol).all():
        raise ValueError("unphysical state: symplectic eigenvalue %.15g < 1" % nu.min())
    return np.where(nu - 1.0 <= tol, 1.0, nu)


def williamson(V, factor=None):
    """(nu, Z): the symplectic eigenvalues, one per mode, and the normal coordinates of V.

    The eigenvectors u_k of the Hermitian i A, A = W^T Omega W with W W^T = V^-1
    (:func:`_whiten`), for its eigenvalues 1/nu_k (np.linalg.eigh) give the rows
    z_k = sqrt(nu_k) u_k^H W^T of the complex Z (N x 2N).  These are the
    s = +1 rows of the normal coordinates T of the module docstring, and
    conj(Z) its s = -1 rows, so T (V + i Omega) T^H = diag(nu + s).  The checks
    of V and the purity cut are those of :func:`_whiten` (of the eigen-factor where
    one is given) and :func:`_purity_cut`.  A stack V (K, 2N, 2N) is decomposed
    matrix by matrix.
    """
    cond, w, a = _whiten(V, factor)
    n = V.shape[-1] // 2
    lam, vecs = np.linalg.eigh(1j * a)
    nu = _purity_cut(lam[..., n:], cond)
    uh, wt = numkit.adjoint(vecs[..., n:]), numkit.transpose(w)
    z = np.empty(uh.shape, complex)  # u^H W^T by two real products: W is not cast
    z.real, z.imag = uh.real @ wt, uh.imag @ wt
    return nu, np.sqrt(nu)[..., :, None] * z


def _first_moment_factored(D, factor):
    """(F_S, U, limiting F_R^-1) as matrices: :func:`first_moment_columns` of D and the factor."""
    lead = np.broadcast_shapes(D.shape[:-2], factor[1].shape[:-1], factor[2].shape[:-1])
    return tuple(x.reshape(lead + (2, 2)) for x in _pack(*first_moment_columns(D, factor)))


def first_moment_columns(D, factor):
    """The entries (f00, f11, f01, u01, r00, r11, r01, i01) of F_S, U and the limiting F_R^-1 =
    R + i I of a two-mode, two-parameter model with dV = 0, as (K,) columns, in closed form from
    the state's Williamson form (O, lam, delta) (:class:`GaussianState`).

    D (..., 2, 4), or one D (2, 4) for the stack, which is then not broadcast, is dd, of full
    rank at every point.  E = sqrt2 D O,
    whose entries for the built-in O are cos and sin of phi/2 unrounded, is read in 2x2
    blocks E_k, one per mode k, with lam = (a_k, b_k), nu_k^2 = a_k b_k and delta_k =
    nu_k^2 - 1 as carried.  As V = O diag(lam) O^T and M = O (diag(lam) + i Omega) O^T,
    whose blocks invert to (adj(diag(a_k, b_k)) - i omega) / delta_k, with
    G = E diag(lam)^-1/2 and G_k its blocks:

        F_S = G G^T,   U_01 = sum_k det E_k / nu_k^2,
        F_R = sum_k (nu_k^2 P_k - i nu_k det(G_k) omega) / delta_k,   P_k = G_k G_k^T.

    With w_k = delta_k / nu_k^2 = delta_k / (1 + delta_k), q_k = det(G_k) / nu_k and k' the
    other mode, F_R is (w_2 (P_1 - i q_1 omega) + w_1 (P_2 - i q_2 omega)) / (w_1 w_2), and its
    2x2 inverse by the adjugate is

        F_R^-1 = [sum_k w_k' adj(P_k) + i (w_2 q_1 + w_1 q_2) omega] / den,
        den = w_2 det(G_1)^2 + w_1 det(G_2)^2 + m ||C||_F^2
              + ((c00 - c11)^2 + (c01 + c10)^2) / (nu_1 nu_2),

    with C = adj(G_1) G_2 and m = 1 - 1 / (nu_1 nu_2) = (w_1 + w_2 / (1 + delta_1)) /
    (1 + 1 / (nu_1 nu_2)).  Every term of den is nonnegative and w_k is read from delta_k,
    so nothing cancels near purity or at strong squeezing.  w_k <= 1 holds a hot mode's
    delta to size 1, and each point's G is divided by its largest entry s first (the ratio
    is homogeneous of degree -2 in G), so no intermediate over- or underflows before lam
    does.  A point with one mode pure (delta_k = 0, so w_k = 0) takes these formulas as
    they stand.  At a point whose modes are both pure the limit is 0 where
    (c00 - c11)^2 + (c01 + c10)^2 exceeds RANK_CUT^2 ||C||_F^2 (every direction reaches the
    null coordinates of M), and else the same ratio with delta divided out (w_k = m = 1, the
    last term of den 0).  lam is checked as :func:`_whiten` checks it.  There is no LAPACK
    call.
    """
    O, lam, delta = factor
    _check_spectrum(lam)
    if not np.isfinite(delta).all():
        raise ValueError("overflow: nu^2 - 1 of the covariance is not finite")
    lead, M = lam.shape[:-1], _SQRT2 * O
    if D.shape[:-2] not in ((), lead) or delta.shape[:-1] != lead:
        lead = np.broadcast_shapes(D.shape[:-2], lead, delta.shape[:-1])
        D = np.broadcast_to(D, lead + (2, 4))
        lam, delta = np.broadcast_to(lam, lead + (4,)), np.broadcast_to(delta, lead + (2,))
    E = (D.reshape(-1, 4) @ M) if M.ndim == 2 else (D @ M)  # one product for a shared O
    # entries first, then mode k, then point: e[mu, j, k] = E[mu, 2k + j], root[j, k] = lam[2k + j]^1/2
    e = np.ascontiguousarray(E.reshape(-1, 2, 2, 2).transpose(1, 3, 2, 0))
    root = np.sqrt(np.ascontiguousarray(lam.reshape(-1, 2, 2).T))
    delta = delta.reshape(-1, 2).T
    inv_nu = 1.0 / (root[0] * root[1])
    det_e = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    u01 = det_e * inv_nu * inv_nu
    g = e / root
    s = np.abs(g).reshape(8, -1).max(axis=0)
    g /= s
    det_g = det_e * inv_nu / s / s
    sq, pr = g * g, g[0] * g[1]
    # per mode k: (G_k G_k^T)_11, (G_k G_k^T)_00, (G_k G_k^T)_01 and det(G_k) / nu_k, all over s^2
    Z = np.empty((4,) + det_g.shape)
    np.add(sq[1, 0], sq[1, 1], out=Z[0])
    np.add(sq[0, 0], sq[0, 1], out=Z[1])
    np.add(pr[0], pr[1], out=Z[2])
    np.multiply(det_g, inv_nu, out=Z[3])
    b = g[:, :, 1]  # G_2, and C = adj(G_1) G_2 by its rows
    c0, c1 = g[1, 1, 0] * b[0] - g[0, 1, 0] * b[1], g[0, 0, 0] * b[1] - g[1, 0, 0] * b[0]
    cc = c0 * c0 + c1 * c1
    cc, anti = cc[0] + cc[1], (c0[0] - c1[1]) ** 2 + (c0[1] + c1[0]) ** 2
    inv_nn = inv_nu[0] * inv_nu[1]
    w = (delta / (1.0 + delta))[::-1]  # w_k' of the other mode
    m = (w[1] + w[0] / (1.0 + delta[0])) / (1.0 + inv_nn)
    rest = anti * inv_nn
    pure = (delta[0] == 0.0) & (delta[1] == 0.0)  # both modes
    if pure.any():  # delta divided out: w = m = 1, and the last term of den is 0, or inf where
        w = np.where(pure, 1.0, w)  # every direction reaches a null coordinate (s > 0 is finite)
        m, cut = np.where(pure, 1.0, m), np.where(anti > RANK_CUT**2 * cc, np.inf, 0.0)
        rest = np.where(pure, cut, rest)
    den = w * det_g * det_g
    den = (den[0] + den[1] + m * cc + rest) * s  # s den, and F_R^-1 = numerator / (s den) / s
    num = Z * w
    num = (num[:, 0] + num[:, 1]) / den / s  # sum_k w_k' (adj(P_k), det(G_k) / nu_k)
    fs = (Z[:3, 0] + Z[:3, 1]) * (s * s)
    return fs[1], fs[0], fs[2], u01[0] + u01[1], num[0], num[1], -num[2], num[3]


def _pack(f00, f11, f01, u01, r00, r11, r01, i01):
    """The (K, 2, 2) stacks (F_S, U, F_R^-1) of :func:`first_moment_columns`' columns."""
    shape = (f00.size, 2, 2)
    f_s, u, f_r_inv = np.empty(shape), np.zeros(shape), np.zeros(shape, complex)
    f_s[:, 0, 0], f_s[:, 1, 1], f_s[:, 0, 1], f_s[:, 1, 0] = f00, f11, f01, f01
    u[:, 0, 1], u[:, 1, 0] = u01, -u01
    re, im = f_r_inv.real, f_r_inv.imag
    re[:, 0, 0], re[:, 1, 1], re[:, 0, 1], re[:, 1, 0] = r00, r11, r01, r01
    im[:, 0, 1], im[:, 1, 0] = i01, -i01
    return f_s, u, f_r_inv


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
def _layout(n: int):
    """(ia, ib, src): the pairs of the (n+1) x (n+1) layout that can be nonzero, by s_a + s_b.

    src is the entry each pair reads from the coefficients of
    :attr:`PointMoments.rows`: the border (index a of (a, extra) and
    (extra, a)), then the flattened block (n + a n + b).
    The pairs are sorted by s_a + s_b, ascending and otherwise row-major, so
    the rows with the largest RLD weight 1 / (2 lam_a lam_b), lam = nu + s,
    come first near a pure mode.  The SVD pinv of the RLD split needs that
    order: LAPACK reduces a tall matrix by Householder QR first, which is
    row-wise stable only with its heavy rows on top (Powell and Reid 1969;
    Cox and Higham 1998).
    """
    src = np.full((n + 1, n + 1), -1)
    src[:n, n] = src[n, :n] = np.arange(n)
    src[:n, :n] = n + np.arange(n * n).reshape(n, n)
    ia, ib = np.nonzero(src >= 0)
    s = _signs(n)
    order = np.argsort(s[ia] + s[ib], kind="stable")
    ia, ib = ia[order], ib[order]
    return ia, ib, src[ia, ib]


class PointMoments:
    """A model evaluated at one parameter point, or at a stack of K points.

    Holds the state and its moment derivatives, dds (..., p, 2N) and dVs
    (..., p, 2N, 2N), with dV_zero telling whether every dV is zero, and, on first use,
    either the closed form of a factored first-moment model (:attr:`solved`) or one
    Williamson decomposition of V with the coefficient rows and weights of the module
    docstring.  A stack carries a leading axis of length K on the state, dds, dVs and
    everything derived from them.  Each point's cuts do not depend on the other points of
    its stack; the path is chosen for the stack as a whole, so one point that the closed
    form does not serve sends its neighbours to the basis too, where they match their own
    evaluation to rounding.
    """

    def __init__(self, st: GaussianState, dds, dVs, n_params: int):
        self.st = st
        self.dds = np.stack(dds, axis=-2)
        self._dV_list = dVs = tuple(dVs)
        self.dV_zero = not any(np.any(dV) for dV in dVs)
        self.n_params = n_params

    @cached_property
    def dVs(self) -> np.ndarray:
        """The dV stacked, (..., p, 2N, 2N), on first use: a first-moment model never stacks them."""
        return np.stack(self._dV_list, axis=-3)

    @cached_property
    def solved(self):
        """(F_S, U, limiting F_R^-1) of the whole stack in closed form, or None.

        The closed form of the eigen-factor's 2x2 blocks (:func:`_first_moment_factored`)
        serves a two-mode, two-parameter stack whose every dV is zero and whose state carries
        its eigen-factor, with any of its modes pure.  The stack's dd must reach two
        coordinates between them, on which each point's dd is certified of full rank
        (:func:`numkit.inv_certified`).  Any other stack returns None, and the Williamson
        basis serves it whole: a point whose dd is 0 gets exact zeros there.
        """
        factor, D = self.st.factor, self.dds
        if not self.dV_zero or factor is None or D.shape[-2:] != (2, 4):
            return None
        reached = D.reshape(-1, 4).any(axis=0)
        if np.count_nonzero(reached) != 2:
            return None
        if not numkit.inv_certified(D[..., reached]).all():
            return None
        return _first_moment_factored(D, factor)

    def merged(self, k: int, in_basis: Callable[["PointMoments"], np.ndarray]) -> np.ndarray:
        """Quantity k of (F_S, U, limiting F_R^-1): of :attr:`solved` where it serves the stack,
        else in_basis of the Williamson basis, for the whole stack."""
        return in_basis(self) if self.solved is None else self.solved[k]

    @cached_property
    def normal_modes(self):
        """(T, nu, s) on the augmented coordinates from one Williamson decomposition of V.

        The rows of T alternate z_k and conj(z_k) (s = +1, -1) from
        :func:`williamson`, each with the eigenvalue nu_k of its mode; the
        extra coordinate is kept as is, with nu = 1/2 and s = 0.
        """
        nu, Z = williamson(self.st.V, self.st.factor)
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
        block T_n dV_mu T_n^T on the pairs (a, b) of normal coordinates.  Only
        the rows that are nonzero at some point of the stack are kept, in the
        order of :func:`_layout`; the block of a zero dV is exactly zero, so a
        displacement model keeps its 2n border rows.
        ia, ib are the pair indices of the rows kept.
        """
        T, nu, s = self.normal_modes
        n = nu.shape[-1] - 1
        Tn = T[..., None, :n, :n]
        coef = (Tn @ self.dds[..., None])[..., 0]  # (..., p, n): the border T_n dd_mu
        block = Tn @ self.dVs @ numkit.transpose(Tn)
        coef = np.concatenate([coef, block.reshape(coef.shape[:-1] + (n * n,))], axis=-1)
        ia, ib, src = _layout(n)
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
    return evaluate(model, theta).merged(0, lambda pt: numkit.hermitize(pt.gram("sld").real))


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
    return evaluate(model, theta).merged(1, _incompatibility_in_basis)


def _incompatibility_in_basis(pt: PointMoments) -> np.ndarray:
    U = pt.gram("u").real
    return 0.5 * (U - numkit.transpose(U))


def quantumness(f_sld, u) -> float:
    """R_Q = largest |eigenvalue| of i F^{-1} U, the incompatibility ratio.

    It is the r_q of :func:`bound_chain`: for p = 2 the closed form |u01| / sqrt(det F), else
    through the similarity-equivalent Hermitian matrix i F^{-1/2} U F^{-1/2}.  Values
    outside [0, 1] by more than 1e-8 indicate an inconsistent (F, U) pair and trigger a
    warning; round-off excursions are clamped.  Stacks of (F, U) give an array of ratios.
    """
    return bound_chain(f_sld, u, rld_inverse=np.zeros(np.shape(f_sld))).r_q


def _quantumness(root_finv, u):
    """R_Q from the PSD root of F^{-1}, unclamped; see :func:`quantumness`.

    The eigenvalues of i x, x = F^{-1/2} U F^{-1/2}, are +-|x_01| for p = 2 (an
    antisymmetric 2x2 x has the one pair +-i x_01), so no eigvalsh is needed there.
    """
    x = root_finv @ u @ root_finv
    if x.shape[-2:] == (2, 2):  # the entry of the antisymmetric part, as hermitize keeps it
        return 0.5 * np.abs(x[..., 0, 1] - x[..., 1, 0])
    return np.abs(np.linalg.eigvalsh(numkit.hermitize(1j * x))).max(axis=-1)


def rld_inverse_limit(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """Limiting inverse of the RLD information matrix.

    A stack that :attr:`PointMoments.solved` serves takes at each point the closed form of
    :func:`_first_moment_factored`, 0 where the directions reach the null coordinates of M
    with full rank, cut by RANK_CUT.  In the Williamson basis,
    coefficient rows with an infinite RLD weight (pure-mode directions, see
    :func:`_weights`) make the RLD information diverge, and the inverse must vanish on the
    parameter directions that reach them.  With A those rows,
    F_R = C^H C from the remaining weighted rows, and Q the right-singular vectors of A
    with the first rank(A) (rank relative to RANK_CUT times the largest coefficient) set
    to zero, the limit is

        F_R^{-1} -> P P^+,   P = Q pinv(C Q)

    which covers every rank of A: Q = I (pinv(F_R)) when A = 0, Q = 0 (the
    zero inverse) when ker A = 0.  A stack is one :func:`numkit.pinv_gram`
    call on X = C, or C Q at the points with out-of-range rows, each point
    with its own cutoff, size max(n_c, p - rank(A)).  Q and the products with
    it are formed only at the points with out-of-range rows.
    """
    return evaluate(model, theta).merged(2, _rld_inverse_in_basis)


def _rld_inverse_in_basis(pt: PointMoments) -> np.ndarray:
    C, A, n_c = pt.rld_split
    pure = A.any(axis=(-2, -1))  # points with out-of-range rows
    if not pure.any():
        return numkit.pinv_gram(C, n_c)
    p = C.shape[-1]
    _, s, vh = np.linalg.svd(A[pure])
    cut = RANK_CUT * np.abs(pt.rows[0][pure]).max(axis=(-2, -1))
    rank = (s > cut[..., None]).sum(axis=-1)
    Q = numkit.adjoint(vh) * (np.arange(p) >= rank[..., None])[..., None, :]
    X, size = C.copy(), np.array(n_c)
    X[pure] = C[pure] @ Q
    size[pure] = np.maximum(size[pure], p - rank)
    G = numkit.pinv_gram(X, size)
    G[pure] = Q @ G[pure] @ numkit.adjoint(Q)
    return G


def weight_root(weight, m: int) -> np.ndarray:
    """sqrt(W) of a weight matrix W; W must be a symmetric positive semidefinite m x m matrix.

    The root of each W is taken once per process and shared, read-only: a weighted
    sweep's check and every evaluation of its grid take one eigh of W between them.
    """
    W = np.asarray(weight, dtype=float)
    if W.shape != (m, m) or np.max(np.abs(W - W.T)) > 1e-10:
        raise ValueError("weight must be a symmetric %dx%d matrix" % (m, m))
    return _psd_root(W.tobytes(), m)


@lru_cache(maxsize=64)
def _psd_root(w_bytes: bytes, m: int) -> np.ndarray:
    """:func:`weight_root` of the m x m matrix whose float64 bytes are w_bytes."""
    try:
        root = numkit.sqrtm_psd(np.frombuffer(w_bytes).reshape(m, m))  # its eigh also checks W >= 0
    except ValueError:
        raise ValueError("weight must be positive semidefinite") from None
    root.flags.writeable = False
    return root


def bound_chain(f_sld, u, *, rld_inverse, weight=None) -> BoundChain:
    """Scalar bound family for a weight matrix (identity by default).

    rld_inverse is the limiting inverse of the RLD information matrix, the
    output of :func:`rld_inverse_limit`; a plain pinv of F_R is wrong at
    pure points.  Stacked matrices (K, p, p) share the weight and give
    arrays of K bounds.  Two parameters take the closed forms of :func:`_chain2`;
    any other p takes the pseudo-inverse and PSD root of F_S from :func:`numkit.pinv_psd`
    (:func:`_chain_generic`).  A ratio r_q over 1 + 1e-8 warns that (F_S, U) is
    inconsistent, and round-off over 1 is clamped.
    """
    f_sld = np.asarray(f_sld, dtype=float)
    u = np.asarray(u, dtype=float)
    finv_r = np.asarray(rld_inverse, dtype=complex)
    chain = _chain2 if f_sld.shape[-2:] == (2, 2) else _chain_generic
    return _clamped(*chain(f_sld, u, finv_r, weight))


def factored_chain(columns, weight=None) -> BoundChain:
    """:func:`bound_chain` of the matrices of :func:`first_moment_columns`' columns, bit for
    bit, read from the columns (:func:`_chain_columns`): only uncertified points are packed."""
    f00, f11, f01, u01, r00, r11, r01, i01 = columns
    return _clamped(*_chain_columns(f00, f11, f01 + f01, u01 - (-u01), r00, r11, r01, i01 - (-i01),
                                    weight, lambda bad: _pack(*(x[bad] for x in columns))))


def _clamped(b_s, b_r, b_h_mid, r_q) -> BoundChain:
    """The BoundChain of (b_s, b_r, b_h_mid, r_q): r_q over 1 + 1e-8 warns that (F_S, U) is
    inconsistent and is kept, round-off over 1 is clamped, and b_h_upper = (1 + r_q) b_s."""
    inconsistent = r_q > 1.0 + 1e-8
    if inconsistent.any():
        warnings.warn("quantumness ratio %.6g exceeds 1; F and U are inconsistent" % r_q.max())
        r_q = np.where(inconsistent, r_q, np.minimum(r_q, 1.0))
    else:
        r_q = np.minimum(r_q, 1.0)
    b_h_upper = (1.0 + r_q) * b_s
    return BoundChain(*(numkit.float_or_stack(x) for x in (b_s, b_r, b_h_mid, b_h_upper, r_q)))


def _chain2(f_sld, u, finv_r, weight):
    """(b_s, b_r, b_h_mid, unclamped r_q) of (..., 2, 2) stacks: :func:`_chain_columns` of their
    entries, the points that fail the certificate with their own matrices."""
    if not f_sld.shape == u.shape == finv_r.shape:
        f_sld, u, finv_r = np.broadcast_arrays(f_sld, u, finv_r)
    if f_sld.ndim == 2:  # one matrix: the member of a stack of one
        return [col[0] for col in _chain2(f_sld[None], u[None], finv_r[None], weight)]
    re, im = finv_r.real, finv_r.imag
    return _chain_columns(
        f_sld[..., 0, 0], f_sld[..., 1, 1], f_sld[..., 0, 1] + f_sld[..., 1, 0], u[..., 0, 1] - u[..., 1, 0],
        re[..., 0, 0], re[..., 1, 1], re[..., 0, 1], im[..., 0, 1] - im[..., 1, 0],
        weight, lambda bad: (f_sld[bad], u[bad], finv_r[bad]),
    )


def _chain_columns(f00, f11, f01, u01, r00, r11, r01, i01, weight, generic):
    """(b_s, b_r, b_h_mid, unclamped r_q) in closed form from (K,) columns: f00, f11, f01 = f_01 +
    f_10 of F_S, u01 = u_01 - u_10 of U, r00, r11, r01 of Re F_R^-1 and i01 = i_01 - i_10 of Im
    F_R^-1 (the differences drop a symmetric part, as numkit.trace_abs does).

    With F_S = tr [[p, q], [q, s]] read by the certificate of :func:`numkit._spd2`
    (trace-scaled, det = ps - q^2, f = 1 / (det tr), so F_S^-1 = f [[s, -q], [-q, p]]),
    d = det F_S = det tr^2, an antisymmetric U with entry u01 and W's root sqrt(W):

        b_s     = Tr(W F_S^-1)
        b_h_mid = b_s + 2 sqrt(det W) |u01| / d = b_s + sqrt(det W) (|u01 - u10| / tr) f
        r_q     = |u01| / sqrt(d) = (|u01 - u10| / tr) / (2 sqrt(det))
        b_r     = Tr(W Re F_R^-1) + sqrt(det W) |Im (F_R^-1)_01 - Im (F_R^-1)_10|

    as sqrt(W) X sqrt(W) = det(sqrt W) x01 J for an antisymmetric X = x01 J, and
    F_S^-1 U F_S^-1 = u01 det(F_S^-1) J.  Every term is read from the trace-scaled matrix,
    so none over- or underflows before F_S^-1 itself: det(F_S^-1) alone overflows from
    gamma t of about 350.  Points that fail the certificate (zero, rank-deficient,
    indefinite or non-finite F_S) take :func:`_chain_generic` of the matrices (F_S, U,
    F_R^-1) = generic(bad) of that subset only.
    """
    w = _weight2(weight)
    b_r = _trace_w(w, r00, r01, r11) + _root_det(w, np.abs(i01))
    with np.errstate(all="ignore"):  # only a point that fails the certificate meets an error
        ok, (s, nq, p), f, det, tr = numkit._spd2(f00, f11, f01)
        b_s = _trace_w(w, s * f, nq * f, p * f)  # Tr(W F_S^-1)
        ua = np.abs(u01) / tr
        b_h_mid = b_s + _root_det(w, ua * f)
        r_q = 0.5 * ua / np.sqrt(det)
    columns = [b_s, b_r, b_h_mid, r_q]
    if np.count_nonzero(ok) < ok.size:
        bad = ~ok
        for col, x in zip(columns, _chain_generic(*generic(bad), weight)):
            col[bad] = x
    return columns


def _chain_generic(f_sld, u, finv_r, weight):
    """(b_s, b_r, b_h_mid, unclamped r_q) of (..., p, p) stacks from the pseudo-inverse and
    PSD root of F_S (:func:`numkit.pinv_psd`) and the trace norms of the module docstring.
    Without a weight no product with the identity is formed; a weight's root comes from
    :func:`weight_root`."""
    finv_s, root_finv_s = numkit.pinv_psd(f_sld)
    if weight is None:  # W = sqrt(W) = I, whose products would change no finite entry
        w_s, w_r = finv_s, finv_r.real
        inner_r, inner_u = finv_r.imag, finv_s @ u @ finv_s
    else:
        W = np.asarray(weight, dtype=float)
        sw = weight_root(W, f_sld.shape[-1])
        w_s, w_r = W @ finv_s, W @ finv_r.real
        inner_r, inner_u = sw @ finv_r.imag @ sw, sw @ finv_s @ u @ finv_s @ sw
    # one stacked call for both trace norms, of sw Im F_R^-1 sw and of sw F_S^-1 U F_S^-1 sw
    tn_r, tn_u = numkit.trace_abs(np.array([inner_r, inner_u]))
    b_s = w_s.trace(axis1=-2, axis2=-1)
    return b_s, w_r.trace(axis1=-2, axis2=-1) + tn_r, b_s + tn_u, _quantumness(root_finv_s, u)


def _trace_w(w, x00, x01, x11):
    """Tr(W X) of the symmetric 2x2 matrices X = [[x00, x01], [x01, x11]] from their entries;
    w is :func:`_weight2`'s, None for the identity."""
    if w is None:
        return x00 + x11
    w00, w_off, w11, _ = w
    t = w00 * x00 + w11 * x11
    return t + w_off * x01 if w_off else t  # a diagonal W reads no x01, as I does not


def _root_det(w, x):
    """x times det(sqrt W) = sqrt(det W), of :func:`_weight2`'s w."""
    return x if w is None else w[3] * x


def _weight2(weight):
    """(W00, W01 + W10, W11, det sqrt(W)) of a 2x2 weight, checked by :func:`weight_root`;
    None for no weight."""
    if weight is None:
        return None
    sw = weight_root(weight, 2)
    (w00, w01), (w10, w11) = np.asarray(weight, dtype=float).tolist()
    return w00, w01 + w10, w11, abs(float(sw[0, 0] * sw[1, 1] - sw[0, 1] * sw[1, 0]))


@dataclass
class QfimReport:
    """All information matrices and scalar bounds of a model at one point (or a stack).

    f_rld is :func:`qfim_rld` of the evaluated model, formed on first read.
    """

    f_sld: np.ndarray
    u: np.ndarray
    b_s: float
    b_r: float
    b_h_mid: float
    b_h_upper: float
    r_q: float
    moments: PointMoments = field(repr=False, compare=False)

    @cached_property
    def f_rld(self) -> np.ndarray:
        return qfim_rld(self.moments)

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
    """Evaluate F_S, U and the scalar bound chain at one parameter point, and F_R when read.

    A stacked PointMoments gives a report of (K, p, p) matrices and (K,) bounds.
    """
    pt = evaluate(model, theta)
    f_s = qfim_sld(pt)
    u = incompatibility(pt)
    chain = bound_chain(f_s, u, rld_inverse=rld_inverse_limit(pt), weight=weight)
    return QfimReport(f_s, u, *chain, moments=pt)


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
        st = GaussianState._built(probe.d + shift, probe.V, probe.factor)
        if channel is not None:
            st = evolve(channel, st, t)
        return st

    eta = 1.0
    if channel is not None:
        eta = np.exp(-0.5 * channel.gamma[..., 0] * np.asarray(t, dtype=float))
    dd = np.zeros((2,) + np.broadcast_shapes(np.shape(eta), probe.d.shape[:-1]) + (2 * modes,))
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

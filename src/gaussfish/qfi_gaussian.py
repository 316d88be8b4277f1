"""Quantum Fisher information matrices and scalar bounds for Gaussian models.

A model is a map theta -> GaussianState.  All information quantities are
evaluated at the moment level:

    F^S_{mu nu} = 1/2 vec[dV_mu]^T Sigma^+ vec[dV_nu] + 2 dd_mu^T V^{-1} dd_nu
    F^R_{mu nu} = 1/2 vec[dV_mu]^T (M (x) M)^+ vec[dV_nu] + 2 dd_mu^T M^+ dd_nu
    U_{mu nu}   = vec[dV_mu]^T Sigma^+ (V (x) Omega) Sigma^+ vec[dV_nu]
                  + 2 dd_mu^T V^{-1} Omega V^{-1} dd_nu

with Sigma = V (x) V - Omega (x) Omega (the kron matrix of X -> VXV + Om X Om
under column-stacking vec) and M = V + i Omega, which is Hermitian PSD.

The information functions take either a model and a parameter point or the
:class:`PointMoments` that :func:`evaluate` returns for them, so one
evaluation of the state, its derivatives and the shared solves serves them
all.  When every dV is exactly zero (displacement families) the
second-moment terms vanish and are left out, kron solves included.

Scalar bounds for a weight matrix W (default identity):

    b_s        = Tr[W F_S^{-1}]
    b_r        = Tr[W Re F_R^{-1}] + TrAbs(sqrt(W) Im F_R^{-1} sqrt(W))
    b_h_mid    = b_s + TrAbs(sqrt(W) F_S^{-1} U F_S^{-1} sqrt(W))
    b_h_upper  = (1 + R_Q) b_s,   R_Q = || i F_S^{-1} U ||_inf in [0, 1]

and the chain max(b_s, b_r) <= b_h_mid <= b_h_upper <= 2 b_s holds pointwise.

When M is singular (pure states) the RLD information diverges in the
directions whose derivatives leave the range of M.  The correct limit of
F_R^{-1} is computed by projecting onto the parameter subspace that stays
inside the range; see :func:`rld_inverse_limit`.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import numkit
from .gaussian_core import (
    GaussianState,
    SymplecticOp,
    apply,
    displacement_op,
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
    differences with the given step are used.
    """

    state_fn: Callable[[np.ndarray], GaussianState]
    n_params: int
    d_derivs: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None
    v_derivs: Optional[Callable[[np.ndarray], Sequence[np.ndarray]]] = None
    step: float = DEFAULT_FD_STEP

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

    def fd_derivatives(self, theta, step: Optional[float] = None):
        """Symmetric finite differences of the moments (always numerical)."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        h = self.step if step is None else float(step)
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


def _inv_cov(V):
    """Inverse covariance; falls back to pinv (with a warning) if singular."""
    s = np.linalg.svd(V, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        warnings.warn("covariance is numerically singular; using pseudo-inverse")
        return numkit.pinv(V)
    return np.linalg.inv(V)


def _sigma_sld(V, Om):
    return numkit.kron(V, V) - numkit.kron(Om, Om)


class PointMoments:
    """A model evaluated at one parameter point, with the solves its
    information matrices share.

    The state, the moment derivatives and Omega are taken once; V^{-1},
    M = V + i Omega, M^+, Sigma^+ and (M (x) M)^+ are computed on first use
    and then reused.  has_dv is False when every dV is exactly zero: the
    second-moment terms then vanish and nothing needs the kron solves.
    """

    def __init__(self, st: GaussianState, dds, dVs, n_params: int):
        self.st = st
        self.dds = dds
        self.dVs = dVs
        self.n_params = n_params
        self.Om = omega(st.modes)
        self.has_dv = any(np.any(dV) for dV in dVs)

    @cached_property
    def v_inv(self) -> np.ndarray:
        return _inv_cov(self.st.V)

    @cached_property
    def M(self) -> np.ndarray:
        return self.st.V + 1j * self.Om

    @cached_property
    def m_pinv(self) -> np.ndarray:
        return numkit.pinv(self.M)

    @cached_property
    def vecs(self):
        return [numkit.vec(dV) for dV in self.dVs]

    @cached_property
    def sigma_pinv(self) -> np.ndarray:
        return numkit.pinv(_sigma_sld(self.st.V, self.Om))

    @cached_property
    def kron_m(self) -> np.ndarray:
        return numkit.kron(self.M, self.M)

    @cached_property
    def kron_m_pinv(self) -> np.ndarray:
        return numkit.pinv(self.kron_m)


def evaluate(model: GaussianModel | PointMoments, theta=None) -> PointMoments:
    """Evaluate a model once at theta; a PointMoments is returned unchanged."""
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
    pt = evaluate(model, theta)
    st = pt.st
    l2 = numkit.unvec(pt.sigma_pinv @ pt.vecs[mu])
    l2 = 0.5 * (l2 + l2.T)
    l1 = 2.0 * pt.v_inv @ pt.dds[mu] - 2.0 * l2 @ st.d
    l0 = -0.5 * float(np.trace(st.V @ l2)) - float(st.d @ l1) - float(st.d @ l2 @ st.d)
    return SldComponents(l0, l1, l2)


def rld_components(model: GaussianModel | PointMoments, theta, mu: int) -> RldComponents:
    """Moment expansion of the right logarithmic derivative.

    l2 solves M l2 M^T = dV with M = V + i Omega (pseudo-inverse solution when
    M is singular); l2 is complex and in general not symmetric.
    """
    pt = evaluate(model, theta)
    st = pt.st
    l2 = numkit.unvec(pt.kron_m_pinv @ pt.vecs[mu].astype(complex))
    l1 = 2.0 * pt.m_pinv @ pt.dds[mu] - 2.0 * l2 @ st.d
    l0 = -0.5 * complex(np.trace(st.V @ l2)) - complex(st.d @ l1) - complex(st.d @ l2 @ st.d)
    return RldComponents(l0, l1, l2)


def qfim_sld(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """SLD quantum Fisher information matrix (real symmetric)."""
    pt = evaluate(model, theta)
    dds, Vinv = pt.dds, pt.v_inv
    m = pt.n_params
    F = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            val = 2.0 * float(dds[i] @ Vinv @ dds[j])
            if pt.has_dv:
                val += 0.5 * float(pt.vecs[i] @ pt.sigma_pinv @ pt.vecs[j])
            F[i, j] = val
            F[j, i] = val
    return F


def qfim_rld(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """RLD quantum Fisher information matrix (complex Hermitian).

    Computed through pseudo-inverses, which silently regularizes directions
    where the true RLD information diverges (singular M); for bound evaluation
    on such models use :func:`rld_inverse_limit`.
    """
    pt = evaluate(model, theta)
    dds, M_p = pt.dds, pt.m_pinv
    m = pt.n_params
    F = np.zeros((m, m), dtype=complex)
    if pt.has_dv:
        vs = [v.astype(complex) for v in pt.vecs]
    for i in range(m):
        for j in range(m):
            F[i, j] = 2.0 * (dds[i] @ M_p @ dds[j])
            if pt.has_dv:
                F[i, j] += 0.5 * (np.conj(vs[i]) @ pt.kron_m_pinv @ vs[j])
    return numkit.hermitize(F)


def incompatibility(model: GaussianModel | PointMoments, theta=None) -> np.ndarray:
    """Mean Uhlmann-curvature-type matrix U (real antisymmetric).

    U = 0 iff the SLD bound is attainable without measurement incompatibility
    penalty; in general b_h_upper = (1 + R_Q) b_s with R_Q built from U.
    """
    pt = evaluate(model, theta)
    dds, Vinv = pt.dds, pt.v_inv
    VOV = Vinv @ pt.Om @ Vinv
    if pt.has_dv:
        sig_p = pt.sigma_pinv
        mid = sig_p @ numkit.kron(pt.st.V, pt.Om) @ sig_p
    m = pt.n_params
    U = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            U[i, j] = 2.0 * float(dds[i] @ VOV @ dds[j])
            if pt.has_dv:
                U[i, j] += float(pt.vecs[i] @ mid @ pt.vecs[j])
    return 0.5 * (U - U.T)


def quantumness(f_sld, u) -> float:
    """R_Q = largest |eigenvalue| of i F^{-1} U, the incompatibility ratio.

    Evaluated through the similarity-equivalent Hermitian matrix
    i F^{-1/2} U F^{-1/2}.  Values outside [0, 1] by more than 1e-8 indicate
    an inconsistent (F, U) pair and trigger a warning; round-off excursions
    are clamped.
    """
    f_sld = np.asarray(f_sld, dtype=float)
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        return 0.0
    s = numkit.sqrtm_psd(numkit.pinv(f_sld))
    h = numkit.hermitize(1j * (s @ u @ s))
    rq = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if rq > 1.0 + 1e-8:
        warnings.warn("quantumness ratio %.6g exceeds 1; F and U are inconsistent" % rq)
        return rq
    return min(rq, 1.0)


def rld_inverse_limit(model: GaussianModel | PointMoments, theta=None, f_rld=None) -> np.ndarray:
    """Limiting inverse of the RLD information matrix.

    For directions w whose moment derivatives leave the range of M = V + i Om
    (possible only when M is singular, e.g. pure states) the RLD information
    diverges, and the inverse must vanish on those directions.  Writing A for
    the stacked out-of-range components of the derivatives and Q for an
    orthonormal basis of ker A in parameter space, the limit is

        F_R^{-1} -> Q (Q^+ F_pinv Q)^{-1} Q^+

    which reduces to pinv(F_pinv) for regular models (A = 0, Q unitary).
    """
    pt = evaluate(model, theta)
    M = pt.M
    P_d = np.eye(M.shape[0], dtype=complex) - M @ pt.m_pinv
    cols = [P_d @ dd.astype(complex) for dd in pt.dds]
    if pt.has_dv:
        K = pt.kron_m
        P_v = np.eye(K.shape[0], dtype=complex) - K @ pt.kron_m_pinv
        cols = [np.concatenate([rd, P_v @ v.astype(complex)]) for rd, v in zip(cols, pt.vecs)]
    A = np.column_stack(cols)
    if f_rld is None:
        f_rld = qfim_rld(pt)
    _, s, vh = np.linalg.svd(A)
    cutoff = 1e-10 * max(1.0, s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    m = pt.n_params
    if rank == 0:
        return numkit.pinv(np.asarray(f_rld, dtype=complex))
    if rank == m:
        return np.zeros((m, m), dtype=complex)
    Q = np.conj(vh[rank:, :]).T  # orthonormal basis of ker A
    B = np.conj(Q.T) @ np.asarray(f_rld, dtype=complex) @ Q
    return Q @ numkit.pinv(B) @ np.conj(Q.T)


def bound_chain(f_sld, f_rld, u, weight=None, rld_inverse=None) -> BoundChain:
    """Scalar bound family for a weight matrix (identity by default).

    rld_inverse overrides the naive pinv(f_rld) - pass the output of
    :func:`rld_inverse_limit` for models with singular M (qfim_report does).
    """
    f_sld = np.asarray(f_sld, dtype=float)
    m = f_sld.shape[0]
    if weight is None:
        W = np.eye(m)
    else:
        W = np.asarray(weight, dtype=float)
        if W.shape != (m, m) or np.max(np.abs(W - W.T)) > 1e-10:
            raise ValueError("weight must be a symmetric matrix matching the QFIM")
        if not numkit.is_psd(W, tol=1e-10):
            raise ValueError("weight must be positive semidefinite")
    finv_s = numkit.pinv(f_sld)
    b_s = float(np.trace(W @ finv_s))
    if rld_inverse is None:
        finv_r = numkit.pinv(np.asarray(f_rld, dtype=complex))
    else:
        finv_r = np.asarray(rld_inverse, dtype=complex)
    sw = numkit.sqrtm_psd(W)
    b_r = float(np.trace(W @ finv_r.real)) + numkit.trace_abs(sw @ finv_r.imag @ sw)
    u = np.asarray(u, dtype=float)
    b_h_mid = b_s + numkit.trace_abs(sw @ finv_s @ u @ finv_s @ sw)
    r_q = quantumness(f_sld, u)
    b_h_upper = (1.0 + r_q) * b_s
    return BoundChain(b_s, b_r, b_h_mid, b_h_upper, r_q)


@dataclass
class QfimReport:
    """All information matrices and scalar bounds of a model at one point."""

    f_sld: np.ndarray
    f_rld: np.ndarray
    u: np.ndarray
    b_s: float
    b_r: float
    b_h_mid: float
    b_h_upper: float
    r_q: float
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]

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
    """Evaluate F_S, F_R, U and the scalar bound chain at one parameter point."""
    pt = evaluate(model, theta)
    f_s = qfim_sld(pt)
    f_r = qfim_rld(pt)
    u = incompatibility(pt)
    fr_inv = rld_inverse_limit(pt, f_rld=f_r)
    chain = bound_chain(f_s, f_r, u, weight=weight, rld_inverse=fr_inv)
    return QfimReport(
        f_sld=f_s,
        f_rld=f_r,
        u=u,
        b_s=chain.b_s,
        b_r=chain.b_r,
        b_h_mid=chain.b_h_mid,
        b_h_upper=chain.b_h_upper,
        r_q=chain.r_q,
        weight=weight,
    )


# ----------------------------------------------------------------------------
# built-in model families (analytic derivative hooks)
# ----------------------------------------------------------------------------


def displacement_model(
    probe: GaussianState,
    channel: Optional[NoisyChannel] = None,
    t: float = 0.0,
) -> GaussianModel:
    """Two displacement parameters on the first mode, then optional damping.

    theta = (theta1, theta2) shifts (Q1, P1) of the probe before the channel,
    so dd = e^{-gamma t / 2} (e1, e2) and dV = 0: the covariance carries no
    parameter dependence and the QFIM is purely first-moment.
    """
    modes = probe.modes
    if channel is not None and channel.modes != modes:
        raise ValueError("channel/probe mode mismatch")

    def state_fn(theta):
        st = apply(displacement_op(theta[0], theta[1], mode=0, modes=modes), probe)
        if channel is not None:
            st = evolve(channel, st, t)
        return st

    eta = 1.0 if channel is None else float(np.exp(-0.5 * channel.gamma[0] * t))
    e1 = np.zeros(2 * modes)
    e2 = np.zeros(2 * modes)
    e1[0] = eta
    e2[1] = eta
    zero = np.zeros((2 * modes, 2 * modes))
    return GaussianModel(
        state_fn,
        n_params=2,
        d_derivs=lambda theta: [e1, e2],
        v_derivs=lambda theta: [zero, zero],
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

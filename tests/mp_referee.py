"""A high-precision referee that only the tests use: the bounds of a scenario row evaluated in
mpmath from the config's own parameters, so that it measures the program's error in forming
V as well as in the information layer.

For the configured probe, channel and weight, at one value of the sweep axis, it builds

    V = y tau S2 S2^T + v (I_2 (x) V_inf),   D = e^(-gamma t / 2) (e1, e2),   M = V + i Omega,

with y = e^(-gamma t), v = 1 - y, tau = 2 n_th + 1, S2 the two-mode squeezer of r and phi and
V_inf the reservoir block of n_e and m_e (complex), and returns b_s, b_r, b_h_mid, r_q and
b_h_upper = (1 + r_q) b_s of F_S = 2 D V^-1 D^T, U = 2 D V^-1 Omega V^-1 D^T and
F_R = 2 D M^-1 D^T, and F_R itself as "f_r", a complex 2x2 array.  hdb is Tr(W F_C^-1) of the
EPR readout, F_C = dmu Sigma^-1 dmu^T with Sigma = S_r V S_r^T / 2 and dmu = D S_r^T, where S_r
holds the rows (1, 0, 1, 0) / sqrt2 and (0, -1, 0, 1) / sqrt2 of the 50:50 beam splitter that
its two homodynes record.  sql is the displaced vacuum's x Tr(W V1) / 2 (1 + det(V1)^-1/2),
with x = e^(gamma t) and V1 = y I + v V_inf.  The state must be mixed (M invertible), which
n_e > 0 and gamma t > 0 ensure, and dd nonzero.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np

from gaussfish.scenarios import ScenarioConfig, _probe_params

FIELDS = ("b_s", "b_r", "b_h_mid", "b_h_upper", "hdb", "r_q", "sql")


def _omega():
    om = mp.zeros(4, 4)
    om[0, 1] = om[2, 3] = 1
    om[1, 0] = om[3, 2] = -1
    return om


def _trace_w(W, X):
    """Tr(W X) of 2x2 matrices."""
    return sum(W[i, j] * X[j, i] for i in range(2) for j in range(2))


def referee_row(cfg: ScenarioConfig, value: float, dps=None) -> dict:
    """The FIELDS of cfg at the axis value, at dps digits (by default 30 plus
    about 0.9 r, as V's entries of size e^2r cancel against its small eigenvalue)."""
    c = replace(cfg, **{cfg.axis: value})
    r, n_th, _ = _probe_params(c)
    dps = dps or 30 + math.ceil(0.9 * r)
    with mp.workdps(dps):
        r, phi, n_th, gamma, t, n_e = (mp.mpf(float(x)) for x in (r, c.phi, n_th, c.gamma, c.t, c.n_e))
        m = mp.mpc(complex(c.m_e))
        ch, sh, cp, sp = mp.cosh(r), mp.sinh(r), mp.cos(phi), mp.sin(phi)
        S = mp.matrix([[ch, 0, sh * cp, sh * sp], [0, ch, sh * sp, -sh * cp],
                       [sh * cp, sh * sp, ch, 0], [sh * sp, -sh * cp, 0, ch]])
        y, v, eps = mp.exp(-gamma * t), -mp.expm1(-gamma * t), 2 * n_e + 1
        V_inf = mp.matrix([[eps + m.real, m.imag], [m.imag, eps - m.real]])
        V = y * (2 * n_th + 1) * S * S.T
        for k in (0, 2):
            for i in range(2):
                for j in range(2):
                    V[k + i, k + j] += v * V_inf[i, j]
        eta = mp.exp(-gamma * t / 2)
        D = mp.matrix([[eta, 0, 0, 0], [0, eta, 0, 0]])
        om = _omega()
        Vi = mp.inverse(V)
        f_s = 2 * D * Vi * D.T
        u01 = (2 * D * Vi * om * Vi * D.T)[0, 1]
        f_r = 2 * D * mp.inverse(V + mp.mpc(0, 1) * om) * D.T
        f_s_inv, f_r_inv = mp.inverse(f_s), mp.inverse(f_r)
        W = mp.matrix(c.weight_matrix().tolist())
        root_det_w = mp.sqrt(mp.det(W))
        x01 = (f_s_inv * mp.matrix([[0, u01], [-u01, 0]]) * f_s_inv)[0, 1]
        b_s = _trace_w(W, f_s_inv)
        b_r = sum(W[i, j] * f_r_inv[j, i].real for i in range(2) for j in range(2))
        b_r += 2 * abs(f_r_inv[0, 1].imag) * root_det_w
        r_q = abs(u01) / mp.sqrt(mp.det(f_s))
        S_r = mp.matrix([[1, 0, 1, 0], [0, -1, 0, 1]]) / mp.sqrt(2)
        dmu = D * S_r.T
        f_c_inv = mp.inverse(dmu * mp.inverse(S_r * V * S_r.T / 2) * dmu.T)
        V1 = y * mp.eye(2) + v * V_inf
        return {
            "b_s": float(b_s),
            "b_r": float(b_r),
            "b_h_mid": float(b_s + 2 * abs(x01) * root_det_w),
            "b_h_upper": float((1 + r_q) * b_s),
            "hdb": float(_trace_w(W, f_c_inv)),
            "r_q": float(r_q),
            "sql": float(mp.exp(gamma * t) * _trace_w(W, V1) / 2 * (1 + 1 / mp.sqrt(mp.det(V1)))),
            "f_r": np.array([[complex(f_r[i, j]) for j in range(2)] for i in range(2)]),
        }

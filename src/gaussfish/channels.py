"""Single-mode thermal/squeezed reservoir damping, applied mode-by-mode.

Each mode i relaxes toward a stationary covariance block V_inf(i) at rate
gamma_i:

    d(t) = G(t) d(0)
    V(t) = G(t) V(0) G(t) + (1 - e^{-gamma_i t}) V_inf   (per-mode factors)
    G(t) = direct sum of e^{-gamma_i t / 2} I_2

with the stationary block set by the reservoir occupation n_e and squeezing
m_e (complex):

    V_inf = [[2 n_e + 1 + Re m_e, Im m_e], [Im m_e, 2 n_e + 1 - Re m_e]]

Physicality of the reservoir requires |m_e|^2 <= n_e (n_e + 1).

A stack of K channels holds (K, modes) parameter arrays, and :func:`evolve`
takes a stack of times (K,) and a stack of states: its leading axes
broadcast, so one call evolves a whole grid.  A channel the same on every
mode keeps a state's eigen-factor in closed form (:func:`damp_factor`), with
or without a squeezed reservoir.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .gaussian_core import GaussianState


@dataclass
class NoisyChannel:
    gamma: np.ndarray
    n_e: np.ndarray
    m_e: np.ndarray

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        self.n_e = np.atleast_1d(np.asarray(self.n_e, dtype=float))
        self.m_e = np.atleast_1d(np.asarray(self.m_e, dtype=complex))
        if not (self.gamma.shape == self.n_e.shape == self.m_e.shape):
            raise ValueError("per-mode parameter arrays must have equal length")
        n_e = np.maximum(self.n_e, 0.0)  # a negative n_e fails below, and takes no root
        # |m_e| <= (n_e (n_e + 1))^1/2 by roots, which cannot overflow; slack 1e-12 on |m_e|^2
        over = np.abs(self.m_e) > np.sqrt(n_e) * np.sqrt(n_e + 1.0) * (1.0 + 5e-13)
        if ((self.gamma < 0) | (self.n_e < 0) | over).any():  # one test; a NaN passes it
            if np.any(self.gamma < 0):
                raise ValueError("damping rates must be >= 0")
            if np.any(self.n_e < 0):
                raise ValueError("reservoir occupations must be >= 0")
            raise ValueError("reservoir squeezing violates |m_e|^2 <= n_e(n_e+1)")

    @property
    def modes(self) -> int:
        return self.gamma.shape[-1]

    @classmethod
    def uniform(cls, modes: int, gamma, n_e, m_e=0.0) -> "NoisyChannel":
        """The same reservoir on every mode; array parameters give a stack of channels."""
        shape = np.broadcast(gamma, n_e, m_e).shape + (modes,)
        return cls(
            np.full(shape, np.asarray(gamma)[..., None], dtype=float),
            np.full(shape, np.asarray(n_e)[..., None], dtype=float),
            np.full(shape, np.asarray(m_e)[..., None], dtype=complex),
        )


def diffusion_matrix(ch: NoisyChannel) -> np.ndarray:
    """Direct sum of the stationary reservoir blocks."""
    out = np.zeros(ch.n_e.shape[:-1] + (2 * ch.modes, 2 * ch.modes))
    tau, re, im = 2.0 * ch.n_e + 1.0, ch.m_e.real, ch.m_e.imag
    for i in range(ch.modes):
        q, p = 2 * i, 2 * i + 1
        out[..., q, q] = tau[..., i] + re[..., i]
        out[..., p, p] = tau[..., i] - re[..., i]
        out[..., q, p] = out[..., p, q] = im[..., i]
    return out


def damping(ch: NoisyChannel, t):
    """(e^{-gamma t / 2}, 1 - e^{-gamma t}) per mode, (..., modes), at a time t >= 0 (a float,
    or an array of times that broadcasts with the channel's stack); a negative t raises
    ValueError."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("t must be >= 0")
    rate = ch.gamma * t[..., None]
    return np.exp(-0.5 * rate), -np.expm1(-rate)


def keeps_factor(ch: NoisyChannel) -> bool:
    """Whether the channel is uniform: gamma, n_e and m_e equal across modes at every stack
    point.  Such a channel keeps a state's eigen-factor (:func:`damp_factor`)."""
    g, n, m = ch.gamma, ch.n_e, ch.m_e
    return bool((g == g[..., :1]).all() and (n == n[..., :1]).all() and (m == m[..., :1]).all())


def damp_factor(factor, root_y, v, ch: NoisyChannel):
    """The eigen-factor (O, lam, delta) (:class:`GaussianState`) after a uniform channel.

    root_y and v are :func:`damping`'s, (..., modes), and the channel's parameters are read
    in their first column, as they are the same on every mode (:func:`keeps_factor`).  With
    y = root_y^2, eps = 2 n_e + 1 and each mode's lam = (a, b), nu = sqrt(a b) and
    delta = nu^2 - 1:

    Where m_e = 0, O is kept, lam -> y lam + v eps and delta goes to

        y^2 delta + y v (eps (sqrt a - sqrt b)^2 + 2 (eps - 1) nu + 2 delta / (nu + 1))
        + v^2 (eps^2 - 1).

    Otherwise each mode's block of O^T V O is K = y diag(a, b) + v B', with
    B' = [[p, q], [q, s]] the reservoir block V_inf in the mode's axes: the columns of O
    for a mode are those of the probe's O (:func:`gaussfish.gaussian_core._eigenbasis`)
    turned by a rotation, so B' = eps I plus V_inf's traceless part turned, and O^T V O
    has no block between modes.  K is rotated to its axes by the closed-form 2x2 rotation Q,
    O -> O diag(Q_0, Q_1) (one O per point), and lam -> (L, det K / L) in the order of K's
    diagonal, L = tr K / 2 + ((k00 - k11)^2 / 4 + k01^2)^1/2 and
    det K = y^2 (1 + delta) + y v (a s + b p) + v^2 det B'.  delta goes to

        y^2 delta + v^2 d + y v ((sqrt(a s) - sqrt(b p))^2
        + 2 (delta + (1 + delta) (d + q^2)) / (nu sqrt(p s) + 1)),

    d = det B' - 1 = 4 n_e (1 + n_e) - |m_e|^2, the one subtraction, which the channel's
    bound on |m_e| keeps near 3 n_e (1 + n_e) or above.

    Either way delta is a sum of nonnegative terms, so a mode stays pure exactly where
    delta is 0 and its digits near purity are kept.
    """
    O, lam, delta = factor
    y, v, n_e = root_y[..., :1] ** 2, v[..., :1], ch.n_e[..., :1]
    eps, root = 2.0 * n_e + 1.0, np.sqrt(lam)
    nu = root[..., 0::2] * root[..., 1::2]
    if not ch.m_e.any():
        inner = eps * (root[..., 0::2] - root[..., 1::2]) ** 2 + 4.0 * n_e * nu + 2.0 * delta / (nu + 1.0)
        delta = y * (y * delta + v * inner) + 4.0 * v * v * n_e * (1.0 + n_e)
        return O, y * lam + v * eps, delta
    a, b, m_e = lam[..., 0::2], lam[..., 1::2], ch.m_e[..., :1]
    # V_inf's traceless part Z(m) = [[Re m, Im m], [Im m, -Re m]] in each mode's axes, from the
    # complex rows w = O[2j] + i O[2j+1]: u^T Z(m) u' = Re(conj(m) w_u w_u'), summed over modes j
    w = O[..., 0::2, :] + 1j * O[..., 1::2, :]
    w0, w1 = w[..., 0::2], w[..., 1::2]  # (..., j, k): the two columns of each mode k
    m_bar = np.conj(m_e)
    x = (0.5 * m_bar * (w0 * w0 - w1 * w1).sum(axis=-2)).real
    q = (m_bar * (w0 * w1).sum(axis=-2)).real
    p, s = eps + x, eps - x
    d = 4.0 * n_e * (1.0 + n_e) - (m_e * m_bar).real  # det B' - 1
    k00, k11, k01 = y * a + v * p, y * b + v * s, v * q
    half = 0.5 * (k00 - k11)
    h = np.hypot(half, k01)
    big = 0.5 * (k00 + k11) + h
    small = (y * y * (1.0 + delta) + y * v * (a * s + b * p) + v * v * (1.0 + d)) / big
    root_p, root_s = np.sqrt(p), np.sqrt(s)
    inner = (root[..., 0::2] * root_s - root[..., 1::2] * root_p) ** 2
    inner += 2.0 * (delta + (1.0 + delta) * (d + q * q)) / (nu * root_p * root_s + 1.0)
    delta = y * (y * delta + v * inner) + v * v * d
    # Q = [[c, -sn], [sn, c]]: its first column is K's eigenvector nearest the first axis, for
    # L where k00 >= k11, else for det K / L
    flip = half < 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.sqrt(0.5 + 0.5 * np.abs(half) / h)
        sn = np.where(flip, -k01, k01) / (2.0 * h * c)
    c, sn = np.where(h > 0.0, c, 1.0), np.where(h > 0.0, sn, 0.0)
    lam = np.empty(big.shape[:-1] + (4,))
    lam[..., 0::2], lam[..., 1::2] = np.where(flip, small, big), np.where(flip, big, small)
    c, sn = c[..., None, :], sn[..., None, :]
    O0, O1 = O[..., 0::2], O[..., 1::2]
    O = np.empty(lam.shape[:-1] + (4, 4))
    O[..., 0::2], O[..., 1::2] = c * O0 + sn * O1, c * O1 - sn * O0
    return O, lam, delta


def evolve(ch: NoisyChannel, state: GaussianState, t) -> GaussianState:
    """Damp the state for a time t >= 0 (a float, or an array of times).

    A state's eigen-factor (O, lam, delta) is kept through a uniform channel
    (:func:`keeps_factor`), still in Williamson form (:class:`GaussianState`), by
    :func:`damp_factor`: with m_e = 0 O is kept and V -> O diag(y lam + v eps) O^T, with
    y = e^{-gamma t}, v = 1 - y and eps = 2 n_e + 1; a squeezed reservoir turns each mode's
    axes, one O per point.  Any other channel drops it.  The dense V = G V G + v V_inf is
    formed either way.
    """
    if ch.modes != state.modes:
        raise ValueError("channel acts on %d modes, state has %d" % (ch.modes, state.modes))
    root_y, v = damping(ch, t)
    g = np.repeat(root_y, 2, axis=-1)  # diagonal of G(t)
    relax = np.repeat(v, 2, axis=-1)  # v = 1 - e^{-gamma t} per row of the block-diagonal V_inf
    V = numkit.hermitize(g[..., :, None] * state.V * g[..., None, :] + relax[..., :, None] * diffusion_matrix(ch))
    keep = state.factor is not None and keeps_factor(ch)
    return GaussianState._built(g * state.d, V, damp_factor(state.factor, root_y, v, ch) if keep else None)

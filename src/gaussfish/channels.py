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
broadcast, so one call evolves a whole grid.
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
        if np.any(self.gamma < 0):
            raise ValueError("damping rates must be >= 0")
        if np.any(self.n_e < 0):
            raise ValueError("reservoir occupations must be >= 0")
        bound = self.n_e * (self.n_e + 1.0)
        if np.any(np.abs(self.m_e) ** 2 > bound + 1e-12):
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
    """Whether G and V_inf are multiples of the identity at every stack point: m_e = 0, with
    gamma and n_e equal across modes.  Such a channel keeps a state's eigen-factor."""
    if ch.m_e.any():
        return False
    return bool((ch.gamma == ch.gamma[..., :1]).all() and (ch.n_e == ch.n_e[..., :1]).all())


def damp_factor(lam, delta, root_y, v, n_e):
    """(lam, delta) of an eigen-factor (:class:`GaussianState`) after a channel that keeps it.

    root_y and v are :func:`damping`'s, and n_e the channel's, each (..., modes) and read
    in its first column, as the channel is the same on every mode (:func:`keeps_factor`).
    With y = root_y^2 and eps = 2 n_e + 1, lam -> y lam + v eps, and each mode's
    delta = nu^2 - 1 (lam = (a, b), nu = sqrt(a b)) goes to

        y^2 delta + y v (eps (sqrt a - sqrt b)^2 + 2 (eps - 1) nu + 2 delta / (nu + 1))
        + v^2 (eps^2 - 1),

    a sum of nonnegative terms, so a mode stays pure exactly where delta is 0 and its
    digits near purity are kept.
    """
    y, v, n_e = root_y[..., :1] ** 2, v[..., :1], n_e[..., :1]
    eps, root = 2.0 * n_e + 1.0, np.sqrt(lam)
    nu = root[..., 0::2] * root[..., 1::2]
    inner = eps * (root[..., 0::2] - root[..., 1::2]) ** 2 + 4.0 * n_e * nu + 2.0 * delta / (nu + 1.0)
    delta = y * (y * delta + v * inner) + 4.0 * v * v * n_e * (1.0 + n_e)
    return y * lam + v * eps, delta


def evolve(ch: NoisyChannel, state: GaussianState, t) -> GaussianState:
    """Damp the state for a time t >= 0 (a float, or an array of times).

    A state's eigen-factor (O, lam, delta) is kept where the channel allows it
    (:func:`keeps_factor`): V -> O diag(y lam + v eps) O^T, still in Williamson form
    (:class:`GaussianState`), with y = e^{-gamma t}, v = 1 - y and eps = 2 n_e + 1, and
    delta updated by :func:`damp_factor`.  Any other channel drops it.

    Where the factor is kept, the dense V = G V G + v V_inf is deferred to its first read
    (:class:`GaussianState`), which reads the parent's V and the channel then; the formula
    is the one an eager V takes, so the bits are the same.  Any other channel forms V at once.
    """
    if ch.modes != state.modes:
        raise ValueError("channel acts on %d modes, state has %d" % (ch.modes, state.modes))
    root_y, v = damping(ch, t)
    g = np.repeat(root_y, 2, axis=-1)  # diagonal of G(t)
    relax = np.repeat(v, 2, axis=-1)  # v = 1 - e^{-gamma t} per row of the block-diagonal V_inf

    def V():
        return numkit.hermitize(g[..., :, None] * state.V * g[..., None, :] + relax[..., :, None] * diffusion_matrix(ch))

    factor = None
    if state.factor is not None and keeps_factor(ch):
        O, lam, delta = state.factor
        factor = (O,) + damp_factor(lam, delta, root_y, v, ch.n_e)
    return GaussianState._built(g * state.d, V if factor is not None else V(), factor)

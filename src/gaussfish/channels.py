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


def evolve(ch: NoisyChannel, state: GaussianState, t) -> GaussianState:
    """Damp the state for a time t >= 0 (a float, or an array of times)."""
    if ch.modes != state.modes:
        raise ValueError("channel acts on %d modes, state has %d" % (ch.modes, state.modes))
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("t must be >= 0")
    rate = ch.gamma * t[..., None]
    g = np.repeat(np.exp(-0.5 * rate), 2, axis=-1)  # diagonal of G(t)
    relax = np.repeat(1.0 - np.exp(-rate), 2, axis=-1)  # per row of the block-diagonal V_inf
    V = g[..., :, None] * state.V * g[..., None, :] + relax[..., :, None] * diffusion_matrix(ch)
    return GaussianState(g * state.d, V)

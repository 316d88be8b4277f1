"""Gaussian states, symplectic operations and phase-space functions.

Conventions (hbar = 2):
    quadratures   Q = a + a{dag},  P = i(a{dag} - a),  [Q, P] = 2i
    ordering      (Q1, P1, Q2, P2, ..., QN, PN)
    vacuum        V = identity, d = 0
    symplectic    d -> S d + shift,  V -> S V S^T,  with S Omega S^T = Omega

The single-mode symplectic form is omega = [[0, 1], [-1, 0]] and the N-mode
form is the direct sum; Omega^T = -Omega and Omega^2 = -1.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import numkit

_OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Symmetry and symplecticity tolerance, relative to the matrix scale: max(1, max|V|)
# for an asymmetry of V, max(1, max|S|)^2 for the defect of S Omega S^T = Omega.
_SYM_TOL = 1e-10


def omega(modes: int) -> np.ndarray:
    """Symplectic form for the given number of modes."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    out = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _OMEGA_1
    return out


@dataclass
class GaussianState:
    """First moments d (length 2N) and covariance V (2N x 2N, symmetric).

    A stack of K states has d of shape (K, 2N) and V of shape (K, 2N, 2N);
    :func:`apply` and :func:`gaussfish.channels.evolve` act on each member.
    """

    d: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if self.V.ndim <= 2:
            self.d = self.d.reshape(-1)
        n = self.d.shape[-1]
        if n < 2 or n % 2 != 0:
            raise ValueError("first-moment vector must have even length >= 2")
        if self.V.shape != self.d.shape + (n,):
            raise ValueError("covariance shape %s does not match d" % (self.V.shape,))
        Vt = self.V.swapaxes(-1, -2)
        axes = (-2, -1)
        asym = np.abs(self.V - Vt).max(axis=axes)
        if (asym > _SYM_TOL * np.maximum(1.0, np.abs(self.V).max(axis=axes))).any():
            raise ValueError("covariance is not symmetric (max asymmetry %.3e)" % asym.max())
        self.V = 0.5 * (self.V + Vt)

    @property
    def modes(self) -> int:
        return self.d.shape[-1] // 2

    def physical(self, tol: float = 1e-8) -> bool:
        """Uncertainty relation V + i Omega >= 0."""
        return numkit.is_psd(self.V + 1j * omega(self.modes), tol=tol)

    def require_physical(self, tol: float = 1e-8) -> "GaussianState":
        if not self.physical(tol=tol):
            raise ValueError("state violates V + i Omega >= 0")
        return self


@dataclass
class SymplecticOp:
    """Affine phase-space map d -> S d + shift, V -> S V S^T."""

    S: np.ndarray
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        n = self.S.shape[0]
        if self.S.shape != (n, n) or n % 2 != 0:
            raise ValueError("S must be square with even dimension")
        if self.shift is None:
            self.shift = np.zeros(n)
        self.shift = np.asarray(self.shift, dtype=float).reshape(-1)
        if self.shift.size != n:
            raise ValueError("shift length does not match S")
        om = omega(n // 2)
        defect = np.max(np.abs(self.S @ om @ self.S.T - om))
        if defect > _SYM_TOL * max(1.0, np.max(np.abs(self.S))) ** 2:
            raise ValueError("matrix is not symplectic (defect %.3e)" % defect)

    @property
    def modes(self) -> int:
        return self.S.shape[0] // 2


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    if op.modes != state.modes:
        raise ValueError("mode count mismatch between operation and state")
    d = (op.S @ state.d[..., None])[..., 0] + op.shift
    return GaussianState(d, op.S @ state.V @ op.S.T)


def compose(outer: SymplecticOp, inner: SymplecticOp) -> SymplecticOp:
    """The map applying `inner` first, then `outer`."""
    if outer.modes != inner.modes:
        raise ValueError("mode count mismatch")
    return SymplecticOp(outer.S @ inner.S, outer.S @ inner.shift + outer.shift)


# ----------------------------------------------------------------------------
# state constructors
# ----------------------------------------------------------------------------


def vacuum(modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * modes), np.eye(2 * modes))


def thermal(n_th: float, modes: int = 1) -> GaussianState:
    """Thermal state with mean occupation n_th in every mode; V = (2 n_th + 1) I."""
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    return GaussianState(np.zeros(2 * modes), (2.0 * n_th + 1.0) * np.eye(2 * modes))


def coherent(q: float, p: float) -> GaussianState:
    """Single-mode coherent state: vacuum covariance, mean (q, p)."""
    return GaussianState(np.array([q, p], dtype=float), np.eye(2))


def squeezed_vacuum(r: float, modes: int = 1) -> GaussianState:
    """Per-mode V = diag(e^{-2r}, e^{2r}); Q is squeezed for r > 0."""
    block = np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)])
    V = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        V[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return GaussianState(np.zeros(2 * modes), V)


# ----------------------------------------------------------------------------
# symplectic building blocks
# ----------------------------------------------------------------------------


def rotation(phi: float) -> SymplecticOp:
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticOp(np.array([[c, s], [-s, c]]))


def single_mode_squeezer(r: float) -> SymplecticOp:
    return SymplecticOp(np.diag([np.exp(-r), np.exp(r)]))


def _two_mode(blocks) -> np.ndarray:
    """4x4 matrix from its 2x2 blocks [[a, b], [c, d]] (np.block, without its overhead)."""
    out = np.empty((4, 4))
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = b
    return out


def _reflection(phi: float) -> np.ndarray:
    # det = -1, R^2 = 1, R omega R = -omega
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


def two_mode_squeezer(r: float, phi: float = 0.0) -> SymplecticOp:
    """Two-mode squeezer with reflection-type off-diagonal block.

    S = [[cosh r * I, sinh r * R_phi], [sinh r * R_phi, cosh r * I]] with
    R_phi = [[cos phi, sin phi], [sin phi, -cos phi]].  Acting on vacuum it
    produces the EPR covariance [[cosh 2r I, sinh 2r R], [sinh 2r R, cosh 2r I]].
    """
    ch, sh = np.cosh(r), np.sinh(r)
    R = _reflection(phi)
    I2 = np.eye(2)
    return SymplecticOp(_two_mode([[ch * I2, sh * R], [sh * R, ch * I2]]))


def beam_splitter_5050() -> SymplecticOp:
    I2 = np.eye(2)
    return SymplecticOp(_two_mode([[I2, I2], [-I2, I2]]) / np.sqrt(2.0))


def displacement_op(theta1: float, theta2: float, mode: int = 0, modes: int = 1) -> SymplecticOp:
    """Shift (Q, P) of one mode by (theta1, theta2); identity on V."""
    if not 0 <= mode < modes:
        raise ValueError("mode index %d out of range for %d modes" % (mode, modes))
    shift = np.zeros(2 * modes)
    shift[2 * mode] = theta1
    shift[2 * mode + 1] = theta2
    return SymplecticOp(np.eye(2 * modes), shift)


def probe_tmsdt(r, phi, q1, p1, q2, p2, n_th) -> GaussianState:
    """Two-mode squeezed displaced thermal probe.

    A two-mode thermal state (occupation n_th per mode) is displaced by
    (q1, p1, q2, p2) and then two-mode squeezed with S2(r, phi), so
    d = S2 (q1, p1, q2, p2)^T and V = (2 n_th + 1) S2 S2^T.
    """
    sq = two_mode_squeezer(r, phi)
    alpha = np.array([q1, p1, q2, p2], dtype=float)
    tau = 2.0 * float(n_th) + 1.0
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    return GaussianState(sq.S @ alpha, tau * (sq.S @ sq.S.T))


# ----------------------------------------------------------------------------
# scalar functionals
# ----------------------------------------------------------------------------


def purity(state: GaussianState) -> float:
    """mu = 1/sqrt(det V), in (0, 1]."""
    det = float(np.linalg.det(state.V))
    if det < 1.0 - 1e-10:
        raise ValueError("det V = %.12g < 1: state is unphysical" % det)
    return 1.0 / np.sqrt(det)


def wigner_at(state: GaussianState, point) -> float:
    """Wigner function at a phase-space point (unit integral, vacuum peak 1/pi^N)."""
    point = np.asarray(point, dtype=float).reshape(-1)
    if point.size != state.d.size:
        raise ValueError("point dimension mismatch")
    delta = point - state.d
    det = float(np.linalg.det(state.V))
    expo = -float(delta @ np.linalg.solve(state.V, delta))
    return float(np.exp(expo) / (np.pi ** state.modes * np.sqrt(det)))


def char_fn_at(state: GaussianState, xi) -> complex:
    """Characteristic function chi(xi) = exp(-xi~^T V xi~ / 4 + i xi~^T d), xi~ = Omega xi."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size != state.d.size:
        raise ValueError("argument dimension mismatch")
    xt = omega(state.modes) @ xi
    return complex(np.exp(-0.25 * (xt @ state.V @ xt) + 1j * (xt @ state.d)))


DuanResult = namedtuple("DuanResult", ["inseparable", "lhs", "rhs"])


def duan_criterion(state: GaussianState, a: float) -> DuanResult:
    """Duan-Giedke-Cirac-Zoller sufficiency test for two-mode inseparability.

    Uses u = |a| Q1 + Q2/a and v = |a| P1 - P2/a.  The state is flagged
    inseparable iff Var(u) + Var(v) < a^2 + 1/a^2 strictly (variances in the
    convention where the vacuum value of each term is 1).
    """
    if state.modes != 2:
        raise ValueError("Duan criterion is defined for two-mode states")
    a = float(a)
    if a == 0.0:
        raise ValueError("a must be nonzero")
    wu = np.array([abs(a), 0.0, 1.0 / a, 0.0])
    wv = np.array([0.0, abs(a), 0.0, -1.0 / a])
    lhs = 0.5 * float(wu @ state.V @ wu + wv @ state.V @ wv)
    rhs = a * a + 1.0 / (a * a)
    return DuanResult(bool(lhs < rhs), lhs, rhs)

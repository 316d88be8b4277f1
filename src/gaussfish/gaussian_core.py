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
from functools import lru_cache
from typing import Optional

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

    factor is None, or the eigen-factor (O, lam, delta) with V = O diag(lam) O^T in
    Williamson form: O orthogonal and symplectic (2N x 2N, or one per member of a stack)
    and lam (..., 2N) positive, so each pair (lam_2k, lam_2k+1) is one mode squeezed along
    its axes and nu_k = sqrt(lam_2k lam_2k+1) are the symplectic eigenvalues of V; delta
    (..., N) holds nu_k^2 - 1, carried as a sum of nonnegative terms, so that a mode is
    pure exactly where delta_k == 0 and nu - 1 keeps its digits near purity.  It keeps
    a small eigenvalue that the dense V loses at strong squeezing.  Only
    :func:`probe_tmsdt` sets it, with O of :func:`_eigenbasis`;
    :func:`gaussfish.channels.evolve` keeps it through a channel the same on every mode,
    turning each mode's axes by a rotation where the reservoir is squeezed, and so do the
    displacement model's states.  The public constructor, :func:`apply` and every other
    operation give None.  A scenario sweep reads the factor alone and builds no state
    (:mod:`gaussfish.scenarios`).
    """

    d: np.ndarray
    V: np.ndarray
    factor: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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

    @classmethod
    def _built(cls, d, V, factor=None) -> "GaussianState":
        """A state from float moments the program built, not re-checked: V must be symmetric."""
        st = cls.__new__(cls)
        st.d, st.V, st.factor = d, V, factor
        return st

    @property
    def modes(self) -> int:
        return self.d.shape[-1] // 2

    def physical(self, tol: float = 1e-8) -> bool:
        """Uncertainty relation V + i Omega >= 0; a stack is physical iff every member is."""
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
    return GaussianState._built(d, numkit.hermitize(op.S @ state.V @ op.S.T))


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
    """(..., 4, 4) stack of blocks [[a, b], [c, d]] shaped like a; np.block minus its overhead."""
    out = np.empty(np.shape(blocks[0][0])[:-2] + (4, 4))
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            out[..., 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = b
    return out


def _reflection(phi: float) -> np.ndarray:
    # det = -1, R^2 = 1, R omega R = -omega
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


@lru_cache(maxsize=64)
def _eigenbasis(phi: float) -> np.ndarray:
    """The orthogonal symplectic O with (2 n_th + 1) S2 S2^T = O diag(lam) O^T for every r (:func:`probe_tmsdt`).

    O = [[R, R], [R, -R]] / sqrt 2, R the rotation by phi/2, whose columns
    f+ = (cos phi/2, sin phi/2) and f- = (-sin phi/2, cos phi/2) are the eigenvectors
    of R_phi for +1 and -1: O's columns are (f+, f+), (f-, f-), (f+, -f+) and (f-, -f-),
    each over sqrt 2, for the eigenvalues tau (e^2r, e^-2r, e^-2r, e^2r).
    """
    c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
    O = np.array([[c, -s, c, -s], [s, c, s, c], [c, -s, -c, s], [s, c, -s, -c]]) / np.sqrt(2.0)
    O.flags.writeable = False  # one cached array serves every caller
    return O


def _s2(r, phi: float) -> np.ndarray:
    """The matrix of :func:`two_mode_squeezer`; an array of r gives a (..., 4, 4) stack."""
    ch, sh = (np.asarray(f(r))[..., None, None] for f in (np.cosh, np.sinh))
    R = _reflection(phi)
    return _two_mode([[ch * np.eye(2), sh * R], [sh * R, ch * np.eye(2)]])


def two_mode_squeezer(r: float, phi: float = 0.0) -> SymplecticOp:
    """Two-mode squeezer with reflection-type off-diagonal block.

    S = [[cosh r * I, sinh r * R_phi], [sinh r * R_phi, cosh r * I]] with
    R_phi = [[cos phi, sin phi], [sin phi, -cos phi]].  Acting on vacuum it
    produces the EPR covariance [[cosh 2r I, sinh 2r R], [sinh 2r R, cosh 2r I]].
    """
    return SymplecticOp(_s2(r, phi))


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


def probe_factor(r, phi: float, n_th):
    """The eigen-factor (O, lam, delta) of :func:`probe_tmsdt`'s V, with no state built.

    O is fixed by phi (:func:`_eigenbasis`), lam = (2 n_th + 1) (e^2r, e^-2r, e^-2r, e^2r),
    so nu = (2 n_th + 1, 2 n_th + 1), and delta = nu^2 - 1 = 4 n_th (1 + n_th) per mode.
    Arrays of r and n_th broadcast to a stack; a negative n_th raises ValueError.
    """
    n_th = np.asarray(n_th, dtype=float)
    if (n_th < 0).any():
        raise ValueError("n_th must be >= 0")
    lam = (2.0 * n_th + 1.0)[..., None] * np.exp(np.multiply.outer(r, (2.0, -2.0, -2.0, 2.0)))
    delta = np.empty(lam.shape[:-1] + (2,))
    delta[...] = (4.0 * n_th * (1.0 + n_th))[..., None]
    return _eigenbasis(float(phi)), lam, delta  # a float key: a 0-d array is unhashable


def probe_tmsdt(r, phi, q1, p1, q2, p2, n_th) -> GaussianState:
    """Two-mode squeezed displaced thermal probe.

    A two-mode thermal state (occupation n_th per mode) is displaced by
    (q1, p1, q2, p2) and then two-mode squeezed with S2(r, phi), so
    d = S2 (q1, p1, q2, p2)^T and V = (2 n_th + 1) S2 S2^T.  Arrays of r and
    n_th broadcast to a stack of probes, one per element.  The state carries its
    eigen-factor (O, lam, delta) in Williamson form (:class:`GaussianState`) from
    :func:`probe_factor`.
    """
    factor = probe_factor(r, phi, n_th)
    S = _s2(r, phi)
    d = np.empty(factor[1].shape)
    d[...] = S @ np.array([q1, p1, q2, p2], dtype=float)
    tau = 2.0 * np.asarray(n_th, dtype=float) + 1.0
    return GaussianState._built(d, numkit.hermitize(tau[..., None, None] * (S @ S.swapaxes(-1, -2))), factor)


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

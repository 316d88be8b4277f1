"""Gaussian measurements: general-dyne outcome statistics and classical FI.

A measurement assigns one MeasureMode per mode.  General-dyne modes project
onto Gaussian states with measurement covariance

    V_m = R_phi diag(s, 1/s) R_phi^T      (rotation R_phi)

heterodyne is s = 1 (V_m = I), and ideal homodyne is the s -> 0 limit, which
records a single quadrature with no added noise.  Outcomes are Gaussian with

    mu = selected components of d,   Sigma = (A + V_m) / 2

where A is the corresponding submatrix of V; a homodyne row contributes the
scalar A/2.  A symplectic pre_op S between the state and the detectors
enters only through its recorded rows S_r = S[rows]: A = S_r V S_r^T.
Detector inefficiency modeled as loss before an ideal detector dresses
V_m -> e^{gamma t} V_m + (e^{gamma t} - 1) I (homodyne scalars gain
e^{gamma t} - 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .gaussian_core import GaussianState, SymplecticOp, beam_splitter_5050, rotation
from .numkit import hermitize, transpose
from .qfi_gaussian import GaussianModel, PointMoments, evaluate

_KINDS = ("general", "heterodyne", "homodyne_q", "homodyne_p")


@dataclass(frozen=True)
class MeasureMode:
    """Detection on one mode: general | heterodyne | homodyne_q | homodyne_p."""

    kind: str
    s: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown measurement kind %r" % (self.kind,))
        if self.kind == "general" and not self.s > 0:
            raise ValueError("squeezing parameter s must be positive")


@dataclass(frozen=True)
class GeneralDyne:
    """A tuple of per-mode measurements applied jointly."""

    modes: Tuple[MeasureMode, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("measurement needs at least one mode")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def outcome_dim(self) -> int:
        return sum(1 if m.kind.startswith("homodyne") else 2 for m in self.modes)


def measurement_cov(mode: MeasureMode) -> np.ndarray:
    """2x2 measurement covariance of a finite general-dyne mode."""
    if mode.kind == "heterodyne":
        return np.eye(2)
    if mode.kind == "general":
        R = rotation(mode.phi).S
        return R @ np.diag([mode.s, 1.0 / mode.s]) @ R.T
    raise ValueError("homodyne is the s -> 0 limit and has no finite covariance")


def dress_inefficient(m_cov: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Measurement covariance of a lossy detector (loss gamma for time t)."""
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be nonnegative")
    f = float(np.exp(gamma * t))
    m_cov = np.asarray(m_cov, dtype=float)
    return f * m_cov + (f - 1.0) * np.eye(m_cov.shape[0])


def _assemble(measurement: GeneralDyne, modes: int, dressing=None):
    """Selected phase-space rows and the stacked measurement covariance."""
    if measurement.n_modes != modes:
        raise ValueError(
            "measurement covers %d modes, state has %d" % (measurement.n_modes, modes)
        )
    rows = []
    blocks = []
    for i, m in enumerate(measurement.modes):
        if m.kind.startswith("homodyne"):
            rows.append(2 * i + (m.kind == "homodyne_p"))
            vm = np.zeros((1, 1))
        else:
            rows.extend((2 * i, 2 * i + 1))
            vm = measurement_cov(m)
        blocks.append(vm if dressing is None else dress_inefficient(vm, *dressing))
    k = len(rows)
    Vm = np.zeros((k, k))
    at = 0
    for b in blocks:
        n = b.shape[0]
        Vm[at : at + n, at : at + n] = b
        at += n
    return np.asarray(rows, dtype=int), Vm


def _recorded(measurement: GeneralDyne, modes: int, pre_op, dressing):
    """(rows, S_r, Vm): the recorded rows, their map from the state and the measurement covariance.

    S_r = pre_op.S[rows] is the part of the pre_op that reaches the
    detectors; without a pre_op it is the selection eye(2N)[rows].
    """
    rows, Vm = _assemble(measurement, modes, dressing)
    if pre_op is None:
        return rows, np.eye(2 * modes)[rows], Vm
    if pre_op.modes != modes:
        raise ValueError("mode count mismatch between operation and state")
    return rows, pre_op.S[rows], Vm


def _outcome_cov(state, S_r, Vm):
    """Sigma = (A + V_m) / 2 with A the symmetric part of S_r V S_r^T.

    A state that carries its eigen-factor V = O diag(lam) O^T takes A = B diag(lam) B^T
    with B = S_r O (:func:`rows_on_factor`): A keeps a squeezed quadrature that the dense V
    loses to rounding.
    """
    if state.factor is None:
        return 0.5 * (hermitize(S_r @ state.V @ S_r.T) + Vm)
    O, lam, _ = state.factor
    B = rows_on_factor(S_r, O)
    return 0.5 * (hermitize((B * lam[..., None, :]) @ transpose(B)) + Vm)


def rows_on_factor(S_r, O):
    """S_r O, summed from rounded products (einsum; BLAS may fuse them), so an entry that
    cancels exactly is 0 before lam multiplies it."""
    return np.einsum("ij,...jk->...ik", S_r, O)


def outcome_mean_cov(state: GaussianState, measurement: GeneralDyne, dressing=None):
    """Mean and covariance of the outcome distribution.

    A stacked state (d of shape (K, 2N)) gives stacks of means and covariances.
    """
    _, S_r, Vm = _recorded(measurement, state.modes, None, dressing)
    return state.d @ S_r.T, _outcome_cov(state, S_r, Vm)


def outcome_density(state: GaussianState, measurement: GeneralDyne, x, dressing=None) -> float:
    """Outcome probability density at the point x."""
    mu, Sigma = outcome_mean_cov(state, measurement, dressing)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != mu.size:
        raise ValueError("outcome has dimension %d, expected %d" % (x.size, mu.size))
    delta = x - mu
    k = mu.size
    norm = np.sqrt((2.0 * np.pi) ** k * np.linalg.det(Sigma))
    return float(np.exp(-0.5 * delta @ np.linalg.solve(Sigma, delta)) / norm)


def sample_outcomes(
    state: GaussianState,
    measurement: GeneralDyne,
    n: int,
    rng: np.random.Generator,
    dressing=None,
) -> np.ndarray:
    """Draw n outcome vectors, shape (n, outcome_dim)."""
    mu, Sigma = outcome_mean_cov(state, measurement, dressing)
    return rng.multivariate_normal(mu, Sigma, size=int(n))


def cfim_gaussian_outcomes(
    model: GaussianModel | PointMoments,
    measurement: GeneralDyne,
    theta=None,
    pre_op: Optional[SymplecticOp] = None,
    dressing=None,
) -> np.ndarray:
    """Classical Fisher information matrix of the outcome distribution.

    F = dmu^T Sigma^{-1} dmu + Tr[Sigma^{-1} dSigma Sigma^{-1} dSigma] / 2,
    made exactly symmetric, with an optional symplectic pre_op applied between the model
    state and the detectors (its shift drops out of the derivatives).  Only the
    recorded rows are formed: with S_r = pre_op.S[rows], Sigma =
    (S_r V S_r^T + V_m) / 2 (:func:`_outcome_cov`, from the state's eigen-factor
    where it carries one), dmu = dd S_r^T and dSigma = S_r dV S_r^T / 2, with the trace
    term only when some dV is nonzero.  Sigma^-1 is LAPACK's inv, which raises
    LinAlgError for a singular Sigma.  model is a
    GaussianModel evaluated at theta, or a PointMoments from
    :func:`gaussfish.qfi_gaussian.evaluate`; a stacked PointMoments gives a
    (K, p, p) stack of matrices.
    """
    pt = evaluate(model, theta)
    _, S_r, Vm = _recorded(measurement, pt.st.modes, pre_op, dressing)
    Sinv = np.linalg.inv(_outcome_cov(pt.st, S_r, Vm))
    dmus = pt.dds @ S_r.T
    F = dmus @ Sinv @ transpose(dmus)
    if not pt.dV_zero:
        X = Sinv[..., None, :, :] @ (0.5 * (S_r @ pt.dVs @ S_r.T))  # Sigma^-1 dSigma_mu
        # Tr[X_j X_k] is the dot product of X_j and X_k^T, each flattened
        flat = X.reshape(X.shape[:-2] + (-1,))
        F = F + 0.5 * flat @ transpose(transpose(X).reshape(flat.shape))
    return 0.5 * (F + transpose(F))


@functools.lru_cache(maxsize=None)
def epr_readout() -> Tuple[SymplecticOp, GeneralDyne]:
    """Balanced beam splitter followed by Q homodyne on one output, P on the other.

    On a two-mode squeezed input with the right phase, both recorded
    quadratures are squeezed combinations, which is what makes this readout
    competitive for joint displacement sensing.  Built once; every call returns the
    same pair.
    """
    gd = GeneralDyne((MeasureMode("homodyne_q"), MeasureMode("homodyne_p")))
    return beam_splitter_5050(), gd

"""Joint displacement sensing through a thermal lossy channel: sweeps.

The reference scenario: a two-mode probe (squeezed and/or displaced, vacuum
or thermal), an unknown displacement (theta1, theta2) on mode 1, then both
modes decay for time t at rate gamma into an environment with n_e excitations.
The readout benchmark is a balanced beam splitter followed by double homodyne
(Q on one arm, P on the other).

For each grid point the sweep reports the scalar bound family

    b_s <= b_h_mid <= b_h_upper,   b_r,   r_q,

the double-homodyne bound hdb = Tr[W F_C^{-1}], and the coherent-probe
benchmark sql (the b_h_upper of the displaced-vacuum probe under the same
channel, :func:`_coherent_bound`), all for the weight W (identity by default).

A sweep is one stacked evaluation of its grid (:func:`_evaluate`).  The channel is the
same on both modes, so it keeps the probe's eigen-factor, with or without a squeezed
reservoir, and the columns are read from the factor (O, lam, delta) alone
(:func:`_factored_columns`): no GaussianState, GaussianModel or PointMoments is built,
whose set-up was most of the cost of a one-point evaluation, and no matrix is inverted.
They are taken at unit dd and scaled by e^(gamma t) once.  The public library gives the
same unit-dd bits of the chain; hdb is read as a trace of the readout's outcome covariance,
Tr(dmu^-1 W dmu^-T Sigma), which equals the library's Tr(W F_C^-1) to rounding.

:func:`closed_form_bounds` gives every column of every probe family in closed
form, elementwise over arrays, for cross-checking the full pipeline; at m_e = 0 the sql
column is its displaced-vacuum b_h_upper.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .gaussian_core import GaussianState, _eigenbasis, probe_factor, probe_tmsdt
from .channels import NoisyChannel, damp_factor, damping
from .qfi_gaussian import factored_chain, first_moment_columns, weight_root
from .measurements import _recorded, epr_readout, rows_on_factor

PROBES = ("tmsv", "tmst", "tmdv", "tmdt")
_SQUEEZED = ("tmsv", "tmst")  # the probes that read r; the others read alpha
_THERMAL = ("tmst", "tmdt")  # the probes that read n_th
AXES = ("r", "t", "n_e", "n_th", "gamma")

SweepRow = namedtuple(
    "SweepRow",
    ["axis", "b_s", "b_r", "b_h_mid", "b_h_upper", "hdb", "r_q", "sql", "ok", "message"],
)
ClosedForm = namedtuple("ClosedForm", ["b_s", "b_r", "r_q", "b_h_upper", "b_h_mid", "hdb"])

CSV_HEADER = "axis,b_s,b_r,b_h_mid,b_h_upper,hdb,r_q,sql"
_CSV_ROW = ",".join(["%.17g"] * 8)  # the eight numeric fields of a SweepRow, in CSV_HEADER order
_NULL_FIELDS = dict.fromkeys(SweepRow._fields[1:8])  # a degraded row's NaN fields, as JSON null
# ScenarioConfig fields that hold numbers (weight only when given), with their shapes: each
# entry must be real and finite.
_NUMERIC_FIELDS = dict.fromkeys(
    ("r", "phi", "n_th", "gamma", "n_e", "m_e", "t", "start", "stop", "step"), ()
)
_NUMERIC_FIELDS.update(alpha=(4,), theta=(2,), weight=(2, 2))
_REAL_TYPES = (int, float, np.integer, np.floating)  # bool, an int subclass, is refused apart
# Largest sweep grid: a stacked sweep peaks at about 1 KB per point, its rows included (tracemalloc,
# 10,000-point t sweeps: 0.6 KB at m_e = 0, 1.0 KB behind a squeezed reservoir).
MAX_POINTS = 100_000


def _leaves(value) -> list:
    """The entries of a scalar, or of a (nested) list, tuple or array; a 0-d array is a scalar."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return [value[()]]
    if isinstance(value, (list, tuple, np.ndarray)):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _check_shape(name: str, value) -> None:
    """ValueError unless the ScenarioConfig field name holds its shape (_NUMERIC_FIELDS)."""
    shape = _NUMERIC_FIELDS[name]
    try:
        ok = np.shape(value) == shape
    except ValueError:  # a ragged nesting
        ok = False
    if not ok:
        what = "an array of shape %s" % (shape,) if shape else "a number"
        raise ValueError("%s must be %s" % (name, what))


@dataclass
class ScenarioConfig:
    """One sweep: a probe family, channel parameters, and a grid axis."""

    probe: str = "tmsv"
    r: float = 0.4
    phi: float = math.pi
    alpha: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    n_th: float = 0.0
    gamma: float = 1.0
    n_e: float = 0.5
    m_e: float = 0.0
    t: float = 0.2
    theta: Tuple[float, float] = (0.0, 0.0)
    axis: str = "r"
    start: float = 0.0
    stop: float = 1.4
    step: float = 0.1
    weight: Optional[Sequence[Sequence[float]]] = None
    threads: int = 1  # accepted and validated; sweeps run on one thread

    def validate(self) -> NoisyChannel:
        """Raise ValueError for an invalid config; else return the configured channel."""
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is None and name == "weight":
                continue
            for x in _leaves(value):
                if isinstance(x, bool) or not isinstance(x, _REAL_TYPES):
                    raise ValueError("%s must be a number or an array of numbers" % name)
                if not math.isfinite(x):
                    raise ValueError("%s must be finite" % name)
            _check_shape(name, value)
        if self.probe not in PROBES:
            raise ValueError("probe must be one of %s" % (PROBES,))
        if self.axis not in AXES:
            raise ValueError("axis must be one of %s" % (AXES,))
        try:
            channel = NoisyChannel.uniform(2, self.gamma, self.n_e, self.m_e)
        except ValueError as exc:
            raise ValueError("channel (gamma, n_e, m_e): %s" % exc) from None
        if self.n_th < 0:
            raise ValueError("n_th must be nonnegative")
        # a parameter that build_probe does not read for the probe may not be swept or set
        if (self.axis == "r" and self.probe not in _SQUEEZED) or (
            self.axis == "n_th" and self.probe not in _THERMAL
        ):
            raise ValueError("axis %s is ignored by probe %s" % (self.axis, self.probe))
        if self.probe in _SQUEEZED and any(self.alpha):
            raise ValueError("alpha must be zero for probe %s, which ignores it" % self.probe)
        if self.probe not in _THERMAL and self.n_th != 0:
            raise ValueError("n_th must be zero for probe %s, which ignores it" % self.probe)
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if not self.step > 0:
            raise ValueError("step must be positive")
        threads = self.threads
        if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
            raise ValueError("threads must be an integer of at least 1")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValueError("sweep range: (stop - start) / step is not finite")
        n = self.n_values()
        if n < 1:
            raise ValueError("empty sweep range")
        if n > MAX_POINTS:
            raise ValueError("sweep range: %d points exceed the cap of %d" % (n, MAX_POINTS))
        if self.weight is not None:
            weight_root(self.weight, 2)
        return channel

    def n_values(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    def axis_values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_values())

    def weight_matrix(self) -> np.ndarray:
        if self.weight is None:
            return np.eye(2)
        return np.asarray(self.weight, dtype=float)


def _probe_params(cfg: ScenarioConfig, r=None, n_th=None):
    """(r, n_th, alpha) as the configured probe reads them, by default cfg.r and cfg.n_th:
    0 for a parameter that the probe ignores."""
    if cfg.probe not in PROBES:
        raise ValueError("probe must be one of %s" % (PROBES,))
    r = (cfg.r if r is None else r) if cfg.probe in _SQUEEZED else 0.0
    n_th = (cfg.n_th if n_th is None else n_th) if cfg.probe in _THERMAL else 0.0
    alpha = (0.0,) * 4 if cfg.probe in _SQUEEZED else cfg.alpha
    return r, n_th, alpha


def build_probe(cfg: ScenarioConfig, r=None, n_th=None) -> GaussianState:
    """The configured probe at r and n_th (arrays give a stack), by default cfg.r and cfg.n_th."""
    r, n_th, alpha = _probe_params(cfg, r, n_th)
    return probe_tmsdt(r, cfg.phi, *alpha, n_th)


def closed_form_bounds(probe: str, r, n_th, gamma, t, n_e, phi=math.pi, weight=None) -> ClosedForm:
    """Every column of a probe's row in closed form, elementwise over array arguments.

    The channel keeps each probe in the standard form V = [[a I, c Z], [c Z^T, a I]],
    a = y tau cosh 2r + v eps and c = y tau sinh 2r, in y = e^(-gamma t), v = 1 - y,
    tau = 1 + 2 n_th and eps = 1 + 2 n_e; r counts only for tmsv and tmst, n_th only
    for tmst and tmdt.  With x = 1 / y, kappa = a^2 - c^2 - 1 and the weight W:
    b_s = (Tr W / 2) x (1 + kappa) / a, b_h_mid = b_s + sqrt(det W) x (1 + kappa) / a^2,
    r_q = 1 / a, b_h_upper = (1 + r_q) b_s, hdb = Tr W x (a + c cos phi) and
    b_r = x k (a Tr W / 2 + sqrt(det W)) with k = kappa / (a^2 - 1), 1 at a = 1.
    kappa and a - 1 are sums of nonnegative terms, so nothing cancels near purity.
    """
    if probe not in PROBES:
        raise ValueError("probe must be one of %s" % (PROBES,))
    r = r if probe in _SQUEEZED else 0.0
    n_th = n_th if probe in _THERMAL else 0.0
    W = np.eye(2) if weight is None else np.asarray(weight, dtype=float)
    b_s, b_h_upper, terms = _standard_form(r, n_th, gamma, t, n_e, W)
    x, y, v, tau, eps, a_1, a, kappa, half_tr = terms
    root_det = math.sqrt(max(0.0, W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]))
    # divided one factor at a time: a_1 (a + 1) and a^2 overflow from r of about 177, and k
    # alone underflows (tmst at t = 0 from r of about 187), so b_r takes (a Tr W / 2 + ...) / a_1
    a_w = a * half_tr + root_det
    a_w_over_a_1 = np.divide(a_w, a_1, out=np.ones(np.shape(a_w)), where=a_1 > 0.0)
    b_r = x * np.where(a_1 > 0.0, kappa / (a + 1.0) * a_w_over_a_1, a_w)
    b_h_mid = b_s + root_det * x * ((1.0 + kappa) / a) / a
    # a + c cos phi = y tau (e^(-2r) + 2 sinh 2r cos^2(phi/2)) + v eps, free of cancellation
    a_phi = y * tau * (np.exp(-2.0 * r) + 2.0 * np.sinh(2.0 * r) * np.cos(0.5 * phi) ** 2) + v * eps
    hdb = 2.0 * half_tr * x * a_phi
    return ClosedForm(b_s, b_r, 1.0 / a, b_h_upper, b_h_mid, hdb)


def _standard_form(r, n_th, gamma, t, n_e, W):
    """b_s, b_h_upper and the standard-form terms of :func:`closed_form_bounds` at the weight W."""
    gt = np.multiply(gamma, t)
    x, y, v = np.exp(gt), np.exp(-gt), -np.expm1(-gt)
    tau, eps, sh2 = 1.0 + 2.0 * n_th, 1.0 + 2.0 * n_e, np.sinh(r) ** 2
    a_1 = 2.0 * (y * (n_th + tau * sh2) + v * n_e)  # a - 1
    a = 1.0 + a_1
    kappa = 4.0 * (
        y * y * n_th * (1.0 + n_th)
        + v * y * (n_e + n_th + 2.0 * n_e * n_th + eps * tau * sh2)
        + v * v * n_e * (1.0 + n_e)
    )
    half_tr = 0.5 * (W[0, 0] + W[1, 1])
    b_s = half_tr * x * (1.0 + kappa) / a
    return b_s, (1.0 + 1.0 / a) * b_s, (x, y, v, tau, eps, a_1, a, kappa, half_tr)


def _coherent_bound(gamma, t, n_e, m_e, W):
    """sql: the displaced vacuum's b_h_upper through the channel, x Tr(W V1) / 2 (1 + det(V1)^-1/2).

    V1 = y I + v V_inf = a I + v Z is each mode's covariance, with Z = [[Re m_e, Im m_e],
    [Im m_e, -Re m_e]] the reservoir's squeezing (:mod:`gaussfish.channels`), so
    Tr(W V1) = a Tr W + v Tr(W Z) and det V1 = a^2 (1 - (v |m_e| / a)^2), where
    v |m_e| / a < 1/2 by the channel's bound on |m_e|.  At m_e = 0 this is
    :func:`closed_form_bounds`' tmdv b_h_upper, which is returned without the m_e terms.
    """
    b_s, b_h_upper, (x, _, v, *_, a, _, _) = _standard_form(0.0, 0.0, gamma, t, n_e, W)
    if m_e == 0:  # the terms below are exactly 0; skipping them keeps a run_point call cheap
        return b_h_upper
    m = complex(m_e)
    b_s = b_s + 0.5 * x * v * (m.real * (W[0, 0] - W[1, 1]) + m.imag * (W[0, 1] + W[1, 0]))
    return (1.0 + 1.0 / a / np.sqrt(1.0 - (v * abs(m) / a) ** 2)) * b_s


# Failures a layer raises for a point outside its domain; such a point degrades alone.
NUMERICAL_ERRORS = (ValueError, np.linalg.LinAlgError)

# Rounding allowance of the chain max(b_s, b_r) <= b_h_mid <= b_h_upper <= 2 b_s, relative to
# b_s (about 4500 eps).  Its links come from 2x2 closed forms, and on the reference grids
# no link is exceeded by more than 7.4e-16 b_s; a row whose b_r is wrong exceeds it by 6e-9
# b_s and more (the m_e = 0.2 r grids from r = 10.3, when a dense V served them).
CHAIN_TOL = 1e-12
# The links of the chain, by name: rows 1..4 of _evaluate's columns (b_s, b_r, b_h_mid,
# b_h_upper) may not exceed _CHAIN_BOUND times the rows _CHAIN_OVER.
_CHAIN_LINKS = ("b_s > b_h_mid", "b_r > b_h_mid", "b_h_mid > b_h_upper", "b_h_upper > 2 b_s")
_CHAIN_OVER, _CHAIN_BOUND = np.array([3, 3, 4, 1]), np.array([[1.0], [1.0], [1.0], [2.0]])


def _on_axis(cfg: ScenarioConfig, values: np.ndarray, *names: str) -> list:
    """Each named parameter: the grid values on the sweep axis, else the configured value."""
    return [values if cfg.axis == name else getattr(cfg, name) for name in names]


def _evaluate(cfg: ScenarioConfig, values: np.ndarray, ch=None) -> np.ndarray:
    """The (8, K) row columns at the K axis values, from one stacked evaluation per layer.

    The channel is ch (one stacked NoisyChannel if None or on a gamma or n_e axis), and t
    spans the grid, so an axis that the probe ignores still gives one point per value.  The
    stack takes :func:`_factored_columns`, which builds no state or model and inverts no
    matrix, at unit dd: dd = e^(-gamma t / 2) (e1, e2) scales F_S, U, F_R and F_C by
    e^(-gamma t), so every bound but r_q is multiplied by x = e^(gamma t) here (sql carries
    x already).  What a layer raises for the stack propagates; an overflow leaves a
    non-finite entry, in b_s from gamma t of about 709.8.
    """
    r, n_th, gamma, n_e, t = _on_axis(cfg, values, "r", "n_th", "gamma", "n_e", "t")
    t = np.full(values.shape, t)
    if ch is None or cfg.axis in ("gamma", "n_e"):
        ch = NoisyChannel.uniform(2, gamma, n_e, cfg.m_e)
    chain, hdb = _factored_columns(cfg, r, n_th, ch, t)
    sql = _coherent_bound(gamma, t, n_e, cfg.m_e, cfg.weight_matrix())
    columns = np.array((values, chain.b_s, chain.b_r, chain.b_h_mid, chain.b_h_upper, hdb, chain.r_q, sql))
    columns[1:6] *= np.exp(np.multiply(gamma, t))  # b_s .. hdb
    return columns


def _factored_columns(cfg: ScenarioConfig, r, n_th, ch: NoisyChannel, t):
    """(bound chain, hdb) at the unit dd (e1, e2) from the probe's eigen-factor (O, lam, delta)
    alone.  ch is uniform (:meth:`NoisyChannel.uniform`), so it keeps the factor
    (:func:`damp_factor`).

    The chain is that of the public library bit for bit (qfim_report of a PointMoments of the
    probe's evolved state with dd (e1, e2) and dV = 0): the probe factor and its damping come
    from the helpers that :func:`probe_tmsdt` and :func:`evolve` call, and F_S, U, the limiting
    F_R^-1 and the chain stay (K,) columns of the closed form that PointMoments.solved packs
    as matrices (:func:`first_moment_columns`, :func:`factored_chain`).  One unit dd serves
    every point, unbroadcast.

    hdb = Tr(W F_C^-1) of the EPR readout, F_C = dmu Sigma^-1 dmu^T, takes no inverse: its
    two recorded outcomes give a 2x2 invertible dmu, so F_C^-1 = dmu^-T Sigma dmu^-1 and
    hdb = Tr(W_C Sigma) with W_C = dmu^-1 W dmu^-T.  Two homodynes add no measurement noise,
    so Sigma = B diag(lam) B^T / 2 with B = S_r O (:func:`rows_on_factor`), and hdb is
    sum_j lam_j b_j^T (W_C / 2) b_j over the columns b_j of B: nonnegative terms, with an
    exact 0 for a direction the readout does not see, however large its lam_j.  The 1/2 is
    taken into W_C before the sum, which would overflow first (tmst, phi = 1, r = 354).  O is
    the probe's, shared by the stack, where m_e = 0, and one per point otherwise, which
    S_r O then follows.
    """
    r, n_th, _ = _probe_params(cfg, r, n_th)
    O, lam, _ = factor = damp_factor(probe_factor(r, cfg.phi, n_th), *damping(ch, t), ch)
    chain = factored_chain(first_moment_columns(_UNIT_DD, factor), cfg.weight)
    B, w_c = _readout(float(cfg.phi), cfg.weight_matrix().tobytes())
    if O.ndim > 2:
        B = rows_on_factor(_S_R, O)
    return chain, (lam * (B * (w_c @ B)).sum(axis=-2)).sum(axis=-1)


_UNIT_DD = np.eye(2, 4)  # dd = (e1, e2): the derivatives of an undamped shift of (Q1, P1)
# The EPR readout's recorded rows S_r (:func:`epr_readout`) and the inverse of its 2x2
# dmu = dd S_r^T at the unit dd (det -1/2), which does not depend on phi: formed once.
_S_R = _recorded(epr_readout()[1], 2, epr_readout()[0], None)[1]
_DMU_INV = np.linalg.inv(_UNIT_DD @ _S_R.T)
_S_R.flags.writeable = _DMU_INV.flags.writeable = False


@lru_cache(maxsize=64)
def _readout(phi: float, w_bytes: bytes):
    """(S_r O, W_C / 2): the EPR readout's recorded rows on the probe basis O of phi
    (:func:`rows_on_factor`) and dmu^-1 W dmu^-T / 2 of the weight W whose float64 bytes are
    w_bytes, built once per (phi, W).  Read-only, as one cached pair serves every caller."""
    B = rows_on_factor(_S_R, _eigenbasis(phi))
    w_c = 0.5 * (_DMU_INV @ np.frombuffer(w_bytes).reshape(2, 2) @ _DMU_INV.T)
    B.flags.writeable = w_c.flags.writeable = False
    return B, w_c


def _rows(cfg: ScenarioConfig, values: np.ndarray, ch=None) -> list:
    """The rows at the axis values, from one evaluation of the stack with numpy errors ignored.

    A row with a non-finite column becomes NaN with an "overflow" message, and a row that
    breaks the chain (:func:`_broken_links`) NaN with a "chain broken" message naming the
    first link it breaks.  If a layer raises NUMERICAL_ERRORS, each half of the stack is
    evaluated the same way, down to single points that keep the layer's message: at most
    2K - 1 evaluations.
    """
    try:
        with np.errstate(all="ignore"):
            columns = _evaluate(cfg, values, ch)
            broken = _broken_links(columns)
    except NUMERICAL_ERRORS as exc:
        if len(values) == 1:
            return [SweepRow(float(values[0]), *[math.nan] * 7, False, str(exc))]
        half = len(values) // 2
        return _rows(cfg, values[:half], ch) + _rows(cfg, values[half:], ch)
    tail, make = [True, ""], SweepRow._make
    rows = [make(row + tail) for row in columns.T.tolist()]
    if broken.any():
        for i in np.flatnonzero(broken.any(axis=0)):
            link = _CHAIN_LINKS[broken[:, i].argmax()]
            rows[i] = SweepRow(rows[i].axis, *[math.nan] * 7, False, "chain broken: %s" % link)
    for i in np.flatnonzero(~np.isfinite(columns).all(axis=0)):
        bad = SweepRow._fields[np.isfinite(columns[:, i]).argmin()]  # the first non-finite column
        rows[i] = SweepRow(rows[i].axis, *[math.nan] * 7, False, "overflow: %s is not finite" % bad)
    return rows


def _broken_links(columns: np.ndarray) -> np.ndarray:
    """(4, K): where each link of the chain (_CHAIN_LINKS) in :func:`_evaluate`'s columns is
    exceeded by more than CHAIN_TOL b_s.  A non-finite row breaks no link; it degrades as an
    overflow."""
    return columns[1:5] - _CHAIN_BOUND * columns[_CHAIN_OVER] > CHAIN_TOL * columns[1]


def run_point(cfg: ScenarioConfig, axis_value: float) -> SweepRow:
    """Every reported quantity at one grid point: the row of a one-point grid (:func:`_rows`).

    The config is not validated, but a theta or alpha of the wrong shape raises validate's
    ValueError.  A numerical failure becomes a NaN row carrying its message; any other
    exception is a bug and propagates.
    """
    _check_shape("alpha", cfg.alpha)
    _check_shape("theta", cfg.theta)
    return _rows(cfg, np.array([float(axis_value)]))[0]


def sweep(cfg: ScenarioConfig) -> list:
    """Run the configured sweep: the rows of :func:`_rows` on the whole grid, in grid order.

    A failing point degrades alone, so the only ValueError raised is cfg.validate()'s
    for an invalid config.  cfg.threads is validated but has no effect.
    """
    ch = cfg.validate()
    return _rows(cfg, cfg.axis_values(), ch)


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV with a fixed header; floats at full precision, '\\n' newlines."""
    lines = [CSV_HEADER]
    lines.extend(_CSV_ROW % row[:8] for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[SweepRow], cfg: Optional[ScenarioConfig] = None) -> str:
    """The rows, and the config if given, as JSON; a degraded row's NaN fields are null."""
    out = {
        "schema": 1,
        "rows": [(row if row.ok else row._replace(**_NULL_FIELDS))._asdict() for row in rows],
    }
    if cfg is not None:
        d = dict(cfg.__dict__)
        if d["weight"] is not None:  # as floats, so a weight of ints reads 2.0, not 2
            d["weight"] = np.asarray(d["weight"], dtype=float).tolist()
        out["config"] = d
    return json.dumps(out, indent=2, sort_keys=True, allow_nan=False, default=_numpy_to_json) + "\n"


def _numpy_to_json(x):
    """The Python value of a numpy scalar or array, which validate accepts in a config."""
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)

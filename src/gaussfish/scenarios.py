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
channel), all for the weight W (identity by default).

:func:`closed_form_bounds` gives every column of every probe family in closed
form, elementwise over arrays, for cross-checking the full pipeline; the sql
column is its displaced-vacuum b_h_upper.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numkit
from .gaussian_core import GaussianState, probe_tmsdt
from .channels import NoisyChannel
from .qfi_gaussian import displacement_model, evaluate, qfim_report, weight_root
from .measurements import cfim_gaussian_outcomes, epr_readout

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
# ScenarioConfig fields that hold numbers (weight only when given), with their shapes: each
# entry must be real and finite.
_NUMERIC_FIELDS = dict.fromkeys(
    ("r", "phi", "n_th", "gamma", "n_e", "m_e", "t", "start", "stop", "step"), ()
)
_NUMERIC_FIELDS.update(alpha=(4,), theta=(2,), weight=(2, 2))
_REAL_TYPES = (int, float, np.integer, np.floating)  # bool, an int subclass, is refused apart
# Largest sweep grid: a stacked sweep holds about 3 KB per point.
MAX_POINTS = 100_000


def _leaves(value) -> list:
    """The entries of a scalar, or of a (nested) list, tuple or array."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [x for v in value for x in _leaves(v)]
    return [value]


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

    def validate(self) -> None:
        for name, shape in _NUMERIC_FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "weight":
                continue
            for x in _leaves(value):
                if isinstance(x, bool) or not isinstance(x, _REAL_TYPES):
                    raise ValueError("%s must be a number or an array of numbers" % name)
                if not math.isfinite(x):
                    raise ValueError("%s must be finite" % name)
            try:
                ok = np.shape(value) == shape
            except ValueError:  # a ragged nesting
                ok = False
            if not ok:
                what = "an array of shape %s" % (shape,) if shape else "a number"
                raise ValueError("%s must be %s" % (name, what))
        if self.probe not in PROBES:
            raise ValueError("probe must be one of %s" % (PROBES,))
        if self.axis not in AXES:
            raise ValueError("axis must be one of %s" % (AXES,))
        try:
            NoisyChannel.uniform(2, self.gamma, self.n_e, self.m_e)
        except ValueError as exc:
            raise ValueError("channel (gamma, n_e, m_e): %s" % exc) from None
        if self.n_th < 0:
            raise ValueError("n_th must be nonnegative")
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

    def n_values(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    def axis_values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_values())

    def weight_matrix(self) -> np.ndarray:
        if self.weight is None:
            return np.eye(2)
        return np.asarray(self.weight, dtype=float)


def build_probe(cfg: ScenarioConfig, r=None, n_th=None) -> GaussianState:
    """The configured probe at r and n_th (arrays give a stack), by default cfg.r and cfg.n_th."""
    if cfg.probe not in PROBES:
        raise ValueError("probe must be one of %s" % (PROBES,))
    r = (cfg.r if r is None else r) if cfg.probe in _SQUEEZED else 0.0
    n_th = (cfg.n_th if n_th is None else n_th) if cfg.probe in _THERMAL else 0.0
    alpha = (0.0,) * 4 if cfg.probe in _SQUEEZED else cfg.alpha
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
    k = np.divide(kappa, a_1 * (a + 1.0), out=np.ones(np.shape(kappa)), where=a_1 > 0.0)
    W = np.eye(2) if weight is None else np.asarray(weight, dtype=float)
    half_tr = 0.5 * (W[0, 0] + W[1, 1])
    root_det = math.sqrt(max(0.0, W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]))
    b_s = half_tr * x * (1.0 + kappa) / a
    r_q = 1.0 / a
    b_h_mid = b_s + root_det * x * (1.0 + kappa) / (a * a)
    # a + c cos phi = y tau (e^(-2r) + 2 sinh 2r cos^2(phi/2)) + v eps, free of cancellation
    a_phi = y * tau * (np.exp(-2.0 * r) + 2.0 * np.sinh(2.0 * r) * np.cos(0.5 * phi) ** 2) + v * eps
    hdb = 2.0 * half_tr * x * a_phi
    return ClosedForm(b_s, x * k * (a * half_tr + root_det), r_q, (1.0 + r_q) * b_s, b_h_mid, hdb)


# Failures a layer raises for a point outside its domain; such a point degrades alone.
NUMERICAL_ERRORS = (ValueError, np.linalg.LinAlgError)


def _on_axis(cfg: ScenarioConfig, values: np.ndarray, *names: str) -> list:
    """Each named parameter: the grid values on the sweep axis, else the configured value."""
    return [values if cfg.axis == name else getattr(cfg, name) for name in names]


def _evaluate(cfg: ScenarioConfig, values: np.ndarray) -> np.ndarray:
    """The (8, K) row columns at the K axis values, from one stacked evaluation per layer.

    The probe is one :func:`probe_tmsdt` call on the grid's r and n_th, the channel one
    stacked NoisyChannel and the decay one :func:`gaussfish.channels.evolve` call on a t
    that spans the grid, so an axis that the probe ignores still gives one point per value.
    What a layer raises for the stack propagates; an overflow leaves a non-finite entry.
    """
    r, n_th, gamma, n_e, t = _on_axis(cfg, values, "r", "n_th", "gamma", "n_e", "t")
    t = np.full(values.shape, t)
    ch = NoisyChannel.uniform(2, gamma, n_e, cfg.m_e)
    pt = evaluate(displacement_model(build_probe(cfg, r, n_th), ch, t), cfg.theta)
    rep = qfim_report(pt, weight=cfg.weight)
    pre, gd = epr_readout()
    F_C = cfim_gaussian_outcomes(pt, gd, pre_op=pre)
    hdb = (cfg.weight_matrix() @ numkit.pinv_psd(F_C)[0]).trace(axis1=-2, axis2=-1)
    sql = closed_form_bounds("tmdv", 0.0, 0.0, gamma, t, n_e, weight=cfg.weight).b_h_upper
    return np.array((values, rep.b_s, rep.b_r, rep.b_h_mid, rep.b_h_upper, hdb, rep.r_q, sql))


def _rows(cfg: ScenarioConfig, values: np.ndarray) -> list:
    """The rows at the axis values, from one evaluation of the stack with numpy errors ignored.

    A row with a non-finite column becomes NaN with an "overflow" message.  If a layer
    raises NUMERICAL_ERRORS, each half of the stack is evaluated the same way, down to
    single points that keep the layer's message: at most 2K - 1 evaluations.
    """
    try:
        with np.errstate(all="ignore"):
            columns = _evaluate(cfg, values)
    except NUMERICAL_ERRORS as exc:
        if len(values) == 1:
            return [SweepRow(float(values[0]), *[math.nan] * 7, False, str(exc))]
        half = len(values) // 2
        return _rows(cfg, values[:half]) + _rows(cfg, values[half:])
    rows = [SweepRow(*row, True, "") for row in columns.T.tolist()]
    for i in np.flatnonzero(~np.isfinite(columns).all(axis=0)):
        bad = SweepRow._fields[np.isfinite(columns[:, i]).argmin()]  # the first non-finite column
        rows[i] = SweepRow(rows[i].axis, *[math.nan] * 7, False, "overflow: %s is not finite" % bad)
    return rows


def run_point(cfg: ScenarioConfig, axis_value: float) -> SweepRow:
    """Every reported quantity at one grid point: the row of a one-point grid (:func:`_rows`).

    A numerical failure becomes a NaN row carrying its message; any other exception
    is a bug and propagates.
    """
    return _rows(cfg, np.array([float(axis_value)]))[0]


def sweep(cfg: ScenarioConfig) -> list:
    """Run the configured sweep: the rows of :func:`_rows` on the whole grid, in grid order.

    A failing point degrades alone, so the only ValueError raised is cfg.validate()'s
    for an invalid config.  cfg.threads is validated but has no effect.
    """
    cfg.validate()
    return _rows(cfg, cfg.axis_values())


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV with a fixed header; floats at full precision, '\\n' newlines."""
    lines = [CSV_HEADER]
    lines.extend(_CSV_ROW % row[:8] for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[SweepRow], cfg: Optional[ScenarioConfig] = None) -> str:
    out = {"schema": 1, "rows": [row._asdict() for row in rows]}
    if cfg is not None:
        d = dict(cfg.__dict__)
        d["alpha"] = list(d["alpha"])
        d["theta"] = list(d["theta"])
        if d["weight"] is not None:
            d["weight"] = np.asarray(d["weight"], dtype=float).tolist()
        out["config"] = d
    return json.dumps(out, indent=2, sort_keys=True) + "\n"

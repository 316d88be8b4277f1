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

Closed-form expressions for the four probe families are provided for
cross-checking the full pipeline; the thermal-probe forms hold only on the
matched-temperature slice n_th = n_e and raise otherwise.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numkit
from .gaussian_core import GaussianState, probe_tmsdt
from .channels import NoisyChannel
from .qfi_gaussian import displacement_model, evaluate, qfim_report
from .measurements import cfim_gaussian_outcomes, epr_readout

PROBES = ("tmsv", "tmst", "tmdv", "tmdt")
AXES = ("r", "t", "n_e", "n_th", "gamma")

SweepRow = namedtuple(
    "SweepRow",
    ["axis", "b_s", "b_r", "b_h_mid", "b_h_upper", "hdb", "r_q", "sql", "ok", "message"],
)
ClosedForm = namedtuple("ClosedForm", ["b_s", "b_r", "r_q", "b_h_upper"])

CSV_HEADER = "axis,b_s,b_r,b_h_mid,b_h_upper,hdb,r_q,sql"


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
        if self.probe not in PROBES:
            raise ValueError("probe must be one of %s" % (PROBES,))
        if self.axis not in AXES:
            raise ValueError("axis must be one of %s" % (AXES,))
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.n_e < 0 or self.n_th < 0:
            raise ValueError("occupations must be nonnegative")
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if len(tuple(self.alpha)) != 4:
            raise ValueError("alpha must have four components (q1, p1, q2, p2)")
        if len(tuple(self.theta)) != 2:
            raise ValueError("theta must have two components")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.n_values() < 1:
            raise ValueError("empty sweep range")
        if self.weight is not None:
            W = np.asarray(self.weight, dtype=float)
            if W.shape != (2, 2):
                raise ValueError("weight must be a 2x2 matrix")

    def n_values(self) -> int:
        return int(round((self.stop - self.start) / self.step)) + 1

    def axis_values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_values())

    def weight_matrix(self) -> np.ndarray:
        if self.weight is None:
            return np.eye(2)
        return np.asarray(self.weight, dtype=float)


def build_probe(cfg: ScenarioConfig) -> GaussianState:
    """Input state of the configured probe family."""
    if cfg.probe == "tmsv":
        return probe_tmsdt(cfg.r, cfg.phi, 0.0, 0.0, 0.0, 0.0, 0.0)
    if cfg.probe == "tmst":
        return probe_tmsdt(cfg.r, cfg.phi, 0.0, 0.0, 0.0, 0.0, cfg.n_th)
    if cfg.probe == "tmdv":
        return probe_tmsdt(0.0, cfg.phi, *cfg.alpha, 0.0)
    if cfg.probe == "tmdt":
        return probe_tmsdt(0.0, cfg.phi, *cfg.alpha, cfg.n_th)
    raise ValueError("probe must be one of %s" % (PROBES,))


def closed_form_bounds(
    probe: str, r: float, n_th: float, gamma: float, t: float, n_e: float
) -> ClosedForm:
    """Analytic bound family for the four probe classes.

    Thermal probes (tmst, tmdt) are only covered on the matched slice
    n_th = n_e, where the channel keeps the state in the same family.
    """
    x = math.exp(gamma * t)
    eps = 1.0 + 2.0 * n_e
    tau = 1.0 + 2.0 * n_th
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    if probe == "tmsv":
        D = (x - 1.0) * eps + c
        b_s = D - s * s / D
        if s == 0.0:
            b_r = D + x  # vacuum pair: no squeezing singularity
        elif D > x:
            b_r = D + x - s * s / (D - x)
        else:
            b_r = 0.0  # pure squeezed probe (t = 0): RLD bound collapses
        r_q = x / D
        return ClosedForm(b_s, b_r, r_q, (1.0 + r_q) * b_s)
    if probe == "tmdv":
        b_s = 1.0 + (x - 1.0) * eps
        r_q = x / b_s
        return ClosedForm(b_s, b_s + x, r_q, b_s + x)
    if probe in ("tmst", "tmdt"):
        if abs(n_th - n_e) > 1e-12:
            raise ValueError(
                "closed forms for thermal probes hold only at matched temperature n_th = n_e"
            )
        if probe == "tmdt":
            b_s = x * tau
            return ClosedForm(b_s, b_s + x, 1.0 / tau, b_s + x)
        K = c + x - 1.0
        b_s = tau * (K * K - s * s) / K
        sh2 = math.sinh(r) ** 2
        num = 2.0 * n_th * (1.0 + n_th) * x * x + 2.0 * (x - 1.0) * tau * tau * sh2
        den = n_th * x + tau * sh2
        b_r = num / den if den > 0 else b_s + x  # den = 0 only for the vacuum pair, as tmdv
        r_q = x / (tau * K)
        return ClosedForm(b_s, b_r, r_q, (1.0 + r_q) * b_s)
    raise ValueError("probe must be one of %s" % (PROBES,))


def run_point(cfg: ScenarioConfig, axis_value: float) -> SweepRow:
    """Evaluate every reported quantity at one grid point.

    The displacement model is evaluated once; the QFIM report and the
    double-homodyne information share that evaluation.  A numerical failure
    (ValueError, LinAlgError, FloatingPointError, OverflowError) becomes a
    NaN row carrying the message, so one bad point degrades rather than
    aborts a sweep; any other exception is a bug and propagates.
    """
    try:
        c = replace(cfg, **{cfg.axis: float(axis_value)})
        probe = build_probe(c)
        ch = NoisyChannel.uniform(2, c.gamma, c.n_e, c.m_e)
        pt = evaluate(displacement_model(probe, ch, c.t), c.theta)
        W = c.weight_matrix()
        rep = qfim_report(pt, weight=W)
        pre, gd = epr_readout()
        F_C = cfim_gaussian_outcomes(pt, gd, pre_op=pre)
        hdb = float(np.trace(W @ numkit.pinv(F_C)))
        sql = closed_form_bounds("tmdv", 0.0, 0.0, c.gamma, c.t, c.n_e).b_h_upper
        return SweepRow(
            axis=float(axis_value),
            b_s=rep.b_s,
            b_r=rep.b_r,
            b_h_mid=rep.b_h_mid,
            b_h_upper=rep.b_h_upper,
            hdb=hdb,
            r_q=rep.r_q,
            sql=sql,
            ok=True,
            message="",
        )
    except (ValueError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        nan = float("nan")
        return SweepRow(float(axis_value), nan, nan, nan, nan, nan, nan, nan, False, str(exc))


def sweep(cfg: ScenarioConfig) -> list:
    """Run the configured sweep on one thread; rows come back in grid order.

    cfg.threads is validated but has no effect: a point is a handful of small
    numpy calls that hold the GIL, so worker threads only added overhead.
    """
    cfg.validate()
    return [run_point(cfg, v) for v in cfg.axis_values()]


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV with a fixed header; floats at full precision, '\\n' newlines."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                "%.17g" % v
                for v in (
                    row.axis,
                    row.b_s,
                    row.b_r,
                    row.b_h_mid,
                    row.b_h_upper,
                    row.hdb,
                    row.r_q,
                    row.sql,
                )
            )
        )
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

"""Command-line interface.

Subcommands:

    bounds          bound family at a single parameter point
    sweep           grid sweep along one axis (CSV or JSON)
    oracle-check    moment-level vs number-basis QFIM agreement
    classical-demo  MLE variance against the classical CRLB
    phase-demo      phase-estimation scalings for coherent and squeezed probes

Data goes to stdout (or --out); logging goes to stderr.  Exit codes: 0 on
success, 2 on configuration or validation errors (malformed JSON is reported
with line and column), 3 when a computation degraded (NaN rows, oracle gap
above tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from .gaussian_core import coherent, squeezed_vacuum, thermal, vacuum
from .qfi_gaussian import displacement_model, phase_model, qfim_sld
from .fock_oracle import displacement_family, fock_state, phase_family, qfim_fock_sld
from .classical_stats import Bernoulli, Normal, mle_variance_study
from .scenarios import (
    ScenarioConfig,
    rows_to_csv,
    rows_to_json,
    run_point,
    sweep,
)

log = logging.getLogger("gaussfish")

ORACLE_TOL = 1e-4


class CliError(Exception):
    """Configuration or validation problem: exit code 2."""


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON scenario config (schema 1)")
    p.add_argument("--out", help="write data here instead of stdout")
    p.add_argument("--seed", type=int, default=None, help="RNG seed where sampling is involved")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted and validated for compatibility; sweeps run on one thread",
    )


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused for the rest of the process."""
    p = argparse.ArgumentParser(prog="gaussfish", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="bound family at one parameter point")
    _add_common(b)
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("sweep", help="grid sweep along the configured axis")
    _add_common(s)
    s.set_defaults(func=_cmd_sweep)

    o = sub.add_parser("oracle-check", help="cross-check against the number-basis oracle")
    _add_common(o)
    o.add_argument("--dim", type=int, default=40, help="Fock cutoff (default 40)")
    o.set_defaults(func=_cmd_oracle)

    c = sub.add_parser("classical-demo", help="MLE variance vs the classical CRLB")
    _add_common(c)
    c.set_defaults(func=_cmd_classical)

    ph = sub.add_parser("phase-demo", help="phase-estimation scalings")
    _add_common(ph)
    ph.set_defaults(func=_cmd_phase)
    return p


def _load_config(args) -> ScenarioConfig:
    """The scenario config of --config, --threads and GAUSSFISH_THREADS, not yet validated."""
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read config: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise CliError(
                "config parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
            ) from exc
        if not isinstance(data, dict):
            raise CliError("config must be a JSON object")
        if data.pop("schema", None) != 1:
            raise CliError('config must declare "schema": 1')
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CliError("unknown config keys: %s" % ", ".join(unknown))
    try:
        cfg = ScenarioConfig(**data)
    except TypeError as exc:
        raise CliError("bad config: %s" % exc) from exc
    threads = args.threads
    if threads is None:
        env = os.environ.get("GAUSSFISH_THREADS")
        if env is not None and env != "":
            try:
                threads = int(env)
            except ValueError as exc:
                raise CliError("GAUSSFISH_THREADS must be an integer") from exc
    if threads is not None:
        cfg.threads = threads
    return cfg


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)


def _rows_out(args, cfg, rows) -> int:
    if args.format == "json":
        _emit(args, rows_to_json(rows, cfg))
    else:
        _emit(args, rows_to_csv(rows))
    bad = [row for row in rows if not row.ok]
    if bad:
        for row in bad:
            log.error("degraded point at %s=%.6g: %s", cfg.axis, row.axis, row.message)
        return 3
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    row = run_point(cfg, getattr(cfg, cfg.axis))
    return _rows_out(args, cfg, [row])


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        rows = sweep(cfg)  # validates cfg; a numerical failure becomes a row, so only validate raises
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    log.info("sweep: %d points along %s", len(rows), cfg.axis)
    return _rows_out(args, cfg, rows)


def _cmd_oracle(args) -> int:
    dim = args.dim
    theta2 = [0.0, 0.0]
    try:
        pairs = [
            (
                "displacement/vacuum",
                qfim_sld(displacement_model(vacuum(1)), theta2),
                qfim_fock_sld(displacement_family(fock_state("vacuum", dim)), theta2),
            ),
            (
                "displacement/thermal",
                qfim_sld(displacement_model(thermal(0.4)), theta2),
                qfim_fock_sld(
                    displacement_family(fock_state("thermal", dim, n_th=0.4)), theta2
                ),
            ),
            (
                "phase/squeezed",
                qfim_sld(phase_model(squeezed_vacuum(0.3)), [0.0]),
                qfim_fock_sld(phase_family(fock_state("squeezed", dim, r=0.3)), [0.0]),
            ),
        ]
    except ValueError as exc:
        log.error("oracle state construction failed: %s", exc)
        return 3
    lines = []
    worst = 0.0
    for name, g, f in pairs:
        gap = float(np.max(np.abs(g - f)))
        worst = max(worst, gap)
        lines.append("%-24s gap %.3e" % (name, gap))
    lines.append("max gap %.3e (tolerance %.0e), dim %d" % (worst, ORACLE_TOL, dim))
    _emit(args, "\n".join(lines) + "\n")
    if worst > ORACLE_TOL:
        log.error("oracle disagreement %.3e exceeds %.0e", worst, ORACLE_TOL)
        return 3
    return 0


def _cmd_classical(args) -> int:
    seed = 8 if args.seed is None else args.seed
    n, reps = 20000, 200
    lines = ["%-22s %-14s %-14s %-8s" % ("component", "empirical", "crlb", "ratio")]
    studies = [
        ("bernoulli theta", Bernoulli(0.3), 0),
        ("normal mu", Normal(1.2, 2.0), 0),
        ("normal sigma2", Normal(1.2, 2.0), 1),
    ]
    for name, model, comp in studies:
        out = mle_variance_study(model, n, reps, seed)
        lines.append(
            "%-22s %-14.6e %-14.6e %-8.4f"
            % (name, out["empirical_var"][comp], out["crlb"][comp], out["ratio"][comp])
        )
        seed += 1
    lines.append("n=%d reps=%d seed=%d" % (n, reps, 8 if args.seed is None else args.seed))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_phase(args) -> int:
    lines = [
        "%-6s %-14s %-12s %-14s %-12s"
        % ("N", "qfi_coherent", "sql", "qfi_squeezed", "hl")
    ]
    for N in (1, 2, 4, 8, 16):
        q = 2.0 * math.sqrt(N)  # coherent probe with mean photon number N
        qfi_c = qfim_sld(phase_model(coherent(q, 0.0)), [0.0])[0, 0]
        r = math.asinh(math.sqrt(N))  # squeezed probe with the same energy
        qfi_s = qfim_sld(phase_model(squeezed_vacuum(r)), [0.0])[0, 0]
        lines.append(
            "%-6d %-14.6g %-12.6g %-14.6g %-12.6g"
            % (N, qfi_c, 1.0 / N, qfi_s, 1.0 / (N * (N + 1.0)))
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,  # rebind the stream on every entry so repeated in-process calls behave
    )
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

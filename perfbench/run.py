#!/usr/bin/env python3
"""gaussfish benchmark.

    python3 perfbench/run.py --workload {ref_sweep,point_calls} --seed N
                             --seconds S --trace {0,1}

Runs from the root of a source checkout and imports gaussfish from ./src.
One process, one thread, BLAS pinned to one thread.  Each workload is a
closed loop with one caller: an operation starts when the previous returns.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.
--trace 1 runs the loop untraced for half the time and traced for the other
half, prints the per-layer metrics and writes the spans to
.perfbench_out/spans_<workload>.tsv.  The last stdout line is the JSON
result; diagnostics go to stderr.  The workloads near_pure and
multimode_cov reproduce known program defects and are not in BENCHMARK.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter

from calibrate import Calibrator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 25  # per child; five of them and the loop stay within 180 s


def _pin_environment() -> None:
    # Must run before numpy is imported, here and in the set-up children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GAUSSFISH_THREADS", None)


def _import_program():
    init = os.path.join(SRC, "gaussfish", "__init__.py")
    if not os.path.isfile(init):
        raise RuntimeError("no gaussfish sources at %s" % init)
    sys.path.insert(0, SRC)
    import gaussfish

    if os.path.realpath(gaussfish.__file__) != os.path.realpath(init):
        raise RuntimeError("imported gaussfish from %s, not %s" % (gaussfish.__file__, init))


def _declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _measure_setup(workload: str, seed: int) -> float:
    """Median wall time, at reference speed, of fresh processes that import
    gaussfish and run one pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    cal = Calibrator("spawn")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        times.append(dt * cal.scale(dt))
        if proc.returncode != 0:
            raise RuntimeError("set-up run failed:\n%s" % proc.stderr.decode()[-2000:])
    print("set-up runs (s at reference speed): %s" % " ".join("%.3f" % t for t in times),
          file=sys.stderr)
    return statistics.median(times)


class Tally:
    """What a loop keeps: sums, headline durations and failures.  Outputs are
    checked as they arrive and dropped, so memory does not grow with the
    number of operations."""

    def __init__(self):
        self.ops = 0
        self.points = 0
        self.busy_s = 0.0
        self.head = array("d")
        self.failed = 0
        self.reasons = Counter()

    def add(self, op, dt, failures):
        self.ops += 1
        self.points += op.points
        self.busy_s += dt
        if op.headline:
            self.head.append(dt)
        if failures:
            self.failed += 1
            self.reasons.update(failures)

    def points_per_s(self) -> float:
        return self.points / self.busy_s


def _run_pass(wl, tally, cal=None, tracer=None):
    for op in wl.next_pass():
        if tracer is not None:
            tracer.op = tally.ops
        t0 = time.perf_counter()
        ret = op.run()
        dt = time.perf_counter() - t0
        if cal is not None:
            dt *= cal.scale(dt)
        tally.add(op, dt, wl.check(op, op.collect(ret)))


def _timed_loop(wl, seconds, tracer=None) -> Tally:
    """Whole passes until `seconds` have elapsed; durations at reference speed."""
    tally = Tally()
    cal = Calibrator(wl.calibration_kernel)
    start = time.perf_counter()
    while True:
        _run_pass(wl, tally, cal, tracer)
        if time.perf_counter() - start >= seconds:
            return tally


def _end_to_end(tally, setup_s) -> dict:
    # p75, not p90: a 20 s run holds ~30 sweeps, and the reported percentile
    # needs about ten samples beyond it.
    head = sorted(tally.head)
    print("ops timed: %d (%d in op_ms)" % (tally.ops, len(head)), file=sys.stderr)
    return {
        "setup_s": setup_s,
        "points_per_s": tally.points_per_s(),
        "op_ms_p50": statistics.median(head) * 1e3,
        "op_ms_p75": head[int(0.75 * len(head))] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


QFI_FUNCS = ("qfim_sld", "qfim_rld", "incompatibility", "rld_inverse_limit",
             "bound_chain", "quantumness")


def _per_layer(tally, stats, overhead) -> dict:
    """Per-layer metrics of a traced loop; see README for definitions."""
    def us(name):
        return stats.self_median_ns(name) / 1e3

    def per(count):
        return count / tally.points

    m = {
        "cli.main.self_ms": us("cli.main") / 1e3,
        "scenarios.sweep.self_us_per_pt": per(stats.self_sum_ns("scenarios.sweep") / 1e3),
        "scenarios.run_point.self_us": us("scenarios.run_point"),
        "scenarios.rows_to_csv.us": us("scenarios.rows_to_csv"),
        "gaussian_core.probe_tmsdt.us": us("gaussian_core.probe_tmsdt"),
        "gaussian_core.apply.us": us("gaussian_core.apply"),
        "gaussian_core.apply.per_pt": per(stats.calls("gaussian_core.apply")),
        "channels.evolve.us": us("channels.evolve"),
        "channels.evolve.per_pt": per(stats.calls("channels.evolve")),
        "measurements.cfim_gaussian_outcomes.us": us("measurements.cfim_gaussian_outcomes"),
        "qfi_gaussian.qfim_report.self_us": us("qfi_gaussian.qfim_report"),
        "qfi_gaussian.GaussianModel.state.per_pt": per(
            stats.calls("qfi_gaussian.GaussianModel.state")),
        "numkit.pinv.us": us("numkit.pinv"),
        "numkit.pinv.per_pt": per(stats.calls("numkit.pinv")),
        "numkit.pinv.n3_per_pt": per(stats.size_sum("numkit.pinv")),
        "trace_overhead_frac": overhead,
    }
    for fn in QFI_FUNCS:
        m["qfi_gaussian.%s.us" % fn] = us("qfi_gaussian." + fn)
    return m


def _setup_child(args, workloads) -> int:
    workdir = tempfile.mkdtemp(prefix="setup_", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in wl.next_pass():
            op.collect(op.run())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _bench(args, workloads) -> dict:
    import tracing

    print("env: %s" % json.dumps(_environment()), file=sys.stderr)
    setup_s = None if args.trace else _measure_setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix="run_", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.build_references()
        warm = Tally()
        _run_pass(wl, warm)
        if args.trace:
            plain = _timed_loop(wl, args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timed = _timed_loop(wl, args.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT, "spans_%s.tsv" % args.workload))
            stats = tracing.SpanStats(tracer)
            overhead = 1.0 - timed.points_per_s() / plain.points_per_s()
            metrics = _per_layer(timed, stats, overhead)
            attempted, failed = plain.ops + timed.ops, plain.failed + timed.failed
            reasons = warm.reasons + plain.reasons + timed.reasons
        else:
            timed = _timed_loop(wl, args.seconds)
            metrics = _end_to_end(timed, setup_s)
            attempted, failed = timed.ops, timed.failed
            reasons = warm.reasons + timed.reasons
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason, count in sorted(reasons.items()):
        print("check failed: %s (%d ops)" % (reason, count), file=sys.stderr)
    if hasattr(wl, "diagnosis"):
        print("diagnosis: %s" % wl.diagnosis(), file=sys.stderr)
    return {
        "correct": warm.failed == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _pin_environment()
    try:
        _import_program()
        os.makedirs(OUT, exist_ok=True)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise RuntimeError("unknown workload %r (have %s)"
                               % (args.workload, ", ".join(workloads.WORKLOADS)))
        if args.setup_child:
            return _setup_child(args, workloads)
        declared = _declared_metrics(bool(args.trace))
        result = _bench(args, workloads)
    except Exception as exc:  # noqa: BLE001 - any failure must exit non-zero without a result
        print("benchmark error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    values = result["metrics"]
    if set(values) != set(declared):
        print("metrics differ from BENCHMARK.json: %s"
              % sorted(set(values) ^ set(declared)), file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": values[k], "unit": declared[k]} for k in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

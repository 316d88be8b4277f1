"""In-memory spans around calls into gaussfish's public functions.

Each public function is wrapped in the namespace where its caller looks it
up: modules that import a name directly (``from .qfi_gaussian import
qfim_report``) hold their own reference, so patching only the defining module
would miss those calls.  Spans are kept in memory while the loop runs and are
written out once it ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict


def _matrix_n3(args, kwargs):
    a = args[0]
    return max(getattr(a, "shape", (0,)) or (0,)) ** 3


def targets():
    """(owner, attribute, span name, size function) for every traced call site."""
    from gaussfish import cli, measurements, numkit, qfi_gaussian, scenarios

    sites = [
        (cli, "main", "cli.main", None),
        (cli, "sweep", "scenarios.sweep", None),
        (cli, "rows_to_csv", "scenarios.rows_to_csv", None),
        (scenarios, "run_point", "scenarios.run_point", None),
        (scenarios, "probe_tmsdt", "gaussian_core.probe_tmsdt", None),
        (scenarios, "qfim_report", "qfi_gaussian.qfim_report", None),
        (scenarios, "cfim_gaussian_outcomes", "measurements.cfim_gaussian_outcomes", None),
        (qfi_gaussian, "qfim_report", "qfi_gaussian.qfim_report", None),
        (qfi_gaussian, "evolve", "channels.evolve", None),
        (qfi_gaussian, "apply", "gaussian_core.apply", None),
        (measurements, "apply", "gaussian_core.apply", None),
        (qfi_gaussian.GaussianModel, "state", "qfi_gaussian.GaussianModel.state", None),
        (numkit, "pinv", "numkit.pinv", _matrix_n3),
    ]
    for fn in ("qfim_sld", "qfim_rld", "incompatibility", "rld_inverse_limit",
               "bound_chain", "quantumness"):
        sites.append((qfi_gaussian, fn, "qfi_gaussian." + fn, None))
    return sites


class Tracer:
    """Records spans (name, start, end, parent, op id, operand size).

    Fields live in parallel lists of ints and shared strings, so recording
    allocates no container objects for the cyclic garbage collector to scan.
    """

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.ops, self.sizes = [], [], []
        self.stack = [-1]
        self.op = -1
        self._saved = []

    def _wrap(self, fn, name, size_of):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, sizes = self.parents, self.ops, self.sizes
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            sizes.append(size_of(args, kwargs) if size_of is not None else 0)
            stack.append(idx)
            starts.append(clock())
            ends.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        for owner, attr, name, size_of in targets():
            original = owner.__dict__.get(attr)
            if original is None:  # a removed function simply reports no calls
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size_of))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.ops, self.sizes)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tsize\n")
            for i, span in enumerate(self.spans()):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\t%d\n" % ((i,) + tuple(span)))


class SpanStats:
    """Per-name call counts, self times and operand sizes."""

    def __init__(self, tracer):
        spans = list(tracer.spans())
        covered = [0] * len(spans)
        for name, t0, t1, parent, op, size in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self._self = defaultdict(list)
        self._size = defaultdict(int)
        for i, (name, t0, t1, parent, op, size) in enumerate(spans):
            self._self[name].append(t1 - t0 - covered[i])
            self._size[name] += size

    def calls(self, name):
        return len(self._self.get(name, ()))

    def self_median_ns(self, name):
        xs = self._self.get(name)
        return float(statistics.median(xs)) if xs else 0.0

    def self_sum_ns(self, name):
        return float(sum(self._self.get(name, ())))

    def size_sum(self, name):
        return self._size.get(name, 0)

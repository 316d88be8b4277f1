"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the same single-threaded work runs up to ~1.7x
slower for seconds at a time, depending on what the rest of the host is
doing; CPU time slows with wall time, so neither separates the program from
its neighbours.  A fixed kernel owned by the benchmark is therefore timed
right before and right after each operation, for a fixed share of the
operation's time, and the operation's duration is scaled by

    reference unit time / mean unit time next to the operation,

i.e. reported at the speed at which one kernel unit takes its reference
time.  The kernel never calls gaussfish, so a change to the program cannot
move it.  Interference slows small, interpreter-bound numpy calls, large
LAPACK calls and process start-up by different factors, so each measurement
uses the kernel that resembles its own work.
"""

from __future__ import annotations

import subprocess
import sys
import time

SHARE = 0.25  # kernel time per second of measured work
PRIME_UNITS = 2

# Unit times on the quiet 2-core Xeon host the bounds were set on.
REFERENCE_UNIT_S = {"small": 4.5e-4, "large": 2.9e-3, "spawn": 0.15}


class Calibrator:
    """Times the kernel around measured work and scales the work to reference speed."""

    def __init__(self, kernel: str):
        import numpy as np  # after run.py has pinned BLAS to one thread

        rng = np.random.default_rng(0)
        a16 = rng.normal(size=(16, 16))
        b4 = rng.normal(size=(4, 4))
        a128 = rng.normal(size=(128, 128))

        def small():
            # per-point scale: 16x16 SVD, 4x4 kron and eigvalsh, interpreter work
            acc = 0.0
            for _ in range(4):
                acc += float(np.linalg.svd(a16)[1][0])
                acc += float(np.kron(b4, b4)[0, 0])
                acc += float(np.linalg.eigvalsh(b4 + b4.T)[0])
                acc += sum([i * 0.5 for i in range(20)])
            return acc

        def large():
            # multimode scale: the (2N)^2 kron pseudo-inverses
            return float(np.linalg.svd(a128)[1][0])

        def spawn():
            # set-up scale: start an interpreter and import numpy's LAPACK
            subprocess.run([sys.executable, "-c", "import numpy.linalg"], check=True)

        self._kernel = {"small": small, "large": large, "spawn": spawn}[kernel]
        self._reference = REFERENCE_UNIT_S[kernel]
        self._owed = 0.0
        self._last = [self._unit() for _ in range(PRIME_UNITS)]

    def _unit(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def scale(self, busy_s: float) -> float:
        """Factor taking `busy_s`, just measured, to reference speed.

        Runs kernel units worth SHARE of busy_s and compares the mean unit
        time just before and just after the work with the reference.
        """
        self._owed += busy_s * SHARE
        now = []
        while self._owed > 0.0:
            now.append(self._unit())
            self._owed -= now[-1]
        window = self._last + now
        if now:
            self._last = now
        return self._reference * len(window) / sum(window)

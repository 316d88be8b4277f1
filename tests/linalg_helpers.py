"""Dense linear-algebra helpers that only the tests use: vectorization for the
kron-matrix oracles, a largest-eigenvalue scale, and one call recorder for the
structural pins: the LAPACK drivers a run calls, the states (GaussianState) and the
evaluated models (PointMoments) it builds."""

import numpy as np

from gaussfish.gaussian_core import GaussianState
from gaussfish.qfi_gaussian import PointMoments

LAPACK_DRIVERS = ("svd", "eigvalsh", "qr", "eigh", "inv", "det", "solve", "eig", "eigvals", "cholesky", "lstsq", "pinv", "slogdet")


def recorded_calls(monkeypatch, run, sites):
    """run()'s result and the sorted names of the calls it made at sites.

    sites holds (owner, attribute, name) triples: owner.attribute is wrapped for the run,
    and name(*args) gives the name a call records, or None for a call not recorded.
    Every patch of monkeypatch is undone afterwards.
    """
    calls = []
    for owner, attr, name in sites:
        fn = getattr(owner, attr)

        def spy(*a, fn=fn, name=name, **kw):
            label = name(*a)
            if label is not None:
                calls.append(label)
            return fn(*a, **kw)

        monkeypatch.setattr(owner, attr, spy)
    try:
        return run(), sorted(calls)
    finally:
        monkeypatch.undo()


def lapack_calls(monkeypatch, run):
    """run()'s result and the sorted names of the LAPACK drivers it called."""
    sites = [(np.linalg, name, lambda *a, name=name: name) for name in LAPACK_DRIVERS]
    return recorded_calls(monkeypatch, run, sites)


def states_built(monkeypatch, run):
    """run()'s result and how many GaussianState it built, by the public constructor or by
    the unchecked internal one (GaussianState._built)."""
    sites = [(GaussianState, name, lambda *a: "GaussianState") for name in ("__init__", "_built")]
    result, calls = recorded_calls(monkeypatch, run, sites)
    return result, len(calls)


def moments_built(monkeypatch, run):
    """run()'s result and how many PointMoments it constructed: one per model evaluation."""
    result, calls = recorded_calls(monkeypatch, run, [(PointMoments, "__init__", lambda *a: "PointMoments")])
    return result, len(calls)


def vec(a):
    """Column-stacking vectorization: vec(AXB) = (B^T ⊗ A) vec(X)."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v, shape=None):
    """Inverse of :func:`vec`.  Square matrix assumed when shape is omitted."""
    v = np.asarray(v)
    if shape is None:
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise ValueError("unvec of non-square length %d" % v.size)
        shape = (n, n)
    return v.reshape(shape, order="F")


def largest_eig_abs(a):
    """max |lambda_i|.  Uses the Hermitian path when the input allows it."""
    a = np.asarray(a)
    if np.allclose(a, np.conj(a.T), atol=1e-12 * max(1.0, np.max(np.abs(a)))):
        w = np.linalg.eigvalsh(0.5 * (a + np.conj(a.T)))
    else:
        w = np.linalg.eigvals(a)
    return float(np.max(np.abs(w))) if w.size else 0.0

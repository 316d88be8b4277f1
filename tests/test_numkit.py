import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussfish import numkit


def _rng_matrix(seed, n, m, rank=None, complex_=False):
    rng = np.random.default_rng(seed)
    if rank is None:
        a = rng.normal(size=(n, m))
        if complex_:
            a = a + 1j * rng.normal(size=(n, m))
        return a
    b = rng.normal(size=(n, rank))
    c = rng.normal(size=(rank, m))
    if complex_:
        b = b + 1j * rng.normal(size=(n, rank))
        c = c + 1j * rng.normal(size=(rank, m))
    return b @ c


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    data=st.data(),
)
def test_pinv_penrose_identities(seed, n, m, data):
    rank = data.draw(st.integers(0, min(n, m)))
    a = _rng_matrix(seed, n, m, rank=rank) if rank else np.zeros((n, m))
    p = numkit.pinv(a)
    assert np.allclose(a @ p @ a, a, atol=1e-9)
    assert np.allclose(p @ a @ p, p, atol=1e-9)
    assert np.allclose((a @ p).conj().T, a @ p, atol=1e-9)
    assert np.allclose((p @ a).conj().T, p @ a, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4), m=st.integers(1, 4), k=st.integers(1, 4))
def test_vec_kron_identity(seed, n, m, k):
    # vec(A X B) = (B^T kron A) vec(X), column stacking
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, m))
    X = rng.normal(size=(m, k))
    B = rng.normal(size=(k, n))
    lhs = numkit.vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ numkit.vec(X)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(numkit.unvec(numkit.vec(a)), a)
    b = rng.normal(size=(2, 3))
    assert np.array_equal(numkit.unvec(numkit.vec(b), (2, 3)), b)


def test_pinv_absolute_cutoff():
    # a singular value far below the cutoff is treated as exact zero
    a = np.diag([1.0, 1e-18])
    p = numkit.pinv(a)
    assert np.allclose(p, np.diag([1.0, 0.0]))
    p2 = numkit.pinv(a, tol=1e-20)
    assert p2[1, 1] == pytest.approx(1e18)


def test_trace_abs_symmetric():
    assert numkit.trace_abs(np.diag([1.0, -2.0])) == pytest.approx(3.0)
    rng = np.random.default_rng(11)
    h = rng.normal(size=(5, 5))
    h = h + h.T
    assert numkit.trace_abs(h) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(h))))


def test_trace_abs_skew():
    # real antisymmetric: eigenvalues +-2i, absolute sum 4
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert numkit.trace_abs(a) == pytest.approx(4.0)


def test_trace_abs_general():
    a = np.array([[1.0, 5.0], [0.0, -3.0]])  # non-normal, eigenvalues 1 and -3
    assert numkit.trace_abs(a) == pytest.approx(4.0)


def test_hermitize():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = numkit.hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert h[0, 1] == pytest.approx((2.0 + 1j) / 2)


def test_largest_eig_abs():
    h = np.diag([1.0, -4.0, 2.5])
    assert numkit.largest_eig_abs(h) == pytest.approx(4.0)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6))
    assert numkit.largest_eig_abs(g) == pytest.approx(np.max(np.abs(np.linalg.eigvals(g))))


def test_is_psd():
    assert numkit.is_psd(np.eye(3))
    assert numkit.is_psd(np.zeros((2, 2)))
    assert not numkit.is_psd(np.diag([1.0, -1e-6]))
    assert numkit.is_psd(np.diag([1.0, -1e-12]))  # inside tolerance


def test_sqrtm_psd():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 4))
    a = b @ b.T
    s = numkit.sqrtm_psd(a)
    assert np.allclose(s @ s, a, atol=1e-10)
    assert np.isrealobj(s)
    with pytest.raises(ValueError):
        numkit.sqrtm_psd(np.diag([1.0, -0.5]))


def test_sqrtm_psd_clips_roundoff():
    s = numkit.sqrtm_psd(np.diag([1.0, -1e-14]))
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-7)

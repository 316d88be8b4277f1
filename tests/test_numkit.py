import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussfish import numkit
from gaussfish.channels import NoisyChannel
from gaussfish.gaussian_core import probe_tmsdt
from gaussfish.qfi_gaussian import (
    _quantumness,
    bound_chain,
    displacement_model,
    evaluate,
    incompatibility,
    qfim_sld,
    rld_inverse_limit,
)

from linalg_helpers import largest_eig_abs, unvec, vec


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
    lhs = vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ vec(X)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(a)), a)
    b = rng.normal(size=(2, 3))
    assert np.array_equal(unvec(vec(b), (2, 3)), b)


def test_pinv_absolute_cutoff():
    # a singular value far below the cutoff is treated as exact zero
    a = np.diag([1.0, 1e-18])
    p = numkit.pinv(a)
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_trace_abs_skew():
    # real antisymmetric: eigenvalues +-2i, absolute sum 4
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert numkit.trace_abs(a) == pytest.approx(4.0)


def test_hermitize():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = numkit.hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert h[0, 1] == pytest.approx((2.0 + 1j) / 2)


def test_largest_eig_abs():
    h = np.diag([1.0, -4.0, 2.5])
    assert largest_eig_abs(h) == pytest.approx(4.0)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6))
    assert largest_eig_abs(g) == pytest.approx(np.max(np.abs(np.linalg.eigvals(g))))


def test_is_psd():
    assert numkit.is_psd(np.eye(3))
    assert numkit.is_psd(np.zeros((2, 2)))
    assert not numkit.is_psd(np.diag([1.0, -1e-6]))
    assert numkit.is_psd(np.diag([1.0, -1e-12]))  # inside tolerance


def test_is_psd_on_a_stack_needs_every_member():
    stack = np.array([np.eye(2), np.diag([1.0, 2.0]), np.diag([3.0, 0.5])])
    assert numkit.is_psd(stack)
    stack[1, 1, 1] = -1e-6
    assert numkit.is_psd(stack) is False
    assert numkit.is_psd(stack[[0, 2]]) is True


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


def _stack_cases():
    """Matrices of mixed shape class: full rank, rank-deficient, zero, complex."""
    rng = np.random.default_rng(21)
    real = [_rng_matrix(30 + k, 3, 2, rank=r) if r else np.zeros((3, 2)) for k, r in enumerate((2, 1, 0, 2))]
    cplx = [_rng_matrix(40 + k, 3, 2, rank=r, complex_=True) for k, r in enumerate((2, 1, 2))]
    return np.array(real), np.array(cplx), rng


def test_pinv_on_a_stack_is_the_per_matrix_pinv():
    real, cplx, _ = _stack_cases()
    scaled = real * np.array([1.0, 1e-9, 1.0, 1e8])[:, None, None]  # each matrix keeps its own cutoff
    for stack in (real, cplx, scaled):
        got = numkit.pinv(stack)
        assert got.shape == (stack.shape[0], 2, 3)
        for a, p in zip(stack, got):
            np.testing.assert_allclose(p, numkit.pinv(a), rtol=1e-12, atol=1e-12 * np.max(np.abs(p), initial=0.0))
    # a stack padded with zero rows keeps each matrix's own cutoff through `size`
    a = np.diag([1.0, 6e-16])  # kept by a 2-row cutoff (4.4e-16), dropped by a 4-row one (8.9e-16)
    padded = np.array([np.vstack([a, np.zeros((2, 2))])])
    assert numkit.pinv(padded)[0, 1, 1] == 0.0
    assert numkit.pinv(padded, size=[2])[0, 1, 1] == numkit.pinv(a)[1, 1] > 1e15


def test_sqrtm_psd_on_a_stack_is_the_per_matrix_root():
    _, _, rng = _stack_cases()
    b = rng.normal(size=(4, 3, 3))
    stack = b @ b.transpose(0, 2, 1)
    stack[2] = np.diag([1.0, 0.0, 0.0])
    got = numkit.sqrtm_psd(stack)
    for a, s in zip(stack, got):
        np.testing.assert_allclose(s, numkit.sqrtm_psd(a), rtol=1e-12, atol=1e-13)
    with pytest.raises(ValueError):
        numkit.sqrtm_psd(np.array([np.eye(2), np.diag([1.0, -0.5])]))


def test_trace_abs_on_a_stack_is_the_per_matrix_trace_norm():
    rng = np.random.default_rng(13)
    h = rng.normal(size=(3, 3))
    stack = np.array([
        h - h.T,
        2.0 * (h - h.T),
        np.zeros((3, 3)),
        np.array([[0.0, 3.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # eigenvalues +-3i, 0
    ])
    got = numkit.trace_abs(stack)
    assert got.shape == (4,)
    for a, t in zip(stack, got):
        assert t == pytest.approx(numkit.trace_abs(a), rel=1e-12, abs=1e-15)
        assert t == pytest.approx(np.abs(np.linalg.eigvals(a)).sum(), rel=1e-12, abs=1e-15)
    assert got[1] == pytest.approx(2.0 * got[0], rel=1e-12)
    assert got[2] == 0.0 and got[3] == pytest.approx(6.0)
    # one branch for every input: a symmetric part, round-off or not, is dropped
    np.testing.assert_allclose(numkit.trace_abs(stack + (h + h.T)), got, rtol=1e-12, atol=1e-14)


def test_pinv_psd_is_pinv_and_the_root_of_pinv_per_matrix():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(3, 3))
    well = b @ b.T + np.eye(3)
    a2 = rng.normal(size=(2, 2))
    singular = np.zeros((3, 3))
    singular[:2, :2] = a2 @ a2.T  # exactly singular: a zero row and column
    pair = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])  # exactly singular, eigenvalues 0, 2, 2
    stack = np.array([well, singular, pair, np.zeros((3, 3)), 1e-9 * well, 1e8 * singular, 1e-9 * singular])
    inverse, root = numkit.pinv_psd(stack)
    assert inverse.shape == root.shape == stack.shape
    for a, p, s in zip(stack, inverse, root):
        want = numkit.pinv(a)
        scale = np.max(np.abs(want), initial=0.0)
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(s, numkit.sqrtm_psd(want), rtol=1e-12, atol=1e-12 * np.sqrt(scale))
    # a rank-1 product from floating point: round-off eigenvalues under the cutoff count
    # as zero, so the root squares to the inverse and has no null-space noise to root
    c = rng.normal(size=(3, 1))
    p, s = numkit.pinv_psd(c @ c.T)
    np.testing.assert_allclose(p, numkit.pinv(c @ c.T), rtol=1e-12, atol=1e-12 * np.abs(p).max())
    np.testing.assert_allclose(s @ s, p, rtol=1e-12, atol=1e-12 * np.abs(p).max())
    # one matrix: same shapes as its input, and the input's dtype
    p, s = numkit.pinv_psd(well)
    assert p.shape == s.shape == (3, 3) and np.isrealobj(p) and np.isrealobj(s)


def test_pinv_psd_rejects_an_indefinite_matrix_like_sqrtm_psd():
    bad = np.diag([1.0, -0.5])
    with pytest.raises(ValueError) as want:
        numkit.sqrtm_psd(numkit.pinv(bad))
    with pytest.raises(ValueError) as got:
        numkit.pinv_psd(np.array([np.eye(2), bad]))
    assert str(got.value) == str(want.value)
    # a negative round-off eigenvalue under the cutoff is dropped, not rejected
    p, s = numkit.pinv_psd(np.diag([1.0, -1e-17]))
    assert np.array_equal(p, np.diag([1.0, 0.0])) and np.array_equal(s, np.diag([1.0, 0.0]))


def _conditioned(rng, m, p, cond, complex_=False):
    """An m x p matrix with singular values spaced from 1 down to 1 / cond."""
    def orthonormal(n, k):
        z = rng.normal(size=(n, k)) + (1j * rng.normal(size=(n, k)) if complex_ else 0.0)
        return np.linalg.qr(z)[0]
    return orthonormal(m, p) @ np.diag(np.geomspace(1.0, 1.0 / cond, p)) @ orthonormal(p, p).conj().T


def _pinv_gram_cases(p, complex_):
    """A stack of 5 x p matrices: full-rank up to cond 1e14, rank-deficient and zero
    matrices, a matrix with a zero column, and the scales 1e-150 and 1e150."""
    rng = np.random.default_rng(77 + 2 * p + complex_)
    full = [_conditioned(rng, 5, p, c, complex_) for c in (1.0, 1e3, 1e8, 1e14)]
    deficient = [_rng_matrix(50 + k, 5, p, rank=r, complex_=complex_) for k, r in enumerate((1, p - 1))]
    zero_column = _rng_matrix(60, 5, p, complex_=complex_)
    zero_column[:, 1] = 0.0
    scaled = [1e-150 * full[1], 1e150 * full[1], 1e-150 * deficient[0], 1e150 * deficient[1]]
    return np.array(full + deficient + [zero_column, np.zeros((5, p))] + scaled)


def _gram_of_pinv(a, size=None):
    x = numkit.pinv(a, size)
    return x @ numkit.adjoint(x)


def _assert_pinv_gram_per_matrix(stack, got, sizes):
    for a, g, size in zip(stack, got, sizes):
        want = _gram_of_pinv(a, size)
        scale = np.max(np.abs(want), initial=0.0)
        # both are backward stable: the entries agree to about eps cond(a) of the largest
        cond = np.linalg.cond(a) if scale else 1.0
        np.testing.assert_allclose(g, want, rtol=0, atol=10 * numkit.EPS * min(cond, 1e16) * scale)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("complex_", [False, True])
def test_pinv_gram_is_the_gram_of_pinv_per_matrix(p, complex_):
    stack = _pinv_gram_cases(p, complex_)
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # no step meets a floating-point error
        got = numkit.pinv_gram(stack)
    assert got.shape == (stack.shape[0], p, p)
    assert np.iscomplexobj(got) == complex_
    _assert_pinv_gram_per_matrix(stack, got, [None] * len(stack))
    one, full_rank = numkit.pinv_gram(stack[1]), numkit.pinv_gram(stack[:3])
    assert one.shape == (p, p)
    _assert_pinv_gram_per_matrix(stack[1:2], [one], [None])
    _assert_pinv_gram_per_matrix(stack[:3], full_rank, [None] * 3)


def test_pinv_gram_of_wide_matrices_and_a_broadcast_size():
    rng = np.random.default_rng(79)
    wide = np.array([_rng_matrix(70, 2, 3), _rng_matrix(71, 2, 3, rank=1), np.zeros((2, 3))])  # m < p
    _assert_pinv_gram_per_matrix(wide, numkit.pinv_gram(wide), [None] * 3)
    # a stack padded with zero rows keeps each matrix's own cutoff through `size`
    a = np.diag([1.0, 6e-16])  # kept by a 2-row cutoff (4.4e-16), dropped by a 4-row one (8.9e-16)
    padded = np.array([np.vstack([a, np.zeros((2, 2))]), np.vstack([_conditioned(rng, 2, 2, 10.0), np.zeros((2, 2))])])
    assert numkit.pinv_gram(padded)[0, 1, 1] == 0.0
    for size in (2, [2, 2], np.array([2, 4])):
        got = numkit.pinv_gram(padded, size)
        assert got[0, 1, 1] == pytest.approx(1.0 / 6e-16**2, rel=1e-12)
        _assert_pinv_gram_per_matrix(padded, got, np.broadcast_to(size, (2,)))


def _skew_stack(rng, k, sym_scale):
    """k random 2x2 antisymmetric matrices plus a symmetric part of relative size sym_scale."""
    a = rng.normal(size=(k, 2, 2)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
    b = rng.normal(size=(k, 2, 2))
    return (a - numkit.transpose(a)) + sym_scale * np.abs(a).max() * (b + numkit.transpose(b))


@pytest.mark.parametrize("sym_scale", [0.0, 1e-16, 1e-3])
def test_two_by_two_trace_abs_is_the_eigvalsh_trace_norm(sym_scale):
    a = _skew_stack(np.random.default_rng(80), 200, sym_scale)
    skew = 0.5 * (a - numkit.transpose(a))
    want = np.abs(np.linalg.eigvalsh(1j * skew)).sum(axis=-1)
    np.testing.assert_allclose(numkit.trace_abs(a), want, rtol=4 * numkit.EPS, atol=0)
    assert isinstance(numkit.trace_abs(a[0]), float)


@pytest.mark.parametrize("sym_scale", [0.0, 1e-16, 1e-3])
def test_two_by_two_quantumness_is_the_eigvalsh_ratio(sym_scale):
    rng = np.random.default_rng(81)
    b = rng.normal(size=(200, 2, 2))
    _, root = numkit.pinv_psd(b @ numkit.transpose(b) + 0.1 * np.eye(2))
    u = _skew_stack(rng, 200, sym_scale)
    x = root @ u @ root
    u *= (rng.uniform(0.0, 1.0, 200) / np.abs(x[:, 0, 1] - x[:, 1, 0]))[:, None, None]  # R_Q < 1
    want = np.abs(np.linalg.eigvalsh(numkit.hermitize(1j * (root @ u @ root)))).max(axis=-1)
    got = _quantumness(root, u)
    assert got.shape == (200,) and got.max() < 1.0
    np.testing.assert_allclose(got, want, rtol=4 * numkit.EPS, atol=0)
    assert _quantumness(root[0], u[0]) == got[0]


def test_bound_chain_without_a_weight_is_the_identity_weight_bit_for_bit():
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    for probe in (probe_tmsdt(0.4, np.pi, 0, 0, 0, 0, 0.0), probe_tmsdt(0.4, np.pi, 0, 0, 0, 0, 0.5)):
        pt = evaluate(displacement_model(probe, ch, np.linspace(0.0, 1.0, 11)), [0.0, 0.0])
        args = (qfim_sld(pt), incompatibility(pt))
        default = bound_chain(*args, rld_inverse=rld_inverse_limit(pt))
        identity = bound_chain(*args, rld_inverse=rld_inverse_limit(pt), weight=np.eye(2))
        for name, x, y in zip(default._fields, default, identity):
            assert np.array_equal(x, y), name


# 2x2 kernels against a reference by LAPACK: pinv_psd on 2x2 members.  Both sides are
# backward stable, so a member's entries agree to c eps cond of its largest; 20,000 random
# members gave c <= 2.2.
KERNEL_C = 8.0
_KINDS2 = ("full", "rank1", "zero", "near_cutoff", "indefinite")


@st.composite
def _sym2_stacks(draw, kinds=_KINDS2, exponents=(-290.0, 300.0), sizes=(1, 6), complex_=False):
    """A (K, 2, 2) stack of symmetric members R diag(1, lam) R^T 10^e of mixed kinds, K in sizes.

    lam is 10^-13..1 (full), 0 (rank1), 0.7..280 eps around pinv's cutoff 2 eps and the
    2x2 certificate of numkit._spd2 (near_cutoff), or -10^-13..-1 (indefinite); e >= -290 keeps
    every kept inverse eigenvalue below about 1e306.  With complex_, the members are
    Hermitian: R's second column carries a random phase, and R^T is R^H.
    """
    members = []
    for _ in range(draw(st.integers(*sizes))):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            members.append(np.zeros((2, 2)))
            continue
        u = draw(st.floats(-13.0, 0.0))
        lam = {"full": 10.0**u, "rank1": 0.0, "near_cutoff": numkit.EPS * 10.0 ** (-0.15 - u / 5.0), "indefinite": -(10.0**u)}[kind]
        angle = draw(st.floats(0.0, 2 * np.pi))
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        if complex_:
            rot = rot * np.exp(1j * np.array([0.0, draw(st.floats(0.0, 2 * np.pi))]))
        members.append(10.0 ** draw(st.floats(*exponents)) * (rot @ np.diag([1.0, lam]) @ rot.conj().T))
    return np.array(members)


def _eigh_pinv_psd(a):
    """(inverse, root, cond) of pinv_psd's definition by np.linalg.eigh, or its ValueError.

    cond is each member's |w|max / |w|min over its kept eigenvalues (1 when none is kept).
    """
    w, u = np.linalg.eigh(numkit.hermitize(a))
    keep = np.abs(w) > 2 * numkit.EPS * np.abs(w).max(axis=-1, keepdims=True)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    if inv_w.min() < -numkit.NEG_TOL:
        raise ValueError("matrix is not positive semidefinite (min eig %.3e)" % inv_w.min())
    ut = numkit.adjoint(u)
    kept = np.where(keep, np.abs(w), np.inf).min(axis=-1)
    cond = np.where(keep.any(axis=-1), np.abs(w).max(axis=-1) / kept, 1.0)
    return (u * inv_w[..., None, :]) @ ut, (u * np.sqrt(inv_w.clip(0.0, None))[..., None, :]) @ ut, cond


def _assert_close_per_member(got, want, cond):
    for g, x, c in zip(got, want, cond):
        with np.errstate(over="ignore"):  # a tolerance past the float range: the largest float
            atol = min(KERNEL_C * numkit.EPS * c * np.abs(x).max(), np.finfo(float).max)
        np.testing.assert_allclose(g, x, rtol=0, atol=atol)


@settings(max_examples=200, deadline=None)
@given(stack=_sym2_stacks() | _sym2_stacks(complex_=True))
def test_two_by_two_pinv_psd_is_the_eigh_pinv_psd(stack):
    """pinv_psd of 2x2 members of every kind, real or Hermitian, against its definition by a
    plain eigh: the inverse and root, and the same refusal of a kept negative eigenvalue.
    pinv_psd is the eigh route for every size; the bound chain and hdb take it only at the
    points that the 2x2 certificate refuses."""
    try:
        want, want_root, cond = _eigh_pinv_psd(stack)
    except ValueError as exc:  # a kept negative inverse eigenvalue: the same refusal
        with pytest.raises(ValueError) as got:
            numkit.pinv_psd(stack)
        assert str(got.value) == str(exc)
        return
    inverse, root = numkit.pinv_psd(stack)
    assert inverse.shape == root.shape == stack.shape
    _assert_close_per_member(inverse, want, cond)
    _assert_close_per_member(root, want_root, cond)


@settings(max_examples=50, deadline=None)
@given(stack=_sym2_stacks(kinds=("full",)))
def test_two_by_two_pinv_psd_of_one_matrix_is_its_stack_member(stack):
    """One 2x2 matrix gives (2, 2) results, as the one-member stack of its definition."""
    inverse, root = numkit.pinv_psd(stack[0])
    assert inverse.shape == root.shape == (2, 2)
    want, want_root, cond = _eigh_pinv_psd(stack[:1])
    _assert_close_per_member([inverse], want, cond)
    _assert_close_per_member([root], want_root, cond)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), complex_=st.booleans(), m=st.integers(2, 8))
def test_two_column_pinv_gram_mixes_certified_and_uncertified_members(data, complex_, m):
    """Members of cond 1..1e10, rank 1, zero or with a zero column, at scales 1e-140..1e140."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in data.draw(st.lists(st.sampled_from(("full", "rank1", "zero", "zero_column")), min_size=1, max_size=6)):
        if kind == "full":
            a = _conditioned(rng, m, 2, 10.0 ** data.draw(st.floats(0.0, 10.0)), complex_)
        elif kind == "zero":
            a = np.zeros((m, 2), dtype=complex if complex_ else float)
        else:
            a = _rng_matrix(int(rng.integers(10**6)), m, 2, rank=1, complex_=complex_)
            if kind == "zero_column":
                a[:, int(rng.integers(2))] = 0.0
        members.append(10.0 ** data.draw(st.floats(-140.0, 140.0)) * a)
    stack = np.array(members)
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # none, on uncertified members either
        got = numkit.pinv_gram(stack)
    assert got.shape == (len(members), 2, 2) and np.iscomplexobj(got) == complex_
    _assert_pinv_gram_per_matrix(stack, got, [None] * len(stack))

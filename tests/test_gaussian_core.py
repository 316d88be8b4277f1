import copy
import math
import pickle

import numpy as np
import pytest

from gaussfish.channels import NoisyChannel, evolve
from gaussfish.gaussian_core import (
    DuanResult,
    GaussianState,
    SymplecticOp,
    _eigenbasis,
    apply,
    beam_splitter_5050,
    char_fn_at,
    coherent,
    compose,
    displacement_op,
    duan_criterion,
    omega,
    probe_tmsdt,
    purity,
    rotation,
    single_mode_squeezer,
    squeezed_vacuum,
    thermal,
    two_mode_squeezer,
    vacuum,
    wigner_at,
)
from gaussfish.qfi_gaussian import displacement_model


def test_omega_blocks():
    w = omega(1)
    assert np.array_equal(w, [[0.0, 1.0], [-1.0, 0.0]])
    w2 = omega(2)
    assert w2.shape == (4, 4)
    assert np.array_equal(w2[:2, :2], w)
    assert np.array_equal(w2[2:, 2:], w)
    assert np.all(w2[:2, 2:] == 0)


class TestConstructors:
    def test_vacuum(self):
        st = vacuum(2)
        assert np.array_equal(st.V, np.eye(4))
        assert np.array_equal(st.d, np.zeros(4))
        assert st.physical()

    def test_thermal(self):
        st = thermal(0.5)
        assert np.array_equal(st.V, 2.0 * np.eye(2))
        with pytest.raises(ValueError):
            thermal(-0.1)

    def test_coherent(self):
        st = coherent(1.0, -2.0)
        assert np.array_equal(st.d, [1.0, -2.0])
        assert np.array_equal(st.V, np.eye(2))

    def test_squeezed_vacuum(self):
        st = squeezed_vacuum(0.3)
        assert np.allclose(st.V, np.diag([np.exp(-0.6), np.exp(0.6)]))
        assert st.physical()


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))  # odd phase-space dimension
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GaussianState(np.zeros(4), np.eye(2))  # shape mismatch


def test_physicality_flags_heisenberg_violation():
    st = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    assert not st.physical()
    with pytest.raises(ValueError):
        st.require_physical()
    assert vacuum(1).require_physical() is vacuum(1) or True  # no raise


def test_physicality_of_a_stack_needs_every_member():
    V = np.array([np.eye(2), 3.0 * np.eye(2), np.diag([0.5, 1.5])])  # det 0.75 < 1: the last is unphysical
    st = GaussianState(np.zeros((3, 2)), V)
    assert not st.physical()
    with pytest.raises(ValueError):
        st.require_physical()
    assert GaussianState(np.zeros((2, 2)), V[:2]).physical()


def test_symplectic_defect_rejected():
    with pytest.raises(ValueError):
        SymplecticOp(2.0 * np.eye(2))


def test_symplectic_check_is_relative_to_the_matrix_scale():
    for r in (8.0, 9.0):  # entries ~ cosh r; round-off of S Omega S^T is ~ eps cosh^2 r
        two_mode_squeezer(r)
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticOp(np.diag([1.0 + 1e-8, 1.0]))
    S = two_mode_squeezer(8.0).S @ np.diag([1.0 + 1e-8, 1.0, 1.0, 1.0])
    om = omega(2)
    relative = np.max(np.abs(S @ om @ S.T - om)) / np.max(np.abs(S)) ** 2
    assert 1e-9 < relative < 1e-7
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticOp(S)


def test_symmetry_check_is_relative_to_each_matrix_scale():
    # entries ~ cosh 18 ~ 3e7: a local rotation leaves round-off asymmetry of ~4e-9
    R = SymplecticOp(np.kron(np.eye(2), rotation(0.3).S))
    probe = probe_tmsdt(9.0, math.pi, 0.0, 0.0, 0.0, 0.0, 0.0)
    V = R.S @ probe.V @ R.S.T
    assert np.abs(V - V.T).max() > 1e-10
    assert np.array_equal(apply(R, probe).V, 0.5 * (V + V.T))
    skewed = V.copy()
    skewed[0, 1] += 1e-8 * np.abs(V).max()
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros(4), skewed)
    # in a stack each matrix is held to its own scale
    small = np.eye(4)
    small[0, 1] += 1e-8
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(np.zeros((2, 4)), np.array([V, small]))


def test_internal_builders_return_exactly_symmetric_covariances():
    """probe_tmsdt, evolve and the displacement model build their states unchecked.

    Their covariances must then be exactly symmetric, over stacks and scalars alike,
    while the public constructor keeps refusing an asymmetric V and a d/V mismatch.
    """

    def symmetric(st):
        return np.array_equal(st.V, st.V.swapaxes(-1, -2))

    r, n_th = np.linspace(0.0, 3.0, 31), np.linspace(0.0, 2.0, 31)
    alpha = (0.3, -0.2, 0.1, 0.4)
    singles = [probe_tmsdt(ri, 2.1, *alpha, ni) for ri, ni in zip(r, n_th)]
    stacks = [
        probe_tmsdt(r, 2.1, *alpha, n_th),
        probe_tmsdt(r, math.pi, *alpha, 0.5),
        probe_tmsdt(1.1, 2.1, *alpha, n_th),
    ]
    assert all(symmetric(st) for st in singles + stacks)
    t, gamma = np.linspace(0.0, 2.0, 31), np.linspace(0.1, 3.0, 31)
    # unequal rates per mode: g V g then rounds differently above and below the diagonal
    per_mode = NoisyChannel(np.array([0.3, 1.7]), np.array([0.7, 0.2]), np.array([0.3 - 0.2j, 0.1]))
    assert all(symmetric(evolve(per_mode, st, t)) for st in singles + stacks)
    for m_e in (0.0, 0.3 - 0.2j):
        channel = NoisyChannel.uniform(2, gamma, 0.7, m_e)
        assert all(symmetric(evolve(channel, st, t)) for st in singles + stacks)
        single = NoisyChannel.uniform(2, 0.9, 0.7, m_e)
        assert all(symmetric(evolve(single, st, 0.4)) for st in singles)
    for channel in (per_mode, NoisyChannel.uniform(2, gamma, 0.7, 0.1j)):
        assert symmetric(displacement_model(stacks[0], channel, t).state([0.4, -0.9]))
    with pytest.raises(ValueError, match="covariance is not symmetric"):
        GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="does not match d"):
        GaussianState(np.zeros((3, 4)), np.eye(4))


def test_rotation_moves_coherent_clockwise():
    phi = 0.7
    st = apply(rotation(phi), coherent(1.0, 0.0))
    assert np.allclose(st.d, [math.cos(phi), -math.sin(phi)])
    assert np.allclose(st.V, np.eye(2))


def test_single_mode_squeezer():
    op = single_mode_squeezer(0.4)
    st = apply(op, vacuum(1))
    assert np.allclose(st.V, np.diag([np.exp(-0.8), np.exp(0.8)]))


def test_two_mode_squeezer_epr_covariance():
    r, phi = 0.4, math.pi
    st = apply(two_mode_squeezer(r, phi), vacuum(2))
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    R = np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]])
    expect = np.block([[c * np.eye(2), s * R], [s * R, c * np.eye(2)]])
    assert np.allclose(st.V, expect, atol=1e-12)
    assert st.physical()


def test_beam_splitter_is_symplectic_and_balanced():
    S = beam_splitter_5050().S
    w = omega(2)
    assert np.allclose(S @ w @ S.T, w, atol=1e-12)
    assert np.allclose(np.abs(S), np.full((4, 4), 1 / math.sqrt(2)) * (np.abs(S) > 0), atol=1e-12)


def test_displacement_only_shifts_means():
    st = apply(displacement_op(0.3, -0.7, mode=1, modes=2), vacuum(2))
    assert np.allclose(st.d, [0.0, 0.0, 0.3, -0.7])
    assert np.array_equal(st.V, np.eye(4))
    with pytest.raises(ValueError):
        displacement_op(1.0, 0.0, mode=2, modes=2)


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(2)
    inner = two_mode_squeezer(0.3, 0.5)
    outer = beam_splitter_5050()
    st = GaussianState(rng.normal(size=4), np.eye(4) * 1.5)
    via_compose = apply(compose(outer, inner), st)
    sequential = apply(outer, apply(inner, st))
    assert np.allclose(via_compose.d, sequential.d, atol=1e-12)
    assert np.allclose(via_compose.V, sequential.V, atol=1e-12)


def test_probe_tmsdt():
    # r = 0 and n_th = 0 reduces to a displaced vacuum pair
    st = probe_tmsdt(0.0, 0.0, 0.2, -0.1, 0.4, 0.3, 0.0)
    assert np.allclose(st.V, np.eye(4))
    assert np.allclose(st.d, [0.2, -0.1, 0.4, 0.3])
    # thermal occupancy scales the covariance of the whole pair
    st2 = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5)
    assert np.allclose(st2.V, 2.0 * probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0).V)
    assert st2.physical()


def test_probe_tmsdt_on_arrays_stacks_the_per_value_probes_bit_for_bit():
    r = np.linspace(0.0, 2.0, 9)
    n_th = np.linspace(0.0, 1.5, 9)
    alpha = (0.3, -0.2, 0.1, 0.4)
    for rs, ns in ((r, 0.3), (0.7, n_th), (r, n_th)):
        stack = probe_tmsdt(rs, 2.1, *alpha, ns)
        assert stack.V.shape == (9, 4, 4) and stack.d.shape == (9, 4)
        for k, (rk, nk) in enumerate(np.broadcast(rs, ns)):
            one = probe_tmsdt(float(rk), 2.1, *alpha, float(nk))
            assert np.array_equal(stack.V[k], one.V) and np.array_equal(stack.d[k], one.d)
            S = two_mode_squeezer(rk, 2.1).S
            assert np.array_equal(one.V, (2.0 * nk + 1.0) * (S @ S.T))
    with pytest.raises(ValueError, match="n_th"):
        probe_tmsdt(r, 0.0, 0, 0, 0, 0, -n_th)


def test_a_deferred_covariance_pickles_as_the_eager_state():
    """A factored state, the probe's and after a factor-keeping channel, survives a pickle
    round trip and a deep copy: d, V and the factor come back bit for bit."""
    for r, n_th in ((0.7, 0.5), (np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.5, 9))):
        probe = probe_tmsdt(r, 2.1, 0.3, -0.2, 0.1, 0.4, n_th)
        for state in (probe, evolve(NoisyChannel.uniform(2, 0.9, 0.7), probe, 0.4)):
            assert state.factor is not None
            for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
                assert vars(twin).keys() == vars(state).keys() == {"d", "V", "factor"}
                for got, want in zip((twin.d, twin.V, *twin.factor), (state.d, state.V, *state.factor)):
                    assert np.array_equal(got, want)


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, 2.1, math.pi, -1.2])
def test_eigenbasis_is_orthogonal_and_symplectic(phi):
    """O^T O = I and O^T Omega O = Omega, so V = O diag(lam) O^T is a Williamson form."""
    O = _eigenbasis(phi)
    np.testing.assert_allclose(O.T @ O, np.eye(4), rtol=0, atol=1e-15)
    np.testing.assert_allclose(O.T @ omega(2) @ O, omega(2), rtol=0, atol=1e-15)


def test_probe_tmsdt_carries_its_eigen_factor():
    """V = O diag(lam) O^T with O orthogonal, cached per phi and read-only.

    lam = tau (e^2r, e^-2r, e^-2r, e^2r) and delta = 4 n_th (1 + n_th) per mode; the public
    constructor and apply give no factor, and the displacement model's states keep the probe's.
    """
    for phi in (math.pi, 0.0, 2.1, -1.2):
        for r, n_th in ((0.4, 0.5), (-0.7, 0.0), (np.linspace(0.0, 2.0, 5), 0.3), (1.1, np.linspace(0.0, 1.0, 3))):
            st = probe_tmsdt(r, phi, 0.3, -0.2, 0.1, 0.4, n_th)
            O, lam, delta = st.factor
            n = np.asarray(n_th)[..., None]
            assert delta.shape == lam.shape[:-1] + (2,)
            np.testing.assert_array_equal(delta, np.broadcast_to(4.0 * n * (1.0 + n), delta.shape))
            assert O is probe_tmsdt(0.0, phi, 0, 0, 0, 0, 0.0).factor[0] and not O.flags.writeable
            np.testing.assert_allclose(O @ O.T, np.eye(4), rtol=0, atol=1e-15)
            e = np.exp(2.0 * np.asarray(r))[..., None]
            tau = (2.0 * np.asarray(n_th) + 1.0)[..., None]
            np.testing.assert_allclose(lam, tau * np.concatenate([e, 1 / e, 1 / e, e], axis=-1), rtol=1e-15)
            scale = np.abs(st.V).max(axis=(-2, -1), keepdims=True)
            assert (np.abs((O * lam[..., None, :]) @ O.T - st.V) <= 4e-16 * scale).all()
    assert GaussianState(st.d, st.V).factor is None
    assert apply(rotation(0.3), GaussianState(np.zeros(2), np.eye(2))).factor is None
    assert apply(two_mode_squeezer(0.2), probe_tmsdt(0.4, 2.1, 0, 0, 0, 0, 0.5)).factor is None
    probe = probe_tmsdt(0.4, 2.1, 0, 0, 0, 0, 0.5)
    assert displacement_model(probe).state([0.1, 0.2]).factor is probe.factor


def test_purity():
    assert purity(vacuum(2)) == pytest.approx(1.0)
    assert purity(thermal(0.5)) == pytest.approx(0.5)
    assert purity(probe_tmsdt(0.4, 0.0, 0, 0, 0, 0, 0.5)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        purity(GaussianState(np.zeros(2), 0.5 * np.eye(2)))


class TestWigner:
    def test_vacuum_peak(self):
        assert wigner_at(vacuum(1), [0.0, 0.0]) == pytest.approx(1.0 / math.pi)
        assert wigner_at(vacuum(2), [0.0] * 4) == pytest.approx(1.0 / math.pi**2)

    def test_peak_follows_displacement(self):
        st = coherent(1.2, -0.4)
        assert wigner_at(st, [1.2, -0.4]) == pytest.approx(1.0 / math.pi)
        assert wigner_at(st, [0.0, 0.0]) < 1.0 / math.pi

    def test_normalization_on_grid(self):
        xs = np.linspace(-7.0, 7.0, 281)
        st = thermal(0.3)
        vals = np.array([[wigner_at(st, [q, p]) for q in xs] for p in xs])
        total = np.trapezoid(np.trapezoid(vals, xs), xs)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCharFn:
    def test_at_origin(self):
        assert char_fn_at(thermal(0.2), [0.0, 0.0]) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        st = coherent(0.7, 0.3)
        xi = np.array([0.4, -1.1])
        assert char_fn_at(st, -xi) == pytest.approx(np.conj(char_fn_at(st, xi)))

    def test_vacuum_gaussian_decay(self):
        xi = np.array([1.0, 0.0])
        # exp(-1/4 |xi|^2) for the vacuum
        assert char_fn_at(vacuum(1), xi) == pytest.approx(math.exp(-0.25))


class TestDuan:
    def test_tmsv_flagged_inseparable(self):
        st = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0)
        res = duan_criterion(st, 1.0)
        assert isinstance(res, DuanResult)
        assert res.inseparable
        assert res.lhs == pytest.approx(2.0 * math.exp(-0.8))
        assert res.rhs == pytest.approx(2.0)

    def test_product_state_not_flagged(self):
        st = thermal(0.3, modes=2)
        res = duan_criterion(st, 1.0)
        assert not res.inseparable
        assert res.lhs >= res.rhs

    def test_asymmetric_gain(self):
        st = probe_tmsdt(0.6, math.pi, 0, 0, 0, 0, 0.0)
        res = duan_criterion(st, 1.3)
        assert res.rhs == pytest.approx(1.3**2 + 1.3**-2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            duan_criterion(vacuum(1), 1.0)
        with pytest.raises(ValueError):
            duan_criterion(vacuum(2), 0.0)

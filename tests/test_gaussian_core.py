import math

import numpy as np
import pytest

from gaussfish.gaussian_core import (
    DuanResult,
    GaussianState,
    SymplecticOp,
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

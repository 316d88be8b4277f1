import math
import warnings

import numpy as np
import pytest

from gaussfish import numkit
from gaussfish.fock_oracle import (
    FockModel,
    cfi_povm,
    check_povm,
    create,
    destroy,
    displacement_family,
    displacement_unitary,
    fock_state,
    num_op,
    phase_family,
    qfim_fock_rld,
    qfim_fock_sld,
    quad_p,
    quad_q,
    qubit_theta_family,
    rld_solve,
    sld_eigenprojector_povm,
    sld_solve,
    squeeze_unitary,
)
from gaussfish.gaussian_core import squeezed_vacuum, thermal, vacuum
from gaussfish.qfi_gaussian import displacement_model, phase_model, qfim_rld, qfim_sld

from linalg_helpers import largest_eig_abs, unvec, vec


def test_ladder_algebra():
    dim = 12
    a, ad = destroy(dim), create(dim)
    comm = a @ ad - ad @ a
    # canonical commutator holds away from the cutoff corner
    assert np.allclose(comm[:-1, :-1], np.eye(dim)[:-1, :-1])
    assert np.allclose(num_op(dim), ad @ a)
    Q, P = quad_q(dim), quad_p(dim)
    qp = Q @ P - P @ Q
    assert np.allclose(qp[:-1, :-1], 2j * np.eye(dim)[:-1, :-1])


def test_coherent_occupation():
    rho = fock_state("coherent", 30, alpha=1.0)
    n = float(np.trace(rho @ num_op(30)).real)
    assert n == pytest.approx(1.0, abs=1e-8)


def test_squeezed_quadrature_variance():
    rho = fock_state("squeezed", 40, r=0.3)
    q2 = float(np.trace(rho @ quad_q(40) @ quad_q(40)).real)
    assert q2 == pytest.approx(math.exp(-0.6), abs=1e-6)
    p2 = float(np.trace(rho @ quad_p(40) @ quad_p(40)).real)
    assert p2 == pytest.approx(math.exp(0.6), abs=1e-6)


def test_thermal_states():
    rho0 = fock_state("thermal", 10, n_th=0.0)
    assert np.allclose(rho0, np.diag([1.0] + [0.0] * 9))
    rho = fock_state("thermal", 60, n_th=0.8)
    assert float(np.trace(rho @ num_op(60)).real) == pytest.approx(0.8, abs=1e-8)


def test_leakage_budget_enforced():
    with pytest.raises(ValueError, match="increase dim"):
        fock_state("coherent", 5, alpha=2.0)
    with pytest.raises(ValueError):
        fock_state("thermal", 6, n_th=3.0)


def test_state_kind_validation():
    with pytest.raises(ValueError):
        fock_state("cat", 10)
    with pytest.raises(TypeError):
        fock_state("vacuum", 10, r=0.3)
    with pytest.raises(ValueError):
        fock_state("vacuum", 2)


def test_unitaries_are_unitary():
    for U in (displacement_unitary(0.7 - 0.2j, 25), squeeze_unitary(0.4, 25)):
        assert np.allclose(U @ U.conj().T, np.eye(25), atol=1e-10)


def test_sld_zero_for_flat_derivative():
    rho = np.eye(4) / 4.0
    L = sld_solve(rho, np.zeros((4, 4)))
    assert np.allclose(L, 0)


def test_sld_solve_residual_random_full_rank():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = b @ b.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        drho = numkit.hermitize(h)
        drho -= np.trace(drho).real * np.eye(6) / 6.0  # traceless like a real derivative
        L = sld_solve(rho, drho)
        assert np.allclose(0.5 * (rho @ L + L @ rho), drho, atol=1e-8)
        assert np.allclose(L, L.conj().T, atol=1e-10)


def test_sld_solve_matches_dense_pseudoinverse():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    rho = b @ b.conj().T
    rho /= np.trace(rho).real
    drho = numkit.hermitize(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    big = np.kron(np.eye(5), rho) + np.kron(rho.T, np.eye(5))
    ref = unvec(2.0 * numkit.pinv(big) @ vec(drho))
    assert np.allclose(sld_solve(rho, drho), ref, atol=1e-9)


def test_rld_solve_on_pure_state():
    # rho L = drho has solutions only on the support; the rest is projected out
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj())
    drho = numkit.hermitize(np.array([[0.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex))
    L = rld_solve(rho, drho)
    resid = rho @ L - drho
    # the support-row part of the equation is satisfied exactly
    assert np.allclose(rho @ numkit.pinv(rho) @ resid, 0, atol=1e-10)
    assert not np.allclose(L, L.conj().T)  # non-Hermitian is expected, not an error


def test_qubit_family_qfi_and_attaining_measurement():
    model = qubit_theta_family()
    for th in (0.0, 0.6, 2.0):
        F = qfim_fock_sld(model, [th])
        assert F[0, 0] == pytest.approx(0.25, abs=1e-10)
        L = sld_solve(model.rho([th]), model.derivatives([th])[0])
        povm = sld_eigenprojector_povm(L)
        check_povm(povm, 2)
        C = cfi_povm(model, [th], povm)
        assert C[0, 0] == pytest.approx(0.25, abs=1e-8)
    # hand check against Tr[rho L^2]
    L = sld_solve(model.rho([0.6]), model.derivatives([0.6])[0])
    assert float(np.trace(model.rho([0.6]) @ L @ L).real) == pytest.approx(0.25, abs=1e-10)


def test_displacement_family_matches_moment_formulas():
    g = qfim_sld(displacement_model(vacuum(1)), [0, 0])
    f = qfim_fock_sld(displacement_family(fock_state("vacuum", 30)), [0, 0])
    assert np.allclose(g, f, atol=1e-6)
    g = qfim_sld(displacement_model(thermal(0.4)), [0, 0])
    f = qfim_fock_sld(displacement_family(fock_state("thermal", 40, n_th=0.4)), [0, 0])
    assert np.allclose(g, f, atol=1e-6)


def test_displacement_family_matches_away_from_origin():
    g = qfim_sld(displacement_model(thermal(0.25)), [0.4, -0.3])
    f = qfim_fock_sld(
        displacement_family(fock_state("thermal", 40, n_th=0.25)), [0.4, -0.3]
    )
    assert np.allclose(g, f, atol=1e-6)


def test_rld_cross_check_displaced_thermal():
    g = qfim_rld(displacement_model(thermal(0.4)), [0, 0])
    f = qfim_fock_rld(displacement_family(fock_state("thermal", 40, n_th=0.4)), [0, 0])
    assert np.allclose(g, f, atol=1e-6)


def test_phase_family_matches_moment_formulas():
    g = qfim_sld(phase_model(squeezed_vacuum(0.3)), [0.0])
    f = qfim_fock_sld(phase_family(fock_state("squeezed", 50, r=0.3)), [0.0])
    assert np.allclose(g, f, atol=1e-8)
    # finite-difference derivative path agrees with the analytic commutator
    fd = qfim_fock_sld(phase_family(fock_state("squeezed", 50, r=0.3), analytic=False), [0.0])
    assert np.allclose(fd, f, atol=1e-5)


def test_sld_povm_attains_scalar_qfi_phase_family():
    model = phase_family(fock_state("squeezed", 30, r=0.2))
    F = qfim_fock_sld(model, [0.0])
    L = sld_solve(model.rho([0.0]), model.derivatives([0.0])[0])
    povm = sld_eigenprojector_povm(L)
    check_povm(povm, 30)
    C = cfi_povm(model, [0.0], povm)
    assert C[0, 0] == pytest.approx(F[0, 0], rel=1e-6)


def _random_model_and_povm(rng, dim, n_out):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = b @ b.conj().T
    rho0 /= np.trace(rho0).real
    G = numkit.hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def rho_fn(theta):
        w, U = np.linalg.eigh(G)
        ph = np.exp(-1j * theta[0] * w)
        Ut = (U * ph) @ U.conj().T
        return Ut @ rho0 @ Ut.conj().T

    model = FockModel(rho_fn, n_params=1)
    raw = []
    for _ in range(n_out - 1):
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(c @ c.conj().T)
    total = sum(raw)
    scale = largest_eig_abs(total) * 1.2
    povm = [el / scale for el in raw]
    povm.append(np.eye(dim) - sum(povm))
    return model, povm


def test_povm_information_never_exceeds_qfi():
    rng = np.random.default_rng(31)
    for _ in range(60):
        dim = int(rng.integers(2, 6))
        model, povm = _random_model_and_povm(rng, dim, int(rng.integers(2, 5)))
        check_povm(povm, dim)
        F = qfim_fock_sld(model, [0.3])
        C = cfi_povm(model, [0.3], povm)
        assert C[0, 0] <= F[0, 0] + 1e-9


def test_scalar_rld_dominates_sld_information():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        model, _ = _random_model_and_povm(rng, dim, 2)
        F_s = qfim_fock_sld(model, [0.1])[0, 0]
        F_r = float(qfim_fock_rld(model, [0.1])[0, 0].real)
        assert F_r >= F_s - 1e-8


def test_check_povm_rejects_bad_input():
    with pytest.raises(ValueError):
        check_povm([np.eye(2), np.eye(2)], 2)  # sums to 2I
    with pytest.raises(ValueError):
        check_povm([np.array([[0.5, 0.3], [0.0, 0.5]]), np.array([[0.5, 0.0], [0.0, 0.5]])], 2)
    with pytest.raises(ValueError):
        check_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], 2)


def test_cfi_povm_negative_probability_raises():
    model = qubit_theta_family()
    with pytest.raises(ValueError):
        cfi_povm(model, [0.5], [-np.eye(2), 2 * np.eye(2)])


def test_cfi_povm_warns_on_informative_dropped_outcome():
    model = qubit_theta_family()
    # outcome probability sits just under the floor while its derivative does
    # not: that is the case worth warning about
    th = 0.8
    c, s = np.cos(th / 4), np.sin(th / 4)
    perp = np.array([-s, c], dtype=complex)
    povm = [np.outer(perp, perp.conj()), np.eye(2) - np.outer(perp, perp.conj())]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        cfi_povm(model, [th + 2e-6], povm)
        assert any("derivative weight" in str(r.message) for r in rec)


def test_fock_model_validation():
    model = qubit_theta_family()
    with pytest.raises(ValueError):
        model.rho([0.1, 0.2])

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gaussfish import numkit
from gaussfish.channels import NoisyChannel
from gaussfish.gaussian_core import (
    GaussianState,
    apply,
    coherent,
    omega,
    probe_tmsdt,
    rotation,
    single_mode_squeezer,
    squeezed_vacuum,
    thermal,
    two_mode_squeezer,
    vacuum,
)
from gaussfish.fock_oracle import (
    FockModel,
    destroy,
    fock_state,
    num_op,
    qfim_fock_sld,
    sld_solve,
    squeeze_unitary,
)
from gaussfish.qfi_gaussian import (
    GaussianModel,
    PointMoments,
    bound_chain,
    displacement_model,
    evaluate,
    incompatibility,
    phase_model,
    qfim_report,
    qfim_rld,
    qfim_sld,
    quantumness,
    rld_components,
    rld_inverse_limit,
    sld_components,
    williamson,
)

from linalg_helpers import vec


def test_displacement_qfim_vacuum_and_thermal():
    assert np.allclose(qfim_sld(displacement_model(vacuum(1)), [0, 0]), 2 * np.eye(2), atol=1e-12)
    tau = 1 + 2 * 0.4
    F = qfim_sld(displacement_model(thermal(0.4)), [0.3, -0.2])
    assert np.allclose(F, (2 / tau) * np.eye(2), atol=1e-12)


def test_displacement_qfim_through_channel():
    ch = NoisyChannel.uniform(1, 1.0, 0.5)
    t = 0.3
    F = qfim_sld(displacement_model(thermal(0.2), ch, t), [0, 0])
    # means decay like e^{-gamma t / 2}; covariance relaxes toward 1 + 2 n_e
    x = math.exp(1.0 * t)
    v = (1 + 2 * 0.2) / x + (1 - 1 / x) * (1 + 2 * 0.5)
    assert np.allclose(F, (2 / (x * v)) * np.eye(2), atol=1e-12)


def test_phase_qfim_coherent_and_squeezed():
    q, p = 1.1, -0.7
    F = qfim_sld(phase_model(coherent(q, p)), [0.4])
    assert F[0, 0] == pytest.approx(2 * (q * q + p * p), abs=1e-10)
    r = math.asinh(1.0)  # sinh^2 r = 1
    F2 = qfim_sld(phase_model(squeezed_vacuum(r)), [0.0])
    assert F2[0, 0] == pytest.approx(16.0, abs=1e-10)
    # invariant under the rotation itself
    F3 = qfim_sld(phase_model(squeezed_vacuum(r)), [1.2])
    assert F3[0, 0] == pytest.approx(F2[0, 0], abs=1e-10)


def test_sld_components_satisfy_lyapunov_equation():
    # mixed, anisotropic probe so the covariance derivative is nontrivial
    probe = apply(single_mode_squeezer(0.4), thermal(0.1))
    model = phase_model(probe)
    st = model.state([0.5])
    dds, dVs = model.derivatives([0.5])
    comp = sld_components(model, [0.5], 0)
    Om = omega(1)
    assert np.allclose(st.V @ comp.l2 @ st.V + Om @ comp.l2 @ Om, dVs[0], atol=1e-10)
    assert np.allclose(comp.l2, comp.l2.T, atol=1e-12)
    # first-moment part for a means-only model
    dm = displacement_model(thermal(0.4))
    c2 = sld_components(dm, [0.2, -0.1], 0)
    st2 = dm.state([0.2, -0.1])
    assert np.allclose(c2.l2, 0, atol=1e-12)
    assert np.allclose(c2.l1, 2 * np.linalg.inv(st2.V) @ [1, 0], atol=1e-12)
    assert c2.l0 == pytest.approx(-float(st2.d @ c2.l1), abs=1e-12)


def test_sld_l2_matches_dense_least_squares():
    model = phase_model(squeezed_vacuum(0.6))
    st = model.state([0.3])
    _, dVs = model.derivatives([0.3])
    Om = omega(1)
    sig = np.kron(st.V, st.V) - np.kron(Om, Om)
    ref, *_ = np.linalg.lstsq(sig, vec(dVs[0]), rcond=None)
    comp = sld_components(model, [0.3], 0)
    assert np.allclose(vec(comp.l2), ref, atol=1e-9)


def test_rld_components_solve_their_equation():
    model = displacement_model(thermal(0.4))
    comp = rld_components(model, [0.1, 0.2], 1)
    st = model.state([0.1, 0.2])
    M = st.V + 1j * omega(1)
    # means-only family: l2 = 0 and M l1 = 2 dd
    assert np.allclose(comp.l2, 0, atol=1e-12)
    assert np.allclose(M @ comp.l1, 2 * np.array([0, 1]), atol=1e-10)
    ph = phase_model(apply(single_mode_squeezer(0.3), thermal(0.5)))
    c2 = rld_components(ph, [0.1], 0)
    st2 = ph.state([0.1])
    _, dVs = ph.derivatives([0.1])
    M2 = st2.V + 1j * omega(1)
    assert np.allclose(M2 @ c2.l2 @ np.conj(M2), dVs[0], atol=1e-9)


def test_rld_qfim_displaced_thermal_closed_form():
    tau = 1 + 2 * 0.4
    F = qfim_rld(displacement_model(thermal(0.4)), [0, 0])
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    expect = 2 * (tau * np.eye(2) - 1j * w) / (tau**2 - 1)
    assert np.allclose(F, expect, atol=1e-12)
    assert np.allclose(F, F.conj().T, atol=1e-14)


def test_incompatibility_vacuum_pair():
    U = incompatibility(displacement_model(vacuum(1)), [0, 0])
    assert np.allclose(U, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-12)
    # single-parameter families have a vanishing 1x1 curvature
    U1 = incompatibility(phase_model(squeezed_vacuum(0.5)), [0.2])
    assert np.allclose(U1, 0, atol=1e-12)


def test_single_parameter_report_has_exactly_no_incompatibility_penalty():
    # U = 0 exactly, so R_Q is 0.0 and the Holevo-type bounds equal b_s, bit for bit
    for probe in (squeezed_vacuum(0.5), coherent(0.7, 0.2), thermal(0.4)):
        rep = qfim_report(phase_model(probe), [0.3])
        assert rep.r_q == 0.0
        assert rep.b_h_mid == rep.b_h_upper == rep.b_s


def test_quantumness_values():
    assert quantumness(2 * np.eye(2), np.zeros((2, 2))) == 0.0
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert quantumness(2 * np.eye(2), 2 * w) == pytest.approx(1.0)
    assert quantumness(2 * np.eye(2), 1.2 * w) == pytest.approx(0.6)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        val = quantumness(np.eye(2), 4 * w)
        assert val == pytest.approx(4.0)
        assert any("exceeds 1" in str(r.message) for r in rec)


def test_bound_chain_displaced_thermal_rld_equals_upper():
    # for displaced thermal probes the RLD bound saturates the upper bound
    probe = probe_tmsdt(0.0, math.pi, 0.3, -0.2, 0.1, 0.4, 0.5)
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    model = displacement_model(probe, ch, 0.3)
    rep = qfim_report(model, [0, 0])
    assert rep.b_r == pytest.approx(rep.b_h_upper, abs=1e-9)
    assert rep.b_h_mid == pytest.approx(rep.b_h_upper, abs=1e-9)


def test_bound_chain_ordering_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(20):
        r = rng.uniform(0, 1.2)
        n_th = rng.uniform(0, 0.8)
        probe = probe_tmsdt(r, rng.uniform(0, 2 * math.pi), 0, 0, 0, 0, n_th)
        ch = NoisyChannel.uniform(2, rng.uniform(0.1, 2.0), rng.uniform(0, 1.0))
        model = displacement_model(probe, ch, rng.uniform(0.0, 1.5))
        rep = qfim_report(model, [0, 0])
        assert 0.0 <= rep.r_q <= 1.0 + 1e-8
        assert max(rep.b_r, rep.b_s) <= rep.b_h_mid + 1e-9
        assert rep.b_h_mid <= rep.b_h_upper + 1e-9
        assert rep.b_h_upper <= 2 * rep.b_s + 1e-9


def test_bound_chain_weight_matrix():
    model = displacement_model(thermal(0.3))
    f = qfim_sld(model, [0, 0])
    u = incompatibility(model, [0, 0])
    inv = rld_inverse_limit(model, [0, 0])
    W = np.diag([2.0, 1.0])
    ch = bound_chain(f, u, rld_inverse=inv, weight=W)
    tau = 1 + 2 * 0.3
    assert ch.b_s == pytest.approx(3.0 * tau / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        bound_chain(f, u, rld_inverse=inv, weight=np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError):
        bound_chain(f, u, rld_inverse=inv, weight=np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_bound_chain_requires_the_limiting_rld_inverse():
    """The old positional form (f_sld, f_rld, u) and a missing rld_inverse raise, not a naive pinv."""
    model = displacement_model(thermal(0.3))
    f, fr, u = qfim_sld(model, [0, 0]), qfim_rld(model, [0, 0]), incompatibility(model, [0, 0])
    with pytest.raises(TypeError):
        bound_chain(f, fr, u)
    with pytest.raises(TypeError):
        bound_chain(f, u)
    with pytest.raises(TypeError):
        rld_inverse_limit(model, [0, 0], fr)


def test_rld_inverse_limit_vacuum_pair():
    model = displacement_model(vacuum(1))
    inv = rld_inverse_limit(model, [0, 0])
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(inv, (np.eye(2) + 1j * w) / 2.0, atol=1e-10)
    # trace + absolute antisymmetric part = 2, matching the known bound
    b_r = float(np.trace(inv.real)) + numkit.trace_abs(inv.imag)
    assert b_r == pytest.approx(2.0, abs=1e-10)


def test_rld_inverse_limit_pure_squeezed_pair_collapses():
    probe = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0)
    model = displacement_model(probe)  # no channel: the probe stays pure
    inv = rld_inverse_limit(model, [0, 0])
    assert np.allclose(inv, 0, atol=1e-12)


def test_rld_inverse_limit_regular_model_matches_pinv():
    model = displacement_model(thermal(0.4))
    inv = rld_inverse_limit(model, [0, 0])
    assert np.allclose(inv, numkit.pinv(qfim_rld(model, [0, 0])), atol=1e-10)


def test_fd_derivatives_match_analytic_hooks():
    ch = NoisyChannel.uniform(1, 0.8, 0.3)
    model = displacement_model(thermal(0.2), ch, 0.4)
    dds_a, dVs_a = model.derivatives([0.1, -0.2])
    dds_f, dVs_f = model.fd_derivatives([0.1, -0.2])
    for a, f in zip(dds_a, dds_f):
        assert np.allclose(a, f, atol=1e-8)
    for a, f in zip(dVs_a, dVs_f):
        assert np.allclose(a, f, atol=1e-8)


def test_fd_error_scales_quadratically():
    model = phase_model(squeezed_vacuum(0.7))
    dds_a, dVs_a = model.derivatives([0.3])

    def err(h):
        _, dVs = model.fd_derivatives([0.3], step=h)
        return np.max(np.abs(dVs[0] - dVs_a[0]))

    e1, e2 = err(1e-3), err(1e-4)
    assert e2 < e1 / 50.0  # near h^2 scaling


def test_reparametrization_covariance():
    J = np.array([[2.0, 1.0], [0.0, 3.0]])
    base = displacement_model(thermal(0.3))
    reparam = GaussianModel(lambda th: base.state(J @ th), n_params=2)
    F_base = qfim_sld(base, [0, 0])
    F_new = qfim_sld(reparam, [0, 0])
    assert np.allclose(F_new, J.T @ F_base @ J, atol=1e-6)


def test_block_additivity_spectator_mode():
    # a spectator mode leaves the displacement QFIM of mode 0 unchanged
    V = np.block(
        [[thermal(0.4).V, np.zeros((2, 2))], [np.zeros((2, 2)), squeezed_vacuum(0.5).V]]
    )
    probe = GaussianState(np.zeros(4), V)
    F = qfim_sld(displacement_model(probe), [0, 0])
    F_single = qfim_sld(displacement_model(thermal(0.4)), [0, 0])
    assert np.allclose(F, F_single, atol=1e-12)


def test_model_parameter_count_enforced():
    model = displacement_model(vacuum(1))
    with pytest.raises(ValueError):
        model.state([0.1])
    with pytest.raises(ValueError):
        phase_model(vacuum(2))


def test_report_is_consistent_with_parts():
    probe = probe_tmsdt(0.3, math.pi, 0, 0, 0, 0, 0.2)
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    model = displacement_model(probe, ch, 0.25)
    rep = qfim_report(model, [0, 0])
    assert np.allclose(rep.f_sld, qfim_sld(model, [0, 0]), atol=1e-12)
    assert np.allclose(rep.f_rld, qfim_rld(model, [0, 0]), atol=1e-12)
    assert np.allclose(rep.u, incompatibility(model, [0, 0]), atol=1e-12)
    chain = bound_chain(rep.f_sld, rep.u, rld_inverse=rld_inverse_limit(model, [0, 0]))
    assert rep.b_s == pytest.approx(chain.b_s)
    assert rep.b_r == pytest.approx(chain.b_r)
    assert rep.b_h_mid == pytest.approx(chain.b_h_mid)
    assert rep.b_h_upper == pytest.approx(chain.b_h_upper)
    d = rep.to_dict()
    assert d["b_s"] == rep.b_s and len(d["f_sld"]) == 2


def _squeezed_thermal_phase_squeeze(n_th):
    """Phase theta0 and squeezing theta1 of a single-mode squeezed-thermal state.

    V(theta) = tau R(theta0) diag(e^{-2 theta1}, e^{2 theta1}) R(theta0)^T, d = 0,
    so both parameters live in the covariance (dV != 0).
    """
    tau = 1.0 + 2.0 * n_th
    om = omega(1)

    def cov(theta):
        R = rotation(theta[0]).S
        sq = np.array([math.exp(-2.0 * theta[1]), math.exp(2.0 * theta[1])])
        return R, tau * (R * sq) @ R.T, tau * (R * (2.0 * sq * (-1.0, 1.0))) @ R.T

    def v_derivs(theta):
        _, V, dV_sq = cov(theta)
        return [om @ V - V @ om, dV_sq]

    return GaussianModel(
        lambda theta: GaussianState(np.zeros(2), cov(theta)[1]),
        n_params=2,
        d_derivs=lambda theta: [np.zeros(2), np.zeros(2)],
        v_derivs=v_derivs,
    )


def _fock_phase_squeeze(n_th, dim):
    """Number-basis twin: e^{-i theta0 n} S(theta1) rho_th S^dag e^{i theta0 n}."""
    rho_th = fock_state("thermal", dim, n_th=n_th)
    a = destroy(dim).astype(complex)
    K = 0.5 * (a @ a - a.T.conj() @ a.T.conj())  # squeeze_unitary(r) = expm(r K)
    n_op = num_op(dim)
    phase = np.arange(dim)

    def rotate(m, phi):
        ph = np.exp(-1j * phi * phase)
        return (ph[:, None] * m) * np.conj(ph)[None, :]

    def rho_fn(theta):
        S = squeeze_unitary(theta[1], dim)
        return rotate(S @ rho_th @ S.conj().T, theta[0])

    def drho_fn(theta):
        rho = rho_fn(theta)
        k_rot = rotate(K, theta[0])
        return [-1j * (n_op @ rho - rho @ n_op), k_rot @ rho - rho @ k_rot]

    return FockModel(rho_fn, 2, drho_fn=drho_fn)


def test_incompatibility_with_covariance_derivatives_matches_fock_oracle():
    theta = np.array([0.1, 0.4])
    model = _squeezed_thermal_phase_squeeze(0.3)
    fm = _fock_phase_squeeze(0.3, 80)
    rho = fm.rho(theta)
    L0, L1 = [sld_solve(rho, d) for d in fm.derivatives(theta)]
    u01_fock = float(np.trace(rho @ L0 @ L1).imag)
    rep = qfim_report(model, theta)
    assert rep.u[0, 1] == pytest.approx(u01_fock, abs=1e-8)
    assert np.allclose(rep.f_sld, qfim_fock_sld(fm, theta), atol=1e-8)
    assert 0.0 <= rep.r_q <= 1.0
    assert max(rep.b_s, rep.b_r) <= rep.b_h_mid + 1e-9
    assert rep.b_h_mid <= rep.b_h_upper + 1e-9
    assert rep.b_h_upper <= 2 * rep.b_s + 1e-9


@pytest.mark.parametrize(
    "model, theta",
    [
        (phase_model(squeezed_vacuum(0.5)), [0.2]),
        (_squeezed_thermal_phase_squeeze(0.3), [0.1, 0.4]),
    ],
    ids=["phase_squeezed", "phase_squeeze_thermal"],
)
def test_report_matches_standalone_functions_with_covariance_derivatives(model, theta):
    rep = qfim_report(model, theta)
    f_rld = qfim_rld(model, theta)
    assert np.array_equal(rep.f_sld, qfim_sld(model, theta))
    assert np.array_equal(rep.f_rld, f_rld)
    assert np.array_equal(rep.u, incompatibility(model, theta))
    chain = bound_chain(rep.f_sld, rep.u, rld_inverse=rld_inverse_limit(model, theta))
    assert rep.b_r == chain.b_r


def test_point_moments_skip_kron_solves_only_when_every_dv_vanishes():
    probe = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.2)
    pt = evaluate(displacement_model(probe, NoisyChannel.uniform(2, 1.0, 0.5), 0.3), [0, 0])
    assert evaluate(pt) is pt
    with pytest.raises(TypeError):
        evaluate(displacement_model(vacuum(1)))


def _kron_oracle(pt):
    """F_S, F_R, U and pinv(F_R) from the kron-matrix pseudo-inverses.

    With Sigma = V (x) V - Om (x) Om and M = V + i Om:
    F_S = 1/2 vec[dV]^T Sigma^+ vec[dV] + 2 dd^T V^-1 dd,
    F_R = 1/2 vec[dV]^H (M (x) M)^+ vec[dV] + 2 dd^T M^+ dd,
    U   = vec[dV]^T Sigma^+ (V (x) Om) Sigma^+ vec[dV] + 2 dd^T V^-1 Om V^-1 dd.
    """
    V, Om = pt.st.V, omega(pt.st.modes)
    M = V + 1j * Om
    v_inv = np.linalg.inv(V)
    sig_p = np.linalg.pinv(np.kron(V, V) - np.kron(Om, Om))
    mid = sig_p @ np.kron(V, Om) @ sig_p
    kron_m_p = np.linalg.pinv(np.kron(M, M))
    dds = np.column_stack(pt.dds)
    vecs = np.column_stack([vec(dV) for dV in pt.dVs])
    f_s = 2.0 * dds.T @ v_inv @ dds + 0.5 * vecs.T @ sig_p @ vecs
    f_r = 2.0 * dds.T @ np.linalg.pinv(M) @ dds + 0.5 * vecs.T @ kron_m_p @ vecs
    u = 2.0 * dds.T @ v_inv @ Om @ v_inv @ dds + vecs.T @ mid @ vecs
    return f_s, f_r, 0.5 * (u - u.T), np.linalg.pinv(f_r)


def _random_point(rng, modes, n_params=3):
    """A random physical mixed state with random first- and second-moment derivatives."""
    H = rng.normal(size=(2 * modes, 2 * modes))
    H = H + H.T
    S = expm(omega(modes) @ (0.5 * H / np.linalg.norm(H, 2)))
    V = (S * np.repeat(rng.uniform(1.2, 2.5, modes), 2)) @ S.T
    st = GaussianState(rng.normal(size=2 * modes), 0.5 * (V + V.T))
    dds = [rng.normal(size=2 * modes) for _ in range(n_params)]
    dVs = [a + a.T for a in rng.normal(size=(n_params, 2 * modes, 2 * modes))]
    return evaluate(GaussianModel(lambda th: st, n_params, lambda th: dds, lambda th: dVs), np.zeros(n_params))


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_williamson_basis_matches_kron_oracle(modes):
    rng = np.random.default_rng(100 + modes)
    points = [_random_point(rng, modes) for _ in range(5)]
    V = np.array([pt.st.V for pt in points])
    M, s = V + 1j * omega(modes), np.tile([1.0, -1.0], modes)
    # T (V + i Omega) T^H = diag(nu + s), for the (K, 2N, 2N) stack and for each point alone
    for m, (nu, Z) in [(M, williamson(V))] + [(m, williamson(v)) for m, v in zip(M, V)]:
        T = np.empty(m.shape, dtype=complex)
        T[..., 0::2, :], T[..., 1::2, :] = Z, np.conj(Z)
        lam = np.repeat(nu, 2, axis=-1) + s
        assert np.max(np.abs(T @ m @ numkit.adjoint(T) - lam[..., None] * np.eye(2 * modes))) <= 1e-12
    for pt in points:
        got = (qfim_sld(pt), qfim_rld(pt), incompatibility(pt), rld_inverse_limit(pt))
        for new, ref in zip(got, _kron_oracle(pt)):
            assert np.max(np.abs(new - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_th", [0.0, 1e-9, 1e-6])
def test_incompatibility_near_pure_matches_fock_oracle(n_th):
    theta = np.array([0.1, 0.4])
    fm = _fock_phase_squeeze(n_th, 80)
    rho = fm.rho(theta)
    L0, L1 = [sld_solve(rho, d) for d in fm.derivatives(theta)]
    u01_fock = float(np.trace(rho @ L0 @ L1).imag)
    rep = qfim_report(_squeezed_thermal_phase_squeeze(n_th), theta)
    assert rep.u[0, 1] == pytest.approx(u01_fock, abs=1e-8)
    assert 0.0 <= rep.r_q <= 1.0


@pytest.mark.parametrize(
    "V, match",
    [
        (0.5 * np.eye(2), "unphysical"),
        (np.diag([2.0, -1.0]), "positive definite"),
        (np.diag([1.0, np.nan]), "not finite"),
    ],
    ids=["below_uncertainty", "indefinite", "not_finite"],
)
def test_unphysical_covariance_raises(V, match):
    with pytest.raises(ValueError, match=match):
        williamson(V)
    model = GaussianModel(lambda th: GaussianState(np.zeros(2), V), 2)
    with pytest.raises(ValueError, match=match):
        qfim_report(model, [0.0, 0.0])


def _stack_points(points):
    """One stacked PointMoments from per-point ones of the same model shape."""
    st = GaussianState(np.array([pt.st.d for pt in points]), np.array([pt.st.V for pt in points]))
    n_params = points[0].n_params
    dds = [np.array([pt.dds[mu] for pt in points]) for mu in range(n_params)]
    dVs = [np.array([pt.dVs[mu] for pt in points]) for mu in range(n_params)]
    return PointMoments(st, dds, dVs, n_params)


def test_stacked_information_layer_matches_each_point(monkeypatch):
    """rld_inverse_limit cuts rank per point: a stack of ranks 2, 1 and 0 equals its points.

    The whole stack, whatever its ranks, is one pinv_gram call.
    """
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    points = [
        evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0), ch, 0.0), [0, 0]),  # rank 2
        evaluate(displacement_model(probe_tmsdt(0.0, math.pi, 0.3, -0.2, 0.1, 0.4, 0.0), ch, 0.0), [0, 0]),  # rank 1
        evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5), ch, 0.3), [0, 0]),  # rank 0
        evaluate(displacement_model(probe_tmsdt(0.8, math.pi, 0, 0, 0, 0, 0.0), ch, 0.0), [0, 0]),  # rank 2
    ]
    stack = _stack_points(points)
    calls = []
    pinv_gram = numkit.pinv_gram
    monkeypatch.setattr(numkit, "pinv_gram", lambda *a, **kw: calls.append(a[0].shape) or pinv_gram(*a, **kw))
    limits = rld_inverse_limit(stack)
    monkeypatch.undo()
    assert calls == [(4, 8, 2)]
    assert limits.shape == (4, 2, 2)
    assert not np.any(limits[0]) and not np.any(limits[3])
    assert np.linalg.matrix_rank(limits[1]) == 1 and np.linalg.matrix_rank(limits[2]) == 2
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    rep = qfim_report(stack, weight=W)
    for k, pt in enumerate(points):
        np.testing.assert_allclose(limits[k], rld_inverse_limit(pt), rtol=1e-12, atol=1e-15)
        one = qfim_report(pt, weight=W)
        for name in ("f_sld", "f_rld", "u", "b_s", "b_r", "b_h_mid", "b_h_upper", "r_q"):
            np.testing.assert_allclose(getattr(rep, name)[k], getattr(one, name), rtol=1e-12, atol=0, err_msg=name)


def test_stacked_rld_inverse_keeps_each_points_own_pinv_cutoff():
    """A point's pinv cutoff counts its own nonzero rows, not the rows its stack keeps.

    Point b displaces mode 1 only, so its four mode-2 rows vanish, while point a
    keeps all eight rows of the stack live.  b's two displacements differ by
    3e-15, which puts the small singular value of its C at about 6 eps times
    the largest: above b's own cutoff (4 rows) and below an 8-row one.  That
    value carries a round-off of about eps times the largest, so the stacked
    and the single inverse, about 1e29, agree to tens of percent; a dropped
    direction would leave entries near 1.
    """
    V = 3.0 * np.eye(4)
    zero = np.zeros((4, 4))

    def point(dd1, dd2):
        return PointMoments(GaussianState(np.zeros(4), V), [np.array(dd1), np.array(dd2)], [zero, zero], 2)

    a = point([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    b = point([1.0, 0.0, 0.0, 0.0], [1.0, 3e-15, 0.0, 0.0])
    alone = rld_inverse_limit(b)
    stacked = rld_inverse_limit(_stack_points([a, b]))
    assert np.max(np.abs(alone)) > 1e25 and np.max(np.abs(stacked[1])) > 1e25
    np.testing.assert_allclose(stacked[1], alone, rtol=0.5)
    np.testing.assert_allclose(stacked[0], rld_inverse_limit(a), rtol=1e-12)


def _every_pair_reference(pt):
    """F_S, F_R, U and the limiting RLD inverse of a one-point PointMoments over all (n+1)^2 pairs.

    The coefficients k_mu = vec(T D_mu T^T) of the full augmented matrix
    D_mu = [[dV_mu, dd_mu], [dd_mu^T, 0]], zero rows included, with the weights
    of the module docstring on every pair; the limiting inverse is
    Q pinv(C Q) (Q pinv(C Q))^H with Q the right-singular vectors of the
    out-of-range rows A past their rank.
    """
    T, nu, s = pt.normal_modes
    n, p = nu.size - 1, pt.n_params
    D = np.zeros((p, n + 1, n + 1))
    D[:, :n, :n] = pt.dVs
    D[:, :n, n] = D[:, n, :n] = pt.dds
    K = (T @ D @ T.T).reshape(p, -1).T
    nu_a, nu_b, s_a, s_b = nu[:, None], nu[None, :], s[:, None], s[None, :]
    with np.errstate(divide="ignore"):
        g = np.where(nu_a * nu_b + s_a * s_b == 0, 0.0, 1.0 / (nu_a * nu_b + s_a * s_b))
        w_r = 0.5 / ((nu_a + s_a) * (nu_b + s_b))
    w = {"sld": 0.5 * g, "rld": w_r, "u": -0.5j * (s_a * nu_b + nu_a * s_b) * g * g}
    w = {kind: wk.reshape(-1) for kind, wk in w.items()}

    def gram(weight):
        return K.conj().T @ (weight[:, None] * K)

    out = np.isinf(w["rld"])
    C = np.sqrt(np.where(out, 0.0, w["rld"]))[:, None] * K
    A = K[out]
    f_r = C.conj().T @ C
    Q = np.eye(p)
    if A.size:
        _, sv, vh = np.linalg.svd(A)
        rank = int((sv > 1e-10 * np.abs(K).max()).sum())
        Q = vh.conj().T[:, rank:]
    P = Q @ np.linalg.pinv(C @ Q)
    u = gram(w["u"]).real
    return {
        "f_sld": gram(w["sld"]).real,
        "f_rld": f_r,
        "u": 0.5 * (u - u.T),
        "rld_inverse_limit": P @ P.conj().T,
        "layout": (T, K, w),
    }


def _reference_components(pt, kind, mu):
    """(l0, l1, l2) from the weighted coefficients laid out over all (n+1)^2 pairs."""
    T, K, w = _every_pair_reference(pt)["layout"]
    x = 2.0 * np.where(np.isinf(w[kind]), 0.0, w[kind]) * K[:, mu]
    X = np.conj(T.T) @ x.reshape(T.shape) @ np.conj(T)
    l2, d = X[:-1, :-1], pt.st.d
    l1 = X[:-1, -1] - 2.0 * l2 @ d
    return -0.5 * np.trace(pt.st.V @ l2) - d @ l1 - d @ l2 @ d, l1, l2


def _random_stack(seed, dv_at):
    """Random two-mode points, three parameters each, with dV kept only where dv_at is True."""
    rng = np.random.default_rng(seed)
    points = []
    for keep in dv_at:
        pt = _random_point(rng, 2)
        dVs = list(pt.dVs) if keep else [np.zeros_like(dV) for dV in pt.dVs]
        points.append(PointMoments(pt.st, list(pt.dds), dVs, pt.n_params))
    return points


def _displacement_points():
    """Displacement-model points with pure (t = 0) and mixed states, dV = 0."""
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    return [
        evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0), ch, 0.0), [0, 0]),
        evaluate(displacement_model(probe_tmsdt(0.0, math.pi, 0.3, -0.2, 0.1, 0.4, 0.0), ch, 0.0), [0, 0]),
        evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5), ch, 0.3), [0, 0]),
    ]


def test_displacement_stack_keeps_exactly_its_border_rows():
    """dV = 0 forms no second-moment block: the rows are (a, extra) and (extra, a), a < 2N.

    The s = -1 rows (odd a), whose RLD weight is the largest near a pure mode, come first.
    """
    probe = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5)
    pt = evaluate(displacement_model(probe, NoisyChannel.uniform(2, 1.0, 0.5), np.linspace(0.0, 1.0, 5)), [0, 0])
    K, (ia, ib), w = pt.rows
    n = 4
    assert K.shape == (5, 2 * n, 2)
    assert ia.tolist() == [1, 3, n, n, 0, 2, n, n] and ib.tolist() == [n, n, 1, 3, n, n, 0, 2]
    assert all(wk.shape == (5, 2 * n) for wk in w.values())
    pairs = list(zip(ia.tolist(), ib.tolist()))
    mirror = [pairs.index((b, a)) for a, b in pairs]
    assert np.array_equal(K, K[:, mirror])  # the border is one vector T_n dd_mu, read twice


@pytest.mark.parametrize(
    "points",
    [
        pytest.param(lambda: _random_stack(7, [True] * 4), id="dv_everywhere"),
        pytest.param(lambda: _random_stack(8, [False] * 4), id="dv_zero"),
        pytest.param(lambda: _random_stack(9, [False, True, False, True]), id="dv_at_some_points"),
        pytest.param(_displacement_points, id="displacement_with_pure_points"),
    ],
)
def test_live_rows_match_every_pair_reference(points):
    """The live-row layer equals the full vec(T D T^T) layout, point by point and stacked."""
    points = points()
    stack = _stack_points(points)
    stacked = {
        "f_sld": qfim_sld(stack),
        "f_rld": qfim_rld(stack),
        "u": incompatibility(stack),
        "rld_inverse_limit": rld_inverse_limit(stack),
    }
    for k, pt in enumerate(points):
        ref = _every_pair_reference(pt)
        alone = {
            "f_sld": qfim_sld(pt),
            "f_rld": qfim_rld(pt),
            "u": incompatibility(pt),
            "rld_inverse_limit": rld_inverse_limit(pt),
        }
        for name, got in alone.items():
            scale = np.max(np.abs(ref[name]))
            assert np.max(np.abs(got - ref[name]), initial=0.0) <= 1e-13 * scale, name
            assert np.max(np.abs(stacked[name][k] - ref[name]), initial=0.0) <= 1e-13 * scale, name
        for kind in ("sld", "rld"):
            for mu in range(pt.n_params):
                for got, want in zip(pt.components(kind, mu), _reference_components(pt, kind, mu)):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (kind, mu)

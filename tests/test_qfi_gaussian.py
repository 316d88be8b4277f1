import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from gaussfish import numkit, qfi_gaussian
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
    BoundChain,
    GaussianModel,
    PointMoments,
    bound_chain,
    displacement_model,
    evaluate,
    first_moment_columns,
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
    _pack,
    _purity_cut,
    _whiten,
)
from gaussfish.scenarios import ScenarioConfig, build_probe, closed_form_bounds, sweep

from linalg_helpers import lapack_calls, vec
from mp_referee import referee_row


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


def _chain_draws(rng, k, max_exp=3.0, scale_exp=3.0):
    """k certified two-parameter inputs (F_S, U, F_R^-1, cond F_S): F_S = R diag(1, lam) R^T
    times 10^e, lam = 10^-(0..max_exp) and e in +-scale_exp, U antisymmetric with r_q < 1,
    and F_R^-1 Hermitian positive definite."""
    angle = rng.uniform(0.0, 2 * np.pi, k)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
    lam = np.stack([np.ones(k), 10.0 ** -rng.uniform(0.0, max_exp, k)], axis=-1)
    lam *= 10.0 ** rng.uniform(-scale_exp, scale_exp, k)[:, None]
    F = (rot * lam[:, None, :]) @ numkit.transpose(rot)
    F = 0.5 * (F + numkit.transpose(F))
    u01 = rng.uniform(0.0, 1.0, k) * np.sqrt(lam[:, 0] * lam[:, 1]) * rng.choice([-1.0, 1.0], k)
    U = np.zeros((k, 2, 2))
    U[:, 0, 1], U[:, 1, 0] = u01, -u01
    b = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
    R = numkit.hermitize(b @ numkit.adjoint(b)) / lam[:, :1, None]
    return F, U, R, lam[:, 0] / lam[:, 1]


def _generic_chain(monkeypatch, F, U, R, weight):
    """bound_chain by the pseudo-inverse, PSD root and trace norms of any p."""
    with monkeypatch.context() as m:
        m.setattr(qfi_gaussian, "_chain2", qfi_gaussian._chain_generic)
        return bound_chain(F, U, rld_inverse=R, weight=weight)


CHAIN_WEIGHTS = (None, np.array([[2.0, 0.3], [0.3, 1.0]]), np.diag([0.5, 3.0]))


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS, ids=["none", "full", "diagonal"])
@pytest.mark.parametrize("seed", range(4))
def test_two_parameter_chain_is_the_generic_route(monkeypatch, seed, weight):
    """The closed forms of p = 2 against the eigh route on certified random draws: b_s, b_h_mid,
    b_h_upper and r_q to 8 eps cond(F_S) relative, and b_r, which reads no F_S, to 8 eps."""
    F, U, R, cond = _chain_draws(np.random.default_rng(90 + seed), 300)
    got = bound_chain(F, U, rld_inverse=R, weight=weight)
    want = _generic_chain(monkeypatch, F, U, R, weight)
    tol = 8 * numkit.EPS * cond
    for name in ("b_s", "b_h_mid", "b_h_upper", "r_q"):
        err = np.abs(getattr(got, name) - getattr(want, name)) / np.abs(getattr(want, name))
        assert (err <= tol).all(), (name, err.max())
    np.testing.assert_allclose(got.b_r, want.b_r, rtol=8 * numkit.EPS, atol=0)


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS[:2], ids=["none", "full"])
@pytest.mark.parametrize("c", [1e-300, 1e300])
def test_two_parameter_chain_scales_without_over_or_underflow(c, weight):
    """F_S, U and F_R^-1 as c F_S, c U and F_R^-1 / c scale every bound by 1 / c and keep r_q:
    each term is read from the trace-scaled F_S, so det(F_S^-1), which would over- or
    underflow here, is never formed."""
    F, U, R, _ = _chain_draws(np.random.default_rng(94), 100, max_exp=1.0, scale_exp=0.0)
    one = bound_chain(F, U, rld_inverse=R, weight=weight)
    scaled = bound_chain(c * F, c * U, rld_inverse=R / c, weight=weight)
    for name, x, y in zip(one._fields, one, scaled):
        want = x if name == "r_q" else x / c
        assert np.isfinite(y).all() and (y != 0).all(), name
        np.testing.assert_allclose(y, want, rtol=8 * numkit.EPS, atol=0, err_msg=name)


def _uncertified_members():
    """F_S that fail the 2x2 certificate: zero, rank 1, nearly rank 1, and non-finite."""
    return np.array([
        np.zeros((2, 2)),
        [[1.0, 2.0], [2.0, 4.0]],
        1e-100 * np.array([[1.0, 2.0], [2.0, 4.0]]),
        [[1.0, 1.0], [1.0, 1.0 + 1e-15]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
    ])


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS[:2], ids=["none", "full"])
def test_uncertified_points_take_the_generic_route_bit_for_bit(monkeypatch, weight):
    """Each uncertified F_S gives the generic route's output bit for bit, alone (as floats) or
    among certified points; its certified neighbours keep the closed form."""
    bad = _uncertified_members()
    F, U, R, _ = _chain_draws(np.random.default_rng(95), 2 * len(bad))
    where = np.arange(len(bad)) * 2 + 1
    F[where] = bad
    got = bound_chain(F, U, rld_inverse=R, weight=weight)
    want = _generic_chain(monkeypatch, F[where], U[where], R[where], weight)
    closed = bound_chain(np.delete(F, where, 0), np.delete(U, where, 0), rld_inverse=np.delete(R, where, 0), weight=weight)
    for name, x, y, z in zip(got._fields, got, want, closed):
        assert np.array_equal(x[where], y, equal_nan=True), name
        assert np.array_equal(np.delete(x, where), z), name
    for k in where:
        one = bound_chain(F[k], U[k], rld_inverse=R[k], weight=weight)
        alone = _generic_chain(monkeypatch, F[k], U[k], R[k], weight)
        assert all(type(x) is float for x in one)
        assert np.array_equal(one, alone, equal_nan=True)
    with pytest.raises(ValueError, match="positive semidefinite") as got_exc:  # a kept negative eigenvalue
        bound_chain(np.diag([1.0, -0.5]), U[0], rld_inverse=R[0])
    with pytest.raises(ValueError) as want_exc:
        _generic_chain(monkeypatch, np.diag([1.0, -0.5]), U[0], R[0], None)
    assert str(got_exc.value) == str(want_exc.value)


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS[:2], ids=["none", "full"])
def test_a_non_finite_f_s_gives_nan_bounds(weight):
    """An F_S with a NaN or inf entry gives NaN for every bound read from it, alone or in a
    stack: pinv_psd keeps the NaN eigenvalues that eigh gives, and a negative eigenvalue
    beside them is still refused."""
    bad = _uncertified_members()[-2:]
    _, U, R, _ = _chain_draws(np.random.default_rng(97), 2)
    for f, u, r in ((bad, U, R), (bad[0], U[0], R[0]), (bad[1], U[1], R[1])):
        chain = bound_chain(f, u, rld_inverse=r, weight=weight)
        for name in ("b_s", "b_h_mid", "b_h_upper", "r_q"):
            assert np.isnan(getattr(chain, name)).all(), name
    with pytest.raises(ValueError, match="positive semidefinite"):
        numkit.pinv_psd(np.array([bad[0], np.diag([1.0, -0.5])]))


def _columns(F, U, R):
    """The entries (f00, f11, f01, u01, r00, r11, r01, i01) of first_moment_columns for stacks
    F_S, U and F_R^-1 that are symmetric, antisymmetric and Hermitian."""
    re, im = R.real, R.imag
    return F[:, 0, 0], F[:, 1, 1], F[:, 0, 1], U[:, 0, 1], re[:, 0, 0], re[:, 1, 1], re[:, 0, 1], im[:, 0, 1]


@pytest.mark.parametrize("weight", CHAIN_WEIGHTS, ids=["none", "full", "diagonal"])
def test_the_column_chain_is_bound_chain_bit_for_bit(weight):
    """factored_chain of the closed form's (K,) columns is bound_chain of the matrices they
    pack, bit for bit: on a stack whose uncertified members (zero, rank 1, NaN, inf, and
    indefinite within pinv's cutoff) take the generic route among certified ones, and on each
    member alone, a stack of one against one matrix.  An F_S indefinite beyond the cutoff
    raises bound_chain's error."""
    bad = np.concatenate([_uncertified_members(), [np.diag([1.0, -1e-17])]])
    F, U, R, _ = _chain_draws(np.random.default_rng(98), 2 * len(bad))
    where = np.arange(len(bad)) * 2 + 1
    F[where] = bad
    columns = _columns(F, U, R)
    assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(qfi_gaussian._pack(*columns), (F, U, R)))
    got = qfi_gaussian.factored_chain(columns, weight)
    want = bound_chain(F, U, rld_inverse=R, weight=weight)
    for name, x, y in zip(got._fields, got, want):
        assert np.array_equal(x, y, equal_nan=True), name
    for k in range(len(F)):
        one = qfi_gaussian.factored_chain([x[k:k + 1] for x in columns], weight)
        alone = bound_chain(F[k], U[k], rld_inverse=R[k], weight=weight)
        assert np.array_equal(np.concatenate(one), alone, equal_nan=True), k
    F[where[-1]] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="positive semidefinite") as got_exc:
        qfi_gaussian.factored_chain(_columns(F, U, R), weight)
    with pytest.raises(ValueError) as want_exc:
        bound_chain(F, U, rld_inverse=R, weight=weight)
    assert str(got_exc.value) == str(want_exc.value)


def test_two_parameter_chain_keeps_the_checks():
    """On the p = 2 path a non-symmetric or indefinite weight raises, an inconsistent (F, U)
    warns and keeps its ratio over 1, and one matrix gives floats; quantumness is the
    chain's r_q."""
    F, U, R, _ = _chain_draws(np.random.default_rng(96), 5)
    for f, u, r in ((F, U, R), (F[0], U[0], R[0])):
        with pytest.raises(ValueError, match="symmetric"):
            bound_chain(f, u, rld_inverse=r, weight=np.array([[1.0, 0.3], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            bound_chain(f, u, rld_inverse=r, weight=np.diag([-1.0, 1.0]))
    one = bound_chain(F[0], U[0], rld_inverse=R[0], weight=CHAIN_WEIGHTS[1])
    assert all(type(x) is float for x in one)
    stack = bound_chain(F, U, rld_inverse=R, weight=CHAIN_WEIGHTS[1])
    assert np.array_equal(one, [x[0] for x in stack])
    assert np.array_equal(quantumness(F, U), stack.r_q) and quantumness(F[0], U[0]) == one.r_q
    U[2] *= 1.5 / bound_chain(F[2], U[2], rld_inverse=R[2]).r_q
    with pytest.warns(UserWarning, match="exceeds 1"):
        r_q = bound_chain(F, U, rld_inverse=R).r_q
    assert r_q[2] == pytest.approx(1.5, rel=1e-14) and (np.delete(r_q, 2) < 1.0).all()


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


def _random_symplectic(rng, modes, strength=0.5):
    """expm(Omega H) for a random symmetric H of norm strength: cond(S S^T) <= e^(4 strength)."""
    H = rng.normal(size=(2 * modes, 2 * modes))
    H = H + H.T
    return expm(omega(modes) @ (strength * H / np.linalg.norm(H, 2)))


def _random_point(rng, modes, n_params=3):
    """A random physical mixed state with random first- and second-moment derivatives."""
    S = _random_symplectic(rng, modes)
    V = (S * np.repeat(rng.uniform(1.2, 2.5, modes), 2)) @ S.T
    st = GaussianState(rng.normal(size=2 * modes), 0.5 * (V + V.T))
    dds = [rng.normal(size=2 * modes) for _ in range(n_params)]
    dVs = [a + a.T for a in rng.normal(size=(n_params, 2 * modes, 2 * modes))]
    return evaluate(GaussianModel(lambda th: st, n_params, lambda th: dds, lambda th: dVs), np.zeros(n_params))


def _normal_form_error(V, nu, Z):
    """max |T (V + i Omega) T^H - diag(nu + s)| of each matrix, T the rows Z and conj(Z) interleaved."""
    modes = V.shape[-1] // 2
    T = np.empty(V.shape, dtype=complex)
    T[..., 0::2, :], T[..., 1::2, :] = Z, np.conj(Z)
    lam = np.repeat(nu, 2, axis=-1) + np.tile([1.0, -1.0], modes)
    gap = T @ (V + 1j * omega(modes)) @ numkit.adjoint(T) - lam[..., None] * np.eye(2 * modes)
    return np.abs(gap).max(axis=(-2, -1))


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_williamson_basis_matches_kron_oracle(modes):
    """The five-point stack and each point alone; two modes add a stack of 24 points
    through the information layer too."""
    rng = np.random.default_rng(100 + modes)
    points = [_random_point(rng, modes) for _ in range(5)]
    V = np.array([pt.st.V for pt in points])
    stacks = [V] + list(V)
    if modes == 2:
        kernel_points = [_random_point(rng, modes) for _ in range(24)]
        stacks.append(np.array([pt.st.V for pt in kernel_points]))
    # T (V + i Omega) T^H = diag(nu + s), for each stack and for each point alone
    for v in stacks:
        assert np.max(_normal_form_error(v, *williamson(v))) <= 1e-12
    if modes == 2:
        stacked = _stack_points(kernel_points)
        got = (qfim_sld(stacked), qfim_rld(stacked), incompatibility(stacked), rld_inverse_limit(stacked))
        for k, pt in enumerate(kernel_points):
            for new, ref in zip(got, _kron_oracle(pt)):
                assert np.max(np.abs(new[k] - ref)) <= 1e-10 * np.max(np.abs(ref))
    for pt in points:
        got = (qfim_sld(pt), qfim_rld(pt), incompatibility(pt), rld_inverse_limit(pt))
        for new, ref in zip(got, _kron_oracle(pt)):
            assert np.max(np.abs(new - ref)) <= 1e-10 * np.max(np.abs(ref))


# The symplectic eigenvalues that williamson reads from a Williamson form against its eigh of
# the dense V, in units of eps cond(V): over 25,600 members of the kinds below (800 stacks of
# 32) the relative gap in nu reached 6.1.
KERNEL_C = 32.0
_WILLIAMSON_KINDS = ("degenerate", "near_degenerate", "pure", "hot", "generic")


def _williamson_factor(rng, kind):
    """A two-mode Williamson form (O, lam, delta): O a Haar passive network and lam_2k, lam_2k+1 = nu_k e^(+-2 s_k).

    Each mode is squeezed up to e^(4 s_k) = 1e10.  nu_2 / nu_1 - 1 is 0 (degenerate),
    1e-14..1e-6 (near_degenerate) or up to 1e6 (hot, each nu 1..1e6); pure has nu_1 = 1.
    A third of these are scaled by c = 1..1e150, which scales nu by c.
    """
    nu_1 = rng.uniform(1.2, 2.5)
    nu = {
        "degenerate": [nu_1, nu_1],
        "near_degenerate": [nu_1, nu_1 * (1.0 + 10.0 ** rng.uniform(-14.0, -6.0))],
        "pure": [1.0, rng.choice([1.0, nu_1])],
        "hot": 10.0 ** rng.uniform(0.0, 6.0, 2),
        "generic": rng.uniform(1.0, 3.0, 2),
    }[kind]
    squeeze = np.exp(0.5 * np.log(10.0) * rng.uniform(0.0, 10.0, 2))  # e^(2 s_k)
    lam = np.repeat(nu, 2) * np.repeat(squeeze, 2) ** np.tile([1.0, -1.0], 2)
    scale = 10.0 ** rng.uniform(0.0, 150.0) if rng.random() < 1 / 3 else 1.0
    with np.errstate(over="ignore"):  # delta = nu^2 - 1 is inf past nu of about 1.3e154
        delta = (scale * np.asarray(nu)) ** 2 - 1.0
    return _haar_passive(rng, 2), scale * lam, delta


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(_WILLIAMSON_KINDS), min_size=1, max_size=32),
)
def test_symplectic_eigenvalue_kernel_matches_williamson(seed, kinds):
    """nu of a two-mode stack read from its Williamson form against each member's williamson.

    The dense V = O diag(lam) O^T goes through the eigh of V and of i A.  They agree
    within KERNEL_C eps cond(V).  A factored mode is pure exactly where delta == 0, and
    the dense purity cut calls it pure too.  Where the cut, nu - 1 <= PURE_TOL cond(V), calls
    a mode pure whose delta is not 0, the dense nu is wrong, and the factored one is kept: those
    modes are not compared.  The stack gives each member's nu; a member whose delta overflows
    raises, and so does its stack.
    """
    rng = np.random.default_rng(seed)
    O, lam, delta = (np.array(x) for x in zip(*(_williamson_factor(rng, kind) for kind in kinds)))
    V = numkit.hermitize((O * lam[:, None, :]) @ numkit.transpose(O))
    finite = np.isfinite(delta).all(axis=-1)
    if not finite.all():
        with pytest.raises(ValueError, match="overflow: nu\\^2 - 1 of the covariance is not finite"):
            williamson(V, (O, lam, delta))
    else:
        stacked = williamson(V, (O, lam, delta))[0]
    bound = KERNEL_C * numkit.EPS * np.linalg.cond(V)
    for k, (kind, v) in enumerate(zip(kinds, V)):
        if not finite[k]:
            with pytest.raises(ValueError, match="overflow"):
                williamson(v, (O[k], lam[k], delta[k]))
            continue
        nu = williamson(v, (O[k], lam[k], delta[k]))[0]
        if finite.all():
            assert np.array_equal(stacked[k], nu), kind
        nu, nu_alone = np.sort(nu), np.sort(williamson(v)[0])
        assert np.array_equal(nu == 1.0, np.sort(delta[k]) == 0.0), kind
        assert (nu_alone[nu == 1.0] == 1.0).all(), kind
        kept = ~((nu_alone == 1.0) & (nu != 1.0))  # the dense cut's defect, removed for factors
        np.testing.assert_allclose(nu[kept], nu_alone[kept], rtol=bound[k], atol=0, err_msg=kind)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_williamson_normal_coordinates_equal_the_complex_product(modes):
    """williamson forms u^H W^T as two real products; they equal the complex product bit for bit.

    Random mixed stacks, and for two modes the 201-point tmst t 0..1 grid of the reference sweep.
    """
    rng = np.random.default_rng(300 + modes)
    stacks = [np.array([_random_point(rng, modes).st.V for _ in range(7)])]
    if modes == 2:
        t = np.linspace(0.0, 1.0, 201)
        ch = NoisyChannel.uniform(2, 1.0, 0.5)
        tmst = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5)
        stacks.append(displacement_model(tmst, ch, t).state([0, 0]).V)
    for V in stacks:
        nu, Z = williamson(V)
        _, w, a = _whiten(V)
        vecs = np.linalg.eigh(1j * a)[1][..., modes:]
        ref = np.sqrt(nu)[..., :, None] * (numkit.adjoint(vecs) @ numkit.transpose(w).astype(complex))
        assert np.array_equal(Z, ref)


def _whiten_cases(factored):
    """(V, factor) stacks: random mixed states of 1..3 modes with no factor, or the tmst
    probe at r 0..1.5 through a channel, whose states carry their Williamson form."""
    if not factored:
        rng = np.random.default_rng(500)
        return [(np.array([_random_point(rng, modes).st.V for _ in range(5)]), None) for modes in (1, 2, 3)]
    probe = probe_tmsdt(np.linspace(0.0, 1.5, 11), 0.7, 0, 0, 0, 0, 0.3)
    st = displacement_model(probe, NoisyChannel.uniform(2, 1.0, 0.5), np.linspace(0.0, 1.0, 11)).state([0, 0])
    assert st.factor is not None
    return [(st.V, st.factor)]


@pytest.mark.parametrize("factored", [False, True])
def test_whiten_factors_the_inverse_on_one_side(factored):
    """Without a factor: W W^T = V^-1 and W^T Omega W = A, from an eigh of V.  With one,
    williamson takes the normal form from the factor alone: T (V + i Omega) T^H = diag(nu + s),
    on the channel's states and on random Williamson forms (:func:`_williamson_factor`), within
    KERNEL_C eps cond(V) nu_max (the dense V's rounding, seen through rows of size
    (nu / lam_min)^1/2)."""
    if factored:
        rng = np.random.default_rng(501)
        draws = [_williamson_factor(rng, kind) for kind in _WILLIAMSON_KINDS * 40]
        draws = [(O, lam, delta) for O, lam, delta in draws if np.isfinite(delta).all()]
        O, lam, delta = (np.array(x) for x in zip(*draws))
        V = numkit.hermitize((O * lam[:, None, :]) @ numkit.transpose(O))
        for V, factor in _whiten_cases(True) + [(V, (O, lam, delta))]:
            nu, Z = williamson(V, factor)
            bound = KERNEL_C * numkit.EPS * (factor[1].max(axis=-1) / factor[1].min(axis=-1)) * nu.max(axis=-1)
            assert (_normal_form_error(V, nu, Z) <= bound).all()
        return
    for V, _ in _whiten_cases(False):
        cond, w, a = _whiten(V)
        n2 = V.shape[-1]
        wt = numkit.transpose(w)
        eye = np.broadcast_to(np.eye(n2), V.shape)
        np.testing.assert_allclose(V @ w @ wt, eye, rtol=0, atol=1e-13 * cond.max())
        np.testing.assert_allclose(wt @ omega(n2 // 2) @ w, a, rtol=0, atol=1e-13 * np.abs(a).max())


def test_a_factored_williamson_makes_no_lapack_call(monkeypatch):
    """The factor is the decomposition: williamson(V, factor) calls no LAPACK driver, on a
    stack with one O shared and on one with an O per point."""
    for m_e in (0.0, 0.2):
        probe = probe_tmsdt(np.linspace(0.0, 40.0, 21), 0.7, 0, 0, 0, 0, 0.3)
        st = displacement_model(probe, NoisyChannel.uniform(2, 1.0, 0.5, m_e), 0.4).state([0, 0])
        (nu, Z), calls = lapack_calls(monkeypatch, lambda: williamson(st.V, st.factor))
        assert calls == [] and nu.shape == (21, 2) and Z.shape == (21, 2, 4), m_e


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
    """One stacked PointMoments from per-point ones of the same model shape.

    Where every point's state carries its eigen-factor (O, lam), the stack carries
    the stacked factor, so each point takes the same path as it does alone.
    """
    st = GaussianState(np.array([pt.st.d for pt in points]), np.array([pt.st.V for pt in points]))
    if all(pt.st.factor is not None for pt in points):
        st.factor = tuple(np.array(x) for x in zip(*(pt.st.factor for pt in points)))
    n_params = points[0].n_params
    dds = [np.array([pt.dds[mu] for pt in points]) for mu in range(n_params)]
    dVs = [np.array([pt.dVs[mu] for pt in points]) for mu in range(n_params)]
    return PointMoments(st, dds, dVs, n_params)


def _closed_form(pt):
    """(F_S, U, limiting F_R^-1) of a factored first-moment pt by the sweep kernel
    (:func:`first_moment_columns`), packed as (K, 2, 2) stacks."""
    return _pack(*first_moment_columns(pt.dds, pt.st.factor))


def test_stacked_information_layer_matches_each_point(monkeypatch):
    """rld_inverse_limit cuts rank per point: a stack of ranks 2, 1 and 0 equals its points.

    In the Williamson basis the whole stack, whatever its ranks, is one pinv call (through
    pinv_gram).
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
    pinv = numkit.pinv
    monkeypatch.setattr(numkit, "pinv", lambda *a, **kw: calls.append(a[0].shape) or pinv(*a, **kw))
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


# The sweep kernel against the Williamson basis (the referee): F_S and U of each point within
# REFEREE_TOL of the referee's largest F_S entry at that point, the limiting F_R^-1 within
# REFEREE_TOL of its own largest entry (a zero limit exactly zero), and the bound chain
# within REFEREE_TOL relative (r_q absolute).
REFEREE_TOL = 1e-12
_REFERENCE_T = np.linspace(0.0, 1.0, 201)  # the reference sweep's t grid
_PROBE_ARGS = {
    "tmsv": (0.4, 0, 0, 0, 0, 0.0),
    "tmst": (0.4, 0, 0, 0, 0, 0.5),
    "tmdv": (0.0, 0.3, -0.5, 0.7, 0.2, 0.0),
    "tmdt": (0.0, 0.3, -0.5, 0.7, 0.2, 0.5),
}


def _assert_solves_match_the_williamson_basis(pt, tol, weight=None):
    closed = _closed_form(pt)
    f_sld = qfim_sld(pt)  # U's scale too: |U_ij| <= sqrt(F_ii F_jj)
    for got, fn, scale_of in zip(closed, (qfim_sld, incompatibility, rld_inverse_limit), (f_sld, f_sld, None)):
        want = fn(pt)
        scale = np.abs(want if scale_of is None else scale_of).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - want) <= tol * scale), fn.__name__
    by_basis = (f_sld, incompatibility(pt), rld_inverse_limit(pt))
    chains = [bound_chain(f_s, u, rld_inverse=r, weight=weight) for f_s, u, r in (closed, by_basis)]
    for name, got, want in zip(BoundChain._fields, *chains):
        if name == "r_q":
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=name)
        else:
            np.testing.assert_allclose(got, want, rtol=tol, atol=0, err_msg=name)


@pytest.mark.parametrize("probe", sorted(_PROBE_ARGS))
def test_solves_match_the_williamson_basis_on_the_reference_t_grid(probe):
    """Each probe's 201-point t grid (pure at t = 0 for tmsv and tmdv; a degenerate
    pair at every tmdv and tmdt point), stacked, with and without a weight: the sweep kernel
    against the library's Williamson basis."""
    r, *alpha, n_th = _PROBE_ARGS[probe]
    model = displacement_model(probe_tmsdt(r, math.pi, *alpha, n_th), NoisyChannel.uniform(2, 1.0, 0.5), _REFERENCE_T)
    pt = evaluate(model, [0.0, 0.0])
    for weight in (None, np.array([[2.0, 0.3], [0.3, 1.0]])):
        _assert_solves_match_the_williamson_basis(pt, REFEREE_TOL, weight)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    modes=st.integers(1, 3),
    n_params=st.integers(1, 3),
    pure=st.sampled_from(["none", "some", "all"]),
    sparse=st.booleans(),
)
def test_solves_match_the_williamson_basis_on_random_first_moment_models(seed, modes, n_params, pure, sparse):
    """dV = 0 and a full-row-rank dd: random N-mode states, mixed or pure, with no eigen-factor.

    The Williamson basis serves them, refereed by solves on V:
    F_S = 2 D V^-1 D^T and U = 2 D V^-1 Omega V^-1 D^T, and where no mode is pure by the
    inverse of F_R = 2 D M^-1 D^T, M = V + i Omega.  A sparse dd reaches p coordinates only,
    a dense one them all.
    """
    rng = np.random.default_rng(seed)
    p = min(n_params, 2 * modes)
    nu = rng.uniform(1.2, 2.5, modes)
    if pure == "all":
        nu[:] = 1.0
    elif pure == "some":
        nu[: rng.integers(1, modes + 1)] = 1.0
    S = _random_symplectic(rng, modes)
    V = (S * np.repeat(nu, 2)) @ S.T
    # orthonormal rows times 1..3: cond(dd) <= 3, so F_S is well conditioned
    reach = rng.choice(2 * modes, p, replace=False) if sparse else np.arange(2 * modes)
    dd = np.zeros((p, 2 * modes))
    dd[:, reach] = rng.uniform(1.0, 3.0, (p, 1)) * np.linalg.qr(rng.normal(size=(reach.size, p)))[0].T
    st_ = GaussianState(rng.normal(size=2 * modes), 0.5 * (V + V.T))
    pt = PointMoments(st_, list(dd), [np.zeros((2 * modes, 2 * modes))] * p, p)
    om = omega(modes)
    x = np.linalg.solve(pt.st.V, dd.T)  # V^-1 D^T
    f_s, u = 2.0 * dd @ x, 2.0 * x.T @ om @ x
    scale = np.abs(f_s).max()  # U's scale too: |U_ij| <= sqrt(F_ii F_jj)
    assert np.abs(qfim_sld(pt) - f_s).max() <= 1e-10 * scale
    assert np.abs(incompatibility(pt) - u).max() <= 1e-10 * scale
    if pure == "none":
        want = np.linalg.inv(2.0 * dd @ np.linalg.solve(pt.st.V + 1j * om, dd.T))
        assert np.abs(rld_inverse_limit(pt) - want).max() <= 1e-10 * np.abs(want).max()


def _assert_route_matches_the_williamson_basis(pt, dense=True):
    """The sweep kernel of pt, whose state carries its eigen-factor (O, lam, delta), against
    the same moments in the Williamson basis: through the public GaussianState, which carries
    no factor and takes the basis from the eigh of the dense V, or (dense False, for squeezing
    that the dense V loses to rounding) through the factor's own basis, pt itself.

    F_S, U and the limiting F_R^-1 of each point agree within REFEREE_TOL of that matrix's
    largest entry at the point.
    """
    assert pt.st.factor is not None and len(pt.st.factor) == 3
    p = pt.n_params
    plain = pt
    if dense:
        plain = PointMoments(GaussianState(pt.st.d, pt.st.V), [pt.dds[..., mu, :] for mu in range(p)], [pt.dVs[..., mu, :, :] for mu in range(p)], p)
    for name, got, want in zip(("f_sld", "u", "rld_inverse_limit"), _closed_form(pt), (qfim_sld(plain), incompatibility(plain), rld_inverse_limit(plain))):
        scale = np.abs(want).max(axis=(-2, -1))
        gap = np.abs(got - want).max(axis=(-2, -1))
        assert (gap <= REFEREE_TOL * scale).all(), (name, (gap / np.where(scale > 0, scale, 1.0)).max())


@pytest.mark.parametrize("per_point", [False, True], ids=["one_O", "O_per_point"])
@pytest.mark.parametrize("probe", sorted(_PROBE_ARGS))
def test_factored_route_matches_the_dense_solves_on_the_reference_t_grid(probe, per_point):
    """Each probe's 201-point t grid, pure at t = 0 for tmsv and tmdv, from the closed form of
    the eigen-factor's 2x2 blocks and from the Williamson basis of the dense V: through a
    thermal reservoir, which keeps the probe's O, and a squeezed one (m_e = 0.2 + 0.1i),
    which turns it, one O per point."""
    r, *alpha, n_th = _PROBE_ARGS[probe]
    ch = NoisyChannel.uniform(2, 1.0, 0.5, 0.2 + 0.1j if per_point else 0.0)
    pt = evaluate(displacement_model(probe_tmsdt(r, math.pi, *alpha, n_th), ch, _REFERENCE_T), [0.0, 0.0])
    assert pt.st.factor[0].shape == ((201, 4, 4) if per_point else (4, 4))
    _assert_route_matches_the_williamson_basis(pt)


def _pure_in_part_point(rng, squeeze=3.0):
    """A random two-mode Williamson form V = O diag(lam) O^T, O a Haar passive network and each
    mode squeezed by up to e^(+-squeeze), with mode 0, mode 1 or both pure (the other's nu - 1 in
    0.1..10), and dd a random 2x2 of cond <= 3 on the first mode's coordinates."""
    pure = [(True, False), (False, True), (True, True)][rng.integers(0, 3)]
    nu_1 = np.where(pure, 0.0, rng.uniform(0.1, 10.0, 2))  # nu - 1
    nu, delta = 1.0 + nu_1, nu_1 * (2.0 + nu_1)
    lam = np.repeat(nu, 2) * np.repeat(np.exp(rng.uniform(0.0, squeeze, 2)), 2) ** np.tile([1.0, -1.0], 2)
    O = _haar_passive(rng, 2)
    st_ = GaussianState._built(rng.normal(size=4), numkit.hermitize((O * lam) @ O.T), (O, lam, delta))
    dd = np.zeros((2, 4))
    dd[:, :2] = rng.uniform(1.0, 3.0, (2, 1)) * np.linalg.qr(rng.normal(size=(2, 2)))[0]
    return PointMoments(st_, list(dd), [np.zeros((4, 4))] * 2, 2)


@pytest.mark.parametrize("seed", range(6))
def test_factored_route_matches_the_dense_solves_on_random_draws(seed):
    """60 random two-mode draws of r <= 1.5, phi, n_th, n_e, gamma t and alpha, with a complex
    m_e up to its bound in half of them, and 40 random Williamson forms with one or both modes
    pure (:func:`_pure_in_part_point`), each with its own O (one per point, stacked), from
    the route and from the Williamson basis of the dense V.  40 more such forms, squeezed by up
    to e^(+-40), where the dense V has lost its small eigenvalues and a purity cut of
    cond(V) would call every mode pure, against the factor's own basis."""
    rng = np.random.default_rng(700 + seed)
    points = []
    for _ in range(60):
        r, n_th, n_e, gt = rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        m_e = rng.integers(0, 2) * rng.uniform(0.0, 1.0) * math.sqrt(n_e * (n_e + 1.0)) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        alpha = rng.uniform(-1.0, 1.0, 4) * rng.integers(0, 2)
        probe = probe_tmsdt(r, rng.uniform(-math.pi, math.pi), *alpha, n_th)
        points.append(evaluate(displacement_model(probe, NoisyChannel.uniform(2, 1.0, n_e, m_e), gt), [0.1, -0.2]))
    points += [_pure_in_part_point(rng) for _ in range(40)]
    stack = _stack_points(points)
    assert stack.st.factor[0].shape == (100, 4, 4)
    _assert_route_matches_the_williamson_basis(stack)
    _assert_route_matches_the_williamson_basis(_stack_points([_pure_in_part_point(rng, 40.0) for _ in range(40)]), dense=False)


def _unserved_points():
    """Two-parameter points that the sweep kernel does not take: a dd of rank 1, dV != 0.

    Each state carries an eigen-factor, so :func:`_stack_points` stacks them with it.
    """
    mixed = evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5), NoisyChannel.uniform(2, 1.0, 0.5), 0.3), [0, 0])
    zero = np.zeros((4, 4))
    dV = np.random.default_rng(5).normal(size=(4, 4))
    return [
        PointMoments(mixed.st, [mixed.dds[0], 2.0 * mixed.dds[0]], [zero, zero], 2),
        PointMoments(mixed.st, list(mixed.dds), [dV + dV.T, zero], 2),
    ]


def _underflow_point():
    """tmst at gamma t = 1600, where dd = e^{-gamma t / 2} (e1, e2) underflows to exactly 0."""
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    return evaluate(displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5), ch, 1600.0), [0, 0])


def test_one_unserved_point_sends_its_whole_stack_to_the_basis(monkeypatch):
    """A stack that mixes displacement points with two the sweep kernel does not take and one
    whose dd is 0 is one Williamson decomposition, and each point equals its own evaluation
    to rounding.  f_rld is read after the spy is gone.
    """
    served, unserved = _displacement_points(), _unserved_points()
    points = [served[0], unserved[0], served[1], unserved[1], _underflow_point(), served[2]]
    stack = _stack_points(points)
    sizes = []
    real = qfi_gaussian.williamson
    monkeypatch.setattr(qfi_gaussian, "williamson", lambda V, *f: sizes.append(V.shape) or real(V, *f))
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    rep = qfim_report(stack, weight=W)
    monkeypatch.undo()
    assert sizes == [(6, 4, 4)]
    limits = rld_inverse_limit(stack)
    for k, pt in enumerate(points):
        one = qfim_report(pt, weight=W)
        # each matrix to 1e-12 of its largest entry (U of F_S's: |U_ij| <= sqrt(F_ii F_jj)), as
        # entries that vanish in exact arithmetic carry rounding of that size on either path
        for got, want, scale in (
            (limits[k], rld_inverse_limit(pt), limits[k]),
            (rep.f_sld[k], one.f_sld, one.f_sld),
            (rep.u[k], one.u, one.f_sld),
            (rep.f_rld[k], one.f_rld, one.f_rld),
        ):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(scale).max()
        for name in ("b_s", "b_r", "b_h_mid", "b_h_upper", "r_q"):
            np.testing.assert_allclose(getattr(rep, name)[k], getattr(one, name), rtol=1e-12, atol=0, err_msg=name)


def test_a_point_whose_dd_underflows_sends_its_stack_to_the_basis(monkeypatch):
    """A point with dd = 0 in a stack gets F_S, U and the limiting F_R^-1 exactly 0 from the
    Williamson basis, as it does alone, and its neighbours their own evaluation to rounding.
    Sweeps take dd at unit size, so tmst sweeps across the underflow (from gamma t of about
    1490) make no Williamson decomposition.
    """
    zero, points = _underflow_point(), _displacement_points()
    assert not zero.dds.any()
    stack = _stack_points(points + [zero])
    for fn in (qfim_sld, incompatibility, rld_inverse_limit):
        got = fn(stack)
        assert not got[-1].any(), fn.__name__
        assert np.array_equal(got[-1], fn(zero)), fn.__name__
        for k, pt in enumerate(points):
            # to 1e-12 of F_S's largest entry (U's bound), or F_S^-1's for the limit
            f_s = qfim_sld(pt)
            scale = np.linalg.inv(f_s) if fn is rld_inverse_limit else f_s
            assert np.abs(got[k] - fn(pt)).max() <= 1e-12 * np.abs(scale).max(), (fn.__name__, k)
    calls = []
    real = qfi_gaussian.williamson
    monkeypatch.setattr(qfi_gaussian, "williamson", lambda V, *f: calls.append(V.shape) or real(V, *f))
    for start, stop, step in ((1480.0, 1500.0, 0.1), (0.0, 1600.0, 8.0)):
        rows = sweep(ScenarioConfig(probe="tmst", n_th=0.5, axis="t", start=start, stop=stop, step=step))
        assert len(rows) == 201
    assert calls == []


def test_williamson_row_order_keeps_near_pure_b_r():
    """The RLD split's rows, heaviest first, keep b_r of the basis at the closed form.

    At tmsv, r = 0, n_e = 2^-14, gamma t = 1e-8 (nu - 1 about 1.2e-12), LAPACK's SVD of the
    tall split starts with a Householder QR: with the light rows on top b_r missed by 5e-10
    relative.
    """
    n_e, t = 6.103515625e-05, 1e-8
    model = displacement_model(probe_tmsdt(0.0, math.pi, 0, 0, 0, 0, 0.0), NoisyChannel.uniform(2, 1.0, n_e), t)
    pt = evaluate(model, [0.0, 0.0])
    chain = bound_chain(qfim_sld(pt), incompatibility(pt), rld_inverse=rld_inverse_limit(pt))
    assert chain.b_r == pytest.approx(closed_form_bounds("tmsv", 0.0, 0.0, 1.0, t, n_e).b_r, rel=1e-12, abs=0)


@pytest.mark.parametrize("m_e", [0.0, 0.2])
@pytest.mark.parametrize("probe", ["tmsv", "tmst"])
def test_the_factored_basis_matches_the_referee_at_strong_squeezing(probe, m_e):
    """The Williamson basis of a factored stack on the r 0..354 step 6 grid against the mpmath
    referee: F_R (qfim_rld) within REFEREE_TOL of its largest entry, and b_s, b_r, b_h_mid and
    r_q within REFEREE_TOL relative.  A purity cut of cond(V), which grows like e^2r where nu
    grows like e^r, called every mode pure from r of about 28, and b_r missed by 100 %.
    r_q from r of about 288 needs the scaling of PointMoments.gram: unscaled, the weighted
    rows w_U K underflow in their small entries, and U, with it r_q, reads half its value."""
    cfg = ScenarioConfig(probe=probe, n_th=0.5 if probe == "tmst" else 0.0, m_e=m_e)
    grid = np.arange(0.0, 355.0, 6.0)
    model = displacement_model(build_probe(cfg, r=grid), cfg.validate(), cfg.t)
    rep = qfim_report(evaluate(model, [0.0, 0.0]))
    for k, r in enumerate(grid):
        want = referee_row(cfg, r)
        scale = np.abs(want["f_r"]).max()
        assert np.abs(rep.f_rld[k] - want["f_r"]).max() <= REFEREE_TOL * scale, r
        for name in ("b_s", "b_r", "b_h_mid", "r_q"):
            got = getattr(rep, name)[k]
            assert abs(got - want[name]) <= REFEREE_TOL * abs(want[name]), (name, r, got, want[name])


def _haar_passive(rng, modes):
    """The orthogonal symplectic matrix (Q, P per mode) of a Haar-random N x N unitary."""
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    O = np.empty((2 * modes, 2 * modes))
    O[0::2, 0::2], O[0::2, 1::2] = u.real, -u.imag  # a -> u a with a = (Q + i P) / sqrt 2
    O[1::2, 0::2], O[1::2, 1::2] = u.imag, u.real
    return O


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
def test_information_is_invariant_under_a_passive_network(modes):
    """F_S, U, F_R and the limiting F_R^-1 of random mixed models with dV != 0, before
    and after a Haar-random passive network O: d -> O d, V -> O V O^T, likewise the
    derivatives."""
    rng = np.random.default_rng(400 + modes)
    for _ in range(3):
        pt = _random_point(rng, modes)
        O = _haar_passive(rng, modes)
        assert np.allclose(O @ O.T, np.eye(2 * modes), atol=1e-13)
        assert np.allclose(O @ omega(modes) @ O.T, omega(modes), atol=1e-13)
        V = O @ pt.st.V @ O.T
        moved = PointMoments(
            GaussianState(O @ pt.st.d, 0.5 * (V + V.T)), list(pt.dds @ O.T), list(O @ pt.dVs @ O.T), pt.n_params
        )
        for fn in (qfim_sld, incompatibility, qfim_rld, rld_inverse_limit):
            want = fn(pt)
            assert np.abs(fn(moved) - want).max() <= 1e-10 * np.abs(want).max(), fn.__name__


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


@pytest.mark.parametrize("stacked", [False, True], ids=["one_point", "stack"])
def test_scalar_zero_dvs_give_the_first_moment_report(stacked):
    """A state without an eigen-factor whose dVs are scalar zeros: the rows form no dV block,
    dVs is never stacked, and the report is that of (2N, 2N) zero dVs, bit for bit."""
    t = np.linspace(0.0, 1.0, 5) if stacked else 0.3
    evolved = displacement_model(probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.5), NoisyChannel.uniform(2, 1.0, 0.5), t).state([0, 0])
    st_ = GaussianState(evolved.d, evolved.V)
    assert st_.factor is None
    e1, e2 = np.eye(4)[:2]
    pt = PointMoments(st_, [e1, e2], [0, 0], 2)
    want = qfim_report(PointMoments(st_, [e1, e2], [np.zeros((4, 4))] * 2, 2))
    got = qfim_report(pt)
    for name in ("f_sld", "f_rld", "u", "b_s", "b_r", "b_h_mid", "b_h_upper", "r_q"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert "dVs" not in vars(pt)


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

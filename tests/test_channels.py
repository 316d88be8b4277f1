import itertools

import numpy as np
import pytest

from gaussfish.channels import NoisyChannel, diffusion_matrix, evolve
from gaussfish.gaussian_core import (
    GaussianState,
    apply,
    omega,
    probe_tmsdt,
    purity,
    squeezed_vacuum,
    two_mode_squeezer,
    vacuum,
)
from gaussfish.numkit import hermitize
from gaussfish.scenarios import _standard_form


def test_diffusion_matrix_with_correlated_noise():
    ch = NoisyChannel(gamma=[1.0], n_e=[0.4], m_e=[0.3])
    D = diffusion_matrix(ch)
    assert np.allclose(D, [[1.8 + 0.3, 0.0], [0.0, 1.8 - 0.3]])
    ch2 = NoisyChannel(gamma=[1.0], n_e=[0.4], m_e=[0.3j])
    D2 = diffusion_matrix(ch2)
    assert np.allclose(D2, [[1.8, 0.3], [0.3, 1.8]])


def test_evolve_keeps_the_eigen_factor_only_for_a_symmetric_channel():
    """A channel the same on both modes (gamma, n_e and m_e equal across modes at each point)
    keeps the factor.  With m_e = 0 it keeps O and maps lam -> y lam + v (2 n_e + 1); a
    squeezed reservoir, real or complex, turns each mode's axes, one O per point, orthogonal
    and symplectic.  Either way O diag(lam) O^T is V and delta = nu^2 - 1 of each mode, also
    for a state evolved twice; any other channel, or a state with no factor, drops it."""
    probe = probe_tmsdt(0.6, 2.1, 0.3, -0.2, 0.1, 0.4, 0.5)
    O, lam, delta = probe.factor
    assert np.array_equal(delta, [3.0, 3.0])
    t = np.linspace(0.0, 2.0, 7)
    gamma, n_e = np.linspace(0.2, 2.0, 7), np.linspace(0.0, 1.0, 7)
    out = evolve(NoisyChannel.uniform(2, gamma, n_e), probe, t)
    assert out.factor[0] is O
    y = np.exp(-gamma * t)
    np.testing.assert_allclose(out.factor[1], y[:, None] * lam + (1.0 - y)[:, None] * (2.0 * n_e + 1.0)[:, None], rtol=1e-14)
    bound = np.sqrt(n_e * (n_e + 1.0))
    states = [out]
    for m_e in (bound, -0.5 * bound, bound * np.exp(1j * np.linspace(-3.0, 3.0, 7))):
        squeezed = evolve(NoisyChannel.uniform(2, gamma, n_e, m_e), probe, t)
        assert squeezed.factor[0].shape == (7, 4, 4)
        states += [squeezed, evolve(NoisyChannel.uniform(2, 0.7, n_e, m_e), squeezed, 0.4)]
    om = omega(2)
    for st in states:
        O_k, lam_k, delta_k = st.factor
        np.testing.assert_allclose(delta_k, lam_k[:, 0::2] * lam_k[:, 1::2] - 1.0, rtol=1e-14)
        scale = np.abs(st.V).max(axis=(-2, -1), keepdims=True)
        assert (np.abs((O_k * lam_k[..., None, :]) @ np.swapaxes(O_k, -1, -2) - st.V) <= 1e-15 * scale).all()
        assert np.abs(O_k @ np.swapaxes(O_k, -1, -2) - np.eye(4)).max() <= 1e-15
        assert np.abs(O_k @ om @ np.swapaxes(O_k, -1, -2) - om).max() <= 1e-15
    for ch in (
        NoisyChannel([1.0, 1.5], [0.5, 0.5], [0.0, 0.0]),
        NoisyChannel([1.0, 1.0], [0.5, 0.6], [0.0, 0.0]),
        NoisyChannel([1.0, 1.0], [0.5, 0.5], [0.2, 0.0]),
        NoisyChannel(np.array([[1.0, 1.0], [1.0, 1.2]]), np.full((2, 2), 0.5), np.zeros((2, 2))),
    ):
        assert evolve(ch, probe, 0.3).factor is None
    assert evolve(NoisyChannel.uniform(2, 1.0, 0.5), GaussianState(probe.d, probe.V), 0.3).factor is None


def _eager_v(ch, V, t):
    """hermitize(G V G + v V_inf): the dense V after the channel, by its defining formula."""
    rate = ch.gamma * np.asarray(t)[..., None]
    g, v = (np.repeat(x, 2, axis=-1) for x in (np.exp(-0.5 * rate), -np.expm1(-rate)))
    return hermitize(g[..., :, None] * V * g[..., None, :] + v[..., :, None] * diffusion_matrix(ch))


def test_a_kept_factor_defers_the_dense_v_to_the_eager_formula():
    """Where evolve keeps the factor, V is still formed at once by the one formula,
    hermitize(G V G + v V_inf), bit for bit, on a stack and on a single point, with and
    without a squeezed reservoir; so is V where the channel drops the factor."""
    for (r, gamma, t), m_e in itertools.product(
        ((np.linspace(0.0, 3.0, 31), np.linspace(0.1, 3.0, 31), np.linspace(0.0, 2.0, 31)), (0.6, 0.9, 0.4)), (0.0, 0.3 - 0.4j)
    ):
        probe = probe_tmsdt(r, 2.1, 0.3, -0.2, 0.1, 0.4, 0.5)
        ch = NoisyChannel.uniform(2, gamma, 0.7, m_e)
        out = evolve(ch, probe, t)
        assert out.factor is not None
        assert np.array_equal(out.V, _eager_v(ch, probe.V, t))
    ch = NoisyChannel([0.9, 1.1], [0.7, 0.7], [0.0, 0.0])
    dropped = evolve(ch, probe, 0.4)
    assert dropped.factor is None and np.array_equal(dropped.V, _eager_v(ch, probe.V, 0.4))


def test_evolve_keeps_a_strongly_squeezed_eigenvalue():
    """At r = 15 the dense V holds e^30-size entries; the factor's small eigenvalue stays exact."""
    gt, n_e = 1.0, 0.5
    out = evolve(NoisyChannel.uniform(2, 1.0, n_e), probe_tmsdt(15.0, np.pi, 0, 0, 0, 0, 0.0), gt)
    y = np.exp(-gt)
    assert out.factor[1][1] == pytest.approx(y * np.exp(-30.0) + (1.0 - y) * (2.0 * n_e + 1.0), rel=1e-15)


@pytest.mark.parametrize("gt", [0.0, 0.3, 1.0, 3.0])
def test_evolve_keeps_the_williamson_form(gt):
    """tmst (n_th = n_e = 0.5) on r 0..20: each pair of lam gives the symplectic eigenvalue
    sqrt(lam_0 lam_1) = sqrt(lam_2 lam_3) = sqrt(a^2 - c^2) of the standard form, whose
    closed form sqrt(1 + kappa) is a sum of nonnegative terms, while a and c reach e^40;
    the carried delta of each mode is kappa."""
    r, n_th, n_e = np.linspace(0.0, 20.0, 201), 0.5, 0.5
    _, lam, delta = evolve(NoisyChannel.uniform(2, 1.0, n_e), probe_tmsdt(r, np.pi, 0, 0, 0, 0, n_th), gt).factor
    kappa = _standard_form(r, n_th, 1.0, gt, n_e, np.eye(2))[2][7]
    for pair in (lam[:, :2], lam[:, 2:]):
        np.testing.assert_allclose(np.sqrt(pair.prod(axis=-1)), np.sqrt(1.0 + kappa), rtol=1e-15, atol=0)
    np.testing.assert_allclose(delta, np.stack([kappa, kappa], axis=-1), rtol=1e-14, atol=0)


def test_uniform_constructor():
    ch = NoisyChannel.uniform(3, 0.7, 0.2)
    assert ch.modes == 3
    assert np.allclose(ch.gamma, 0.7)
    assert np.allclose(ch.n_e, 0.2)


def test_channel_validation():
    with pytest.raises(ValueError):
        NoisyChannel(gamma=[-0.1], n_e=[0.0], m_e=[0.0])
    with pytest.raises(ValueError):
        NoisyChannel(gamma=[1.0], n_e=[-0.2], m_e=[0.0])
    with pytest.raises(ValueError):
        NoisyChannel(gamma=[1.0, 1.0], n_e=[0.1], m_e=[0.0])
    with pytest.raises(ValueError):
        # |m_e|^2 must not exceed n_e (n_e + 1)
        NoisyChannel(gamma=[1.0], n_e=[0.1], m_e=[1.0])
    with pytest.raises(ValueError):
        # the bound's rounding slack is relative: a vacuum reservoir takes no squeezing
        NoisyChannel(gamma=[1.0], n_e=[0.0], m_e=[1e-6])
    # the bound holds where n_e (n_e + 1) overflows: at its edge, and not twice over it
    NoisyChannel(gamma=[1.0], n_e=[1e200], m_e=[1e200])
    with pytest.raises(ValueError, match="violates"):
        NoisyChannel(gamma=[1.0], n_e=[1e200], m_e=[2e200])
    # a negative n_e is named first, with no warning from the bound's roots
    for n_e in (-0.2, -1.0, -2.0, -1e300):
        with pytest.raises(ValueError, match="reservoir occupations must be >= 0"):
            NoisyChannel(gamma=[1.0], n_e=[n_e], m_e=[1.0])


def test_evolve_identity_at_t0():
    st = probe_tmsdt(0.4, np.pi, 0.1, 0.2, -0.3, 0.0, 0.5)
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    out = evolve(ch, st, 0.0)
    assert np.allclose(out.d, st.d, atol=1e-15)
    assert np.allclose(out.V, st.V, atol=1e-15)


def test_evolve_reaches_stationary_state():
    st = probe_tmsdt(0.9, 0.3, 1.0, -1.0, 0.5, 0.5, 0.0)
    ch = NoisyChannel.uniform(2, 1.0, 0.35)
    out = evolve(ch, st, 60.0)
    assert np.allclose(out.d, np.zeros(4), atol=1e-10)
    assert np.allclose(out.V, diffusion_matrix(ch), atol=1e-10)


def test_semigroup_composition():
    st = probe_tmsdt(0.6, np.pi, 0.3, -0.2, 0.1, 0.4, 0.2)
    ch = NoisyChannel(gamma=[0.8, 1.3], n_e=[0.5, 0.1], m_e=[0.2, 0.0])
    one = evolve(ch, st, 0.9)
    two = evolve(ch, evolve(ch, st, 0.4), 0.5)
    assert np.allclose(one.d, two.d, atol=1e-12)
    assert np.allclose(one.V, two.V, atol=1e-12)


def test_evolution_preserves_physicality():
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = rng.uniform(0.0, 1.2)
        st = apply(two_mode_squeezer(r, rng.uniform(0, 2 * np.pi)), vacuum(2))
        ch = NoisyChannel.uniform(2, rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        out = evolve(ch, st, rng.uniform(0.0, 3.0))
        assert out.physical(tol=1e-8)


def test_purity_decreases_into_hot_environment():
    st = squeezed_vacuum(0.5)
    ch = NoisyChannel.uniform(1, 1.0, 0.7)
    p0 = purity(st)
    p1 = purity(evolve(ch, st, 0.2))
    p2 = purity(evolve(ch, st, 0.8))
    assert p0 == pytest.approx(1.0)
    assert p1 < p0
    assert p2 < p1


def test_evolve_input_validation():
    st = vacuum(2)
    ch = NoisyChannel.uniform(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(ch, st, 0.5)  # mode count mismatch
    ch2 = NoisyChannel.uniform(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(ch2, st, -0.1)

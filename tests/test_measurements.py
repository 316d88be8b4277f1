import math

import numpy as np
import pytest

from gaussfish import gaussian_core, measurements, qfi_gaussian, scenarios
from gaussfish.channels import NoisyChannel
from gaussfish.gaussian_core import (
    GaussianState,
    SymplecticOp,
    apply,
    beam_splitter_5050,
    coherent,
    omega,
    probe_tmsdt,
    thermal,
    vacuum,
)
from gaussfish.measurements import (
    GeneralDyne,
    MeasureMode,
    cfim_gaussian_outcomes,
    dress_inefficient,
    epr_readout,
    measurement_cov,
    outcome_density,
    outcome_mean_cov,
    sample_outcomes,
)
from gaussfish.qfi_gaussian import PointMoments, displacement_model, qfim_sld


def test_measurement_cov_examples():
    assert np.allclose(measurement_cov(MeasureMode("general", s=0.25)), np.diag([0.25, 4.0]))
    assert np.allclose(measurement_cov(MeasureMode("heterodyne")), np.eye(2))
    rotated = measurement_cov(MeasureMode("general", s=0.25, phi=math.pi / 2))
    assert np.allclose(rotated, np.diag([4.0, 0.25]), atol=1e-12)
    with pytest.raises(ValueError):
        measurement_cov(MeasureMode("homodyne_q"))


def test_measurement_cov_is_minimum_uncertainty():
    vm = measurement_cov(MeasureMode("general", s=0.3, phi=0.7))
    assert np.linalg.det(vm) == pytest.approx(1.0)
    eig = np.linalg.eigvalsh(vm + 1j * omega(1))
    assert eig.min() >= -1e-12


def test_mode_validation():
    with pytest.raises(ValueError):
        MeasureMode("photon-counting")
    with pytest.raises(ValueError):
        MeasureMode("general", s=0.0)
    with pytest.raises(ValueError):
        GeneralDyne(())


def test_dressing_keeps_valid_measurement():
    vm = measurement_cov(MeasureMode("general", s=0.2, phi=0.4))
    dressed = dress_inefficient(vm, 0.5, 0.6)
    x = math.exp(0.3)
    assert np.allclose(dressed, x * vm + (x - 1) * np.eye(2))
    eig = np.linalg.eigvalsh(dressed + 1j * omega(1))
    assert eig.min() >= -1e-12
    assert np.allclose(dress_inefficient(vm, 0.0, 5.0), vm)
    with pytest.raises(ValueError):
        dress_inefficient(vm, -0.1, 1.0)


def test_outcome_moments_heterodyne():
    st = coherent(1.0, -0.5)
    mu, Sigma = outcome_mean_cov(st, GeneralDyne((MeasureMode("heterodyne"),)))
    assert np.allclose(mu, [1.0, -0.5])
    assert np.allclose(Sigma, np.eye(2))  # (V + I)/2 with V = I


def test_outcome_moments_homodyne():
    st = thermal(0.5)
    mu, Sigma = outcome_mean_cov(st, GeneralDyne((MeasureMode("homodyne_q"),)))
    assert mu.shape == (1,)
    assert Sigma[0, 0] == pytest.approx(1.0)  # A/2 with A = 2
    _, Sp = outcome_mean_cov(st, GeneralDyne((MeasureMode("homodyne_p"),)))
    assert Sp[0, 0] == pytest.approx(1.0)


def test_outcome_moments_dressing_adds_homodyne_noise():
    st = vacuum(1)
    gd = GeneralDyne((MeasureMode("homodyne_q"),))
    _, S0 = outcome_mean_cov(st, gd)
    _, S1 = outcome_mean_cov(st, gd, dressing=(1.0, 0.4))
    x = math.exp(0.4)
    assert S1[0, 0] == pytest.approx(S0[0, 0] + (x - 1) / 2.0)


def test_outcome_density_vacuum_homodyne_peak():
    st = vacuum(1)
    gd = GeneralDyne((MeasureMode("homodyne_q"),))
    # variance 1/2 so the peak is 1/sqrt(pi)
    assert outcome_density(st, gd, [0.0]) == pytest.approx(1.0 / math.sqrt(math.pi))


def test_outcome_density_normalization():
    st = thermal(0.4)
    gd = GeneralDyne((MeasureMode("heterodyne"),))
    xs = np.linspace(-8, 8, 161)
    vals = np.array([[outcome_density(st, gd, [a, b]) for a in xs] for b in xs])
    total = np.trapezoid(np.trapezoid(vals, xs), xs)
    assert total == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        outcome_density(st, gd, [0.0])


def test_sampler_statistics():
    rng = np.random.default_rng(5)
    st = coherent(0.8, -0.3)
    gd = GeneralDyne((MeasureMode("heterodyne"),))
    xs = sample_outcomes(st, gd, 40000, rng)
    assert xs.shape == (40000, 2)
    se = 1.0 / math.sqrt(40000)
    assert np.all(np.abs(xs.mean(axis=0) - [0.8, -0.3]) < 3 * se)
    assert np.allclose(np.cov(xs.T), np.eye(2), atol=0.05)


def test_monte_carlo_score_covariance_matches_cfim():
    # empirical covariance of the numerical score equals the reported CFIM
    model = displacement_model(thermal(0.3))
    gd = GeneralDyne((MeasureMode("heterodyne"),))
    theta = np.array([0.2, -0.1])
    F = cfim_gaussian_outcomes(model, gd, theta)
    rng = np.random.default_rng(11)
    xs = sample_outcomes(model.state(theta), gd, 5000, rng)
    h = 1e-5
    scores = np.empty((xs.shape[0], 2))
    for mu in range(2):
        tp, tm = theta.copy(), theta.copy()
        tp[mu] += h
        tm[mu] -= h
        sp, sm = model.state(tp), model.state(tm)
        lp = np.array([math.log(outcome_density(sp, gd, x)) for x in xs])
        lm = np.array([math.log(outcome_density(sm, gd, x)) for x in xs])
        scores[:, mu] = (lp - lm) / (2 * h)
    emp = np.cov(scores.T)
    # 3 sigma on each entry for 5000 samples
    assert np.all(np.abs(emp - F) < 3 * np.abs(F).max() * math.sqrt(2.0 / 5000) + 3e-3)


def test_heterodyne_cfim_vacuum():
    model = displacement_model(vacuum(1))
    F = cfim_gaussian_outcomes(model, GeneralDyne((MeasureMode("heterodyne"),)), [0, 0])
    assert np.allclose(F, np.eye(2), atol=1e-12)
    Fq = qfim_sld(model, [0, 0])
    assert np.linalg.eigvalsh(Fq - F).min() >= -1e-12


def test_epr_readout_on_reference_scenario():
    pre, gd = epr_readout()
    assert gd.outcome_dim == 2
    probe = probe_tmsdt(0.4, math.pi, 0, 0, 0, 0, 0.0)
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    model = displacement_model(probe, ch, 0.2)
    F = cfim_gaussian_outcomes(model, gd, [0, 0], pre_op=pre)
    x = math.exp(0.2)
    D = (x - 1) * 2.0 + math.cosh(0.8)
    s = math.sinh(0.8)
    assert np.allclose(F, np.eye(2) / (D - s), atol=1e-12)


def test_epr_readout_beats_no_squeezing_at_moderate_r():
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    pre, gd = epr_readout()

    def hdb(r):
        probe = probe_tmsdt(r, math.pi, 0, 0, 0, 0, 0.0)
        model = displacement_model(probe, ch, 0.2)
        F = cfim_gaussian_outcomes(model, gd, [0, 0], pre_op=pre)
        return float(np.trace(np.linalg.inv(F)))

    assert hdb(0.5) < hdb(0.0)


def test_cfim_never_beats_qfim_across_phases():
    ch = NoisyChannel.uniform(2, 1.0, 0.5)
    pre, gd = epr_readout()
    for phi in (0.0, 0.7, math.pi / 2, math.pi, 4.5):
        probe = probe_tmsdt(0.6, phi, 0, 0, 0, 0, 0.0)
        model = displacement_model(probe, ch, 0.2)
        F_c = cfim_gaussian_outcomes(model, gd, [0, 0], pre_op=pre)
        F_q = qfim_sld(model, [0, 0])
        assert np.linalg.eigvalsh(F_q - F_c).min() >= -1e-9


def test_measurement_mode_count_must_match():
    with pytest.raises(ValueError):
        outcome_mean_cov(vacuum(2), GeneralDyne((MeasureMode("heterodyne"),)))


def _two_mode_stack(seed, k):
    """k random physical two-mode states, thermal ones squeezed by a two-mode squeezer."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        S = gaussian_core.two_mode_squeezer(rng.uniform(0.1, 0.8), rng.uniform(0, 2 * math.pi)).S
        V = S @ np.diag(np.repeat(rng.uniform(1.0, 2.5, 2), 2)) @ S.T
        states.append(GaussianState(rng.normal(size=4), V))
    return states


def _shifted_beam_splitter():
    return SymplecticOp(beam_splitter_5050().S, np.array([0.3, -0.1, 0.2, 0.5]))


@pytest.mark.parametrize("k", [3, 5])
def test_outcome_moments_on_a_stack_match_each_state(k):
    states = _two_mode_stack(k, k)
    st = GaussianState(np.array([s.d for s in states]), np.array([s.V for s in states]))
    gd = GeneralDyne((MeasureMode("general", s=0.3, phi=0.4), MeasureMode("homodyne_p")))
    pre = _shifted_beam_splitter()
    mu, Sigma = outcome_mean_cov(st, gd, dressing=(1.0, 0.2))
    mu_op, Sigma_op = outcome_mean_cov(apply(pre, st), gd)
    assert mu.shape == (k, 3) and Sigma.shape == (k, 3, 3)
    for i, one in enumerate(states):
        want_mu, want_sigma = outcome_mean_cov(one, gd, dressing=(1.0, 0.2))
        assert np.array_equal(mu[i], want_mu) and np.array_equal(Sigma[i], want_sigma)
        want_mu, want_sigma = outcome_mean_cov(apply(pre, one), gd)
        np.testing.assert_allclose(mu_op[i], want_mu, rtol=0, atol=1e-14 * np.abs(want_mu).max())
        np.testing.assert_allclose(Sigma_op[i], want_sigma, rtol=0, atol=1e-14 * np.abs(want_sigma).max())


def test_recorded_row_readout_matches_the_pre_op_folded_into_the_model():
    """Only the recorded rows of pre_op.S are formed; the result is the readout of the mapped model."""
    rng = np.random.default_rng(21)
    gd = GeneralDyne((MeasureMode("general", s=0.3, phi=0.4), MeasureMode("homodyne_p")))
    pre = _shifted_beam_splitter()
    S = pre.S
    for st in _two_mode_stack(4, 3):
        dds = [rng.normal(size=4) for _ in range(3)]
        dVs = [a + a.T for a in rng.normal(size=(3, 4, 4))]
        got = cfim_gaussian_outcomes(PointMoments(st, dds, dVs, 3), gd, pre_op=pre, dressing=(1.0, 0.1))
        folded = PointMoments(apply(pre, st), [S @ dd for dd in dds], [S @ dV @ S.T for dV in dVs], 3)
        want = cfim_gaussian_outcomes(folded, gd, dressing=(1.0, 0.1))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the Gaussian formula term by term on the folded moments, whose recorded rows are Q1, P1, P2
        rows = [0, 1, 3]
        _, Sigma = outcome_mean_cov(folded.st, gd, dressing=(1.0, 0.1))
        Si = np.linalg.inv(Sigma)
        dmu = [dd[rows] for dd in folded.dds]
        dsig = [0.5 * dV[np.ix_(rows, rows)] for dV in folded.dVs]
        ref = np.array(
            [[dmu[j] @ Si @ dmu[k] + 0.5 * np.trace(Si @ dsig[j] @ Si @ dsig[k]) for k in range(3)] for j in range(3)]
        )
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_readout_pre_op_must_match_the_state_modes():
    model = displacement_model(vacuum(1))
    gd = GeneralDyne((MeasureMode("heterodyne"),))
    with pytest.raises(ValueError, match="mode count mismatch"):
        cfim_gaussian_outcomes(model, gd, [0, 0], pre_op=beam_splitter_5050())


def test_a_singular_outcome_covariance_stops_the_stack():
    """Sigma^-1 is LAPACK's inv: one singular outcome covariance in a stack raises its
    LinAlgError for the whole stack, with or without a dV, through the EPR readout."""
    rng = np.random.default_rng(64)
    k = 50
    b = rng.normal(size=(k, 4, 4))
    V = np.eye(4) + b @ b.swapaxes(-1, -2)
    V[-1] = 0.0
    dds = rng.normal(size=(2, k, 4))
    pre, gd = epr_readout()
    for dVs in (np.zeros((2, k, 4, 4)), rng.normal(size=(2, k, 4, 4))):
        singular = PointMoments(GaussianState(np.zeros((k, 4)), V), dds, dVs, 2)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            cfim_gaussian_outcomes(singular, gd, pre_op=pre)


def test_sweep_readout_makes_no_apply_call(monkeypatch):
    """The readout of a 201-point sweep reads the recorded rows directly, with no apply call:
    hdb comes from S_r O and lam in the factored columns (_factored_columns), once per
    sweep, with and without a squeezed reservoir."""
    for m_e in (0.0, 0.2):
        calls = []
        for mod in (gaussian_core, qfi_gaussian, measurements):
            if hasattr(mod, "apply"):
                monkeypatch.setattr(mod, "apply", lambda *a, fn=mod.apply: calls.append("apply") or fn(*a))
        columns = scenarios._factored_columns

        def traced(*a, columns=columns, **kw):
            calls.append("columns")
            out = columns(*a, **kw)
            calls.append("done")
            return out

        monkeypatch.setattr(scenarios, "_factored_columns", traced)
        cfg = scenarios.ScenarioConfig(probe="tmst", n_th=0.5, m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
        rows = scenarios.sweep(cfg)
        monkeypatch.undo()
        assert len(rows) == 201 and all(row.ok for row in rows), m_e
        assert calls == ["columns", "done"], m_e

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussfish import scenarios
from gaussfish.scenarios import (
    CSV_HEADER,
    PROBES,
    ScenarioConfig,
    build_probe,
    closed_form_bounds,
    rows_to_csv,
    rows_to_json,
    run_point,
    sweep,
)


def _cfg(**kw):
    base = dict(probe="tmsv", r=0.4, n_th=0.0, gamma=1.0, n_e=0.5, t=0.2)
    base.update(kw)
    return ScenarioConfig(**base)


def test_closed_form_spot_values():
    x = math.exp(0.3)
    cf = closed_form_bounds("tmdt", 0.0, 0.5, 1.0, 0.3, 0.5)
    assert cf.b_s == pytest.approx(2.0 * x)
    assert cf.b_r == pytest.approx(cf.b_h_upper)
    assert cf.r_q == pytest.approx(0.5)
    # pure squeezed probe before any decay
    cf0 = closed_form_bounds("tmsv", 0.4, 0.0, 1.0, 0.0, 0.5)
    assert cf0.b_s == pytest.approx(1.0 / math.cosh(0.8))
    # b_r collapses for the pure probe; the cancellation leaves only roundoff
    assert cf0.b_r == pytest.approx(0.0, abs=1e-12)
    assert cf0.b_h_upper == pytest.approx((math.cosh(0.8) + 1) / math.cosh(0.8) ** 2)
    # displaced vacuum: RLD saturates the upper bound
    cfd = closed_form_bounds("tmdv", 0.0, 0.0, 1.0, 0.3, 0.5)
    assert cfd.b_r == pytest.approx(cfd.b_s + x)
    assert cfd.b_h_upper == pytest.approx(cfd.b_r)


def test_closed_form_thermal_requires_matched_temperature():
    with pytest.raises(ValueError, match="matched"):
        closed_form_bounds("tmst", 0.4, 0.3, 1.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        closed_form_bounds("tmdt", 0.0, 0.0, 1.0, 0.2, 0.5)


def test_pipeline_matches_closed_forms_everywhere():
    for probe in PROBES:
        n_th = 0.5 if probe in ("tmst", "tmdt") else 0.0
        alpha = (0.3, -0.2, 0.1, 0.4) if probe in ("tmdv", "tmdt") else (0.0,) * 4
        for r in (0.0, 0.3, 0.8, 1.4):
            for t in (0.0, 0.15, 0.6, 1.0):
                cfg = _cfg(probe=probe, r=r, n_th=n_th, alpha=alpha, t=t)
                row = run_point(cfg, r)
                assert row.ok, (probe, r, t, row.message)
                cf = closed_form_bounds(probe, r, n_th, 1.0, t, 0.5)
                assert row.b_s == pytest.approx(cf.b_s, abs=1e-8)
                assert row.b_r == pytest.approx(cf.b_r, abs=1e-8)
                assert row.r_q == pytest.approx(cf.r_q, abs=1e-8)
                assert row.b_h_upper == pytest.approx(cf.b_h_upper, abs=1e-8)
                assert row.b_h_mid == pytest.approx(cf.b_h_upper, abs=1e-8)


def test_double_homodyne_never_beats_scalar_bound():
    for probe in PROBES:
        n_th = 0.5 if probe in ("tmst", "tmdt") else 0.0
        for r in (0.0, 0.4, 1.0):
            cfg = _cfg(probe=probe, r=r, n_th=n_th, t=0.35)
            row = run_point(cfg, r)
            assert row.hdb >= row.b_s - 1e-9


def test_upper_bound_improves_with_squeezing_on_reference_grid():
    cfg = _cfg(axis="r", start=0.0, stop=1.4, step=0.1)
    rows = sweep(cfg)
    bh = [row.b_h_upper for row in rows]
    assert all(b2 < b1 + 1e-12 for b1, b2 in zip(bh, bh[1:]))
    assert rows[0].b_h_upper == pytest.approx(rows[0].sql)  # r = 0 is the benchmark


def test_squeezed_probe_beats_benchmark_at_short_times():
    cfg = _cfg(axis="t", start=0.0, stop=0.7, step=0.05)
    rows = sweep(cfg)
    for row in rows:
        assert row.ok
        assert row.b_h_upper < row.sql, "expected an advantage at t=%.2f" % row.axis


def test_displaced_probes_never_beat_benchmark():
    for probe, n_th in (("tmdv", 0.0), ("tmdt", 0.5)):
        cfg = _cfg(probe=probe, n_th=n_th, alpha=(0.3, -0.2, 0.1, 0.4), axis="t", start=0.0, stop=1.0, step=0.1)
        rows = sweep(cfg)
        for row in rows:
            assert row.b_h_upper >= row.sql - 1e-9


def test_build_probe_families():
    st = build_probe(_cfg(probe="tmdv", alpha=(0.1, 0.2, 0.3, 0.4)))
    assert np.allclose(st.d, [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(st.V, np.eye(4))
    st2 = build_probe(_cfg(probe="tmst", r=0.4, n_th=0.5))
    assert np.allclose(st2.V, 2.0 * build_probe(_cfg(probe="tmsv", r=0.4)).V)
    with pytest.raises(ValueError):
        build_probe(_cfg(probe="epr"))


def test_config_validation():
    with pytest.raises(ValueError, match="probe"):
        _cfg(probe="epr").validate()
    with pytest.raises(ValueError, match="axis"):
        _cfg(axis="q").validate()
    with pytest.raises(ValueError, match="empty"):
        _cfg(start=2.0, stop=1.0, step=0.1).validate()
    with pytest.raises(ValueError, match="step"):
        _cfg(step=0.0).validate()
    with pytest.raises(ValueError):
        _cfg(gamma=-1.0).validate()
    with pytest.raises(ValueError):
        _cfg(threads=0).validate()
    with pytest.raises(ValueError):
        _cfg(weight=[[1.0, 0.0]]).validate()
    cfg = _cfg()
    cfg.validate()
    assert cfg.n_values() == 15
    assert np.allclose(cfg.axis_values()[:3], [0.0, 0.1, 0.2])


def test_bad_point_degrades_to_nan_row():
    cfg = _cfg(axis="t", start=-0.1, stop=0.1, step=0.1)
    rows = sweep(cfg)
    assert not rows[0].ok
    assert math.isnan(rows[0].b_s)
    assert rows[0].message != ""
    assert rows[1].ok and not math.isnan(rows[1].b_s)


def test_weight_scales_scalar_bounds():
    base = run_point(_cfg(), 0.4)
    weighted = run_point(_cfg(weight=[[2.0, 0.0], [0.0, 1.0]]), 0.4)
    # isotropic information: Tr[W F^-1] scales by (2+1)/2
    assert weighted.b_s == pytest.approx(1.5 * base.b_s, abs=1e-10)
    assert weighted.hdb == pytest.approx(1.5 * base.hdb, abs=1e-10)


def test_sweep_deterministic_and_thread_invariant():
    cfg = _cfg(axis="r", start=0.0, stop=0.6, step=0.1)
    rows1 = sweep(cfg)
    rows2 = sweep(cfg)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    cfg_mt = _cfg(axis="r", start=0.0, stop=0.6, step=0.1, threads=3)
    rows3 = sweep(cfg_mt)
    assert rows_to_csv(rows3) == rows_to_csv(rows1)


def test_csv_shape():
    rows = sweep(_cfg(axis="r", start=0.0, stop=0.3, step=0.1))
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "axis,b_s,b_r,b_h_mid,b_h_upper,hdb,r_q,sql"
    assert len(lines) == 1 + 4 + 1  # header + rows + trailing newline
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.0


def test_json_round_trip():
    cfg = _cfg(axis="r", start=0.0, stop=0.2, step=0.1)
    rows = sweep(cfg)
    payload = json.loads(rows_to_json(rows, cfg))
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["b_s"] == rows[0].b_s
    assert payload["config"]["probe"] == "tmsv"


def test_numerical_overflow_degrades_to_nan_row():
    row = run_point(_cfg(axis="t"), 800.0)  # e^{gamma t} overflows in the closed form
    assert not row.ok and math.isnan(row.b_s)


def test_programming_error_propagates_instead_of_degrading(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken layer")

    monkeypatch.setattr(scenarios, "cfim_gaussian_outcomes", broken)
    with pytest.raises(TypeError, match="broken layer"):
        run_point(_cfg(), 0.4)


def test_run_point_evaluates_the_model_once(monkeypatch):
    calls = []
    build = scenarios.displacement_model

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        state_fn = model.state_fn

        def counted(theta):
            calls.append(1)
            return state_fn(theta)

        model.state_fn = counted
        return model

    monkeypatch.setattr(scenarios, "displacement_model", counting_model)
    cfg = _cfg(probe="tmdt", n_th=0.5, alpha=(0.3, -0.2, 0.1, 0.4), axis="t", stop=0.4)
    rows = sweep(cfg)
    assert all(row.ok for row in rows)
    assert len(calls) == len(rows) == 5


def test_pure_probe_rld_limits_at_t0():
    sq = run_point(_cfg(probe="tmsv", r=0.4, axis="t"), 0.0)
    assert sq.b_r == 0.0
    assert closed_form_bounds("tmsv", 0.4, 0.0, 1.0, 0.0, 0.5).b_r == pytest.approx(0.0, abs=1e-12)
    disp = run_point(_cfg(probe="tmdv", alpha=(0.3, -0.2, 0.1, 0.4), axis="t"), 0.0)
    cf = closed_form_bounds("tmdv", 0.0, 0.0, 1.0, 0.0, 0.5)
    assert cf.b_r == 2.0
    assert disp.b_r == pytest.approx(cf.b_r, abs=1e-12)


def test_tmst_closed_form_vacuum_pair_corner():
    # r = 0 and n_th = n_e = 0 make tmst the vacuum pair, which is tmdv
    x = math.exp(0.3)
    cf = closed_form_bounds("tmst", 0.0, 0.0, 1.0, 0.3, 0.0)
    assert cf.b_r == pytest.approx(closed_form_bounds("tmdv", 0.0, 0.0, 1.0, 0.3, 0.0).b_r, abs=1e-12)
    assert cf.b_r == pytest.approx(cf.b_s + x, abs=1e-12)
    row = run_point(_cfg(probe="tmst", r=0.0, n_th=0.0, n_e=0.0, axis="t"), 0.3)
    assert row.b_r == pytest.approx(cf.b_r, abs=1e-8)


def _zero_or(lo, hi):
    return st.one_of(st.just(0.0), st.floats(lo, hi))


@settings(max_examples=60, deadline=None)
@given(
    probe=st.sampled_from(PROBES),
    r=_zero_or(0.01, 1.5),
    n=_zero_or(1e-8, 1.0),
    gamma=st.floats(0.2, 2.0),
    gamma_t=_zero_or(1e-8, 2.0),
)
def test_pipeline_matches_closed_forms_property(probe, r, n, gamma, gamma_t):
    """Closed forms and the chain on the matched slice n_th = n_e, pure states included.

    Each range is 0 plus an interval: r >= 0.01, n >= 1e-8, gamma t >= 1e-8.
    At those lower ends nu - 1 of the least mixed mode is about 2 n = 2e-8
    for the thermal probes and 2 gamma t sinh^2 r for tmsv in vacuum noise,
    down to 2e-12 at r = 0.01, gamma t = 1e-8.  Nearer to
    purity both sides lose digits to cancellation: the closed forms in
    cosh 2r - 1 and D - x, the program in nu - 1, which it forms by
    subtraction.  tmsv at r = 1e-4, n = 0, gamma t = 1e-8 has nu - 1 of about
    2e-16, which the program takes as pure (b_r = 0), against a closed-form
    b_r of 2.3e-8.
    """
    alpha = (0.3, -0.2, 0.1, 0.4) if probe in ("tmdv", "tmdt") else (0.0,) * 4
    t = gamma_t / gamma
    cfg = ScenarioConfig(probe=probe, r=r, n_th=n, n_e=n, gamma=gamma, alpha=alpha, axis="t")
    row = run_point(cfg, t)
    assert row.ok, row.message
    cf = closed_form_bounds(probe, r, n, gamma, t, n)
    pairs = ((row.b_s, cf.b_s), (row.b_r, cf.b_r), (row.r_q, cf.r_q), (row.b_h_upper, cf.b_h_upper))
    for got, want in pairs:
        assert got == pytest.approx(want, abs=1e-8)
    assert max(row.b_s, row.b_r) <= row.b_h_mid + 1e-9
    assert row.b_h_mid <= row.b_h_upper + 1e-9
    assert row.b_h_upper <= 2 * row.b_s + 1e-9

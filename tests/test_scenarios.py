import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussfish import numkit, scenarios
from gaussfish.channels import NoisyChannel
from gaussfish.measurements import cfim_gaussian_outcomes, epr_readout
from gaussfish.qfi_gaussian import displacement_model, qfim_report
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
    rng = np.random.default_rng(5)
    for probe in PROBES:
        n_th = 0.5 if probe in ("tmst", "tmdt") else 0.0
        for r in (0.0, 0.4, 1.0):
            for weight in (None, [[2.0, 0.3], [0.3, 1.0]]):
                cfg = _cfg(probe=probe, r=r, n_th=n_th, t=0.35, phi=rng.uniform(0.0, 2 * math.pi), weight=weight)
                row = run_point(cfg, r)
                assert row.hdb >= row.b_s - 1e-9
                assert row.hdb >= row.b_r - 1e-9


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
    for bad in (math.inf, -math.inf, math.nan):
        for name in ("r", "phi", "n_th", "gamma", "n_e", "m_e", "t", "start", "stop", "step"):
            with pytest.raises(ValueError, match="%s must be finite" % name):
                _cfg(**{name: bad}).validate()
        with pytest.raises(ValueError, match="alpha must be finite"):
            _cfg(alpha=(0.0, bad, 0.0, 0.0)).validate()
        with pytest.raises(ValueError, match="theta must be finite"):
            _cfg(theta=(bad, 0.0)).validate()
        with pytest.raises(ValueError, match="weight must be finite"):
            _cfg(weight=[[1.0, 0.0], [bad, 1.0]]).validate()
    for name, bad in (("r", "0.4"), ("gamma", None), ("alpha", (0.0, "x", 0.0, 0.0)), ("step", True)):
        with pytest.raises(ValueError, match="%s must be a number" % name):
            _cfg(**{name: bad}).validate()
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = run_point(_cfg(axis="t"), 800.0)  # F_R ~ e^{-800}: its limiting inverse overflows
    assert not row.ok and math.isnan(row.b_s)
    assert "overflow" in row.message
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_programming_error_propagates_instead_of_degrading(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken layer")

    monkeypatch.setattr(scenarios, "cfim_gaussian_outcomes", broken)
    with pytest.raises(TypeError, match="broken layer"):
        run_point(_cfg(), 0.4)


def test_run_point_evaluates_the_model_once(monkeypatch):
    """A sweep is one stacked model evaluation; run_point is the same on a one-point stack."""
    stacks = []
    build = scenarios.displacement_model

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        state_fn = model.state_fn

        def counted(theta):
            st = state_fn(theta)
            stacks.append(st.V.shape[0])
            return st

        model.state_fn = counted
        return model

    point_calls = []
    point = scenarios.run_point

    def counting_point(*args, **kwargs):
        point_calls.append(1)
        return point(*args, **kwargs)

    monkeypatch.setattr(scenarios, "displacement_model", counting_model)
    monkeypatch.setattr(scenarios, "run_point", counting_point)
    cfg = _cfg(probe="tmdt", n_th=0.5, alpha=(0.3, -0.2, 0.1, 0.4), axis="t", stop=0.4)
    rows = sweep(cfg)
    assert all(row.ok for row in rows)
    assert stacks == [len(rows)] == [5]
    assert point_calls == []
    assert scenarios.run_point(cfg, 0.2).ok
    assert stacks == [5, 1]


@pytest.mark.parametrize("axis", scenarios.AXES)
def test_sweep_builds_the_probe_once_on_every_axis(monkeypatch, axis):
    built = []
    probe_tmsdt = scenarios.probe_tmsdt

    def counting_probe(*args):
        built.append(args)
        return probe_tmsdt(*args)

    monkeypatch.setattr(scenarios, "probe_tmsdt", counting_probe)
    for probe in PROBES:
        built.clear()
        cfg = _cfg(probe=probe, n_th=0.3, axis=axis, start=0.1, stop=0.5, step=0.1)
        rows = sweep(cfg)
        assert len(rows) == 5 and all(row.ok for row in rows)
        assert len(built) == 1


def test_sql_column_is_the_scalar_closed_form_at_every_point():
    for axis, stop in (("t", 2.0), ("gamma", 3.0), ("n_e", 2.0), ("r", 1.0)):
        cfg = _cfg(probe="tmst", axis=axis, start=0.0, stop=stop, step=stop / 200)
        rows = sweep(cfg)
        assert len(rows) == 201
        for row in rows:
            c = replace(cfg, **{axis: row.axis})
            want = closed_form_bounds("tmdv", 0.0, 0.0, c.gamma, c.t, c.n_e).b_h_upper
            assert abs(row.sql - want) <= 4.4e-16 * want


def test_weighted_sql_is_the_displaced_vacuum_upper_bound():
    for weight in ([[2.0, 0.0], [0.0, 2.0]], [[2.0, 0.3], [0.3, 1.0]]):
        rows = sweep(_cfg(probe="tmdv", weight=weight, axis="t", start=0.0, stop=1.0, step=0.25))
        for row in rows:
            assert row.sql == pytest.approx(row.b_h_upper, rel=1e-12)
        squeezed = sweep(_cfg(weight=weight, axis="r", start=0.0, stop=0.4, step=0.2))
        assert squeezed[0].sql == pytest.approx(squeezed[0].b_h_upper, rel=1e-12)  # r = 0


SWEEP_AXES = {"t": (0.0, 1.0, 0.25), "r": (0.0, 1.2, 0.3), "n_e": (0.0, 1.0, 0.25), "n_th": (0.0, 1.0, 0.25), "gamma": (0.0, 2.0, 0.5)}
ROW_FIELDS = ("b_s", "b_r", "b_h_mid", "b_h_upper", "hdb", "r_q", "sql")


def _generic_row(cfg, value):
    """The row at one value through the per-point GaussianModel route (qfim_report, cfim)."""
    c = replace(cfg, **{cfg.axis: value})
    model = displacement_model(build_probe(c), NoisyChannel.uniform(2, c.gamma, c.n_e, c.m_e), c.t)
    W = c.weight_matrix()
    rep = qfim_report(model, c.theta, weight=W)
    pre, gd = epr_readout()
    hdb = float(np.trace(W @ numkit.pinv(cfim_gaussian_outcomes(model, gd, c.theta, pre_op=pre))))
    sql = closed_form_bounds("tmdv", 0.0, 0.0, c.gamma, c.t, c.n_e, weight=W).b_h_upper
    return (rep.b_s, rep.b_r, rep.b_h_mid, rep.b_h_upper, hdb, rep.r_q, sql)


@pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
@pytest.mark.parametrize("probe", PROBES)
def test_stacked_sweep_matches_generic_per_point_path(probe, axis):
    start, stop, step = SWEEP_AXES[axis]
    cfg = _cfg(probe=probe, r=0.6, n_th=0.3, n_e=0.4, gamma=0.7, t=0.4, alpha=(0.3, -0.2, 0.1, 0.4),
               axis=axis, start=start, stop=stop, step=step, weight=[[2.0, 0.3], [0.3, 1.0]])
    rows = sweep(cfg)
    assert len(rows) == 5 and all(row.ok for row in rows)
    for row in rows:
        got = [getattr(row, name) for name in ROW_FIELDS]
        np.testing.assert_allclose(got, _generic_row(cfg, row.axis), rtol=1e-12, atol=0)
        point = run_point(cfg, row.axis)
        np.testing.assert_allclose(got, [getattr(point, name) for name in ROW_FIELDS], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "axis, start, stop, step, first, last",
    [
        ("t", -0.1, 799.9, 200.0, "t must be >= 0", "overflow"),
        ("gamma", -0.5, 800.0, 200.125, "damping rates must be >= 0", "overflow"),
    ],
)
def test_failing_points_degrade_alone_in_a_stacked_sweep(axis, start, stop, step, first, last):
    cfg = _cfg(axis=axis, t=1.0, start=start, stop=stop, step=step)
    rows = sweep(cfg)
    assert len(rows) == 5
    assert not rows[0].ok and first in rows[0].message
    assert not rows[-1].ok and last in rows[-1].message
    assert all(math.isnan(v) for row in (rows[0], rows[-1]) for v in row[1:8])
    for row in rows[1:-1]:
        assert row.ok
        assert row == run_point(cfg, row.axis)


# Grids whose points fail, by overflow or outside a layer's domain, beside points that do not.
DEGRADE_GRIDS = [
    ("gamma", 600.0, 800.0, 10.0, {}),
    ("t", -0.1, 1599.9, 80.0, {}),
    ("n_e", 0.0, 1e200, 5e198, {}),
    ("n_th", -1.0, 1.0, 0.1, {}),
    ("n_e", -1.0, 1.0, 0.1, {"m_e": 0.1}),
    ("r", 0.0, 20.0, 1.0, {}),
    ("r", 0.0, 600.0, 30.0, {}),
]


@pytest.mark.parametrize("axis, start, stop, step, extra", DEGRADE_GRIDS)
def test_a_row_degrades_exactly_where_the_per_point_path_fails(axis, start, stop, step, extra):
    """The per-point path, with numpy errors raised, referees which rows degrade."""
    for probe in PROBES:
        cfg = _cfg(probe=probe, n_th=0.5, t=1.0, alpha=(0.3, -0.2, 0.1, 0.4),
                   axis=axis, start=start, stop=stop, step=step, **extra)
        for row in sweep(cfg):
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    want = _generic_row(cfg, row.axis)
            except (ValueError, np.linalg.LinAlgError, FloatingPointError):
                want = None
            assert row.ok == (want is not None), (probe, row)
            got = [getattr(row, name) for name in ROW_FIELDS]
            if row.ok:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                assert all(math.isnan(v) for v in got)


def test_failing_points_cost_no_point_by_point_rerun(monkeypatch):
    """An overflow costs nothing extra; a point that raises is isolated by halving the stack."""
    stacks = []
    evaluate_stack = scenarios._evaluate
    monkeypatch.setattr(scenarios, "_evaluate", lambda cfg, values: stacks.append(len(values)) or evaluate_stack(cfg, values))
    monkeypatch.setattr(scenarios, "run_point", lambda *a: pytest.fail("sweep called run_point"))

    def run(cfg):
        stacks.clear()
        rows = sweep(cfg)
        assert len(stacks) <= 2 * len(rows) - 1
        return rows

    for probe in PROBES:
        base = _cfg(probe=probe, n_th=0.5, t=1.0, alpha=(0.3, -0.2, 0.1, 0.4))
        rows = run(replace(base, axis="gamma", start=0.0, stop=800.0, step=4.0))
        assert stacks == [201]
        assert [row.ok for row in rows] == [row.axis < 712.0 for row in rows]  # 23 rows fail
        assert all(row.message.startswith("overflow") for row in rows if not row.ok)
        rows = run(replace(base, axis="t", start=-0.005, stop=0.995, step=0.005))
        assert len(rows) == 201 and len(stacks) <= 1 + 2 * math.ceil(math.log2(201))
        assert [row.ok for row in rows] == [False] + [True] * 200
        assert rows[0].message == "t must be >= 0"
        rows = run(replace(base, axis="n_e", start=-1.0, stop=-0.1, step=0.1))
        assert len(stacks) == 2 * len(rows) - 1 and not any(row.ok for row in rows)
        run(replace(base, axis="n_e", start=-1.0, stop=1.0, step=0.1, m_e=0.1))


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


@settings(max_examples=100, deadline=None)
@given(
    probe=st.sampled_from(PROBES),
    axis=st.sampled_from(scenarios.AXES),
    r=_zero_or(0.01, 1.5),
    n_th=_zero_or(1e-8, 1.0),
    n_e=_zero_or(1e-8, 1.0),
    gamma=st.floats(0.2, 2.0),
    gamma_t=_zero_or(1e-8, 2.0),
    phi=st.one_of(st.just(math.pi), st.floats(0.0, 2 * math.pi)),
    weight=st.sampled_from([None, [[2.0, 0.3], [0.3, 1.0]]]),
)
# near-pure b_r: a QR of the RLD split with its light rows first missed the closed form by 1e-9
@example(probe="tmsv", axis="r", r=0.0, n_th=0.0, n_e=6.103515625e-05, gamma=1.0, gamma_t=1e-08, phi=math.pi, weight=None)
def test_pipeline_matches_closed_forms_property(probe, axis, r, n_th, n_e, gamma, gamma_t, phi, weight):
    """Every column of the row against the closed forms, pure states included.

    Each range is 0 plus an interval: r >= 0.01, n_th and n_e >= 1e-8,
    gamma t >= 1e-8.  At those lower ends nu - 1 of the least mixed mode is
    about 2 n for a thermal probe or noise and 2 gamma t sinh^2 r for tmsv in
    vacuum noise, down to 2e-12 at r = 0.01, gamma t = 1e-8.  Nearer to
    purity the program loses digits in nu - 1, which it forms by subtraction:
    tmsv at r = 1e-4, n = 0, gamma t = 1e-8 has nu - 1 of about 2e-16, which
    the program takes as pure (b_r = 0), against a closed-form b_r of 2.3e-8.
    """
    alpha = (0.3, -0.2, 0.1, 0.4) if probe in ("tmdv", "tmdt") else (0.0,) * 4
    t = gamma_t / gamma
    params = dict(r=r, n_th=n_th, n_e=n_e, gamma=gamma, t=t)
    cfg = ScenarioConfig(probe=probe, phi=phi, alpha=alpha, weight=weight, axis=axis, **params)
    row = run_point(cfg, params[axis])
    assert row.ok, row.message
    cf = closed_form_bounds(probe, r, n_th, gamma, t, n_e, phi=phi, weight=weight)
    for name in cf._fields:
        assert getattr(row, name) == pytest.approx(getattr(cf, name), abs=1e-8), name
    sql = closed_form_bounds("tmdv", 0.0, 0.0, gamma, t, n_e, weight=weight)
    assert row.sql == pytest.approx(sql.b_h_upper, abs=1e-8)
    assert max(row.b_s, row.b_r) <= row.b_h_mid + 1e-9
    assert row.b_h_mid <= row.b_h_upper + 1e-9
    assert row.b_h_upper <= 2 * row.b_s + 1e-9
    if weight is None and phi == math.pi:
        # the readout reaches the RLD bound exactly where a - c = 1 (standard form a, c)
        r = r if probe in ("tmsv", "tmst") else 0.0
        n_th = n_th if probe in ("tmst", "tmdt") else 0.0
        y, v, tau = math.exp(-gamma_t), -math.expm1(-gamma_t), 1.0 + 2.0 * n_th
        a = y * tau * math.cosh(2 * r) + v * (1.0 + 2.0 * n_e)
        c = y * tau * math.sinh(2 * r)
        a_1 = 2.0 * (y * (n_th + tau * math.sinh(r) ** 2) + v * n_e)
        assert (row.hdb - row.b_r) * a_1 == pytest.approx((a - c - 1.0) ** 2 / y, abs=1e-8)


def test_rows_to_csv_golden():
    nan = float("nan")
    rows = [
        scenarios.SweepRow(0.0, 1.5, -0.25, 2.0, 3.0, 1e-300, -0.0, 0.1, True, ""),
        scenarios.SweepRow(0.5, nan, nan, nan, nan, nan, nan, nan, False, "degraded"),
        scenarios.SweepRow(-1.25, 1 / 3, -2 / 3, 12345678.9, -1e20, 5e-324, 1.0, -0.0, True, ""),
    ]
    assert rows_to_csv(rows) == (
        "axis,b_s,b_r,b_h_mid,b_h_upper,hdb,r_q,sql\n"
        "0,1.5,-0.25,2,3,1e-300,-0,0.10000000000000001\n"
        "0.5,nan,nan,nan,nan,nan,nan,nan\n"
        "-1.25,0.33333333333333331,-0.66666666666666663,12345678.9,-1e+20,"
        "4.9406564584124654e-324,1,-0\n"
    )
    assert rows_to_csv([]) == CSV_HEADER + "\n"


def test_tmsv_closed_form_b_r_vanishes_for_the_pure_probe():
    # 6.58e-5 is the point_calls draw where the subtracted form gave -2.5e-8
    for r in [6.580906613401494e-05] + np.logspace(-8, -2, 25).tolist():
        assert closed_form_bounds("tmsv", r, 0.0, 1.0, 0.0, 0.5).b_r == 0.0
        assert closed_form_bounds("tmsv", r, 0.0, 0.3, 0.0, 0.0).b_r == 0.0


def _tmsv_closed_form_mp(r, gamma_t, n_e):
    """The tmsv closed form as first written, D + x - s^2 / (D - x), at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        r, gamma_t, n_e = mp.mpf(r), mp.mpf(gamma_t), mp.mpf(n_e)
        x, eps = mp.exp(gamma_t), 1 + 2 * n_e
        c, s = mp.cosh(2 * r), mp.sinh(2 * r)
        D = (x - 1) * eps + c
        b_s = D - s * s / D
        b_r = D + x if s == 0 else D + x - s * s / (D - x)
        r_q = x / D
        return tuple(float(v) for v in (b_s, b_r, r_q, (1 + r_q) * b_s))


@pytest.mark.parametrize("r", [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.5])
def test_tmsv_closed_form_matches_high_precision(r):
    for gamma_t in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.3, 2.0):
        for n_e in (0.0, 1e-8, 1e-5, 1e-2, 0.5, 1.0):
            got = closed_form_bounds("tmsv", r, 0.0, 1.0, gamma_t, n_e)
            want = _tmsv_closed_form_mp(r, gamma_t, n_e)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-14), (r, gamma_t, n_e)


@pytest.mark.parametrize("r", [8.0, 9.0])
def test_strongly_squeezed_tmsv_is_evaluated(r):
    # the symplectic and symmetry checks scale with the matrix, so the
    # round-off of cosh r ~ 1e3 entries is not taken for a defect
    row = run_point(_cfg(probe="tmsv", r=r, axis="t"), 0.3)
    assert row.ok, row.message
    cf = closed_form_bounds("tmsv", r, 0.0, 1.0, 0.3, 0.5)
    for got, want in zip((row.b_s, row.b_r, row.r_q, row.b_h_upper), cf):
        assert got == pytest.approx(want, rel=1e-6)


def test_tmst_bounds_keep_their_scale_up_to_gamma_t_700():
    """Kernels must not lose the scale of rows at gamma t up to 700, where x = e^(gamma t) ~ 1e304.

    The tmst closed form in units of x, with k = K / x = 1 + (cosh 2r - 1) / x:
    b_s / x = tau (k^2 - sinh^2 2r / x^2) / k, r_q = 1 / (tau k), b_h_upper = (1 + r_q) b_s.
    An unscaled 2x2 kernel that underflows there halves b_s and still reports ok.
    """
    cfg = _cfg(probe="tmst", n_th=0.5, n_e=0.5, t=1.0, axis="gamma", start=300.0, stop=700.0, step=4.0)
    rows = sweep(cfg)
    assert len(rows) == 101 and all(row.ok for row in rows)
    gamma = np.array([row.axis for row in rows])
    y = np.exp(-gamma * cfg.t)  # 1 / x
    tau, c, s = 1.0 + 2.0 * cfg.n_th, math.cosh(2.0 * cfg.r), math.sinh(2.0 * cfg.r)
    k = 1.0 + (c - 1.0) * y
    b_s_x = tau * (k * k - s * s * y * y) / k
    r_q = 1.0 / (tau * k)
    got = {name: np.array([getattr(row, name) for row in rows]) for name in ("b_s", "b_h_upper", "r_q")}
    np.testing.assert_allclose(got["b_s"] * y, b_s_x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got["b_h_upper"] * y, (1.0 + r_q) * b_s_x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got["r_q"], r_q, rtol=1e-12, atol=0)


def test_mixed_sweep_makes_one_qr_and_no_svd_or_eigvalsh(monkeypatch):
    """The LAPACK budget of a 201-point tmst t sweep, whatever its length.

    williamson makes two eigh.  No point has a pure mode, so every limiting RLD
    inverse is certified by one QR, and R^-1 R^-H of its 2x2 R is a closed form.
    F_S, F_C and the readout's outcome covariance are 2x2 and positive definite, so
    pinv_psd and inv_sym take their certified closed forms: no eigh or inv.
    """
    calls = []
    for name in ("svd", "eigvalsh", "qr", "eigh", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, fn=fn, **kw: calls.append(name) or fn(*a, **kw))
    rows = sweep(_cfg(probe="tmst", n_th=0.5, axis="t", start=0.0, stop=1.0, step=0.005))
    monkeypatch.undo()
    assert len(rows) == 201 and all(row.ok for row in rows)
    assert sorted(calls) == ["eigh"] * 2 + ["qr"]

import itertools
import json
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussfish import numkit, qfi_gaussian, scenarios
from gaussfish.channels import NoisyChannel, diffusion_matrix
from gaussfish.gaussian_core import GaussianState, probe_tmsdt, vacuum
from gaussfish.measurements import cfim_gaussian_outcomes, epr_readout
from gaussfish.qfi_gaussian import PointMoments, displacement_model, evaluate, qfim_report
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

from linalg_helpers import lapack_calls, moments_built, states_built
from mp_referee import FIELDS as REFEREE_FIELDS, referee_row


def _cfg(**kw):
    base = dict(probe="tmsv", r=0.4, n_th=0.0, gamma=1.0, n_e=0.5, t=0.2)
    base.update(kw)
    return ScenarioConfig(**base)


def _probe_args(probe, n_th, alpha):
    """probe, n_th and alpha, with the one the probe ignores zeroed, as validate requires."""
    return dict(probe=probe, n_th=n_th if probe in ("tmst", "tmdt") else 0.0,
                alpha=alpha if probe in ("tmdv", "tmdt") else (0.0,) * 4)


def _ignores(probe, axis):
    """Whether the probe ignores the axis, which validate then refuses to sweep."""
    return axis == "r" and probe in ("tmdv", "tmdt") or axis == "n_th" and probe in ("tmsv", "tmdv")


def _grid_rows(cfg):
    """The sweep's rows; on an axis the probe ignores, which sweep refuses, the run_point rows."""
    if not _ignores(cfg.probe, cfg.axis):
        return sweep(cfg)
    with pytest.raises(ValueError, match="axis %s is ignored by probe %s" % (cfg.axis, cfg.probe)):
        sweep(cfg)
    return [run_point(cfg, v) for v in cfg.axis_values()]


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


@pytest.mark.parametrize("m_e", [0.0, 0.2])
def test_run_point_refuses_theta_and_alpha_of_the_wrong_shape(m_e):
    """run_point does not validate its config, but a theta or alpha that validate refuses for
    its shape raises validate's message rather than giving a row.  The axis range is not
    checked: a value past the grid gives its row."""
    for fields, message in (
        ({"theta": (0.1, 0.2, 0.3)}, "theta must be an array of shape (2,)"),
        ({"theta": 0.1}, "theta must be an array of shape (2,)"),
        ({"alpha": (0.3, -0.2, 0.1)}, "alpha must be an array of shape (4,)"),
        ({"alpha": [[0.3, -0.2], [0.1]]}, "alpha must be an array of shape (4,)"),
    ):
        cfg = _cfg(probe="tmdv", m_e=m_e, axis="t", **fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_point(cfg, 0.3)
    assert run_point(_cfg(probe="tmdv", m_e=m_e, alpha=(0.3, -0.2, 0.1, 0.4), axis="t", stop=1.0), 5.0).ok


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


def test_json_round_trips_numpy_scalars_that_validate_accepts():
    """validate takes numpy scalars and arrays; the JSON output carries their Python values."""
    cfg = _cfg(probe="tmdv", axis="n_e", start=0.0, stop=0.1, step=0.1, threads=np.int64(2), t=np.float32(0.25))
    cfg.alpha, cfg.weight = np.array([0.1, 0.2, 0.3, 0.4]), np.array([[2, 0], [0, 1]])
    rows = sweep(cfg)
    config = json.loads(rows_to_json(rows, cfg))["config"]
    assert config["threads"] == 2 and config["t"] == 0.25
    assert config["alpha"] == [0.1, 0.2, 0.3, 0.4] and config["weight"] == [[2.0, 0.0], [0.0, 1.0]]
    plain = _cfg(probe="tmdv", axis="n_e", start=0.0, stop=0.1, step=0.1, threads=2, t=0.25, alpha=(0.1, 0.2, 0.3, 0.4))
    plain.weight = [[2, 0], [0, 1]]
    assert rows_to_json(rows, cfg) == rows_to_json(rows, plain)


def test_zero_d_array_fields_are_numbers():
    """A 0-d numpy array is a number to validate, sweep and run_point: phi = np.array(1.0) and
    r = np.array(0.3) give the rows of the floats, bit for bit, and a bad one raises
    validate's ValueError (a 0-d array cannot be iterated, nor key the probe and readout
    caches)."""
    for name, value in (("phi", 1.0), ("r", 0.3)):
        cfg, plain = _cfg(axis="t", stop=0.4, **{name: np.array(value)}), _cfg(axis="t", stop=0.4, **{name: value})
        cfg.validate()
        assert rows_to_csv(sweep(cfg)) == rows_to_csv(sweep(plain))
        assert rows_to_json(sweep(cfg), cfg) == rows_to_json(sweep(plain), plain)
        assert run_point(cfg, 0.3) == run_point(plain, 0.3)
    for bad, message in ((np.array(math.nan), "phi must be finite"), (np.array(True), "phi must be a number")):
        with pytest.raises(ValueError, match=message):
            _cfg(phi=bad).validate()


def test_sweeps_and_run_point_pack_no_matrix(monkeypatch):
    """A sweep and a run_point read the bound chain from the closed form's (K,) columns
    (factored_chain): with the matrix packer _first_moment_factored and the (K, 2, 2)
    packing _pack made to raise, each probe's t sweep and a run_point still give their rows,
    with and without a squeezed reservoir."""
    def broken(*args, **kwargs):
        raise AssertionError("a (K, 2, 2) F_S was packed")

    want = {}
    for m_e, probe in itertools.product((0.0, 0.2), PROBES):
        cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
        want[m_e, probe] = sweep(cfg), run_point(cfg, 0.3)
    monkeypatch.setattr(qfi_gaussian, "_first_moment_factored", broken)
    monkeypatch.setattr(qfi_gaussian, "_pack", broken)
    for (m_e, probe), (rows, row) in want.items():
        cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
        assert all(row.ok for row in rows), (m_e, probe)
        assert sweep(cfg) == rows and run_point(cfg, 0.3) == row, (m_e, probe)


def test_json_writes_a_degraded_row_as_null():
    """JSON has no NaN: a degraded row's seven numeric fields are null, and the whole output
    parses with a parser that refuses NaN and Infinity."""
    cfg = _cfg(axis="t", start=-0.1, stop=0.0, step=0.1)
    rows = sweep(cfg)
    assert [row.ok for row in rows] == [False, True]

    def refuse(name):
        raise ValueError("not JSON: %s" % name)

    bad, good = json.loads(rows_to_json(rows, cfg), parse_constant=refuse)["rows"]
    assert bad == dict(dict.fromkeys(scenarios.SweepRow._fields), axis=-0.1, ok=False, message=rows[0].message)
    assert good == rows[1]._asdict()


def test_numerical_overflow_degrades_to_nan_row():
    """tmsv on the t axis (gamma = 1, n_e = 0.5): the bounds are x = e^(gamma t) times their
    unit-dd values, b_s about 2x and b_r about 3x.  So b_r overflows first, and from x's own
    overflow (gamma t of about 709.8) b_s is the first column that is not finite.  There
    every bound of the raw columns is inf, none 0, as eta = e^(-gamma t / 2) is never formed.
    """
    cfg = _cfg(axis="t")
    for t, column in ((709.0, "b_r"), (720.0, "b_s"), (800.0, "b_s"), (1000.0, "b_s"), (1500.0, "b_s")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = run_point(cfg, t)
        assert not row.ok and math.isnan(row.b_s), t
        assert row.message == "overflow: %s is not finite" % column, t
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], t
        if column == "b_s":
            with np.errstate(all="ignore"):
                columns = scenarios._evaluate(cfg, np.array([t]))
            assert np.isposinf(columns[1:6]).all(), t  # b_s, b_r, b_h_mid, b_h_upper, hdb


def test_programming_error_propagates_instead_of_degrading(monkeypatch):
    """A TypeError from a layer is a bug, not a degraded row: from the bound chain
    (factored_chain), with and without a squeezed reservoir."""
    def broken(*args, **kwargs):
        raise TypeError("broken layer")

    for m_e in (0.0, 0.2):
        monkeypatch.setattr(scenarios, "factored_chain", broken)
        with pytest.raises(TypeError, match="broken layer"):
            run_point(_cfg(m_e=m_e), 0.4)
        monkeypatch.undo()


def test_run_point_evaluates_the_model_once(monkeypatch):
    """A sweep is one stacked evaluation; run_point is the same on a one-point stack.

    That is one closed form of the eigen-factor's blocks for the stack
    (first_moment_columns), with or without a squeezed reservoir.
    """
    stacks = []
    closed_form = scenarios.first_moment_columns

    def counting_closed_form(D, factor):
        stacks.append(factor[1].shape[0])
        return closed_form(D, factor)

    point_calls = []
    point = scenarios.run_point

    def counting_point(*args, **kwargs):
        point_calls.append(1)
        return point(*args, **kwargs)

    for m_e in (0.0, 0.2):
        stacks.clear()
        point_calls.clear()
        monkeypatch.setattr(scenarios, "first_moment_columns", counting_closed_form)
        monkeypatch.setattr(scenarios, "run_point", counting_point)
        cfg = _cfg(probe="tmdt", n_th=0.5, alpha=(0.3, -0.2, 0.1, 0.4), m_e=m_e, axis="t", stop=0.4)
        rows = sweep(cfg)
        assert all(row.ok for row in rows)
        assert stacks == [len(rows)] == [5], m_e
        assert point_calls == []
        assert scenarios.run_point(cfg, 0.2).ok
        assert stacks == [5, 1], m_e
        monkeypatch.undo()


@pytest.mark.parametrize("axis", scenarios.AXES)
def test_sweep_builds_the_probe_once_on_every_axis(monkeypatch, axis):
    """One probe build per sweep: of its eigen-factor alone, with or without a squeezed
    reservoir."""
    built = Counter()
    for name in ("probe_factor", "probe_tmsdt"):
        build = getattr(scenarios, name)
        monkeypatch.setattr(scenarios, name, lambda *args, build=build, name=name: built.update([name]) or build(*args))
    for m_e in (0.0, 0.2):
        for probe in PROBES:
            built.clear()
            cfg = _cfg(**_probe_args(probe, 0.3, (0.0,) * 4), m_e=m_e, axis=axis, start=0.1, stop=0.5, step=0.1)
            if _ignores(probe, axis):
                with pytest.raises(ValueError, match="axis %s is ignored" % axis):
                    sweep(cfg)
                assert not built
                continue
            rows = sweep(cfg)
            assert len(rows) == 5 and all(row.ok for row in rows)
            assert built == {"probe_factor": 1}, (m_e, probe)


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
    """sql is tmdv's own b_h_upper through the same channel, with and without a weight and a
    squeezed reservoir (m_e real, and complex through run_point, which does not validate)."""
    for weight, m_e in itertools.product((None, [[2.0, 0.0], [0.0, 2.0]], [[2.0, 0.3], [0.3, 1.0]]), (0.0, 0.2, 0.5)):
        rows = sweep(_cfg(probe="tmdv", weight=weight, m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.25))
        for row in rows:
            assert row.sql == pytest.approx(row.b_h_upper, rel=1e-12), (weight, m_e)
        squeezed = sweep(_cfg(weight=weight, m_e=m_e, axis="r", start=0.0, stop=0.4, step=0.2))
        assert squeezed[0].sql == pytest.approx(squeezed[0].b_h_upper, rel=1e-12)  # r = 0
        row = run_point(_cfg(probe="tmdv", weight=weight, m_e=0.3 - 0.4j, axis="t"), 1.0)
        assert row.sql == pytest.approx(row.b_h_upper, rel=1e-12), weight


# Each axis on 5 points, and a t grid of 65 points.
SWEEP_GRIDS = {
    "t": ("t", 0.0, 1.0, 0.25),
    "r": ("r", 0.0, 1.2, 0.3),
    "n_e": ("n_e", 0.0, 1.0, 0.25),
    "n_th": ("n_th", 0.0, 1.0, 0.25),
    "gamma": ("gamma", 0.0, 2.0, 0.5),
    "t_stack": ("t", 0.0, 1.0, 1.0 / 64),
}
ROW_FIELDS = ("b_s", "b_r", "b_h_mid", "b_h_upper", "hdb", "r_q", "sql")


def _generic_row(cfg, value):
    """The row at one value through the per-point GaussianModel route (qfim_report, cfim);
    sql is the displaced vacuum's b_h_upper, x Tr(W V1) / 2 (1 + det(V1)^-1/2) with
    V1 = y I + v V_inf the covariance of its damped mode."""
    c = replace(cfg, **{cfg.axis: value})
    ch = NoisyChannel.uniform(2, c.gamma, c.n_e, c.m_e)
    model = displacement_model(build_probe(c), ch, c.t)
    W = c.weight_matrix()
    rep = qfim_report(model, c.theta, weight=W)
    pre, gd = epr_readout()
    hdb = float(np.trace(W @ numkit.pinv(cfim_gaussian_outcomes(model, gd, c.theta, pre_op=pre))))
    y = math.exp(-c.gamma * c.t)
    V1 = y * np.eye(2) + (1.0 - y) * diffusion_matrix(ch)[:2, :2]
    sql = np.exp(c.gamma * c.t) * np.trace(W @ V1) / 2.0 * (1.0 + 1.0 / np.sqrt(np.linalg.det(V1)))
    return (rep.b_s, rep.b_r, rep.b_h_mid, rep.b_h_upper, hdb, rep.r_q, sql)


@pytest.mark.parametrize("grid", sorted(SWEEP_GRIDS))
@pytest.mark.parametrize("probe", PROBES)
def test_stacked_sweep_matches_generic_per_point_path(probe, grid):
    axis, start, stop, step = SWEEP_GRIDS[grid]
    cfg = _cfg(**_probe_args(probe, 0.3, (0.3, -0.2, 0.1, 0.4)), r=0.6, n_e=0.4, gamma=0.7, t=0.4,
               axis=axis, start=start, stop=stop, step=step, weight=[[2.0, 0.3], [0.3, 1.0]])
    rows = _grid_rows(cfg)
    assert len(rows) == (65 if grid == "t_stack" else 5) and all(row.ok for row in rows)
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
        cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), t=1.0,
                   axis=axis, start=start, stop=stop, step=step, **extra)
        for row in _grid_rows(cfg):
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
    monkeypatch.setattr(scenarios, "_evaluate", lambda cfg, values, *ch: stacks.append(len(values)) or evaluate_stack(cfg, values, *ch))
    monkeypatch.setattr(scenarios, "run_point", lambda *a: pytest.fail("sweep called run_point"))

    def run(cfg):
        stacks.clear()
        rows = sweep(cfg)
        assert len(stacks) <= 2 * len(rows) - 1
        return rows

    for probe in PROBES:
        base = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), t=1.0)
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


def test_whole_pure_points_zero_the_rld_limit_only_where_every_direction_is_null():
    """At a point whose modes are all pure, the closed form sets the limiting F_R^-1 to 0 where
    every direction reaches the null coordinates of M, and keeps its finite limit elsewhere.

    tmsv at t = 0: at r = 0 the two directions reach one null coordinate, and b_r is 2.0;
    for r > 0 they reach them all, and b_r is 0.0.  Every ok row of the r 0..600 grid
    equals the closed form exactly, as do the small r down to 1e-8, the point_calls draw
    6.58e-5 among them.  The single-mode vacuum, which carries no eigen-factor, takes the
    Williamson basis: its directions reach one null coordinate, so its limit is finite,
    [[1, i], [-i, 1]] / 2 to rounding.
    """
    rows = sweep(_cfg(probe="tmsv", n_e=0.5, gamma=1.0, t=0.0, axis="r", start=0.0, stop=600.0, step=1.0))
    ok = [row for row in rows if row.ok]
    r, b_r = np.array([row.axis for row in ok]), np.array([row.b_r for row in ok])
    assert len(ok) == 355 and b_r[0] == 2.0 and (b_r[1:] == 0.0).all()
    assert np.array_equal(b_r, closed_form_bounds("tmsv", r, 0.0, 1.0, 0.0, 0.5).b_r)
    for r in [6.580906613401494e-05] + np.logspace(-8, -2, 25).tolist():
        assert run_point(_cfg(probe="tmsv", r=r, n_e=0.5, gamma=1.0, axis="t"), 0.0).b_r == 0.0, r
    limit = qfi_gaussian.rld_inverse_limit(displacement_model(vacuum(1)), [0.0, 0.0])
    np.testing.assert_allclose(limit, [[0.5, 0.5j], [-0.5j, 0.5]], rtol=4 * numkit.EPS, atol=0)


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
# near-pure b_r (nu - 1 about 1.2e-12), which the solves serve; the Williamson basis at this
# point is checked by test_williamson_row_order_keeps_near_pure_b_r in test_qfi_gaussian.py
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
    # sql and the closed form share one set of standard-form expressions
    assert row.sql == closed_form_bounds("tmdv", 0.0, 0.0, gamma, t, n_e, weight=weight).b_h_upper
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
    """The tmsv closed form as first written, D + x - s^2 / (D - x), at 50 + 0.87 r digits:
    D - s^2 / (D - x) cancels terms of size e^2r, that is 0.87 r digits."""
    import mpmath as mp

    with mp.workdps(50 + math.ceil(0.87 * r)):
        r, gamma_t, n_e = mp.mpf(r), mp.mpf(gamma_t), mp.mpf(n_e)
        x, eps = mp.exp(gamma_t), 1 + 2 * n_e
        c, s = mp.cosh(2 * r), mp.sinh(2 * r)
        D = (x - 1) * eps + c
        b_s = D - s * s / D
        b_r = D + x if s == 0 else D + x - s * s / (D - x)
        r_q = x / D
        return tuple(float(v) for v in (b_s, b_r, r_q, (1 + r_q) * b_s))


@pytest.mark.parametrize("r", [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.5, 178.0, 200.0, 300.0, 354.0])
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


def test_states_built_inside_a_run_are_not_rechecked(monkeypatch):
    """Input is checked at the boundary only: structural, since host noise hides a 5 % change.

    run_point and a 201-point tmst sweep build every GaussianState through the unchecked
    internal constructor, so the public check runs zero times.  The channel's public
    check runs once per run_point and once per sweep: the evaluation takes validate's.
    """
    calls = Counter()
    for cls in (GaussianState, NoisyChannel):
        check = cls.__post_init__
        spy = lambda self, check=check, name=cls.__name__: calls.update([name]) or check(self)
        monkeypatch.setattr(cls, "__post_init__", spy)
    assert run_point(_cfg(probe="tmst", n_th=0.5, axis="t"), 0.3).ok
    assert calls == {"NoisyChannel": 1}
    calls.clear()
    rows = sweep(_cfg(probe="tmst", n_th=0.5, axis="t", start=0.0, stop=1.0, step=0.005))
    assert len(rows) == 201 and all(row.ok for row in rows)
    assert calls == {"NoisyChannel": 1}
    GaussianState(np.zeros(2), np.eye(2))  # the spy sees the public constructor
    assert calls == {"NoisyChannel": 1, "GaussianState": 1}


def test_factored_sweeps_make_no_lapack_call(monkeypatch):
    """The LAPACK budget of each probe's 201-point t sweep, whatever its length: none, with
    and without a squeezed reservoir (m_e = 0.2).

    dV = 0, so F_S, U and the limiting RLD inverse come in closed form from 2x2 blocks of
    the probe's eigen-factor (O, lam, delta), kept through the uniform channel: no eigh of
    V, and no svd at the pure point t = 0 of tmsv and tmdv, whose rank cut reads the same
    blocks.  dd's 2x2 certificate is in closed form, and F_S is 2x2 and positive definite,
    so it passes the 2x2 certificate (numkit._spd2): the bound chain reads its entries in
    closed form, with no pseudo-inverse.  hdb is a trace of the readout's outcome
    covariance, which inverts nothing.
    """
    for m_e in (0.0, 0.2):
        for probe in PROBES:
            cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
            rows, calls = lapack_calls(monkeypatch, lambda: sweep(cfg))
            assert len(rows) == 201 and all(row.ok for row in rows), (m_e, probe)
            assert calls == [], (m_e, probe)
            if probe == "tmsv":
                assert rows[0].b_r == 0.0


def test_one_point_makes_no_lapack_call(monkeypatch):
    """The LAPACK budget of one run_point, a stack of one: none.

    V^-1/2 comes from the probe's eigen-factor, the bound chain from the certified entries
    of the 2x2 F_S, and hdb from the readout's outcome covariance with no inverse.
    """
    row, calls = lapack_calls(monkeypatch, lambda: run_point(_cfg(probe="tmst", n_th=0.5, axis="t"), 0.3))
    assert row.ok
    assert calls == []


def test_factored_runs_form_no_dense_v(monkeypatch):
    """Every GaussianState holds a dense V, and a factored run builds none: each probe's
    201-point t sweep and one run_point, with and without a squeezed reservoir, and the
    tmsv r 0..400 grid, whose 91 points past lam's overflow at r = 355 degrade alone."""
    for m_e in (0.0, 0.2):
        for probe in PROBES:
            cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
            rows, formed = states_built(monkeypatch, lambda: sweep(cfg))
            assert len(rows) == 201 and all(row.ok for row in rows), (m_e, probe)
            assert formed == 0, (m_e, probe)
            row, formed = states_built(monkeypatch, lambda: run_point(cfg, 0.3))
            assert row.ok and formed == 0, (m_e, probe)
    cfg = _cfg(probe="tmsv", r=0.6, axis="r", start=0.0, stop=400.0, step=0.5)
    rows, formed = states_built(monkeypatch, lambda: sweep(cfg))
    assert [row.ok for row in rows] == [row.axis < 355.0 for row in rows]
    assert formed == 0


def test_factored_runs_build_no_model(monkeypatch):
    """A uniform channel gives rows from the eigen-factor alone: each probe's 201-point t sweep
    and one run_point construct no PointMoments, with and without a squeezed reservoir.  On
    the tmsv r 0..400 grid lam overflows from r = 355: the closed form raises for every stack
    holding such a point, and the halving isolates the 91 degraded points with no model."""
    for m_e in (0.0, 0.2):
        for probe in PROBES:
            cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), m_e=m_e, axis="t", start=0.0, stop=1.0, step=0.005)
            rows, built = moments_built(monkeypatch, lambda: sweep(cfg))
            assert len(rows) == 201 and all(row.ok for row in rows), (m_e, probe)
            assert built == 0, (m_e, probe)
            row, built = moments_built(monkeypatch, lambda: run_point(cfg, 0.3))
            assert row.ok and built == 0, (m_e, probe)
    cfg = _cfg(probe="tmsv", r=0.6, axis="r", start=0.0, stop=400.0, step=0.5)
    rows, built = moments_built(monkeypatch, lambda: sweep(cfg))
    assert [row.ok for row in rows] == [row.axis < 355.0 for row in rows]
    assert {row.message for row in rows if not row.ok} == {"covariance is not finite"}
    assert built == 0


# The referee battery of the factored route, (axis, start, stop, step): every probe's
# grids, then those of the squeezed probes and of the thermal ones.
ROUTE_GRIDS = [("t", 0.0, 1.0, 0.005), ("t", 0.0, 1600.0, 8.0), ("gamma", 0.0, 3.0, 0.015), ("n_e", 0.0, 2.0, 0.01)]
SQUEEZED_ROUTE_GRIDS = [("r", 0.0, 400.0, 0.5), ("r", 0.0, 40.0, 0.1)]
THERMAL_ROUTE_GRIDS = [("n_th", 0.0, 5.0, 0.025)]


def _route_output(cfg):
    """Everything a run prints of cfg: _evaluate's columns of the whole grid and of its last
    value (or the message it raises), the sweep's rows, and run_point's row at every 7th
    grid value."""
    columns, values, ch = [], cfg.axis_values(), cfg.validate()
    for stack in (values, values[-1:]):
        with np.errstate(all="ignore"):
            try:
                columns.append(scenarios._evaluate(cfg, stack, ch))
            except scenarios.NUMERICAL_ERRORS as exc:
                columns.append(str(exc))
    return columns, sweep(cfg), [run_point(cfg, value) for value in values[::7]]


def _library_columns(cfg, r, n_th, ch, t):
    """(bound chain, hdb) of a stack at unit dd by the public library: the probe's state
    (build_probe) through ch by its displacement model, a PointMoments of the evolved state
    with dd (e1, e2) and dV = 0, qfim_report, and Tr(W F_C^-1) of cfim_gaussian_outcomes of
    the EPR readout."""
    st = evaluate(displacement_model(build_probe(cfg, r, n_th), ch, t), cfg.theta).st
    e1, e2 = np.eye(4)[:2]
    pt = PointMoments(st, [e1, e2], [0, 0], 2)
    pre, gd = epr_readout()
    f_c_inv = np.linalg.inv(cfim_gaussian_outcomes(pt, gd, pre_op=pre))
    return qfim_report(pt, weight=cfg.weight), (cfg.weight_matrix() @ f_c_inv).trace(axis1=-2, axis2=-1)


# hdb of the factored route, a trace of the readout's outcome covariance, against the
# library's Tr(W F_C^-1), relative: on the route grids above it is at most 2.3 eps.
HDB_RTOL = 8 * numkit.EPS


def _assert_hdb_close(got, want, where):
    """got and want agree to HDB_RTOL relative where finite, and are equal elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True), where
    assert (np.abs(got[finite] - want[finite]) <= HDB_RTOL * np.abs(want[finite])).all(), where


def _assert_same_rows(got, want, where):
    """Two lists of SweepRow: the same status and message, every field bit for bit but hdb,
    and hdb to HDB_RTOL."""
    assert len(got) == len(want), where
    for g, w in zip(got, want):
        assert g.ok == w.ok and g.message == w.message, where
        assert np.array_equal(g[:5] + g[6:8], w[:5] + w[6:8], equal_nan=True), where
    _assert_hdb_close([row.hdb for row in got], [row.hdb for row in want], where)


@pytest.mark.parametrize("probe", PROBES)
def test_factored_route_matches_the_model_route_bit_for_bit(monkeypatch, probe):
    """The factored route prints what the public library's model route prints on the same
    config, bit for bit in every column but hdb, degraded rows and their messages included,
    on the battery's grids with and without a weight and a squeezed reservoir (m_e = 0.2).
    The model route (_library_columns), which builds the probe's state and its displacement
    model, stands in for the factored columns of each stack and referees.  hdb, which the
    factored route reads as Tr(dmu^-1 W dmu^-T Sigma) and the library as Tr(W F_C^-1), is
    held to HDB_RTOL."""
    grids = list(ROUTE_GRIDS)
    grids += SQUEEZED_ROUTE_GRIDS if probe in ("tmsv", "tmst") else []
    grids += THERMAL_ROUTE_GRIDS if probe in ("tmst", "tmdt") else []
    for weight, m_e, (axis, start, stop, step) in itertools.product((None, [[2.0, 0.3], [0.3, 1.0]]), (0.0, 0.2), grids):
        cfg = _cfg(**_probe_args(probe, 0.5, (0.3, -0.2, 0.1, 0.4)), r=0.6, weight=weight, m_e=m_e,
                   axis=axis, start=start, stop=stop, step=step)
        factored = _route_output(cfg)
        monkeypatch.setattr(scenarios, "_factored_columns", _library_columns)
        model = _route_output(cfg)
        monkeypatch.undo()
        where = (weight is not None, m_e, axis, stop)
        for got, want in zip(factored[0], model[0]):
            if isinstance(want, str):
                assert got == want, where
            else:
                others = [0, 1, 2, 3, 4, 6, 7]
                assert np.array_equal(got[others], want[others], equal_nan=True), where
                _assert_hdb_close(got[5], want[5], where)
        for got, want in zip(factored[1:], model[1:]):
            _assert_same_rows(got, want, where)


def _report_and_hdb(pt, weight):
    """Every qfim_report field and hdb of a PointMoments, as sweep rows take them."""
    rep = qfim_report(pt, weight=weight)
    out = {name: getattr(rep, name) for name in ("f_sld", "f_rld", "u", "b_s", "b_r", "b_h_mid", "b_h_upper", "r_q")}
    pre, gd = epr_readout()
    W = np.eye(2) if weight is None else weight
    out["hdb"] = (W @ numkit.pinv_psd(cfim_gaussian_outcomes(pt, gd, pre_op=pre))[0]).trace(axis1=-2, axis2=-1)
    return out


def _assert_factor_matches_eigh(pt):
    """pt, whose state carries its eigen-factor, against the same moments through the public
    GaussianState, which carries none and takes the eigh of V: every field to 1e-12, a
    matrix relative to its largest entry at each point (entries that vanish in exact
    arithmetic carry rounding of that size), a scalar relative to itself."""
    assert pt.st.factor is not None
    p = pt.n_params
    st = GaussianState(pt.st.d, pt.st.V)
    assert st.factor is None
    plain = PointMoments(st, [pt.dds[..., mu, :] for mu in range(p)], [pt.dVs[..., mu, :, :] for mu in range(p)], p)
    for weight in (None, np.array([[2.0, 0.3], [0.3, 1.0]])):
        got, want = _report_and_hdb(pt, weight), _report_and_hdb(plain, weight)
        for name, g in got.items():
            w = np.asarray(want[name])
            if w.ndim > np.ndim(pt.st.d) - 1:  # a (p, p) matrix per point
                gap = np.abs(g - w).max(axis=(-2, -1)) / np.abs(w).max(axis=(-2, -1))
                assert (gap <= 1e-12).all(), (name, gap.max())
            else:
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("probe", PROBES)
def test_eigen_factor_matches_the_eigh_of_v_on_the_reference_grids(probe):
    """The four 201-point t grids of the reference sweep, whose states carry the factor."""
    n_th = 0.5 if probe in ("tmst", "tmdt") else 0.0
    cfg = _cfg(probe=probe, n_th=n_th, alpha=(0.3, -0.2, 0.1, 0.4), axis="t", start=0.0, stop=1.0, step=0.005)
    t = cfg.axis_values()
    model = displacement_model(build_probe(cfg), NoisyChannel.uniform(2, cfg.gamma, cfg.n_e), t)
    _assert_factor_matches_eigh(evaluate(model, cfg.theta))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [None, 3, 60])
def test_eigen_factor_matches_the_eigh_of_v_on_random_draws(seed, k):
    """Random two-mode draws of r <= 1.5, phi, n_th, n_e and gamma t: single points (k None)
    and stacks of 3 and 60 points, one channel per point."""
    rng = np.random.default_rng([seed, k or 1])
    shape = () if k is None else (k,)
    r, n_th, n_e = rng.uniform(0.0, 1.5, shape), rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)
    gamma, t = rng.uniform(0.2, 2.0, shape), rng.uniform(0.0, 1.0, shape)
    alpha = rng.uniform(-1.0, 1.0, 4) * rng.integers(0, 2)
    probe = probe_tmsdt(r, rng.uniform(-math.pi, math.pi), *alpha, n_th)
    _assert_factor_matches_eigh(evaluate(displacement_model(probe, NoisyChannel.uniform(2, gamma, n_e), t), [0.1, -0.2]))


def _assert_chain(rows, tol=scenarios.CHAIN_TOL):
    """max(b_s, b_r) <= b_h_mid <= b_h_upper <= 2 b_s on every ok row, to tol b_s."""
    for row in rows:
        if row.ok:
            allow = tol * row.b_s
            assert max(row.b_s, row.b_r) <= row.b_h_mid + allow, row
            assert row.b_h_mid <= row.b_h_upper + allow and row.b_h_upper <= 2.0 * row.b_s + allow, row


@pytest.mark.parametrize("probe", ["tmsv", "tmst"])
def test_strongly_squeezed_rows_match_the_closed_form(probe):
    """The r 0..20 and 20..40 grids, n_e 0.5, gamma = t = 1: cond(V) reaches about e^160.

    The dense V loses its small eigenvalue y tau e^-2r + v eps there, and rows went wrong
    or degraded; the eigen-factor keeps it, so every row is ok and b_s, b_h_mid, b_h_upper
    and hdb are within 1e-8 of the closed form.  b_r and r_q are within 1e-12, and every
    row keeps the chain: with b_r from the dense M = V + i Omega, 97 (tmsv) and 101 (tmst)
    rows of r 0..20 missed b_r by up to 5.7 relative and about half of them broke the
    chain, and b_r read 0 from r = 20; the closed form from the eigen-factor's 2x2 blocks
    does not cancel.  (b_h_mid = b_h_upper in exact arithmetic on these probes, so the
    chain holds to the rounding allowance CHAIN_TOL.)
    """
    n_th = 0.5 if probe == "tmst" else 0.0
    for start in (0.0, 20.0):
        cfg = _cfg(probe=probe, n_th=n_th, gamma=1.0, n_e=0.5, t=1.0, axis="r", start=start, stop=start + 20.0, step=0.1)
        rows = sweep(cfg)
        assert len(rows) == 201 and all(row.ok for row in rows), [row.message for row in rows if not row.ok]
        r = np.array([row.axis for row in rows])
        cf = closed_form_bounds(probe, r, n_th, 1.0, 1.0, 0.5)
        for name, rtol in (("b_s", 1e-8), ("b_h_mid", 1e-8), ("b_h_upper", 1e-8), ("hdb", 1e-8), ("b_r", 1e-12), ("r_q", 1e-12)):
            got = np.array([getattr(row, name) for row in rows])
            np.testing.assert_allclose(got, getattr(cf, name), rtol=rtol, atol=0, err_msg=(start, name))
        _assert_chain(rows)


@pytest.mark.parametrize("probe", ["tmsv", "tmst"])
def test_very_strongly_squeezed_rows_keep_the_holevo_bounds(probe):
    """The r 0..600 step 1 grid, n_e 0.5, gamma = t = 1: the rows to r = 354 are ok, the rest
    degrade as lam overflows.  With A from the dense V, the rows at r = 41..52 gave
    b_h_mid = b_h_upper = 13.75 and r_q = 1 against the closed form's 6.873; every ok row
    now has b_s, b_r, b_h_mid, b_h_upper, r_q and hdb within 1e-12 of it, and the closed
    form meets no floating-point error on them.
    """
    n_th = 0.5 if probe == "tmst" else 0.0
    rows = sweep(_cfg(probe=probe, n_th=n_th, gamma=1.0, n_e=0.5, t=1.0, axis="r", start=0.0, stop=600.0, step=1.0))
    r = np.array([row.axis for row in rows])
    ok = np.array([row.ok for row in rows])
    assert np.array_equal(ok, r <= 354.0)
    assert {row.message for row in rows if not row.ok} == {"covariance is not finite"}
    cf = closed_form_bounds(probe, r[ok], n_th, 1.0, 1.0, 0.5)
    for name in ("b_s", "b_r", "b_h_mid", "b_h_upper", "r_q", "hdb"):
        got = np.array([getattr(row, name) for row in rows if row.ok])
        np.testing.assert_allclose(got, getattr(cf, name), rtol=1e-12, atol=0, err_msg=name)


def test_the_last_finite_hdb_rows_stay_ok():
    """tmst, phi = 1, n_th 0.5, t = 0.2 and W = [[2, .3], [.3, 1]]: hdb grows like e^2r, to
    1.4e308 at r = 354, where the other columns stay near 1.  The readout's sum over the
    factor's columns takes W_C / 2, halved before the sum: halved after it, the sum
    overflows at r = 354.  Both rows are ok, alone and in a sweep, with hdb within 8 eps of
    Tr(W F_C^-1) by an inverse of F_C (the values of the route that inverted Sigma and F_C).
    """
    want = {352.0: 2.5588361652313775e306, 354.0: 1.397077208595382e308}
    cfg = _cfg(probe="tmst", phi=1.0, n_th=0.5, t=0.2, weight=[[2.0, 0.3], [0.3, 1.0]], axis="r", start=352.0, stop=354.0, step=2.0)
    for row in sweep(cfg) + [run_point(cfg, r) for r in want]:
        assert row.ok, row
        assert math.isfinite(row.hdb) and abs(row.hdb - want[row.axis]) <= 8 * numkit.EPS * want[row.axis], row


@pytest.mark.parametrize("r", [6.0, 9.0, 15.0])
def test_strongly_squeezed_tmsv_just_after_t0_keeps_b_r(r):
    """tmsv at t = 1e-9: nu^2 - 1 is about 2e-9 e^2r, while the dense V's small eigenvalue
    (2e-9 against e^-2r) and M's Schur complement lost b_r, which read 0.0 against the
    closed form's 4.0e-9.  The eigen-factor's carried delta keeps it within 1e-8."""
    row = run_point(_cfg(probe="tmsv", r=r, axis="t"), 1e-9)
    assert row.ok
    assert row.b_r == pytest.approx(closed_form_bounds("tmsv", r, 0.0, 1.0, 1e-9, 0.5).b_r, rel=1e-8)


@pytest.mark.parametrize("probe", ["tmsv", "tmst"])
def test_squeezed_reservoir_rows_match_the_referee(probe):
    """The m_e = 0.2 r 0..40 grids, n_e 0.5, gamma = t = 1: a squeezed reservoir keeps the
    eigen-factor, so every row is ok, keeps the chain and has every column within 1e-12 of
    the high-precision referee (the worst is 7.7e-16).  With the dense V,
    rows from r of about 9.5 were wrong by up to 1.8e15 relative and still kept the chain,
    and others broke it."""
    n_th = 0.5 if probe == "tmst" else 0.0
    cfg = _cfg(probe=probe, n_th=n_th, m_e=0.2, gamma=1.0, n_e=0.5, t=1.0, axis="r", start=0.0, stop=40.0, step=0.1)
    rows = sweep(cfg)
    assert len(rows) == 401 and all(row.ok for row in rows), [row.message for row in rows if not row.ok]
    _assert_chain(rows)
    for row in rows:
        want = referee_row(cfg, row.axis)
        for name in REFEREE_FIELDS:
            assert getattr(row, name) == pytest.approx(want[name], rel=1e-12, abs=0), (row.axis, name)


@pytest.mark.parametrize("probe", ["tmsv", "tmst"])
def test_rows_whose_nu_squared_overflows_degrade_naming_it(probe):
    """n_e = 10, gamma t = ln 2, r 0..400 step 0.5: from r = 353.5 the carried delta = nu^2 - 1
    overflows while lam is still finite, and from r = 355 lam overflows too.  The closed
    form refuses both, naming what overflowed, and the halving gives each row its message.
    (The dense V, the fallback before, degraded the first three as "covariance is not
    positive definite (smallest eigenvalue -3.087e+290)" and the like.)"""
    n_th = 0.5 if probe == "tmst" else 0.0
    rows = sweep(_cfg(probe=probe, n_th=n_th, gamma=1.0, n_e=10.0, t=math.log(2.0), axis="r", start=0.0, stop=400.0, step=0.5))
    assert [row.ok for row in rows] == [row.axis < 353.5 for row in rows]
    messages = {row.axis: row.message for row in rows if not row.ok}
    assert [messages.pop(r) for r in (353.5, 354.0, 354.5)] == ["overflow: nu^2 - 1 of the covariance is not finite"] * 3
    assert set(messages.values()) == {"covariance is not finite"}
    assert all(math.isnan(row.b_s) for row in rows if not row.ok)


def test_chain_guard_names_each_link():
    """Synthetic columns, one link broken per row beyond CHAIN_TOL b_s, one inside it."""
    b_s = 2.0
    tol = scenarios.CHAIN_TOL * b_s
    columns = np.array([
        # axis, b_s, b_r, b_h_mid, b_h_upper, hdb, r_q, sql
        [0.0, b_s, 2.5, 2.5, 3.0, 4.0, 0.5, 5.0],  # sound, b_r = b_h_mid
        [1.0, b_s, 2.5 + 3 * tol, 2.5, 3.0, 4.0, 0.5, 5.0],
        [2.0, b_s, 2.5, 3.0 + 3 * tol, 3.0, 4.0, 0.5, 5.0],
        [3.0, b_s, 2.5, 2.5, 4.0 + 3 * tol, 4.0, 0.5, 5.0],
        [4.0, b_s, 2.5 + 0.5 * tol, 2.5, 4.0 + 0.5 * tol, 4.0, 0.5, 5.0],  # within the allowance
        [5.0, b_s, 2.5, 1.5, 3.0, 4.0, 0.5, 5.0],  # b_h_mid < b_s and < b_r: the first link
    ]).T
    broken = scenarios._broken_links(columns)
    names = [scenarios._CHAIN_LINKS[broken[:, i].argmax()] if broken[:, i].any() else None for i in range(6)]
    assert names == [None, "b_r > b_h_mid", "b_h_mid > b_h_upper", "b_h_upper > 2 b_s", None, "b_s > b_h_mid"]


def test_tmst_rows_at_t0_keep_b_r_to_r_354():
    """tmst (n_th = 0.5) at t = 0 on the r 0..600 step 1 grid: b_r = 3 / (2 cosh 2r - 1) falls
    to about 1e-307 at r = 354.  The dense Schur complement read 0 from r = 7, and the closed
    form's kappa / (a + 1) / (a - 1) underflowed to 0 from r = 187; the pipeline and the
    closed form now both match the 60-digit value to 1e-12 on every ok row."""
    import mpmath as mp

    rows = sweep(_cfg(probe="tmst", n_th=0.5, gamma=1.0, n_e=0.5, t=0.0, axis="r", start=0.0, stop=600.0, step=1.0))
    ok = [row for row in rows if row.ok]
    assert len(ok) == 355
    r = np.array([row.axis for row in ok])
    with mp.workdps(60):
        want = np.array([float(3 / (2 * mp.cosh(2 * mp.mpf(x)) - 1)) for x in r])
    np.testing.assert_allclose([row.b_r for row in ok], want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(closed_form_bounds("tmst", r, 0.5, 1.0, 0.0, 0.5).b_r, want, rtol=1e-12, atol=0)


def test_a_very_strongly_squeezed_point_keeps_b_s():
    """r = 108 (cond(V) about 1e94): b_s read 1.26e78 from the dense V, and marked ok."""
    row = run_point(_cfg(probe="tmsv", n_e=0.5, gamma=1.0, t=1.0, axis="r"), 108.0)
    assert row.ok
    assert row.b_s == pytest.approx(closed_form_bounds("tmsv", 108.0, 0.0, 1.0, 1.0, 0.5).b_s, rel=1e-12)
    assert row.b_s == pytest.approx(6.873127314, rel=1e-9)


def test_near_pure_rld_bound_matches_its_closed_form():
    """tmst at r = 1e-4, n_th = n_e = 1e-10, gamma t = 0.3: nu - 1 is about 1e-8.

    The Williamson basis missed the closed form's b_r by 1.8e-7 relative here, and the
    solves on V and M = V + i Omega by 1.6e-8.  The closed form from the eigen-factor,
    with delta = nu^2 - 1 carried through the channel, comes within 6.6e-13; the bound
    keeps a margin of about 7.5 over that.  What is left is the cancellation in
    (sqrt a - sqrt b)^2 of evolve's delta at r = 1e-4.
    """
    row = run_point(_cfg(probe="tmst", r=1e-4, n_th=1e-10, n_e=1e-10, gamma=1.0, axis="t"), 0.3)
    assert row.ok
    assert row.b_r == pytest.approx(closed_form_bounds("tmst", 1e-4, 1e-10, 1.0, 0.3, 1e-10).b_r, rel=5e-12)


def test_weighted_sweep_takes_one_root_of_its_weight(monkeypatch):
    """validate's check and every evaluation of the grid share one sqrt(W), bit for bit."""
    weight = [[2.0, 0.3], [0.3, 1.0]]
    cfg = _cfg(probe="tmst", n_th=0.5, weight=weight, axis="t", start=0.0, stop=1.0, step=0.005)
    qfi_gaussian._psd_root.cache_clear()
    roots = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: roots.append(np.shape(a)) or eigh(a, *args, **kw))
    rows = sweep(cfg)
    monkeypatch.undo()
    assert len(rows) == 201 and all(row.ok for row in rows)
    assert roots.count((2, 2)) == 1
    sw = numkit.sqrtm_psd(np.array(weight))
    assert np.array_equal(qfi_gaussian.weight_root(weight, 2), sw)

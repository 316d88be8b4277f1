"""End-to-end acceptance gates.

Each test evaluates one release criterion over its full advertised grid and
prints a single ``criterion N: PASS/FAIL (detail)`` line (visible with
``pytest -s`` or in the captured output of a failure) before asserting.
Tolerances here are contractual; do not loosen them to make a gate pass.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from gaussfish.channels import NoisyChannel, evolve
from gaussfish.classical_stats import Bernoulli, Normal, mle_variance_study
from gaussfish.fock_oracle import (
    displacement_family,
    fock_state,
    phase_family,
    qfim_fock_sld,
)
from gaussfish.gaussian_core import (
    SymplecticOp,
    apply,
    beam_splitter_5050,
    coherent,
    compose,
    probe_tmsdt,
    rotation,
    single_mode_squeezer,
    squeezed_vacuum,
    thermal,
    two_mode_squeezer,
    vacuum,
)
from gaussfish.measurements import cfim_gaussian_outcomes, epr_readout
from gaussfish.numkit import hermitize
from gaussfish.qfi_gaussian import displacement_model, phase_model, qfim_sld
from gaussfish.scenarios import (
    PROBES,
    ScenarioConfig,
    build_probe,
    closed_form_bounds,
    run_point,
    sweep,
)


def _gate(num: int, ok: bool, detail: str) -> bool:
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _probe_kwargs(probe: str) -> dict:
    return {
        "probe": probe,
        "n_th": 0.5 if probe in ("tmst", "tmdt") else 0.0,
        "alpha": (0.3, -0.2, 0.1, 0.4) if probe in ("tmdv", "tmdt") else (0.0,) * 4,
        "gamma": 1.0,
        "n_e": 0.5,
    }


def _reference_sweeps():
    """The standard grids: squeezing at t=0.2 for the probes that read r, decay at r=0.4."""
    for probe in PROBES:
        kw = _probe_kwargs(probe)
        if probe in ("tmsv", "tmst"):
            yield ScenarioConfig(axis="r", start=0.0, stop=1.4, step=0.1, t=0.2, **kw)
        yield ScenarioConfig(axis="t", start=0.0, stop=1.0, step=0.05, r=0.4, **kw)


def test_criterion_1_pipeline_matches_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for probe in PROBES:
        cfg = ScenarioConfig(t=0.2, **_probe_kwargs(probe))
        for k in range(15):
            r = 0.1 * k
            row = run_point(cfg, r)
            assert row.ok, row.message
            cf = closed_form_bounds(probe, r, cfg.n_th, cfg.gamma, cfg.t, cfg.n_e)
            worst = max(
                worst,
                abs(row.b_s - cf.b_s),
                abs(row.b_r - cf.b_r),
                abs(row.r_q - cf.r_q),
                abs(row.b_h_mid - cf.b_h_upper),
                abs(row.b_h_upper - cf.b_h_upper),
            )
            points += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    assert _gate(1, ok, "max closed-form gap %.3e over %d points, %.2fs" % (worst, points, dt))


def test_criterion_2_phase_qfi_closed_forms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        q, p = rng.uniform(-3.0, 3.0, size=2)
        f_c = qfim_sld(phase_model(coherent(q, p)), [0.0])[0, 0]
        worst = max(worst, abs(f_c - 2.0 * (q * q + p * p)))
        r = rng.uniform(0.05, 1.5)
        sh2 = math.sinh(r) ** 2
        f_s = qfim_sld(phase_model(squeezed_vacuum(r)), [0.0])[0, 0]
        worst = max(worst, abs(f_s - 8.0 * sh2 * (sh2 + 1.0)))
    ok = worst <= 1e-10
    assert _gate(2, ok, "max phase-QFI gap %.3e over 20 draws" % worst)


def test_criterion_3_number_basis_oracle_agreement():
    t0 = time.perf_counter()
    dim = 40
    th2 = [0.0, 0.0]
    pairs = [
        (
            "displacement/vacuum",
            qfim_sld(displacement_model(vacuum(1)), th2),
            qfim_fock_sld(displacement_family(fock_state("vacuum", dim)), th2),
        ),
        (
            "displacement/thermal",
            qfim_sld(displacement_model(thermal(0.4)), th2),
            qfim_fock_sld(displacement_family(fock_state("thermal", dim, n_th=0.4)), th2),
        ),
        (
            "phase/squeezed",
            qfim_sld(phase_model(squeezed_vacuum(0.3)), [0.0]),
            qfim_fock_sld(phase_family(fock_state("squeezed", dim, r=0.3)), [0.0]),
        ),
    ]
    worst = max(float(np.max(np.abs(g - f))) for _, g, f in pairs)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 30.0
    assert _gate(3, ok, "max moment/number-basis gap %.3e at cutoff %d, %.2fs" % (worst, dim, dt))


def test_criterion_4_bound_chain_ordering():
    worst = -np.inf  # largest chain violation, signed
    worst_rq = 0.0
    points = 0
    for cfg in _reference_sweeps():
        for row in sweep(cfg):
            assert row.ok, row.message
            worst = max(
                worst,
                max(row.b_r, row.b_s) - row.b_h_mid,
                row.b_h_mid - row.b_h_upper,
                row.b_h_upper - 2.0 * row.b_s,
            )
            worst_rq = max(worst_rq, -row.r_q, row.r_q - 1.0)
            points += 1
    ok = worst <= 1e-9 and worst_rq <= 1e-8
    assert _gate(
        4,
        ok,
        "worst chain violation %.3e, worst r_q excursion %.3e over %d points"
        % (worst, worst_rq, points),
    )


def test_criterion_5_measurement_information_dominated():
    low = np.inf  # minimum eigenvalue of F_SLD - F_C across the grid
    points = 0
    pre, gd = epr_readout()
    for cfg in _reference_sweeps():
        for v in cfg.axis_values():
            c = replace(cfg, **{cfg.axis: float(v)})
            model = displacement_model(
                build_probe(c), NoisyChannel.uniform(2, c.gamma, c.n_e, c.m_e), c.t
            )
            f_s = qfim_sld(model, c.theta)
            f_c = cfim_gaussian_outcomes(model, gd, c.theta, pre_op=pre)
            low = min(low, float(np.linalg.eigvalsh(hermitize(f_s - f_c))[0]))
            points += 1
    ok = low >= -1e-9
    assert _gate(5, ok, "min eig(qfim - cfim) = %.3e over %d points" % (low, points))


def test_criterion_6_squeezed_probes_beat_benchmark():
    """Where a squeezed probe beats a coherent one on the decay window.

    Grid: t in [0, 1] in steps of 0.05 at r = 0.4, gamma = 1, n_e = 0.5. With
    x = exp(gamma t), c = cosh 2r, s = sinh 2r and D = (x - 1)(1 + 2 n_e) + c,
    the closed forms in ``closed_form_bounds`` give

        tmsv:  b_h_upper = (1 + x/D)(D - s^2/D)
        sql:   b_h_upper(tmdv) = 1 + (x - 1)(1 + 2 n_e) + x

    so b_h_upper(tmsv) - sql = (c - 1) - (s^2/D)(1 + x/D). The squeezed probe
    pays a fixed excess noise c - 1 = 2 sinh^2 r, while its gain from the
    two-mode correlations decays like 1/D as the channel adds noise, so past
    a decay time t* the coherent probe wins. The gate pins that crossing:
    the pipeline root must match the closed-form root, which lies inside
    (0.75, 0.80), and every grid row must sit on its side of t*.

    ``sql`` is the displaced-vacuum benchmark; neither PAPER.md nor the
    README says which coherent benchmark applies to a thermal probe. tmst
    (n_th = n_e) carries the same input noise as tmdt, and it beats tmdt under
    the same channel on the whole window, but never the noiseless ``sql``. The
    gate asserts both. The displaced probes never beat ``sql``. Every compared
    pipeline value must match ``closed_form_bounds`` to 1e-8 (criterion 1).
    """
    grid = {}
    cfgs = {}
    for probe in PROBES:
        cfgs[probe] = ScenarioConfig(
            axis="t", start=0.0, stop=1.0, step=0.05, r=0.4, **_probe_kwargs(probe)
        )
        grid[probe] = sweep(cfgs[probe])

    def cf(probe, t):
        c = cfgs[probe]
        return closed_form_bounds(probe, c.r, c.n_th, c.gamma, t, c.n_e).b_h_upper

    violations = []
    gap = 0.0
    for probe, rows in grid.items():
        for row in rows:
            assert row.ok, row.message
            gap = max(
                gap,
                abs(row.b_h_upper - cf(probe, row.axis)),
                abs(row.sql - cf("tmdv", row.axis)),
            )
            if probe in ("tmdv", "tmdt") and not row.b_h_upper >= row.sql - 1e-9:
                violations.append(
                    "%s at t=%.2f: %.4f < sql %.4f" % (probe, row.axis, row.b_h_upper, row.sql)
                )
    if gap > 1e-8:
        violations.append("max closed-form gap %.3e > 1e-8" % gap)

    # tmsv: the crossing, from the pipeline and from the closed forms.
    def root(f):
        try:
            return brentq(f, 0.0, 1.0, xtol=1e-14)
        except ValueError:  # no sign change on the window
            return math.nan

    def pipe_excess(t):
        row = run_point(cfgs["tmsv"], t)
        assert row.ok, row.message
        return row.b_h_upper - row.sql

    t_pipe = root(pipe_excess)
    t_cf = root(lambda t: cf("tmsv", t) - cf("tmdv", t))
    if not 0.75 < t_cf < 0.80:
        violations.append("closed-form t* %.6f outside (0.75, 0.80)" % t_cf)
    if not abs(t_pipe - t_cf) <= 1e-9:
        violations.append("pipeline t* %.12f vs closed form %.12f" % (t_pipe, t_cf))
    below = []
    above = []
    for row in grid["tmsv"]:
        excess = row.b_h_upper - row.sql
        margin = -excess if row.axis < t_cf else excess
        (below if row.axis < t_cf else above).append(margin)
        if not margin > 0.0:
            violations.append(
                "tmsv at t=%.2f: %.4f vs sql %.4f on the wrong side of t*"
                % (row.axis, row.b_h_upper, row.sql)
            )

    # tmst: beats the same-noise displaced probe, not the vacuum benchmark.
    vs_tmdt = []
    vs_sql = []
    for st, dt in zip(grid["tmst"], grid["tmdt"]):
        vs_tmdt.append(dt.b_h_upper - st.b_h_upper)
        vs_sql.append(st.b_h_upper - st.sql)
        if not st.b_h_upper < dt.b_h_upper:
            violations.append(
                "tmst at t=%.2f: %.4f >= tmdt %.4f" % (st.axis, st.b_h_upper, dt.b_h_upper)
            )
        if st.b_h_upper < st.sql:
            violations.append(
                "tmst at t=%.2f: %.4f < sql %.4f" % (st.axis, st.b_h_upper, st.sql)
            )

    if violations:
        extra = len(violations) - 3
        detail = "; ".join(violations[:3]) + ("; +%d more" % extra if extra > 0 else "")
    else:
        detail = (
            "tmsv t* %.16f (pipeline) vs %.16f (closed form), min margin %.4f below"
            " / %.4f above; tmst min margin %.4f under tmdt, %.4f over sql;"
            " closed-form gap %.3e"
            % (t_pipe, t_cf, min(below), min(above), min(vs_tmdt), min(vs_sql), gap)
        )
    assert _gate(6, not violations, detail)


def test_criterion_7_mle_attains_crlb():
    t0 = time.perf_counter()
    seed = 31
    studies = [
        ("bernoulli theta", Bernoulli(0.3), 0),
        ("normal mu", Normal(1.2, 2.0), 0),
        ("normal sigma2", Normal(1.2, 2.0), 1),
    ]
    ratios = []
    for off, (name, model, comp) in enumerate(studies):
        out = mle_variance_study(model, 100000, 200, seed + off)
        ratios.append((name, float(out["ratio"][comp])))
    worst = max(abs(r - 1.0) for _, r in ratios)

    # Score identities: zero mean, variance equal to the information, both
    # within three standard errors of a 4000-replicate Monte Carlo.
    ident_ok = True
    rng = np.random.default_rng(seed)
    for model in (Bernoulli(0.3), Normal(1.2, 2.0)):
        n, reps = 50, 4000
        scores = np.array([model.score(model.sample(n, rng)) for _ in range(reps)])
        fim = model.fim(n)
        se_mean = scores.std(axis=0, ddof=1) / math.sqrt(reps)
        if np.any(np.abs(scores.mean(axis=0)) > 3.0 * se_mean):
            ident_ok = False
        cov = np.cov(scores.T).reshape(fim.shape)
        prod = scores[:, :, None] * scores[:, None, :]
        se_cov = prod.std(axis=0, ddof=1) / math.sqrt(reps)
        if np.any(np.abs(cov - fim) > 3.0 * se_cov):
            ident_ok = False
    dt = time.perf_counter() - t0
    ok = worst <= 0.05 and ident_ok and dt < 60.0
    assert _gate(
        7,
        ok,
        "ratios %s, score identities %s, %.1fs"
        % (
            ", ".join("%s %.4f" % (n, r) for n, r in ratios),
            "hold" if ident_ok else "violated",
            dt,
        ),
    )


def test_criterion_8_physicality_under_composition():
    rng = np.random.default_rng(7)
    fails = 0
    for _ in range(1000):
        state = probe_tmsdt(
            rng.uniform(0.0, 1.2),
            rng.uniform(0.0, 2.0 * math.pi),
            *rng.uniform(-2.0, 2.0, size=4),
            rng.uniform(0.0, 1.5),
        )
        op = None
        for _ in range(int(rng.integers(1, 5))):
            choice = int(rng.integers(0, 4))
            if choice == 0:
                nxt = two_mode_squeezer(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            elif choice == 1:
                nxt = beam_splitter_5050()
            elif choice == 2:
                S = np.zeros((4, 4))
                S[:2, :2] = rotation(rng.uniform(0.0, 2.0 * math.pi)).S
                S[2:, 2:] = single_mode_squeezer(rng.uniform(0.0, 1.0)).S
                nxt = SymplecticOp(S)
            else:
                nxt = SymplecticOp(np.eye(4), shift=rng.uniform(-2.0, 2.0, size=4))
            op = nxt if op is None else compose(nxt, op)
        out = apply(op, state)
        ch = NoisyChannel.uniform(2, rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0))
        out = evolve(ch, out, rng.uniform(0.0, 1.5))
        if not out.physical(1e-8):
            fails += 1

    worst_semi = 0.0
    for _ in range(50):
        ch = NoisyChannel(
            rng.uniform(0.1, 1.5, size=2), rng.uniform(0.0, 1.0, size=2), np.zeros(2)
        )
        state = probe_tmsdt(
            rng.uniform(0.0, 1.0),
            rng.uniform(0.0, 2.0 * math.pi),
            *rng.uniform(-1.0, 1.0, size=4),
            rng.uniform(0.0, 1.0),
        )
        t1, t2 = rng.uniform(0.05, 0.8, size=2)
        two_step = evolve(ch, evolve(ch, state, t1), t2)
        one_step = evolve(ch, state, t1 + t2)
        worst_semi = max(
            worst_semi,
            float(np.max(np.abs(two_step.V - one_step.V))),
            float(np.max(np.abs(two_step.d - one_step.d))),
        )
    ok = fails == 0 and worst_semi <= 1e-12
    assert _gate(
        8,
        ok,
        "%d unphysical states in 1000 compositions, semigroup defect %.3e" % (fails, worst_semi),
    )

"""Random run_point draws against the high-precision referee (mp_referee), which builds V, D
and M in mpmath from each config's own parameters."""

import math

import numpy as np

from gaussfish.scenarios import PROBES, ScenarioConfig, run_point

from mp_referee import FIELDS, referee_row

# Relative budget of every column of an ok row (mp_referee.FIELDS: b_s, b_r, b_h_mid,
# b_h_upper, hdb, r_q and sql) against the referee.  The draws below meet it with a margin
# of about 1000: every row is ok, and the worst is 1.2e-15 (b_r; hdb 7.9e-16).
BUDGET = 1e-12
DRAWS = 200


def _draw(rng) -> ScenarioConfig:
    """One config on the t axis: any probe, r up to 15, phi, n_th, n_e, gamma, t, alpha and the
    weight, and in half the draws a complex m_e up to its bound |m_e|^2 <= n_e (n_e + 1)."""
    probe = PROBES[rng.integers(len(PROBES))]
    n_e = rng.uniform(0.05, 2.0)
    m_e = 0.0
    if rng.integers(2):
        m_e = complex(rng.uniform(0.0, 1.0) * math.sqrt(n_e * (n_e + 1.0)) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
    weight = None
    if rng.integers(2):
        a = rng.normal(size=(2, 2))
        weight = (a @ a.T + 0.1 * np.eye(2)).tolist()
    return ScenarioConfig(
        probe=probe,
        r=rng.uniform(0.0, 15.0) if probe in ("tmsv", "tmst") else 0.0,
        phi=rng.uniform(-math.pi, math.pi),
        alpha=tuple(rng.uniform(-1.0, 1.0, 4)) if probe in ("tmdv", "tmdt") else (0.0,) * 4,
        n_th=rng.uniform(0.0, 2.0) if probe in ("tmst", "tmdt") else 0.0,
        gamma=rng.uniform(0.1, 2.0),
        n_e=n_e,
        m_e=m_e,
        t=rng.uniform(0.01, 2.0),
        axis="t",
        weight=weight,
    )


def test_random_rows_are_ok_and_within_budget_of_the_referee():
    """200 seeded draws: every row is ok and within BUDGET of the referee, or degrades.

    A squeezed reservoir (m_e != 0) at strong squeezing is what this battery is for: with
    the dense V of such a channel, rows from r of about 9 were ok and wrong by up to 1e-4.
    """
    rng = np.random.default_rng(20330)
    ok = squeezed = 0
    for _ in range(DRAWS):
        cfg = _draw(rng)
        row = run_point(cfg, cfg.t)
        if not row.ok:
            assert all(math.isnan(x) for x in row[1:8]), row
            continue
        ok += 1
        squeezed += cfg.m_e != 0 and cfg.r > 9.0
        want = referee_row(cfg, cfg.t)
        for name in FIELDS:
            got = getattr(row, name)
            assert abs(got - want[name]) <= BUDGET * abs(want[name]), (name, got, want[name], cfg)
    assert ok >= 0.95 * DRAWS and squeezed >= 10, (ok, squeezed)

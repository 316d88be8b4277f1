import json
import math

import numpy as np
import pytest

from gaussfish.cli import main


def _write_config(tmp_path, name="cfg.json", **kw):
    data = {
        "schema": 1,
        "probe": "tmsv",
        "gamma": 1.0,
        "n_e": 0.5,
        "t": 0.2,
        "axis": "r",
        "start": 0.0,
        "stop": 1.4,
        "step": 0.1,
    }
    data.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_sweep_reference_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "axis,b_s,b_r,b_h_mid,b_h_upper,hdb,r_q,sql"
    assert len(lines) == 1 + 15
    bh = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(b2 < b1 for b1, b2 in zip(bh, bh[1:]))


def test_bounds_single_row(tmp_path, capsys):
    cfg = _write_config(tmp_path, r=0.4)
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 2
    vals = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
    assert vals["b_s"] == pytest.approx(1.3371925, abs=1e-6)
    assert vals["r_q"] == pytest.approx(0.6860889, abs=1e-6)


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n "start": }')
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_schema_rejected(tmp_path, capsys):
    path = tmp_path / "ns.json"
    path.write_text('{"probe": "tmsv"}')
    assert main(["sweep", "--config", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, typo_field=3)
    assert main(["sweep", "--config", cfg]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_empty_range_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, start=2.0, stop=1.0)
    assert main(["sweep", "--config", cfg]) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("gamma", math.inf),
        ("stop", math.inf),
        ("t", math.nan),
        ("weight", [[math.nan, 0.0], [0.0, 1.0]]),
        ("alpha", [0.0, -math.inf, 0.0, 0.0]),
    ],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, **{field: value})  # json writes Infinity and NaN
    for command in ("sweep", "bounds"):
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "%s must be finite" % field in captured.err


def test_degraded_sweep_exits_3_but_writes_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path, axis="t", start=-0.1, stop=0.1, step=0.1)
    assert main(["sweep", "--config", cfg]) == 3
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert len(lines) == 1 + 3
    assert "nan" in lines[1]
    assert "degraded" in captured.err


def test_out_file_and_byte_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_flag_and_env(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--threads", "3"]) == 0
    out1 = capsys.readouterr().out
    monkeypatch.setenv("GAUSSFISH_THREADS", "2")
    assert main(["sweep", "--config", cfg]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    monkeypatch.setenv("GAUSSFISH_THREADS", "zebra")
    assert main(["sweep", "--config", cfg]) == 2


def test_json_format(tmp_path, capsys):
    cfg = _write_config(tmp_path, stop=0.2)
    assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 3
    assert payload["config"]["n_e"] == 0.5


def test_oracle_check(capsys):
    assert main(["oracle-check", "--dim", "40"]) == 0
    out = capsys.readouterr().out
    assert "max gap" in out
    assert "displacement/vacuum" in out


def test_phase_demo(capsys):
    assert main(["phase-demo"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 5  # header + N in {1,2,4,8,16}
    assert not any(line.startswith("0 ") for line in lines)
    row4 = [l for l in lines if l.startswith("4 ")][0].split()
    assert float(row4[2]) == pytest.approx(0.25)
    assert float(row4[4]) == pytest.approx(0.05)
    assert float(row4[1]) == pytest.approx(32.0)  # 8 N
    assert float(row4[3]) == pytest.approx(160.0)  # 8 N (N + 1)


def test_classical_demo(capsys):
    assert main(["classical-demo"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].split()[0] == "component"
    for line in lines[1:-1]:
        ratio = float(line.split()[-1])
        assert abs(ratio - 1.0) < 0.5
    assert "seed=8" in lines[-1]


def test_classical_demo_seed_override(capsys):
    assert main(["classical-demo", "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    assert main(["classical-demo", "--seed", "5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "seed=5" in out1


def test_repeated_calls_in_one_process_match_first_calls(tmp_path, capsys):
    from gaussfish import cli

    cfg = _write_config(tmp_path, stop=0.3)
    bad = _write_config(tmp_path, name="bad.json", probe="nope")
    calls = [
        ["sweep", "--config", cfg],
        ["sweep", "--config", cfg, "--format", "json"],
        ["bounds", "--config", cfg],
        ["sweep", "--config", bad],
        ["sweep", "--config", cfg, "--format", "json", "--threads", "2"],
        ["sweep", "--config", cfg, "--format", "json"],
        ["sweep", "--config", cfg],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    firsts = []
    for argv in calls:  # each call as the first of its process: a freshly built parser
        cli._parser.cache_clear()
        firsts.append(run(argv))
    cli._parser.cache_clear()
    repeated = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1  # one parser for the whole sequence
    assert repeated == firsts
    assert [code for code, _, _ in repeated] == [0, 0, 0, 2, 0, 0, 0]
    assert json.loads(repeated[4][1])["config"]["threads"] == 2
    assert json.loads(repeated[5][1])["config"]["threads"] == 1
    assert repeated[0][1] == repeated[6][1]

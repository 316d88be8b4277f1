import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gaussfish.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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


def test_boolean_schema_rejected(tmp_path, capsys):
    """JSON true equals 1 in Python, but it is no schema number."""
    for schema in (True, False):
        cfg = _write_config(tmp_path, schema=schema)
        assert main(["sweep", "--config", cfg]) == 2
        assert 'config must declare "schema": 1' in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"alpha": ["x", 0, 0, 0]}, "alpha must be a number"),
        ({"alpha": 5}, "alpha must be an array of shape (4,)"),
        ({"theta": [0.0, 0.0, 0.0]}, "theta must be an array of shape (2,)"),
        ({"theta": "xy"}, "theta must be a number"),
        ({"t": [0.1, 0.2]}, "t must be a number"),
        ({"stop": 1e300, "step": 1e-300}, "sweep range: (stop - start) / step is not finite"),
        ({"weight": [[1, 2], [0, 1]]}, "weight must be a symmetric 2x2 matrix"),
        ({"weight": [[1, 0], [0, -1]]}, "weight must be positive semidefinite"),
        ({"m_e": 2.0}, "channel (gamma, n_e, m_e): reservoir squeezing violates |m_e|^2"),
        ({"gamma": -1.0}, "channel (gamma, n_e, m_e): damping rates must be >= 0"),
        ({"threads": "2"}, "threads must be an integer"),
        ({"threads": 1.5}, "threads must be an integer"),
        ({"threads": True}, "threads must be an integer"),
        ({"stop": 1e10, "step": 1e-3}, "sweep range: 10000000000001 points exceed the cap of 100000"),
        ({"probe": "tmdv", "axis": "r"}, "axis r is ignored by probe tmdv"),
        ({"probe": "tmdt", "n_th": 0.5, "alpha": [0.1, 0, 0, 0]}, "axis r is ignored by probe tmdt"),
        ({"axis": "n_th"}, "axis n_th is ignored by probe tmsv"),
        ({"probe": "tmdv", "axis": "n_th"}, "axis n_th is ignored by probe tmdv"),
        ({"alpha": [0, 0, 0.1, 0]}, "alpha must be zero for probe tmsv, which ignores it"),
        ({"probe": "tmst", "alpha": [0.1, 0, 0, 0]}, "alpha must be zero for probe tmst"),
        ({"n_th": 0.5}, "n_th must be zero for probe tmsv, which ignores it"),
        ({"probe": "tmdv", "axis": "t", "n_th": 0.5}, "n_th must be zero for probe tmdv"),
        ({"n_e": 0.0, "m_e": 1e-6}, "channel (gamma, n_e, m_e): reservoir squeezing violates |m_e|^2"),
    ],
)
def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys, fields, message):
    cfg = _write_config(tmp_path, **fields)
    for command in ("sweep", "bounds"):
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_sweep_writes_exact_status_lines_and_leaves_logging_alone(tmp_path, capsys):
    """stderr carries "LEVEL gaussfish: message" lines and nothing else; the root logger's
    handlers and level are the host's before and after."""
    root = logging.getLogger()
    handler = logging.NullHandler()
    saved_handlers, saved_level = root.handlers[:], root.level
    root.addHandler(handler)
    root.setLevel(logging.WARNING)
    try:
        before = root.handlers[:]
        cfg = _write_config(tmp_path, axis="t", start=0.0, stop=0.2, step=0.1)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert root.handlers == before and root.level == logging.WARNING
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "INFO gaussfish: sweep: 3 points along t\nINFO gaussfish: wrote %s\n" % out
        bad = _write_config(tmp_path, name="bad.json", probe="nope")
        assert main(["sweep", "--config", bad]) == 2
        assert root.handlers == before and root.level == logging.WARNING
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ERROR gaussfish: probe must be one of ('tmsv', 'tmst', 'tmdv', 'tmdt')\n"
    finally:
        root.handlers[:] = saved_handlers
        root.setLevel(saved_level)


def test_module_run_writes_the_in_process_bytes_and_status_lines(tmp_path, capsys):
    """python -m gaussfish.cli in a child process: the same CSV as an in-process call, and
    both status lines on the real stderr, in order."""
    cfg = _write_config(tmp_path, axis="t", start=0.0, stop=1.0, step=0.005)
    here, child = tmp_path / "here.csv", tmp_path / "child.csv"
    assert main(["sweep", "--config", cfg, "--out", str(here)]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "gaussfish.cli", "sweep", "--config", cfg, "--out", str(child)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr == b"INFO gaussfish: sweep: 201 points along t\nINFO gaussfish: wrote %s\n" % bytes(child)
    assert child.read_bytes() == here.read_bytes()


def test_schema_only_config_runs(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text('{"schema": 1}')
    assert main(["sweep", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 15


def test_reservoir_squeezing_on_an_n_e_axis_degrades_row_by_row(tmp_path, capsys):
    cfg = _write_config(tmp_path, axis="n_e", n_e=2.0, m_e=1.0, start=0.0, stop=1.0, step=0.25)
    assert main(["sweep", "--config", cfg]) == 3
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    # |m_e|^2 = 1 <= n_e (n_e + 1) from n_e = 0.618...
    assert [row[1] == "nan" for row in rows] == [True, True, True, False, False]
    assert "reservoir squeezing" in captured.err


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


def test_out_rewritten_in_place_leaves_the_bytes_of_a_fresh_write(tmp_path):
    """A sweep over a longer file (junk, then its own JSON) leaves only its new bytes."""
    cfg = _write_config(tmp_path, axis="t", start=0.0, stop=1.0, step=0.005)
    fresh = {}
    for fmt in ("json", "csv"):
        path = tmp_path / ("fresh." + fmt)
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(path)]) == 0
        fresh[fmt] = path.read_bytes()
    assert len(fresh["json"]) > len(fresh["csv"])
    out = tmp_path / "out"
    out.write_bytes(b"x" * (len(fresh["json"]) + 100))
    for fmt in ("json", "csv"):
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == fresh[fmt]


def test_out_writes_through_a_symlink(tmp_path):
    cfg = _write_config(tmp_path)
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    assert main(["sweep", "--config", cfg, "--out", str(fresh)]) == 0
    target.write_bytes(b"old\n" * 10_000)
    link.symlink_to(target)
    assert main(["sweep", "--config", cfg, "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


def test_out_to_a_device_or_a_pipe_is_written_as_a_stream(tmp_path):
    """ftruncate fails on /dev/null and on pipes, so neither is cut to length."""
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", os.devnull]) == 0
    assert main(["sweep", "--config", cfg, "--format", "json", "--out", os.devnull]) == 0
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", "--config", cfg, "--out", str(fresh)]) == 0
    if os.path.isdir("/dev/fd"):
        r, w = os.pipe()  # the CSV (about 3 KB) fits in the pipe's buffer: no reader needed
        with os.fdopen(r, "rb") as reader:
            try:
                assert main(["sweep", "--config", cfg, "--out", "/dev/fd/%d" % w]) == 0
            finally:
                os.close(w)
            assert reader.read() == fresh.read_bytes()


def test_rewriting_an_existing_out_does_not_truncate_on_open(tmp_path, monkeypatch):
    """Structural, since host noise hides the timing: an O_TRUNC open of an existing file
    costs more than the whole write, so the rewrite opens without it and cuts to length."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    first = out.read_bytes()
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kw):
        if os.fspath(path) == str(out):
            flags.append(flag)
        return real_open(path, flag, *args, **kw)

    monkeypatch.setattr(os, "open", spy)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert out.read_bytes() == first


def test_rewriting_an_out_of_the_same_length_does_not_truncate(tmp_path, monkeypatch):
    """Structural: a file that is not longer than the text is not cut; a longer one is, once."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    first = out.read_bytes()
    cuts = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length) or real_ftruncate(fd, length))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert cuts == [] and out.read_bytes() == first
    out.write_bytes(first + b"junk")
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert cuts == [len(first)] and out.read_bytes() == first
    monkeypatch.undo()


def test_unwritable_out_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "cannot write output" in capsys.readouterr().err


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

"""Config parsing, report formatting, and the four subcommands.

Subcommands are exercised in-process through main(argv); a single
subprocess test at the end confirms the installed entry point wires up
the same code path.
"""

import os
import subprocess
import sys
import warnings

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import evobeam
from evobeam import cli, scenarios
from evobeam.cli import (
    ConfigError,
    cmd_check,
    cmd_converge,
    cmd_probe,
    cmd_run,
    emit_config,
    fmt17,
    main,
    parse_config,
)

MINIMAL = """\
[grid]
n_cells = 8

[scenario]
name = timoshenko_damped
"""

CONSERVATIVE = """\
[grid]
n_cells = 8

[scenario]
name = full_dynamic

[scheme]
dt = 0.05
t_end = 1.0

[initial]
kind = random
seed = 3
"""


def _cfg_with_output(text, tmp_path, **keys):
    lines = [text, "[output]"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    cfg = parse_config("\n".join(lines) + "\n")
    return cfg


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scenario == "timoshenko_damped"
    assert cfg.n_cells == 8
    assert cfg.params["c"] == "0.5"
    assert cfg.params["I_tilde"] == "0.0"
    assert cfg.scheme["theta"] == "0.5"
    assert cfg.scheme["record_every"] == "1"
    assert cfg.source["kind"] == "zero"
    assert cfg.initial["kind"] == "zero"
    assert cfg.output["csv"] == "out.csv"


def test_emit_parse_roundtrip():
    text = MINIMAL + "\n[scheme]\ndt = 0.025\nrho = 2.0\n\n[source]\nkind = gaussian\nblock = eta\n"
    cfg = parse_config(text)
    again = parse_config(emit_config(cfg))
    assert again == cfg
    # canonical form is a fixed point
    assert emit_config(again) == emit_config(cfg)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[grid]\nn_cells = 8\n", "missing required section"),
        ("[grid]\nn_cells = 8\n[scenario]\nname = beam\n", "unknown scenario"),
        ("[grid]\nn_cells = 8\n[scenario]\nname = timoshenko_damped\n[grud]\nx = 1\n", "unknown section"),
        (MINIMAL + "[scheme]\nstep = 0.1\n", "unknown key"),
        (MINIMAL.replace("name = timoshenko_damped", "name = timoshenko_damped\nzeta = 1"), "unknown key"),
        ("[grid]\nn_cells = one\n[scenario]\nname = timoshenko_damped\n", "n_cells"),
        ("[grid]\nn_cells = 1\n[scenario]\nname = timoshenko_damped\n", "n_cells"),
    ],
)
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment.split()[0] in str(exc.value)


def test_parse_validates_scenario_compatibility():
    bad = MINIMAL.replace(
        "name = timoshenko_damped", "name = timoshenko_damped\nc = 0.0\nI_tilde = 0.0"
    )
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[scheme]\ntheta = 0.3\n")


def test_fmt17_format_and_roundtrip(rng):
    assert fmt17(0.5) == "5.0000000000000000e-1"
    assert fmt17(2.0) == "2.0000000000000000e0"
    assert fmt17(0.0) == "0.0000000000000000e0"
    for x in [1.0 / 3.0, np.pi, 1e-12, 6.02e23, *rng.standard_normal(20)]:
        assert float(fmt17(x)) == x


def test_cmd_check_report_lines():
    cfg = parse_config(MINIMAL)
    lines, code = cmd_check(cfg)
    assert code == 0
    assert lines[0] == "c0=5.0000000000000000e-1"
    assert lines[2] == "bound=2.0000000000000000e0"
    assert lines[3] == "skew_defect=0.0000000000000000e0"
    assert lines[4] == "nevanlinna=pass"
    assert lines[1].startswith("rho0=")


def test_cmd_check_exit_two_when_not_coercive():
    # at rho = 0 only the boundary dashpot contributes to the symmetric
    # part, so the field slots sit exactly at zero
    cfg = parse_config(MINIMAL + "[scheme]\nrho = 0.0\n")
    lines, code = cmd_check(cfg)
    assert lines == ["c0<=0"]
    assert code == 2


def test_cmd_run_row_count_and_zero_energies(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _cfg_with_output(
        MINIMAL + "[scheme]\ndt = 0.0625\nt_end = 1.0\nrecord_every = 2\n",
        tmp_path,
        csv=str(out),
    )
    assert cmd_run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,energy,trace:tau_plus"
    # 16 steps recorded every 2nd, plus the initial record
    assert len(lines) == 1 + 9
    for row in lines[1:]:
        t, e, tr = row.split(",")
        assert e == "0.0"
        assert tr == "0.0"


def test_cmd_run_conserves_energy_for_conservative_law(tmp_path):
    out = tmp_path / "cons.csv"
    cfg = _cfg_with_output(CONSERVATIVE, tmp_path, csv=str(out))
    assert cmd_run(cfg) == 0
    rows = out.read_text().splitlines()[1:]
    energies = np.array([float(r.split(",")[1]) for r in rows])
    assert energies[0] > 0
    assert np.max(np.abs(energies - energies[0])) <= 1e-10 * energies[0]


def test_cmd_run_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = CONSERVATIVE
    cmd_run(_cfg_with_output(base, tmp_path, csv=str(out1)))
    cmd_run(_cfg_with_output(base, tmp_path, csv=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_run_snapshot_file(tmp_path):
    out = tmp_path / "run.csv"
    snaps = tmp_path / "snaps.csv"
    cfg = _cfg_with_output(
        "[grid]\nn_cells = 4\n\n[scenario]\nname = timoshenko_damped\n\n"
        "[scheme]\ndt = 0.25\nt_end = 1.0\n",
        tmp_path,
        csv=str(out),
        snapshots=str(snaps),
        snapshot_stride="4",
    )
    cmd_run(cfg)
    lines = snaps.read_text().splitlines()
    assert lines[0] == "t,block,index,value"
    # layout dim 4+4+1+3+4 = 16; recorded times 0..1 in 5 steps, stride 4
    # keeps t=0 and t=1
    assert len(lines) == 1 + 2 * 16
    assert lines[1].startswith("0.0,V1,0,")


def test_run_cli_writes_snapshots_only_when_asked(tmp_path):
    # the snapshot file is built from recorded states; asking for it must
    # leave the CSV byte for byte as it is without it
    body = CONSERVATIVE + "\n[output]\nsnapshot_stride = 3\ncsv = {csv}\nsnapshots = {snaps}\n"
    plain, with_snaps = tmp_path / "plain.ini", tmp_path / "snaps.ini"
    plain.write_text(body.format(csv=tmp_path / "plain.csv", snaps=""))
    with_snaps.write_text(body.format(csv=tmp_path / "snaps.csv", snaps=tmp_path / "snaps.txt"))
    assert main(["run", str(plain)]) == 0
    assert main(["run", str(with_snaps)]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "snaps.csv").read_bytes()
    lines = (tmp_path / "snaps.txt").read_text().splitlines()
    assert lines[0] == "t,block,index,value"
    # 20 steps from t = 0 give 21 records; stride 3 keeps records 0, 3, ..., 18
    model, _ = parse_config(CONSERVATIVE).built
    dim = model.layout.dim
    assert len(lines) == 1 + 7 * dim
    assert lines[-1].startswith(f"{repr(18 * 0.05)},")


@pytest.mark.parametrize("stride", [1, 3])
def test_run_files_match_value_by_value_formatting(tmp_path, monkeypatch, stride):
    # the CSV and snapshot files, written row by row and value by value
    # from the series that run returned
    series, real_run = [], cli.run

    def spy(*args, **kwargs):
        series.append(real_run(*args, **kwargs))
        return series[-1]

    monkeypatch.setattr(cli, "run", spy)
    config = tmp_path / "run.ini"
    csv, snaps = tmp_path / "run.csv", tmp_path / "snaps.txt"
    config.write_text(
        CONSERVATIVE.replace("t_end = 1.0", "t_end = 1.0\nrecord_every = 2")
        + "\n[source]\nkind = sinusoid\nblock = V1\nprofile = sin(3*x)\n"
        + f"\n[output]\ncsv = {csv}\nsnapshots = {snaps}\nsnapshot_stride = {stride}\n"
    )
    assert main(["run", str(config)]) == 0
    (ts,) = series
    model, _ = parse_config(config.read_text()).built
    names = model.layout.trace_names()
    rows = [",".join(["t", "energy"] + [f"trace:{t}" for t in names])]
    for i, t in enumerate(ts.times):
        row = [repr(float(t)), repr(float(ts.energy[i]))]
        row += [repr(float(ts.traces[name][i])) for name in names]
        rows.append(",".join(row))
    assert csv.read_text() == "\n".join(rows) + "\n"
    lines = ["t,block,index,value"]
    for i in range(0, len(ts), stride):
        t = repr(float(ts.times[i]))
        for name in model.layout.names:
            for j, v in enumerate(ts.snapshots[i][model.layout.slice_of(name)]):
                lines.append(f"{t},{name},{j},{repr(float(v))}")
    assert snaps.read_text() == "\n".join(lines) + "\n"
    assert len(lines) == 1 + len(range(0, 11, stride)) * model.layout.dim


def test_cmd_converge_validation():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [8, 16])
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [8, 8, 16])
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [1, 8, 16])
    fd = parse_config(MINIMAL.replace("timoshenko_damped", "full_dynamic"))
    with pytest.raises(ConfigError):
        cmd_converge(fd, [8, 16, 32])


def test_cmd_converge_manufactured_second_order():
    cfg = parse_config(MINIMAL)
    lines, code = cmd_converge(cfg, [8, 16, 32])
    assert code == 0
    assert [l.split(" ")[0] for l in lines[:3]] == ["level=8", "level=16", "level=32"]
    slope = float(lines[-1].split("=")[1])
    assert slope >= 1.9


def test_cmd_converge_self_reference_parabolic():
    text = """\
[grid]
n_cells = 16

[scenario]
name = sturm_liouville
s0 = 0.0
s1 = 0.5
mu_plus = 0.5, 0.25

[scheme]
t_end = 0.25

[initial]
kind = expr
V1 = cos(pi*x)
"""
    cfg = parse_config(text)
    lines, code = cmd_converge(cfg, [8, 16, 32])
    assert code == 0
    assert lines[-1].startswith("slope=")


def test_main_converge_zero_error_exits_four(tmp_path, capsys):
    # zero source and zero initial state: every level's error is exactly 0,
    # so log(error) has no slope to fit
    path = tmp_path / "zero.ini"
    path.write_text("[grid]\nn_cells = 8\n\n[scenario]\nname = sturm_liouville\n")
    assert main(["converge", str(path), "--levels", "8,16,32"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: level 8: the error is 0, so the convergence slope is undefined"
    ]


@pytest.mark.parametrize(
    "output",
    [
        "snapshots = {snaps}\nsnapshot_stride = 0",
        "snapshots = {snaps}\nsnapshot_stride = two",
        "energy = maybe",
        "traces = tau0_plus, nope",
    ],
)
def test_main_run_rejects_bad_output_before_stepping(output, tmp_path, capsys):
    csv, snaps = tmp_path / "out.csv", tmp_path / "snaps.txt"
    path = tmp_path / "cfg.ini"
    path.write_text(CONSERVATIVE + f"\n[output]\ncsv = {csv}\n" + output.format(snaps=snaps) + "\n")
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [output] ")
    assert not csv.exists() and not snaps.exists()
    with pytest.raises(ConfigError, match=r"^\[output\] "):
        parse_config(path.read_text())


def test_main_run_rejects_overflowing_energy(tmp_path, capsys):
    # a finite state whose energy overflows: exit 2, one stderr line, no CSV
    csv = tmp_path / "out.csv"
    path = tmp_path / "cfg.ini"
    path.write_text(
        MINIMAL + f"\n[source]\nkind = sinusoid\namplitude = 1e308\n\n[output]\ncsv = {csv}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: recorded energy is not finite"]
    assert not csv.exists()


def test_cmd_probe_causality_zero_deviation():
    cfg = parse_config(MINIMAL + "[scheme]\ndt = 0.05\nt_end = 2.0\n")
    lines, code = cmd_probe(cfg, "causality", a=1.0)
    assert code == 0
    assert lines == ["max_dev_before_a=0.0000000000000000e0"]


def test_cmd_probe_causality_validation():
    cfg = parse_config(MINIMAL + "[scheme]\ndt = 0.05\nt_end = 2.0\n")
    with pytest.raises(ConfigError):
        cmd_probe(cfg, "causality", a=None)
    with pytest.raises(ConfigError):
        cmd_probe(cfg, "causality", a=2.5)
    with pytest.raises(ConfigError):
        cmd_probe(cfg, "unknown")


def test_cmd_probe_bound_within_limit():
    text = MINIMAL + (
        "[scheme]\ndt = 0.05\nt_end = 4.0\nrho = 2.0\n\n"
        "[source]\nkind = gaussian\nblock = eta\nprofile = cos(pi*x)\n"
        "center = 1.0\nwidth = 0.2\n"
    )
    cfg = parse_config(text)
    lines, code = cmd_probe(cfg, "bound")
    assert code == 0
    assert lines[1] == "limit=2.0000000000000000e0"
    ratio = float(lines[0].split("=")[1])
    assert 0.0 < ratio <= 2.0 * 1.05


def test_cmd_probe_bound_rejects_zero_source():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        cmd_probe(cfg, "bound")


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text(MINIMAL)
    assert main(["check", str(good)]) == 0
    assert main(["check", str(tmp_path / "missing.ini")]) == 3
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn_cells = 8\n")
    assert main(["check", str(bad)]) == 4
    assert main(["converge", str(good), "--levels", "8,16"]) == 4
    assert main(["probe", str(good), "--kind", "causality"]) == 4
    assert main(["nonsense", str(good)]) == 4


def test_main_check_prints_report(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL)
    code = main(["check", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "c0=5.0000000000000000e-1"
    assert out[-1] == "nevanlinna=pass"


def test_main_run_writes_relative_to_cwd(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.25\nt_end = 1.0\n")
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "out.csv").exists()


def test_console_entry_point_subprocess(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL)
    # the child imports the same package as this process, installed or not
    src = str(Path(evobeam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "evobeam", "check", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "c0=5.0000000000000000e-1"


ESCAPE = "1 + 0*x + ().__class__.__base__.__subclasses__().__len__()"


def test_expression_cannot_reach_python_internals(tmp_path):
    text = MINIMAL + f"kappa1 = {ESCAPE}\n"
    with pytest.raises(ConfigError, match="unsupported syntax"):
        parse_config(text)
    path = tmp_path / "escape.ini"
    path.write_text(text)
    assert main(["check", str(path)]) == 4


@pytest.mark.parametrize(
    "expr,native",
    [
        ("exp(-((x - 0.1) / 0.1)**2)", lambda x: np.exp(-((x - 0.1) / 0.1) ** 2)),
        ("sin(pi*(x+0.5))", lambda x: np.sin(np.pi * (x + 0.5))),
        ("cos(pi*x)", lambda x: np.cos(np.pi * x)),
        ("-x**2 + 2/e - +sqrt(abs(x))", lambda x: -x**2 + 2 / np.e - +np.sqrt(np.abs(x))),
        ("1.0", lambda x: np.ones_like(x)),
    ],
)
def test_expression_values_match_python_arithmetic(expr, native):
    from evobeam.cli import _eval_expr

    x = np.linspace(-0.5, 0.5, 9)
    assert _eval_expr(expr, x, "test").tobytes() == native(x).tobytes()


def test_main_rejects_t_end_not_a_multiple_of_dt(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.3\nt_end = 1.0\n")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(path.read_text())
    assert main(["run", str(path)]) == 4


SCENARIO_DEFAULTS = {
    "timoshenko_damped": {
        "kappa1": "1.0", "nu1": "1.0", "nu2": "1.0", "kappa2": "1.0",
        "d": "0.0", "c": "0.5", "I_tilde": "0.0", "sigma0": "1.0",
    },
    "dynamic_inertia": {
        "kappa1": "1.0", "nu1": "1.0", "nu2": "1.0", "kappa2": "1.0",
        "d": "0.0", "c": "0.0", "I_tilde": "1.0", "sigma0": "1.0",
    },
    "full_dynamic": {
        "m_V1": "1.0", "m_eta": "1.0", "m_s": "1.0", "m_V2": "1.0",
        "g_V1": "0.0", "g_eta": "0.0", "g_s": "0.0", "g_V2": "0.0",
        "mu_minus": "1.0, 0.0", "mu_plus": "1.0, 0.0",
        "nu_minus": "1.0, 0.0", "nu_plus": "1.0, 0.0",
    },
    "sturm_liouville": {
        "r": "1.0", "q": "0.0", "s0": "1.0", "s1": "0.0",
        "mu_minus": "1.0, 0.0", "mu_plus": "1.0, 0.0",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DEFAULTS))
def test_scenario_defaults(name):
    cfg = parse_config(MINIMAL.replace("timoshenko_damped", name))
    assert cfg.params == SCENARIO_DEFAULTS[name]
    assert emit_config(parse_config(emit_config(cfg))) == emit_config(cfg)
    lines, code = cmd_check(cfg)
    assert code == 0, lines


@pytest.mark.parametrize("name", sorted(SCENARIO_DEFAULTS))
@pytest.mark.parametrize("command", ["check", "run"])
def test_parse_then_command_builds_once(name, command, tmp_path, monkeypatch):
    spec = scenarios.SCENARIOS[name]
    calls = []

    def counting(grid, params):
        calls.append(grid.n_cells)
        return spec.make(grid, params)

    monkeypatch.setitem(scenarios.SCENARIOS, name, replace(spec, make=counting))
    text = MINIMAL.replace("timoshenko_damped", name)
    cfg = parse_config(text + f"[scheme]\ndt = 0.25\n[output]\ncsv = {tmp_path / 'out.csv'}\n")
    if command == "check":
        cmd_check(cfg)
    else:
        cmd_run(cfg)
    assert calls == [8]

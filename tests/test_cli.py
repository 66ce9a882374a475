"""Config parsing, report formatting, and the four subcommands.

Subcommands are exercised in-process through main(argv); a single
subprocess test at the end confirms the installed entry point wires up
the same code path.
"""

import math
import os
import subprocess
import sys
import warnings

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evobeam
from evobeam import cli, scenarios
from evobeam.core import bump_envelope, gaussian_envelope, sinusoid_envelope
from evobeam.wellposed import NevanlinnaSpec
from evobeam.cli import (
    ConfigError,
    build_scheme,
    cmd_check,
    cmd_converge,
    cmd_probe,
    cmd_run,
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
    model = parse_config(CONSERVATIVE).model
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
    model = parse_config(config.read_text()).model
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


def test_main_converge_uses_configured_theta(tmp_path, capsys):
    # backward Euler is first order in time, so its slope falls short of 1.9
    path = tmp_path / "euler.ini"
    path.write_text(MINIMAL + "[scheme]\ntheta = 1.0\n")
    assert main(["converge", str(path), "--levels", "8,16,32"]) == 2
    slope = float(capsys.readouterr().out.splitlines()[-1].removeprefix("slope="))
    assert 0.5 < slope < 1.5


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


def _main_fails_once(command, text, tmp_path, capsys, *args):
    """Run main on a config with numpy warnings as errors; return its exit
    code and its stderr lines, after checking that no CSV was written."""
    csv = tmp_path / "out.csv"
    path = tmp_path / "cfg.ini"
    path.write_text(text + f"\n[output]\ncsv = {csv}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(path), *args])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not csv.exists()
    return code, captured.err.splitlines()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "extra,where,raw",
    [
        ("\n[scheme]\ndt = nan\n", "[scheme] dt", "nan"),
        ("\n[scheme]\nt_end = inf\n", "[scheme] t_end", "inf"),
        ("\n[scheme]\nt_end = nan\n", "[scheme] t_end", "nan"),
        ("\n[source]\nkind = sinusoid\nfrequency = inf\n", "[source] frequency", "inf"),
        ("c = inf\n", "[scenario] c", "inf"),
        ("c = -Infinity\n", "[scenario] c", "-Infinity"),
    ],
    ids=["dt-nan", "t_end-inf", "t_end-nan", "frequency-inf", "c-inf", "c-minus-inf"],
)
def test_main_rejects_nonfinite_numbers(command, extra, where, raw, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + extra, tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {where}: expected a finite number, got {raw!r}"]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "extra,where,expr",
    [
        ("kappa1 = 1/(x-x)\n", "[scenario] kappa1", "1/(x-x)"),
        ("\n[initial]\nkind = expr\neta = log(x)\n", "[initial] eta", "log(x)"),
        ("\n[source]\nkind = gaussian\nblock = eta\nprofile = log(x)\n", "[source] profile", "log(x)"),
    ],
    ids=["kappa1", "initial-eta", "source-profile"],
)
def test_main_rejects_nonfinite_expression_values(command, extra, where, expr, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + extra, tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {where}: {expr!r} is not finite at every sample point"]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "extra,where,expr",
    [
        ("kappa1 = (-1)**0.5\n", "[scenario] kappa1", "(-1)**0.5"),
        ("kappa1 = 2 + (-1)**0.5 * x\n", "[scenario] kappa1", "2 + (-1)**0.5 * x"),
        ("\n[initial]\nkind = expr\neta = x * (-1)**0.5\n", "[initial] eta", "x * (-1)**0.5"),
    ],
    ids=["kappa1-constant", "kappa1-field", "initial-eta"],
)
def test_main_rejects_complex_expression_values(command, extra, where, expr, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + extra, tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {where}: {expr!r} is not real"]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("kind", ["random", "expr"])
def test_main_rejects_overflowing_initial_amplitude(command, kind, tmp_path, capsys):
    block = "eta = 3.0\n" if kind == "expr" else ""
    extra = f"\n[initial]\nkind = {kind}\namplitude = 1e308\n{block}"
    code, err = _main_fails_once(command, MINIMAL + extra, tmp_path, capsys)
    assert code == 4
    assert err == ["config error: state contains non-finite entries"]


@pytest.mark.parametrize(
    "name,keys,message",
    [
        ("timoshenko_damped", "c = -1", "boundary coefficients c and I_tilde must be nonnegative"),
        ("timoshenko_damped", "c = 0", "boundary trace law degenerate: c and I_tilde not both zero"),
        ("full_dynamic", "mu_plus = -1, 0.5", "mu_plus trace law needs nonnegative coefficients"),
        ("full_dynamic", "nu_minus = 0, 0", "trace law must not have both coefficients zero"),
        ("sturm_liouville", "s0 = 0\ns1 = 0", "potential law needs s0, s1 >= 0 with s0 + s1 > 0"),
        ("sturm_liouville", "mu_minus = 0.5, -1", "mu_minus trace law needs nonnegative coefficients"),
        ("full_dynamic", "mu_plus = 1, 2, 3", "[scenario] mu_plus: expected 'mu0, mu1', got '1, 2, 3'"),
    ],
    ids=[
        "beam-negative", "beam-zero", "mu_plus-negative", "nu_minus-zero", "potential-zero", "mu_minus-negative",
        "mu_plus-three-numbers",
    ],
)
def test_main_check_rejects_inadmissible_laws(name, keys, message, tmp_path, capsys):
    text = MINIMAL.replace("timoshenko_damped", name) + keys + "\n"
    code, err = _main_fails_once("check", text, tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {message}"]


@pytest.mark.parametrize(
    "keys", ["d = 0\n\n[scheme]\nrho = 1e-310", "c = 0\nI_tilde = 1e-310"], ids=["tiny-rho", "tiny-I_tilde"]
)
def test_main_check_overflowing_bound_exits_two(keys, tmp_path, capsys):
    # a coercive law with c0 so small that 1/c0 is not a finite float
    code, err = _main_fails_once("check", MINIMAL + keys + "\n", tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bound 1/c0 overflows for c0=")


def test_main_probe_overflowing_bound_exits_two(tmp_path, capsys):
    text = MINIMAL + "d = 0\n\n[scheme]\nrho = 1e-310\n\n[source]\nkind = sinusoid\n"
    code, err = _main_fails_once("probe", text, tmp_path, capsys, "--kind", "bound")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bound 1/c0 overflows for c0=")


@pytest.mark.parametrize("command", ["check", "probe"])
@pytest.mark.parametrize(
    "name,initial,message",
    [
        ("timoshenko_damped", "kind = expr\ntau_plus = 1.0", "[initial]: unknown key 'tau_plus'"),
        ("timoshenko_damped", "kind = expr\nzeta = 1.0", "[initial]: unknown key 'zeta'"),
        ("sturm_liouville", "kind = expr\ns = 1.0", "[initial]: unknown key 's'"),
        ("sturm_liouville", "kind = random\ns = 1.0", "[initial]: unknown key 's'"),
        ("timoshenko_damped", "kind = random\neta = sin(x)", "[initial] eta: a block value is read only with kind = expr"),
        ("timoshenko_damped", "kind = zero\nV2 = x", "[initial] V2: a block value is read only with kind = expr"),
        ("timoshenko_damped", "kind = sobol", "[initial] kind: unknown kind 'sobol'"),
    ],
    ids=[
        "trace-key", "outside-layout", "beam-block-on-sl-expr", "beam-block-on-sl-random", "random-with-block",
        "zero-with-block", "unknown-kind",
    ],
)
def test_main_rejects_initial_keys(command, name, initial, message, tmp_path, capsys):
    # block keys are the field blocks of the scenario's layout, read only by kind = expr
    text = MINIMAL.replace("timoshenko_damped", name) + f"\n[initial]\n{initial}\n"
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    argv = [command, str(path)] + (["--kind", "causality", "--a", "0.5"] if command == "probe" else [])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {message}"]


def test_initial_expr_sets_each_field_block():
    cfg = parse_config(MINIMAL + "\n[initial]\nkind = expr\namplitude = 2.0\neta = x\nV2 = 1 + x\n")
    model = cfg.model
    lay = model.layout
    u = cli.build_initial(cfg.initial, model)
    assert np.array_equal(u[lay.slice_of("eta")], 2.0 * lay.points_of("eta"))
    assert np.array_equal(u[lay.slice_of("V2")], 2.0 * (1 + lay.points_of("V2")))
    others = np.ones(lay.dim, bool)
    others[lay.slice_of("eta")] = others[lay.slice_of("V2")] = False
    assert not u[others].any()


@pytest.mark.parametrize(
    "kind,keys,envelope",
    [
        ("gaussian", {"center": "0.3", "width": "0.2"}, lambda a: gaussian_envelope(0.3, 0.2, a)),
        ("sinusoid", {"frequency": "2.5", "phase": "0.7"}, lambda a: sinusoid_envelope(2.5, 0.7, a)),
        ("bump", {"t0": "0.2", "t1": "0.9"}, lambda a: bump_envelope(0.2, 0.9, a)),
    ],
)
def test_source_kinds_equal_profile_times_envelope(kind, keys, envelope):
    body = "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg = parse_config(MINIMAL + f"\n[source]\nkind = {kind}\nblock = eta\nprofile = cos(pi*x)\namplitude = 1.5\n{body}")
    model = cfg.model
    source = cli.build_source(cfg.source, model)
    profile = np.zeros(model.layout.dim)
    profile[model.layout.slice_of("eta")] = np.cos(np.pi * model.layout.points_of("eta"))
    env = envelope(1.5)
    for t in (0.0, 0.1, 0.25, 0.5, 0.55, 0.8, 1.0):
        assert source(t).tobytes() == (profile * env(t)).tobytes()


@pytest.mark.parametrize(
    "source,message",
    [
        ("kind = triangle", "[source] kind: unknown kind 'triangle'"),
        ("kind = gaussian\nwidth = 0", "gaussian width must be positive"),
        ("kind = bump\nt0 = 0.5\nt1 = 0.5", "bump support must have t1 > t0"),
        ("kind = sinusoid\nfrequency = abc", "[source] frequency: expected a number, got 'abc'"),
        ("kind = gaussian\nblock = nope", "[source] block: unknown block 'nope'"),
    ],
    ids=["unknown-kind", "gaussian-width", "bump-support", "sinusoid-frequency", "unknown-block"],
)
def test_main_rejects_bad_source(source, message, tmp_path, capsys):
    code, err = _main_fails_once("run", MINIMAL + f"\n[source]\n{source}\n", tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {message}"]


def test_main_run_unwritable_snapshots_leaves_no_csv(tmp_path, capsys):
    # a run that fails writes no CSV, also when the snapshot file is what fails
    csv, snaps = tmp_path / "out.csv", tmp_path / "missing" / "s.txt"
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"\n[output]\ncsv = {csv}\nsnapshots = {snaps}\n")
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert not csv.exists()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "raw,message",
    [
        ("-1", "must be > 0, got '-1'"),
        ("0", "must be > 0, got '0'"),
        ("abc", "expected a number, got 'abc'"),
        ("inf", "expected a finite number, got 'inf'"),
    ],
    ids=["negative", "zero", "not-a-number", "infinite"],
)
def test_main_rejects_bad_c_target(command, raw, message, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + f"\n[scheme]\nc_target = {raw}\n", tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: [scheme] c_target: {message}"]


def test_main_config_not_utf8_exits_three(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot read config: ")


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


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_rejects_huge_integer_power(command, tmp_path, capsys):
    # number constants are floats, so the power overflows at once instead of
    # running exact integer arithmetic on a number of 41 million digits
    code, err = _main_fails_once(command, MINIMAL + "d = 9**9**8 * 0\n", tmp_path, capsys)
    assert code == 4
    assert len(err) == 1 and "[scenario] d: cannot evaluate '9**9**8 * 0'" in err[0]


def test_main_run_exits_two_when_the_records_cannot_be_allocated(tmp_path, capsys):
    # 1e300 steps: the record arrays exceed numpy's largest dimension
    text = MINIMAL + "[scheme]\ndt = 1e-300\nt_end = 1\n"
    code, err = _main_fails_once("run", text, tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: cannot allocate the records of the run: ")
    path = tmp_path / "cfg.ini"
    assert main(["check", str(path)]) == 0


def test_main_rejects_t_end_not_a_multiple_of_dt(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.3\nt_end = 1.0\n")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(path.read_text())
    assert main(["run", str(path)]) == 4


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10**6),
    dt=st.floats(1e-6, 1e3),
    off=st.one_of(st.floats(-3e-9, 3e-9), st.floats(-0.5, 0.5), st.just(0.0)),
)
def test_build_scheme_accepts_a_whole_number_of_steps_to_a_relative_1e_9(n, dt, off):
    t_end = n * dt * (1.0 + off)
    s = {"dt": repr(dt), "t_end": repr(t_end), "theta": "0.5", "record_every": "1", "rho": "1.0", "c_target": "1.0"}
    r = math.floor(t_end / dt)
    whole = [m for m in range(max(1, r - 1), r + 3) if abs(m * dt - t_end) <= 1e-9 * t_end]
    if whole:
        assert build_scheme(s)[0].n_steps == whole[0]
    else:
        with pytest.raises(ConfigError, match="is not a whole number of steps"):
            build_scheme(s)


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_accepts_t_end_within_the_relative_tolerance(command, tmp_path, monkeypatch, capsys):
    # t_end / dt = 999.9999995: 1000 steps end 5e-10 past t_end, inside
    # the relative 1e-9
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "tol.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.0010000000005\nt_end = 1.0\n")
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().err == ""
    if command == "run":
        times = [float(row.split(",")[0]) for row in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert len(times) == 1001 and times[-1] == 1000 * 0.0010000000005


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_rejects_record_every_not_dividing_the_steps(command, tmp_path, monkeypatch, capsys):
    # 10 steps recorded every 3rd would end the records at t = 0.9
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "every.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.1\nt_end = 1.0\nrecord_every = 3\n")
    assert main([command, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: [scheme] record_every: 3 does not divide the 10 steps,"
        " so the last record would fall before t_end"
    ]
    assert not (tmp_path / "out.csv").exists()


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


BUILDERS = ("build_model", "build_scheme", "build_source", "build_initial", "build_output")


@pytest.mark.parametrize(
    "args",
    [("check",), ("run",), ("probe", "--kind", "bound"), ("probe", "--kind", "causality", "--a", "0.5")],
    ids=["check", "run", "probe-bound", "probe-causality"],
)
def test_main_runs_each_builder_once(args, tmp_path, monkeypatch, capsys):
    # parse_config builds every value; the commands only read them
    calls = []
    for name in BUILDERS:
        def counting(*a, _real=getattr(cli, name), _name=name):
            calls.append(_name)
            return _real(*a)

        monkeypatch.setattr(cli, name, counting)
    path = tmp_path / "cfg.ini"
    path.write_text(
        MINIMAL + "[scheme]\ndt = 0.25\n[source]\nkind = gaussian\nblock = eta\n"
        + f"[output]\ncsv = {tmp_path / 'out.csv'}\n"
    )
    assert main([args[0], str(path), *args[1:]]) == 0
    assert sorted(calls) == sorted(BUILDERS)


def test_cmd_check_reports_a_failing_trace_law():
    # every maker refuses a negative mu0, so the law is swapped in afterwards
    cfg = parse_config(MINIMAL)
    traces = dict(cfg.model.traces)
    traces["tau_plus"] = replace(traces["tau_plus"], law=NevanlinnaSpec(-1.0, 0.5))
    lines, code = cmd_check(replace(cfg, model=replace(cfg.model, traces=traces)))
    assert code == 2
    assert lines == cmd_check(cfg)[0][:-1] + ["nevanlinna=fail"]


def test_main_probe_bound_refuses_rho_zero_before_stepping(tmp_path, capsys, monkeypatch):
    # coercive at rho = 0 (c0 = 0.5), but the weighted norms need rho > 0
    monkeypatch.setattr(cli, "bound_probe", lambda *a: pytest.fail("the probe stepped"))
    laws = "".join(f"{law} = 1.0, 0.5\n" for law in ("mu_minus", "mu_plus", "nu_minus", "nu_plus"))
    text = (
        "[grid]\nn_cells = 8\n[scenario]\nname = full_dynamic\ng_V1 = 0.5\ng_eta = 0.5\ng_s = 0.5\ng_V2 = 0.5\n"
        + laws + "[scheme]\nrho = 0.0\n[source]\nkind = gaussian\nblock = eta\n"
    )
    code, err = _main_fails_once("probe", text, tmp_path, capsys, "--kind", "bound")
    assert code == 4
    assert err == ["config error: [scheme] rho: the bound probe needs rho > 0, got '0.0'"]


_LAWS = "".join(f"{law} = 1.0, 0.5\n" for law in ("mu_minus", "mu_plus", "nu_minus", "nu_plus"))


@pytest.mark.parametrize(
    "text,args,code,out,err",
    [
        (MINIMAL, ("--kind", "causality"), 4, [], ["config error: causality probe needs --a"]),
        (MINIMAL, ("--kind", "causality", "--a", "0"), 4, [],
         ["config error: split time a=0.0 must lie inside (0, t_end)"]),
        (MINIMAL, ("--kind", "causality", "--a", "1.5"), 4, [],
         ["config error: split time a=1.5 must lie inside (0, t_end)"]),
        ("[grid]\nn_cells = 8\n[scenario]\nname = dynamic_inertia\n[scheme]\nrho = 0.0\n",
         ("--kind", "bound"), 2, ["c0<=0"], []),
        ("[grid]\nn_cells = 8\n[scenario]\nname = full_dynamic\ng_V1 = 0.5\ng_eta = 0.5\ng_s = 0.5\n"
         "g_V2 = 0.5\n" + _LAWS + "[scheme]\nrho = 0.0\n",
         ("--kind", "bound"), 4, [], ["config error: [scheme] rho: the bound probe needs rho > 0, got '0.0'"]),
    ],
    ids=["causality-without-a", "causality-a-at-0", "causality-a-past-t_end", "bound-not-coercive", "bound-rho-0"],
)
def test_main_refused_probe_factors_nothing(text, args, code, out, err, tmp_path, capsys, monkeypatch):
    # every refusal comes before the LU factorisation of the stepping matrix
    monkeypatch.setattr(cli, "factor", lambda *a: pytest.fail("the probe factored"))
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["probe", str(path), *args]) == code
    captured = capsys.readouterr()
    assert (captured.out.splitlines(), captured.err.splitlines()) == (out, err)


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("dt", ["1e-320", "5e-324"])
def test_main_rejects_a_subnormal_dt(command, dt, tmp_path, capsys):
    # t_end / dt overflows to inf, so there is no whole number of steps
    code, err = _main_fails_once(command, MINIMAL + f"[scheme]\ndt = {dt}\nt_end = 1\n", tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: t_end / dt must be finite, got 1.0 / {dt}"]


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_rejects_a_negative_seed(command, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + "[initial]\nkind = random\nseed = -1\n", tmp_path, capsys)
    assert code == 4
    assert err == ["config error: [initial] seed: must be >= 0, got '-1'"]


@pytest.mark.parametrize(
    "command,args",
    [("run", ()), ("probe", ("--kind", "bound")), ("probe", ("--kind", "causality", "--a", "0.5"))],
    ids=["run", "probe-bound", "probe-causality"],
)
def test_main_overflowing_sinusoid_exits_two(command, args, tmp_path, capsys):
    text = MINIMAL + "[source]\nkind = sinusoid\nblock = eta\nfrequency = 1e308\n"
    code, err = _main_fails_once(command, text, tmp_path, capsys, *args)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: sinusoid argument is not finite at t = ")


def test_main_check_rejects_a_grid_too_large_to_allocate(tmp_path, capsys, monkeypatch):
    # numpy fails the allocation as it would for 10^12 cells; none is attempted
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(np, "linspace", fail)
    text = MINIMAL.replace("n_cells = 8", "n_cells = 1000000000000")
    code, err = _main_fails_once("check", text, tmp_path, capsys)
    assert code == 4
    assert len(err) == 1 and err[0].startswith("config error: cannot allocate a grid of 1000000000000 cells: ")


def test_main_check_unreachable_rho0_report(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "[scheme]\nc_target = 1e30\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "c0=5.0000000000000000e-1",
        "rho0=unreachable",
        "bound=2.0000000000000000e0",
        "skew_defect=0.0000000000000000e0",
        "nevanlinna=pass",
    ]


def test_main_check_reports_the_first_scanned_rho0(tmp_path, capsys):
    # coercive already at the first scanned weight 2^-10, so no bisection
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[grid]\nn_cells = 8\n[scenario]\nname = sturm_liouville\nq = 1.0\ns1 = 1.0\n"
        "mu_minus = 1.0, 0.5\nmu_plus = 1.0, 0.5\n"
    )
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "rho0=9.7656250000000000e-4"


def test_main_probe_bound_exits_two_when_not_coercive(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[grid]\nn_cells = 8\n[scenario]\nname = dynamic_inertia\n"
        "[scheme]\nrho = 0.0\n[source]\nkind = gaussian\nblock = eta\n"
    )
    assert main(["probe", str(path), "--kind", "bound"]) == 2
    assert capsys.readouterr().out.splitlines() == ["c0<=0"]


def test_main_run_csv_without_energy_or_traces(tmp_path):
    csv = tmp_path / "out.csv"
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"[output]\ncsv = {csv}\nenergy = no\ntraces = none\n")
    assert main(["run", str(path)]) == 0
    rows = csv.read_text().splitlines()
    assert rows[0] == "t"
    assert len(rows) == 102 and not any("," in row for row in rows)


def test_source_on_a_trace_slot_is_the_envelope_there():
    cfg = parse_config(MINIMAL + "[source]\nkind = bump\nblock = tau_plus\n")
    model = cfg.model
    source = cli.build_source(cfg.source, model)
    env = bump_envelope(0.0, 1.0, 1.0)
    for t in (0.0, 0.2, 0.5, 0.77, 1.0):
        expected = np.zeros(model.layout.dim)
        expected[model.layout.offset_of("tau_plus")] = env(t)
        assert source(t).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "text,args,message",
    [
        (MINIMAL.replace("n_cells = 8", "n_cells = 8\nfoo = 1"), (), "[grid]: unknown key 'foo'"),
        (MINIMAL.replace("n_cells = 8", ""), (), "[grid]: n_cells is required"),
        (MINIMAL.replace("name = timoshenko_damped", "c = 0.5"), (), "[scenario]: name is required"),
        (MINIMAL + "kappa1 = foo(x)\n", (), "[scenario] kappa1: cannot evaluate 'foo(x)': name 'foo' is not defined"),
        (
            MINIMAL.replace("timoshenko_damped", "sturm_liouville"),
            ("--levels", "3,5,7"),
            "reference grid must be an even multiple of each level",
        ),
        (
            # the 80-cell reference grid is 5 times level 16, an odd multiple
            MINIMAL.replace("timoshenko_damped", "sturm_liouville"),
            ("--levels", "8,16,20"),
            "reference grid must be an even multiple of each level",
        ),
        # configparser's own messages span lines; the CLI prints one
        (
            MINIMAL.replace("[grid]\n", ""),
            (),
            "malformed config: File contains no section headers. file: '<string>', line: 1 'n_cells = 8\\n'",
        ),
        (
            MINIMAL.replace("n_cells = 8", "n_cells = 8\ngarbage"),
            (),
            "malformed config: Source contains parsing errors: '<string>' [line  3]: 'garbage\\n'",
        ),
    ],
    ids=[
        "grid-unknown-key", "grid-no-n_cells", "scenario-no-name", "undefined-function", "converge-odd-multiple",
        "converge-odd-quotient", "no-section-header", "unparsable-line",
    ],
)
def test_main_config_errors_exit_four(text, args, message, tmp_path, capsys, monkeypatch):
    # every refusal comes before the LU factorisation of a stepping matrix
    monkeypatch.setattr(cli, "factor", lambda *a: pytest.fail("factored before the refusal"))
    command = "converge" if args else "check"
    code, err = _main_fails_once(command, text, tmp_path, capsys, *args)
    assert code == 4
    assert err == [f"config error: {message}"]


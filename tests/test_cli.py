"""Config parsing, report formatting, and the four subcommands.

Subcommands are exercised in-process through main(argv); a subprocess
test at the end confirms the installed entry point wires up the same code
path, another checks the exit codes as a shell sees them, and another
compares the peak memory of two runs in children.
"""

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evobeam
from evobeam import cli, integrate, scenarios
from evobeam.core import SpaceTag, StateLayout, build_grid, bump_envelope, gaussian_envelope, sinusoid_envelope
from evobeam.integrate import factor, factor_stats, run
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
    body = CONSERVATIVE + "\n[output]\ncsv = {csv}\n"
    plain, with_snaps = tmp_path / "plain.ini", tmp_path / "snaps.ini"
    plain.write_text(body.format(csv=tmp_path / "plain.csv"))
    with_snaps.write_text(
        body.format(csv=tmp_path / "snaps.csv") + f"snapshots = {tmp_path / 'snaps.txt'}\nsnapshot_stride = 3\n"
    )
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


def _series_of(config: Path):
    """The series that integrate.run records, kept whole, for the run that
    `evobeam run config` steps and writes as it goes."""
    cfg = parse_config(config.read_text())
    u0 = scenarios.consistent_initial_state(cfg.model, cfg.initial_state, cfg.source_fn(0.0))
    return run(factor(cfg.model, cfg.scheme_params), u0, cfg.source_fn)


@pytest.mark.parametrize("stride", [1, 3])
def test_run_files_match_value_by_value_formatting(tmp_path, stride):
    # the CSV and snapshot files, written row by row and value by value
    # from the series that integrate.run records for the same config
    config = tmp_path / "run.ini"
    csv, snaps = tmp_path / "run.csv", tmp_path / "snaps.txt"
    config.write_text(
        CONSERVATIVE.replace("t_end = 1.0", "t_end = 1.0\nrecord_every = 2")
        + "\n[source]\nkind = sinusoid\nblock = V1\nprofile = sin(3*x)\n"
        + f"\n[output]\ncsv = {csv}\nsnapshots = {snaps}\nsnapshot_stride = {stride}\n"
    )
    assert main(["run", str(config)]) == 0
    ts = _series_of(config)
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


def _whole_files(ts, with_energy: bool, names: list[str], stride: int) -> tuple[bytes, bytes]:
    """The CSV and snapshot bytes of a series, formatted whole."""
    header = ["t"] + (["energy"] if with_energy else []) + [f"trace:{t}" for t in names]
    cols = [ts.times] + ([ts.energy] if with_energy else []) + [ts.traces[t] for t in names]
    rows = [",".join(header)] + [",".join(map(repr, row)) for row in np.column_stack(cols).tolist()]
    layout = ts.layout
    keys = [f"{name},{j}," for name in layout.names for j in range(layout.length_of(name))]
    lines = ["t,block,index,value"] + [
        f"{t!r},{key}{v!r}"
        for t, state in zip(ts.times[::stride].tolist(), ts.snapshots[::stride].tolist())
        for key, v in zip(keys, state)
    ]
    return ("\n".join(rows) + "\n").encode(), ("\n".join(lines) + "\n").encode()


# 21 records, of which stride 3 keeps 7 for the snapshot file (38 values
# each, plus t).  A chunk of 1 or 3 values holds one row, except for the
# one-column CSV, which 3 splits into 7 whole chunks.  8 leaves a partial
# last chunk in the one- and two-column CSVs, 100 in the six-column CSV and
# in the snapshot file.
@pytest.mark.parametrize("chunk", [1, 3, 8, 100])
@pytest.mark.parametrize(
    "energy,traces", [("true", "all"), ("false", "none"), ("true", "none")], ids=["full", "t-only", "energy-only"]
)
def test_run_writers_are_byte_identical_across_chunk_ends(chunk, energy, traces, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_CHUNK_VALUES", chunk)
    config = tmp_path / "run.ini"
    csv, snaps = tmp_path / "run.csv", tmp_path / "snaps.txt"
    config.write_text(
        CONSERVATIVE + "\n[source]\nkind = sinusoid\nblock = V1\n"
        + f"\n[output]\ncsv = {csv}\nsnapshots = {snaps}\nsnapshot_stride = 3\nenergy = {energy}\ntraces = {traces}\n"
    )
    assert main(["run", str(config)]) == 0
    ts = _series_of(config)
    names = list(ts.layout.trace_names()) if traces == "all" else []
    assert (csv.read_bytes(), snaps.read_bytes()) == _whole_files(ts, energy == "true", names, 3)
    assert csv.read_bytes().count(b"\n") == 1 + 21 and snaps.read_bytes().count(b"\n") == 1 + 7 * ts.layout.dim


# 20 steps recording every 3rd: 8 records, of steps 0, 3, ..., 18 and the
# last step, 20, of which the snapshot stride 3 keeps records 0, 3 and 6.
# Record buffers of 1, 2, 3 and 5 records end inside stride groups and at
# their ends, and write chunks of 1 and 5 values cut each buffer's rows.
@pytest.mark.parametrize("buffer_rows", [1, 2, 3, 5])
@pytest.mark.parametrize("chunk", [1, 5])
@pytest.mark.parametrize(
    "energy,traces", [("true", "all"), ("false", "tau1_plus, tau0_minus")], ids=["full", "no-energy-two-traces"]
)
def test_run_streams_the_bytes_of_the_whole_series(buffer_rows, chunk, energy, traces, tmp_path, monkeypatch):
    config = tmp_path / "run.ini"
    csv, snaps = tmp_path / "run.csv", tmp_path / "snaps.txt"
    config.write_text(
        CONSERVATIVE.replace("t_end = 1.0", "t_end = 1.0\nrecord_every = 3")
        + "\n[source]\nkind = sinusoid\nblock = V1\n"
        + f"\n[output]\ncsv = {csv}\nsnapshots = {snaps}\nsnapshot_stride = 3\nenergy = {energy}\ntraces = {traces}\n"
    )
    ts = _series_of(config)
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", buffer_rows * ts.layout.dim + 1)
    monkeypatch.setattr(cli, "_WRITE_CHUNK_VALUES", chunk)
    assert main(["run", str(config)]) == 0
    names = list(ts.layout.trace_names()) if traces == "all" else ["tau1_plus", "tau0_minus"]
    assert (csv.read_bytes(), snaps.read_bytes()) == _whole_files(ts, energy == "true", names, 3)
    assert len(ts) == 8 and snaps.read_bytes().count(b"\n") == 1 + 3 * ts.layout.dim


def test_cmd_converge_validation():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [8, 16])
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [8, 8, 16])
    with pytest.raises(ConfigError):
        cmd_converge(cfg, [1, 8, 16])
    # full_dynamic self-converges; its default data are zero, and so is the error
    fd = parse_config(MINIMAL.replace("timoshenko_damped", "full_dynamic"))
    with pytest.raises(ConfigError, match="the error is 0"):
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
    "kappa1,message",
    [
        ("1/(x - 0.0625)**2", "[scenario] kappa1: '1/(x - 0.0625)**2' is not finite at every sample point"),
        ("(x - 0.0625)**2", "[scenario] kappa1 must be strictly positive everywhere"),
    ],
    ids=["not-finite", "not-positive"],
)
def test_main_converge_names_the_level_whose_build_fails(kappa1, message, tmp_path, capsys):
    # x = 0.0625 is a node at 16 cells but not at 8, so check passes
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"kappa1 = {kappa1}\n")
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert main(["converge", str(path), "--levels", "8,16,32"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: level 16: {message}"]


def test_main_converge_uses_configured_theta(tmp_path, capsys):
    # backward Euler is first order in time, so its slope falls short of 1.9
    path = tmp_path / "euler.ini"
    path.write_text(MINIMAL + "[scheme]\ntheta = 1.0\n")
    assert main(["converge", str(path), "--levels", "8,16,32"]) == 2
    slope = float(capsys.readouterr().out.splitlines()[-1].removeprefix("slope="))
    assert 0.5 < slope < 1.5


@pytest.mark.parametrize(
    ("scenario", "levels", "code", "expected"),
    [
        (
            "timoshenko_damped\nc = 0.5\n",
            "8,16,32",
            0,
            [
                "level=8 error=7.5692463998329074e-2",
                "level=16 error=1.8505392984111982e-2",
                "level=32 error=4.5734512072531305e-3",
                "slope=2.0243972534533445e0",
            ],
        ),
        (
            "dynamic_inertia\n\n[scheme]\ntheta = 0.75\n",
            "8,16,32",
            2,
            [
                "level=8 error=2.4636408631759435e-1",
                "level=16 error=1.3092358954493902e-1",
                "level=32 error=6.7856286450435149e-2",
                "slope=9.3011878966614314e-1",
            ],
        ),
        (
            "sturm_liouville\n\n[initial]\nkind = expr\nV1 = cos(pi*x)\n",
            "8,16,32",
            0,
            [
                "level=8 error=4.9848510738153613e-2",
                "level=16 error=1.3413645458875781e-2",
                "level=32 error=3.4964883350626593e-3",
                "slope=1.9167859032281416e0",
            ],
        ),
        (
            # the 80-cell reference grid is 5 times level 16, an odd ratio
            "sturm_liouville\n\n[initial]\nkind = expr\nV1 = cos(pi*x)\n",
            "8,16,20",
            0,
            [
                "level=8 error=4.9572284634752557e-2",
                "level=16 error=1.3074960841460837e-2",
                "level=20 error=8.4394752214591185e-3",
                "slope=1.9299927066602078e0",
            ],
        ),
        (
            "full_dynamic\n\n[initial]\nkind = expr\neta = cos(pi*x)\n",
            "16,32,64",
            0,
            [
                "level=16 error=1.3548893992443533e-2",
                "level=32 error=3.6476967429635368e-3",
                "level=64 error=9.6992306072313131e-4",
                "slope=1.9020804839478607e0",
            ],
        ),
    ],
    ids=[
        "timoshenko_damped", "dynamic_inertia-theta-0.75", "sturm_liouville", "sturm_liouville-odd-ratio",
        "full_dynamic",
    ],
)
def test_main_converge_golden_text(tmp_path, capsys, scenario, levels, code, expected):
    # the errors, digit for digit, against the manufactured solution or,
    # for a scenario without one, against the run four times finer than the
    # largest level, which each level need only divide
    path = tmp_path / "golden.ini"
    path.write_text(f"[grid]\nn_cells = 8\n\n[scenario]\nname = {scenario}")
    assert main(["converge", str(path), "--levels", levels]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == expected
    assert captured.err == ""


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_restrict_takes_each_block_to_the_coarse_sample_points(m):
    # on a state linear in x, the mean of the fine centers m*j + (m-1)//2 and
    # m*j + m//2 is the coarse center: for an even m the two that straddle
    # it, for an odd m the one at it; nodes inject and traces copy
    spec = scenarios.SCENARIOS["full_dynamic"]
    coarse, fine = (spec.make(build_grid(n), spec.defaults) for n in (4, 4 * m))

    def linear(model):
        lay = model.layout
        return np.concatenate([[7.0] if tag is SpaceTag.TRACE else lay.points_of(name) for name, tag in lay.blocks])

    assert np.allclose(cli._restrict(fine, coarse, linear(fine)), linear(coarse), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "output",
    [
        "snapshots = {snaps}\nsnapshot_stride = 0",
        "snapshots = {snaps}\nsnapshot_stride = two",
        "energy = maybe",
        "traces = tau0_plus, nope",
        "traces = tau0_plus, tau0_plus",
        "snapshots = a\0b",
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


@pytest.mark.parametrize("snapshots", ["same.txt", "./same.txt", "{tmp}/same.txt"], ids=["same", "dot", "absolute"])
def test_main_run_refuses_snapshots_naming_the_csv(snapshots, tmp_path, capsys, monkeypatch):
    # the CSV is written last and would overwrite the snapshots
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"\n[output]\ncsv = same.txt\nsnapshots = {snapshots.format(tmp=tmp_path)}\n")
    assert main(["run", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [output] snapshots: ")
    assert not (tmp_path / "same.txt").exists()


@pytest.mark.parametrize(
    "args",
    [("check",), ("converge", "--levels", "8,16,32"), ("probe", "--kind", "causality", "--a", "0.5")],
    ids=["check", "converge", "probe-causality"],
)
def test_commands_that_write_no_output_accept_snapshots_naming_the_csv(args, tmp_path, capsys, monkeypatch):
    # only run writes the two files, so only run refuses the shared path
    monkeypatch.chdir(tmp_path)
    Path("cfg.ini").write_text(MINIMAL + "\n[output]\ncsv = s.txt\nsnapshots = s.txt\n")
    assert main([args[0], "cfg.ini", *args[1:]]) == 0
    assert capsys.readouterr().err == ""
    assert os.listdir() == ["cfg.ini"]


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
    assert err == ["config error: [initial] state contains non-finite entries"]


@pytest.mark.parametrize(
    "name,keys,message",
    [
        ("timoshenko_damped", "c = -1", "[scenario] boundary coefficients c and I_tilde must be nonnegative"),
        ("timoshenko_damped", "c = 0", "[scenario] trace law must not have both coefficients zero"),
        ("full_dynamic", "mu_plus = -1, 0.5", "[scenario] mu_plus trace law needs nonnegative coefficients"),
        ("full_dynamic", "nu_minus = 0, 0", "[scenario] nu_minus: trace law must not have both coefficients zero"),
        ("sturm_liouville", "s0 = 0\ns1 = 0", "[scenario] potential law needs s0, s1 >= 0 with s0 + s1 > 0"),
        ("sturm_liouville", "mu_minus = 0.5, -1", "[scenario] mu_minus trace law needs nonnegative coefficients"),
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


# one bad value for each builder and each section; every refusal names its section
_FULL_DYNAMIC = MINIMAL.replace("timoshenko_damped", "full_dynamic")


@pytest.mark.parametrize(
    "text,section,message",
    [
        (MINIMAL.replace("n_cells = 8", "n_cells = 1"), "grid", "n_cells must be an integer >= 2, got 1"),
        (MINIMAL + "sigma0 = 0\n", "scenario", "sigma0 must be nonzero"),
        (MINIMAL + "c = 0\n", "scenario", "trace law must not have both coefficients zero"),
        (MINIMAL + "kappa1 = 0*x\n", "scenario", "kappa1 must be strictly positive everywhere"),
        (_FULL_DYNAMIC + "mu_plus = -1, 0.5\n", "scenario", "mu_plus trace law needs nonnegative coefficients"),
        (_FULL_DYNAMIC + "nu_minus = 0, 0\n", "scenario", "nu_minus: trace law must not have both coefficients zero"),
        (MINIMAL + "[scheme]\ntheta = 0.3\n", "scheme", "theta must lie in [1/2, 1]"),
        (MINIMAL + "[source]\nkind = gaussian\nblock = V1\nwidth = 0\n", "source", "gaussian width must be positive"),
        (MINIMAL + "[source]\nkind = bump\nt0 = 0.5\nt1 = 0.5\n", "source", "bump support must have t1 > t0"),
        (MINIMAL + "[initial]\nkind = random\namplitude = 1e308\n", "initial", "state contains non-finite entries"),
        (MINIMAL + "[output]\ntraces = nope\n", "output", "traces: unknown trace 'nope'"),
    ],
    ids=[
        "grid", "sigma0", "beam-law", "kappa1", "mu_plus-sign", "nu_minus-zero", "scheme", "gaussian", "bump",
        "initial", "output",
    ],
)
def test_main_check_config_errors_name_their_section(text, section, message, tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert main(["check", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: [{section}] {message}"]


@pytest.mark.parametrize(
    "keys", ["d = 0\n\n[scheme]\nrho = 1e-310", "c = 0\nI_tilde = 1e-310"], ids=["tiny-rho", "tiny-I_tilde"]
)
def test_main_check_overflowing_bound_exits_two(keys, tmp_path, capsys):
    # a coercive law with c0 so small that 1/c0 is not a finite float
    code, err = _main_fails_once("check", MINIMAL + keys + "\n", tmp_path, capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bound 1/c0 overflows for c0=")


@pytest.mark.parametrize("args", [("check",), ("probe", "--kind", "bound")], ids=["check", "probe-bound"])
def test_main_overflowing_law_exits_two(args, tmp_path, capsys):
    # rho*m0 overflows to inf: the refusal is the only line, with no numpy warning before it
    text = MINIMAL + "kappa1 = 2\n\n[scheme]\nrho = 1e308\n"
    code, err = _main_fails_once(args[0], text, tmp_path, capsys, *args[1:])
    assert code == 2
    assert err == ["error: non-finite entries in coercivity operator"]


def test_main_check_rho_scan_that_overflows_is_unreachable(tmp_path, capsys):
    # c0 = 1e-300 at rho = 1, and rho*1e300 overflows at rho = 2^28, long
    # before the scan reaches c_target: the report is whole, with no warning
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "kappa1 = 1e300\nnu1 = 1e-300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert captured.out.splitlines() == [
        f"c0={fmt17(1e-300)}", "rho0=unreachable", f"bound={fmt17(1 / 1e-300)}", f"skew_defect={fmt17(0.0)}",
        "nevanlinna=pass",
    ]


def test_main_probe_overflowing_bound_exits_two(tmp_path, capsys):
    text = MINIMAL + "d = 0\n\n[scheme]\nrho = 1e-310\n\n[source]\nkind = sinusoid\n"
    code, err = _main_fails_once("probe", text, tmp_path, capsys, "--kind", "bound")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: bound 1/c0 overflows for c0=")


@pytest.mark.parametrize(
    "source", ["", "\n[source]\nkind = bump\nt0 = 0.0\nt1 = 1e-300\n"], ids=["default-zero", "bump-too-short"]
)
def test_main_probe_bound_names_the_source_section(source, tmp_path, capsys):
    code, err = _main_fails_once("probe", MINIMAL + source, tmp_path, capsys, "--kind", "bound")
    assert code == 4
    assert err == ["config error: [source] bound probe needs a nonzero source on the window"]


def test_main_probe_bound_starts_from_the_rest_state_consistent_with_the_source(tmp_path, capsys):
    # the source is 1 at t = 0 on the dashpot trace tau_plus, an algebraic
    # slot (no inertia); a start from zeros would be inconsistent there and
    # read 3.10 against the limit 2
    path = tmp_path / "cfg.ini"
    path.write_text(
        MINIMAL.replace("n_cells = 8", "n_cells = 16")
        + "c = 0.5\n\n[source]\nkind = gaussian\nblock = tau_plus\ncenter = 0.0\nwidth = 0.3\n"
    )
    assert main(["probe", str(path), "--kind", "bound"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ratio=9.2090447753818983e-1", "limit=2.0000000000000000e0"]
    assert captured.err == ""


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
        ("kind = gaussian\nwidth = 0", "[source] gaussian width must be positive"),
        ("kind = bump\nt0 = 0.5\nt1 = 0.5", "[source] bump support must have t1 > t0"),
        ("kind = sinusoid\nfrequency = abc", "[source] frequency: expected a number, got 'abc'"),
        ("kind = gaussian\nblock = nope", "[source] block: unknown block 'nope'"),
        ("kind = zero\namplitude = banana\nfrequency = nope", "[source] amplitude: not read by kind = zero"),
        ("kind = zero\nblock = eta", "[source] block: not read by kind = zero"),
        ("kind = gaussian\nfrequency = 2.0", "[source] frequency: not read by kind = gaussian"),
        ("kind = bump\ncenter = 0.5", "[source] center: not read by kind = bump"),
        (
            # 2 * 1e308 is not a float: refused before a step, with no numpy warning
            "kind = sinusoid\nprofile = 2.0\namplitude = 1e308",
            "[source] amplitude: amplitude * profile is not finite at every sample point",
        ),
    ],
    ids=[
        "unknown-kind", "gaussian-width", "bump-support", "sinusoid-frequency", "unknown-block", "zero-amplitude",
        "zero-block", "gaussian-frequency", "bump-center", "overflowing-amplitude",
    ],
)
def test_main_rejects_bad_source(source, message, tmp_path, capsys):
    code, err = _main_fails_once("run", MINIMAL + f"\n[source]\n{source}\n", tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {message}"]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "extra,message",
    [
        (
            "[source]\nkind = gaussian\nblock = tau_plus\nprofile = nonsense(\n",
            "[source] profile: not read for the trace block 'tau_plus'",
        ),
        ("[initial]\nkind = zero\nseed = 1\n", "[initial] seed: not read by kind = zero"),
        ("[initial]\nkind = expr\nseed = 1\neta = x\n", "[initial] seed: not read by kind = expr"),
        ("[initial]\nkind = zero\namplitude = 2.0\n", "[initial] amplitude: not read by kind = zero"),
        ("[output]\nsnapshot_stride = 0\n", "[output] snapshot_stride: not read without snapshots"),
    ],
    ids=["source-profile-of-a-trace", "zero-seed", "expr-seed", "zero-amplitude", "stride-without-snapshots"],
)
def test_main_refuses_keys_that_nothing_reads(command, extra, message, tmp_path, capsys, monkeypatch):
    # refused, not ignored; the working directory is where a default csv would go
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "\n" + extra)
    assert main([command, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("snapshots", [False, True], ids=["csv", "csv-and-snapshots"])
def test_main_run_unwritable_csv_exits_three_before_the_source_is_called(snapshots, tmp_path, capsys, monkeypatch):
    # the files are opened before the first step, the snapshot file first;
    # it is removed again when the CSV cannot be opened
    monkeypatch.setattr(cli, "build_source", lambda s, model: lambda t: pytest.fail("the source was called"))
    snaps = tmp_path / "s.txt"
    path = tmp_path / "cfg.ini"
    path.write_text(
        MINIMAL + f"\n[output]\ncsv = {tmp_path / 'missing' / 'out.csv'}\n" + (f"snapshots = {snaps}\n" if snapshots else "")
    )
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert os.listdir(tmp_path) == ["cfg.ini"]


class _SourceError(Exception):
    pass


def _failing_source(error):
    """A source of the beam's dimension that raises error, or returns inf
    when error is None, from t = 0.5 on."""

    def source(t):
        if t < 0.5:
            return np.full(32, 0.1)
        if error is None:
            return np.full(32, np.inf)
        raise error

    return source


@pytest.mark.parametrize(
    "error,code", [(None, 2), (_SourceError("from t = 0.5"), None)], ids=["state-not-finite", "source-raises"]
)
def test_main_run_that_fails_midway_removes_its_regular_files(error, code, tmp_path, capsys, monkeypatch):
    # 100 steps in record buffers of 4: about 50 records are written before
    # the fault; the CSV and snapshot file go, a link among the outputs stays
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", 4 * 32 + 1)
    monkeypatch.setattr(cli, "build_source", lambda s, model: _failing_source(error))
    csv, snaps, link = tmp_path / "out.csv", tmp_path / "s.txt", tmp_path / "link"
    link.symlink_to(os.devnull)
    for outputs in (f"csv = {csv}\nsnapshots = {snaps}\n", f"csv = {link}\nsnapshots = {snaps}\n"):
        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL + f"\n[output]\n{outputs}")
        if code is None:
            with pytest.raises(_SourceError):
                main(["run", str(path)])
        else:
            assert main(["run", str(path)]) == code
            assert capsys.readouterr().err.splitlines() == ["error: time step produced non-finite state"]
        assert sorted(os.listdir(tmp_path)) == ["cfg.ini", "link"] and link.is_symlink()


def test_cmd_run_memory_does_not_grow_with_the_run(tmp_path, monkeypatch):
    # 1,000 and 10,000 steps of the beam, each recorded, with a snapshot
    # file of every record: records kept whole would add 2.5 MB (9,000
    # records of 35 floats), while the records of both runs fill whole
    # buffers of 64 records, so the longer run holds no more than the
    # shorter one
    monkeypatch.setattr(integrate, "_CHUNK_FLOATS", 64 * 32)

    def peak(t_end):
        cfg = _cfg_with_output(
            MINIMAL + f"[scheme]\ndt = 0.0001\nt_end = {t_end}\n", tmp_path,
            csv=str(tmp_path / "out.csv"), snapshots=str(tmp_path / "s.txt"),
        )
        tracemalloc.start()
        try:
            assert cmd_run(cfg) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.001")  # the first run loads and caches what every run uses
    short, long = peak("0.1"), peak("1.0")
    assert (tmp_path / "s.txt").read_bytes().count(b"\n") == 1 + 10_001 * 32
    assert long - short <= 16 << 10


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


def _python_child(code):
    """Run python -c code with the package of this process; its stdout."""
    src = str(Path(evobeam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module,frozen", [("evobeam.__main__", True), ("evobeam.cli", False)])
def test_only_the_process_entry_freezes_the_imported_modules(module, frozen):
    # the entry freezes what its imports leave tracked; a library import
    # leaves the collector as it found it
    code = f"import gc, {module}; print(gc.isenabled(), gc.get_freeze_count())"
    enabled, count = _python_child(code).split()
    assert enabled == "True"
    assert int(count) > 10_000 if frozen else int(count) == 0


def _entry_deferred():
    """The entry's tuple of deferred numpy submodules, read from its source:
    importing the entry here would defer them in this process."""
    tree = ast.parse(Path(evobeam.__file__).with_name("__main__.py").read_text())
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["DEFERRED"]
    )
    return ast.literal_eval(value)


@pytest.mark.parametrize("module,deferred", [("evobeam.__main__", True), ("evobeam.cli", False)])
def test_only_the_process_entry_defers_the_unread_numpy_modules(module, deferred):
    # scipy's array-API shim reads every public attribute of numpy; the entry
    # makes the submodules that no command reads load on first use, and a
    # library import installs no such module. A deferred module still works
    # in full once read.
    names = _entry_deferred()
    assert {"testing", "f2py", "ma"} <= set(names)
    code = f"""\
import sys, types, {module}
import numpy
print(*(n for n in {names!r} if type(sys.modules.get("numpy." + n)) not in (type(None), types.ModuleType)))
print(*(n for n in ("numpy.testing._private.utils", "numpy.f2py.crackfortran", "numpy.ma.core") if n in sys.modules))
numpy.testing.assert_array_equal(numpy.arange(3), [0, 1, 2])
try:
    numpy.testing.assert_array_equal(numpy.arange(3), [0, 1, 3])
except AssertionError:
    print("raises")
print(numpy.f2py.__name__, numpy.ma.masked_array([1, 2], mask=[0, 1]).sum())
"""
    lazy, loaded, raises, read = _python_child(code).splitlines()
    if deferred:
        assert (lazy, loaded) == (" ".join(names), "")
    else:
        assert lazy == ""
    assert (raises, read) == ("raises", "numpy.f2py 1")


def test_no_command_loads_a_deferred_module(tmp_path):
    # the default beam has an algebraic slot (I_tilde = 0), so run, converge
    # and the bound probe also solve for a consistent initial state
    path = tmp_path / "cfg.ini"
    path.write_text(
        MINIMAL
        + "[scheme]\ndt = 0.05\nt_end = 0.5\n\n"
        + "[source]\nkind = gaussian\nblock = V1\ncenter = 0.1\nwidth = 0.05\n\n"
        + f"[output]\ncsv = {tmp_path / 'out.csv'}\n"
    )
    commands = [["check"], ["run"], ["converge", "--levels", "8,16,32"], ["probe", "--kind", "bound"]]
    code = f"""\
import contextlib, io, sys
import evobeam.__main__ as entry
with contextlib.redirect_stdout(io.StringIO()):
    codes = [entry.main([c[0], {str(path)!r}, *c[1:]]) for c in {commands!r}]
print(*codes)
print(*(n for n in ("numpy.ma.core", "numpy.polynomial.polynomial") if n in sys.modules))
import numpy
print(numpy.ma.masked_array([1, 2], mask=[0, 1]).sum(), "numpy.ma.core" in sys.modules)
"""
    codes, loaded, read = _python_child(code).splitlines()
    assert (codes, loaded) == ("0 0 0 0", "")
    assert read == "1 True"


def test_the_process_entry_replaces_no_loaded_module_and_skips_a_missing_one():
    code = """\
import sys, types
import numpy.testing as loaded
import evobeam.__main__ as entry
import numpy
print(sys.modules["numpy.testing"] is loaded, numpy.testing is loaded, type(loaded) is types.ModuleType)
entry._defer(numpy, "no_such_module")
print("numpy.no_such_module" in sys.modules, hasattr(numpy, "no_such_module"))
"""
    assert _python_child(code).splitlines() == ["True True True", "False False"]


def _child(argv, cwd, closed_stdout=False, unbuffered=False, flags=()):
    """Run python *flags -m evobeam argv in cwd with the package of this
    process; stdout is discarded, or a pipe whose read end is already closed."""
    src = str(Path(evobeam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    stdout = subprocess.DEVNULL
    if closed_stdout:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        argv = [sys.executable, *flags, "-m", "evobeam", *argv]
        return subprocess.run(argv, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        if closed_stdout:
            os.close(stdout)


def test_the_process_entry_runs_warning_free(tmp_path):
    # the suite makes every warning an error in this process only; the
    # entry, with its deferred modules and frozen collector, runs in a child
    (tmp_path / "cfg.ini").write_text(
        MINIMAL + "[scheme]\ndt = 0.25\n[source]\nkind = gaussian\nblock = eta\n"
        + f"[output]\ncsv = {tmp_path / 'out.csv'}\n"
    )
    commands = [
        ("check",),
        ("run",),
        ("converge", "--levels", "4,8,16"),
        ("probe", "--kind", "bound"),
        ("probe", "--kind", "causality", "--a", "0.5"),
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda c: _child([c[0], "cfg.ini", *c[1:]], tmp_path, flags=("-W", "error")), commands))
    for command, proc in zip(commands, procs):
        assert (proc.returncode, proc.stderr) == (0, ""), command


def test_exit_codes_of_a_child_process(tmp_path):
    # what a shell sees, shutdown included: in-process calls of main cannot
    # see a failed flush of stdout at exit (exit code 120)
    configs = {
        "pass.cfg": MINIMAL,
        "not-coercive.cfg": MINIMAL + "[scheme]\nrho = 0.0\n",
        "bad-law.cfg": MINIMAL + "sigma0 = 0\n",
        "to-stdout.cfg": MINIMAL + "[scheme]\ndt = 0.25\n[output]\ncsv = /dev/stdout\n",
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    codes = {
        ("check", "pass.cfg"): 0,
        ("check", "not-coercive.cfg"): 2,
        ("check", "missing.cfg"): 3,
        ("check", "bad-law.cfg"): 4,
    }
    # each exits 3 on a closed stdout, buffered or not
    closed = [
        ("check", "pass.cfg", "--stats", "check.json"),
        ("run", "to-stdout.cfg", "--stats", "run.json"),
        ("converge", "pass.cfg", "--levels", "4,8,16", "--stats", "converge.json"),
        ("probe", "pass.cfg", "--kind", "causality", "--a", "0.5", "--stats", "probe.json"),
    ]
    jobs = [(argv, False, False) for argv in codes] + [(argv, True, unbuf) for argv in closed for unbuf in (False, True)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda job: _child(job[0], tmp_path, *job[1:]), jobs))
    for (argv, closed_stdout, unbuffered), proc in zip(jobs, procs):
        case = (argv, closed_stdout, unbuffered, proc.stderr)
        assert proc.returncode == (3 if closed_stdout else codes[argv]), case
        assert len(proc.stderr.splitlines()) <= 1 and "Traceback" not in proc.stderr, case
        if closed_stdout:
            # the report was lost, so the command wrote no record
            assert proc.stderr.startswith("i/o error: "), case
            assert not (tmp_path / argv[argv.index("--stats") + 1]).exists(), case


def test_a_lost_report_keeps_a_stats_path_that_is_no_regular_file(tmp_path):
    # the record is removed with the lost report only where it is a regular
    # file; a link to the null device stays
    (tmp_path / "pass.cfg").write_text(MINIMAL)
    (tmp_path / "link").symlink_to(os.devnull)
    proc = _child(["check", "pass.cfg", "--stats", "link"], tmp_path, closed_stdout=True)
    assert proc.returncode == 3 and proc.stderr.startswith("i/o error: "), proc.stderr
    assert (tmp_path / "link").is_symlink() and os.path.samefile(tmp_path / "link", os.devnull)


def _peak_rss_mb(argv: list[str], env: dict[str, str]) -> float:
    """Run a child and return its own peak resident set size in MB."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss / 1024.0  # kB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in kB on Linux only")
def test_run_output_memory_does_not_grow_with_the_records(tmp_path):
    # 5,001 and 51 records of a 134-value state, each with a snapshot file:
    # records kept whole would differ by 5.4 MB and text held whole by
    # about 120 MB; the CLI keeps neither
    src = str(Path(evobeam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    peaks = []
    for t_end in ("0.5", "0.005"):
        path = tmp_path / f"{t_end}.ini"
        path.write_text(
            "[grid]\nn_cells = 32\n\n[scenario]\nname = full_dynamic\n\n"
            f"[scheme]\ndt = 0.0001\nt_end = {t_end}\n\n"
            "[source]\nkind = sinusoid\nblock = V1\nfrequency = 2.0\n\n"
            "[initial]\nkind = random\namplitude = 0.1\nseed = 1\n\n"
            f"[output]\ncsv = {tmp_path / t_end}.csv\nsnapshots = {tmp_path / t_end}.txt\n"
        )
        peaks.append(_peak_rss_mb([sys.executable, "-m", "evobeam", "run", str(path)], env))
    assert (tmp_path / "0.5.txt").read_bytes().count(b"\n") == 1 + 5001 * 134
    assert peaks[0] - peaks[1] < 20.0


@pytest.mark.parametrize(
    "extra,where,expr,call",
    [
        ("nu1 = 1 + 0*sin(x, x)\n", "[scenario] nu1", "1 + 0*sin(x, x)", "sin(x, x)"),
        ("\n[source]\nkind = gaussian\nprofile = abs(1, x)\n", "[source] profile", "abs(1, x)", "abs(1, x)"),
        ("\n[initial]\nkind = expr\neta = exp(x, x)\n", "[initial] eta", "exp(x, x)", "exp(x, x)"),
    ],
    ids=["coefficient", "source-profile", "initial-block"],
)
def test_main_refuses_a_call_with_two_arguments(extra, where, expr, call, tmp_path, capsys):
    # a numpy ufunc's second positional argument is its output: here the grid's own points
    code, err = _main_fails_once("check", MINIMAL + extra, tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: {where}: cannot evaluate {expr!r}: unsupported syntax {call!r}"]


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


@pytest.mark.parametrize(
    "argv",
    [["check"], ["run"], ["converge", "--levels", "8,16,32"], ["probe", "--kind", "bound"],
     ["probe", "--kind", "causality", "--a", "0.5"]],
    ids=["check", "run", "converge", "probe-bound", "probe-causality"],
)
def test_main_runs_a_record_every_not_dividing_the_steps(argv, tmp_path, monkeypatch, capsys):
    # 10 steps recorded every 3rd: steps 0, 3, 6, 9 and the last step, 10
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "every.ini"
    path.write_text(MINIMAL + "[scheme]\ndt = 0.1\nt_end = 1.0\nrecord_every = 3\n\n[source]\nkind = gaussian\n")
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "run":
        times = [row.split(",")[0] for row in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert times == [repr(k * 0.1) for k in (0, 3, 6, 9, 10)]


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


def _with_trace_law(model, slot, law):
    """The model with the law of one trace slot written into m0 and M1."""
    k = model.layout.offset_of(slot)
    m0, M1 = model.m0.copy(), model.M1.tolil()
    m0[k], M1[k, k] = law.mu0, law.mu1
    return replace(model, m0=m0, M1=M1.tocsr())


def test_cmd_check_reports_a_failing_trace_law():
    # every maker refuses a negative mu0, so the law is swapped in afterwards;
    # at rho = 1 its diagonal entry is the default law's -0.1 + 0.6 = 0 + 0.5,
    # so only the verdict changes
    cfg = parse_config(MINIMAL)
    model = _with_trace_law(cfg.model, "tau_plus", NevanlinnaSpec(-0.1, 0.6))
    lines, code = cmd_check(replace(cfg, model=model))
    assert code == 2
    assert lines == cmd_check(cfg)[0][:-1] + ["nevanlinna=fail"]


def _beam_with_negative_trace_inertia(grid, params):
    # the beam's tau_plus law is (I_tilde, c) = (0, 0.5); m0 there says -0.1
    beam = scenarios.make_timoshenko_damped(grid, params)
    return _with_trace_law(beam, "tau_plus", NevanlinnaSpec(-0.1, 0.5))


def _unbound_trace_slot(grid, params):
    # a trace slot that no pair binds carries its law on the diagonals only
    layout = StateLayout(
        grid,
        (("V1", SpaceTag.NODE_ALL), ("eta", SpaceTag.CENTER), ("tau_minus", SpaceTag.TRACE),
         ("tau_plus", SpaceTag.TRACE), ("tau_free", SpaceTag.TRACE)),
    )
    laws = {"tau_minus": params.mu_minus, "tau_plus": params.mu_plus, "tau_free": NevanlinnaSpec(-0.1, 1.0)}
    pairs = [("V1", ("eta", "tau_minus", "tau_plus"))]
    return scenarios._assemble(layout, {"V1": 1.0, "eta": 1.0}, {}, laws, pairs)


@pytest.mark.parametrize(
    "name,make,c0",
    [
        ("timoshenko_damped", _beam_with_negative_trace_inertia, "4.0000000000000002e-1"),
        ("full_dynamic", _unbound_trace_slot, "9.0000000000000002e-1"),
    ],
    ids=["beam-m0", "unbound-slot"],
)
def test_main_check_reads_the_law_of_every_trace_slot(name, make, c0, tmp_path, capsys, monkeypatch):
    # the verdict reads each trace slot's entries of m0 and diag(M1), so a
    # coercive model with a negative trace inertia fails it
    monkeypatch.setitem(scenarios.SCENARIOS, name, replace(scenarios.SCENARIOS[name], make=make))
    path = tmp_path / "cfg.ini"
    path.write_text(f"[grid]\nn_cells = 8\n[scenario]\nname = {name}\n")
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert out[0] == f"c0={c0}" and out[-1] == "nevanlinna=fail"


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
        (MINIMAL, ("--kind", "bound", "--a", "0.5"), 4, [], ["config error: bound probe takes no --a"]),
    ],
    ids=[
        "causality-without-a", "causality-a-at-0", "causality-a-past-t_end", "bound-not-coercive", "bound-rho-0",
        "bound-with-a",
    ],
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
    assert err == [f"config error: [scheme] t_end / dt must be finite, got 1.0 / {dt}"]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize(
    "scheme,message",
    [
        ("theta = 2", "theta must lie in [1/2, 1]"),
        ("dt = 0.3\nt_end = 1.0", "t_end = 1.0 is not a whole number of steps of dt = 0.3"),
    ],
    ids=["theta", "whole-step"],
)
def test_main_names_the_scheme_section_of_a_scheme_refusal(command, scheme, message, tmp_path, capsys):
    code, err = _main_fails_once(command, MINIMAL + f"[scheme]\n{scheme}\n", tmp_path, capsys)
    assert code == 4
    assert err == [f"config error: [scheme] {message}"]


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
    assert len(err) == 1 and err[0].startswith("config error: [grid] cannot allocate a grid of 1000000000000 cells: ")


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
        # the first unknown key in file order, as in every other section
        (MINIMAL.replace("n_cells = 8", "n_cells = 8\nzeta = 1\nalpha = 2"), (), "[grid]: unknown key 'zeta'"),
        (MINIMAL.replace("n_cells = 8", ""), (), "[grid]: n_cells is required"),
        (MINIMAL.replace("name = timoshenko_damped", "c = 0.5"), (), "[scenario]: name is required"),
        (MINIMAL + "kappa1 = foo(x)\n", (), "[scenario] kappa1: cannot evaluate 'foo(x)': name 'foo' is not defined"),
        (
            # the 28-cell reference grid is no multiple of 3 or 5
            MINIMAL.replace("timoshenko_damped", "sturm_liouville"),
            ("--levels", "3,5,7"),
            "reference grid must be a multiple of each level",
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
        "grid-unknown-key", "grid-two-unknown-keys", "grid-no-n_cells", "scenario-no-name", "undefined-function",
        "converge-odd-multiple", "no-section-header", "unparsable-line",
    ],
)
def test_main_config_errors_exit_four(text, args, message, tmp_path, capsys, monkeypatch):
    # every refusal comes before the LU factorisation of a stepping matrix
    monkeypatch.setattr(cli, "factor", lambda *a: pytest.fail("factored before the refusal"))
    command = "converge" if args else "check"
    code, err = _main_fails_once(command, text, tmp_path, capsys, *args)
    assert code == 4
    assert err == [f"config error: {message}"]


# ---------------------------------------------------------------------------
# the --stats record

STATS_KEYS = [
    "command", "scenario", "n_cells", "dim", "n_steps",
    "parse_s", "check_s", "factor_s", "step_s", "write_s",
    "nnz_lu", "pivot_growth", "c0", "rho0", "skew_defect",
    "max_energy_residual", "final_energy",
]

STATS_CONFIG = MINIMAL + "[scheme]\ndt = 0.25\n[source]\nkind = gaussian\nblock = eta\n"

# each command's arguments and the keys its record fills beside the five
# that describe the config; every other key is null
STATS_CASES = {
    "check": (("check",), {"parse_s", "check_s", "c0", "rho0", "skew_defect"}),
    "run": (
        ("run",),
        {"parse_s", "factor_s", "step_s", "write_s", "nnz_lu", "pivot_growth", "max_energy_residual", "final_energy"},
    ),
    "converge": (("converge", "--levels", "4,8,16"), {"parse_s", "factor_s", "step_s", "nnz_lu", "pivot_growth"}),
    "probe-bound": (
        ("probe", "--kind", "bound"), {"parse_s", "check_s", "factor_s", "step_s", "nnz_lu", "pivot_growth", "c0"}
    ),
    "probe-causality": (
        ("probe", "--kind", "causality", "--a", "0.5"), {"parse_s", "factor_s", "step_s", "nnz_lu", "pivot_growth"}
    ),
}


def _main_in(directory, text, args, stats=None, snapshots=False):
    """Run main on text with its output files in a new directory; return the
    exit code and the parsed record, None when none was written."""
    directory.mkdir()
    path = directory / "cfg.ini"
    output = f"\n[output]\ncsv = {directory / 'out.csv'}\n"
    if snapshots:
        output += f"snapshots = {directory / 'snap.txt'}\n"
    path.write_text(text + output)
    extra = ["--stats", str(directory / stats)] if stats else []
    code = main([args[0], str(path), *args[1:], *extra])
    record = directory / (stats or "no-record")
    return code, json.loads(record.read_text()) if record.exists() else None


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_stats_record_keys(case, tmp_path, capsys):
    args, filled = STATS_CASES[case]
    code, record = _main_in(tmp_path / "a", STATS_CONFIG, args, stats="stats.json")
    assert code == 0
    assert list(record) == STATS_KEYS
    assert {k for k, v in record.items() if v is not None} == filled | set(STATS_KEYS[:5])
    assert record["command"] == args[0] and record["scenario"] == "timoshenko_damped"
    assert (record["n_cells"], record["dim"], record["n_steps"]) == (8, 32, 4)
    assert all(record[k] >= 0.0 for k in STATS_KEYS if k.endswith("_s") and k in filled)
    out = capsys.readouterr().out.splitlines()
    if case == "check":
        assert out[0] == f"c0={fmt17(record['c0'])}" and out[1] == f"rho0={fmt17(record['rho0'])}"
        assert out[3] == f"skew_defect={fmt17(record['skew_defect'])}"
    if case == "run":
        last = (tmp_path / "a" / "out.csv").read_text().splitlines()[-1].split(",")
        assert float(last[1]) == record["final_energy"]
        assert 0.0 <= record["max_energy_residual"] < 1e-15


def test_stats_run_residual_is_null_off_the_midpoint_rule(tmp_path, capsys):
    text = STATS_CONFIG.replace("dt = 0.25", "dt = 0.25\ntheta = 0.75")
    code, record = _main_in(tmp_path / "a", text, ("run",), stats="stats.json")
    assert code == 0
    assert record["max_energy_residual"] is None and record["final_energy"] is not None


def test_stats_factor_numbers_are_those_of_the_lu(tmp_path, capsys):
    code, record = _main_in(tmp_path / "a", STATS_CONFIG, ("run",), stats="stats.json")
    cfg = parse_config(STATS_CONFIG)
    assert code == 0
    assert (record["nnz_lu"], record["pivot_growth"]) == factor_stats(cli.factor(cfg.model, cfg.scheme_params))


_NOT_COERCIVE = "[grid]\nn_cells = 8\n[scenario]\nname = dynamic_inertia\n[scheme]\nrho = 0.0\n"


@pytest.mark.parametrize(
    "text,args",
    [
        (STATS_CONFIG, ("check",)),
        (STATS_CONFIG, ("run",)),
        (STATS_CONFIG, ("converge", "--levels", "4,8,16")),
        (STATS_CONFIG, ("probe", "--kind", "bound")),
        (STATS_CONFIG, ("probe", "--kind", "causality", "--a", "0.5")),
        (_NOT_COERCIVE, ("check",)),
        (_NOT_COERCIVE + "[source]\nkind = gaussian\nblock = eta\n", ("probe", "--kind", "bound")),
        (MINIMAL + "[source]\nkind = sinusoid\nblock = eta\nfrequency = 1e308\n", ("run",)),
        (MINIMAL + "c = -1\n", ("check",)),
    ],
    ids=[
        "check", "run", "converge", "probe-bound", "probe-causality", "check-not-coercive", "probe-not-coercive",
        "run-error", "config-error",
    ],
)
def test_stats_leaves_stdout_stderr_files_and_exit_code_alone(text, args, tmp_path, capsys):
    runs = []
    for name, stats in (("plain", None), ("stats", "stats.json")):
        code, _ = _main_in(tmp_path / name, text, args, stats, snapshots=True)
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.suffix in (".csv", ".txt")}
        runs.append((code, capsys.readouterr(), files))
    (code, out, files), (code_s, out_s, files_s) = runs
    assert (code, out.out, out.err) == (code_s, out_s.out, out_s.err)
    assert files == files_s
    assert ("out.csv" in files) == (args[0] == "run" and code == 0)


# exit 0, or 2 with a report and no error line: a record; any error line
# (exit 2, 3 or 4): none
@pytest.mark.parametrize(
    "text,args,code,written",
    [
        (STATS_CONFIG, ("check",), 0, True),
        (STATS_CONFIG, ("run",), 0, True),
        (_NOT_COERCIVE, ("check",), 2, True),
        (STATS_CONFIG, ("converge", "--levels", "4,8,16"), 0, True),
        (MINIMAL + "[scheme]\ntheta = 1.0\n", ("converge", "--levels", "4,8,16"), 2, True),
        (MINIMAL + "[source]\nkind = sinusoid\nblock = eta\nfrequency = 1e308\n", ("run",), 2, False),
        (MINIMAL + "c = -1\n", ("check",), 4, False),
    ],
    ids=["check-0", "run-0", "check-2", "converge-0", "converge-2", "run-error-2", "config-error-4"],
)
def test_stats_record_is_written_by_a_command_that_reaches_its_report(text, args, code, written, tmp_path, capsys):
    got, record = _main_in(tmp_path / "a", text, args, stats="stats.json")
    err = capsys.readouterr().err
    assert got == code
    assert (record is not None) == written == (err == "")


def test_stats_unwritable_path_exits_three(tmp_path, capsys):
    code, record = _main_in(tmp_path / "a", STATS_CONFIG, ("check",), stats="missing/stats.json")
    captured = capsys.readouterr()
    assert code == 3 and record is None
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ") and len(captured.err.splitlines()) == 1


def test_stats_unreadable_config_exits_three_without_a_record(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert main(["check", str(tmp_path / "missing.ini"), "--stats", str(stats)]) == 3
    assert not stats.exists()


@pytest.mark.parametrize("key", ["csv", "snapshots"])
def test_stats_refuses_the_path_of_a_run_output(key, tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(STATS_CONFIG + f"[output]\ncsv = {tmp_path / 'out.csv'}\nsnapshots = {tmp_path / 'snap.txt'}\n")
    code = main(["run", str(path), "--stats", str(tmp_path / ("out.csv" if key == "csv" else "snap.txt"))])
    assert code == 4
    assert capsys.readouterr().err.startswith("config error: --stats: ")
    assert not (tmp_path / "out.csv").exists()


def _refuses_an_output(output, args, message, tmp_path, capsys, monkeypatch):
    """main on a config c.cfg exits 4 with one stderr line, leaving c.cfg
    unchanged and writing nothing beside it."""
    monkeypatch.chdir(tmp_path)
    text = MINIMAL + "\n[output]\n" + output
    Path("c.cfg").write_text(text)
    assert main([args[0], "c.cfg", *args[1:]]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", [f"config error: {message}"])
    assert Path("c.cfg").read_text() == text
    assert os.listdir() == ["c.cfg"]


@pytest.mark.parametrize(
    "args",
    [("check",), ("run",), ("converge", "--levels", "4,8,16"), ("probe", "--kind", "bound")],
    ids=["check", "run", "converge", "probe"],
)
def test_stats_refuses_the_path_of_the_config(args, tmp_path, capsys, monkeypatch):
    _refuses_an_output(
        "csv = out.csv\n", [*args, "--stats", "./c.cfg"],
        "--stats: './c.cfg' is the same file as the config", tmp_path, capsys, monkeypatch,
    )


@pytest.mark.parametrize(
    "args",
    [("check",), ("run",), ("converge", "--levels", "4,8,16"), ("probe", "--kind", "bound")],
    ids=["check", "run", "converge", "probe"],
)
def test_stats_refuses_an_empty_path_before_parsing(args, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "parse_config", lambda text: pytest.fail("parsed before the refusal"))
    _refuses_an_output(
        "csv = out.csv\n", [*args, "--stats", ""], "--stats: path is empty", tmp_path, capsys, monkeypatch,
    )


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_refuses_an_empty_csv_path_before_stepping(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "factor", lambda *a: pytest.fail("factored before the refusal"))
    monkeypatch.setattr(cli, "coercivity", lambda *a: pytest.fail("checked before the refusal"))
    _refuses_an_output("csv =\n", [command], "[output] csv: path is empty", tmp_path, capsys, monkeypatch)


def test_run_refuses_a_csv_naming_the_config(tmp_path, capsys, monkeypatch):
    _refuses_an_output(
        f"csv = {tmp_path / 'c.cfg'}\n", ["run"],
        f"[output] csv: {str(tmp_path / 'c.cfg')!r} is the same file as the config", tmp_path, capsys, monkeypatch,
    )
    # check writes no CSV, so the same config passes it
    assert main(["check", "c.cfg"]) == 0


def test_run_refuses_snapshots_naming_the_config(tmp_path, capsys, monkeypatch):
    _refuses_an_output(
        "csv = out.csv\nsnapshots = ./c.cfg\n", ["run"],
        "[output] snapshots: './c.cfg' is the same file as the config", tmp_path, capsys, monkeypatch,
    )


def test_main_check_accepts_a_law_above_half_the_float_range(tmp_path, capsys):
    # sym(M1) is the finite diagonal d; its halves are summed, not its terms
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "d = 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[0] == "c0=5.0000000000000000e-1"

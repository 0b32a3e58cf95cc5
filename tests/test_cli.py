import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nlevel_rabi.cli as cli
from nlevel_rabi.cli import (RUN_KEYS, SOLVER_TABLE, SWEEP_KEYS, RunConfig, build_parser,
                              load_config, main, run_solver)
from nlevel_rabi.model import ConfigError, StateVector
from nlevel_rabi.csvtext import slots
from nlevel_rabi.propagate import IntegratorConfig


def write_config(tmp_path, **kw):
    defaults = dict(
        energies="0.0, 1.0, 2.0",
        g="0.1",
        frequencies="resonant",
        solver="exact",
        t_max="10.0",
        samples="5",
        initial="0",
        fmt="csv",
        extra_drive="",
    )
    defaults.update(kw)
    path = tmp_path / "run.ini"
    path.write_text(
        "[levels]\n"
        f"energies = {defaults['energies']}\n"
        "[drive]\n"
        f"g = {defaults['g']}\n"
        f"frequencies = {defaults['frequencies']}\n"
        f"{defaults['extra_drive']}\n"
        "[run]\n"
        f"solver = {defaults['solver']}\n"
        f"t_max = {defaults['t_max']}\n"
        f"samples = {defaults['samples']}\n"
        f"initial = {defaults['initial']}\n"
        f"format = {defaults['fmt']}\n"
    )
    return str(path)


def test_spectrum_prints_eigenvalues(capsys):
    assert main(["spectrum", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "1.4142135623730951" in out
    assert "max eigen residual" in out


def test_spectrum_two_level(capsys):
    assert main(["spectrum", "--n", "2"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert float(lines[0].split()[1]) == pytest.approx(1.0)
    assert float(lines[1].split()[1]) == pytest.approx(-1.0)


def test_evolve_exact_returns_to_ground(tmp_path):
    # populations return to (1,0,0) at t = 2*pi/(3g)
    g = 0.1
    t_max = 2 * np.pi / (3 * g)
    cfg = write_config(tmp_path, t_max=str(t_max), samples="9")
    out = tmp_path / "traj.csv"
    assert main(["evolve", cfg, "--output", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    last = [float(x) for x in rows[-1].split(",")]
    np.testing.assert_allclose(last[-3:], [1.0, 0.0, 0.0], atol=1e-10)


def test_evolve_consistency_violation_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, extra_drive="omega_0_2 = 2.3")
    assert main(["evolve", cfg]) == 3
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "consistency"
    assert record["violations"][0]["pair"] == [0, 2]


def test_epsilon_flag_detunes(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["exact-check", cfg, "--epsilon", "0.2"]) == 3
    assert main(["exact-check", cfg]) == 0


def test_exact_check_and_exact_evolve_share_one_tolerance(tmp_path, capsys):
    # README ladder: max omega = 2, so the consistency tolerance is 1e-9 * 2 = 2e-9
    cfg = write_config(tmp_path, energies="0.0, 1.0, 2.0", t_max="20.0")
    for eps, code in (("1.8e-9", 0), ("2.2e-9", 3)):
        assert main(["exact-check", cfg, "--epsilon", eps]) == code
        assert json.loads(capsys.readouterr().out)["satisfied"] is (code == 0)
        assert main(["evolve", cfg, "--solver", "exact", "--epsilon", eps]) == code
        err = capsys.readouterr().err.strip().splitlines()
        if code:
            assert json.loads(err[-1])["error"] == "consistency"


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[levels]\nenergies = 2.0, 1.0\n[drive]\ng = 0.1\n[run]\nt_max = 1\n")
    assert main(["evolve", str(path)]) == 2
    assert main(["evolve", str(tmp_path / "missing.ini")]) == 2


def test_step_budget_exits_4(tmp_path):
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.0", samples="2")
    assert main(["evolve", cfg, "--step", "1e-5", "--max-steps", "100"]) == 4


def test_numeric_full_runs_with_small_drift(tmp_path):
    cfg = write_config(tmp_path, solver="numeric-full", g="0.05", t_max="20.0", samples="11")
    out = tmp_path / "full.csv"
    assert main(["evolve", cfg, "--output", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    norms = np.sqrt(data[:, -3] + data[:, -2] + data[:, -1])
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_tiny_coupling_keeps_populations_constant(tmp_path):
    cfg = write_config(tmp_path, solver="numeric-rwa", g="1e-9", t_max="5.0", samples="6")
    out = tmp_path / "g0.csv"
    assert main(["evolve", cfg, "--output", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    np.testing.assert_allclose(data[:, -3], 1.0, atol=1e-8)


def test_compare_exact_vs_numeric(tmp_path, capsys):
    cfg = write_config(tmp_path, samples="21")
    report_path = tmp_path / "report.json"
    assert main(["compare", cfg, "--solvers", "exact,numeric-rwa",
                 "--output", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["solvers"] == ["exact", "numeric-rwa"]
    assert "numeric_full_g" not in doc  # two RWA legs: both at the file's g
    assert doc["report"]["max_population_dev"] < 1e-6


def test_compare_solver_with_itself_is_zero(tmp_path):
    cfg = write_config(tmp_path, samples="5")
    report_path = tmp_path / "report.json"
    assert main(["compare", cfg, "--solvers", "exact,exact",
                 "--output", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["report"]["max_amplitude_dev"] == 0.0


def test_json_config_roundtrip(tmp_path):
    cfg_path = write_config(tmp_path, fmt="json", samples="3")
    out = tmp_path / "traj.json"
    assert main(["evolve", cfg_path, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    original = load_config(cfg_path, {"output": str(out)})
    assert RunConfig.from_dict(doc["config"]) == original
    assert "step" not in doc["config"] and "max_steps" not in doc["config"]
    # a flagged RK4 run carries its step and budget, and is rebuilt with them
    flags = {"solver": "numeric-rwa", "step": 5e-4, "max_steps": 200000}
    assert main(["evolve", cfg_path, "--output", str(out), "--solver", "numeric-rwa",
                 "--step", "5e-4", "--max-steps", "200000", "--t-max", "1"]) == 0
    doc = json.loads(out.read_text())
    assert (doc["config"]["step"], doc["config"]["max_steps"]) == (5e-4, 200000)
    flagged = load_config(cfg_path, {"output": str(out), "t_max": "1", **flags})
    assert RunConfig.from_dict(doc["config"]) == flagged
    assert RunConfig.from_dict(doc["config"]).integrator == IntegratorConfig(5e-4, 200000)


def test_csv_output_deterministic(tmp_path):
    cfg = write_config(tmp_path, samples="7")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["evolve", cfg, "--output", str(a)]) == 0
    assert main(["evolve", cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_writes_manifest(tmp_path):
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.05,0.1",
                 "--outdir", str(outdir), "--jobs", "2"]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["runs"]) == 2
    assert manifest["runs"][0]["value"] == 0.05
    for entry in manifest["runs"]:
        assert (outdir / entry["file"]).exists()


def test_dyson1_requires_three_levels(tmp_path):
    cfg = write_config(tmp_path, energies="0.0, 1.0", solver="dyson1", samples="3")
    assert main(["evolve", cfg]) == 2


def test_dyson1_matches_exact_at_weak_coupling(tmp_path):
    cfg_path = write_config(tmp_path, g="0.01", t_max="5.0", samples="11")
    base = load_config(cfg_path)
    from dataclasses import replace

    exact_traj = run_solver(base)
    dyson_traj = run_solver(replace(base, solver="dyson1"))
    assert np.max(np.abs(exact_traj.states - dyson_traj.states)) < 2e-3


def test_explicit_frequencies(tmp_path):
    cfg_path = write_config(
        tmp_path,
        frequencies="explicit",
        extra_drive="omega_0_1 = 1.0\nomega_1_2 = 1.0\nomega_0_2 = 2.0",
    )
    cfg = load_config(cfg_path)
    assert cfg.omega[(0, 2)] == 2.0


def test_initial_amplitude_list(tmp_path):
    cfg_path = write_config(tmp_path, initial="1, 1, 0", solver="numeric-rwa",
                            t_max="1.0", samples="3")
    cfg = load_config(cfg_path)
    np.testing.assert_allclose(
        np.abs(np.asarray(cfg.initial)), [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]
    )


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(
            energies=(0.0, 1.0), g=0.1, omega={(0, 1): 1.0}, solver="bogus",
            t_max=1.0, samples=3, initial=(1.0, 0.0),
        )
    with pytest.raises(ConfigError):
        RunConfig(
            energies=(0.0, 1.0), g=0.1, omega={(0, 1): 1.0}, solver="exact",
            t_max=1.0, samples=1, initial=(1.0, 0.0),
        )
    # initial is checked, never rescaled: amplitudes without unit norm are refused
    for initial in [(1.0, 1.0), (0.5, 0.0), (0.0, 0.0)]:
        with pytest.raises(ConfigError, match="unit norm"):
            RunConfig(energies=(0.0, 1.0), g=0.1, omega={(0, 1): 1.0}, solver="exact",
                      t_max=1.0, samples=3, initial=initial)
    with pytest.raises(ConfigError, match="^initial state must have 3 amplitudes$"):
        RunConfig(energies=(0.0, 1.0, 2.0), g=0.1, omega={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0},
                  solver="exact", t_max=1.0, samples=3, initial=(1.0, 0.0))


@pytest.mark.parametrize("solvers", ["exact,numeric-rwa,dyson1", "exact"])
def test_compare_needs_exactly_two_solvers(tmp_path, capsys, solvers):
    cfg = write_config(tmp_path)
    assert main(["compare", cfg, "--solvers", solvers]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"


def test_compare_honours_step_budget(tmp_path):
    cfg = write_config(tmp_path, t_max="1.0", samples="2")
    assert main(["compare", cfg, "--solvers", "exact,numeric-rwa",
                 "--step", "1e-5", "--max-steps", "100"]) == 4


def test_sweep_honours_step_budget(tmp_path):
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.0", samples="2")
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.05,0.1",
                 "--outdir", str(tmp_path / "sweep"), "--jobs", "1",
                 "--step", "1e-5", "--max-steps", "100"]) == 4


def test_failed_sweep_run_is_recorded_in_the_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.0", samples="2")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "run.t_max", "--values", "1,1e9",
                 "--outdir", str(outdir), "--jobs", "2", "--max-steps", "5000"]) == 4
    ok, failed = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert (ok["status"], ok["error"], ok["file"]) == ("ok", None, "run_000.csv")
    assert (outdir / "run_000.csv").exists()
    assert (failed["index"], failed["value"], failed["status"]) == (1, 1e9, "numeric")
    assert failed["error"] == "integration step budget exceeded"
    assert failed["file"] is None and not (outdir / "run_001.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "numeric"


def test_infinite_t_max_exits_2(tmp_path):
    cfg = write_config(tmp_path, t_max="inf")
    assert main(["evolve", cfg]) == 2


@pytest.mark.parametrize("param", ["drive.omega_0_2", "levels.g", "run.g", "drive.t_max",
                                   "run.output", "g"])
def test_sweep_refuses_keys_it_would_ignore(tmp_path, capsys, param):
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", param, "--values", "2.0,2.5",
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    assert not outdir.exists()


@pytest.mark.parametrize("param, values, column", [("run.t_max", "1.0,2.0", 0),
                                                   ("run.samples", "3,4", None)])
def test_sweep_honours_run_keys(tmp_path, param, values, column):
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", param, "--values", values,
                 "--outdir", str(outdir), "--jobs", "1"]) == 0
    a, b = (np.loadtxt(outdir / f"run_{k:03d}.csv", delimiter=",", skiprows=1) for k in (0, 1))
    if column is None:
        assert (len(a), len(b)) == (3, 4)
    else:
        assert (a[-1, column], b[-1, column]) == (1.0, 2.0)


def test_run_config_equality_is_field_wise_and_unhashable(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg == RunConfig.from_dict(cfg.to_dict())
    from dataclasses import replace

    assert cfg != replace(cfg, g=0.2)
    assert cfg != replace(cfg, omega={**cfg.omega, (0, 2): 2.5})
    # omega is a dict, so a RunConfig has no hash
    with pytest.raises(TypeError, match="unhashable"):
        hash(cfg)


@pytest.mark.parametrize("solver", ["exact", "dyson1", "dyson2"])
def test_closed_form_runs_have_no_integrator(tmp_path, solver):
    assert load_config(write_config(tmp_path, solver=solver)).integrator is None


# (energies, g, the default RK4 step: 0.1 over the fastest rate, at most 1e-3)
DEFAULT_STEPS = {
    "slow": ("0.0, 1.0, 2.0", "0.1", 1e-3),
    "fast-levels": ("0.0, 300.0, 700.0", "0.1", 0.1 / 700.0),
    "strong-drive": ("0.0, 1.0, 2.0", "2000", 0.1 / 2000.0),
}


@pytest.mark.parametrize("solver", ["numeric-rwa", "numeric-full"])
@pytest.mark.parametrize("energies, g, step", DEFAULT_STEPS.values(), ids=DEFAULT_STEPS.keys())
def test_rk4_runs_resolve_their_integrator_once(tmp_path, solver, energies, g, step):
    cfg = write_config(tmp_path, solver=solver, energies=energies, g=g)
    assert load_config(cfg).integrator == IntegratorConfig(step, 10_000_000)
    args = build_parser().parse_args(["evolve", cfg, "--step", "5e-4", "--max-steps", "1234"])
    flagged = load_config(cfg, cli._flag_overrides(args))
    assert (flagged.step, flagged.max_steps) == (5e-4, 1234)
    assert flagged.integrator == IntegratorConfig(5e-4, 1234)
    only_budget = load_config(cfg, {"max_steps": 99})
    assert only_budget.integrator == IntegratorConfig(step, 99)


def test_replacing_the_solver_resolves_the_integrator_again(tmp_path):
    cfg = load_config(write_config(tmp_path, solver="numeric-rwa"), {"step": 2e-4})
    exact = replace(cfg, solver="exact")
    assert exact.integrator is None
    assert replace(exact, solver="numeric-full").integrator == IntegratorConfig(2e-4, 10_000_000)
    # the settings are refused when a run would use them, not before
    bad = replace(exact, step=0.0)
    with pytest.raises(ConfigError, match="step must be positive"):
        replace(bad, solver="numeric-rwa")


# two values per sweepable key: text as given to --values, and the values the manifest records
SWEEP_CASES = {
    "drive.g": ("0.05,0.1", [0.05, 0.1]),
    "run.t_max": ("1.0 2.0", [1.0, 2.0]),
    "run.samples": ("3,4", [3, 4]),
    "run.initial": ("0,1", [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]),
    "run.solver": ("exact,numeric-rwa", ["exact", "numeric-rwa"]),
    "run.format": ("csv,json", ["csv", "json"]),
}


@pytest.mark.parametrize("param", SWEEP_KEYS)
def test_every_sweep_key_takes_valid_values(tmp_path, param):
    values, recorded = SWEEP_CASES[param]
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", param, "--values", values,
                 "--outdir", str(outdir), "--jobs", "2"]) == 0
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert json.dumps([r["value"] for r in runs]) == json.dumps(recorded)
    for r in runs:
        assert (outdir / r["file"]).exists()
    if param == "run.format":
        assert [r["file"] for r in runs] == ["run_000.csv", "run_001.json"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "drive.g", "--values", "0.1,abc", "--outdir", "{out}"],
    ["evolve", "--g", "abc"],
    ["evolve", "--samples", "2.5"],
    ["evolve", "--solver", "foo"],
    ["evolve", "--format", "xml"],
    ["evolve", "--initial", "abc"],
    ["evolve", "--solver", "numeric-rwa", "--step", "0"],
], ids=["sweep-values", "g", "samples", "solver", "format", "initial", "step"])
def test_bad_flag_or_sweep_value_exits_2_with_one_json_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    outdir = tmp_path / "sweep"
    argv = [argv[0], cfg] + [a.replace("{out}", str(outdir)) for a in argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    assert not outdir.exists()


def test_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path):
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path, g="0.1", fmt="json")
    flagged, plain = tmp_path / "flagged.json", tmp_path / "plain.json"
    assert main(["evolve", cfg, "--g", "0.25", "--output", str(flagged)]) == 0
    assert main(["evolve", cfg, "--output", str(plain)]) == 0
    assert json.loads(flagged.read_text())["config"]["g"] == 0.25
    assert json.loads(plain.read_text())["config"]["g"] == 0.1


def test_run_key_table_matches_the_flags(capsys):
    assert set(RUN_KEYS) <= set(vars(build_parser().parse_args(["evolve", "run.ini"])))
    with pytest.raises(SystemExit):
        main(["evolve", "--help"])
    help_text = capsys.readouterr().out
    for solver in SOLVER_TABLE:
        assert solver in help_text


NO_DRIVE = "[levels]\nenergies = 0.0, 1.0, 2.0\n[run]\nsolver = exact\nt_max = 2.0\n"
SWEEP = ["sweep", "{cfg}", "--param", "drive.g", "--values", "0.05,0.1", "--outdir", "{out}"]

# id -> (argv with {cfg} and {out} placeholders, write_config keywords or raw INI text)
REFUSED = {
    "unknown-flag": (["evolve", "{cfg}", "--bogus"], {}),
    "step-not-a-number": (["evolve", "{cfg}", "--solver", "numeric-rwa", "--step", "abc"], {}),
    "epsilon-not-a-number": (["exact-check", "{cfg}", "--epsilon", "abc"], {}),
    "jobs-not-a-number": (SWEEP + ["--jobs", "x"], {}),
    "missing-param": (["sweep", "{cfg}", "--values", "0.1", "--outdir", "{out}"], {}),
    "no-subcommand": ([], {}),
    "spectrum-n-abc": (["spectrum", "--n", "abc"], {}),
    # every (command, flag) pair the command does not read
    "evolve-o": (["evolve", "{cfg}", "-o", "x.csv"], {}),
    **{f"exact-check{flag}": (["exact-check", "{cfg}", flag, value], {})
       for flag, value in [("--solver", "exact"), ("--g", "0.2"), ("--t-max", "1.0"),
                           ("--samples", "3"), ("--initial", "1"), ("--output", "{out}"),
                           ("-o", "{out}"), ("--format", "json"), ("--step", "1e-3"),
                           ("--max-steps", "10")]},
    "compare--solver": (["compare", "{cfg}", "--solvers", "exact,exact", "--solver", "dyson1"],
                        {}),
    "compare--format": (["compare", "{cfg}", "--solvers", "exact,exact", "--format", "json"], {}),
    "compare-o": (["compare", "{cfg}", "--solvers", "exact,exact", "-o", "{out}"], {}),
    "compare-abbreviated-solvers": (["compare", "{cfg}", "--solver", "exact,exact"], {}),
    "sweep--output": (SWEEP + ["--output", "x.csv"], {}),
    "sweep-o": (SWEEP + ["-o", "x.csv"], {}),
    # frequency keys a resonant file cannot use, and a file with no [drive]
    "resonant-omega_0_1": (["evolve", "{cfg}"], {"extra_drive": "omega_0_1 = 1.7"}),
    "resonant-omega_2_0": (["evolve", "{cfg}"], {"extra_drive": "omega_2_0 = 9.0"}),
    "epsilon-omega_2_0": (["evolve", "{cfg}", "--epsilon", "0.1"],
                          {"extra_drive": "omega_2_0 = 9.0"}),
    "no-drive-section": (["evolve", "{cfg}", "--g", "0.1"], NO_DRIVE),
    # pair keys that do not name two level indices, and one pair under two spellings
    "pair-key-not-an-index": (["evolve", "{cfg}"], {"extra_drive": "omega_0_x = 2.0"}),
    "pair-key-three-indices": (["evolve", "{cfg}"], {"extra_drive": "omega_0_2_3 = 2.0"}),
    "pair-key-two-spellings": (["evolve", "{cfg}"],
                               {"extra_drive": "omega_0_2 = 2.0\nomega_00_2 = 2.5"}),
    # --step/--max-steps with no RK4 run
    "evolve-exact-step": (["evolve", "{cfg}", "--solver", "exact", "--step", "-5",
                           "--max-steps", "0"], {}),
    "evolve-dyson2-max-steps": (["evolve", "{cfg}", "--solver", "dyson2", "--max-steps", "10"],
                                {}),
    "compare-closed-form-step": (["compare", "{cfg}", "--solvers", "exact,dyson1",
                                  "--step", "1e-3"], {}),
    "sweep-exact-step": (SWEEP + ["--step", "1e-3"], {}),
    "sweep-jobs-0": (SWEEP + ["--jobs", "0"], {}),
    "sweep-step-0": (SWEEP + ["--solver", "numeric-rwa", "--step", "0"], {}),
    # a non-finite step would take one RK4 step per grid interval
    "evolve-step-inf": (["evolve", "{cfg}", "--solver", "numeric-rwa", "--step", "inf"], {}),
    "sweep-step-inf": (SWEEP + ["--solver", "numeric-rwa", "--step", "inf"], {}),
    "dyson2-detuned-adjacent": (["evolve", "{cfg}", "--solver", "dyson2"], {
        "frequencies": "explicit", "g": "0.05", "t_max": "10.0",
        "extra_drive": "omega_0_1 = 1.3\nomega_1_2 = 1.0\nomega_0_2 = 2.3"}),
    "spectrum-n-1": (["spectrum", "--n", "1"], {}),
    # output paths that cannot be written, refused before any solve
    "evolve-output-missing-dir": (["evolve", "{cfg}", "--output", "{out}/x.csv"], {}),
    "compare-output-missing-dir": (["compare", "{cfg}", "--solvers", "exact,numeric-rwa",
                                    "--output", "{out}/r.json"], {}),
    "sweep-outdir-is-a-file": (SWEEP[:-1] + ["{cfg}"], {}),
    "sweep-outdir-empty": (SWEEP[:-1] + [""], {}),
    # initial states that do not fit the run, and a ground-state-only solver from level 1
    "initial-index-out-of-range": (["evolve", "{cfg}", "--initial", "7"], {}),
    "initial-list-too-short": (["evolve", "{cfg}", "--initial", "1, 0"], {}),
    "dyson1-not-from-ground": (["evolve", "{cfg}", "--solver", "dyson1", "--initial", "1"], {}),
    # a file without t_max, an unknown frequencies mode, and --epsilon on a 4-level ladder
    "no-t-max": (["evolve", "{cfg}"], "[levels]\nenergies = 0.0, 1.0, 2.0\n[drive]\ng = 0.1\n"
                                      "[run]\nsolver = exact\n"),
    "frequencies-bogus": (["evolve", "{cfg}"], {"frequencies": "bogus"}),
    # the mode is checked before --epsilon or --resonant sets it
    "frequencies-bogus-epsilon": (["evolve", "{cfg}", "--epsilon", "0.1"],
                                  {"frequencies": "bogus"}),
    "frequencies-bogus-resonant": (["evolve", "{cfg}", "--resonant"], {"frequencies": "bogus"}),
    # INI sections and keys that no run reads: a misspelt key, an unknown section, a flag
    # that is no file key, and a key under [DEFAULT]
    "misspelt-run-key": (["evolve", "{cfg}"], {"fmt": "csv\nsmaples = 7"}),
    "misspelt-drive-key": (["evolve", "{cfg}"], {"extra_drive": "frequency = explicit"}),
    "unknown-section": (["evolve", "{cfg}"], {"fmt": "csv\n[runn]"}),
    "run-step-key": (["evolve", "{cfg}", "--solver", "numeric-rwa"], {"fmt": "csv\nstep = 1e-4"}),
    "default-section-key": (["evolve", "{cfg}"], {"fmt": "csv\n[DEFAULT]\ng = 0.2"}),
    "epsilon-n-4": (["evolve", "{cfg}", "--epsilon", "0.1"], {"energies": "0.0, 1.0, 2.0, 3.0"}),
    "output-is-a-directory": (["evolve", "{cfg}", "--output", "."], {}),
    # a flag that sets the swept key, refused before --outdir is made
    **{f"sweep-{param}-flag": (SWEEP[:3] + [param, "--values", values, flag, value] + SWEEP[6:], {})
       for param, values, flag, value in [
           ("drive.g", "0.2,0.3", "--g", "0.5"), ("run.t_max", "1,2", "--t-max", "3"),
           ("run.solver", "exact,dyson1", "--solver", "dyson2"),
           ("run.samples", "3,4", "--samples", "5"), ("run.initial", "0,1", "--initial", "2"),
           ("run.format", "csv,json", "--format", "json")]},
    # a sweep with no values, refused before --outdir is made
    **{f"sweep-values-{name}": (SWEEP[:5] + [values] + SWEEP[6:], {})
       for name, values in [("empty", ""), ("comma", ","), ("space", " ")]},
    # files configparser cannot read: a key or section given twice, a line before any section
    # header, a line with no value, and bytes that are not text
    **{f"unreadable-{name}": (["evolve", "{cfg}"], text) for name, text in [
        ("repeated-key", "[levels]\nenergies = 0.0, 1.0\nenergies = 0.0, 2.0\n"),
        ("repeated-section", "[levels]\nenergies = 0.0, 1.0\n[levels]\n"),
        ("no-section-header", "energies = 0.0, 1.0\n"),
        ("line-without-value", "[levels]\nenergies\n"),
        ("not-text", b"[levels]\nenergies = \xff\n")]},
}


@pytest.mark.parametrize("argv, config", REFUSED.values(), ids=REFUSED.keys())
def test_refused_argv_exits_2_with_one_json_line(tmp_path, capsys, monkeypatch, argv, config):
    cwd = tmp_path / "cwd"  # an empty working directory, where nothing may be written either
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if isinstance(config, (str, bytes)):
        cfg = tmp_path / "run.ini"
        (cfg.write_bytes if isinstance(config, bytes) else cfg.write_text)(config)
    else:
        cfg = write_config(tmp_path, **{"samples": "3", "t_max": "2.0", **config})
    outdir = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=outdir) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "config"
    assert not outdir.exists()
    assert not any(cwd.iterdir())


def test_sweep_refusal_of_a_flag_names_the_flag_and_the_param(tmp_path, capsys):
    cfg = write_config(tmp_path, samples="3", t_max="2.0")
    argv = ["sweep", cfg, "--param", "run.t_max", "--values", "1,2", "--t-max", "3", "--outdir",
            str(tmp_path / "out")]
    assert main(argv) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "--t-max" in message and "'run.t_max'" in message


@pytest.mark.parametrize("extra_drive, named", [
    ("omega_0_x = 2.0", ["omega_0_x"]),
    ("omega_0_2_3 = 2.0", ["omega_0_2_3"]),
    ("omega_ = 2.0", ["omega_"]),
    ("omega_0_2 = 2.0\nomega_00_2 = 2.5", ["omega_0_2", "omega_00_2"]),
    ("omega_0_02 = 2.5\nomega_0_2 = 2.0", ["omega_0_02", "omega_0_2"]),
])
def test_a_bad_or_repeated_pair_key_is_refused_by_name(tmp_path, capsys, extra_drive, named):
    cfg = write_config(tmp_path, frequencies="explicit", extra_drive=extra_drive)
    assert main(["exact-check", str(cfg)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert all(repr(key) in message for key in named), message


def test_config_keys_no_run_reads_are_named_in_one_json_line(tmp_path, capsys):
    cfg = write_config(tmp_path, fmt="json\nsmaples = 7\nfromat = json\n[runn]",
                       extra_drive="frequency = explicit")
    assert main(["evolve", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "config", "message": "config keys that no run reads: "
                               "[runn], [drive] frequency, [run] smaples, [run] fromat"}


@pytest.mark.parametrize("name", ["run_100%.csv", "a%%b.csv"])
def test_a_percent_sign_in_a_config_value_is_an_ordinary_character(tmp_path, name):
    cfg = write_config(tmp_path, fmt=f"csv\noutput = {tmp_path / name}")
    assert main(["evolve", cfg]) == 0
    assert (tmp_path / name).read_text().startswith("t,re_0,")


def test_an_interpolation_spelling_is_refused_naming_its_key(tmp_path, capsys):
    cfg = write_config(tmp_path, t_max="%(samples)s")
    assert main(["evolve", cfg]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": "t_max: could not convert string to float: '%(samples)s'"}


# id -> (argv, write_config keywords, key): a value that does not parse, refused naming its key
UNPARSED = {
    "samples-flag": (["evolve", "{cfg}", "--samples", "abc"], {}, "samples"),
    "initial-flag": (["evolve", "{cfg}", "--initial", "1e400"], {}, "initial"),
    "g-flag": (["evolve", "{cfg}", "--g", "abc"], {}, "g"),
    "t-max-flag": (["evolve", "{cfg}", "--t-max", "x"], {}, "t_max"),
    "energies-key": (["evolve", "{cfg}"], {"energies": "0, x, 2"}, "energies"),
    "omega-key": (["evolve", "{cfg}"], {"extra_drive": "omega_0_2 = abc"}, "omega_0_2"),
    "sweep-value": (SWEEP[:5] + ["0.1,abc"] + SWEEP[6:], {}, "g"),
}


@pytest.mark.parametrize("argv, config, key", UNPARSED.values(), ids=UNPARSED.keys())
def test_a_value_that_does_not_parse_is_refused_naming_its_key(tmp_path, capsys, argv, config,
                                                                key):
    cfg = write_config(tmp_path, **{"samples": "3", "t_max": "2.0", **config})
    outdir = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=outdir) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "config"
    assert record["message"].startswith(f"{key}: "), record["message"]
    assert not outdir.exists()


BAD_OMEGA = "drive frequencies must be positive and finite"
TINY_SPACING = ("t_max / (samples - 1) = 0 is below the smallest normal float, so sample times "
                "may repeat")
TWICE_G_OVERFLOWS = ("g: numeric-full runs at 2g against an RWA solver, and 2g of g = 1e+308 "
                     "overflows")
# id -> (argv, write_config keywords, message): a value that parses but is out of range,
# refused naming its key
OUT_OF_RANGE = {
    "one-level": (["evolve", "{cfg}"], {"energies": "0"}, "energies: need at least two levels"),
    "merged-levels": (["evolve", "{cfg}"], {"energies": "0, 0, 1"},
                      "energies: energies must be strictly increasing"),
    "zero-omega": (["evolve", "{cfg}"], {"extra_drive": "omega_0_2 = 0"},
                   "omega_0_2: drive frequencies must be positive and finite"),
    "nan-omegas": (["evolve", "{cfg}"], {"frequencies": "explicit", "extra_drive":
                                         "omega_0_1 = nan\nomega_1_2 = 1\nomega_0_2 = -1"},
                   "omega_0_1, omega_0_2: drive frequencies must be positive and finite"),
    "explicit-pairs": (["evolve", "{cfg}"], {"frequencies": "explicit", "extra_drive":
                                             "omega_0_1 = 1\nomega_2_0 = 2"},
                       "omega must hold exactly one frequency per pair (i, j) with i < j: "
                       "missing omega_0_2, missing omega_1_2, unexpected omega_2_0"),
    "adjacent-override": (["evolve", "{cfg}"], {"extra_drive": "omega_1_2 = 1"},
                          "omega_1_2: only pairs with j - i >= 2 may be overridden"),
    "nan-initial": (["evolve", "{cfg}"], {"initial": "nan, 0, 0"},
                    "initial: amplitudes must be finite"),
    "zero-initial": (["evolve", "{cfg}"], {"initial": "0, 0, 0"},
                     "initial: cannot normalize the zero vector"),
    "short-initial": (["evolve", "{cfg}", "--initial", "1, 0"], {},
                      "initial: amplitude list must have 3 entries"),
    "initial-index": (["sweep", "{cfg}", "--param", "run.initial", "--values", "0,5",
                       "--outdir", "{out}"], {}, "initial: level index 5 out of range for n=3"),
    "tiny-t-max-exact": (["evolve", "{cfg}", "--t-max", "5e-324", "--samples", "5"], {},
                         TINY_SPACING),
    "tiny-t-max-rk4": (["evolve", "{cfg}", "--t-max", "5e-324", "--samples", "5", "--solver",
                        "numeric-rwa"], {}, TINY_SPACING),
    "tiny-t-max-sweep": (["sweep", "{cfg}", "--param", "run.t_max", "--values", "1,5e-324",
                          "--outdir", "{out}"], {}, TINY_SPACING),
    # --epsilon sets omega_0_2 = E_2 + epsilon, so its refusal names the flag, on every command
    "epsilon-negative": (["evolve", "{cfg}", "--epsilon", "-5"], {},
                         "--epsilon -5 gives omega_0_2 = -3; " + BAD_OMEGA),
    "epsilon-cancels": (["compare", "{cfg}", "--solvers", "exact,numeric-rwa", "--epsilon", "-2"],
                        {}, "--epsilon -2 gives omega_0_2 = 0; " + BAD_OMEGA),
    "epsilon-nan": (["exact-check", "{cfg}", "--epsilon", "nan"], {},
                    "--epsilon nan gives omega_0_2 = nan; " + BAD_OMEGA),
    "epsilon-inf": (SWEEP + ["--epsilon", "inf"], {}, "--epsilon inf gives omega_0_2 = inf; "
                    + BAD_OMEGA),
    # compare runs a numeric-full leg against an RWA leg at 2g
    "twice-g-overflows": (["compare", "{cfg}", "--solvers", "exact,numeric-full"], {"g": "1e308"},
                          TWICE_G_OVERFLOWS),
    # and so does a solver sweep that mixes the two, before --outdir exists
    "twice-g-overflows-sweep": (["sweep", "{cfg}", "--param", "run.solver", "--values",
                                 "exact,numeric-full", "--outdir", "{out}"], {"g": "1e308"},
                                TWICE_G_OVERFLOWS),
}


@pytest.mark.parametrize("argv, config, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_a_value_out_of_range_is_refused_naming_its_key(tmp_path, capsys, argv, config, message):
    cfg = write_config(tmp_path, **{"samples": "3", "t_max": "2.0", **config})
    outdir = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=outdir) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "config", "message": message}
    assert not outdir.exists()


TINY = np.finfo(float).tiny
RESONANT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0}


# t_max anywhere in the finite range, and near the smallest normal spacing of its samples
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 4).flatmap(lambda samples: st.tuples(st.just(samples), st.one_of(
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.floats(0.25, 4.0).map(lambda f: f * TINY * (samples - 1))))))
def test_an_accepted_grid_never_repeats_a_time(drawn):
    samples, t_max = drawn
    try:
        cfg = RunConfig(energies=(0.0, 1.0, 2.0), g=0.1, omega=RESONANT, solver="exact",
                        t_max=t_max, samples=samples, initial=(1.0, 0.0, 0.0))
    except ConfigError as exc:
        assert str(exc).startswith("t_max / (samples - 1) = ")
        assert t_max / (samples - 1) < TINY
        return
    assert (np.diff(cli._sample_grid(cfg)) > 0).all()


def test_resonant_flag_replaces_adjacent_frequencies_of_an_explicit_file(tmp_path, capsys):
    cfg = write_config(tmp_path, frequencies="explicit",
                       extra_drive="omega_0_1 = 1.3\nomega_1_2 = 0.8\nomega_0_2 = 2.1")
    assert load_config(cfg, {"resonant": True}).omega == {(0, 1): 1.0, (1, 2): 1.0,
                                                          (0, 2): 2.1}
    assert main(["exact-check", cfg]) == 0
    capsys.readouterr()
    assert main(["exact-check", cfg, "--resonant"]) == 3
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == [{"pair": [0, 2], "epsilon": pytest.approx(0.1)}]


RUN_FLAGS = {"--solver", "--g", "--t-max", "--samples", "--initial", "--output", "--format"}
FREQUENCY_FLAGS = {"--resonant", "--epsilon"}
RK4_FLAGS = {"--step", "--max-steps"}


def test_each_command_takes_only_the_flags_it_reads():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in commands.items()}
    assert options == {
        "spectrum": {"--n"},
        "evolve": RUN_FLAGS | RK4_FLAGS | FREQUENCY_FLAGS,
        "exact-check": FREQUENCY_FLAGS,
        "compare": RUN_FLAGS - {"--solver", "--format"} | RK4_FLAGS | FREQUENCY_FLAGS
        | {"--solvers"},
        "sweep": RUN_FLAGS - {"--output"} | RK4_FLAGS | FREQUENCY_FLAGS
        | {"--param", "--values", "--outdir", "--jobs"},
    }


def _record_stacks(monkeypatch):
    """The size of every RK4 stack cli runs, in call order."""
    sizes = []
    integrate_stack = cli.integrate_stack

    def recording(h_fns, *args):
        sizes.append(len(h_fns))
        return integrate_stack(h_fns, *args)

    monkeypatch.setattr(cli, "integrate_stack", recording)
    return sizes


def _cosine_g(manifest, solver):
    """evolve's --g for a sweep's run of solver: a numeric-full run beside RWA runs drives 2g."""
    return ["--g", repr(manifest["numeric_full_g"])] if solver == "numeric-full" else []


# sweep key -> (--values, the evolve flag that sets one value, sizes of the RK4 stacks)
STACKED_SWEEPS = {
    "drive.g": ("0.05,0.1,0.2", "--g", [3]),
    "run.solver": ("numeric-rwa,numeric-full,exact", "--solver", [2]),
    "run.initial": ("0,1,2", "--initial", [3]),
}


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("param", STACKED_SWEEPS)
def test_stacked_sweep_runs_match_solo_evolve(tmp_path, monkeypatch, param, jobs):
    values, flag, stacks = STACKED_SWEEPS[param]
    sizes = _record_stacks(monkeypatch)
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.5", samples="7",
                       energies="0.0, 1.0, 2.1")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", param, "--values", values, "--outdir", str(outdir),
                 "--jobs", jobs]) == 0
    assert sizes == stacks
    manifest = json.loads((outdir / "manifest.json").read_text())
    for run, value in zip(manifest["runs"], values.split(",")):
        solo = tmp_path / f"solo_{run['index']}.csv"
        assert main(["evolve", cfg, flag, value, *_cosine_g(manifest, value),
                     "--output", str(solo)]) == 0
        assert (outdir / run["file"]).read_bytes() == solo.read_bytes()


@pytest.mark.parametrize("param, values", [("drive.g", "0.05,0.1,0.2"), ("run.t_max", "1,1.5"),
                                           ("run.solver", "numeric-rwa,exact")])
def test_sweep_reads_its_config_once(tmp_path, monkeypatch, param, values):
    # these amplitudes move in their last bits if normalised twice; a swept run must
    # start from the state load_config gives, as a solo run does
    amps = StateVector.normalized([1, 1, 0]).amp
    assert not np.array_equal(StateVector.normalized(amps).amp, amps)
    calls = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda *args: calls.append(args) or load(*args))
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.5", samples="7",
                       initial="1, 1, 0", fmt="json")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", param, "--values", values, "--outdir", str(outdir)]) == 0
    assert len(calls) == 1
    flag = "--" + param.partition(".")[2].replace("_", "-")
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    for run, value in zip(runs, values.split(",")):
        solo = tmp_path / "solo.json"
        assert main(["evolve", cfg, flag, value, "--output", str(solo)]) == 0
        swept, alone = (json.loads(path.read_text()) for path in (outdir / run["file"], solo))
        # the file's own provenance differs in output only; the states are the solo run's
        # bit for bit
        for doc in (swept, alone):
            del doc["config"]["output"]
        assert swept == alone  # floats read back from repr


def test_solver_sweep_with_a_step_matches_solo_runs(tmp_path):
    # g = 200 puts the default step at 5e-4, so a solo run that dropped --step would differ
    cfg = write_config(tmp_path, g="200", t_max="0.5", samples="5")
    outdir = tmp_path / "sweep"
    solvers = ["exact", "numeric-rwa", "numeric-full"]
    assert main(["sweep", cfg, "--param", "run.solver", "--values", ",".join(solvers),
                 "--step", "1e-3", "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    for run, solver in zip(manifest["runs"], solvers):
        swept = (outdir / run["file"]).read_bytes()
        solo = tmp_path / f"solo_{solver}.csv"
        step = ["--step", "1e-3"] if solver != "exact" else []
        g = _cosine_g(manifest, solver)
        assert main(["evolve", cfg, "--solver", solver, *step, *g, "--output", str(solo)]) == 0
        assert swept == solo.read_bytes()
        # a config loaded with the step (and the run's g) carries it to run_solver
        overrides = {"solver": solver, "step": 1e-3, "g": g[1] if g else "200"}
        run_solver(load_config(cfg, overrides)).to_csv(solo)
        assert swept == solo.read_bytes()


def test_compare_runs_two_rk4_legs_as_one_stack(tmp_path, monkeypatch):
    sizes = _record_stacks(monkeypatch)
    cfg = write_config(tmp_path, t_max="1.0", samples="5")
    stacked, solo = tmp_path / "stacked.json", tmp_path / "solo.json"
    assert main(["compare", cfg, "--solvers", "numeric-rwa,numeric-full",
                 "--output", str(stacked)]) == 0
    assert sizes == [2]
    base = load_config(cfg, {"output": str(stacked)})
    # the cosine leg drives amplitude 2g, the RWA coupling g's cosine
    report = cli.compare(run_solver(replace(base, solver="numeric-rwa")),
                         run_solver(replace(base, solver="numeric-full", g=2 * base.g)))
    doc = {"solvers": ["numeric-rwa", "numeric-full"], "config": base.to_dict(),
           "numeric_full_g": 2 * base.g, "report": {**report, "table": report["table"].tolist()}}
    assert stacked.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("solvers", ["numeric-rwa,numeric-full", "numeric-full,exact"])
def test_compare_runs_the_cosine_leg_at_twice_the_rwa_coupling(tmp_path, solvers):
    # CI's run.ini: the ladder 0, 1, 2 at g = 0.1 to t = 20.  With both legs at g, the
    # populations part by 0.866; at 2g, by the RWA's own error of about g/omega = 0.1
    cfg = write_config(tmp_path, t_max="20.0", samples="101")
    out = tmp_path / "report.json"
    assert main(["compare", cfg, "--solvers", solvers, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["config"]["g"], doc["numeric_full_g"]) == (0.1, 0.2)
    assert doc["report"]["max_population_dev"] < 0.1


def test_a_mixed_solver_sweep_runs_the_cosine_drive_compare_runs(tmp_path):
    # CI's run.ini swept over two solvers: the numeric-full run drives 2g, as compare's
    # cosine leg does, so the two runs part by the RWA's own error, not by 0.866
    cfg = write_config(tmp_path, t_max="20.0", samples="101")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "run.solver", "--values", "numeric-rwa,numeric-full",
                 "--format", "json", "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert (manifest["config"]["g"], manifest["numeric_full_g"]) == (0.1, 0.2)
    rwa, full = (json.loads((outdir / run["file"]).read_text()) for run in manifest["runs"])
    assert (rwa["config"]["g"], full["config"]["g"]) == (0.1, 0.2)
    assert np.max(np.abs(np.subtract(rwa["populations"], full["populations"]))) < 0.1
    solo = tmp_path / "solo.json"
    assert main(["evolve", cfg, "--solver", "numeric-full", "--g", "0.2", "--format", "json",
                 "--output", str(solo)]) == 0
    assert json.loads(solo.read_text())["states"] == full["states"]  # floats read back from repr


def test_a_sweep_writes_each_run_from_the_config_it_ran(tmp_path, monkeypatch):
    # load_config builds one RunConfig and the sweep one per run; no run is rebuilt to name
    # its file, which its JSON provenance records all the same
    built = []
    post_init = RunConfig.__post_init__
    monkeypatch.setattr(RunConfig, "__post_init__",
                        lambda self: built.append(self.g) or post_init(self))
    cfg = write_config(tmp_path, samples="3", fmt="json")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.05,0.1,0.2",
                 "--outdir", str(outdir)]) == 0
    assert built == [0.1, 0.05, 0.1, 0.2]
    for run in json.loads((outdir / "manifest.json").read_text())["runs"]:
        doc = json.loads((outdir / run["file"]).read_text())
        assert doc["config"]["output"] == str(outdir / run["file"])


# (--values, [drive] keys, statuses in run order, exit code): the sweep exits with the
# smallest code among its failed runs
IN_RUN_REFUSALS = {
    "config": ("exact,dyson1", "", ["ok", "config"], 2),
    "consistency": ("numeric-rwa,exact", "omega_0_2 = 2.4", ["ok", "consistency"], 3),
    "all-three": ("exact,numeric-rwa,dyson1", "omega_0_2 = 2.4",
                  ["consistency", "numeric", "config"], 2),
}


@pytest.mark.parametrize("values, drive, statuses, code", IN_RUN_REFUSALS.values(),
                         ids=IN_RUN_REFUSALS.keys())
def test_refusal_inside_a_sweep_run_is_recorded_in_the_manifest(tmp_path, capsys, values, drive,
                                                                  statuses, code):
    # four levels, so dyson1 refuses; a detuned 0-2 drive makes exact refuse
    cfg = write_config(tmp_path, energies="0.0, 1.0, 2.1, 3.3", t_max="1.0", samples="3",
                       extra_drive=drive)
    outdir = tmp_path / "sweep"
    argv = ["sweep", cfg, "--param", "run.solver", "--values", values, "--outdir", str(outdir),
            "--jobs", "1"]
    if "numeric" in statuses:
        argv += ["--max-steps", "10"]
    assert main(argv) == code
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert [run["status"] for run in runs] == statuses
    for run in runs:
        assert (outdir / f"run_{run['index']:03d}.csv").exists() == (run["status"] == "ok")
        assert (run["error"] is None) == (run["status"] == "ok")
        assert (run["file"] is None) == (run["status"] != "ok")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    failed = [run["index"] for run in runs if run["status"] != "ok"]
    assert json.loads(err[0])["message"].startswith(f"sweep runs {failed} failed")


# g = 1000 at step 0.5 (h * g = 500) is far outside RK4's stability region: the first
# step, at t = 0, takes the total probability past 2
DIVERGING = ["--solver", "numeric-rwa", "--step", "0.5"]
DIVERGED_AT_0 = "RK4 diverged at t = 0: total probability reached 2"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_numeric_failure_in_a_sweep_prints_one_json_line(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path)
    outdir = tmp_path / "sweep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.1,1000", "--step", "0.5",
                     "--t-max", "40", "--solver", "numeric-rwa", "--outdir", str(outdir),
                     "--jobs", jobs]) == 4
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "numeric", "message":
                                  f"sweep runs [1] failed; see {outdir / 'manifest.json'}"}
    ok, failed = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert (ok["status"], failed["status"]) == ("ok", "numeric")
    assert failed["error"] == DIVERGED_AT_0


def test_diverging_rk4_run_exits_4_with_one_json_line(tmp_path, capsys):
    # to t = 5 the amplitudes pass 1e187, where the populations would overflow; to
    # t = 3 the run would end with norm_drift 2.1e63, far below any overflow
    for t_max, samples in (("5", "21"), ("3", "7")):
        cfg = write_config(tmp_path, t_max=t_max, samples=samples)
        path = tmp_path / "traj.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", cfg, *DIVERGING, "--g", "1000", "--output", str(path)]) == 4
        assert not path.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "numeric", "message": DIVERGED_AT_0}


def test_diverging_rk4_run_fails_in_a_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, t_max="5", samples="21")
    outdir = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.1,1000", *DIVERGING,
                     "--outdir", str(outdir)]) == 4
    ok, failed = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert (ok["status"], failed["status"]) == ("ok", "numeric")
    assert (failed["error"], failed["norm_drift"]) == (DIVERGED_AT_0, None)
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_exact_trajectory_is_written_without_the_fallback_formatter(tmp_path):
    # the exact-grid benchmark's shape: n = 8, 1001 samples, t up to 100
    cfg = write_config(tmp_path, energies=", ".join(str(k) for k in range(8)), t_max="100",
                       samples="1001")
    traj = run_solver(load_config(cfg))
    table = np.column_stack([traj.times, traj.states.view(float), traj.populations])
    assert (table == 0).any() and not slots(table.ravel())[1].any()


def _non_finite(solver, t):
    return {"error": "numeric", "message": f"{solver} gave a non-finite amplitude or population "
                                           f"at t = {t}"}


# closed forms evaluated where their floats overflow: g t past the range of exp, cos and
# sin (exact), amplitudes whose squares overflow (dyson1), a quadrature step so small that
# the count of its nodes is past any array numpy can size (dyson2, refused before its
# quadrature, since its series cannot overflow on fewer nodes)
OVERFLOWING = {
    "exact": (["--samples", "3", "--g", "1e300", "--t-max", "1e10"],
              _non_finite("exact", "5e+09")),
    "dyson1": (["--g", "1e308"], _non_finite("dyson1", "0.2")),
    "dyson2": (["--g", "1e200"], {"error": "memory", "message": "Unable to allocate 5.76e+204 "
                                  "bytes for the 4e+202 Simpson nodes of t = 20"}),
}


@pytest.mark.parametrize("solver", OVERFLOWING)
def test_closed_form_run_that_overflows_exits_4_with_one_json_line(tmp_path, capsys, solver):
    flags, record = OVERFLOWING[solver]
    cfg = write_config(tmp_path, t_max="20", samples="101")
    path = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", cfg, "--solver", solver, *flags, "--output", str(path)]) == 4
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == record


def test_closed_form_run_that_overflows_fails_in_a_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="dyson1", t_max="20", samples="101")
    outdir = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.1,1e308",
                     "--outdir", str(outdir)]) == 4
    ok, failed = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert (ok["status"], failed["status"]) == ("ok", "numeric")
    assert (failed["error"], failed["file"], failed["norm_drift"]) == (
        _non_finite("dyson1", 0.2)["message"], None, None)
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "run_000.csv"]
    assert len(capsys.readouterr().err.splitlines()) == 1


# /dev/full accepts the open and fails the write with ENOSPC
full_disk = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")


@full_disk
@pytest.mark.parametrize("argv", [["evolve"], ["compare", "--solvers", "exact,numeric-rwa"]],
                         ids=["evolve", "compare"])
def test_failed_write_exits_2_with_one_json_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, t_max="1.0")
    assert main([argv[0], cfg, *argv[1:], "--output", "/dev/full"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "io", "message": "[Errno 28] No space left on device"}


def test_unwritable_sweep_run_is_recorded_in_the_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, t_max="1.0")
    outdir = tmp_path / "sweep"
    (outdir / "run_000.csv").mkdir(parents=True)
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.1,0.2",
                 "--outdir", str(outdir), "--jobs", "1"]) == 2
    blocked, ok = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert (blocked["status"], blocked["file"]) == ("io", None)
    assert blocked["error"].startswith("[Errno 21] Is a directory")
    assert (ok["status"], ok["file"]) == ("ok", "run_001.csv")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "io", "message":
                                  f"sweep runs [0] failed; see {outdir / 'manifest.json'}"}


# a drive or start state the run cannot use, seen only once the run's physics is built
EXPLICIT = "omega_0_1 = 1.0\nomega_1_2 = 1.0"
UNUSABLE_RUNS = {
    "explicit-without-omega_0_2": {"frequencies": "explicit", "extra_drive": EXPLICIT},
    "explicit-negative-omega_0_2": {"frequencies": "explicit",
                                    "extra_drive": EXPLICIT + "\nomega_0_2 = -1"},
    "nan-initial": {"initial": "nan, 0, 0"},
}


@pytest.mark.parametrize("config", UNUSABLE_RUNS.values(), ids=UNUSABLE_RUNS.keys())
def test_sweep_refuses_an_unusable_run_before_making_outdir(tmp_path, capsys, config):
    cfg = write_config(tmp_path, samples="3", t_max="2.0", **config)
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.05,0.1",
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    assert not outdir.exists()


def test_non_finite_initial_state_is_one_json_line_and_no_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, initial="nan, 0, 0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve", cfg]) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "config", "message": "initial: amplitudes must be finite"}


def _cannot_allocate(*args):
    raise MemoryError("Unable to allocate 298. GiB for an array")


def test_run_that_cannot_allocate_exits_4_with_one_json_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(SOLVER_TABLE, "exact", _cannot_allocate)
    assert main(["evolve", write_config(tmp_path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "memory",
                               "message": "Unable to allocate 298. GiB for an array"}


@pytest.mark.parametrize("solver", ["exact", "numeric-rwa"], ids=["solo", "rk4-stack"])
def test_sweep_run_that_cannot_allocate_is_recorded_in_the_manifest(tmp_path, capsys,
                                                                    monkeypatch, solver):
    monkeypatch.setitem(SOLVER_TABLE, "exact", _cannot_allocate)
    monkeypatch.setattr(cli, "integrate_stack", _cannot_allocate)  # the numeric-rwa stack
    cfg = write_config(tmp_path, t_max="1.0", samples="3")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.1,0.2", "--solver", solver,
                 "--outdir", str(outdir), "--jobs", "1"]) == 4
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert [(run["status"], run["file"]) for run in runs] == [("memory", None)] * 2
    assert {run["error"] for run in runs} == {"Unable to allocate 298. GiB for an array"}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "memory", "message":
                                  f"sweep runs [0, 1] failed; see {outdir / 'manifest.json'}"}


# q = 0.5 on the README config with --epsilon 0.05: 2e18 and 2e19 Simpson nodes, one past
# what numpy can size and one past the int64 range of the node count
HUGE_T_MAX = ["1e18", "1e19"]


@pytest.mark.parametrize("t_max", HUGE_T_MAX)
def test_dyson2_run_too_long_to_allocate_exits_4_with_one_json_line(tmp_path, capsys, t_max):
    cfg = write_config(tmp_path, solver="dyson2", samples="2", t_max=t_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve", cfg, "--epsilon", "0.05"]) == 4
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "memory"
    assert doc["message"].endswith(f" Simpson nodes of t = {float(t_max):.6g}")


def test_dyson2_sweep_too_long_to_allocate_is_recorded_in_the_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, solver="dyson2", samples="2")
    outdir = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "run.t_max", "--values", ",".join(["1.0", *HUGE_T_MAX]),
                 "--epsilon", "0.05", "--outdir", str(outdir), "--jobs", "1"]) == 4
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    assert [(run["status"], run["file"]) for run in runs] == [
        ("ok", "run_000.csv"), ("memory", None), ("memory", None)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "memory"


# sizes whose arrays numpy cannot even size: one past the int64 range, int64's largest, and
# 401 digits, past the float range too
@pytest.mark.parametrize("argv", [["evolve", "{cfg}", "--samples", "99999999999999999999"],
                                  ["evolve", "{cfg}", "--samples", "9223372036854775807"],
                                  ["evolve", "{cfg}", "--samples", "1" + "0" * 400],
                                  ["spectrum", "--n", "99999999999999999999"],
                                  ["spectrum", "--n", "1" + "0" * 400],
                                  ["sweep", "{cfg}", "--param", "run.samples", "--values",
                                   "3,9223372036854775807", "--outdir", "{out}"]],
                         ids=["samples-past-int64", "samples-int64-max", "samples-past-float",
                              "spectrum-n", "spectrum-n-past-float", "sweep"])
def test_size_numpy_cannot_allocate_exits_4_with_one_json_line(tmp_path, capsys, argv):
    outdir = tmp_path / "out"
    argv = [a.format(cfg=write_config(tmp_path), out=outdir) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "memory" and doc["message"].startswith("Unable to allocate ")
    assert not outdir.exists()


# the largest float as t_max: linspace's product for the last time overflows before linspace
# sets it to t_max; neither a closed-form run nor an RK4 stack may warn on the way to its failure
@pytest.mark.parametrize("argv", [["evolve", "{cfg}", "--solver", "exact"],
                                  ["sweep", "{cfg}", "--param", "drive.g", "--values", "0.1,0.2",
                                   "--solver", "numeric-rwa", "--max-steps", "10",
                                   "--outdir", "{out}"]], ids=["evolve", "rk4-stack"])
def test_a_t_max_near_the_largest_float_fails_as_numeric_without_a_warning(tmp_path, capsys,
                                                                           argv):
    cfg = write_config(tmp_path, samples="4", t_max=repr(float(np.finfo(float).max)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(cfg=cfg, out=tmp_path / "out") for a in argv]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "numeric"


def _fresh_python(code, *argv):
    """stdout of ``code`` run in a new interpreter that imports the package under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_cli_leaves_concurrent_futures_to_sweep():
    code = "import sys, nlevel_rabi.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_python(code) == "False\n"


def test_a_two_task_sweep_leaves_concurrent_futures_unimported(tmp_path):
    # two t_max values are two RK4 stacks; every sweep runs its tasks on the calling thread,
    # whatever --jobs says, so concurrent.futures (which pulls in logging) is never imported
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.5", samples="7")
    code = ("import sys, nlevel_rabi.cli as cli; code = cli.main(sys.argv[1:]); "
            "print(code, 'concurrent.futures' in sys.modules)")
    assert _fresh_python(code, "sweep", cfg, "--param", "run.t_max", "--values", "1,1.5",
                         "--jobs", "4", "--outdir", str(tmp_path / "sweep")) == "0 False\n"


def _record_writer_threads(monkeypatch):
    """The thread each run file is written on, in the order written."""
    threads = []
    write = cli._write_trajectory
    monkeypatch.setattr(cli, "_write_trajectory",
                        lambda *args: threads.append(threading.current_thread()) or write(*args))
    return threads


def test_a_one_task_sweep_writes_its_runs_on_the_calling_thread(tmp_path, monkeypatch):
    threads = _record_writer_threads(monkeypatch)
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.5", samples="7")
    assert main(["sweep", cfg, "--param", "drive.g", "--values", "0.05,0.1,0.2", "--jobs", "4",
                 "--outdir", str(tmp_path / "sweep")]) == 0
    assert threads == [threading.current_thread()] * 3


def test_a_two_task_sweep_writes_every_run_on_the_calling_thread_at_any_jobs(tmp_path,
                                                                            monkeypatch):
    # two t_max values are two RK4 stacks; --jobs is accepted and changes nothing
    threads = _record_writer_threads(monkeypatch)
    cfg = write_config(tmp_path, solver="numeric-rwa", t_max="1.5", samples="7")
    files = {}
    for jobs in ("1", "2", "4"):
        outdir = tmp_path / f"jobs-{jobs}"
        assert main(["sweep", cfg, "--param", "run.t_max", "--values", "1,1.5", "--jobs", jobs,
                     "--outdir", str(outdir)]) == 0
        files[jobs] = {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}
    assert threads == [threading.current_thread()] * 6
    assert len(files["1"]) == 3 and files["1"] == files["2"] == files["4"]


def _bits(amp):
    return np.asarray(amp, dtype=complex).view(np.int64)


def test_json_provenance_rebuilds_the_run_bit_for_bit(tmp_path):
    cfg = load_config(write_config(tmp_path, initial="1, 1, 0", fmt="json"))
    # normalising these amplitudes a second time would move their last bits
    assert not np.array_equal(StateVector.normalized(cfg.psi0.amp).amp, cfg.psi0.amp)
    rebuilt = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    for field in ("energies", "g", "omega", "solver", "t_max", "samples", "initial", "output",
                  "format", "step", "max_steps", "integrator"):
        assert getattr(rebuilt, field) == getattr(cfg, field), field
    assert np.array_equal(rebuilt.psi0.amp, cfg.psi0.amp)
    assert rebuilt == cfg


def test_compare_legs_start_from_the_state_evolve_uses(tmp_path):
    cfg = write_config(tmp_path, initial="1, 1, 0", t_max="1.0", samples="5")
    out = tmp_path / "report.json"
    solvers = ["numeric-rwa", "numeric-full"]
    assert main(["compare", cfg, "--solvers", ",".join(solvers), "--output", str(out)]) == 0
    # the cosine leg at 2g, as compare runs it against an RWA leg
    solo = [run_solver(load_config(cfg, {"solver": "numeric-rwa"})),
            run_solver(load_config(cfg, {"solver": "numeric-full", "g": "0.2"}))]
    report = cli.compare(*solo)
    doc = {"solvers": solvers, "config": load_config(cfg, {"output": str(out)}).to_dict(),
           "numeric_full_g": 0.2, "report": {**report, "table": report["table"].tolist()}}
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


def test_compare_with_an_empty_output_writes_the_report_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", cfg, "--solvers", "exact,exact", "--output", ""]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["solvers"], err) == (["exact", "exact"], "")


def test_compare_writes_its_report_where_the_file_output_key_says(tmp_path, capsys):
    cfg = write_config(tmp_path)
    report = tmp_path / "report.json"
    with open(cfg, "a") as fh:
        fh.write(f"output = {report}\n")
    assert main(["compare", cfg, "--solvers", "exact,exact"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(report.read_text())["config"]["output"] == str(report)


# real and imaginary parts over the whole finite range, overflowing and subnormal ones included
PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([1e308, -1.7e308, 5e-324, -2.5e-320, 1e-200, 0.0, 1.0]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 6).flatmap(lambda n: st.lists(st.builds(complex, PARTS, PARTS),
                                                    min_size=n, max_size=n)),
       st.sampled_from(list(SOLVER_TABLE)))
def test_initial_state_is_normalised_once_and_kept_bit_for_bit(tmp_path, amps, solver):
    if not any(amps):
        return  # the zero vector is refused
    energies = ", ".join(str(float(k)) for k in range(len(amps)))
    cfg = load_config(write_config(tmp_path, energies=energies,
                                   initial=", ".join(map(repr, amps))))
    expected = _bits(StateVector.normalized(amps).amp)
    assert (_bits(cfg.psi0.amp) == expected).all()
    rebuilt = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert (_bits(rebuilt.initial) == expected).all()
    assert (_bits(replace(rebuilt, solver=solver).psi0.amp) == expected).all()



# The CLI contract as one property.  A draw is INI text and argv from a small grammar: the
# keys a run reads, with values it can use; unknown, misspelt and repeated keys; a missing
# key; values from a nasty set; one value that does not parse or is out of range; every
# subcommand, sweep values and compare pairs.  Each run stays small: at most 11 samples,
# t_max at most 2 unless a nasty value sets it, --max-steps of at most 1e5 whenever a run
# integrates, and --jobs at most 2.
USABLE = {  # (section, key) -> values a run can use, on a three-level ladder
    ("levels", "energies"): ["0, 1, 2", "0.0, 1.05, 2.1"],
    ("drive", "g"): ["0.1", "1"],
    ("drive", "frequencies"): ["resonant", "explicit"],
    ("drive", "omega_0_1"): ["1.0", "1.05"],
    ("drive", "omega_1_2"): ["1.0", "1.05"],
    ("drive", "omega_0_2"): ["2.0", "2.1", "2.3"],
    ("run", "solver"): list(SOLVER_TABLE),
    ("run", "t_max"): ["0.5", "2"],
    ("run", "samples"): ["2", "5", "11"],
    ("run", "initial"): ["0", "2", "1, 1j, 0"],
    ("run", "output"): ["", "{tmp}/run 100%.out", "{tmp}/a%%b.out", "{tmp}/%(g)s.out"],
    ("run", "format"): ["csv", "json"],
}
OPTIONS = {  # flag -> values a run can use (None: the flag takes no value)
    **{f"--{key.replace('_', '-')}": values for (_, key), values in USABLE.items()
       if key in RUN_KEYS},
    "--step": ["1e-3", "0.05"], "--epsilon": ["0.1", "-0.2"], "--resonant": [None],
    "--max-steps": ["1", "50", "3000", "100000"], "--jobs": ["1", "2"], "--n": ["2", "3", "6"],
}
ACCEPTS = {  # command -> the flags it reads, but for --max-steps and its own arguments
    "evolve": ["--solver", "--g", "--t-max", "--samples", "--initial", "--output", "--format",
               "--step", "--resonant", "--epsilon"],
    "exact-check": ["--resonant", "--epsilon"],
    "compare": ["--g", "--t-max", "--samples", "--initial", "--output", "--step", "--resonant",
                "--epsilon"],
    "sweep": ["--solver", "--g", "--t-max", "--samples", "--initial", "--format", "--step",
              "--resonant", "--epsilon"],
}
NASTY = ["0", "-0.0", "5e-324", "-2.5e-320", "1e308", "-1e308", "nan", "inf", "-inf",
         str(2 ** 63), str(10 ** 30), "abc", "1e400", "0x10", "%", "%(g)s"]
# the nasty values of keys whose large values would start a long run or many threads
NASTY_FOR = {"output": ["{tmp}", "{tmp}/missing/x.out", "{tmp}/x%"],
             "max_steps": ["0", "-1", "abc", "2.5"], "jobs": ["0", "-1", "x", "1.5"]}
# values no parser reads, by the kind of value a key holds (a float unless KIND says)
UNPARSABLE = {"float": ["abc", "1e", "0x10", "%(g)s"], "int": ["abc", "2.5", "1e3", "%"],
              "initial": ["abc", "1e400", "1, abc, 0", "%(g)s"],
              "energies": ["0, x, 2", "abc", "0, 1, %(g)s"], "name": ["abc", "%", "%(g)s"]}
KIND = {"energies": "energies", "initial": "initial", "samples": "int", "max_steps": "int",
        "jobs": "int", "n": "int", "solver": "name", "format": "name", "frequencies": "name"}
# values that parse but are out of range, by key (every omega_i_j key shares one list)
OUT_OF_RANGE_FOR = {"energies": ["0", "0, 0, 1", "0, 1, inf"], "omega": ["0", "-1", "inf", "nan"],
                    "initial": ["nan, 0, 0", "0, 0, 0", "3"], "g": ["0", "inf"],
                    "t_max": ["0", "inf", "5e-324"], "samples": ["1"], "step": ["0"]}
# INI lines no usable file holds: unknown, misspelt, repeated and adjacent keys, unknown
# sections and a line without a value
STRAY_LINES = [("run", "smaples = 5"), ("run", "step = 1e-3"), ("drive", "frequency = explicit"),
               ("runn", ""), ("DEFAULT", "g = 0.2"), ("levels", "energies = 0, 1, 2"),
               ("drive", "omega_0_1 = 1.0"), ("drive", "omega_00_2 = 2.0"),
               ("drive", "omega_0_x = 2.0"), ("drive", "omega_2_0 = 2.0"),
               ("drive", "omega_0_2_3 = 2.0"), ("run", "novalue")]
# flags no command reads, flags a command may not read, and ones that repeat a drawn flag
STRAY_FLAGS = [["--smaples", "5"], ["-o", "{tmp}/x"], ["--bogus"], ["--solver", "exact"],
               ["--jobs", "1"], ["--format", "csv"], ["--max-steps", "10"]]


def _last(argv, flag):
    """The value of the last ``flag`` in argv, or None."""
    values = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == flag]
    return values[-1] if values else None


def _flag(key):
    return "--" + key.replace("_", "-")


def _out_of_range(spot, argv):
    """The out-of-range values of a spot; none where an override replaces its value (an omega
    key under --epsilon, an adjacent one under --resonant) or for a list item with a comma."""
    (where, *_), key, _ = spot
    if key.startswith("omega_") and ("--epsilon" in argv or "--resonant" in argv
                                     and key in ("omega_0_1", "omega_1_2")):
        return []
    values = OUT_OF_RANGE_FOR.get("omega" if key.startswith("omega_") else key, [])
    return [value for value in values if where != "list" or "," not in value]


@st.composite
def cli_draws(draw):
    """(INI {(section, key): text}, stray INI lines, argv, names).

    A clean draw holds usable values but one, which no parser reads or which parses but is
    out of range; ``names`` are its key and the flag a refusal of it may name instead.  Any
    other draw (``names`` None) has up to two faults: a missing key, a stray INI line, a stray
    flag or a nasty value.  argv holds "{cfg}" for the INI file, and it and the INI values hold
    "{tmp}" for a scratch directory.
    """
    command = draw(st.sampled_from(["spectrum", *ACCEPTS]))
    clean = draw(st.booleans())
    faults = [] if clean else draw(st.lists(st.sampled_from(["key", "line", "flag", "value"]),
                                            max_size=2))
    ini = {key: draw(st.sampled_from(values)) for key, values in USABLE.items()}
    # every pair under explicit frequencies, and none but a non-adjacent one else
    if ini[("drive", "frequencies")] == "resonant":
        del ini[("drive", "omega_0_1")], ini[("drive", "omega_1_2")]
        if draw(st.booleans()):
            del ini[("drive", "omega_0_2")]
    missing = [k for k in ini if k[1] != "samples"]  # no run of the default 101 samples
    for key in draw(st.sets(st.sampled_from(missing), min_size=faults.count("key"),
                            max_size=faults.count("key"))):
        del ini[key]
    stray_lines = draw(st.lists(st.sampled_from(STRAY_LINES), min_size=faults.count("line"),
                                max_size=faults.count("line")))
    argv = [command] if command == "spectrum" else [command, "{cfg}"]
    argv += [arg for flag in draw(st.lists(st.sampled_from(STRAY_FLAGS),
                                           min_size=faults.count("flag"),
                                           max_size=faults.count("flag"))) for arg in flag]
    flags = [] if command == "spectrum" else draw(
        st.lists(st.sampled_from(ACCEPTS[command]), unique=True, max_size=3))
    for flag in flags:
        value = draw(st.sampled_from(OPTIONS[flag]))
        argv += [flag] if value is None else [flag, value]
    lists = {}  # a flag whose value is a comma-separated list -> its items
    if command == "spectrum":
        argv += ["--n", draw(st.sampled_from(OPTIONS["--n"]))]
    elif command == "compare":
        lists["--solvers"] = draw(st.lists(st.sampled_from(list(SOLVER_TABLE)), min_size=2,
                                           max_size=2))
    elif command == "sweep":
        # a key no drawn flag sets; a stray flag may set it
        param = draw(st.sampled_from([p for p in SWEEP_KEYS
                                      if _flag(p.split(".")[1]) not in argv[2:]]))
        usable = [v for v in USABLE[tuple(param.split("."))] if "," not in v]
        lists["--values"] = draw(st.lists(st.sampled_from(usable), min_size=1, max_size=3))
        argv += ["--param", param, "--outdir", "{tmp}/sweep",
                 "--jobs", draw(st.sampled_from(OPTIONS["--jobs"]))]
    # no RK4 run without a small step budget: its solvers are compare's pair, the swept
    # solvers, or the last --solver, the file's or the default
    solvers = [_last(argv, "--solver") or ini.get(("run", "solver"), "numeric-rwa")]
    if command == "compare" or _last(argv, "--param") == "run.solver":
        solvers = next(iter(lists.values()))
    if command != "exact-check" and {"numeric-rwa", "numeric-full"} & set(solvers):
        argv += ["--max-steps", draw(st.sampled_from(OPTIONS["--max-steps"]))]

    # the values that can be spoilt: (where, its key, and the flag a refusal may name instead)
    spots = [(("ini", key), key[1], key[1]) for key in ini
             if command != "spectrum" and _flag(key[1]) not in argv]
    spots += [(("argv", i + 1), flag[2:].replace("-", "_"), flag)
              for i, flag in enumerate(argv[:-1]) if OPTIONS.get(flag, [None]) != [None]]
    for flag, items in lists.items():
        key = "solver" if flag == "--solvers" else _last(argv, "--param").split(".")[1]
        spots += [(("list", flag, j), key, flag) for j in range(len(items))]
    ranged = [spot for spot in spots if _out_of_range(spot, argv)]
    if clean and ranged and draw(st.booleans()):
        where, *names = spot = draw(st.sampled_from(ranged))
        spoilt = [(where, draw(st.sampled_from(_out_of_range(spot, argv))))]
    elif clean:
        where, *names = draw(st.sampled_from([spot for spot in spots if spot[1] != "output"]))
        spoilt = [(where, draw(st.sampled_from(UNPARSABLE[KIND.get(names[0], "float")])))]
    else:
        names, count = None, faults.count("value")
        spoilt = [(where, draw(st.sampled_from(NASTY_FOR.get(key, NASTY)))) for where, key, _
                  in draw(st.lists(st.sampled_from(spots), min_size=count, max_size=count))]
    for where, value in spoilt:
        if where[0] == "ini":
            ini[where[1]] = value
        elif where[0] == "argv":
            argv[where[1]] = value
        else:
            lists[where[1]][where[2]] = value
    for flag, items in lists.items():
        argv += [flag, ",".join(items)]
    return ini, stray_lines, argv, names


def _finite_rows(text, fmt, n):
    """The rows of an evolve trajectory in CSV or JSON text, each checked finite and n wide."""
    if fmt == "csv":
        header, *rows = text.splitlines()
        table = np.array([row.split(",") for row in rows], dtype=float).reshape(len(rows), -1)
        assert len(header.split(",")) == table.shape[1] == 1 + 3 * n
    else:
        doc = json.loads(text)
        table = np.column_stack([doc["times"], np.reshape(doc["states"], (-1, 2 * n)),
                                 doc["populations"]])
    assert np.isfinite(table).all()
    return len(table)


@settings(max_examples=300, deadline=None)
@given(cli_draws())
def test_the_cli_keeps_its_contract(drawn):
    ini, stray_lines, argv, names = drawn
    with tempfile.TemporaryDirectory() as tmp:
        sections = {"levels": [], "drive": [], "run": []}
        for (section, key), value in ini.items():
            sections[section].append(f"{key} = {value}")
        for section, line in stray_lines:
            sections.setdefault(section, []).append(line)
        cfg = Path(tmp) / "run.ini"
        cfg.write_text("".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                               for section, lines in sections.items()).replace("{tmp}", tmp))
        argv = [arg.replace("{cfg}", str(cfg)).replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        command = argv[0]
        assert code in (0, 2, 3, 4)
        if names is not None:
            assert code == 2
        if code == 3 and command == "exact-check":  # its report, on stdout
            assert err == "" and json.loads(out)["satisfied"] is False
        elif code:
            assert out == "" and len(err.splitlines()) == 1, err
            record = json.loads(err)
            assert record["error"] in cli.RUN_FAILURES
            if names is not None:
                assert record["error"] == "config"
                assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", record["message"])
                           for name in names), (names, record["message"])
        elif command in ("evolve", "compare"):
            samples = int(_last(argv, "--samples") or ini[("run", "samples")])
            output = _last(argv, "--output")
            output = ini.get(("run", "output"), "") if output is None else output
            text = Path(output.replace("{tmp}", tmp)).read_text() if output else out
            if command == "evolve":  # every ladder a run can use has three levels
                fmt = _last(argv, "--format") or ini.get(("run", "format"), "csv")
                assert _finite_rows(text, fmt, 3) == samples
            else:
                report = json.loads(text)["report"]
                assert np.shape(report["table"]) == (samples, 4)
                assert np.isfinite(report["table"]).all()
        elif command == "sweep":
            runs = json.loads((Path(tmp) / "sweep" / "manifest.json").read_text())["runs"]
            assert len(runs) == len(_last(argv, "--values").replace(",", " ").split())
            assert all(run["status"] == "ok" for run in runs)
        elif command == "spectrum":
            rows = [row.split() for row in out.splitlines() if not row.startswith("#")]
            assert len(rows) == 2 * int(_last(argv, "--n"))
            assert np.isfinite(np.array([float(x) for row in rows for x in row])).all()
        else:
            assert json.loads(out)["satisfied"] is True

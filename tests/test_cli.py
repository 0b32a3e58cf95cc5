import argparse
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlevel_rabi.cli as cli
from nlevel_rabi.cli import (RUN_KEYS, SOLVER_TABLE, SWEEP_KEYS, RunConfig, build_parser,
                              load_config, main, run_solver)
from nlevel_rabi.model import ConfigError


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
    "dyson2-detuned-adjacent": (["evolve", "{cfg}", "--solver", "dyson2"], {
        "frequencies": "explicit", "g": "0.05", "t_max": "10.0",
        "extra_drive": "omega_0_1 = 1.3\nomega_1_2 = 1.0\nomega_0_2 = 2.3"}),
    "spectrum-n-1": (["spectrum", "--n", "1"], {}),
    # output paths that cannot be written, refused before any solve
    "evolve-output-missing-dir": (["evolve", "{cfg}", "--output", "{out}/x.csv"], {}),
    "compare-output-missing-dir": (["compare", "{cfg}", "--solvers", "exact,numeric-rwa",
                                    "--output", "{out}/r.json"], {}),
    "sweep-outdir-is-a-file": (SWEEP[:-1] + ["{cfg}"], {}),
    # a sweep with no values, refused before --outdir is made
    **{f"sweep-values-{name}": (SWEEP[:5] + [values] + SWEEP[6:], {})
       for name, values in [("empty", ""), ("comma", ","), ("space", " ")]},
}


@pytest.mark.parametrize("argv, config", REFUSED.values(), ids=REFUSED.keys())
def test_refused_argv_exits_2_with_one_json_line(tmp_path, capsys, argv, config):
    if isinstance(config, str):
        cfg = tmp_path / "run.ini"
        cfg.write_text(config)
    else:
        cfg = write_config(tmp_path, **{"samples": "3", "t_max": "2.0", **config})
    outdir = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=outdir) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "config"
    assert not outdir.exists()


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
    runs = json.loads((outdir / "manifest.json").read_text())["runs"]
    for run, value in zip(runs, values.split(",")):
        solo = tmp_path / f"solo_{run['index']}.csv"
        assert main(["evolve", cfg, flag, value, "--output", str(solo)]) == 0
        assert (outdir / run["file"]).read_bytes() == solo.read_bytes()


def test_compare_runs_two_rk4_legs_as_one_stack(tmp_path, monkeypatch):
    sizes = _record_stacks(monkeypatch)
    cfg = write_config(tmp_path, t_max="1.0", samples="5")
    stacked, solo = tmp_path / "stacked.json", tmp_path / "solo.json"
    assert main(["compare", cfg, "--solvers", "numeric-rwa,numeric-full",
                 "--output", str(stacked)]) == 0
    assert sizes == [2]
    base = load_config(cfg, {"output": str(stacked)})
    report = cli.compare(*(run_solver(replace(base, solver=name))
                           for name in ("numeric-rwa", "numeric-full")))
    doc = {"solvers": ["numeric-rwa", "numeric-full"], "config": base.to_dict(),
           "report": report.to_dict()}
    assert stacked.read_text() == json.dumps(doc, indent=2) + "\n"


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
    assert failed["error"].startswith("non-finite state at t = ")


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

"""Command-line front end: spectrum, evolve, exact-check, compare, sweep.

Configuration lives in an INI-style file with three sections::

    [levels]
    energies = 0.0, 1.0, 2.0      ; strictly increasing, any units (hbar = 1)

    [drive]
    g = 0.1                       ; coupling constant (> 0)
    frequencies = resonant        ; 'resonant' or 'explicit'
    omega_0_2 = 2.1               ; per-pair keys; overrides under 'resonant',
                                  ; all pairs required under 'explicit'

    [run]
    solver = exact                ; exact | dyson1 | dyson2 | numeric-rwa | numeric-full
    t_max = 10.0
    samples = 201
    initial = 0                   ; level index, or amplitude list '1, 0, 1j'
    output = trajectory.csv       ; omit to write to stdout
    format = csv                  ; csv | json

Command-line flags override file keys.  Exit codes: 0 success, 2 config
error or failed write, 3 precondition failure (e.g. consistency violation),
4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dyson import DysonConfig, approximate_solution_3, dyson_state, max_quadrature_step
from .exact import ConsistencyError, check_consistency, default_consistency_tol, exact_evolution
from .model import (
    ConfigError,
    DriveSpec,
    LevelSpec,
    StateVector,
    apply_resonance,
    detunings,
    full_hamiltonian,
    full_hamiltonian_nonrwa,
    is_resonant,
    to_lab_frame,
)
from .propagate import (
    IntegratorConfig,
    NumericFailure,
    StepBudgetExceeded,
    Trajectory,
    compare,
    integrate,
    integrate_stack,
)
from .spectral import coupling_matrix, decompose

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved simulation run."""

    energies: tuple
    g: float
    omega: dict
    solver: str
    t_max: float
    samples: int
    initial: tuple
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.solver not in SOLVER_TABLE:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if not 0 < self.t_max < np.inf:
            raise ConfigError("t_max must be positive and finite")
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(
            self, "omega", {(int(i), int(j)): float(w) for (i, j), w in self.omega.items()}
        )
        amp = np.asarray(self.initial, dtype=complex)
        norm = np.linalg.norm(amp)
        if norm == 0:
            raise ConfigError("initial state must be nonzero")
        object.__setattr__(self, "initial", tuple(complex(z) for z in amp / norm))

    __hash__ = None  # omega is a dict

    @property
    def levels(self) -> LevelSpec:
        return LevelSpec(self.energies)

    @property
    def rwa(self) -> bool:
        return self.solver != "numeric-full"

    @property
    def drive(self) -> DriveSpec:
        return DriveSpec(n=len(self.energies), omega=self.omega, g=self.g, rwa=self.rwa)

    @property
    def psi0(self) -> StateVector:
        return StateVector(np.asarray(self.initial))

    def to_dict(self) -> dict:
        return {
            "energies": list(self.energies),
            "g": self.g,
            "omega": {f"{i},{j}": w for (i, j), w in sorted(self.omega.items())},
            "solver": self.solver,
            "t_max": self.t_max,
            "samples": self.samples,
            "initial": [[z.real, z.imag] for z in self.initial],
            "output": self.output,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        omega = {tuple(int(x) for x in k.split(",")): float(v) for k, v in d["omega"].items()}
        initial = tuple(complex(re, im) for re, im in d["initial"])
        return cls(
            energies=tuple(d["energies"]),
            g=float(d["g"]),
            omega=omega,
            solver=d["solver"],
            t_max=float(d["t_max"]),
            samples=int(d["samples"]),
            initial=initial,
            output=d.get("output"),
            format=d.get("format", "csv"),
        )


def _parse_float_list(text: str):
    return [float(x) for x in text.replace(",", " ").split()]


def _parse_initial(text: str, n: int):
    text = text.strip()
    parts = [p.strip() for p in text.split(",")] if "," in text else [text]
    if len(parts) == 1 and "." not in text and "j" not in text:
        k = int(text)
        if not 0 <= k < n:
            raise ConfigError(f"initial level index {k} out of range for n={n}")
        amp = [0.0] * n
        amp[k] = 1.0
        return tuple(amp)
    amps = tuple(complex(p.replace(" ", "")) for p in parts)
    if len(amps) != n:
        raise ConfigError(f"initial amplitude list must have {n} entries")
    return amps


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse the INI config, apply overrides (run key -> text), resolve frequencies."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    ov = overrides or {}
    try:
        energies = tuple(_parse_float_list(parser.get("levels", "energies")))
        levels = LevelSpec(energies)
        mode = parser.get("drive", "frequencies", fallback="resonant").strip().lower()
        run = {}
        for key, (section, fallback, parse, _) in RUN_KEYS.items():
            text = ov.get(key, parser.get(section, key, fallback=fallback))
            if text is None:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
            run[key] = parse(text)
        run["initial"] = _parse_initial(run["initial"], levels.n)
        pair_keys = {}
        for key, value in parser.items("drive"):
            if key.startswith("omega_"):
                _, i, j = key.split("_")
                pair_keys[(int(i), int(j))] = float(value)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if ov.get("resonant") or "epsilon" in ov:
        mode = "resonant"  # the resonant adjacent frequencies replace the file's
        pair_keys = {ij: w for ij, w in pair_keys.items() if ij[1] - ij[0] != 1}
    if "epsilon" in ov:
        if levels.n != 3:
            raise ConfigError("--epsilon is the n=3 detuning knob")
        pair_keys[(0, 2)] = float(levels.deltas[2]) + float(ov["epsilon"])

    if mode == "resonant":
        omega = dict(apply_resonance(levels, run["g"], nonadjacent=pair_keys).omega)
    elif mode == "explicit":
        omega = pair_keys
    else:
        raise ConfigError("frequencies must be 'resonant' or 'explicit'")

    return RunConfig(energies=energies, omega=omega, **run)


def _integrator_for(cfg: RunConfig, step_override=None, max_steps=None) -> IntegratorConfig:
    scale = max(
        max(cfg.omega.values()),
        float(np.max(np.abs(cfg.levels.deltas))),
        cfg.g,
        1.0,
    )
    step = step_override if step_override is not None else min(1e-3, 0.1 / scale)
    kwargs = {"step": step}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    return IntegratorConfig(**kwargs)


def _solve_exact(cfg: RunConfig, grid, step, max_steps):
    return exact_evolution(cfg.levels, cfg.drive, cfg.psi0, grid)


def _solve_dyson1(cfg: RunConfig, grid, step, max_steps):
    if len(cfg.energies) != 3:
        raise ConfigError("dyson1 uses the closed-form path and requires n = 3")
    if not np.array_equal(cfg.psi0.amp, [1.0, 0.0, 0.0]):
        raise ConfigError("dyson1 closed form starts from the ground state")
    return approximate_solution_3(cfg.levels, cfg.drive, grid)


def _solve_dyson2(cfg: RunConfig, grid, step, max_steps):
    drive = cfg.drive
    if not is_resonant(cfg.levels, drive):
        raise ConfigError("dyson2 requires the resonance conditions omega_j = E_j - E_{j-1}")
    det = detunings(drive)
    dyson_cfg = DysonConfig(order=2, quadrature_step=0.5 * max_quadrature_step(drive.g, det))
    return to_lab_frame(drive, grid, dyson_state(drive.n, drive.g, det, cfg.psi0, grid, dyson_cfg))


def _h_fn(cfg: RunConfig):
    return (full_hamiltonian if cfg.rwa else full_hamiltonian_nonrwa)(cfg.levels, cfg.drive)


def _solve_numeric(cfg: RunConfig, grid, step, max_steps):
    return integrate(_h_fn(cfg), cfg.psi0, grid, _integrator_for(cfg, step, max_steps)).states


# solver name -> fn(cfg, grid, step, max_steps) -> states, one row per grid time
SOLVER_TABLE = {"exact": _solve_exact, "dyson1": _solve_dyson1, "dyson2": _solve_dyson2,
                "numeric-rwa": _solve_numeric, "numeric-full": _solve_numeric}

# run key -> (INI section, fallback text or None if the file must give the key, parse, flag help);
# flag overrides and sweep values are text, parsed the same way as the file's value
RUN_KEYS = {
    "g": ("drive", None, float, "coupling constant"),
    "solver": ("run", "numeric-rwa", str, " | ".join(SOLVER_TABLE)),
    "t_max": ("run", None, float, "last sample time"),
    "samples": ("run", "101", int, "number of samples"),
    "initial": ("run", "0", str, "level index or amplitude list"),  # resolved once n is known
    "output": ("run", "", lambda text: text or None, "output file; stdout when omitted"),
    "format": ("run", "csv", str, "csv | json"),
}


def run_solver(cfg: RunConfig, step_override=None, max_steps=None) -> Trajectory:
    """Run cfg's solver once over the whole time grid and return the trajectory."""
    grid = np.linspace(0.0, cfg.t_max, cfg.samples)
    return Trajectory(grid, SOLVER_TABLE[cfg.solver](cfg, grid, step_override, max_steps))


# run status -> (what a run fails with, exit code); ConsistencyError is a ConfigError, so it is
# first; an io run solved but its file could not be written
RUN_FAILURES = {
    "consistency": (ConsistencyError, EXIT_PRECONDITION),
    "config": (ConfigError, EXIT_CONFIG),
    "io": (OSError, EXIT_CONFIG),
    "numeric": ((NumericFailure, StepBudgetExceeded), EXIT_NUMERIC),
}


def _status(exc: Exception) -> str:
    return next(status for status, (kind, _) in RUN_FAILURES.items() if isinstance(exc, kind))


def _tasks(cfgs, step, max_steps) -> list:
    """Indices of cfgs, grouped into tasks.

    RK4 runs (numeric-rwa and numeric-full alike) that share n, t_max, samples
    and integrator settings form one task, solved as one RK4 stack; every
    other run is a task of its own.
    """
    tasks = {}
    for idx, cfg in enumerate(cfgs):
        key = idx
        if SOLVER_TABLE[cfg.solver] is _solve_numeric:
            key = (len(cfg.energies), cfg.t_max, cfg.samples, _integrator_for(cfg, step, max_steps))
        tasks.setdefault(key, []).append(idx)
    return list(tasks.values())


def _run_task(cfgs, step, max_steps) -> list:
    """Per cfg of one task: its Trajectory, or the refusal or failure of its run."""
    if len(cfgs) == 1:
        try:
            return [run_solver(cfgs[0], step, max_steps)]
        except (ConfigError, NumericFailure, StepBudgetExceeded) as exc:
            return [exc]
    grid = np.linspace(0.0, cfgs[0].t_max, cfgs[0].samples)
    return integrate_stack([_h_fn(cfg) for cfg in cfgs], [cfg.psi0 for cfg in cfgs], grid,
                           _integrator_for(cfgs[0], step, max_steps))


def _run_all(cfgs, tasks, step, max_steps, finish, pool_map=map) -> list:
    """finish(index, result) for every cfg, where result is what _run_task gives for it.

    The tasks (from ``_tasks``) go through ``pool_map``.  finish runs in the
    task's worker, so a sweep writes each trajectory and drops it as its task
    ends; finish's values come back in the order of cfgs.
    """
    def run(task):
        results = _run_task([cfgs[idx] for idx in task], step, max_steps)
        return [(idx, finish(idx, result)) for idx, result in zip(task, results)]

    done = dict(itertools.chain.from_iterable(pool_map(run, tasks)))
    return [done[idx] for idx in range(len(cfgs))]


def _check_output(path):
    """Refuse an output file whose directory is missing or that names a directory."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ConfigError(f"output {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"output directory of {path} does not exist")


def _write_trajectory(traj: Trajectory, cfg: RunConfig):
    target = cfg.output if cfg.output is not None else sys.stdout
    if cfg.format == "csv":
        traj.to_csv(target)
    else:
        traj.to_json(target, config=cfg.to_dict())


def cmd_spectrum(args) -> int:
    n = args.n
    if n < 2:
        raise ConfigError("--n must be at least 2")
    dec = decompose(n)
    c = coupling_matrix(n)
    print("# closed-form eigenvalues lambda_j = 2*cos(pi*j/(n+1))")
    for j, lam in enumerate(dec.eigenvalues, start=1):
        print(f"{j} {lam:.17g}")
    print("# orthogonal basis O")
    for row in dec.basis:
        print(" ".join(f"{x:.17g}" for x in row))
    residual = float(np.max(np.abs(c @ dec.basis - dec.basis * dec.eigenvalues)))
    print(f"# max eigen residual: {residual:.3g}")
    return EXIT_OK


def _refuse_idle_rk4_flags(args, cfgs):
    if ((args.step is not None or args.max_steps is not None)
            and all(SOLVER_TABLE[cfg.solver] is not _solve_numeric for cfg in cfgs)):
        raise ConfigError("--step and --max-steps need a numeric-rwa or numeric-full run")


def cmd_evolve(args) -> int:
    cfg = load_config(args.config, _flag_overrides(args))
    _refuse_idle_rk4_flags(args, [cfg])
    _check_output(cfg.output)
    traj = run_solver(cfg, step_override=args.step, max_steps=args.max_steps)
    _write_trajectory(traj, cfg)
    print(f"# solver={cfg.solver} samples={cfg.samples} norm_drift={traj.norm_drift():.3g}",
          file=sys.stderr)
    return EXIT_OK


def cmd_exact_check(args) -> int:
    cfg = load_config(args.config, _flag_overrides(args))
    report = check_consistency(detunings(cfg.drive), default_consistency_tol(cfg.drive))
    doc = {
        "satisfied": report.satisfied,
        "violations": [{"pair": list(ij), "epsilon": v} for ij, v in report.violations],
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK if report.satisfied else EXIT_PRECONDITION


def cmd_compare(args) -> int:
    solvers = [name.strip() for name in args.solvers.split(",")]
    if len(solvers) != 2:
        raise ConfigError(f"--solvers takes exactly two names, got {args.solvers!r}")
    base = load_config(args.config, _flag_overrides(args))
    cfgs = [replace(base, solver=name) for name in solvers]
    _refuse_idle_rk4_flags(args, cfgs)
    _check_output(args.output)
    trajs = _run_all(cfgs, _tasks(cfgs, args.step, args.max_steps), args.step, args.max_steps,
                     lambda idx, result: result)
    for result in trajs:
        if isinstance(result, Exception):
            raise result
    report = compare(*trajs)
    doc = {
        "solvers": solvers,
        "config": base.to_dict(),
        "report": report.to_dict(),
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


# section.key for every run key but output, which a sweep sets per run
SWEEP_KEYS = tuple(f"{sec}.{key}" for key, (sec, *_) in RUN_KEYS.items() if key != "output")


def cmd_sweep(args) -> int:
    if args.param not in SWEEP_KEYS:
        raise ConfigError(f"cannot sweep {args.param!r}; sweepable keys: {', '.join(SWEEP_KEYS)}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    flags = _flag_overrides(args)
    base = load_config(args.config, flags)
    key = args.param.partition(".")[2]
    values = args.values.replace(",", " ").split()
    if not values:
        raise ConfigError(f"--values {args.values!r} holds no values")
    # every value is resolved, and so refused, before anything is written
    cfgs = [load_config(args.config, {**flags, key: text}) for text in values]
    _refuse_idle_rk4_flags(args, cfgs)
    tasks = _tasks(cfgs, args.step, args.max_steps)  # refuses a bad --step or --max-steps
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --outdir {outdir}: {exc.strerror}") from exc

    def finish(idx, result):
        cfg = cfgs[idx]
        path = outdir / f"run_{idx:03d}.{cfg.format}"
        entry = {"index": idx, "param": args.param, "value": cfg.to_dict()[key]}
        if not isinstance(result, Exception):
            try:
                _write_trajectory(result, replace(cfg, output=str(path)))
            except OSError as exc:
                result = exc
            else:
                return {**entry, "status": "ok", "error": None, "file": path.name,
                        "norm_drift": result.norm_drift()}
        return {**entry, "status": _status(result), "error": str(result), "file": None,
                "norm_drift": None}

    # --jobs caps the tasks that run at once; one task may be a whole RK4 stack
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        entries = _run_all(cfgs, tasks, args.step, args.max_steps, finish, pool.map)
    manifest = {"config": base.to_dict(), "param": args.param, "runs": entries}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    failed = [entry for entry in entries if entry["status"] != "ok"]
    if failed:
        # the smallest exit code among the failed runs: config, io 2 < consistency 3 < numeric 4
        status = min((entry["status"] for entry in failed), key=lambda st: RUN_FAILURES[st][1])
        message = (f"sweep runs {[entry['index'] for entry in failed]} failed; "
                   f"see {outdir / 'manifest.json'}")
        print(json.dumps({"error": status, "message": message}), file=sys.stderr)
        return RUN_FAILURES[status][1]
    print(f"# wrote {len(entries)} runs to {outdir}", file=sys.stderr)
    return EXIT_OK


def _flag_overrides(args) -> dict:
    return {key: getattr(args, key) for key in (*RUN_KEYS, "resonant", "epsilon")
            if getattr(args, key, None) is not None}


def _add_run_flags(p, keys, rk4):
    """The config file, one --flag per run key in keys, and the frequency flags."""
    p.add_argument("config", help="INI configuration file")
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=RUN_KEYS[key][3])
    if rk4:
        p.add_argument("--step", type=float, help="integrator step override")
        p.add_argument("--max-steps", dest="max_steps", type=int,
                       help="integrator step budget override")
    p.add_argument("--resonant", action="store_true",
                   help="force resonant adjacent frequencies")
    p.add_argument("--epsilon", type=float,
                   help="n=3 convenience: detune omega_02 by this amount")


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals are ConfigErrors, reported like every other refusal."""

    def __init__(self, *args, **kwargs):
        # no abbreviations: compare --solver is refused, not read as --solvers
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and reused after it."""
    parser = _Parser(
        prog="nlevel-rabi",
        description="Multilevel Rabi oscillation simulator (RWA).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form eigenvalues and basis of C")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("evolve", help="run one solver, write a trajectory")
    _add_run_flags(p, RUN_KEYS, rk4=True)

    p = sub.add_parser("exact-check", help="report the consistency condition")
    _add_run_flags(p, (), rk4=False)

    p = sub.add_parser("compare", help="run two solvers, emit a deviation report")
    _add_run_flags(p, [k for k in RUN_KEYS if k not in ("solver", "format")], rk4=True)
    p.add_argument("--solvers", required=True, help="pair like 'exact,numeric-rwa'")

    p = sub.add_parser("sweep", help="fan a parameter over values, one file per run")
    _add_run_flags(p, [k for k in RUN_KEYS if k != "output"], rk4=True)
    p.add_argument("--param", required=True, help="key to sweep, e.g. drive.g")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--outdir", required=True)
    p.add_argument("--jobs", type=int, default=4)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, not bound when the parser is built, so that a
        # cmd_* function replaced after the first call (as bench/spans.py does) runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConsistencyError as exc:
        record = {
            "error": "consistency",
            "message": str(exc),
            "violations": [{"pair": list(ij), "epsilon": v} for ij, v in exc.report.violations],
        }
        print(json.dumps(record), file=sys.stderr)
        return EXIT_PRECONDITION
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailure, StepBudgetExceeded) as exc:
        print(json.dumps({"error": "numeric", "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an output that passed _check_output but could not be written
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

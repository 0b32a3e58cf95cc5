"""Command-line front end: spectrum, evolve, exact-check, compare, sweep.

Configuration lives in an INI-style file with three sections::

    [levels]
    energies = 0.0, 1.0, 2.0      ; strictly increasing, any units (hbar = 1)

    [drive]
    g = 0.1                       ; coupling constant (> 0)
    frequencies = resonant        ; 'resonant' or 'explicit', even with --resonant/--epsilon
    omega_0_2 = 2.1               ; per-pair keys; overrides under 'resonant',
                                  ; all pairs required under 'explicit'

    [run]
    solver = exact                ; exact | dyson1 | dyson2 | numeric-rwa | numeric-full
    t_max = 10.0
    samples = 201
    initial = 0                   ; level index, or amplitude list '1, 0, 1j'
    output = trajectory.csv       ; omit to write to stdout
    format = csv                  ; csv | json

Command-line flags override file keys; any other section or key is refused.
Exit codes: 0 success, 2 config error or failed write, 3 precondition failure
(e.g. consistency violation), 4 numeric failure or a run that cannot allocate
its arrays (a ``samples`` or ``spectrum --n`` numpy cannot size included).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dyson import DysonConfig, approximate_solution_3, dyson_state, max_quadrature_step
from .exact import ConsistencyError, check_consistency, exact_evolution
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
    _opened,
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
    """One fully resolved simulation run.

    Construction builds the run's ``levels``, ``drive`` (RWA unless the solver is
    numeric-full), ``psi0`` and RK4 ``integrator`` (None unless the solver
    integrates) once, so a fault any of them would reveal is refused here, before
    anything runs or is written.  ``initial`` must be unit amplitudes; they are
    checked, never rescaled, so ``replace`` and ``from_dict`` keep their bits.
    """

    energies: tuple
    g: float
    omega: dict
    solver: str
    t_max: float
    samples: int
    initial: tuple
    output: str | None = None
    format: str = "csv"
    step: float | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if self.solver not in SOLVER_TABLE:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.samples < 2:
            raise ConfigError("samples must be >= 2")
        if not 0 < self.t_max < np.inf:
            raise ConfigError("t_max must be positive and finite")
        levels = LevelSpec(self.energies)
        drive = DriveSpec(levels.n, self.omega, self.g, rwa=self.solver != "numeric-full")
        psi0 = StateVector(self.initial)
        if psi0.n != levels.n:
            raise ConfigError(f"initial state must have {levels.n} amplitudes")
        if 16 * self.samples * levels.n > np.iinfo(np.intp).max:  # numpy cannot size the grid
            # integers only: a float of samples would overflow past 308 digits
            raise MemoryError(f"Unable to allocate {self.samples} samples of {levels.n} "
                              "amplitudes (16 bytes each)")
        spacing = self.t_max / (self.samples - 1)  # samples is sized above: no overflow
        if spacing < np.finfo(float).tiny:  # a normal spacing repeats no time
            raise ConfigError(f"t_max / (samples - 1) = {spacing:.3g} is below the smallest "
                              "normal float, so sample times may repeat")
        integrator = None
        if SOLVER_TABLE[self.solver] is _solve_numeric:
            # a step of 0.1 over the fastest rate (at most 1e-3) unless overridden
            scale = max(*drive.omega.values(), *levels.energies, self.g, 1.0)
            integrator = IntegratorConfig(
                min(1e-3, 0.1 / scale) if self.step is None else self.step,
                IntegratorConfig.max_steps if self.max_steps is None else self.max_steps)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "omega", drive.omega)
        object.__setattr__(self, "initial", tuple(complex(z) for z in psi0.amp))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "drive", drive)
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "integrator", integrator)

    __hash__ = None  # omega is a dict

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(energies=list(self.energies),
                 omega={f"{i},{j}": w for (i, j), w in sorted(self.omega.items())},
                 initial=[[z.real, z.imag] for z in self.initial])
        # the RK4 settings only when given, so every other run's provenance is unchanged
        return {key: v for key, v in d.items() if v is not None or key not in ("step", "max_steps")}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(**{**d, "omega": {tuple(int(x) for x in k.split(",")): float(v)
                                     for k, v in d["omega"].items()},
                      "initial": tuple(complex(re, im) for re, im in d["initial"])})


def _parse_initial(text: str, n: int) -> tuple:
    """Unit amplitudes from a level index or an amplitude list, normalised here, once."""
    text = text.strip()
    parts = [p.strip() for p in text.split(",")] if "," in text else [text]
    if len(parts) == 1 and "." not in text and "j" not in text:
        k = int(text)
        if not 0 <= k < n:
            raise ConfigError(f"level index {k} out of range for n={n}")
        return tuple(float(i == k) for i in range(n))
    amps = tuple(complex(p.replace(" ", "")) for p in parts)
    if len(amps) != n:
        raise ConfigError(f"amplitude list must have {n} entries")
    return tuple(StateVector.normalized(amps).amp)


def _parsed(key: str, parse, text):
    """parse(text); a ValueError it raises, ConfigError too, is refused naming ``key``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _run_value(key: str, text: str, n: int):
    """Run key ``key`` of an n-level run from its text: a file key, a flag or a sweep value."""
    parse = RUN_KEYS[key][2]
    return _parsed(key, functools.partial(parse, n=n) if key == "initial" else parse, text)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse the INI config, apply overrides (run key -> text), resolve frequencies."""
    # no section header can name "", so [DEFAULT] is a section like any other (and refused);
    # values are read as written, '%' included
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="",
                                       interpolation=None)
    ov = overrides or {}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        unread = [f"[{section}]" for section in parser.sections() if section not in FILE_KEYS]
        unread += [f"[{section}] {key}" for section in FILE_KEYS if parser.has_section(section)
                   for key in parser[section] if key not in FILE_KEYS[section]
                   and not (section == "drive" and key.startswith("omega_"))]
        if unread:
            raise ConfigError(f"config keys that no run reads: {', '.join(unread)}")
        mode = parser.get("drive", "frequencies", fallback="resonant").strip().lower()
        if mode not in ("resonant", "explicit"):
            raise ConfigError("frequencies must be 'resonant' or 'explicit'")
        text = parser.get("levels", "energies").replace(",", " ")
        energies = _parsed("energies", lambda t: tuple(map(float, t.split())), text)
        levels = _parsed("energies", LevelSpec, energies)
        run = {}
        for key, (section, fallback, *_) in RUN_KEYS.items():
            text = ov.get(key, parser.get(section, key, fallback=fallback))
            if text is None:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
            run[key] = _run_value(key, text, levels.n)
        pair_keys, spelled = {}, {}
        for key, value in parser.items("drive"):
            if key.startswith("omega_"):
                ij = key.split("_")[1:]
                if len(ij) != 2 or not all(part.isdecimal() for part in ij):
                    raise ConfigError(f"frequency key {key!r} is not omega_i_j with level "
                                      "indices i and j")
                pair = (int(ij[0]), int(ij[1]))
                if pair in spelled:
                    raise ConfigError(f"frequency keys {spelled[pair]!r} and {key!r} both set "
                                      f"pair {pair}")
                spelled[pair] = key
                pair_keys[pair] = _parsed(key, float, value)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if ov.get("resonant") or "epsilon" in ov:
        mode = "resonant"  # the resonant adjacent frequencies replace the file's
        pair_keys = {ij: w for ij, w in pair_keys.items() if ij[1] - ij[0] != 1}
    if "epsilon" in ov:
        if levels.n != 3:
            raise ConfigError("--epsilon is the n=3 detuning knob")
        epsilon = float(ov["epsilon"])
        pair_keys[(0, 2)] = omega = float(levels.deltas[2]) + epsilon
        if not 0 < omega < np.inf:  # refused here, naming the flag, not the key it sets
            raise ConfigError(f"--epsilon {epsilon:g} gives omega_0_2 = {omega:g}; drive "
                              "frequencies must be positive and finite")

    omega = (dict(apply_resonance(levels, run["g"], nonadjacent=pair_keys).omega)
             if mode == "resonant" else pair_keys)
    return RunConfig(energies=energies, omega=omega, step=ov.get("step"),
                     max_steps=ov.get("max_steps"), **run)


def _solve_exact(cfg: RunConfig, grid):
    return exact_evolution(cfg.levels, cfg.drive, cfg.psi0, grid)


def _solve_dyson1(cfg: RunConfig, grid):
    if len(cfg.energies) != 3:
        raise ConfigError("dyson1 uses the closed-form path and requires n = 3")
    if not np.array_equal(cfg.psi0.amp, [1.0, 0.0, 0.0]):
        raise ConfigError("dyson1 closed form starts from the ground state")
    return approximate_solution_3(cfg.levels, cfg.drive, grid)


def _solve_dyson2(cfg: RunConfig, grid):
    drive = cfg.drive
    if not is_resonant(cfg.levels, drive):
        raise ConfigError("dyson2 requires the resonance conditions omega_j = E_j - E_{j-1}")
    det = detunings(drive)
    dyson_cfg = DysonConfig(order=2, quadrature_step=0.5 * max_quadrature_step(drive.g, det))
    return to_lab_frame(drive, grid, dyson_state(drive.n, drive.g, det, cfg.psi0, grid, dyson_cfg))


def _h_fn(cfg: RunConfig):
    return (full_hamiltonian if cfg.drive.rwa else full_hamiltonian_nonrwa)(cfg.levels, cfg.drive)


def _solve_numeric(cfg: RunConfig, grid):
    return integrate(_h_fn(cfg), cfg.psi0, grid, cfg.integrator).states


# solver name -> fn(cfg, grid) -> states, one row per grid time
SOLVER_TABLE = {"exact": _solve_exact, "dyson1": _solve_dyson1, "dyson2": _solve_dyson2,
                "numeric-rwa": _solve_numeric, "numeric-full": _solve_numeric}

# run key -> (INI section, fallback text or None if the file must give the key, parse, flag help);
# a file key, a flag override and a sweep value are text, each parsed by _run_value
RUN_KEYS = {
    "g": ("drive", None, float, "coupling constant"),
    "solver": ("run", "numeric-rwa", str, " | ".join(SOLVER_TABLE)),
    "t_max": ("run", None, float, "last sample time"),
    "samples": ("run", "101", int, "number of samples"),
    "initial": ("run", "0", _parse_initial, "level index or amplitude list"),  # takes n too
    "output": ("run", "", lambda text: text or None, "output file; stdout when omitted"),
    "format": ("run", "csv", str, "csv | json"),
}

# INI section -> the keys a run reads there; [drive] also takes one omega_i_j key per pair
FILE_KEYS = {"levels": {"energies"},
             "drive": {"frequencies", *(k for k, (sec, *_) in RUN_KEYS.items() if sec == "drive")},
             "run": {k for k, (sec, *_) in RUN_KEYS.items() if sec == "run"}}


def _sample_grid(cfg: RunConfig) -> np.ndarray:
    """cfg's sample times, ``samples`` of them evenly from 0 to ``t_max``.

    Near the largest float, linspace's product for the last time overflows before
    linspace sets that time to ``t_max``, so its overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        return np.linspace(0.0, cfg.t_max, cfg.samples)


def run_solver(cfg: RunConfig) -> Trajectory:
    """Run cfg's solver once over the whole time grid and return the trajectory.

    A grid with an amplitude or population that is not finite (a closed form whose
    floats overflow, say) fails as NumericFailure, without numpy's warnings on the way.
    """
    grid = _sample_grid(cfg)
    with np.errstate(all="ignore"):
        states = SOLVER_TABLE[cfg.solver](cfg, grid)
        finite = np.isfinite(np.abs(states) ** 2).all(axis=1)
    if not finite.all():
        raise NumericFailure(f"{cfg.solver} gave a non-finite amplitude or population "
                             f"at t = {grid[np.argmin(finite)]:.6g}")
    return Trajectory(grid, states)


# status -> (what a command or run fails with, exit code): the one table of refusals and
# failures.  ConsistencyError is a ConfigError, so it is first; io is an unwritable output,
# memory a run that cannot allocate its arrays
RUN_FAILURES = {
    "consistency": ((ConsistencyError,), EXIT_PRECONDITION),
    "config": ((ConfigError,), EXIT_CONFIG),
    "io": ((OSError,), EXIT_CONFIG),
    "numeric": ((NumericFailure, StepBudgetExceeded), EXIT_NUMERIC),
    "memory": ((MemoryError,), EXIT_NUMERIC),
}
_FAILURES = sum((kinds for kinds, _ in RUN_FAILURES.values()), ())


def _status(exc: Exception) -> str:
    return next(status for status, (kinds, _) in RUN_FAILURES.items() if isinstance(exc, kinds))


def _refusal(status: str, message: str, **extra) -> int:
    """Print the one-line JSON error record of a refused or failed command; its exit code."""
    print(json.dumps({"error": status, "message": message, **extra}), file=sys.stderr)
    return RUN_FAILURES[status][1]


def _violations(violations) -> list:
    return [{"pair": list(ij), "epsilon": v} for ij, v in violations]


def _run_all(cfgs, finish) -> list:
    """finish(index, result) for every cfg, where result is its Trajectory or the refusal
    or failure of its run.

    RK4 runs (numeric-rwa and numeric-full alike) that share n, t_max, samples
    and integrator settings form one task, solved as one RK4 stack; every
    other run is a task of its own.  The tasks run one after another on the calling thread,
    and finish runs as each task ends, so a sweep writes each trajectory and drops it before
    the next task starts; finish's values keep cfgs' order.
    """
    tasks = {}
    for idx, cfg in enumerate(cfgs):
        key = idx if cfg.integrator is None else (cfg.levels.n, cfg.t_max, cfg.samples,
                                                   cfg.integrator)
        tasks.setdefault(key, []).append(idx)
    done = {}
    for task in tasks.values():
        first = cfgs[task[0]]
        try:
            results = ([run_solver(first)] if len(task) == 1 else integrate_stack(
                [_h_fn(cfgs[idx]) for idx in task], [cfgs[idx].psi0 for idx in task],
                _sample_grid(first), first.integrator))
        except _FAILURES as exc:  # a whole stack's failure (one that cannot allocate) is each run's
            results = [exc] * len(task)
        done.update((idx, finish(idx, result)) for idx, result in zip(task, results))
    return [done[idx] for idx in range(len(cfgs))]


def _check_output(path):
    """Refuse an output file whose directory is missing or that names a directory."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ConfigError(f"output {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"output directory of {path} does not exist")


def _write_trajectory(traj: Trajectory, cfg: RunConfig, output):
    target = output if output is not None else sys.stdout
    if cfg.format == "csv":
        traj.to_csv(target)
    else:
        traj.to_json(target, config={**cfg.to_dict(), "output": output})


def cmd_spectrum(args) -> int:
    n = args.n
    if n < 2:
        raise ConfigError("--n must be at least 2")
    if 8 * n * n > np.iinfo(np.intp).max:
        # integers only: a float of n would overflow past 308 digits
        raise MemoryError(f"Unable to allocate the n x n basis of n = {n} (8 bytes an entry)")
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


def _check_rk4_flags(args, cfgs):
    """Refuse --step and --max-steps unless a run of cfgs integrates (their values are cfgs')."""
    if (args.step, args.max_steps) != (None, None) and all(c.integrator is None for c in cfgs):
        raise ConfigError("--step and --max-steps need a numeric-rwa or numeric-full run")


def _runs(args, base: RunConfig, key: str, texts) -> tuple:
    """base with run key ``key`` set from each text, and the runs' numeric_full_g record: an RWA
    coupling g is a cosine drive of amplitude 2g, so numeric-full runs at 2g beside RWA runs."""
    cfgs = [replace(base, **{key: _run_value(key, text, base.levels.n)}) for text in texts]
    _check_rk4_flags(args, cfgs)
    if len({cfg.drive.rwa for cfg in cfgs}) < 2:
        return cfgs, {}
    g = 2 * base.g
    if g == np.inf:
        raise ConfigError(f"g: numeric-full runs at 2g against an RWA solver, and 2g of "
                          f"g = {base.g!r} overflows")
    return [cfg if cfg.drive.rwa else replace(cfg, g=g) for cfg in cfgs], {"numeric_full_g": g}


def cmd_evolve(args) -> int:
    cfg = load_config(args.config, _flag_overrides(args))
    _check_rk4_flags(args, [cfg])
    _check_output(cfg.output)
    traj = run_solver(cfg)
    _write_trajectory(traj, cfg, cfg.output)
    print(f"# solver={cfg.solver} samples={cfg.samples} norm_drift={traj.norm_drift():.3g}",
          file=sys.stderr)
    return EXIT_OK


def cmd_exact_check(args) -> int:
    cfg = load_config(args.config, _flag_overrides(args))
    violations = check_consistency(cfg.drive)
    print(json.dumps({"satisfied": not violations, "violations": _violations(violations)},
                     indent=2))
    return EXIT_PRECONDITION if violations else EXIT_OK


def cmd_compare(args) -> int:
    solvers = [name.strip() for name in args.solvers.split(",")]
    if len(solvers) != 2:
        raise ConfigError(f"--solvers takes exactly two names, got {args.solvers!r}")
    base = load_config(args.config, _flag_overrides(args))
    cfgs, cosine = _runs(args, base, "solver", solvers)
    _check_output(base.output)
    trajs = _run_all(cfgs, lambda idx, result: result)
    for result in trajs:
        if isinstance(result, Exception):
            raise result
    from . import csvtext  # compiled on the first write, not at every start-up

    doc = {"solvers": solvers, "config": base.to_dict(), **cosine, "report": compare(*trajs)}
    with _opened(base.output if base.output is not None else sys.stdout) as fh:
        csvtext.dump_json(doc, fh)
        fh.write("\n")
    return EXIT_OK


# section.key for every run key but output, which a sweep sets per run
SWEEP_KEYS = tuple(f"{sec}.{key}" for key, (sec, *_) in RUN_KEYS.items() if key != "output")


def cmd_sweep(args) -> int:
    if args.param not in SWEEP_KEYS:
        raise ConfigError(f"cannot sweep {args.param!r}; sweepable keys: {', '.join(SWEEP_KEYS)}")
    key = args.param.partition(".")[2]
    if getattr(args, key) is not None:
        raise ConfigError(f"--{key.replace('_', '-')} sets {args.param!r}, which --values sweeps")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    if not args.outdir:  # Path("") is the working directory
        raise ConfigError("--outdir is empty; it must name a directory")
    base = load_config(args.config, _flag_overrides(args))
    values = args.values.replace(",", " ").split()
    if not values:
        raise ConfigError(f"--values {args.values!r} holds no values")
    # every value is resolved, and so refused, before anything is written
    cfgs, cosine = _runs(args, base, key, values)
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
                _write_trajectory(result, cfg, str(path))
            except OSError as exc:
                result = exc
            else:
                return {**entry, "status": "ok", "error": None, "file": path.name,
                        "norm_drift": result.norm_drift()}
        return {**entry, "status": _status(result), "error": str(result), "file": None,
                "norm_drift": None}

    entries = _run_all(cfgs, finish)
    manifest = {"config": base.to_dict(), "param": args.param, **cosine, "runs": entries}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    failed = [entry for entry in entries if entry["status"] != "ok"]
    if failed:
        # the smallest exit code among the failed runs: config, io 2 < consistency 3 < numeric,
        # memory 4
        status = min((entry["status"] for entry in failed), key=lambda st: RUN_FAILURES[st][1])
        return _refusal(status, f"sweep runs {[entry['index'] for entry in failed]} failed; "
                                f"see {outdir / 'manifest.json'}")
    print(f"# wrote {len(entries)} runs to {outdir}", file=sys.stderr)
    return EXIT_OK


def _flag_overrides(args) -> dict:
    keys = (*RUN_KEYS, "step", "max_steps", "resonant", "epsilon")
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


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
    p.add_argument("--jobs", type=int, default=1,
                   help="at least 1; changes nothing: every sweep runs on the calling thread")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, not bound when the parser is built, so that a
        # cmd_* function replaced after the first call (as bench/spans.py does) runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _FAILURES as exc:
        extra = ({"violations": _violations(exc.violations)}
                 if isinstance(exc, ConsistencyError) else {})
        return _refusal(_status(exc), str(exc), **extra)


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads: INI inputs, CLI command lists and the checks on their outputs.

Each workload is a list of ``nlevel-rabi`` commands run in a closed loop (one
caller; the next command starts when the previous one returns).  All physical
inputs (level ladders, the detuning epsilon, coupling lists) are drawn from
the workload seed; the package only ever sees the generated INI files and argv.

The workloads are chosen so that every layer does its work in one workload
and idles in another (see WHY and bench/README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Deviation limits for the output checks (largest |amplitude - reference|).
# exact: closed-form solver against an eigh evaluation of the same constant
# rotating-frame Hamiltonian; only rounding separates them.
TOL_EXACT = 1e-10
# RK4 legs (step 1e-3) against the eigh or 4th-order Magnus reference.
TOL_RK4 = 1e-7
# Dyson truncations against the frozen seed implementation: the ROADMAP
# output-preservation tolerance.
TOL_DYSON = 1e-13

WHY = {
    "exact-grid": "exact solver, n=8, 1001 samples, CSV: exact_evolution, detunings, "
                  "rotating_frame and the CSV writer work; dyson, spectral and RK4 idle",
    "dyson-detuned": "detuned n=3 through dyson2 (quadrature from t=0 per sample) and dyson1: "
                     "dyson and spectral do the work; output is small, so writers idle",
    "oracle-sweep": "RK4 oracle: threaded sweep of g with JSON output, compare and a non-RWA run; "
                    "Hamiltonian assembly dominates; the closed-form solvers idle",
}


@dataclass(frozen=True)
class Output:
    """One file a command writes, and the reference it must match.

    ``kind`` is ``csv`` or ``json`` for trajectories and ``report`` for a
    ``compare`` report.  ``ref`` is a hashable reference spec understood by
    ``reference.evaluate``; ``family`` names the ``*.max_amp_dev`` metric the
    deviation feeds.
    """

    path: str
    kind: str
    ref: tuple
    tol: float
    family: str


@dataclass(frozen=True)
class Command:
    """argv for ``nlevel_rabi.cli.main``; ``{out}`` is the pass directory."""

    argv: tuple
    outputs: tuple
    rows: int  # trajectory rows written


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inis: tuple  # (file name, text) pairs
    commands: tuple

    @property
    def rows_per_pass(self) -> int:
        return sum(c.rows for c in self.commands)

    def write_inputs(self, workdir: Path) -> list:
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for fname, text in self.inis:
            p = workdir / fname
            p.write_text(text)
            paths.append(str(p))
        return paths

    def argv(self, command: Command, workdir: Path, outdir: Path) -> list:
        return [a.format(inputs=workdir, out=outdir) for a in command.argv]


def _ladder(rng: random.Random, n: int) -> tuple:
    """Strictly increasing energies from 0 with gaps in [0.8, 1.2] (anharmonic)."""
    e = [0.0]
    for _ in range(n - 1):
        e.append(round(e[-1] + rng.uniform(0.8, 1.2), 6))
    return tuple(e)


def _ini(energies, g, run: dict) -> str:
    lines = ["[levels]", "energies = " + ", ".join(repr(x) for x in energies),
             "", "[drive]", f"g = {g!r}", "frequencies = resonant", "", "[run]"]
    lines += [f"{k} = {v}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


# Sizes are chosen so that every command takes 0.05 to 0.3 s: the machine the
# benchmark was tuned on changes speed within seconds, and each command is
# scaled by the calibration rounds just before and after it (calibrate.py),
# so a short command sees the same speed as those rounds.  A 30 s run then
# holds 60 to 200 passes for the median.

def exact_grid(seed: int, jobs: int) -> Workload:
    """n = 8 resonant consistent ladder through the exact solver, CSV out."""
    rng = random.Random(f"exact-grid:{seed}")
    e = _ladder(rng, 8)
    g, t_max, samples = 0.1, 100.0, 1001
    ini = _ini(e, g, {"solver": "exact", "t_max": t_max, "samples": samples, "initial": 0})
    cmd = Command(
        argv=("evolve", "{inputs}/exact.ini", "--solver", "exact", "--output", "{out}/exact.csv"),
        outputs=(Output("exact.csv", "csv", ("rwa", e, g, t_max, samples),
                        TOL_EXACT, "exact"),),
        rows=samples,
    )
    return Workload("exact-grid", seed, (("exact.ini", ini),), (cmd,))


def dyson_detuned(seed: int, jobs: int) -> Workload:
    """n = 3 with the 0-2 drive detuned, through dyson2 and dyson1, CSV out."""
    rng = random.Random(f"dyson-detuned:{seed}")
    e = _ladder(rng, 3)
    # epsilon stays clear of the removable singularities of the n=3 closed form
    # (0, sqrt(2) g and 2 sqrt(2) g for g = 0.1 and 1), where it loses digits.
    eps = round(rng.uniform(0.32, 0.48), 6)
    ini = _ini(e, 1.0, {"solver": "dyson2", "t_max": 10.0, "samples": 21, "initial": 0})
    commands = []
    for solver, g, t_max, samples in (("dyson2", 1.0, 10.0, 21), ("dyson1", 0.1, 100.0, 2001)):
        commands.append(Command(
            argv=("evolve", "{inputs}/dyson.ini", "--solver", solver, "--epsilon", repr(eps),
                  "--g", repr(g), "--t-max", repr(t_max), "--samples", str(samples),
                  "--output", f"{{out}}/{solver}.csv"),
            outputs=(Output(f"{solver}.csv", "csv", (solver, e, g, eps, t_max, samples),
                            TOL_DYSON, "dyson"),),
            rows=samples,
        ))
    return Workload("dyson-detuned", seed, (("dyson.ini", ini),), tuple(commands))


def oracle_sweep(seed: int, jobs: int) -> Workload:
    """n = 4 resonant ladder through the RK4 oracle: sweep, compare, non-RWA run."""
    rng = random.Random(f"oracle-sweep:{seed}")
    e = _ladder(rng, 4)
    g0 = round(rng.uniform(0.05, 0.2), 6)
    gs = sorted(round(rng.uniform(0.05, 0.2), 6) for _ in range(4))
    ini = _ini(e, g0, {"solver": "numeric-rwa", "t_max": 1.0, "samples": 101,
                       "initial": 0, "format": "json"})
    sweep = Command(
        argv=("sweep", "{inputs}/oracle.ini", "--param", "drive.g",
              "--values", ",".join(repr(g) for g in gs), "--jobs", str(jobs),
              "--solver", "numeric-rwa", "--t-max", "1.0", "--samples", "101",
              "--format", "json", "--outdir", "{out}/sweep"),
        outputs=tuple(Output(f"sweep/run_{i:03d}.json", "json", ("rwa", e, g, 1.0, 101),
                             TOL_RK4, "propagate") for i, g in enumerate(gs)),
        rows=4 * 101,
    )
    compare = Command(
        argv=("compare", "{inputs}/oracle.ini", "--solvers", "exact,numeric-rwa",
              "--t-max", "1.0", "--samples", "101", "--output", "{out}/compare.json"),
        outputs=(Output("compare.json", "report", ("grid", 1.0, 101), TOL_RK4, "propagate"),),
        rows=0,
    )
    full = Command(
        argv=("evolve", "{inputs}/oracle.ini", "--solver", "numeric-full", "--t-max", "2.0",
              "--samples", "41", "--format", "csv", "--output", "{out}/full.csv"),
        outputs=(Output("full.csv", "csv", ("cosine", e, g0, 2.0, 41), TOL_RK4, "propagate"),),
        rows=41,
    )
    return Workload("oracle-sweep", seed, (("oracle.ini", ini),), (sweep, compare, full))


BUILDERS = {"exact-grid": exact_grid, "dyson-detuned": dyson_detuned,
            "oracle-sweep": oracle_sweep}


def build(name: str, seed: int, jobs: int) -> Workload:
    return BUILDERS[name](seed, jobs)

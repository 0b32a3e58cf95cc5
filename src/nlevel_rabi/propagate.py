"""Independent numerical oracle: RK4 Schrödinger integration and a generic expm.

Nothing here touches the closed-form machinery in `spectral` or `exact`; this
module exists to cross-check it.  The integrator never renormalizes, so norm
drift stays visible as an error meter.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, HamiltonianFn, StateVector

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "DeviationReport",
    "NumericFailure",
    "StepBudgetExceeded",
    "NormRangeError",
    "integrate",
    "integrate_stack",
    "expm_generic",
    "compare",
]


class NumericFailure(RuntimeError):
    """NaN or overflow encountered during integration."""


class StepBudgetExceeded(RuntimeError):
    """max_steps hit before reaching the end of the grid.

    The partial trajectory up to the last completed grid point is attached.
    """

    def __init__(self, trajectory: "Trajectory"):
        self.trajectory = trajectory
        super().__init__("integration step budget exceeded")


class NormRangeError(ValueError):
    """Matrix norm outside the range the series exponential is rated for."""


@dataclass(frozen=True)
class IntegratorConfig:
    """RK4 settings: the fixed step and a total work bound."""

    step: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the state at each grid point (rows of ``states``)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        states = np.array(self.states, dtype=complex)
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.linalg.norm(self.states, axis=1) - 1.0)))

    def to_csv(self, target):
        """CSV with header t, re_0, im_0, ..., p_0, ...; 17 significant digits.

        ``target`` may be a path or an open text stream.
        """
        if hasattr(target, "write"):
            self._write_csv(target)
        else:
            with open(target, "w") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh):
        n = self.n
        header = ["t"]
        header += [f"{part}_{k}" for k in range(n) for part in ("re", "im")]
        header += [f"p_{k}" for k in range(n)]
        fh.write(",".join(header) + "\n")
        # interleaved (re, im) pairs are the float64 view of the complex states
        table = np.column_stack([self.times, self.states.view(float), self.populations])
        line = ",".join(["%.17g"] * table.shape[1]) + "\n"
        for block in np.split(table, range(256, len(table), 256)):  # bounds the text in memory
            fh.write("".join([line % tuple(row) for row in block.tolist()]))

    def as_dict(self, config: dict | None = None) -> dict:
        return {
            "config": config or {},
            "times": self.times.tolist(),
            "states": self.states.view(float).reshape(*self.states.shape, 2).tolist(),
            "populations": self.populations.tolist(),
        }

    def to_json(self, target, config: dict | None = None):
        """JSON variant carrying the full input configuration as provenance."""
        doc = self.as_dict(config)
        if hasattr(target, "write"):
            json.dump(doc, target, indent=2)
            target.write("\n")
        else:
            with open(target, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")


_CHUNK = 64  # RK4 steps whose stage Hamiltonians are built in one h_fn call


def _steps(t_grid: np.ndarray, step: float):
    """(t, h, lands) for each RK4 step, generated lazily.

    Fixed steps of ``step``; the step before each grid point is clipped so that
    it lands there exactly.  ``lands`` marks the step that reaches a grid point.
    """
    t = 0.0
    for target in t_grid[1:]:
        while t < target:
            rem = target - t
            h = rem if rem <= step * (1.0 + 1e-12) else step
            t_next = target if h == rem else t + h
            yield t, h, not t_next < target
            t = t_next


def integrate(h_fn: HamiltonianFn, psi0: StateVector, t_grid, cfg: IntegratorConfig) -> Trajectory:
    """Integrate i dPsi/dt = H(t) Psi over an increasing grid starting at 0.

    Fixed steps of ``cfg.step``; the step before each grid point is clipped so
    that it lands there exactly (never interpolated).  ``h_fn`` gets a 1-D
    array of times and is called once per ``_CHUNK`` steps, with the times t,
    t + h/2 and t + h of every step in the chunk; k2 and k3 share t + h/2.
    This is ``integrate_stack`` of one run, with its failure raised.
    """
    (result,) = integrate_stack([h_fn], [psi0], t_grid, cfg)
    if isinstance(result, Exception):
        raise result
    return result


def integrate_stack(h_fns, psi0s, t_grid, cfg: IntegratorConfig) -> list:
    """Integrate B runs that share ``t_grid`` and ``cfg`` in one RK4 loop.

    Run b solves i dPsi/dt = h_fns[b](t) Psi from psi0s[b].  The states are
    stepped as one (B, n, 1) array with the arithmetic of ``integrate``, so
    each run's states equal its solo ``integrate`` bit for bit.  Per chunk,
    each ``h_fn`` is called once, as in ``integrate``.

    Returns one entry per run: its ``Trajectory``, or the ``NumericFailure``
    or ``StepBudgetExceeded`` that a solo run would raise (returned, not
    raised).  A run whose state goes non-finite is zeroed and dropped while
    the others go on; the budget ends every run at the same step, each with
    its solo partial trajectory.  A bad grid raises ``ConfigError``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ConfigError("t_grid must hold at least two times")
    if t_grid[0] != 0.0 or not np.all(np.diff(t_grid) > 0):  # also refuses NaN
        raise ConfigError("t_grid must increase from 0")

    psi = np.array([p.amp for p in psi0s], dtype=complex)[:, :, None]
    states = [psi[:, :, 0].copy()]
    failures = [None] * len(psi)
    steps_used = 0
    steps = _steps(t_grid, cfg.step)
    # stage Hamiltonians (time, run, n, n), refilled per chunk; one buffer keeps the
    # peak memory at one chunk's matrices
    stack = np.empty((3 * _CHUNK, len(psi), psi.shape[1], psi.shape[1]), dtype=complex)
    # non-finite states are caught below; numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while chunk := list(itertools.islice(steps, _CHUNK)):
            ts, hs, _ = np.array(chunk).T
            times = np.concatenate((ts, ts + 0.5 * hs, ts + hs))
            for b, h_fn in enumerate(h_fns):
                stack[: len(times), b] = h_fn(times)
            hams = stack[: len(times)].reshape((3, len(chunk)) + stack.shape[1:])
            for (t, h, lands), h_start, h_mid, h_end in zip(chunk, *hams):
                k1 = -1j * (h_start @ psi)
                k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
                k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
                k4 = -1j * (h_end @ (psi + h * k3))
                psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                steps_used += 1
                if steps_used > cfg.max_steps:
                    partial = np.array(states)
                    return [failure or StepBudgetExceeded(
                                Trajectory(t_grid[: len(partial)], partial[:, b]))
                            for b, failure in enumerate(failures)]
                finite = np.isfinite(psi).all(axis=(1, 2))
                if not finite.all():
                    for b in np.flatnonzero(~finite):
                        failures[b] = failures[b] or NumericFailure(
                            f"non-finite state at t = {t:.6g}")
                    if all(failures):
                        return failures
                    psi[~finite] = 0.0
                if lands:
                    states.append(psi[:, :, 0].copy())
    states = np.array(states)
    return [failure or Trajectory(t_grid, states[:, b]) for b, failure in enumerate(failures)]


def expm_generic(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    Rated for ||M||_1 <= 50 at ~1e-12 relative accuracy; larger norms raise
    NormRangeError.  Deliberately independent of the closed-form propagators
    it is used to check.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expm_generic needs a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    norm = float(np.linalg.norm(m, 1))
    if norm > 50.0:
        raise NormRangeError(f"matrix 1-norm {norm:.3g} exceeds the rated range 50")
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    a = m / (2.0 ** squarings)
    n = m.shape[0]
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


@dataclass(frozen=True)
class DeviationReport:
    """Per-time and global deviations between two trajectories.

    ``table`` columns: t, raw amplitude deviation, phase-aligned amplitude
    deviation, population deviation.  The aligned column removes the global
    phase that best matches the states at each time.
    """

    max_amplitude_dev: float
    max_aligned_amplitude_dev: float
    max_population_dev: float
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def to_dict(self) -> dict:
        return {
            "max_amplitude_dev": self.max_amplitude_dev,
            "max_aligned_amplitude_dev": self.max_aligned_amplitude_dev,
            "max_population_dev": self.max_population_dev,
            "columns": ["t", "amp_dev", "aligned_amp_dev", "pop_dev"],
            "table": self.table.tolist(),
        }


def compare(traj_a: Trajectory, traj_b: Trajectory) -> DeviationReport:
    """Deviation report for two trajectories on the same time grid."""
    if traj_a.times.shape != traj_b.times.shape or not np.array_equal(
        traj_a.times, traj_b.times
    ):
        raise ConfigError("trajectories must share an identical time grid")
    rows = []
    for t, a, b in zip(traj_a.times, traj_a.states, traj_b.states):
        raw = float(np.max(np.abs(a - b)))
        overlap = np.vdot(b, a)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        aligned = float(np.max(np.abs(a - phase * b)))
        pop = float(np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)))
        rows.append((float(t), raw, aligned, pop))
    table = np.array(rows)
    return DeviationReport(
        max_amplitude_dev=float(np.max(table[:, 1])),
        max_aligned_amplitude_dev=float(np.max(table[:, 2])),
        max_population_dev=float(np.max(table[:, 3])),
        table=table,
    )

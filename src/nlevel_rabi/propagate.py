"""Independent numerical oracle: RK4 Schrödinger integration and a generic expm.

Nothing here touches the closed-form machinery in `spectral` or `exact`; this
module exists to cross-check it.  The integrator never renormalizes, so norm
drift stays visible as an error meter.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, HamiltonianFn, StateVector

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "NumericFailure",
    "StepBudgetExceeded",
    "NormRangeError",
    "integrate",
    "integrate_stack",
    "expm_generic",
    "compare",
]


class NumericFailure(RuntimeError):
    """A run failed numerically: RK4 diverged (NaN, or a total probability of 2 or
    more), or a solver gave a state grid that is not finite."""


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
        if not 0 < self.step < np.inf:
            raise ConfigError("step must be positive and finite")
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

        Each row is ``",".join("%.17g" % v for v in row)``, byte for byte, made by
        ``csvtext.lines`` a block of rows at a time.  ``target`` may be a path or an
        open text stream.
        """
        from . import csvtext  # compiled on the first write, not at every start-up

        n = self.n
        header = ["t"]
        header += [f"{part}_{k}" for k in range(n) for part in ("re", "im")]
        header += [f"p_{k}" for k in range(n)]
        # interleaved (re, im) pairs are the float64 view of the complex states
        table = np.column_stack([self.times, self.states.view(float), self.populations])
        with _opened(target) as fh:
            fh.write(",".join(header) + "\n")
            for text in csvtext.lines(table):
                fh.write(text)

    def to_json(self, target, config: dict | None = None):
        """JSON variant carrying the full input configuration as provenance.

        The text is ``json.dump(doc, fh, indent=2)`` and a newline, byte for byte,
        where doc holds ``config`` (``{}`` if None), ``times``, ``states`` as
        [re, im] pairs and ``populations``, made by ``csvtext.dump_json``.
        """
        from . import csvtext  # compiled on the first write, not at every start-up

        # interleaved (re, im) pairs are the float64 view of the complex states
        doc = {"config": config or {}, "times": self.times,
               "states": self.states.view(float).reshape(len(self.states), self.n, 2),
               "populations": self.populations}
        with _opened(target) as fh:
            csvtext.dump_json(doc, fh)
            fh.write("\n")


def _opened(target):
    """``target`` if it is an open text stream, else the file at path ``target`` opened to write."""
    return contextlib.nullcontext(target) if hasattr(target, "write") else open(target, "w")


def _chunk_length(runs: int, n: int) -> int:
    """RK4 steps per chunk: the three stage matrices of every step and run in 2^19 bytes.

    A step holds 48 runs n^2 bytes of stage Hamiltonians (three n x n matrices of
    16-byte complex numbers per run); at least 16 and at most 1024 steps a chunk.
    """
    return int(np.clip(2 ** 19 // (48 * runs * n * n), 16, 1024))


def _schedule(t_grid: np.ndarray, step: float, chunk: int):
    """(ts, hs, lands) arrays of the RK4 steps, in blocks of at most ``chunk`` steps.

    Fixed steps of ``step``; the step before each grid point is clipped so that
    it lands there exactly.  In the interval [a, b], step k starts at t_k, the sum
    a + step + ... + step added left to right, which one ``np.add.accumulate``
    over the row [a, step, step, ...] gives bit for bit.  The step that lands is
    the first k with b - t_k <= step (1 + 1e-12), which takes h = b - t_k, or
    with t_k + step rounding to b; ``lands`` marks it.  The next interval starts
    at b.  A block takes one row per interval it reaches, at most 4 chunk
    entries in all, and an interval longer than a block carries on into the
    next one, so memory stays O(chunk) however long the grid is.
    """
    reach = step * (1.0 + 1e-12)
    t, i = 0.0, 0  # the next step starts at t, in the interval that ends at t_grid[i + 1]
    while i < len(t_grid) - 1:
        ends = t_grid[i + 1 : i + 1 + chunk]
        starts = t_grid[i : i + len(ends)].copy()
        starts[0] = t
        # the steps each interval takes (one more may come from the rounding of the sums);
        # rows up to the one that fills the chunk, as wide as the widest, 4 chunk entries at most
        steps = np.ceil(np.minimum((ends - starts) / reach, chunk))
        fill = np.searchsorted(np.cumsum(steps), chunk) + 1
        cap = np.searchsorted(np.arange(1, len(steps) + 1) * np.maximum.accumulate(steps + 1),
                              4 * chunk, side="right")
        rows = max(1, min(fill, cap))
        width = int(min(steps[:rows].max() + 1, chunk))
        sums = np.full((rows, width + 1), step)
        sums[:, 0] = starts[:rows]
        sums = np.add.accumulate(sums, axis=1)
        ts, b = sums[:, :-1], ends[:rows, None]
        rem = b - ts
        land = (rem <= reach) | (sums[:, 1:] >= b)
        # each row's steps up to its landing; a row that does not land ends the block
        landed = land.any(axis=1)
        taken = np.arange(width) <= np.where(landed, land.argmax(axis=1), width - 1)[:, None]
        if not landed.all():
            taken[np.argmin(landed) + 1 :] = False
        ts, rem, lands = ts[taken][:chunk], rem[taken][:chunk], land[taken][:chunk]
        yield ts, np.where(rem <= reach, rem, step), lands
        i += int(np.count_nonzero(lands))
        t = t_grid[i] if lands[-1] else ts[-1] + step


def integrate(h_fn: HamiltonianFn, psi0: StateVector, t_grid, cfg: IntegratorConfig) -> Trajectory:
    """Integrate i dPsi/dt = H(t) Psi over an increasing grid starting at 0.

    Fixed steps of ``cfg.step``; the step before each grid point is clipped so
    that it lands there exactly (never interpolated).  ``h_fn`` gets a 1-D
    array of times, once per chunk of steps (see ``_chunk_length``), and is
    asked for each distinct stage time once: t and t + h/2 of every step in the
    chunk (k2 and k3 share t + h/2), and t + h only of the chunk's last step and
    of a step whose t + h is not the float the next step starts at (a clipped
    step, rarely); every other step ends where the next one starts.
    This is ``integrate_stack`` of one run, with its failure raised.
    """
    (result,) = integrate_stack([h_fn], [psi0], t_grid, cfg)
    if isinstance(result, Exception):
        raise result
    return result


def integrate_stack(h_fns, psi0s, t_grid, cfg: IntegratorConfig) -> list:
    """Integrate B runs that share ``t_grid`` and ``cfg`` in one RK4 loop.

    Run b solves i dPsi/dt = h_fns[b](t) Psi from psi0s[b].  The equation is
    linear, so an RK4 step is Psi + D Psi with the increment
    D = (h/6)(K1 + 2 K2 + 2 K3 + K4), where K1 = -iH(t),
    K2 = -iH(t + h/2)(I + (h/2) K1), K3 = -iH(t + h/2)(I + (h/2) K2) and
    K4 = -iH(t + h)(I + h K3).  The step schedule comes as arrays, one chunk at
    a time (``_schedule``), and a chunk's length follows from a byte budget for
    its stage Hamiltonians (``_chunk_length``); no chunk holds more steps than
    the budget ``cfg.max_steps`` has left.  Per chunk, each ``h_fn`` is called
    once, with every distinct stage time once: H(t + h) of a step whose t + h
    is the float the next step starts at is that step's H(t), so it is built
    only for the chunk's last step and the few clipped steps whose t + h rounds
    off the grid point.  The increments of all steps and runs are built in one
    batched pass, with the step factors c h and h/6 cast to complex once per
    chunk; the states then advance with one product per step.  A stack of
    several runs copies their H(t) arrays into one stage buffer and advances
    with the (B, n, n) @ (B, n, 1) matmul; a stack of one run uses its H(t)
    array as ``h_fn`` returns it and advances with ``ndarray.dot`` on the
    (n, n) and (n, 1) views, which makes the same BLAS call on the same
    operands.  The identity is kept out of D: I + D would round its diagonal
    at every step.  Each run's states equal its solo ``integrate`` bit for bit.

    Returns one entry per run: its ``Trajectory``, or the ``NumericFailure``
    or ``StepBudgetExceeded`` that a solo run would raise (returned, not
    raised).  A run has diverged at its first step where the total probability
    sum_k |Psi_k|^2 reaches 2 or goes NaN: exact evolution keeps it at 1, and a
    stable RK4 step moves it only by its truncation error.  Such a run is zeroed
    and dropped while the others go on; the budget ends every run at the same
    step, each with its solo partial trajectory.  A bad grid raises ``ConfigError``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ConfigError("t_grid must hold at least two times")
    if t_grid[0] != 0.0 or not np.all(np.diff(t_grid) > 0):  # also refuses NaN
        raise ConfigError("t_grid must increase from 0")

    psi = np.array([p.amp for p in psi0s], dtype=complex)[:, :, None]
    runs, n = psi.shape[:2]
    chunk = _chunk_length(runs, n)
    eye = np.eye(n, dtype=complex)
    states = [psi[None, :, :, 0]]  # (grid points, run, n) blocks
    failures = [None] * runs
    steps_used = 0
    # stage Hamiltonians (time, run, n, n) of a stack of runs, step increments, stages and
    # stage arguments (step, run, n, n), and the states a chunk passes through (step, run, n, 1),
    # refilled per chunk; one buffer each keeps the peak memory at one chunk's matrices
    stack = np.empty((3 * chunk, runs, n, n), dtype=complex) if runs > 1 else None
    work = np.empty((3, chunk, runs, n, n), dtype=complex)
    path = np.empty((chunk + 1, runs, n, 1), dtype=complex)
    path[0] = psi
    # one run advances by the 2-D product on its (n, n) and (n, 1) views, a stack by matmul
    # over runs; both are the same BLAS call on the same operands, so the same bits
    incs, psis, product = ((work[0], path, np.matmul) if runs > 1 else
                           (work[0, :, 0], path[:, 0], np.ndarray.dot))
    # out-of-range states are caught below; numpy's overflow warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _schedule(t_grid, cfg.step, chunk):
            todo = min(len(block[0]), cfg.max_steps - steps_used)
            if not todo:
                break
            ts, hs, lands = (a[:todo] for a in block)  # no chunk past the step budget
            # stage times: t, the end of the last step, t + h/2, and the ends of the steps
            # whose t + h is not the float the next step starts at (a few clipped steps);
            # h_end, the next step's H(t), is corrected for those
            ends = ts + hs
            own = np.flatnonzero(ends[:-1] != ts[1:])
            times = np.concatenate((ts, ends[-1:], ts + 0.5 * hs, ends[own]))
            if stack is None:  # one run: its H(t) array as h_fn returns it
                hams = np.ascontiguousarray(h_fns[0](times), dtype=complex)[:, None]
            else:
                for b, h_fn in enumerate(h_fns):
                    stack[: len(times), b] = h_fn(times)
                hams = stack
            h_start, h_end = hams[:todo], hams[1 : todo + 1]
            h_mid, h_own = hams[todo + 1 : 2 * todo + 1], hams[2 * todo + 1 : len(times)]
            # the step factors c h and h/6, computed as floats and cast to complex128 once, so
            # that no stage multiply casts them on the fly (complex h/6 would round differently)
            half, full, sixth = (f.astype(complex)[:, None, None, None]
                                 for f in (0.5 * hs, hs, hs / 6.0))
            inc, k, x = work[:, :todo]
            np.multiply(-1j, h_start, out=inc)  # K1; inc then sums the stages in place
            for ch, weight, ham, prev in ((half, 2.0, h_mid, inc), (half, 2.0, h_mid, k),
                                          (full, 1.0, h_end, k)):
                np.multiply(ch, prev, out=x)
                x += eye
                np.matmul(ham, x, out=k)
                if ham is h_end and own.size:
                    k[own] = h_own @ x[own]
                k *= -1j  # K2, K3, K4 = -iH (I + c h K_prev)
                np.multiply(weight, k, out=x)
                inc += x
            inc *= sixth
            for d, now, nxt in zip(incs[:todo], psis, psis[1:]):
                product(d, now, out=nxt)
                nxt += now  # now + D now, added in place
            steps_used += todo
            # (step, run): total probability below 2; NaN compares False, so it fails too
            in_range = (np.abs(path[1 : todo + 1]) ** 2).sum(axis=(2, 3)) < 2.0
            ok = in_range.all(axis=0)
            for b in np.flatnonzero(~ok):  # failed at its first out-of-range step
                failures[b] = failures[b] or NumericFailure(
                    f"RK4 diverged at t = {ts[np.argmin(in_range[:, b])]:.6g}: "
                    "total probability reached 2")
            if all(failures):
                return failures
            # boolean indexing copies, so path can be refilled
            states.append(path[1 : todo + 1][lands, :, :, 0])
            path[0] = path[todo]
            path[0, ~ok] = 0.0
    states = np.concatenate(states)
    if len(states) < len(t_grid):  # the budget ran out before the end of the grid
        return [failure or StepBudgetExceeded(Trajectory(t_grid[: len(states)], states[:, b]))
                for b, failure in enumerate(failures)]
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


def compare(traj_a: Trajectory, traj_b: Trajectory) -> dict:
    """Deviation report document for two trajectories on the same time grid.

    ``table`` is a (rows, 4) float64 array whose ``columns`` are t, the raw
    amplitude deviation, the phase-aligned amplitude deviation and the
    population deviation.  The aligned column removes the global phase that best
    matches the states at each time.  The document's first three keys hold the
    largest entries of the three deviation columns.
    """
    if not np.array_equal(traj_a.times, traj_b.times):  # False too when the shapes differ
        raise ConfigError("trajectories must share an identical time grid")
    a, b = traj_a.states, traj_b.states
    overlap = np.einsum("ij,ij->i", b.conj(), a)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)  # 1 where 0
    table = np.column_stack((
        traj_a.times,
        np.max(np.abs(a - b), axis=1),
        np.max(np.abs(a - phase[:, None] * b), axis=1),
        np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2), axis=1),
    ))
    amp, aligned, pop = table[:, 1:].max(axis=0).tolist()
    return {"max_amplitude_dev": amp, "max_aligned_amplitude_dev": aligned,
            "max_population_dev": pop, "columns": ["t", "amp_dev", "aligned_amp_dev", "pop_dev"],
            "table": table}

import ast
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlevel_rabi
from nlevel_rabi import csvtext
from nlevel_rabi.model import (
    ConfigError,
    LevelSpec,
    StateVector,
    apply_resonance,
    full_hamiltonian,
    full_hamiltonian_nonrwa,
    rotating_frame,
    transformed_hamiltonian,
)
from nlevel_rabi.propagate import (
    IntegratorConfig,
    NormRangeError,
    NumericFailure,
    StepBudgetExceeded,
    Trajectory,
    compare,
    expm_generic,
    integrate,
    integrate_stack,
)
from nlevel_rabi.propagate import _chunk_length, _schedule
from nlevel_rabi.spectral import coupling_matrix, exp_c

STEP = 2.0 ** -6  # binary step: k steps land exactly on t = k * STEP


def _two_level_resonant(g=0.1, delta=5.0):
    lev = LevelSpec((0.0, delta))
    return lev, apply_resonance(lev, g=g)


def test_zero_hamiltonian_keeps_state_constant():
    h = lambda t: np.zeros(np.shape(t) + (3, 3), dtype=complex)
    psi0 = StateVector.normalized([1.0, 1j, 0.3])
    traj = integrate(h, psi0, np.linspace(0, 5, 11), IntegratorConfig(step=0.1))
    for row in traj.states:
        np.testing.assert_array_equal(row, traj.states[0])


def test_two_level_rabi_against_analytic():
    g, w = 0.1, 5.0
    lev, drive = _two_level_resonant(g, w)
    grid = np.linspace(0.0, 10.0, 41)
    traj = integrate(
        full_hamiltonian(lev, drive), StateVector.basis(2, 0), grid,
        IntegratorConfig(step=1e-3),
    )
    ref = np.stack(
        [np.cos(g * grid), -1j * np.exp(-1j * w * grid) * np.sin(g * grid)], axis=1
    )
    assert np.max(np.abs(traj.states - ref)) < 1e-8


def test_rk4_fourth_order_convergence():
    g, w = 0.1, 5.0
    lev, drive = _two_level_resonant(g, w)
    h_fn = full_hamiltonian(lev, drive)
    T = 10.0
    ref = np.array([np.cos(g * T), -1j * np.exp(-1j * w * T) * np.sin(g * T)])

    def endpoint_error(step):
        traj = integrate(h_fn, StateVector.basis(2, 0), [0.0, T], IntegratorConfig(step=step))
        return np.max(np.abs(traj.states[-1] - ref))

    ratio = endpoint_error(0.01) / endpoint_error(0.005)
    assert 12 < ratio < 20


def test_norm_drift_stays_small():
    lev, drive = _two_level_resonant()
    traj = integrate(
        full_hamiltonian(lev, drive), StateVector.basis(2, 0),
        np.linspace(0, 20, 21), IntegratorConfig(step=1e-3),
    )
    assert traj.norm_drift() < 1e-10


def test_lab_and_rotating_frames_agree():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=0.1, nonadjacent={(0, 2): 2.3})
    grid = np.linspace(0, 20, 21)
    psi0 = StateVector.basis(3, 0)
    cfg = IntegratorConfig(step=1e-3)
    lab = integrate(full_hamiltonian(lev, drive), psi0, grid, cfg)
    rot = integrate(transformed_hamiltonian(lev, drive), psi0, grid, cfg)
    mapped = np.stack(
        [np.conj(np.diag(rotating_frame(drive, t))) * rot.states[i] for i, t in enumerate(grid)]
    )
    assert np.max(np.abs(mapped - lab.states)) < 1e-7


def test_grid_validation():
    h = lambda t: np.zeros(np.shape(t) + (2, 2), dtype=complex)
    psi0 = StateVector.basis(2, 0)
    cfg = IntegratorConfig()
    with pytest.raises(ConfigError):
        integrate(h, psi0, [1.0, 2.0], cfg)  # must start at 0
    with pytest.raises(ConfigError):
        integrate(h, psi0, [0.0, 2.0, 1.0], cfg)
    with pytest.raises(ConfigError):
        integrate(h, psi0, [0.0], cfg)
    with pytest.raises(ConfigError):
        integrate(h, psi0, [0.0, np.nan, 1.0], cfg)


def test_step_budget_exceeded_carries_partial_trajectory():
    lev, drive = _two_level_resonant()
    cfg = IntegratorConfig(step=1e-3, max_steps=1500)
    with pytest.raises(StepBudgetExceeded) as exc:
        integrate(full_hamiltonian(lev, drive), StateVector.basis(2, 0),
                  np.linspace(0, 10, 11), cfg)
    partial = exc.value.trajectory
    assert 1 <= len(partial.times) < 11


def test_numeric_failure_on_overflow():
    h = lambda t: 1e200 * np.ones(np.shape(t) + (2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailure):
            integrate(h, StateVector.basis(2, 0), [0.0, 1.0], IntegratorConfig(step=0.5))


def test_integrator_config_validation():
    for step in (0.0, np.inf, np.nan, -np.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            IntegratorConfig(step=step)
    with pytest.raises(ConfigError):
        IntegratorConfig(max_steps=0)


def test_expm_identity_and_diagonal():
    np.testing.assert_allclose(expm_generic(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    d = np.array([0.3, -1.2, 2.0 + 0.5j])
    np.testing.assert_allclose(
        expm_generic(np.diag(d)), np.diag(np.exp(d)), rtol=1e-12
    )


def test_expm_vs_exp_c():
    rng = np.random.default_rng(1)
    for n in range(2, 11):
        c = coupling_matrix(n)
        for _ in range(5):
            g, t = rng.uniform(0.01, 1.5), rng.uniform(0, 10)
            np.testing.assert_allclose(
                expm_generic(-1j * g * t * c), exp_c(n, g, t), atol=1e-10
            )


@pytest.mark.parametrize("m, message", [
    (np.ones((2, 3)), "expm_generic needs a square matrix"),
    (np.ones(3), "expm_generic needs a square matrix"),
    (np.array([[0.0, np.nan], [0.0, 0.0]]), "matrix entries must be finite"),
    (np.array([[np.inf, 0.0], [0.0, 0.0]]), "matrix entries must be finite"),
])
def test_expm_refuses_a_non_square_or_non_finite_matrix(m, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        expm_generic(m)


def test_expm_range_error():
    with pytest.raises(NormRangeError):
        expm_generic(100.0 * np.eye(2))


def test_compare_identical_is_zero():
    grid = np.linspace(0, 1, 5)
    states = np.exp(1j * np.outer(grid, [1.0, 2.0])) / np.sqrt(2)
    traj = Trajectory(grid, states)
    report = compare(traj, traj)
    assert report["max_amplitude_dev"] == 0.0
    assert report["max_aligned_amplitude_dev"] == 0.0
    assert report["max_population_dev"] == 0.0


def test_compare_global_phase_alignment():
    grid = np.linspace(0, 1, 4)
    states = np.tile(np.array([1.0, 1j]) / np.sqrt(2), (4, 1))
    shifted = np.exp(1j * 0.7) * states
    report = compare(Trajectory(grid, states), Trajectory(grid, shifted))
    assert report["max_amplitude_dev"] > 0.1
    assert report["max_aligned_amplitude_dev"] < 1e-14
    assert report["max_population_dev"] < 1e-15


def _reference_compare_table(traj_a, traj_b):
    """The per-row loop that `compare` replaced."""
    rows = []
    for t, a, b in zip(traj_a.times, traj_a.states, traj_b.states):
        raw = float(np.max(np.abs(a - b)))
        overlap = np.vdot(b, a)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        aligned = float(np.max(np.abs(a - phase * b)))
        pop = float(np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)))
        rows.append((float(t), raw, aligned, pop))
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_compare_matches_per_row_loop(n):
    # two unit-norm trajectories a little apart, the second with a random phase per row
    rng = np.random.default_rng(n)
    a, noise = (rng.normal(size=(101, n)) + 1j * rng.normal(size=(101, n)) for _ in range(2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = np.exp(2j * np.pi * rng.random((101, 1))) * (a + 1e-3 * noise)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    b[7] = 0.0
    a[9], b[9] = np.eye(n)[0], np.eye(n)[1]  # orthogonal: zero overlap, so phase 1
    grid = np.linspace(0.0, 10.0, 101)
    table = compare(Trajectory(grid, a), Trajectory(grid, b))["table"]
    ref = _reference_compare_table(Trajectory(grid, a), Trajectory(grid, b))
    np.testing.assert_array_equal(table[:, [0, 1, 3]], ref[:, [0, 1, 3]])
    # the overlaps are summed in another order
    assert np.max(np.abs(table[:, 2] - ref[:, 2])) <= 1e-15
    assert table[7, 2] == np.max(np.abs(a[7])) and table[9, 2] == table[9, 1]


def test_compare_grid_mismatch():
    states = np.array([[1.0 + 0j, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError):
        compare(Trajectory([0.0, 1.0], states), Trajectory([0.0, 2.0], states))


def test_deviation_report_dict():
    grid = np.linspace(0, 1, 3)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (3, 1))
    d = compare(Trajectory(grid, states), Trajectory(grid, states))
    assert list(d) == ["max_amplitude_dev", "max_aligned_amplitude_dev", "max_population_dev",
                       "columns", "table"]
    assert d["columns"] == ["t", "amp_dev", "aligned_amp_dev", "pop_dev"]
    assert d["table"].shape == (3, 4) and d["table"].dtype == np.float64


def test_deviation_report_maxima_are_its_table_column_maxima():
    grid = np.linspace(0, 1, 3)
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.8]], dtype=complex)
    b = np.array([[0.6, 0.8], [-1.0, 0.0], [0.6, -0.8]], dtype=complex)
    report = compare(Trajectory(grid, a), Trajectory(grid, b))
    maxima = [report[k] for k in ("max_amplitude_dev", "max_aligned_amplitude_dev",
                                  "max_population_dev")]
    assert all(type(m) is float for m in maxima)
    assert maxima == [float(np.max(report["table"][:, col])) for col in (1, 2, 3)]
    # each maximum sits in a different row, so none is read off a single row
    assert len({int(np.argmax(report["table"][:, col])) for col in (1, 2, 3)}) == 3


def test_trajectory_csv_roundtrip(tmp_path):
    lev, drive = _two_level_resonant()
    traj = integrate(full_hamiltonian(lev, drive), StateVector.basis(2, 0),
                     np.linspace(0, 2, 5), IntegratorConfig(step=1e-2))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,re_0,im_0,re_1,im_1,p_0,p_1"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1] + 1j * data[:, 2], traj.states[:, 0])
    np.testing.assert_array_equal(data[:, 5], traj.populations[:, 0])


def test_trajectory_json_carries_config(tmp_path):
    traj = Trajectory([0.0, 1.0], np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex))
    path = tmp_path / "traj.json"
    traj.to_json(path, config={"g": 0.1, "solver": "exact"})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"g": 0.1, "solver": "exact"}
    assert doc["states"][1][1] == [0.0, 1.0]
    assert doc["populations"][0] == [1.0, 0.0]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_trajectory_json_matches_per_element_reference(n):
    rng = np.random.default_rng(n)
    states = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
    states[0, 0] = complex(-0.0, 0.0)
    traj = Trajectory(np.linspace(0.0, 3.0, 7), states)
    reference = {
        "config": {},
        "times": [float(t) for t in traj.times],
        "states": [[[float(z.real), float(z.imag)] for z in row] for row in traj.states],
        "populations": traj.populations.tolist(),
    }
    out = io.StringIO()
    traj.to_json(out)
    assert out.getvalue() == json.dumps(reference, indent=2) + "\n"


# floats with a spelling of their own: signed zero, subnormals, the extremes, nan and infinities
NASTY_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, np.nan, np.inf, -np.inf]))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                        st.lists(st.floats(), max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(1, 8), st.data(),
       st.one_of(st.none(), st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3)))
def test_to_json_is_the_stdlib_indent_2_text(rows, n, data, config):
    times = data.draw(st.lists(NASTY_FLOATS, min_size=rows, max_size=rows))
    parts = data.draw(st.lists(NASTY_FLOATS, min_size=2 * rows * n, max_size=2 * rows * n))
    states = np.array(parts, dtype=float).view(complex).reshape(rows, n)
    with np.errstate(over="ignore", invalid="ignore"):  # |z|^2 of 1e308 is inf
        populations = (np.abs(states) ** 2).tolist()
        out = io.StringIO()
        Trajectory(times, states).to_json(out, config=config)
    reference = {
        "config": config or {},
        "times": times,
        "states": [[parts[j : j + 2] for j in range(2 * n * r, 2 * n * (r + 1), 2)]
                   for r in range(rows)],
        "populations": populations,
    }
    assert out.getvalue() == json.dumps(reference, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(1, 8), st.data())
def test_to_csv_is_the_percent_17g_text(rows, n, data):
    times = data.draw(st.lists(NASTY_FLOATS, min_size=rows, max_size=rows))
    parts = data.draw(st.lists(NASTY_FLOATS, min_size=2 * rows * n, max_size=2 * rows * n))
    states = np.array(parts, dtype=float).view(complex).reshape(rows, n)
    with np.errstate(over="ignore", invalid="ignore"):  # |z|^2 of 1e308 is inf
        populations = (np.abs(states) ** 2).tolist()
        out = io.StringIO()
        Trajectory(times, states).to_csv(out)
    header = ["t", *(f"{part}_{k}" for k in range(n) for part in ("re", "im")),
              *(f"p_{k}" for k in range(n))]
    lines = [",".join(header)]
    for r in range(rows):
        row = [times[r], *parts[2 * n * r : 2 * n * (r + 1)], *populations[r]]
        lines.append(",".join("%.17g" % v for v in row))
    assert out.getvalue() == "".join(line + "\n" for line in lines)


def test_to_json_writes_rows_in_blocks_with_the_stdlib_text(tmp_path, monkeypatch):
    # 600 rows of 3 levels: 6,000 cells, which the kernel takes in four blocks of about 1,900,
    # so blocks end inside rows and inside arrays, and the separators there are checked too
    passes, slots = [], csvtext.slots

    def counted(x, shortest):
        passes.append(len(x))
        return slots(x, shortest)

    monkeypatch.setattr(csvtext, "slots", counted)
    rng = np.random.default_rng(3)
    traj = Trajectory(np.linspace(0.0, 6.0, 600), rng.normal(size=(600, 3)) + 1j)
    path = tmp_path / "traj.json"
    traj.to_json(path, config={"g": 0.1})
    assert len(passes) >= 2 and sum(passes) == 6000
    doc = {"config": {"g": 0.1}, "times": traj.times.tolist(),
           "states": [[[z.real, z.imag] for z in row] for row in traj.states.tolist()],
           "populations": traj.populations.tolist()}
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_to_json_holds_one_block_of_temporaries_at_a_time():
    class Sink:  # counts the text, keeps none of it; memory is traced from the first write on
        size, start = 0, None

        def write(self, text):
            if self.start is None:  # the populations are made, no cell is written yet
                tracemalloc.reset_peak()
                self.start = tracemalloc.get_traced_memory()[0]
            self.size += len(text)

    rows = 200_000
    rng = np.random.default_rng(5)
    traj = Trajectory(np.linspace(0.0, 1.0, rows), rng.normal(size=(rows, 2)).view(complex))
    sink = Sink()
    tracemalloc.start()
    try:
        traj.to_json(sink)
        peak = tracemalloc.get_traced_memory()[1] - sink.start
    finally:
        tracemalloc.stop()
    assert sink.size > 20 * 4 * rows
    # one block's temporaries take about 2^20 bytes, two would pass 2^21; the 800,000 cells
    # at about 512 bytes each would take 400 MB at once
    assert peak < 1.5 * 2 ** 20, peak


def test_rwa_vs_cosine_drive_weak_coupling():
    # Delta = omega = 20, RWA g = 0.05 (cosine amplitude 0.1): populations
    # agree loosely over one Rabi period
    lev = LevelSpec((0.0, 20.0))
    rwa_drive = apply_resonance(lev, g=0.05)
    full_drive = apply_resonance(lev, g=0.1, rwa=False)
    grid = np.linspace(0, np.pi / 0.05, 81)
    cfg = IntegratorConfig(step=1e-3)
    psi0 = StateVector.basis(2, 0)
    a = integrate(full_hamiltonian(lev, rwa_drive), psi0, grid, cfg)
    b = integrate(full_hamiltonian_nonrwa(lev, full_drive), psi0, grid, cfg)
    assert np.max(np.abs(a.populations - b.populations)) < 0.02


# The RWA's own error: over 120 random draws of this test's ladders, the largest population
# deviation was 0.60 to 1.01 times g / min omega, and 0.59 to 1.06 on 82 corner ladders (gaps
# of 0.8, 1.0 and 1.2; g / min omega of 0.02 and 0.05).  So it is asserted between C_LOW and
# C_RWA times g / min omega, each about a factor of two outside the measured range.
C_LOW, C_RWA = 0.25, 2.0


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.lists(st.floats(0.8, 1.2), min_size=n - 1,
                                                    max_size=n - 1)),
       st.floats(0.02, 0.05))
def test_rwa_error_is_about_g_over_the_smallest_frequency(gaps, ratio):
    # a resonant ladder from the ground state, to t = 2/g: the cosine drive of amplitude 2g,
    # the physics an RWA coupling g stands for, against the RWA drive
    levels = LevelSpec(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
    g = ratio * min(gaps)  # the smallest drive frequency is the smallest adjacent gap
    rwa, full = integrate_stack(
        [full_hamiltonian(levels, apply_resonance(levels, g)),
         full_hamiltonian_nonrwa(levels, apply_resonance(levels, 2 * g, rwa=False))],
        [StateVector.basis(levels.n, 0)] * 2, np.linspace(0.0, 2 / g, 201), IntegratorConfig(2e-3))
    deviation = np.max(np.abs(rwa.populations - full.populations))
    assert C_LOW * ratio < deviation < C_RWA * ratio, deviation / ratio


# The per-step schedule rule that `_schedule` replaced: one (t, h, lands) per step.
def _reference_steps(t_grid, step):
    t = 0.0
    for target in t_grid[1:]:
        while t < target:
            rem = target - t
            h = rem if rem <= step * (1.0 + 1e-12) else step
            t_next = target if h == rem else t + h
            yield t, h, not t_next < target
            t = t_next


def _first_steps(t_grid, step, chunk, limit):
    """The first ``limit`` steps of ``_schedule`` as (t, h, lands) rows, and its block lengths."""
    rows, blocks = [], []
    for ts, hs, lands in _schedule(np.asarray(t_grid, dtype=float), step, chunk):
        blocks.append(len(ts))
        rows += zip(ts.tolist(), hs.tolist(), lands.tolist())
        if len(rows) >= limit:
            break
    return rows[:limit], blocks


def _interval_grids():
    """Grids from 0 made of 1 to 12 intervals of random length."""
    widths = st.lists(st.floats(1e-4, 3.0), min_size=1, max_size=12)
    return widths.map(lambda w: np.concatenate(([0.0], np.cumsum(w))))


# The [0, 1, 2] / 0.1 grid ends each interval a rounding error short (0.9999999999999999);
# a clipped grid; one-step intervals; one interval of 1e9 that the budget cuts after 3000 steps.
@settings(max_examples=200, deadline=None)
@given(grid=_interval_grids(), step=st.floats(1e-3, 1.0), chunk=st.integers(16, 1024))
@example(grid=np.array([0.0, 1.0, 2.0]), step=0.1, chunk=16)
@example(grid=np.linspace(0.0, 2.9, 8), step=0.0123, chunk=16)
@example(grid=np.arange(9) * 0.25, step=1.0, chunk=16)
@example(grid=np.array([0.0, 1e9]), step=1e-3, chunk=1024)
def test_schedule_matches_the_per_step_rule(grid, step, chunk):
    limit = 3000
    ref = list(itertools.islice(_reference_steps(grid, step), limit))
    got, blocks = _first_steps(grid, step, chunk, limit)
    assert got == ref  # float equality: bit for bit
    assert all(1 <= size <= chunk for size in blocks)


# The per-step RK4 loop that `integrate` replaced: four scalar h_fn calls per
# step, stages applied to psi.  `integrate` applies the same stages to the
# identity, so its states differ from this reference by rounding only.
def _rk4_step(h_fn, t, psi, h):
    k1 = -1j * (h_fn(t) @ psi)
    k2 = -1j * (h_fn(t + 0.5 * h) @ (psi + 0.5 * h * k1))
    k3 = -1j * (h_fn(t + 0.5 * h) @ (psi + 0.5 * h * k2))
    k4 = -1j * (h_fn(t + h) @ (psi + h * k3))
    return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate(h_fn, psi0, t_grid, cfg):
    t_grid = np.asarray(t_grid, dtype=float)
    psi = np.array(psi0.amp, dtype=complex)
    states = [psi.copy()]
    steps_used = 0
    t = 0.0
    for target in t_grid[1:]:
        while t < target:
            rem = target - t
            h = rem if rem <= cfg.step * (1.0 + 1e-12) else cfg.step
            psi = _rk4_step(h_fn, t, psi, h)
            steps_used += 1
            if steps_used > cfg.max_steps:
                raise StepBudgetExceeded(Trajectory(t_grid[: len(states)], np.array(states)))
            if not np.all(np.isfinite(psi)):
                raise NumericFailure(f"non-finite state at t = {t:.6g}")
            t = target if h == rem else t + h
        states.append(psi.copy())
    return Trajectory(t_grid, np.array(states))


# over 10x the largest deviation from the per-step loop on these grids (7.2e-16),
# well inside the 1e-13 to which solver outputs are preserved
REFERENCE_TOL = 1e-14


def _assert_matches_reference(got, ref, tol=REFERENCE_TOL):
    np.testing.assert_array_equal(got.times, ref.times)
    assert np.max(np.abs(got.states - ref.states)) <= tol


def _ladder_h_fn(n, rwa):
    lev = LevelSpec(tuple(np.cumsum([0.0] + [1.0 + 0.07 * k for k in range(n - 1)])))
    drive = apply_resonance(lev, 0.3, rwa=rwa)
    return (full_hamiltonian if rwa else full_hamiltonian_nonrwa)(lev, drive)


def _counting(h_fn):
    """h_fn that records the length of every time array it is called with."""
    sizes = []

    def counted(t):
        sizes.append(len(t))
        return h_fn(t)

    return counted, sizes


def _psi0(n):
    return StateVector.normalized(np.arange(1, n + 1) + 1j * np.arange(n, 0, -1))


def _steps_around(steps, chunk):
    """``steps``, or for "chunk-1", "chunk" and "chunk+1" that many steps around ``chunk``."""
    return steps if isinstance(steps, int) else chunk + int(steps[len("chunk"):] or 0)


def _one_interval_sizes(steps, chunk):
    """h_fn call sizes over [0, steps * STEP]: t and t + h/2 of every step, the chunk's end."""
    return [2 * min(chunk, steps - k) + 1 for k in range(0, steps, chunk)]


AROUND_CHUNK = [1, 63, 64, 65, 129, "chunk-1", "chunk", "chunk+1"]


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "cosine"])
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("steps", AROUND_CHUNK)
def test_chunked_rk4_matches_per_step_loop(n, rwa, steps):
    chunk = _chunk_length(1, n)
    steps = _steps_around(steps, chunk)
    h_fn, sizes = _counting(_ladder_h_fn(n, rwa))
    grid, cfg = [0.0, steps * STEP], IntegratorConfig(step=STEP)
    got = integrate(h_fn, _psi0(n), grid, cfg)
    _assert_matches_reference(got, _reference_integrate(_ladder_h_fn(n, rwa), _psi0(n), grid, cfg))
    # one call per chunk; a step ends where the next starts, so only the chunk's end is added
    assert sizes == _one_interval_sizes(steps, chunk)


def test_chunk_length_follows_the_byte_budget():
    # three n x n complex stage matrices per step and run in 2^19 bytes, within [16, 1024]
    assert [_chunk_length(1, n) for n in (2, 4, 8, 16)] == [1024, 682, 170, 42]
    assert [_chunk_length(4, n) for n in (2, 4, 8, 16)] == [682, 170, 42, 16]


# a grid that is not a multiple of the step, and one whose last step before each
# grid point falls a rounding error short of it (ten steps of 0.1 end at 0.9999999999999999)
@pytest.mark.parametrize("grid, step", [(np.linspace(0.0, 2.9, 8), 0.0123),
                                        ([0.0, 1.0, 2.0], 0.1)], ids=["clipped", "rounding"])
@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "cosine"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_chunked_rk4_matches_per_step_loop_on_clipped_grid(n, rwa, grid, step):
    cfg = IntegratorConfig(step=step)
    got = integrate(_ladder_h_fn(n, rwa), _psi0(n), grid, cfg)
    _assert_matches_reference(got, _reference_integrate(_ladder_h_fn(n, rwa), _psi0(n), grid, cfg))


def test_step_increments_keep_the_identity_out():
    # 20,000 steps: folding I into the increment (psi <- (I + D) psi) rounds the
    # diagonal at every step and drifts 4.2e-13 from the per-step loop here; the
    # increment form (psi <- psi + D psi) stays at 2.0e-15
    lev = LevelSpec((0.0, 1.0))
    h_fn = full_hamiltonian(lev, apply_resonance(lev, g=1.0))
    grid, cfg = [0.0, 20.0], IntegratorConfig(step=1e-3)
    got = integrate(h_fn, StateVector.basis(2, 0), grid, cfg)
    ref = _reference_integrate(h_fn, StateVector.basis(2, 0), grid, cfg)
    _assert_matches_reference(got, ref, tol=1e-13)


# a clipped grid of ~330 steps (several chunks at n = 8, one at n = 2), and a grid with a
# one-step interval whose t + h misses the grid point: 0.04 + (0.11 - 0.04) = 0.11000000000000001
STAGE_GRIDS = {"clipped": (np.linspace(0.0, 4.1, 12), 0.0123),
               "inexact-end": (np.array([0.0, 0.04, 0.11, 0.2, 0.31, 0.35, 0.5]), 0.1)}


@pytest.mark.parametrize("grid", STAGE_GRIDS)
@pytest.mark.parametrize("n", [2, 8])
def test_h_fn_gets_each_distinct_stage_time_once(n, grid):
    grid, step = STAGE_GRIDS[grid]
    calls = []
    h_fn = _ladder_h_fn(n, True)
    integrate(lambda t: calls.append(np.array(t)) or h_fn(t), _psi0(n), grid,
              IntegratorConfig(step=step))
    blocks = list(_schedule(grid, step, _chunk_length(1, n)))
    assert len(calls) == len(blocks)
    for times, (ts, hs, _) in zip(calls, blocks):
        # t and t + h/2 of every step; t + h of the chunk's last step and of each step
        # whose t + h is not the float the next step starts at
        ends = ts + hs
        own_end = np.append(ends[:-1] != ts[1:], True)
        expected = np.concatenate((ts, ts + 0.5 * hs, ends[own_end]))
        np.testing.assert_array_equal(np.sort(times), np.sort(expected))
    # every stage time of the per-step loop is one that h_fn was asked for, bit for bit
    asked = set(np.concatenate(calls).tolist())
    for t, h, _ in _reference_steps(grid, step):
        assert {t, t + 0.5 * h, t + h} <= asked


def _bit_sensitive_h_fn(n):
    """A Hermitian H(t) scaled by 1 + (the low 8 bits of t) / 255: one ulp of t moves it."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    base = (a + a.conj().T) / 2

    def h_fn(t):
        bits = np.asarray(t, dtype=float).view(np.uint64) & 0xFF
        return base * (1.0 + bits / 255.0)[..., None, None]

    return h_fn


@pytest.mark.parametrize("grid", STAGE_GRIDS)
@pytest.mark.parametrize("n", [2, 8])
def test_every_stage_uses_the_hamiltonian_at_its_own_time(n, grid):
    # a stage that took H at a time one ulp off the per-step loop's would be off by
    # about 1e-3 here, not by rounding
    grid, step = STAGE_GRIDS[grid]
    cfg = IntegratorConfig(step=step)
    got = integrate(_bit_sensitive_h_fn(n), _psi0(n), grid, cfg)
    _assert_matches_reference(got, _reference_integrate(_bit_sensitive_h_fn(n), _psi0(n),
                                                        grid, cfg), tol=1e-13)


# 16 steps per grid interval, so the budget runs out between grid points; 1152 steps in all
BUDGET_GRID = np.linspace(0.0, 18.0, 73)


@pytest.mark.parametrize("max_steps", [63, 64, 65, "chunk-1", "chunk", "chunk+1"])
def test_step_budget_partial_trajectory_matches_per_step_loop(max_steps):
    max_steps = _steps_around(max_steps, _chunk_length(1, 3))
    grid, cfg = BUDGET_GRID, IntegratorConfig(step=STEP, max_steps=max_steps)
    with pytest.raises(StepBudgetExceeded) as got:
        integrate(_ladder_h_fn(3, True), _psi0(3), grid, cfg)
    with pytest.raises(StepBudgetExceeded) as ref:
        _reference_integrate(_ladder_h_fn(3, True), _psi0(3), grid, cfg)
    _assert_matches_reference(got.value.trajectory, ref.value.trajectory)
    assert len(got.value.trajectory.times) == 1 + max_steps // 16


def test_numeric_failure_message_names_the_overflowing_step():
    # -iH = I and h = 0.01, so every step multiplies psi by
    # r = 1 + h + h^2/2 + h^3/6 + h^4/24, and |psi|^2 = r^(2k) after k steps.
    # ln(2) / (2 ln r) = 34.66, so the step that starts at t = 0.34 (the 35th)
    # is the first to take the total probability to 2 or more.  The message
    # names that step.
    h = lambda t: 1j * np.ones(np.shape(t) + (1, 1)) * np.eye(2)
    grid, cfg = [0.0, 1.0, 10.0], IntegratorConfig(step=0.01)
    with pytest.raises(NumericFailure) as got:
        integrate(h, StateVector.basis(2, 0), grid, cfg)
    assert str(got.value) == "RK4 diverged at t = 0.34: total probability reached 2"


def _package_imports(module: str) -> set:
    """In-package modules that ``module``'s source imports (relative or absolute)."""
    package = Path(nlevel_rabi.__file__).parent
    found = set()
    for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nlevel_rabi."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("nlevel_rabi."))
    return {name.split(".")[0] for name in found}


def test_rk4_oracle_imports_no_closed_form_code():
    closure, todo = set(), ["propagate"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo.extend(_package_imports(module))
    assert not closure & {"spectral", "exact", "dyson"}, closure


# each line: the package's modules loaded, then those it holds as attributes
LOADED = """import sys, nlevel_rabi.propagate
def show(package=sys.modules["nlevel_rabi"]):
    names = sorted(m.split(".")[1] for m in sys.modules if m.startswith("nlevel_rabi."))
    print(*names, "|", *(m for m in names if hasattr(package, m)))
show()
import nlevel_rabi.cli
show()
"""


def test_importing_the_rk4_oracle_loads_no_closed_form_module():
    env = {**os.environ, "PYTHONPATH": str(Path(nlevel_rabi.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True,
                            text=True, check=True)
    oracle, cli = result.stdout.splitlines()
    assert oracle == "model propagate | model propagate"
    # the CLI loads every module, and bench/spans.py looks each up on the package
    assert cli == ("cli dyson exact model propagate spectral | "
                   "cli dyson exact model propagate spectral")


def test_step_schedule_is_built_one_chunk_at_a_time():
    # 1e12 steps to the end of the grid; the one chunk built holds the 100 steps of the
    # budget: their t and t + h/2, and the end of the last
    h_fn, sizes = _counting(_ladder_h_fn(2, True))
    cfg = IntegratorConfig(step=1e-3, max_steps=100)
    with pytest.raises(StepBudgetExceeded) as exc:
        integrate(h_fn, StateVector.basis(2, 0), [0.0, 1e9], cfg)
    assert len(exc.value.trajectory.times) == 1
    assert sizes == [2 * 100 + 1]


# A stack mixes RWA and cosine members with different starting states; each member
# must reproduce its solo run bit for bit, and so stay within REFERENCE_TOL of the
# per-step loop.
def _stack_members(n):
    rng = np.random.default_rng(n)
    psis = [_psi0(n), StateVector.basis(n, n - 1),
            StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))]
    return [(_ladder_h_fn(n, rwa), psi) for rwa, psi in zip((True, False, True), psis)]


def _assert_stack_matches_per_step_loop(members, grid, cfg):
    got = integrate_stack([h for h, _ in members], [psi for _, psi in members], grid, cfg)
    assert len(got) == len(members)
    for (h_fn, psi0), result in zip(members, got):
        solo = integrate(h_fn, psi0, grid, cfg)
        np.testing.assert_array_equal(result.times, solo.times)
        np.testing.assert_array_equal(result.states, solo.states)
        _assert_matches_reference(result, _reference_integrate(h_fn, psi0, grid, cfg))


# a stack advances by matmul and each solo run by ndarray.dot; a BLAS build whose two calls
# round differently at some n fails here
STACK_SIZES = [2, 3, 4, 5, 8, 12, 16]


@pytest.mark.parametrize("n", STACK_SIZES)
@pytest.mark.parametrize("steps", [1, 64, 65, 129, "chunk-1", "chunk", "chunk+1"])
def test_stack_members_match_per_step_loop(n, steps):
    members = _stack_members(n)
    chunk = _chunk_length(len(members), n)
    steps = _steps_around(steps, chunk)
    counted = [_counting(h_fn) for h_fn, _ in members]
    grid, cfg = [0.0, steps * STEP], IntegratorConfig(step=STEP)
    integrate_stack([h for h, _ in counted], [psi for _, psi in members], grid, cfg)
    _assert_stack_matches_per_step_loop(members, grid, cfg)
    # each member's h_fn is called once per chunk of the stack's length
    for _, sizes in counted:
        assert sizes == _one_interval_sizes(steps, chunk)


@pytest.mark.parametrize("grid, step", [(np.linspace(0.0, 2.9, 8), 0.0123),
                                        ([0.0, 1.0, 2.0], 0.1)], ids=["clipped", "rounding"])
@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_members_match_per_step_loop_on_clipped_grid(n, grid, step):
    _assert_stack_matches_per_step_loop(_stack_members(n), grid, IntegratorConfig(step=step))


@pytest.mark.parametrize("max_steps", [63, 64, 65, "chunk-1", "chunk", "chunk+1"])
def test_step_budget_ends_every_member_with_its_solo_partial_trajectory(max_steps):
    members = _stack_members(3)
    max_steps = _steps_around(max_steps, _chunk_length(len(members), 3))
    grid, cfg = BUDGET_GRID, IntegratorConfig(step=STEP, max_steps=max_steps)
    got = integrate_stack([h for h, _ in members], [psi for _, psi in members], grid, cfg)
    for (h_fn, psi0), result in zip(members, got):
        assert isinstance(result, StepBudgetExceeded)
        with pytest.raises(StepBudgetExceeded) as solo:
            integrate(h_fn, psi0, grid, cfg)
        np.testing.assert_array_equal(result.trajectory.times, solo.value.trajectory.times)
        np.testing.assert_array_equal(result.trajectory.states, solo.value.trajectory.states)
        with pytest.raises(StepBudgetExceeded) as ref:
            _reference_integrate(h_fn, psi0, grid, cfg)
        _assert_matches_reference(result.trajectory, ref.value.trajectory)
        assert len(result.trajectory.times) == 1 + max_steps // 16


def test_overflowing_member_fails_alone_and_silently():
    # the middle member's total probability grows like exp(0.2 t) and reaches 2 at
    # t = ln(2) / 0.2 = 3.47, in the first of the stack's two chunks (910 and 90 steps)
    blowup = lambda t: 0.1j * np.ones(np.shape(t) + (1, 1)) * np.eye(2)
    (rwa, psi_a), (cosine, psi_b), _ = _stack_members(2)
    members = [(rwa, psi_a), (blowup, StateVector.basis(2, 0)), (cosine, psi_b)]
    grid, cfg = [0.0, 1.0, 10.0], IntegratorConfig(step=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        got = integrate_stack([h for h, _ in members], [psi for _, psi in members], grid, cfg)
    with pytest.raises(NumericFailure) as solo:
        integrate(blowup, StateVector.basis(2, 0), grid, cfg)
    assert isinstance(got[1], NumericFailure)
    assert str(got[1]) == str(solo.value)
    for (h_fn, psi0), result in zip(members[::2], got[::2]):
        np.testing.assert_array_equal(result.states, integrate(h_fn, psi0, grid, cfg).states)
        _assert_matches_reference(result, _reference_integrate(h_fn, psi0, grid, cfg))

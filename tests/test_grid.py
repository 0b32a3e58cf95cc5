"""Grid calls of the closed-form solvers against stacks of scalar calls.

Each solver takes a 1-D time grid and returns one row per time; a scalar
time is a grid of one.  The grid path batches its work over all samples, so
results may differ from the scalar path only in the last bits.
"""

import io

import numpy as np
import pytest

from nlevel_rabi import dyson
from nlevel_rabi.dyson import DysonConfig, approximate_solution_3, dyson_state
from nlevel_rabi.exact import exact_evolution
from nlevel_rabi.model import Detunings, LevelSpec, StateVector, apply_resonance
from nlevel_rabi.propagate import Trajectory

TOL = 1e-13


def _ladder(n, rng):
    return LevelSpec(tuple(np.concatenate(([0.0], np.cumsum(rng.uniform(0.8, 1.2, n - 1))))))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_exact_grid_matches_scalar_calls(n):
    rng = np.random.default_rng(n)
    lev = _ladder(n, rng)
    drive = apply_resonance(lev, 0.3)
    psi0 = StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
    grid = np.linspace(0.0, 40.0, 57)
    got = exact_evolution(lev, drive, psi0, grid)
    assert got.shape == (len(grid), n)
    ref = np.stack([exact_evolution(lev, drive, psi0, t).amp for t in grid])
    assert np.max(np.abs(got - ref)) < TOL
    np.testing.assert_array_equal(got[0], psi0.amp)


def test_exact_scalar_is_a_state_vector():
    lev = LevelSpec((0.0, 1.0, 2.0))
    sv = exact_evolution(lev, apply_resonance(lev, 0.1), StateVector.basis(3, 0), 1.5)
    assert isinstance(sv, StateVector)


def test_approximate_solution_grid_matches_scalar_calls():
    lev = LevelSpec((0.0, 1.0, 2.1))
    drive = apply_resonance(lev, 0.1, nonadjacent={(0, 2): 2.45})
    grid = np.linspace(0.0, 60.0, 301)
    got = approximate_solution_3(lev, drive, grid)
    assert got.shape == (len(grid), 3)
    ref = np.stack([approximate_solution_3(lev, drive, t) for t in grid])
    assert np.max(np.abs(got - ref)) < TOL


def _dyson_cases():
    for order in (1, 2):
        yield 3, Detunings(3, {(0, 2): 0.5}), order
        yield 4, Detunings(4, {(0, 2): 0.3, (1, 3): -0.2, (0, 3): 0.1}), order


@pytest.mark.parametrize("n, det, order", list(_dyson_cases()))
def test_dyson_grid_matches_scalar_calls(n, det, order):
    cfg = DysonConfig(order=order, quadrature_step=0.25)
    # t = 0.75 has ceil(t/q) = 3, odd, so its node count is rounded up to 4
    grid = np.array([0.0, 0.75, 1.0, 2.6, 5.0])
    psi0 = StateVector.normalized(np.arange(1, n + 1) + 1j)
    got = dyson_state(n, 0.3, det, psi0, grid, cfg)
    assert got.shape == (len(grid), n)
    ref = np.stack([dyson_state(n, 0.3, det, psi0, t, cfg) for t in grid])
    assert np.max(np.abs(got - ref)) < TOL
    np.testing.assert_array_equal(got[0], psi0.amp)


def test_dyson_split_node_batches_match_one_batch(monkeypatch):
    det = Detunings(3, {(0, 2): 0.5})
    cfg = DysonConfig(order=2, quadrature_step=0.05)
    grid = np.linspace(0.0, 6.0, 13)
    psi0 = StateVector.basis(3, 0)
    whole = dyson_state(3, 0.3, det, psi0, grid, cfg)
    # 9 entries per node and at most 121 nodes per sample: groups of two samples
    monkeypatch.setattr(dyson, "_STACK_ENTRIES", 9 * 2 * 121)
    split = dyson_state(3, 0.3, det, psi0, grid, cfg)
    assert np.max(np.abs(whole - split)) < TOL


def _loop_cumulative_simpson(values, h):
    # the running-integral loop the vectorized form replaces
    out = np.zeros_like(values)
    for k in range(0, values.shape[0] - 2, 2):
        panel = (h / 3.0) * (values[k] + 4.0 * values[k + 1] + values[k + 2])
        out[k + 2] = out[k] + panel
        half = (h / 12.0) * (5.0 * values[k] + 8.0 * values[k + 1] - values[k + 2])
        out[k + 1] = out[k] + half
    return out


def test_cumulative_simpson_equals_loop():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(41, 3, 3)) + 1j * rng.normal(size=(41, 3, 3))
    np.testing.assert_array_equal(dyson._cumulative_simpson(values, 0.013),
                                  _loop_cumulative_simpson(values, 0.013))


def _reference_csv(traj):
    n = traj.n
    header = ["t"] + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
    header += [f"p_{k}" for k in range(n)]
    lines = [",".join(header)]
    for t, row, pops in zip(traj.times, traj.states, traj.populations):
        cells = [f"{t:.17g}"]
        for z in row:
            cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        cells += [f"{p:.17g}" for p in pops]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_matches_per_cell_reference_writer():
    rng = np.random.default_rng(2)
    rows = 600  # more than two write blocks
    states = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
    states[0] = [1.0, 0.0, 0.0]
    states[300, 1] = complex(-0.0, -0.0)
    states[301, 2] = 1e-300 - 1e150j
    traj = Trajectory(np.linspace(0.0, 3.0, rows), states)
    buf = io.StringIO()
    traj.to_csv(buf)
    text = buf.getvalue()
    assert ",-0,-0," in text
    assert text == _reference_csv(traj)

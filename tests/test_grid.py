"""Grid calls of the closed-form solvers against stacks of scalar calls.

Each solver takes a 1-D time grid and returns one row per time; a scalar
time is a grid of one.  The grid path batches its work over all samples, so
results may differ from the scalar path only in the last bits.  The batched
Dyson quadrature is also checked against the per-sample loop it replaced.
"""

import io

import numpy as np
import pytest

from nlevel_rabi import dyson
from nlevel_rabi.dyson import (DysonConfig, a_matrix, a_matrix_3, approximate_solution_3,
                               dyson_state)
from nlevel_rabi.exact import exact_evolution
from nlevel_rabi.model import (Detunings, LevelSpec, StateVector, apply_resonance,
                               residual_coupling, rotating_frame)
from nlevel_rabi.propagate import Trajectory
from nlevel_rabi.spectral import exp_c, exp_c3

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


# the matrix-valued closed forms: a grid gives one matrix per time, t.shape + (n, n), each
# the bits of its scalar call
_MATRIX_FORMS = {
    "rotating_frame": lambda t: rotating_frame(apply_resonance(LevelSpec((0.0, 1.0, 2.5, 3.1)),
                                                               0.1), t),
    "exp_c3": lambda t: exp_c3(0.3, t),
    "a_matrix_3": lambda t: a_matrix_3(0.3, 0.7, t),
}


@pytest.mark.parametrize("name", list(_MATRIX_FORMS))
def test_matrix_closed_form_grid_is_its_stacked_scalar_calls(name):
    form = _MATRIX_FORMS[name]
    grid = np.linspace(0.0, 40.0, 57)
    got = form(grid)
    np.testing.assert_array_equal(got, np.stack([form(t) for t in grid]))
    assert form(grid.reshape(3, 19)).shape == (3, 19) + got.shape[1:]


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
    # the linspace samples with t > 0 share one stack (h = 0.05).  0.33, 1.7 and 4.01 have
    # steps h of their own, and 0.21's last node m*h misses t, so each of these is a stack
    # of its own; the batches split between shared stacks and samples of their own
    grid = np.sort(np.concatenate((np.linspace(0.0, 6.0, 13), [0.21, 0.33, 1.7, 4.01])))
    psi0 = StateVector.basis(3, 0)
    whole = dyson_state(3, 0.3, det, psi0, grid, cfg)
    # 9 entries per node and at most 121 nodes per sample: groups of two samples
    monkeypatch.setattr(dyson, "_STACK_ENTRIES", 9 * 2 * 121)
    split = dyson_state(3, 0.3, det, psi0, grid, cfg)
    assert np.array_equal(whole, split)


def test_dyson_negative_time_is_not_merged_with_a_sample_of_its_own():
    # t = -2 has h = -1, the stack key that sample 0 (0.21, whose last node m*h misses t)
    # would take as a sample of its own, were negative steps not kept apart
    det = Detunings(3, {(0, 2): 0.5})
    cfg = DysonConfig(order=2, quadrature_step=0.05)
    grid = np.array([0.21, -2.0])
    psi0 = StateVector.basis(3, 0)
    got = dyson_state(3, 0.3, det, psi0, grid, cfg)
    assert np.array_equal(got, np.stack([dyson_state(3, 0.3, det, psi0, t, cfg) for t in grid]))


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
    # three samples of 2, 12 and 40 intervals, stacked node after node as dyson_state does
    rng = np.random.default_rng(1)
    m = np.array([2, 12, 40])
    h = np.array([0.5, 0.013, 0.25])
    start = np.cumsum(m + 1) - (m + 1)
    values = rng.normal(size=(np.sum(m + 1), 3, 3)) + 1j * rng.normal(size=(np.sum(m + 1), 3, 3))
    got = dyson._running_integral(values, h, m, start)
    ref = np.concatenate([_loop_cumulative_simpson(values[s:s + mi + 1], hi)
                          for s, mi, hi in zip(start, m, h)])
    np.testing.assert_array_equal(got, ref)


def _reference_simpson(values, h):
    w = np.ones(values.shape[0])
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


def _reference_a_matrix(n, g, det, t):
    # A(t) as the exp_c sandwich, one stacked product per factor
    return exp_c(n, -g, t) @ residual_coupling(det, t) @ exp_c(n, g, t)


def _reference_dyson_state(n, g, det, psi0, t, cfg):
    # the per-sample loop: each sample's own linspace nodes and Simpson sums
    times = np.atleast_1d(np.asarray(t, dtype=float))
    series = []
    for ti in times:
        m = max(2, int(np.ceil(ti / cfg.quadrature_step)))
        m += m % 2
        a, h = _reference_a_matrix(n, g, det, np.linspace(0.0, ti, m + 1)), ti / m
        s = np.eye(n, dtype=complex) - 1j * g * _reference_simpson(a, h)
        if cfg.order == 2:
            s -= g * g * _reference_simpson(a @ _loop_cumulative_simpson(a, h), h)
        series.append(s)
    states = exp_c(n, g, times) @ np.array(series) @ psi0.amp
    states[times == 0] = psi0.amp
    return states if np.ndim(t) else states[0]


# over 3x the largest deviation from the per-sample loop on these cases (2.8e-15),
# well inside the 1e-13 to which solver outputs are preserved
REFERENCE_TOL = 1e-14

DETUNED = {
    2: Detunings(2, {}),
    3: Detunings(3, {(0, 2): 0.5}),
    4: Detunings(4, {(0, 2): 0.3, (1, 3): -0.2, (0, 3): 0.1}),
    8: Detunings(8, {(i, j): 0.1 * (i - j) + 0.05 * i for i in range(8) for j in range(i + 2, 8)}),
}


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_a_matrix_matches_exp_c_sandwich(n):
    grid = np.linspace(0.0, 12.0, 301)
    assert np.max(np.abs(a_matrix(n, 0.7, DETUNED[n], grid)
                         - _reference_a_matrix(n, 0.7, DETUNED[n], grid))) < REFERENCE_TOL
    got = a_matrix(n, 0.7, DETUNED[n], 4.2)
    assert got.shape == (n, n)
    assert np.max(np.abs(got - _reference_a_matrix(n, 0.7, DETUNED[n], 4.2))) < REFERENCE_TOL


# t = 0, an odd ceil(t/q) (0.75 / 0.25 = 3, rounded up to 4 intervals) and a scalar t
GRIDS = {"grid": np.array([0.0, 0.75, 1.0, 2.6, 5.0]), "scalar": 2.6}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_dyson_state_matches_per_sample_loop(n, order, grid):
    cfg = DysonConfig(order=order, quadrature_step=0.25)
    rng = np.random.default_rng(10 * n + order)
    psi0 = StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
    got = dyson_state(n, 0.3, DETUNED[n], psi0, grid, cfg)
    ref = _reference_dyson_state(n, 0.3, DETUNED[n], psi0, grid, cfg)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < REFERENCE_TOL


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [3, 8])
def test_split_node_batches_match_per_sample_loop(monkeypatch, n, order):
    cfg = DysonConfig(order=order, quadrature_step=0.05)
    grid = np.linspace(0.0, 6.0, 13)
    psi0 = StateVector.basis(n, n - 1)
    # n^2 entries per node and at most 121 nodes per sample: groups of two samples
    monkeypatch.setattr(dyson, "_STACK_ENTRIES", n * n * 2 * 121)
    got = dyson_state(n, 0.3, DETUNED[n], psi0, grid, cfg)
    ref = _reference_dyson_state(n, 0.3, DETUNED[n], psi0, grid, cfg)
    assert np.max(np.abs(got - ref)) < REFERENCE_TOL


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

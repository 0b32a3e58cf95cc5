import json

import numpy as np
import pytest

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
    DeviationReport,
    IntegratorConfig,
    NormRangeError,
    NumericFailure,
    StepBudgetExceeded,
    Trajectory,
    compare,
    expm_generic,
    integrate,
)
from nlevel_rabi.spectral import coupling_matrix, exp_c


def _two_level_resonant(g=0.1, delta=5.0):
    lev = LevelSpec((0.0, delta))
    return lev, apply_resonance(lev, g=g)


def test_zero_hamiltonian_keeps_state_constant():
    h = lambda t: np.zeros((3, 3), dtype=complex)
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
    h = lambda t: np.zeros((2, 2), dtype=complex)
    psi0 = StateVector.basis(2, 0)
    cfg = IntegratorConfig()
    with pytest.raises(ConfigError):
        integrate(h, psi0, [1.0, 2.0], cfg)  # must start at 0
    with pytest.raises(ConfigError):
        integrate(h, psi0, [0.0, 2.0, 1.0], cfg)
    with pytest.raises(ConfigError):
        integrate(h, psi0, [0.0], cfg)


def test_step_budget_exceeded_carries_partial_trajectory():
    lev, drive = _two_level_resonant()
    cfg = IntegratorConfig(step=1e-3, max_steps=1500)
    with pytest.raises(StepBudgetExceeded) as exc:
        integrate(full_hamiltonian(lev, drive), StateVector.basis(2, 0),
                  np.linspace(0, 10, 11), cfg)
    partial = exc.value.trajectory
    assert 1 <= len(partial.times) < 11


def test_numeric_failure_on_overflow():
    h = lambda t: 1e200 * np.ones((2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailure):
            integrate(h, StateVector.basis(2, 0), [0.0, 1.0], IntegratorConfig(step=0.5))


def test_integrator_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(step=0.0)
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


def test_expm_range_error():
    with pytest.raises(NormRangeError):
        expm_generic(100.0 * np.eye(2))


def test_compare_identical_is_zero():
    grid = np.linspace(0, 1, 5)
    states = np.exp(1j * np.outer(grid, [1.0, 2.0])) / np.sqrt(2)
    traj = Trajectory(grid, states)
    report = compare(traj, traj)
    assert report.max_amplitude_dev == 0.0
    assert report.max_aligned_amplitude_dev == 0.0
    assert report.max_population_dev == 0.0


def test_compare_global_phase_alignment():
    grid = np.linspace(0, 1, 4)
    states = np.tile(np.array([1.0, 1j]) / np.sqrt(2), (4, 1))
    shifted = np.exp(1j * 0.7) * states
    report = compare(Trajectory(grid, states), Trajectory(grid, shifted))
    assert report.max_amplitude_dev > 0.1
    assert report.max_aligned_amplitude_dev < 1e-14
    assert report.max_population_dev < 1e-15


def test_compare_grid_mismatch():
    states = np.array([[1.0 + 0j, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError):
        compare(Trajectory([0.0, 1.0], states), Trajectory([0.0, 2.0], states))


def test_deviation_report_dict():
    grid = np.linspace(0, 1, 3)
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (3, 1))
    report = compare(Trajectory(grid, states), Trajectory(grid, states))
    d = report.to_dict()
    assert d["columns"] == ["t", "amp_dev", "aligned_amp_dev", "pop_dev"]
    assert len(d["table"]) == 3


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
    assert json.dumps(traj.as_dict(), indent=2) == json.dumps(reference, indent=2)


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

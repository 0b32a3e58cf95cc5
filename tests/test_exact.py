import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi.exact import (
    ConsistencyError,
    ConsistencyReport,
    check_consistency,
    default_consistency_tol,
    exact_evolution,
    exp_q,
)
from nlevel_rabi.model import (
    ConfigError,
    Detunings,
    LevelSpec,
    StateVector,
    apply_resonance,
    detunings,
    full_hamiltonian,
)
from nlevel_rabi.propagate import IntegratorConfig, expm_generic, integrate


def test_check_consistency_satisfied():
    lev = LevelSpec((0.0, 1.0, 2.0))
    det = detunings(apply_resonance(lev, g=0.1))
    report = check_consistency(det, tol=1e-12)
    assert report.satisfied and not report.violations


def test_consistency_report_satisfied_follows_violations():
    assert ConsistencyReport().satisfied
    assert not ConsistencyReport(violations=(((0, 2), 0.5),)).satisfied


def test_check_consistency_violation():
    lev = LevelSpec((0.0, 1.0, 2.0))
    det = detunings(apply_resonance(lev, g=0.1, nonadjacent={(0, 2): 2.1}))
    report = check_consistency(det, tol=1e-12)
    assert not report.satisfied
    ((pair, eps),) = report.violations
    assert pair == (0, 2)
    assert eps == pytest.approx(0.1)


def test_check_consistency_two_level_vacuous():
    det = detunings(apply_resonance(LevelSpec((0.0, 1.0)), g=0.1))
    assert check_consistency(det, tol=1e-12).satisfied


def test_check_consistency_needs_positive_tol():
    with pytest.raises(ConfigError):
        check_consistency(Detunings(3, {(0, 2): 0.0}), tol=0.0)


def test_exp_q_identity_at_zero():
    for n in (2, 3, 6):
        np.testing.assert_allclose(exp_q(n, 0.7, 0.0), np.eye(n), atol=1e-15)


def test_exp_q_three_level_third_period():
    # g*t = pi/3 makes exp(-i*3*g*t) = -1: diagonal e^{i pi/3}/3, off -2e^{i pi/3}/3
    g, t = 0.5, np.pi / (3 * 0.5)
    m = exp_q(3, g, t)
    phase = np.exp(1j * np.pi / 3)
    expected = phase * (np.eye(3) - (2.0 / 3.0) * np.ones((3, 3)))
    np.testing.assert_allclose(m, expected, atol=1e-14)


def test_exp_q_vs_expm_oracle():
    rng = np.random.default_rng(2)
    n = 5
    q = np.ones((n, n)) - np.eye(n)
    for _ in range(20):
        g, t = rng.uniform(0.01, 1.0), rng.uniform(0, 10)
        np.testing.assert_allclose(
            exp_q(n, g, t), expm_generic(-1j * g * t * q), atol=1e-10
        )


def test_exp_q_unitary_and_group():
    rng = np.random.default_rng(9)
    for n in (2, 4, 7):
        for _ in range(10):
            g = rng.uniform(0.01, 1)
            t1, t2 = rng.uniform(0, 12, size=2)
            m1, m2 = exp_q(n, g, t1), exp_q(n, g, t2)
            assert np.max(np.abs(m1 @ m1.conj().T - np.eye(n))) < 1e-13
            assert np.max(np.abs(m1 @ m2 - exp_q(n, g, t1 + t2))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.floats(0.01, 2.0), st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_exp_q_is_unitary_with_the_group_property(n, g, s, t):
    u_s = exp_q(n, g, s)
    assert np.max(np.abs(u_s @ u_s.conj().T - np.eye(n))) < 1e-12
    assert np.max(np.abs(u_s @ exp_q(n, g, t) - exp_q(n, g, s + t))) < 1e-12


def _ground_config(n, g=0.1):
    lev = LevelSpec(tuple(float(k) for k in range(n)))
    return lev, apply_resonance(lev, g=g), StateVector.basis(n, 0)


def test_exact_evolution_matches_paper_three_vector():
    lev, drive, psi0 = _ground_config(3, g=0.2)
    for t in (0.7, 3.3, 9.0):
        got = exact_evolution(lev, drive, psi0, t).amp
        e3 = np.exp(-3j * 0.2 * t)
        expected = np.array(
            [
                np.exp(1j * 0.2 * t) * (e3 + 2) / 3,
                np.exp(1j * (0.2 - 1.0) * t) * (e3 - 1) / 3,
                np.exp(1j * (0.2 - 2.0) * t) * (e3 - 1) / 3,
            ]
        )
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_exact_evolution_populations_at_third_period():
    g = 0.1
    lev, drive, psi0 = _ground_config(3, g=g)
    t = np.pi / (3 * g)
    pops = exact_evolution(lev, drive, psi0, t).populations()
    np.testing.assert_allclose(pops, [1 / 9, 4 / 9, 4 / 9], atol=1e-9)


def test_exact_evolution_identity_at_zero():
    lev, drive, _ = _ground_config(4)
    psi0 = StateVector.normalized([1.0, 1j, 0.5, -0.25])
    np.testing.assert_allclose(
        exact_evolution(lev, drive, psi0, 0.0).amp, psi0.amp, atol=1e-15
    )


def test_exact_evolution_population_period():
    # ground-start populations repeat with period 2*pi/(n*g)
    g = 0.15
    for n in (3, 5):
        lev, drive, psi0 = _ground_config(n, g=g)
        period = 2 * np.pi / (n * g)
        for t in (0.4, 2.7):
            p1 = exact_evolution(lev, drive, psi0, t).populations()
            p2 = exact_evolution(lev, drive, psi0, t + period).populations()
            np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_exact_evolution_norm_and_population_sum():
    rng = np.random.default_rng(4)
    lev, drive, psi0 = _ground_config(4, g=0.3)
    for t in rng.uniform(0, 40, size=25):
        sv = exact_evolution(lev, drive, psi0, t)
        assert abs(np.linalg.norm(sv.amp) - 1.0) < 1e-12
        assert abs(sv.populations().sum() - 1.0) < 1e-12


def test_exact_evolution_arbitrary_initial_state():
    lev, drive, _ = _ground_config(3, g=0.2)
    psi0 = StateVector.normalized([0.2, 0.7 - 0.1j, 0.3j])
    sv = exact_evolution(lev, drive, psi0, 1.9)
    assert abs(np.linalg.norm(sv.amp) - 1.0) < 1e-12


def test_exact_evolution_rejects_detuned_config():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=0.1, nonadjacent={(0, 2): 2.1})
    with pytest.raises(ConsistencyError) as exc:
        exact_evolution(lev, drive, StateVector.basis(3, 0), 1.0)
    assert exc.value.report.violations[0][0] == (0, 2)


def test_exact_evolution_rejects_off_resonance():
    from nlevel_rabi.model import DriveSpec

    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = DriveSpec(n=3, omega={(0, 1): 0.8, (1, 2): 1.0, (0, 2): 1.8}, g=0.1)
    with pytest.raises(ConfigError):
        exact_evolution(lev, drive, StateVector.basis(3, 0), 1.0)


def test_default_tolerance_tracks_frequency_scale():
    drive = apply_resonance(LevelSpec((0.0, 10.0, 20.0)), g=0.1)
    assert default_consistency_tol(drive) == pytest.approx(1e-9 * 20.0)


@st.composite
def resonant_ladders(draw):
    """An anharmonic ladder of n in [2, 5] levels, every pair on resonance, a basis start."""
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.5, 2.0), min_size=n - 1, max_size=n - 1))
    levels = LevelSpec(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
    drive = apply_resonance(levels, g=draw(st.floats(0.05, 0.5)))
    return levels, drive, StateVector.basis(n, draw(st.integers(0, n - 1))), draw(st.floats(0.1, 5.0))


@settings(max_examples=40, deadline=None)
@given(resonant_ladders())
def test_exact_matches_rk4_on_random_resonant_ladders(case):
    levels, drive, psi0, t_max = case
    grid = np.linspace(0.0, t_max, 11)
    rk4 = integrate(full_hamiltonian(levels, drive), psi0, grid, IntegratorConfig(step=1e-3))
    assert np.max(np.abs(exact_evolution(levels, drive, psi0, grid) - rk4.states)) <= 1e-8

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi.exact import ConsistencyError, check_consistency, exact_evolution, exp_q
from nlevel_rabi.model import (
    ConfigError,
    DriveSpec,
    LevelSpec,
    StateVector,
    apply_resonance,
    full_hamiltonian,
)
from nlevel_rabi.propagate import IntegratorConfig, expm_generic, integrate, integrate_stack


def test_check_consistency_satisfied():
    assert check_consistency(apply_resonance(LevelSpec((0.0, 1.0, 2.0)), g=0.1)) == ()


def test_check_consistency_violation():
    lev = LevelSpec((0.0, 1.0, 2.0))
    ((pair, eps),) = check_consistency(apply_resonance(lev, g=0.1, nonadjacent={(0, 2): 2.1}))
    assert pair == (0, 2)
    assert eps == pytest.approx(0.1)


def test_check_consistency_two_level_vacuous():
    assert check_consistency(apply_resonance(LevelSpec((0.0, 1.0)), g=0.1)) == ()


def test_check_consistency_lists_the_violating_pairs_in_pair_order():
    lev = LevelSpec((0.0, 1.0, 2.5, 4.0))
    drive = apply_resonance(lev, g=0.2, nonadjacent={(1, 3): 3.2, (0, 2): 2.6})
    assert [pair for pair, _ in check_consistency(drive)] == [(0, 2), (1, 3)]


def test_exp_q_needs_two_levels():
    with pytest.raises(ValueError, match="^n must be at least 2$"):
        exp_q(1, 0.1, 1.0)


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
    assert exc.value.violations == check_consistency(drive)
    assert exc.value.violations[0][0] == (0, 2)


def test_exact_evolution_rejects_off_resonance():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = DriveSpec(n=3, omega={(0, 1): 0.8, (1, 2): 1.0, (0, 2): 1.8}, g=0.1)
    with pytest.raises(ConfigError):
        exact_evolution(lev, drive, StateVector.basis(3, 0), 1.0)


def test_default_tolerance_tracks_frequency_scale():
    # at max omega = 20 the tolerance is 1e-9 * 20 = 2e-8
    lev = LevelSpec((0.0, 10.0, 20.0))
    drive = lambda omega_0_2: apply_resonance(lev, g=0.1, nonadjacent={(0, 2): omega_0_2})
    assert check_consistency(drive(20 + 1.9e-8)) == ()
    ((pair, eps),) = check_consistency(drive(20 + 2.1e-8))
    assert pair == (0, 2) and eps == pytest.approx(2.1e-8, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5), st.data())
def test_exact_evolution_refuses_exactly_the_drives_check_consistency_flags(n, data):
    # each non-adjacent pair is on its chain sum, or off it by half or 1.5 times the
    # 1e-9 * max omega tolerance (max omega is n - 1 here), or by a deliberate detuning
    levels = LevelSpec(tuple(float(k) for k in range(n)))
    scales = st.sampled_from([0.0, 0.5e-9, -0.5e-9, 1.5e-9, -1.5e-9, 1e-3, -1e-3])
    offset = {(i, j): data.draw(scales) * (n - 1) for i in range(n) for j in range(i + 2, n)}
    drive = apply_resonance(levels, g=0.1,
                            nonadjacent={(i, j): j - i + off for (i, j), off in offset.items()})
    violations = check_consistency(drive)
    assert [ij for ij, _ in violations] == [ij for ij, off in offset.items()
                                            if abs(off) > 1e-9 * (n - 1)]
    psi0 = StateVector.basis(n, 0)
    if violations:
        with pytest.raises(ConsistencyError) as exc:
            exact_evolution(levels, drive, psi0, np.linspace(0.0, 1.0, 3))
        assert exc.value.violations == violations
    else:
        assert exact_evolution(levels, drive, psi0, np.linspace(0.0, 1.0, 3)).shape == (3, n)


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


@settings(max_examples=20, deadline=None)
@given(resonant_ladders(), st.floats(-50.0, 50.0))
def test_a_shift_of_every_energy_leaves_the_states_unchanged(case, c):
    levels, drive, psi0, t_max = case
    shifted = LevelSpec(tuple(e + c for e in levels.energies))
    grid = np.linspace(0.0, 2.0 * t_max, 11)  # t <= 10
    exact = [exact_evolution(lev, drive, psi0, grid) for lev in (levels, shifted)]
    assert np.max(np.abs(exact[0] - exact[1])) <= 1e-12
    rk4 = integrate_stack([full_hamiltonian(lev, drive) for lev in (levels, shifted)],
                          [psi0, psi0], grid, IntegratorConfig(step=1e-2))
    assert np.max(np.abs(rk4[0].states - rk4[1].states)) <= 1e-12

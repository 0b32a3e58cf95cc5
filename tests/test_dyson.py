import numpy as np
import pytest

from nlevel_rabi.dyson import (
    DysonConfig,
    a_matrix,
    a_matrix_3,
    approximate_solution_3,
    dyson_state,
    first_order_state_3,
    max_quadrature_step,
)
from nlevel_rabi.exact import exp_q
from nlevel_rabi.model import (
    ConfigError,
    Detunings,
    DriveSpec,
    LevelSpec,
    StateVector,
    apply_resonance,
    detunings,
    full_hamiltonian,
)
from nlevel_rabi.propagate import IntegratorConfig, integrate

SQRT2 = np.sqrt(2.0)
GROUND3 = StateVector.basis(3, 0)


def test_a_matrix_two_level_is_zero():
    det = Detunings(2, {})
    for t in (0.0, 1.3, 8.0):
        assert np.all(a_matrix(2, 0.4, det, t) == 0.0)


def test_a_matrix_3_matches_conjugation():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        g = rng.uniform(0.01, 2.0)
        eps = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, 25.0)
        det = Detunings(3, {(0, 2): eps})
        dev = np.max(np.abs(a_matrix(3, g, det, t) - a_matrix_3(g, eps, t)))
        worst = max(worst, dev)
    assert worst < 1e-12


def test_a_matrix_3_at_zero_is_residual():
    expected = 0.5 * np.array([[0, 0, 2], [0, 0, 0], [2, 0, 0]], dtype=complex)
    np.testing.assert_allclose(a_matrix_3(0.3, 0.7, 0.0), expected, atol=1e-15)


def test_a_matrix_hermitian():
    rng = np.random.default_rng(6)
    det = Detunings(4, {(0, 2): 0.4, (1, 3): -0.3, (0, 3): 0.2})
    for _ in range(20):
        m = a_matrix(4, 0.5, det, rng.uniform(0, 15))
        assert np.max(np.abs(m - m.conj().T)) < 1e-13


def test_a22_is_minus_two_a11():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = a_matrix_3(rng.uniform(0.01, 2), rng.uniform(-3, 3), rng.uniform(0, 20))
        assert m[1, 1] == pytest.approx(-2 * m[0, 0], abs=1e-15)


def test_a13_detuning_conjugation_symmetry():
    # flipping the detuning conjugates the corner entry; Hermiticity pairs it
    # with the opposite corner
    rng = np.random.default_rng(13)
    for _ in range(100):
        g, eps, t = rng.uniform(0.01, 2), rng.uniform(0.1, 3), rng.uniform(0, 20)
        m = a_matrix_3(g, eps, t)
        m_neg = a_matrix_3(g, -eps, t)
        assert m_neg[0, 2] == pytest.approx(np.conj(m[0, 2]), abs=1e-14)
        assert m[2, 0] == pytest.approx(np.conj(m[0, 2]), abs=1e-14)


def test_dyson_config_validation():
    with pytest.raises(ConfigError):
        DysonConfig(order=3)
    with pytest.raises(ConfigError):
        DysonConfig(order=1, quadrature_step=0.0)
    det = Detunings(3, {(0, 2): 5.0})
    cfg = DysonConfig(order=1, quadrature_step=1.0)
    with pytest.raises(ConfigError):
        dyson_state(3, 0.5, det, GROUND3, 2.0, cfg)


def test_max_quadrature_step_bounds():
    det = Detunings(3, {(0, 2): 0.0})
    assert max_quadrature_step(0.1, det) == pytest.approx(1.0)
    det = Detunings(3, {(0, 2): 10.0})
    assert max_quadrature_step(0.1, det) == pytest.approx(2 * np.pi / 100)


def test_dyson_state_small_coupling_collapses_to_exp_c():
    from nlevel_rabi.spectral import exp_c

    g = 1e-6
    det = Detunings(3, {(0, 2): 1.0})
    cfg = DysonConfig(order=1, quadrature_step=0.05)
    t = 4.0
    got = dyson_state(3, g, det, GROUND3, t, cfg)
    ref = exp_c(3, g, t) @ GROUND3.amp
    assert np.max(np.abs(got - ref)) < 1e-5  # series term is O(g)


def test_dyson_state_zero_time():
    det = Detunings(3, {(0, 2): 0.5})
    got = dyson_state(3, 0.1, det, GROUND3, 0.0, DysonConfig())
    np.testing.assert_array_equal(got, GROUND3.amp)


def test_dyson_order2_approaches_exact_at_consistency():
    g = 0.05
    det = Detunings(3, {(0, 2): 0.0})
    cfg = DysonConfig(order=2, quadrature_step=0.01)
    for t in (2.0, 6.0):
        got = dyson_state(3, g, det, GROUND3, t, cfg)
        ref = exp_q(3, g, t) @ GROUND3.amp
        # truncation error is cubic in the accumulated phase
        assert np.max(np.abs(got - ref)) < (SQRT2 * g * t) ** 3


def test_dyson_first_order_matches_closed_form():
    g, eps = 0.01, 1.0
    det = Detunings(3, {(0, 2): eps})
    cfg = DysonConfig(order=1, quadrature_step=1e-3)
    for t in (0.5, 5.0, 12.3, 20.0):
        q = dyson_state(3, g, det, GROUND3, t, cfg)
        f = first_order_state_3(g, eps, t)
        assert np.max(np.abs(q - f)) < 1e-8


@pytest.mark.parametrize(
    "eps_factor", [0.0, 1.0, -1.0, 2.0, -2.0], ids=["eps0", "+rt2g", "-rt2g", "+2rt2g", "-2rt2g"]
)
def test_first_order_singular_limits(eps_factor):
    # each removable singularity of the closed form against the quadrature path
    g = 0.01
    eps = eps_factor * SQRT2 * g
    det = Detunings(3, {(0, 2): eps})
    cfg = DysonConfig(order=1, quadrature_step=5e-4)
    t = 7.3
    q = dyson_state(3, g, det, GROUND3, t, cfg)
    f = first_order_state_3(g, eps, t)
    assert np.max(np.abs(q - f)) < 1e-8


def test_first_order_near_singular_continuity():
    # just outside the limit threshold the direct formula must agree too
    g = 0.01
    for eps0 in (0.0, SQRT2 * g, 2 * SQRT2 * g):
        for eps in (eps0 + 1e-4, eps0 - 1e-4):
            det = Detunings(3, {(0, 2): eps})
            q = dyson_state(3, g, det, GROUND3, 7.3, DysonConfig(order=1, quadrature_step=5e-4))
            f = first_order_state_3(g, eps, 7.3)
            assert np.max(np.abs(q - f)) < 1e-8


def test_first_order_at_zero_time():
    np.testing.assert_allclose(first_order_state_3(0.3, 0.8, 0.0), [1, 0, 0], atol=1e-15)


def test_first_order_zeroth_term_is_exp_c_column():
    # the g-independent part is the first column of the closed-form propagator
    g, t = 1e-9, 3.1
    x = first_order_state_3(g, 1.0, t)
    c = np.cos(SQRT2 * g * t)
    s = np.sin(SQRT2 * g * t)
    expected = np.array([(1 + c) / 2, -1j * s / SQRT2, (-1 + c) / 2])
    assert np.max(np.abs(x - expected)) < 1e-8


def test_quadrature_step_convergence_ratio():
    det = Detunings(3, {(0, 2): 0.7})
    t, g = 5.0, 0.3
    vals = [
        dyson_state(3, g, det, GROUND3, t, DysonConfig(order=2, quadrature_step=h))
        for h in (0.05, 0.025, 0.0125)
    ]
    d1 = np.max(np.abs(vals[0] - vals[1]))
    d2 = np.max(np.abs(vals[1] - vals[2]))
    assert 10 < d1 / d2 < 22  # fourth-order composite rule


def test_first_order_norm_defect_is_quadratic_in_g():
    # the anti-Hermitian first-order term preserves the norm to O(g); the
    # defect in |x|^2 is exactly second order, so halving g divides it by ~4
    def defect(g):
        return max(
            abs(np.linalg.norm(first_order_state_3(g, 0.5, t)) ** 2 - 1)
            for t in np.linspace(0.01, 10.0, 150)
        )

    ratio = defect(0.02) / defect(0.01)
    assert 3.0 < ratio < 5.0


def test_first_order_error_scaling_vs_oracle():
    def max_dev(g, eps=0.5, T=10.0):
        lev = LevelSpec((0.0, 1.0, 2.0))
        drive = apply_resonance(lev, g, nonadjacent={(0, 2): 2.0 + eps})
        grid = np.linspace(0.0, T, 81)
        traj = integrate(
            full_hamiltonian(lev, drive), GROUND3, grid, IntegratorConfig(step=2e-3)
        )
        return max(
            np.max(np.abs(approximate_solution_3(lev, drive, t) - traj.states[i]))
            for i, t in enumerate(grid)
        )

    ratio = max_dev(0.02) / max_dev(0.01)
    assert 3.0 < ratio < 5.0


def test_approximate_solution_requirements():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=0.05)
    np.testing.assert_allclose(approximate_solution_3(lev, drive, 0.0), [1, 0, 0], atol=1e-15)
    with pytest.raises(ConfigError):
        approximate_solution_3(LevelSpec((0.0, 1.0)), apply_resonance(LevelSpec((0.0, 1.0)), 0.05), 1.0)
    off_resonance = DriveSpec(n=3, omega={(0, 1): 1.1, (1, 2): 1.0, (0, 2): 2.1}, g=0.05)
    with pytest.raises(ConfigError, match="^first-order solution requires the resonance"):
        approximate_solution_3(lev, off_resonance, 1.0)


def test_approximate_solution_phases():
    lev = LevelSpec((0.0, 1.0, 2.5))
    eps = 0.4
    drive = apply_resonance(lev, g=0.02, nonadjacent={(0, 2): 2.5 + eps})
    t = 3.7
    x = first_order_state_3(0.02, eps, t)
    got = approximate_solution_3(lev, drive, t)
    np.testing.assert_allclose(got[0], x[0], atol=1e-15)
    np.testing.assert_allclose(got[1], np.exp(-1j * 1.0 * t) * x[1], atol=1e-15)
    np.testing.assert_allclose(got[2], np.exp(-1j * 2.5 * t) * x[2], atol=1e-15)


def test_approximate_matches_exact_at_consistency():
    # with eps = 0 the first-order result tracks the exact solution to O(g^2)
    lev = LevelSpec((0.0, 1.0, 2.0))
    from nlevel_rabi.exact import exact_evolution

    def dev(g):
        drive = apply_resonance(lev, g)
        return max(
            np.max(
                np.abs(
                    approximate_solution_3(lev, drive, t)
                    - exact_evolution(lev, drive, GROUND3, t).amp
                )
            )
            for t in np.linspace(0.0, 8.0, 40)
        )

    assert 3.0 < dev(0.02) / dev(0.01) < 5.0


def test_generic_n_quadrature_path():
    # no closed form beyond n = 3: the quadrature route must still run
    det = Detunings(4, {(0, 2): 0.3, (1, 3): -0.2, (0, 3): 0.1})
    psi0 = StateVector.basis(4, 0)
    out = dyson_state(4, 0.05, det, psi0, 4.0, DysonConfig(order=2, quadrature_step=0.02))
    assert out.shape == (4,)
    assert abs(np.linalg.norm(out) - 1.0) < 0.05

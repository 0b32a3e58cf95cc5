import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi.model import (
    ConfigError,
    Detunings,
    DriveSpec,
    LevelSpec,
    StateVector,
    apply_resonance,
    detunings,
    full_hamiltonian,
    full_hamiltonian_nonrwa,
    is_resonant,
    residual_coupling,
    rotating_frame,
    rotating_frame_phases,
    transformed_hamiltonian,
)
from nlevel_rabi.spectral import coupling_matrix


def test_level_spec_validates():
    with pytest.raises(ConfigError):
        LevelSpec((1.0,))
    with pytest.raises(ConfigError):
        LevelSpec((0.0, 0.0))
    with pytest.raises(ConfigError):
        LevelSpec((1.0, 0.5))


def test_level_spec_shifts_ground_to_zero():
    lev = LevelSpec((2.0, 3.0, 4.5))
    assert lev.energies == (0.0, 1.0, 2.5)
    assert lev.deltas[0] == 0.0


def test_drive_spec_validates():
    with pytest.raises(ConfigError):
        DriveSpec(n=2, omega={(0, 1): 1.0}, g=0.0)
    with pytest.raises(ConfigError):
        DriveSpec(n=3, omega={(0, 1): 1.0}, g=0.1)  # missing pairs
    with pytest.raises(ConfigError):
        DriveSpec(n=2, omega={(0, 1): -1.0}, g=0.1)
    with pytest.raises(ConfigError, match="^need at least two levels$"):
        DriveSpec(n=1, omega={}, g=0.1)


def test_state_vector_must_be_one_dimensional():
    with pytest.raises(ConfigError, match="^state must be a vector of length >= 2$"):
        StateVector(np.eye(2))


def test_state_vector_norm_check():
    with pytest.raises(ConfigError):
        StateVector(np.array([1.0, 1.0]))
    sv = StateVector.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(sv.amp) - 1.0) < 1e-15
    np.testing.assert_allclose(StateVector.basis(3, 1).populations(), [0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_level_spec_rejects_non_finite(bad):
    with pytest.raises(ConfigError):
        LevelSpec((0.0, bad, 2.0))
    with pytest.raises(ConfigError):
        LevelSpec((0.0, 1.0, bad))


def test_level_spec_refuses_a_span_that_overflows_once_the_ground_is_zero():
    # each energy is finite, but E_2 - E_0 = 2e308 is not
    with pytest.raises(ConfigError, match="^energies must be finite$"):
        LevelSpec((-1e308, 0.0, 1e308))


def test_level_spec_refuses_levels_the_shift_merges():
    # 1e-300 + 1e20 rounds to 1e20, so E_1 and E_2 coincide once the ground is zero
    with pytest.raises(ConfigError, match="^energies must be strictly increasing$"):
        LevelSpec((-1e20, 0.0, 1e-300))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_drive_spec_rejects_non_finite(bad):
    with pytest.raises(ConfigError):
        DriveSpec(n=2, omega={(0, 1): 1.0}, g=bad)
    with pytest.raises(ConfigError):
        DriveSpec(n=2, omega={(0, 1): bad}, g=0.1)


def test_state_vector_rejects_nan():
    with pytest.raises(ConfigError):
        StateVector(np.array([np.nan, 0.0]))
    with pytest.raises(ConfigError):
        StateVector(np.array([1.0, np.inf]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_normalized_refuses_non_finite_amplitudes_without_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="finite"):
            StateVector.normalized([bad, 0.0, 0.0])


@pytest.mark.parametrize("amps, expected", [
    ([1e308, 1e308, 0.0], [2 ** -0.5, 2 ** -0.5, 0.0]),
    ([-1.7e308, 1.7e308j, 1.7e308], [-(3 ** -0.5), 3 ** -0.5 * 1j, 3 ** -0.5]),
    ([1e-200, 1e-200j, 0.0], [2 ** -0.5, 2 ** -0.5 * 1j, 0.0]),
    ([5e-324, 0.0, 0.0], [1.0, 0.0, 0.0]),
], ids=["1e308", "1.7e308", "1e-200", "min-subnormal"])
def test_normalized_scales_extreme_amplitudes_without_warning(amps, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amp = StateVector.normalized(amps).amp
    np.testing.assert_allclose(amp, expected, rtol=0, atol=3e-16)


FINITE_AMPS = st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=6)


@settings(max_examples=200, deadline=None)
@given(FINITE_AMPS)
def test_normalized_keeps_the_unscaled_bits_and_scales_only_out_of_range_norms(amps):
    a = np.array(amps, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not np.any(a):
        with pytest.raises(ConfigError, match="zero vector"):
            StateVector.normalized(amps)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amp = StateVector.normalized(amps).amp
    if 2.0 ** -511 <= norm < np.inf:  # the squares stay normal: the unscaled quotient, bit for bit
        assert (amp.view(np.int64) == (a / norm).view(np.int64)).all()
    else:  # overflowed or underflowed unscaled: now a unit vector all the same
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-15


def test_interaction_rwa_unit_circle_points():
    # omega_01*t = pi/2, omega_12*t = pi, omega_02*t = 3*pi/2 at t = 1; with g = 1,
    # V(t) = H(t) - diag(delta)
    drive = DriveSpec(
        n=3, omega={(0, 1): np.pi / 2, (1, 2): np.pi, (0, 2): 3 * np.pi / 2}, g=1.0
    )
    lev = LevelSpec((0.0, 1.0, 2.0))
    v = full_hamiltonian(lev, drive)(1.0) - np.diag(lev.deltas)
    assert abs(v[0, 1] - 1j) < 1e-15
    assert abs(v[1, 2] + 1.0) < 1e-15
    assert abs(v[0, 2] + 1j) < 1e-15
    np.testing.assert_allclose(v, v.conj().T, atol=1e-15)


def test_full_hamiltonian_small_coupling_is_h0():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=1e-15)
    h = full_hamiltonian(lev, drive)
    assert np.max(np.abs(h(3.7) - np.diag(lev.deltas))) < 1e-14


def test_full_hamiltonian_two_level_matrix():
    lev = LevelSpec((0.0, 2.0))
    drive = apply_resonance(lev, g=0.3)
    h = full_hamiltonian(lev, drive)(1.1)
    w = 2.0
    expected = np.array(
        [[0, 0.3 * np.exp(1j * w * 1.1)], [0.3 * np.exp(-1j * w * 1.1), 2.0]]
    )
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_full_hamiltonian_three_level_entries():
    lev = LevelSpec((0.0, 1.0, 2.5))
    drive = apply_resonance(lev, g=0.2, nonadjacent={(0, 2): 2.7})
    t = 0.8
    h = full_hamiltonian(lev, drive)(t)
    assert abs(h[0, 1] - 0.2 * np.exp(1j * 1.0 * t)) < 1e-15
    assert abs(h[1, 2] - 0.2 * np.exp(1j * 1.5 * t)) < 1e-15
    assert abs(h[0, 2] - 0.2 * np.exp(1j * 2.7 * t)) < 1e-15
    np.testing.assert_allclose(np.diag(h).real, [0.0, 1.0, 2.5])


def test_nonrwa_hamiltonian_real_symmetric():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=0.4, rwa=False)
    h = full_hamiltonian_nonrwa(lev, drive)
    m0 = h(0.0)
    off = m0[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.4 * np.ones(6), atol=0)
    for t in (0.3, 1.9, 12.0):
        m = h(t)
        assert np.max(np.abs(m.imag)) == 0.0
        np.testing.assert_allclose(m, m.T)


def test_nonrwa_two_level_cosine():
    lev = LevelSpec((0.0, 1.5))
    drive = apply_resonance(lev, g=0.2, rwa=False)
    t = 2.3
    m = full_hamiltonian_nonrwa(lev, drive)(t)
    np.testing.assert_allclose(
        m.real, [[0, 0.2 * np.cos(1.5 * t)], [0.2 * np.cos(1.5 * t), 1.5]], atol=1e-15
    )


def test_mode_flags_enforced():
    lev = LevelSpec((0.0, 1.0))
    with pytest.raises(ConfigError):
        full_hamiltonian(lev, apply_resonance(lev, g=0.1, rwa=False))
    with pytest.raises(ConfigError):
        full_hamiltonian_nonrwa(lev, apply_resonance(lev, g=0.1, rwa=True))
    # each factory's two refusals and their texts; the level count is checked first
    lev3 = LevelSpec((0.0, 1.0, 2.5))
    for factory, rwa, kind in [(full_hamiltonian, True, "an RWA drive"),
                               (full_hamiltonian_nonrwa, False, "rwa=False"),
                               (transformed_hamiltonian, True, "an RWA drive")]:
        for levels, other in ((lev, lev3), (lev3, lev)):
            for drive_rwa in (rwa, not rwa):
                with pytest.raises(ConfigError) as exc:
                    factory(levels, apply_resonance(other, g=0.1, rwa=drive_rwa))
                assert str(exc.value) == "level count and drive dimension disagree"
            with pytest.raises(ConfigError) as exc:
                factory(levels, apply_resonance(levels, g=0.1, rwa=not rwa))
            assert str(exc.value) == f"{factory.__name__} requires {kind}"


def test_drive_omega_is_held_in_pair_order():
    # the lab-frame factories read the pair rates in this order
    drive = DriveSpec(n=3, omega={(1, 2): 1.0, (0, 2): 2.1, (0, 1): 1.2}, g=0.1)
    assert list(drive.omega) == [(0, 1), (0, 2), (1, 2)]
    h = full_hamiltonian(LevelSpec((0.0, 1.0, 2.0)), drive)(0.3)
    for (i, j), w in {(1, 2): 1.0, (0, 2): 2.1, (0, 1): 1.2}.items():
        assert h[i, j] == pytest.approx(0.1 * np.exp(1j * w * 0.3), abs=1e-16)


def test_rotating_frame_identity_and_unitarity():
    drive = apply_resonance(LevelSpec((0.0, 1.0, 2.5)), g=0.1)
    np.testing.assert_array_equal(rotating_frame(drive, 0.0), np.eye(3))
    for t in np.linspace(0.1, 9.0, 7):
        u = rotating_frame(drive, t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-15)


def test_rotating_frame_adjoint_phases():
    drive = apply_resonance(LevelSpec((0.0, 1.0, 2.5)), g=0.1)
    t = 1.7
    u_dag = rotating_frame(drive, t).conj().T
    expected = np.diag([1.0, np.exp(-1j * 1.0 * t), np.exp(-1j * 2.5 * t)])
    np.testing.assert_allclose(u_dag, expected, atol=1e-15)


def test_detunings_definition():
    drive = apply_resonance(
        LevelSpec((0.0, 1.0, 2.0, 3.0)), g=0.1,
        nonadjacent={(0, 2): 2.25, (0, 3): 3.5, (1, 3): 2.0},
    )
    det = detunings(drive)
    assert det.eps[(0, 2)] == pytest.approx(0.25)
    assert det.eps[(0, 3)] == pytest.approx(0.5)
    assert det.eps[(1, 3)] == pytest.approx(0.0)


def test_transformed_hamiltonian_constant_at_consistency():
    lev = LevelSpec((0.0, 1.0, 2.0))
    drive = apply_resonance(lev, g=0.3)
    h = transformed_hamiltonian(lev, drive)
    q = 0.3 * (np.ones((3, 3)) - np.eye(3))
    for t in (0.0, 1.1, 7.7):
        np.testing.assert_allclose(h(t), q, atol=1e-15)


def test_transformed_hamiltonian_two_level_resonance():
    lev = LevelSpec((0.0, 1.0))
    drive = apply_resonance(lev, g=0.25)
    np.testing.assert_allclose(
        transformed_hamiltonian(lev, drive)(0.4), [[0, 0.25], [0.25, 0]], atol=0
    )


def test_transformed_hamiltonian_detuned_diagonal():
    lev = LevelSpec((0.0, 1.0, 2.5))
    # off-resonant adjacent drives leave the detuned energies on the diagonal
    drive = DriveSpec(
        n=3, omega={(0, 1): 0.9, (1, 2): 1.4, (0, 2): 2.3}, g=1e-15
    )
    h = transformed_hamiltonian(lev, drive)(0.6)
    np.testing.assert_allclose(np.diag(h).real, [0.0, 0.1, 0.2], atol=1e-14)


def test_apply_resonance_frequencies():
    drive = apply_resonance(LevelSpec((0.0, 1.0, 2.0)), g=0.1)
    np.testing.assert_allclose(drive.adjacent, [1.0, 1.0])
    drive = apply_resonance(LevelSpec((0.0, 1.0, 2.5)), g=0.1)
    np.testing.assert_allclose(drive.adjacent, [1.0, 1.5])
    assert is_resonant(LevelSpec((0.0, 1.0, 2.5)), drive)


def test_resonance_zeroes_diagonal_exactly():
    lev = LevelSpec((0.0, 1.0, 2.5))
    drive = apply_resonance(lev, g=0.2)
    h = transformed_hamiltonian(lev, drive)(3.3)
    assert np.all(np.diag(h) == 0.0)


def test_split_c_r_consistency_gives_q():
    # split as H_rot = g(C + R(t)): with every detuning zero, C + R(0) = Q = J - I
    lev = LevelSpec((0.0, 1.0, 2.0, 3.0))
    det = detunings(apply_resonance(lev, g=0.1))
    q = coupling_matrix(4) + residual_coupling(det, 0.0).real
    np.testing.assert_array_equal(q, np.ones((4, 4)) - np.eye(4))


def test_reconstruction_is_exact():
    lev = LevelSpec((0.0, 1.0, 2.0, 3.3))
    drive = apply_resonance(lev, g=0.37, nonadjacent={(0, 2): 2.11, (0, 3): 3.9})
    c, det = coupling_matrix(drive.n), detunings(drive)
    h = transformed_hamiltonian(lev, drive)
    for t in (0.0, 0.9, 5.5):
        np.testing.assert_array_equal(drive.g * c + drive.g * residual_coupling(det, t), h(t))


@pytest.mark.parametrize("builder", ["rwa", "nonrwa", "transformed"])
def test_hermiticity_sampled(builder):
    lev = LevelSpec((0.0, 1.1, 2.4, 3.5))
    rng = np.random.default_rng(7)
    if builder == "rwa":
        h = full_hamiltonian(lev, apply_resonance(lev, g=0.3, nonadjacent={(0, 2): 2.9}))
    elif builder == "nonrwa":
        h = full_hamiltonian_nonrwa(lev, apply_resonance(lev, g=0.3, rwa=False))
    else:
        h = transformed_hamiltonian(lev, apply_resonance(lev, g=0.3, nonadjacent={(0, 3): 3.1}))
    for t in rng.uniform(0, 30, size=100):
        m = h(t)
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


def test_frame_consistency():
    # For psi_rot = U psi the frame change is U H U† + i (dU/dt) U†; with the
    # diagonal U the derivative term is analytic: -diag(cumulative phases).
    lev = LevelSpec((0.0, 1.0, 2.2))
    drive = apply_resonance(lev, g=0.21, nonadjacent={(0, 2): 2.5})
    h_lab = full_hamiltonian(lev, drive)
    h_rot = transformed_hamiltonian(lev, drive)
    phases = rotating_frame_phases(drive)
    for t in np.linspace(0.0, 11.0, 23):
        u = rotating_frame(drive, t)
        lhs = u @ h_lab(t) @ u.conj().T - np.diag(phases)
        assert np.max(np.abs(lhs - h_rot(t))) < 1e-12


def test_residual_coupling_matches_detunings():
    det = Detunings(4, {(0, 2): 0.5, (1, 3): -0.2, (0, 3): 0.0})
    m = residual_coupling(det, 2.0)
    assert abs(m[0, 2] - np.exp(1j)) < 1e-15
    assert abs(m[1, 3] - np.exp(-0.4j)) < 1e-15
    assert m[0, 3] == 1.0
    assert np.all(np.diag(m) == 0)

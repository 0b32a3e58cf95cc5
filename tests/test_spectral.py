import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi.propagate import expm_generic
from nlevel_rabi.spectral import (
    char_poly,
    coupling_matrix,
    decompose,
    eigenvalues,
    exp_c,
    exp_c3,
)

SQRT2 = np.sqrt(2.0)


def test_char_poly_f4():
    # f_4(lam) = lam^4 - 3 lam^2 + 1
    for lam in (-2.0, -0.5, 0.0, 1.0, 2.7):
        assert char_poly(4, lam) == pytest.approx(lam**4 - 3 * lam**2 + 1, abs=1e-12)
    assert char_poly(4, 1.0) == pytest.approx(-1.0)


def test_char_poly_base_cases():
    assert char_poly(2, 3.0) == pytest.approx(8.0)
    assert char_poly(3, 0.0) == 0.0  # lam = 0 is an eigenvalue for n = 3


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_roots(n):
    for j in range(1, n + 1):
        lam = 2 * np.cos(np.pi * j / (n + 1))
        assert abs(char_poly(n, lam)) < 1e-10


def test_char_poly_matches_lu_determinant():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        c = coupling_matrix(n)
        for lam in rng.uniform(-3, 3, size=20):
            det = np.linalg.det(lam * np.eye(n) - c)
            ref = char_poly(n, lam)
            assert det == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_decompose_two_level():
    dec = decompose(2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(
        dec.basis, np.array([[1, 1], [1, -1]]) / SQRT2, atol=1e-15
    )


def test_decompose_three_level_eigenvalues():
    np.testing.assert_allclose(
        decompose(3).eigenvalues, [SQRT2, 0.0, -SQRT2], atol=1e-15
    )


def test_eigenvalues_decreasing():
    for n in range(2, 17):
        lam = eigenvalues(n)
        assert np.all(np.diff(lam) < 0)


def test_basis_orthonormal_n5():
    o = decompose(5).basis
    np.testing.assert_allclose(o @ o.T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 17))
def test_eigen_residual(n):
    dec = decompose(n)
    c = coupling_matrix(n)
    residual = c @ dec.basis - dec.basis * dec.eigenvalues
    assert np.max(np.abs(residual)) < 1e-12


def test_exp_c_identity_at_zero():
    for n in (2, 3, 7):
        np.testing.assert_allclose(exp_c(n, 0.4, 0.0), np.eye(n), atol=1e-15)


def test_exp_c3_matches_exp_c_and_components():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g, t = rng.uniform(0.01, 2.0), rng.uniform(0.0, 25.0)
        m3 = exp_c3(g, t)
        assert np.max(np.abs(m3 - exp_c(3, g, t))) < 1e-13
        assert np.max(np.abs(m3 - exp_c(3, g, t, method="components"))) < 1e-13


def test_exp_c3_special_angle():
    # sqrt(2) g t = pi: cos = -1, sin = 0
    g = 0.3
    t = np.pi / (SQRT2 * g)
    expected = np.array([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex)
    np.testing.assert_allclose(exp_c3(g, t), expected, atol=1e-13)


def test_exp_c3_unitary():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = exp_c3(rng.uniform(0.01, 3), rng.uniform(0, 40))
        assert np.max(np.abs(m @ m.conj().T - np.eye(3))) < 1e-13


def test_exp_c_vs_expm_oracle():
    np.testing.assert_allclose(
        exp_c(6, 0.3, 2.0),
        expm_generic(-1j * 0.3 * 2.0 * coupling_matrix(6)),
        atol=1e-10,
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_exp_c_unitarity(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        g, t = rng.uniform(0.01, 2), rng.uniform(0, 30)
        m = exp_c(n, g, t)
        assert np.max(np.abs(m @ m.conj().T - np.eye(n))) < 1e-12


def test_exp_c_group_property():
    rng = np.random.default_rng(17)
    for n in (2, 4, 9):
        for _ in range(10):
            g = rng.uniform(0.01, 1.5)
            t1, t2 = rng.uniform(0, 15, size=2)
            lhs = exp_c(n, g, t1) @ exp_c(n, g, t2)
            assert np.max(np.abs(lhs - exp_c(n, g, t1 + t2))) < 1e-11


@pytest.mark.parametrize("n", range(2, 13))
def test_exp_c_equals_the_stacked_product(n):
    # exp_c applies O^T as one 2-D product; the stacked matmul it replaced gives the same bits
    dec = decompose(n)
    for t in (1.7, np.array([2.5]), np.linspace(0.0, 40.0, 57)):
        phase = np.exp(np.multiply.outer(-1j * 0.3 * np.asarray(t), dec.eigenvalues))
        np.testing.assert_array_equal(exp_c(n, 0.3, t),
                                      (dec.basis * phase[..., None, :]) @ dec.basis.T)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.floats(0.01, 2.0), st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_exp_c_is_unitary_with_the_group_property(n, g, s, t):
    u_s, u_t, u_sum = exp_c(n, g, np.array([s, t, s + t]))
    assert np.max(np.abs(u_s @ u_s.conj().T - np.eye(n))) < 1e-12
    assert np.max(np.abs(u_s @ u_t - u_sum)) < 1e-12


def test_exp_c_methods_agree():
    rng = np.random.default_rng(23)
    for n in (2, 5, 10):
        for _ in range(10):
            g, t = rng.uniform(0.01, 2), rng.uniform(0, 20)
            a = exp_c(n, g, t)
            b = exp_c(n, g, t, method="components")
            assert np.max(np.abs(a - b)) < 1e-12


def test_invalid_inputs():
    with pytest.raises(ValueError):
        exp_c(1, 0.1, 1.0)
    with pytest.raises(ValueError):
        exp_c(3, 0.1, 1.0, method="magic")
    with pytest.raises(ValueError):
        char_poly(1, 0.5)

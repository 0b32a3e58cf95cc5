"""Property tests: each pair builder equals a per-pair loop; each Hamiltonian is Hermitian."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi.model import (
    LevelSpec,
    apply_resonance,
    detunings,
    full_hamiltonian,
    full_hamiltonian_nonrwa,
    residual_coupling,
    rotating_frame,
    rotating_frame_phases,
    transformed_hamiltonian,
)


@st.composite
def configs(draw):
    """A ladder of n in [2, 8] levels, resonant adjacent drives, some detuned pairs."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.1, 10.0), min_size=n - 1, max_size=n - 1))
    levels = LevelSpec(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
    far = [(i, j) for i in range(n) for j in range(i + 2, n)]
    detuned = draw(st.lists(st.sampled_from(far), unique=True)) if far else []
    nonadjacent = {ij: draw(st.floats(0.1, 50.0)) for ij in detuned}
    return levels, nonadjacent, draw(st.floats(0.01, 2.0))


times = st.one_of(
    st.floats(0.0, 100.0),
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6).map(np.array),
)


def loop_reference(n, diag, values, entry, t):
    """Put diag[k] at (k, k), fill each pair (i, j) by hand with entry(value, t) and mirror
    its conjugate."""
    m = np.zeros(np.shape(t) + (n, n), dtype=complex)
    for k in range(n):
        m[..., k, k] = diag[k]
    for (i, j), x in values.items():
        m[..., i, j] = entry(x, t)
        m[..., j, i] = np.conj(m[..., i, j])
    return m


def builders(config, t):
    """(name, built matrix, loop reference) for each of the five pair-matrix builders."""
    levels, nonadjacent, g = config
    n, zeros = levels.n, np.zeros(levels.n)
    rwa = apply_resonance(levels, g, nonadjacent=nonadjacent)
    cosine = apply_resonance(levels, g, rwa=False, nonadjacent=nonadjacent)
    det = detunings(rwa)
    # the rotating frame's pair rates: eps on the detuned pairs, 0.0 on the adjacent ones
    eps = {**{(k, k + 1): 0.0 for k in range(n - 1)}, **det.eps}
    return [
        ("H_rot", transformed_hamiltonian(levels, rwa)(t),
         loop_reference(n, levels.deltas - rotating_frame_phases(rwa), eps,
                        lambda e, t: g * np.exp(1j * e * t), t)),
        ("H", full_hamiltonian(levels, rwa)(t),
         loop_reference(n, levels.deltas, rwa.omega, lambda w, t: g * np.exp(1j * w * t), t)),
        ("H_cos", full_hamiltonian_nonrwa(levels, cosine)(t),
         loop_reference(n, levels.deltas, cosine.omega, lambda w, t: g * np.cos(w * t), t)),
        ("R", residual_coupling(det, t),
         loop_reference(n, zeros, det.eps, lambda e, t: np.exp(1j * e * t), t)),
        # the frame unitary: phase k at (k, k) for each time, and no pairs
        ("U", rotating_frame(rwa, t),
         loop_reference(n, [np.exp(1j * w * t) for w in rotating_frame_phases(rwa)], {}, None, t)),
    ]


@settings(max_examples=60, deadline=None)
@given(configs(), times)
def test_pair_builders_are_hermitian(config, t):
    n = config[0].n
    for name, m, _ in builders(config, t):
        assert m.shape == np.shape(t) + (n, n), name
        assert m.dtype == complex and m.flags.c_contiguous, name
        if name == "U":  # unit phases on the diagonal, +0.0 off it (no -0.0 parts)
            assert np.allclose(abs(np.diagonal(m, axis1=-2, axis2=-1)), 1.0)
            off = m[..., ~np.eye(n, dtype=bool)]
            assert not (np.signbit(off.real) | np.signbit(off.imag)).any()
        else:
            assert np.array_equal(m, np.conj(np.swapaxes(m, -1, -2))), name


@settings(max_examples=60, deadline=None)
@given(configs(), times)
def test_pair_builders_match_per_pair_loop(config, t):
    for name, m, ref in builders(config, t):
        assert np.array_equal(m, ref), name

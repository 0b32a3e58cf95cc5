"""A Dyson grid gives each sample the bits of its solo call.

Samples of a grid whose Simpson steps coincide share one stack of A(s) nodes
in ``dyson_state``.  That is sound because ``a_matrix`` gives the same bits
for a node wherever it sits in a stack, which the a_matrix tests below pin.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlevel_rabi import dyson
from nlevel_rabi.dyson import DysonConfig, a_matrix, dyson_state, max_quadrature_step
from nlevel_rabi.model import Detunings, StateVector

PARTS = st.floats(-1.0, 1.0)


@st.composite
def couplings(draw):
    """n, g and random detunings on every non-adjacent pair."""
    n = draw(st.integers(2, 5))
    g = draw(st.floats(0.05, 1.5))
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
    eps = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return n, g, Detunings(n, dict(zip(pairs, eps)))


def _psi0(draw, n):
    amp = draw(st.lists(st.builds(complex, PARTS, PARTS), min_size=n, max_size=n))
    return StateVector.normalized(np.array(amp) + 1e-3)


@st.composite
def round_grids(draw):
    """np.linspace over a round t_max, stepped so that many samples share one h."""
    t_max = draw(st.integers(1, 20)) / draw(st.sampled_from([1, 2, 4, 10]))
    samples = draw(st.integers(2, 21))
    return np.linspace(0.0, t_max, samples), t_max / (samples - 1)


@st.composite
def random_grids(draw):
    """Sorted random times in [0, t_max], t = 0 among them."""
    t_max = draw(st.floats(0.1, 10.0))
    times = draw(st.lists(st.floats(0.0, t_max), min_size=1, max_size=15))
    return np.sort([0.0, *times]), None


@settings(max_examples=80, deadline=None)
@given(couplings(), st.one_of(round_grids(), random_grids()), st.sampled_from([1, 2]),
       st.integers(1, 4), st.floats(0.05, 1.0), st.data())
def test_dyson_grid_equals_each_sample_alone(coupling, grid, order, per_spacing, fraction,
                                             data):
    n, g, det = coupling
    times, spacing = grid
    bound = max_quadrature_step(g, det)
    # a round grid takes a whole fraction of its spacing as q, so its steps coincide
    q = bound * fraction
    if spacing is not None:
        q = spacing / (per_spacing * int(np.ceil(spacing / bound)))
    assert q <= bound
    psi0 = _psi0(data.draw, n)
    cfg = DysonConfig(order=order, quadrature_step=q)
    got = dyson_state(n, g, det, psi0, times, cfg)
    solo = np.stack([dyson_state(n, g, det, psi0, t, cfg) for t in times])
    assert np.array_equal(got, solo)


@settings(max_examples=60, deadline=None)
@given(couplings(), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
       st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40), st.data())
def test_a_matrix_node_bits_do_not_depend_on_the_stack(coupling, left, right, data):
    n, g, det = coupling
    nodes = np.array(left + right)
    whole = a_matrix(n, g, det, nodes)
    subset = np.array(data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1)))
    assert np.array_equal(a_matrix(n, g, det, nodes[subset]), whole[subset])
    parts = np.concatenate([a_matrix(n, g, det, np.array(left)),
                            a_matrix(n, g, det, np.array(right))])
    assert np.array_equal(parts, whole)
    assert np.array_equal(a_matrix(n, g, det, nodes[0]), whole[0])


def test_dyson_detuned_grid_builds_each_shared_node_once(monkeypatch):
    # dyson2 on the benchmark's detuned grid: every t > 0 has h = t/m = 0.05 and ends on
    # its own node, so one stack of 201 nodes serves 20 samples; t = 0 adds its own 3
    rows = []

    def counted(n, g, det, t):
        rows.append(np.size(t))
        return a_matrix(n, g, det, t)

    monkeypatch.setattr(dyson, "a_matrix", counted)
    det = Detunings(3, {(0, 2): 0.4})
    cfg = DysonConfig(order=2, quadrature_step=0.5 * max_quadrature_step(1.0, det))
    assert cfg.quadrature_step == 0.05
    dyson_state(3, 1.0, det, StateVector.basis(3, 0), np.linspace(0.0, 10.0, 21), cfg)
    assert sum(rows) == 204

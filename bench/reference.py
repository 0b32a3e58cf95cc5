"""Reference trajectories the benchmark checks the CLI outputs against.

Nothing here imports the package under test.

* ``rwa``: resonant, consistent ladders.  The rotating-frame Hamiltonian is
  the constant g (J - I); it is diagonalised with ``numpy.linalg.eigh`` and
  moved to the lab frame with the phases exp(-i E_k t).
* ``cosine``: the non-RWA drive g cos(omega_ij t), integrated by 4th-order
  Magnus steps (two Gauss nodes) with a step 1/20 of the solver's.
* ``dyson1`` / ``dyson2``: the Dyson truncations as computed by the code at
  the commit that defined this benchmark.  The functions prefixed ``seed_``
  are a frozen copy of that code path and reproduce its output bit for bit;
  they must not follow later changes to the package.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


def evaluate(ref: tuple) -> np.ndarray:
    """States (samples, n) for a reference spec from ``workloads.Output.ref``."""
    kind = ref[0]
    if kind == "rwa":
        _, energies, g, t_max, samples = ref
        return rwa_reference(energies, g, np.linspace(0.0, t_max, samples))
    if kind == "cosine":
        _, energies, g, t_max, samples = ref
        return cosine_reference(energies, g, np.linspace(0.0, t_max, samples))
    if kind in ("dyson1", "dyson2"):
        _, energies, g, eps, t_max, samples = ref
        fn = seed_dyson1 if kind == "dyson1" else seed_dyson2
        return fn(energies, g, eps, np.linspace(0.0, t_max, samples))
    raise ValueError(f"unknown reference {kind!r}")


def rwa_reference(energies, g, times) -> np.ndarray:
    """Ground-state start under the resonant, consistent RWA drive."""
    e = np.asarray(energies, dtype=float)
    n = len(e)
    w, v = np.linalg.eigh(g * (np.ones((n, n)) - np.eye(n)))
    coeff = v.conj().T[:, 0]
    rot = (np.exp(-1j * np.outer(times, w)) * coeff) @ v.T
    return np.exp(-1j * np.outer(times, e)) * rot


def cosine_reference(energies, g, times, substeps: int = 1000) -> np.ndarray:
    """Ground-state start under H = diag(E) + g cos((E_j - E_i) t) off the diagonal."""
    e = np.asarray(energies, dtype=float)
    n = len(e)
    omega = np.abs(e[None, :] - e[:, None])
    off = 1.0 - np.eye(n)

    def hamiltonian(t):
        return g * off * np.cos(omega * t[:, None, None]) + np.diag(e)

    h = (times[1] - times[0]) / substeps
    starts = (times[:-1, None] + h * np.arange(substeps)).ravel()
    c = math.sqrt(3.0) / 6.0
    h1, h2 = hamiltonian(starts + (0.5 - c) * h), hamiltonian(starts + (0.5 + c) * h)
    k = 0.5 * h * (h1 + h2) + 1j * (math.sqrt(3.0) / 12.0) * h * h * (h1 @ h2 - h2 @ h1)
    w, v = np.linalg.eigh(k)
    steps = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    out = [psi]
    for i, u in enumerate(steps, start=1):
        psi = u @ psi
        if i % substeps == 0:
            out.append(psi)
    return np.array(out)


# --- frozen seed Dyson path (cli.run_solver -> dyson.dyson_state / approximate_solution_3) ---

def _seed_drive(energies, eps_flag):
    """Frame phases and the (0, 2) detuning exactly as the seed CLI derives them."""
    e = np.asarray(energies, dtype=float)
    adj = np.array([float(e[1] - e[0]), float(e[2] - e[1])])
    eps = (float(e[2]) + float(eps_flag)) - float(adj[0:2].sum())
    phases = np.concatenate(([0.0], np.cumsum(adj)))
    return phases, eps


def _seed_decompose(n):
    j = np.arange(1, n + 1, dtype=float)
    basis = math.sqrt(2.0 / (n + 1)) * np.sin(np.remainder(np.pi * np.outer(j, j) / (n + 1),
                                                           2.0 * np.pi))
    lam = 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return lam, basis


def _seed_exp_c(dec, g, t):
    lam, basis = dec
    phase = np.exp(-1j * g * t * lam)
    return (basis * phase) @ basis.T


def _seed_a_matrix(dec, g, eps, t):
    r = np.zeros((3, 3), dtype=complex)
    r[0, 2] = np.exp(1j * eps * t)
    r[2, 0] = np.conj(r[0, 2])
    return _seed_exp_c(dec, -g, t) @ r @ _seed_exp_c(dec, g, t)


def _seed_simpson(values, h):
    m = values.shape[0] - 1
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


def _seed_cumulative_simpson(values, h):
    m = values.shape[0] - 1
    out = np.zeros_like(values)
    for k in range(0, m - 1, 2):
        panel = (h / 3.0) * (values[k] + 4.0 * values[k + 1] + values[k + 2])
        out[k + 2] = out[k] + panel
        half = (h / 12.0) * (5.0 * values[k] + 8.0 * values[k + 1] - values[k + 2])
        out[k + 1] = out[k] + half
    return out


def seed_dyson2(energies, g, eps_flag, times) -> np.ndarray:
    phases, eps = _seed_drive(energies, eps_flag)
    bound = 1.0 / (10.0 * g)
    if abs(eps) > 0:
        bound = min(bound, 2.0 * np.pi / (10.0 * abs(eps)))
    step = 0.5 * bound
    dec = _seed_decompose(3)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    states = []
    for t in times:
        if t == 0:
            rot = psi0.copy()
        else:
            m = max(2, int(math.ceil(t / step)))
            if m % 2:
                m += 1
            h = t / m
            a = np.stack([_seed_a_matrix(dec, g, eps, s) for s in np.linspace(0.0, t, m + 1)])
            series = np.eye(3, dtype=complex) - 1j * g * _seed_simpson(a, h)
            inner = _seed_cumulative_simpson(a, h)
            series -= g * g * _seed_simpson(a @ inner, h)
            rot = _seed_exp_c(dec, g, t) @ series @ psi0
        states.append(np.exp(-1j * phases * t) * rot)
    return np.stack(states)


def _seed_ratio(num, den, limit, scale):
    if abs(den) < 1e-6 * scale:
        return limit
    return num / den


def _seed_first_order_state_3(g, eps, t):
    r = _seed_ratio
    sg = _SQRT2 * g
    c = np.cos(sg * t)
    s = np.sin(sg * t)
    ch = np.cos(g * t / _SQRT2)
    sh = np.sin(g * t / _SQRT2)
    scale = max(sg, abs(eps))
    sinc = r(np.sin(eps * t), eps, t, scale)
    t1 = r(s + np.sin((sg + eps) * t), 2.0 * sg + eps, t * c, scale)
    t2 = r(s + np.sin((sg - eps) * t), 2.0 * sg - eps, t * c, scale)
    x1 = (
        (1.0 + c) / 2.0
        - 1j * g / 4.0 * (-2.0 + c) * sinc
        - 1j * g / 8.0 * (t1 + t2)
        + g / 2.0 * sh * (
            r(sh + np.sin((g / _SQRT2 + eps) * t), sg + eps, t * ch, scale)
            - r(sh + np.sin((g / _SQRT2 - eps) * t), sg - eps, t * ch, scale)
        )
    )
    x2 = (
        -1j * s / _SQRT2
        - _SQRT2 * g / 4.0 * s * sinc
        + 1j * _SQRT2 * g / 4.0 * (
            r(np.sin(eps * t) + s, sg + eps, t * c, scale)
            + r(np.sin(eps * t) - s, sg - eps, -t * c, scale)
        )
        - _SQRT2 * g / 8.0 * (
            r(np.cos((sg + eps) * t) - c, 2.0 * sg + eps, t * s, scale)
            + r(np.cos((sg - eps) * t) - c, 2.0 * sg - eps, t * s, scale)
        )
    )
    x3 = (
        (-1.0 + c) / 2.0
        - 1j * g / 4.0 * (2.0 + c) * sinc
        - 1j * g / 8.0 * (t1 + t2)
        + g / 2.0 * ch * (
            r(-ch + np.cos((g / _SQRT2 + eps) * t), sg + eps, t * sh, scale)
            - r(-ch + np.cos((g / _SQRT2 - eps) * t), sg - eps, t * sh, scale)
        )
    )
    return np.array([x1, x2, x3])


def seed_dyson1(energies, g, eps_flag, times) -> np.ndarray:
    phases, eps = _seed_drive(energies, eps_flag)
    return np.stack([np.exp(-1j * phases * t) * _seed_first_order_state_3(g, eps, t)
                     for t in times])

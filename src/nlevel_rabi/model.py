"""Physical configuration and Hamiltonian builders for the driven n-level atom.

An atom with n levels E_0 < ... < E_{n-1} interacts with n(n-1)/2 external
fields, one per level pair (i, j).  Under the rotating wave approximation the
pair (i, j) couples through a phase factor exp(i*omega_ij*t); without it the
drive is a real cosine, g*cos(omega_ij*t).

Conventions (fixed throughout the package):

* hbar = 1; the constant ground-state offset is dropped, so energies are
  stored shifted with E_0 = 0.
* Drive phases are zero.
* The RWA coupling g already absorbs the factor 1/2 from splitting the
  cosine, so an RWA run with coupling g corresponds physically to a cosine
  drive of amplitude 2g.  Cross-mode comparisons must apply that factor:
  ``compare`` and mixed ``run.solver`` sweeps run numeric-full at 2g
  (``cli._runs``); ``evolve --solver numeric-full`` reads g as the amplitude.

Note on the cosine drive: the three-level source problem is sometimes written
with "cos(i*omega*t)", which taken literally is a cosh and would make the
Hamiltonian non-Hermitian and unbounded.  We read it as cos(omega*t),
consistent with the two-level dipole form.

All types are immutable after construction and all evaluators are pure
functions of t, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

# H(t) for a 1-D array of times: one n x n matrix per time, shape t.shape + (n, n).
# The RK4 oracle calls it once per chunk of steps; the factories here also take a scalar t.
HamiltonianFn = Callable[[np.ndarray], np.ndarray]

__all__ = [
    "ConfigError",
    "LevelSpec",
    "DriveSpec",
    "Detunings",
    "StateVector",
    "HamiltonianFn",
    "full_hamiltonian",
    "full_hamiltonian_nonrwa",
    "rotating_frame",
    "to_lab_frame",
    "transformed_hamiltonian",
    "apply_resonance",
    "is_resonant",
    "detunings",
    "residual_coupling",
]


class ConfigError(ValueError):
    """Invalid physical configuration or parameters."""


@dataclass(frozen=True)
class LevelSpec:
    """Atomic level structure: strictly increasing energies, ground at zero.

    Energies are shifted at construction so E_0 = 0; the overall offset is a
    global phase and never enters populations.
    """

    energies: tuple

    def __post_init__(self):
        e = tuple(float(x) for x in self.energies)
        if len(e) < 2:
            raise ConfigError("need at least two levels")
        shifted = tuple(x - e[0] for x in e)
        if not np.all(np.isfinite(shifted)):  # an input that is not, or a span that overflows
            raise ConfigError("energies must be finite")
        if any(b <= a for a, b in zip(shifted, shifted[1:])):  # the shift may merge levels
            raise ConfigError("energies must be strictly increasing")
        object.__setattr__(self, "energies", shifted)

    @property
    def n(self) -> int:
        return len(self.energies)

    @property
    def deltas(self) -> np.ndarray:
        """Energies relative to the ground state: delta_0 = 0, delta_j = E_j - E_0."""
        return np.asarray(self.energies, dtype=float)


@dataclass(frozen=True)
class DriveSpec:
    """External fields: one positive frequency per level pair, coupling g > 0.

    ``omega`` maps each ordered pair (i, j), i < j, to its drive frequency, in ``_pairs``
    order.  The adjacent frequencies omega_k = omega[(k-1, k)] set the rotating frame;
    the non-adjacent ones control the detunings.
    """

    n: int
    omega: Mapping
    g: float
    rwa: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("need at least two levels")
        if not 0 < self.g < np.inf:
            raise ConfigError("coupling g must be positive and finite")
        om = {(int(i), int(j)): float(w) for (i, j), w in dict(self.omega).items()}
        pairs = _pairs(self.n)
        odd = [f"missing omega_{i}_{j}" for i, j in pairs if (i, j) not in om]
        odd += [f"unexpected omega_{i}_{j}" for i, j in sorted(set(om) - set(pairs))]
        if odd:
            raise ConfigError("omega must hold exactly one frequency per pair (i, j) with i < j: "
                              + ", ".join(odd))
        bad = [f"omega_{i}_{j}" for (i, j), w in sorted(om.items()) if not 0 < w < np.inf]
        if bad:
            raise ConfigError(f"{', '.join(bad)}: drive frequencies must be positive and finite")
        object.__setattr__(self, "omega", dict(sorted(om.items())))

    @property
    def adjacent(self) -> np.ndarray:
        """omega_k = omega_{k-1,k} for k = 1 .. n-1."""
        return np.array([self.omega[(k - 1, k)] for k in range(1, self.n)])


@dataclass(frozen=True)
class Detunings:
    """eps_{ij} = omega_{ij} - (omega_{i+1} + ... + omega_j) for j - i >= 2."""

    n: int
    eps: Mapping

    def __post_init__(self):
        object.__setattr__(
            self, "eps", {(int(i), int(j)): float(v) for (i, j), v in dict(self.eps).items()}
        )


_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector (same shape in every frame)."""

    amp: np.ndarray

    def __post_init__(self):
        a = np.array(self.amp, dtype=complex)
        if a.ndim != 1 or len(a) < 2:
            raise ConfigError("state must be a vector of length >= 2")
        if not abs(np.linalg.norm(a) - 1.0) <= _NORM_TOL:  # also refuses NaN
            raise ConfigError("state vector must have unit norm")
        a.flags.writeable = False
        object.__setattr__(self, "amp", a)

    @property
    def n(self) -> int:
        return len(self.amp)

    def populations(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    @classmethod
    def basis(cls, n: int, k: int) -> "StateVector":
        amp = np.zeros(n, dtype=complex)
        amp[k] = 1.0
        return cls(amp)

    @classmethod
    def normalized(cls, amps) -> "StateVector":
        """amps / ||amps||, with no overflow or underflow in the norm's squares.

        Where the unscaled squares leave the normal range (a part near 1e308, or
        all parts below 1e-154), the norm is taken again with the largest real or
        imaginary part scaled by a power of two into [0.5, 1) (at most 2^1000 up).
        So (1e308, 1e308) normalises to (1/sqrt 2, 1/sqrt 2), and every other input
        gives the same bits as the unscaled quotient.
        """
        a = np.array(amps, dtype=complex, ndmin=1)
        if not np.all(np.isfinite(a)):
            raise ConfigError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if not 2.0 ** -511 <= norm < np.inf:
            parts = a.view(float)  # (re, im) pairs: scaled as reals, exactly
            _, exponent = np.frexp(np.max(np.abs(parts), initial=0.0))
            a = (parts * 2.0 ** min(-int(exponent), 1000)).view(complex)
            norm = np.linalg.norm(a)
        if norm == 0:
            raise ConfigError("cannot normalize the zero vector")
        return cls(a / norm)


def _pairs(n: int) -> list:
    """The n(n-1)/2 level pairs (i, j), i < j, row by row: np.triu_indices(n, 1) order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _hermitian(diag, upper, i, j) -> np.ndarray:
    """diag(diag) plus upper[..., p] at (i[p], j[p]) and its conjugate at (j[p], i[p]).

    The package's one pair builder: a fresh C-contiguous complex array of shape
    upper.shape[:-1] + (n, n), its leading (time) axes those of ``upper``; ``diag`` has
    n values on its last axis, which may carry those leading axes too.  Zero, then the
    diagonal, then the pairs: each entry a copy of the value it is given.
    """
    n = np.shape(diag)[-1]
    m = np.zeros(upper.shape[:-1] + (n * n,), dtype=complex)
    m[..., :: n + 1] = diag
    m[..., i * n + j] = upper
    m[..., j * n + i] = upper.conj()
    return m.reshape(upper.shape[:-1] + (n, n))


def _pair_drive(name: str, levels: LevelSpec, drive: DriveSpec, rwa: bool, frame, rates, wave):
    """H(t): deltas - frame on the diagonal, g * wave(rates * t) on each pair in ``_pairs`` order.

    ``frame`` (0.0 in the lab) is subtracted once the drive is known to fit ``levels``;
    ``name``, the caller's, heads the refusal of a drive whose kind is not ``rwa``.
    """
    if levels.n != drive.n:
        raise ConfigError("level count and drive dimension disagree")
    if drive.rwa != rwa:
        raise ConfigError(f"{name} requires {'an RWA drive' if rwa else 'rwa=False'}")
    diag, g, (i, j) = levels.deltas - frame, drive.g, np.array(_pairs(drive.n)).T
    return lambda t: _hermitian(diag, g * wave(np.multiply.outer(t, rates)), i, j)


def full_hamiltonian(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Lab-frame RWA Hamiltonian H(t) = H0 + g*V(t): g*exp(i*omega_ij*t) on each pair."""
    return _pair_drive("full_hamiltonian", levels, drive, True, 0.0,
                       1j * np.fromiter(drive.omega.values(), float), np.exp)


def full_hamiltonian_nonrwa(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Lab-frame cosine-drive Hamiltonian: off-diagonals g*cos(omega_ij*t)."""
    return _pair_drive("full_hamiltonian_nonrwa", levels, drive, False, 0.0,
                       np.fromiter(drive.omega.values(), float), np.cos)


def rotating_frame_phases(drive: DriveSpec) -> np.ndarray:
    """Cumulative adjacent frequencies (0, omega_1, omega_1+omega_2, ...)."""
    return np.concatenate(([0.0], np.cumsum(drive.adjacent)))


def rotating_frame(drive: DriveSpec, t) -> np.ndarray:
    """Diagonal frame unitary U(t) = diag(1, e^{i*omega_1*t}, e^{i(omega_1+omega_2)t}, ...).

    One n x n matrix per time: shape t.shape + (n, n).
    """
    phases = np.exp(1j * np.multiply.outer(t, rotating_frame_phases(drive)))
    # zeros off the diagonal, where phases * I would give -0.0; no pairs
    return _hermitian(phases, phases[..., :0], *np.empty((2, 0), dtype=np.intp))


def to_lab_frame(drive: DriveSpec, t, states) -> np.ndarray:
    """Lab-frame states U(t)† psi of rotating-frame ``states``, one row per time of ``t``."""
    return np.exp(-1j * np.multiply.outer(t, rotating_frame_phases(drive))) * states


def _pair_detunings(drive: DriveSpec) -> np.ndarray:
    """eps_ij = omega_ij - (omega_{i+1} + ... + omega_j) in ``_pairs`` order; 0.0 if adjacent."""
    adj = drive.adjacent
    return np.array([drive.omega[(i, j)] - float(adj[i:j].sum()) for i, j in _pairs(drive.n)])


def detunings(drive: DriveSpec) -> Detunings:
    """Detunings eps_{ij} of non-adjacent drives against the adjacent chain."""
    eps = zip(_pairs(drive.n), _pair_detunings(drive))
    return Detunings(drive.n, {(i, j): e for (i, j), e in eps if j - i >= 2})


def transformed_hamiltonian(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Rotating-frame Hamiltonian U†HU - i U†(dU/dt): the lab-frame shape with (D, eps).

    Diagonal D_k = delta_k - (omega_1 + ... + omega_k); g * exp(i*eps_ij*t) on each pair.
    """
    return _pair_drive("transformed_hamiltonian", levels, drive, True,
                       rotating_frame_phases(drive), 1j * _pair_detunings(drive), np.exp)


def apply_resonance(levels: LevelSpec, g: float, *, rwa: bool = True,
                    nonadjacent: Mapping | None = None) -> DriveSpec:
    """Drive with adjacent frequencies on resonance: omega_j = E_j - E_{j-1}.

    Non-adjacent frequencies default to the sum of the adjacent ones in
    between (all detunings zero); pass ``nonadjacent`` entries to detune
    specific pairs.
    """
    e = levels.deltas
    omega = {(i, j): float(e[j] - e[i]) for i, j in _pairs(levels.n)}
    if nonadjacent:
        for (i, j), w in dict(nonadjacent).items():
            if j - i < 2:
                raise ConfigError(f"omega_{i}_{j}: only pairs with j - i >= 2 may be overridden")
            omega[(int(i), int(j))] = float(w)
    return DriveSpec(n=levels.n, omega=omega, g=g, rwa=rwa)


def is_resonant(levels: LevelSpec, drive: DriveSpec) -> bool:
    """True when omega_j = E_j - E_{j-1} for every adjacent pair."""
    e = levels.deltas
    gaps = e[1:] - e[:-1]
    scale = max(1.0, float(np.max(np.abs(e))))
    return bool(np.all(np.abs(drive.adjacent - gaps) <= 1e-12 * scale))


def residual_coupling(det: Detunings, t) -> np.ndarray:
    """R(t): exp(+-i*eps_ij*t) on the detuned pairs (j - i >= 2), else 0; t.shape + (n, n)."""
    i, j = np.array(list(det.eps), dtype=np.intp).reshape(-1, 2).T
    phase = np.exp(np.multiply.outer(t, 1j * np.array(list(det.eps.values()))))
    return _hermitian(np.zeros(det.n), phase, i, j)

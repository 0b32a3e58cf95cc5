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
  drive of amplitude 2g.  Cross-mode comparisons must apply that factor.

Note on the cosine drive: the three-level source problem is sometimes written
with "cos(i*omega*t)", which taken literally is a cosh and would make the
Hamiltonian non-Hermitian and unbounded.  We read it as cos(omega*t),
consistent with the two-level dipole form.

All types are immutable after construction and all evaluators are pure
functions of t, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .spectral import coupling_matrix

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
    "build_h0",
    "build_interaction_rwa",
    "full_hamiltonian",
    "full_hamiltonian_nonrwa",
    "rotating_frame",
    "to_lab_frame",
    "transformed_hamiltonian",
    "apply_resonance",
    "is_resonant",
    "detunings",
    "residual_coupling",
    "split_c_r",
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
        if not np.all(np.isfinite(e)):
            raise ConfigError("energies must be finite")
        if any(b <= a for a, b in zip(e, e[1:])):
            raise ConfigError("energies must be strictly increasing")
        object.__setattr__(self, "energies", tuple(x - e[0] for x in e))

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

    ``omega`` maps each ordered pair (i, j), i < j, to its drive frequency.
    The adjacent frequencies omega_k = omega[(k-1, k)] set the rotating frame;
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
        if set(om) != set(_pairs(self.n)):
            raise ConfigError(
                "omega must hold exactly one frequency per pair (i, j) with i < j"
            )
        if not all(0 < w < np.inf for w in om.values()):
            raise ConfigError("drive frequencies must be positive and finite")
        object.__setattr__(self, "omega", om)

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

    def max_abs(self) -> float:
        return max((abs(v) for v in self.eps.values()), default=0.0)


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
        a = np.asarray(amps, dtype=complex)
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ConfigError("cannot normalize the zero vector")
        return cls(a / norm)


def build_h0(levels: LevelSpec) -> np.ndarray:
    """Bare atomic Hamiltonian diag(0, delta_1, ..., delta_{n-1})."""
    return np.diag(levels.deltas)


def _pairs(n: int) -> list:
    """The n(n-1)/2 level pairs (i, j), i < j, row by row: np.triu_indices(n, 1) order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache
def _mirror_index(n: int) -> np.ndarray:
    """Source of each entry of a flattened n x n matrix in (upper, conj(upper)).

    Entry (i, j) of the p-th pair takes upper[p], entry (j, i) its conjugate;
    diagonal entries point at 0 and are overwritten.
    """
    i, j = np.array(_pairs(n)).T
    index = np.zeros(n * n, dtype=np.intp)
    index[i * n + j] = np.arange(len(i))
    index[j * n + i] = np.arange(len(i)) + len(i)
    index.flags.writeable = False  # cached: every caller shares this array
    return index


def _hermitian(diag: np.ndarray, upper) -> np.ndarray:
    """diag(diag) plus ``upper`` on the pairs i < j and its conjugate on j > i.

    ``upper`` holds one value per pair in ``_pairs`` order on its last axis; its
    leading (time) axes carry over, giving shape upper.shape[:-1] + (n, n).
    """
    n = len(diag)
    both = np.concatenate((upper, upper.conj()), axis=-1, dtype=complex)
    m = both.take(_mirror_index(n), axis=-1)
    m[..., :: n + 1] = diag
    return m.reshape(upper.shape[:-1] + (n, n))


def _pair_frequencies(drive: DriveSpec) -> np.ndarray:
    """omega_ij in ``_pairs`` order."""
    return np.array([drive.omega[ij] for ij in _pairs(drive.n)])


def build_interaction_rwa(drive: DriveSpec, t) -> np.ndarray:
    """RWA interaction V(t): V_ij = exp(i*omega_ij*t) for i < j, Hermitian; t.shape + (n, n)."""
    if not drive.rwa:
        raise ConfigError("RWA interaction requested with rwa=False")
    iw = 1j * _pair_frequencies(drive)
    return _hermitian(np.zeros(drive.n), np.exp(np.multiply.outer(t, iw)))


def full_hamiltonian(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Lab-frame RWA Hamiltonian H(t) = H0 + g*V(t)."""
    _check_match(levels, drive)
    if not drive.rwa:
        raise ConfigError("full_hamiltonian requires an RWA drive")
    diag, iw, g = levels.deltas, 1j * _pair_frequencies(drive), drive.g
    return lambda t: _hermitian(diag, g * np.exp(np.multiply.outer(t, iw)))


def full_hamiltonian_nonrwa(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Lab-frame cosine-drive Hamiltonian: off-diagonals g*cos(omega_ij*t)."""
    _check_match(levels, drive)
    if drive.rwa:
        raise ConfigError("full_hamiltonian_nonrwa requires rwa=False")
    diag, w, g = levels.deltas, _pair_frequencies(drive), drive.g
    return lambda t: _hermitian(diag, g * np.cos(np.multiply.outer(t, w)))


def rotating_frame_phases(drive: DriveSpec) -> np.ndarray:
    """Cumulative adjacent frequencies (0, omega_1, omega_1+omega_2, ...)."""
    return np.concatenate(([0.0], np.cumsum(drive.adjacent)))


def rotating_frame(drive: DriveSpec, t: float) -> np.ndarray:
    """Diagonal frame unitary U(t) = diag(1, e^{i*omega_1*t}, e^{i(omega_1+omega_2)t}, ...)."""
    return np.diag(np.exp(1j * np.multiply.outer(t, rotating_frame_phases(drive))))


def to_lab_frame(drive: DriveSpec, t, states) -> np.ndarray:
    """Lab-frame states U(t)† psi of rotating-frame ``states``, one row per time of ``t``."""
    return np.exp(-1j * np.multiply.outer(t, rotating_frame_phases(drive))) * states


def detunings(drive: DriveSpec) -> Detunings:
    """Detunings eps_{ij} of non-adjacent drives against the adjacent chain."""
    adj = drive.adjacent
    eps = {(i, j): drive.omega[(i, j)] - float(adj[i:j].sum())
           for i, j in _pairs(drive.n) if j - i >= 2}
    return Detunings(drive.n, eps)


def transformed_hamiltonian(levels: LevelSpec, drive: DriveSpec) -> HamiltonianFn:
    """Rotating-frame Hamiltonian U†HU - i U†(dU/dt).

    Diagonal: delta_k - (omega_1 + ... + omega_k).  First off-diagonal: g.
    Pairs with j - i >= 2: g * exp(+-i*eps_ij*t).
    """
    _check_match(levels, drive)
    if not drive.rwa:
        raise ConfigError("transformed_hamiltonian requires an RWA drive")
    diag = np.diag(levels.deltas - rotating_frame_phases(drive))
    c, det = coupling_matrix(drive.n), detunings(drive)
    return lambda t: diag + drive.g * (c + residual_coupling(det, t))


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
                raise ConfigError("only pairs with j - i >= 2 may be overridden")
            omega[(int(i), int(j))] = float(w)
    return DriveSpec(n=levels.n, omega=omega, g=g, rwa=rwa)


def is_resonant(levels: LevelSpec, drive: DriveSpec, tol: float = 1e-12) -> bool:
    """True when omega_j = E_j - E_{j-1} for every adjacent pair."""
    e = levels.deltas
    gaps = e[1:] - e[:-1]
    scale = max(1.0, float(np.max(np.abs(e))))
    return bool(np.all(np.abs(drive.adjacent - gaps) <= tol * scale))


def residual_coupling(det: Detunings, t) -> np.ndarray:
    """R(t): exp(+-i*eps_ij*t) on the detuned pairs (j - i >= 2), else 0; t.shape + (n, n)."""
    r = np.zeros(np.shape(t) + (det.n, det.n), dtype=complex)
    if det.eps:
        i, j = np.array(list(det.eps)).T
        phase = np.exp(np.multiply.outer(t, 1j * np.array(list(det.eps.values()))))
        r[..., i, j] = phase
        r[..., j, i] = phase.conj()
    return r


def split_c_r(levels: LevelSpec, drive: DriveSpec):
    """Split the resonant rotating-frame Hamiltonian as g*C + g*R(t).

    C is the 0/1 tridiagonal nearest-neighbour coupling matrix, R(t) holds the
    residual non-adjacent phases.  Requires the resonance conditions, which
    zero the diagonal.
    """
    _check_match(levels, drive)
    if not is_resonant(levels, drive):
        raise ConfigError("split requires the resonance conditions omega_j = E_j - E_{j-1}")
    det = detunings(drive)
    return coupling_matrix(drive.n), lambda t: residual_coupling(det, t)


def _check_match(levels: LevelSpec, drive: DriveSpec):
    if levels.n != drive.n:
        raise ConfigError("level count and drive dimension disagree")

"""Exact evolution under the consistency condition.

When every detuning eps_ij vanishes the rotating-frame Hamiltonian is the
constant matrix g*Q with Q = J - I (all-ones minus identity).  Its propagator
has the closed form

    exp(-i*g*t*Q) = e^{i*g*t} * (I + (e^{-i*n*g*t} - 1)/n * J),

so the lab-frame solution is Psi(t) = U(t)† exp(-i*g*t*Q) Psi(0).
"""

from __future__ import annotations

import numpy as np

from .model import (
    ConfigError,
    DriveSpec,
    LevelSpec,
    StateVector,
    detunings,
    is_resonant,
    rotating_frame,  # unused: U(t)† is applied as phases; bench/spans.py traces this name
    to_lab_frame,
)

__all__ = [
    "ConsistencyError",
    "check_consistency",
    "exp_q",
    "exact_evolution",
]


class ConsistencyError(ConfigError):
    """Raised when the exact solver is asked for a detuned configuration.

    ``violations`` holds the offending (pair, eps) pairs; callers should fall
    back to the Dyson or numeric solvers.
    """

    def __init__(self, violations: tuple):
        self.violations = violations
        pairs = ", ".join(f"eps{ij}={v:.3g}" for ij, v in violations)
        super().__init__(f"consistency condition violated: {pairs}")


def check_consistency(drive: DriveSpec) -> tuple:
    """The (pair, eps) pairs, in pair order, with |eps_ij| > 1e-9 * max omega.

    Empty when the consistency condition holds.  The tolerance separates
    deliberate detuning from float noise in user configs.
    """
    tol = 1e-9 * max(drive.omega.values())
    return tuple((ij, v) for ij, v in detunings(drive).eps.items() if abs(v) > tol)


def exp_q(n: int, g: float, t: float) -> np.ndarray:
    """Closed-form exp(-i*g*t*Q) with Q = J - I."""
    if n < 2:
        raise ValueError("n must be at least 2")
    coef = (np.exp(-1j * n * g * t) - 1.0) / n
    return np.exp(1j * g * t) * (np.eye(n, dtype=complex) + coef * np.ones((n, n)))


def exact_evolution(levels: LevelSpec, drive: DriveSpec, psi0: StateVector, t):
    """Lab-frame state U(t)† exp(-i*g*t*Q) psi0.

    A 1-D ``t`` gives one state per row of a (len(t), n) array, a scalar
    ``t`` a StateVector.  Neither matrix is formed: exp(-i*g*t*Q) psi0 is
    e^{i*g*t} (psi0 + (e^{-i*n*g*t} - 1)/n * sum(psi0)), U(t)† is a phase.

    Requires the resonance conditions and the consistency condition; a detuned
    drive raises ConsistencyError carrying its violations.
    """
    if not is_resonant(levels, drive):
        raise ConfigError("exact evolution requires omega_j = E_j - E_{j-1}")
    violations = check_consistency(drive)
    if violations:
        raise ConsistencyError(violations)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    coef = (np.exp(-1j * drive.n * drive.g * times) - 1.0) / drive.n
    rot = np.exp(1j * drive.g * times)[:, None] * (psi0.amp + (coef * psi0.amp.sum())[:, None])
    states = to_lab_frame(drive, times, rot)
    return states if np.ndim(t) else StateVector(states[0])

"""Exact evolution under the consistency condition.

When every detuning eps_ij vanishes the rotating-frame Hamiltonian is the
constant matrix g*Q with Q = J - I (all-ones minus identity).  Its propagator
has the closed form

    exp(-i*g*t*Q) = e^{i*g*t} * (I + (e^{-i*n*g*t} - 1)/n * J),

so the lab-frame solution is Psi(t) = U(t)† exp(-i*g*t*Q) Psi(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigError,
    Detunings,
    DriveSpec,
    LevelSpec,
    StateVector,
    detunings,
    is_resonant,
    rotating_frame,  # unused: U(t)† is applied as phases; bench/spans.py traces this name
    to_lab_frame,
)

__all__ = [
    "ConsistencyReport",
    "ConsistencyError",
    "check_consistency",
    "default_consistency_tol",
    "exp_q",
    "exact_evolution",
]


@dataclass(frozen=True)
class ConsistencyReport:
    """Which detunings, if any, exceed the tolerance."""

    violations: tuple = ()

    @property
    def satisfied(self) -> bool:
        return not self.violations


class ConsistencyError(ConfigError):
    """Raised when the exact solver is asked for a detuned configuration.

    Carries the report; callers should fall back to the Dyson or numeric
    solvers.
    """

    def __init__(self, report: ConsistencyReport):
        self.report = report
        pairs = ", ".join(f"eps{ij}={v:.3g}" for ij, v in report.violations)
        super().__init__(f"consistency condition violated: {pairs}")


def check_consistency(det: Detunings, tol: float) -> ConsistencyReport:
    """Report every pair with |eps_ij| > tol."""
    if not tol > 0:
        raise ConfigError("tolerance must be positive")
    violations = tuple(
        (ij, v) for ij, v in sorted(det.eps.items()) if abs(v) > tol
    )
    return ConsistencyReport(violations)


def default_consistency_tol(drive: DriveSpec) -> float:
    """Separates deliberate detuning from float noise in user configs."""
    return 1e-9 * max(drive.omega.values())


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

    Requires the resonance conditions and the consistency condition; detuned
    configurations raise ConsistencyError with the offending pairs.
    """
    if not is_resonant(levels, drive):
        raise ConfigError("exact evolution requires omega_j = E_j - E_{j-1}")
    report = check_consistency(detunings(drive), default_consistency_tol(drive))
    if not report.satisfied:
        raise ConsistencyError(report)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    coef = (np.exp(-1j * drive.n * drive.g * times) - 1.0) / drive.n
    rot = np.exp(1j * drive.g * times)[:, None] * (psi0.amp + (coef * psi0.amp.sum())[:, None])
    states = to_lab_frame(drive, times, rot)
    return states if np.ndim(t) else StateVector(states[0])

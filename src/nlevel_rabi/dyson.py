"""Interaction-picture Dyson-series solvers.

Writing the rotating-frame state as exp(-i*g*t*C) * phi(t), the residual
coupling enters through A(t) = exp(+i*g*t*C) R(t) exp(-i*g*t*C) and the
series

    phi(t) = [ I - i*g Int_0^t A(s) ds
                 - g^2 Int_0^t A(s) Int_0^s A(u) du ds + ... ] phi(0).

Two routes are provided: a generic numeric truncation (Simpson quadrature,
any n, order 1 or 2) and the transcribed closed-form first-order solution for
n = 3 starting from the ground state.  Both take a scalar t or a 1-D time
grid; a grid gives one row (or one matrix) per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, Detunings, DriveSpec, LevelSpec, StateVector
from .model import detunings, is_resonant, residual_coupling, to_lab_frame
from .spectral import exp_c

__all__ = [
    "DysonConfig",
    "max_quadrature_step",
    "a_matrix",
    "a_matrix_3",
    "dyson_state",
    "first_order_state_3",
    "approximate_solution_3",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DysonConfig:
    """Truncation order (1 or 2) and the quadrature step for the integrals."""

    order: int = 1
    quadrature_step: float = 1e-3

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError("order must be 1 or 2")
        if not self.quadrature_step > 0:
            raise ConfigError("quadrature step must be positive")

    def validate(self, g: float, det: Detunings):
        bound = max_quadrature_step(g, det)
        if self.quadrature_step > bound:
            raise ConfigError(
                f"quadrature step {self.quadrature_step:g} too coarse; "
                f"need <= {bound:g} to resolve both oscillation scales"
            )


def max_quadrature_step(g: float, det: Detunings) -> float:
    """Largest step resolving both the g and the detuning oscillations."""
    bound = 1.0 / (10.0 * g)
    eps_max = det.max_abs()
    if eps_max > 0:
        bound = min(bound, 2.0 * np.pi / (10.0 * eps_max))
    return bound


def a_matrix(n: int, g: float, det: Detunings, t) -> np.ndarray:
    """Interaction-picture coupling exp(+i*g*t*C) R(t) exp(-i*g*t*C)."""
    return exp_c(n, -g, t) @ residual_coupling(det, t) @ exp_c(n, g, t)


def a_matrix_3(g: float, eps: float, t: float) -> np.ndarray:
    """Closed-form 3x3 A(t): nine transcribed trigonometric entries over 2."""
    c = np.cos(_SQRT2 * g * t)
    s = np.sin(_SQRT2 * g * t)
    ce = np.cos(eps * t)
    se = np.sin(eps * t)
    a11 = -(s * s) * ce
    a12 = _SQRT2 * s * se - 1j * _SQRT2 * s * c * ce
    a13 = (1.0 + c * c) * ce + 2j * c * se
    a21 = _SQRT2 * s * se + 1j * _SQRT2 * s * c * ce
    a22 = 2.0 * s * s * ce
    a23 = -_SQRT2 * s * se + 1j * _SQRT2 * s * c * ce
    a31 = (1.0 + c * c) * ce - 2j * c * se
    a32 = -_SQRT2 * s * se - 1j * _SQRT2 * s * c * ce
    a33 = -(s * s) * ce
    return 0.5 * np.array([[a11, a12, a13], [a21, a22, a23], [a31, a32, a33]])


def _simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson over axis 0; requires an even interval count."""
    m = values.shape[0] - 1
    if m % 2:
        raise ValueError("Simpson rule needs an even number of intervals")
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(w, values, axes=(0, 0))


def _cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral at every grid point, O(h^4) accurate.

    Even points use the composite Simpson prefix; odd points add the
    three-point half-panel rule h/12 * (5 f_k + 8 f_{k+1} - f_{k+2}).
    """
    m = values.shape[0] - 1
    if m % 2:
        raise ValueError("cumulative Simpson needs an even number of intervals")
    f0, f1, f2 = values[:-2:2], values[1:-1:2], values[2::2]
    out = np.zeros_like(values)
    np.cumsum((h / 3.0) * (f0 + 4.0 * f1 + f2), axis=0, out=out[2::2])
    out[1::2] = out[:-2:2] + (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
    return out


# Upper bound on the matrix entries of one batched A(s) stack (8 MiB of complex).
_STACK_ENTRIES = 1 << 19


def dyson_state(n: int, g: float, det: Detunings, psi0: StateVector, t,
                cfg: DysonConfig) -> np.ndarray:
    """Rotating-frame state exp(-i*g*t*C) * [truncated series] psi0.

    Each sample keeps its own Simpson nodes (m = ceil(t/q) rounded up to
    even, h = t/m); A(s) is evaluated on the nodes of all samples in one
    batched product, split into groups of samples only to bound memory.

    The result is not normalized: a truncation at order k leaves an O(g^{k+1})
    norm defect.  Lab-frame assembly is a separate step via the frame unitary.
    """
    cfg.validate(g, det)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    m = np.maximum(2, np.ceil(times / cfg.quadrature_step).astype(int))
    m += m % 2
    series = np.empty((len(times), n, n), dtype=complex)
    per_batch = max(1, _STACK_ENTRIES // (n * n * (m.max() + 1)))
    for batch in np.split(np.arange(len(times)), range(per_batch, len(times), per_batch)):
        nodes = np.concatenate([np.linspace(0.0, times[i], m[i] + 1) for i in batch])
        a = a_matrix(n, g, det, nodes)
        for i, a_i in zip(batch, np.split(a, np.cumsum(m[batch] + 1)[:-1])):
            h = times[i] / m[i]
            series[i] = np.eye(n, dtype=complex) - 1j * g * _simpson(a_i, h)
            if cfg.order == 2:
                series[i] -= g * g * _simpson(a_i @ _cumulative_simpson(a_i, h), h)
    states = exp_c(n, g, times) @ series @ psi0.amp
    states[times == 0] = psi0.amp
    return states if np.ndim(t) else states[0]


def _ratio(num, den, limit, scale):
    # removable singularity: below threshold return the analytic limit
    # (den depends on g and eps only, so one branch serves a whole time grid)
    if abs(den) < 1e-6 * scale:
        return limit
    return num / den


def first_order_state_3(g: float, eps: float, t) -> np.ndarray:
    """Closed-form first-order series state (x1, x2, x3) for n = 3.

    This is exp(-i*g*t*C) * phi(t) truncated at first order, ground-state
    start (1, 0, 0).  The displayed denominators eps, sqrt(2)g +- eps and
    2*sqrt(2)g +- eps are removable singularities of the formulas, not of the
    underlying integrals; near each one the term is replaced by its limit.
    """
    sg = _SQRT2 * g
    c = np.cos(sg * t)
    s = np.sin(sg * t)
    ch = np.cos(g * t / _SQRT2)
    sh = np.sin(g * t / _SQRT2)
    scale = max(sg, abs(eps))

    sinc = _ratio(np.sin(eps * t), eps, t, scale)
    # shared by x1 and x3
    t1 = _ratio(s + np.sin((sg + eps) * t), 2.0 * sg + eps, t * c, scale)
    t2 = _ratio(s + np.sin((sg - eps) * t), 2.0 * sg - eps, t * c, scale)

    x1 = (
        (1.0 + c) / 2.0
        - 1j * g / 4.0 * (-2.0 + c) * sinc
        - 1j * g / 8.0 * (t1 + t2)
        + g / 2.0 * sh * (
            _ratio(sh + np.sin((g / _SQRT2 + eps) * t), sg + eps, t * ch, scale)
            - _ratio(sh + np.sin((g / _SQRT2 - eps) * t), sg - eps, t * ch, scale)
        )
    )
    x2 = (
        -1j * s / _SQRT2
        - _SQRT2 * g / 4.0 * s * sinc
        + 1j * _SQRT2 * g / 4.0 * (
            _ratio(np.sin(eps * t) + s, sg + eps, t * c, scale)
            + _ratio(np.sin(eps * t) - s, sg - eps, -t * c, scale)
        )
        - _SQRT2 * g / 8.0 * (
            _ratio(np.cos((sg + eps) * t) - c, 2.0 * sg + eps, t * s, scale)
            + _ratio(np.cos((sg - eps) * t) - c, 2.0 * sg - eps, t * s, scale)
        )
    )
    x3 = (
        (-1.0 + c) / 2.0
        - 1j * g / 4.0 * (2.0 + c) * sinc
        - 1j * g / 8.0 * (t1 + t2)
        + g / 2.0 * ch * (
            _ratio(-ch + np.cos((g / _SQRT2 + eps) * t), sg + eps, t * sh, scale)
            - _ratio(-ch + np.cos((g / _SQRT2 - eps) * t), sg - eps, t * sh, scale)
        )
    )
    return np.stack([x1, x2, x3], axis=-1)


def approximate_solution_3(levels: LevelSpec, drive: DriveSpec, t) -> np.ndarray:
    """Lab-frame first-order solution for n = 3 from the ground state.

    Components (x1, e^{-i*omega_1*t} x2, e^{-i(omega_1+omega_2)t} x3); the
    norm defect is O(g) like the underlying truncation.
    """
    if levels.n != 3 or drive.n != 3:
        raise ConfigError("the closed-form first-order solution requires n = 3")
    if not is_resonant(levels, drive):
        raise ConfigError("first-order solution requires the resonance conditions")
    eps = detunings(drive).eps[(0, 2)]
    return to_lab_frame(drive, t, first_order_state_3(drive.g, eps, t))

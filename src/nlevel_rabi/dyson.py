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
from .spectral import decompose, exp_c

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


def max_quadrature_step(g: float, det: Detunings) -> float:
    """Largest step resolving both the g and the detuning oscillations."""
    bound = 1.0 / (10.0 * g)
    eps_max = max((abs(v) for v in det.eps.values()), default=0.0)
    if eps_max > 0:
        bound = min(bound, 2.0 * np.pi / (10.0 * eps_max))
    return bound


def a_matrix(n: int, g: float, det: Detunings, t) -> np.ndarray:
    """Interaction-picture coupling exp(+i*g*t*C) R(t) exp(-i*g*t*C).

    Formed in the sine eigenbasis O of C as O [P(t) * (O^T R(t) O)] O^T, with the
    phases P_ab = e^{i*g*t*lambda_a} e^{-i*g*t*lambda_b} applied entrywise.
    """
    dec = decompose(n)
    o = dec.basis
    phase = np.exp(np.multiply.outer(1j * g * np.asarray(t), dec.eigenvalues)).reshape(-1, n)
    # the stack held row index first, (n, len(t), n), so that O^T X and X O are each
    # one 2-D product rather than a stack of small ones
    x = np.moveaxis(residual_coupling(det, t).reshape(-1, n, n), 1, 0).reshape(-1, n)
    x = (o.T @ (x @ o).reshape(n, -1)).reshape(n, -1, n)
    x *= phase.T[:, :, None]
    x *= phase.conj()
    x = o @ (x.reshape(-1, n) @ o.T).reshape(n, -1)
    return np.moveaxis(x.reshape(n, -1, n), 0, 1).reshape(np.shape(t) + (n, n))


def a_matrix_3(g: float, eps: float, t) -> np.ndarray:
    """Closed-form 3x3 A(t): nine transcribed trigonometric entries over 2; t.shape + (3, 3)."""
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
    return np.moveaxis(0.5 * np.array([[a11, a12, a13], [a21, a22, a23], [a31, a32, a33]]),
                       (0, 1), (-2, -1))


def _running_integral(a: np.ndarray, h: np.ndarray, m: np.ndarray,
                      start: np.ndarray) -> np.ndarray:
    """Int_0^s A at every node of every stack, O(h^4) accurate.

    Stack i has nodes start[i] .. start[i] + m[i] of ``a``, spaced h[i].  Even
    nodes take the composite Simpson prefix; odd nodes add the three-point
    half-panel rule h/12 * (5 f_k + 8 f_{k+1} - f_{k+2}).
    """
    panels = m // 2
    ends = np.cumsum(panels)
    # first node of every panel: start[i] + 2p for panel p of stack i
    first = np.repeat(start - 2 * (ends - panels), panels) + 2 * np.arange(ends[-1])
    hp = np.repeat(h, panels)[:, None, None]
    panel, f1, f2 = a[first], a[first + 1], a[first + 2]
    half = (hp / 12.0) * (5.0 * panel + 8.0 * f1 - f2)
    panel += 4.0 * f1  # in place, to hold fewer panel-sized arrays at once
    panel += f2
    panel *= hp / 3.0
    del f1, f2
    for lo, hi in zip(ends - panels, ends):
        np.cumsum(panel[lo:hi], axis=0, out=panel[lo:hi])
    out = np.zeros_like(a)
    out[first + 2] = panel
    out[first + 1] = out[first] + half
    return out


def _layout(m: np.ndarray):
    """Stacked runs of m[i] + 1 nodes: the first row of each run, and each row's k."""
    start = np.cumsum(m + 1) - (m + 1)
    return start, np.arange(start[-1] + m[-1] + 1) - np.repeat(start, m + 1)


def _series(n: int, g: float, det: Detunings, times: np.ndarray, m: np.ndarray,
            order: int) -> np.ndarray:
    """I - i*g Int A - g^2 Int A Int A, one matrix per time, by Simpson on m[i] intervals.

    Samples whose h = t/m is the same float and whose last node m*h is t itself
    share one stack: A(s), its running integral and A Int A are evaluated once on
    the longest member's nodes k*h, and each sample gathers its first m + 1 rows.
    Any other sample is a stack of its own.  A node's rows have the same bits in
    any stack, so every sample's Simpson sums are those of its solo call.
    """
    h = times / m
    # stack key: h where m*h is t, else -1 - index (a stack of its own; h >= 0 keeps them apart)
    key = np.where((m * h == times) & (h >= 0), h, -1.0 - np.arange(len(times)))
    _, group, size = np.unique(key, return_inverse=True, return_counts=True)
    owner = np.lexsort((m, group))[np.cumsum(size) - 1][group]  # the longest of each one's stack
    # stacks in sample order, so that each sample's rows are gathered from near its own
    longest, stack = np.unique(owner, return_inverse=True)
    # node k of a stack is k * h, its last node exactly t, as np.linspace gives them
    top, k = _layout(m[longest])
    nodes = k * np.repeat(h[longest], m[longest] + 1)
    nodes[top + m[longest]] = times[longest]
    a = a_matrix(n, g, det, nodes)
    start, k = _layout(m)
    rows = np.repeat(top[stack], m + 1) + k
    weight = np.where(k % 2, 4.0, 2.0)  # Simpson weights 1, 4, 2, 4, ..., 4, 1
    weight[start] = weight[start + m] = 1.0
    weight = weight[:, None, None]
    third = (h / 3.0)[:, None, None]

    def simpson(stacked):  # every sample's Simpson sum over its own rows of a stacked integrand
        rows_of = stacked.take(rows, axis=0)
        rows_of *= weight
        return third * np.add.reduceat(rows_of, start)

    series = np.eye(n) - 1j * g * simpson(a)
    if order == 2:
        series -= g * g * simpson(a @ _running_integral(a, h[longest], m[longest], top))
    return series


# Upper bound on the matrix entries of one batched A(s) stack (8 MiB of complex).
_STACK_ENTRIES = 1 << 19


def dyson_state(n: int, g: float, det: Detunings, psi0: StateVector, t,
                cfg: DysonConfig) -> np.ndarray:
    """Rotating-frame state exp(-i*g*t*C) * [truncated series] psi0.

    Each sample keeps its own Simpson nodes (m = ceil(t/q) rounded up to
    even, h = t/m).  Samples whose nodes are the first ones of a longer
    sample's share its stack: A(s), its running integral and A Int A cost
    O(sum over stacks of the longest member's nodes), and each sample's
    gathered rows and Simpson segment sums O(its own nodes).  Samples are
    split into batches only to bound memory.  A sample whose A(s) stack numpy
    could not even size raises MemoryError.

    The result is not normalized: a truncation at order k leaves an O(g^{k+1})
    norm defect.  Lab-frame assembly is a separate step via the frame unitary.
    """
    bound = max_quadrature_step(g, det)
    if cfg.quadrature_step > bound:
        raise ConfigError(f"quadrature step {cfg.quadrature_step:g} too coarse; "
                          f"need <= {bound:g} to resolve both oscillation scales")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    # counted as floats first: a count past the int64 range would wrap in the cast
    count = np.ceil(times / cfg.quadrature_step)
    stack_bytes = 16.0 * n * n * (count.max() + 2)  # the longest sample's complex A(s) stack
    if stack_bytes > np.iinfo(np.intp).max:
        raise MemoryError(f"Unable to allocate {stack_bytes:.3g} bytes for the "
                          f"{count.max():.3g} Simpson nodes of t = {times.max():.6g}")
    m = np.maximum(2, count.astype(int))
    m += m % 2
    series = np.empty((len(times), n, n), dtype=complex)
    per_batch = max(1, _STACK_ENTRIES // (n * n * (m.max() + 1)))
    for lo in range(0, len(times), per_batch):
        batch = slice(lo, lo + per_batch)
        series[batch] = _series(n, g, det, times[batch], m[batch], cfg.order)
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

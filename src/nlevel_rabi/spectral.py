"""Closed-form spectral theory of the tridiagonal coupling matrix C.

C is the n x n 0/1 tridiagonal matrix of nearest-level couplings.  Its
eigenvalues are lambda_j = 2*cos(pi*j/(n+1)) for j = 1..n (decreasing), with
the real orthogonal sine eigenbasis O_jk = sqrt(2/(n+1)) * sin(pi*j*k/(n+1)).
The propagator exp(-i*g*t*C) follows in closed form; two independent
evaluation paths (eigenbasis sandwich and the explicit component sum) are
kept so each can validate the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralDecomp",
    "coupling_matrix",
    "char_poly",
    "eigenvalues",
    "decompose",
    "exp_c",
    "exp_c3",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (decreasing) and orthogonal eigenbasis of C."""

    n: int
    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        o = np.array(self.basis, dtype=float)
        lam.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "basis", o)


def coupling_matrix(n: int) -> np.ndarray:
    """The 0/1 tridiagonal coupling matrix C."""
    _check_n(n)
    return np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)


def char_poly(n: int, lam: float) -> float:
    """Characteristic polynomial f_n of C via f_n = lam*f_{n-1} - f_{n-2}.

    Base cases f_2 = lam^2 - 1 and f_3 = lam^3 - 2*lam (f_1 = lam closes the
    recurrence).
    """
    _check_n(n)
    f_prev = float(lam)            # f_1
    f_cur = lam * lam - 1.0        # f_2
    for _ in range(3, n + 1):
        f_prev, f_cur = f_cur, lam * f_cur - f_prev
    return f_cur


def eigenvalues(n: int) -> np.ndarray:
    """lambda_j = 2*cos(pi*j/(n+1)), j = 1..n, strictly decreasing."""
    _check_n(n)
    j = np.arange(1, n + 1)
    return 2.0 * np.cos(np.pi * j / (n + 1))


def _sine_args(n: int) -> np.ndarray:
    # pi*j*k/(n+1) reduced mod 2*pi before the sine, to bound error at large j*k
    j = np.arange(1, n + 1, dtype=float)
    return np.remainder(np.pi * np.outer(j, j) / (n + 1), 2.0 * np.pi)


def decompose(n: int) -> SpectralDecomp:
    """Closed-form eigen-decomposition C = O diag(lambda) O^T."""
    _check_n(n)
    o = math.sqrt(2.0 / (n + 1)) * np.sin(_sine_args(n))
    return SpectralDecomp(n=n, eigenvalues=eigenvalues(n), basis=o)


def exp_c(n: int, g: float, t, method: str = "eigen") -> np.ndarray:
    """The unitary exp(-i*g*t*C); a 1-D ``t`` gives a stack (len(t), n, n).

    ``method="eigen"`` computes O exp(-i*g*t*D) O^T; ``method="components"``
    evaluates the explicit component sum
    (2/(n+1)) * sum_l exp(-2i*g*t*cos(pi*l/(n+1))) sin(pi*j*l/(n+1)) sin(pi*k*l/(n+1)).
    """
    _check_n(n)
    if method == "eigen":
        dec = decompose(n)
        phase = np.exp(np.multiply.outer(-1j * g * np.asarray(t), dec.eigenvalues))
        x = dec.basis * phase[..., None, :]
        return (x.reshape(-1, n) @ dec.basis.T).reshape(x.shape)  # one 2-D product, not a stack
    if method == "components":
        s = np.sin(_sine_args(n))
        phase = np.exp(np.multiply.outer(-1j * g * np.asarray(t), eigenvalues(n)))
        return (2.0 / (n + 1)) * np.einsum("jl,...l,kl->...jk", s, phase, s)
    raise ValueError(f"unknown method {method!r}")


def exp_c3(g: float, t: float) -> np.ndarray:
    """Hard-coded 3x3 closed form of exp(-i*g*t*C)."""
    c = np.cos(_SQRT2 * g * t)
    s = np.sin(_SQRT2 * g * t)
    off = -1j * _SQRT2 * s
    return 0.5 * np.array(
        [
            [1.0 + c, off, -1.0 + c],
            [off, 2.0 * c, off],
            [-1.0 + c, off, 1.0 + c],
        ]
    )


def _check_n(n: int):
    if n < 2:
        raise ValueError("n must be at least 2")

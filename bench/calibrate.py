"""A fixed piece of work that measures how fast the machine is right now.

The machine the benchmark was tuned on is a shared VM whose speed drifts by
up to 1.6x over seconds to minutes, and it exposes no hardware counters to
count work instead.  The benchmark therefore times this kernel next to every
command and divides: a command's time over the kernel's time barely moves
when the machine slows down, because both slow down together.  The kernel
mixes what the package spends its time on: a Python loop over small complex
matrices (eigh, exp, matmul) and ``%.17g`` formatting.  It must not change
between the commits a comparison spans.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Scale of the reported times: a command that took as long as one round of
# the kernel is reported as REF_S seconds.  0.02 s is about what
# one round took on the machine the benchmark was tuned on (2 vCPU shared
# x86_64 VM, Intel Xeon, Python 3.11, numpy 2.4, BLAS threads 1) while it ran
# at its full speed.
REF_S = 0.02
ITERATIONS = 900
_H = (np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T) * 0.01 + 0j


def kernel() -> int:
    parts = []
    for k in range(ITERATIONS):
        w, v = np.linalg.eigh(_H + k * 1e-3)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        parts.append("%.17g,%.17g" % (u[0, 0].real, u[0, 1].imag))
    return len(",".join(parts))


def timed() -> float:
    """Wall time of one round of the kernel."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel rounds, at the reference speed."""
    return seconds * REF_S / (0.5 * (before + after))

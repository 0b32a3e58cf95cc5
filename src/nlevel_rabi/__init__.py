"""Simulator for an n-level atom driven by n(n-1)/2 fields under the RWA.

Closed-form solvers (spectral propagator, exact consistency-condition
solution, first-order series for n = 3) cross-validated against an
independent numerical Schrödinger integrator.
"""

from .model import (
    ConfigError,
    Detunings,
    DriveSpec,
    LevelSpec,
    StateVector,
    apply_resonance,
    detunings,
    full_hamiltonian,
    full_hamiltonian_nonrwa,
    rotating_frame,
    transformed_hamiltonian,
)
from .spectral import (SpectralDecomp, char_poly, coupling_matrix, decompose, exp_c,
                       exp_c_components, exp_c3)
from .exact import (
    ConsistencyError,
    check_consistency,
    exact_evolution,
    exp_q,
)
from .dyson import (
    DysonConfig,
    a_matrix,
    a_matrix_3,
    approximate_solution_3,
    dyson_state,
    first_order_state_3,
)
from .propagate import (
    IntegratorConfig,
    NormRangeError,
    NumericFailure,
    StepBudgetExceeded,
    Trajectory,
    compare,
    expm_generic,
    integrate,
    integrate_stack,
)

__version__ = "0.1.0"

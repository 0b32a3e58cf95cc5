"""Simulator for an n-level atom driven by n(n-1)/2 fields under the RWA.

Closed-form solvers (spectral propagator, exact consistency-condition
solution, first-order series for n = 3) cross-validated against an
independent numerical Schrödinger integrator.  Each name is imported from
its module, e.g. ``from nlevel_rabi.exact import exact_evolution``.
"""

__version__ = "0.1.0"

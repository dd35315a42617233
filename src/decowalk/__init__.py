"""Decoherent continuous-time walk on the cycle.

A walker hops between nearest neighbours of an N-cycle while every
vertex is continuously monitored at rate gamma, which damps coherences
and drives the walk from ballistic quantum spreading (gamma = 0) to slow
classical diffusion (gamma large).  The package integrates both master
equation pictures, evaluates the small- and strong-dephasing closed
forms, measures eps-mixing times, checks the analytic bounds and locates
the dephasing rate that mixes fastest.
"""

from .evolution import (
    DiagonalPropagator,
    IntegrationError,
    TimeGrid,
    TimeSeries,
    build_full_operator,
    exact_evolve,
    integrate,
    rk4_step_matrix,
)
from .large_gamma import (
    BoundsReport,
    ModeRates,
    classical_heat_kernel,
    closed_form_a,
    diagonal_sums,
    full_large_gamma_state,
    large_gamma_bounds,
    mode_rates,
)
from .mixing import (
    LockstepSearch,
    MixingResult,
    default_horizon,
    mixing_time,
    total_variation,
    uniform_distribution,
)
from .model import (
    WalkConfig,
    initial_density,
    initial_state,
    rho_rhs,
    rho_to_s,
    s_rhs,
)
from .spectral import (
    cycle_eigenvalues,
    m_function,
    perturbative_distribution,
    small_gamma_mixing_bound,
    torus_eigenvalue,
    torus_eigenvector,
    u_similarity,
    unitary_amplitudes,
    unitary_distribution,
)
from .sweep import (
    SweepPoint,
    SweepResult,
    TransitionEntry,
    TransitionReport,
    default_gamma_grid,
    optimal_gamma,
    sweep_gamma,
    tail_slopes,
    transition_report,
)

__version__ = "0.1.0"

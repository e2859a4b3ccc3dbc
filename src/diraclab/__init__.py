"""Numerical laboratory for 4-spinor wave equations.

Gamma-matrix algebra, rotation/boost covariance checks, phase-function
machinery, momentum-space Hamiltonians with their dispersion relations,
non-relativistic limits, and exact spectral wavepacket evolution.
"""

from .clifford import (
    GAMMA,
    GAMMA5,
    I4,
    PAULI,
    BasisCoefficients,
    anticommutator,
    basis_decompose,
    commutator,
    gamma,
    gamma5_gamma,
    max_abs,
    pauli,
    sigma_pair,
    vector_contract,
)
from .poincare import (
    PoincareTransform,
    covariance_residual,
)
from .invariance import (
    CheckResult,
    GeneralizedParams,
    PhaseFunction,
    bc_condition_residual,
    bc_matrix,
    verify_phi0_uniqueness,
    zeta_boost,
    zeta_for,
    zeta_rotation,
)
from .operators import (
    ALPHA,
    BETA,
    PlaneWaveSolution,
    dirac_square_equals_kg,
    dispersion,
    gauge_map_from_standard,
    gauge_map_to_standard,
    hamiltonian_matrix,
    kg_rhs_matrix,
    plane_wave_solve,
)
from .nonrel import (
    LevyLeblondSolution,
    NonRelError,
    NonRelParams,
    dirac_energy,
    kinetic_minus_rest,
    levy_leblond_solve,
    nonrel_abs_error,
    nonrel_error,
    pauli_energy,
)
from .evolution import (
    Observables,
    SpectralPropagator,
    TrajectoryResult,
    WavePacket,
    evolve,
    group_velocity_estimate,
    init_gaussian,
    observables,
    trajectory,
    write_trajectory_csv,
)
from .verify import format_report, run_verification

__version__ = "0.1.0"

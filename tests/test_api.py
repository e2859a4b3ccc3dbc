"""Package-level import surface."""

import diraclab as dl


def test_public_surface():
    expected = [
        # algebra
        "GAMMA", "GAMMA5", "I4", "PAULI", "gamma", "gamma_lower", "sigma_pair",
        "gamma5_gamma", "anticommutator", "commutator", "vector_contract",
        "basis_decompose", "BasisCoefficients", "matrices_close", "max_abs",
        # transformations
        "PoincareTransform", "spinor_rotation", "spinor_boost", "vector_rep",
        "covariance_residual", "rapidity_from_velocity",
        # invariance
        "PhaseFunction", "GeneralizedParams", "zeta_rotation", "zeta_boost",
        "bc_condition_residual", "phase_apply", "verify_phi0_uniqueness",
        "CheckResult",
        # operators
        "ALPHA", "BETA", "hamiltonian_matrix", "dispersion", "plane_wave_solve",
        "PlaneWaveSolution", "kg_residual", "kg_rhs_matrix",
        "dirac_square_equals_kg", "gauge_map_to_standard", "gauge_map_from_standard",
        # limits
        "NonRelParams", "pauli_energy", "levy_leblond_solve", "nonrel_error",
        "nonrel_abs_error", "dirac_energy",
        # evolution
        "WavePacket", "Observables", "init_gaussian", "observables", "evolve",
        "trajectory", "group_velocity_estimate", "SpectralPropagator",
        # verification
        "run_verification", "format_report",
    ]
    missing = [name for name in expected if not hasattr(dl, name)]
    assert not missing, f"missing exports: {missing}"
    assert dl.__version__

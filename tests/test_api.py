"""Package-level import surface and the value types' array contract."""

import importlib
import pkgutil
import types

import numpy as np
import pytest

import diraclab as dl

# The whole public surface of `diraclab`, submodules aside.  An added,
# removed or leaked name changes this set and must be reviewed here.
PUBLIC = {
    # algebra
    "GAMMA", "GAMMA5", "I4", "PAULI", "pauli", "gamma", "sigma_pair",
    "gamma5_gamma", "anticommutator", "commutator", "vector_contract",
    "basis_decompose", "BasisCoefficients", "max_abs",
    # transformations
    "PoincareTransform", "covariance_residual",
    # invariance
    "PhaseFunction", "GeneralizedParams", "zeta_rotation", "zeta_boost",
    "zeta_for", "bc_matrix", "bc_condition_residual", "verify_phi0_uniqueness",
    "CheckResult",
    # operators
    "ALPHA", "BETA", "hamiltonian_matrix", "dispersion", "plane_wave_solve",
    "PlaneWaveSolution", "kg_rhs_matrix", "dirac_square_equals_kg",
    "gauge_map_to_standard", "gauge_map_from_standard",
    # limits
    "NonRelParams", "pauli_energy", "LevyLeblondSolution", "levy_leblond_solve",
    "dirac_energy", "kinetic_minus_rest", "nonrel_abs_error", "NonRelError",
    "nonrel_error",
    # evolution
    "WavePacket", "Observables", "TrajectoryResult", "init_gaussian",
    "observables", "evolve", "trajectory", "group_velocity_estimate",
    "SpectralPropagator", "write_trajectory_csv",
    # verification
    "run_verification", "format_report",
}


def test_public_surface():
    exported = {
        name for name in dir(dl)
        if not name.startswith("_") and not isinstance(getattr(dl, name), types.ModuleType)
    }
    assert exported == PUBLIC, (
        f"added: {sorted(exported - PUBLIC)}, missing: {sorted(PUBLIC - exported)}"
    )
    assert dl.__version__


def test_every_module_all_entry_resolves():
    for info in pkgutil.iter_modules(dl.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"diraclab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"diraclab.{info.name}.__all__ lists undefined names: {missing}"


@pytest.mark.parametrize(
    "build, field, array",
    [
        (lambda a: dl.WavePacket(n=64, length=1.0, values=a), "values",
         np.ones((64, 4), dtype=complex)),
        (lambda a: dl.PlaneWaveSolution(a, 1.0, 1, np.ones(4, dtype=complex)), "k",
         np.ones(3)),
        (lambda a: dl.PlaneWaveSolution(np.ones(3), 1.0, 1, a), "spinor",
         np.ones(4, dtype=complex)),
        (lambda a: dl.GeneralizedParams(1j, a), "c", 1j * np.ones(4)),
        (lambda a: dl.NonRelParams(1.0, c_tilde=a), "c_tilde", np.ones(3)),
        (lambda a: dl.PhaseFunction(a), "zeta", np.ones(4, dtype=complex)),
    ],
    ids=["WavePacket", "PlaneWaveSolution.k", "PlaneWaveSolution.spinor",
         "GeneralizedParams", "NonRelParams", "PhaseFunction"],
)
def test_stored_arrays_are_read_only_copies(build, field, array):
    # The array already has the stored dtype and layout, so only an explicit
    # copy keeps the caller's array writeable and the stored field fixed.
    stored = getattr(build(array), field)
    assert not stored.flags.writeable
    assert array.flags.writeable
    array[...] = 0
    assert np.all(stored != 0)

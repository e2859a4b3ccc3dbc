"""Seeded verification suites spanning all modules.

Every suite reduces to one CheckResult line; the CLI `verify` subcommand
prints them in fixed order, so a fixed seed gives byte-identical reports.
Negative controls draw their coefficients and parameters bounded away
from zero, which keeps the violated condition visible regardless of the
draw (a transform whose parameter is near zero, or a constant matrix
whose relevant components vanish, would otherwise mask the defect).
"""

from __future__ import annotations

import numpy as np

from .clifford import (
    GAMMA,
    GAMMA5,
    I4,
    anticommutator,
    basis_decompose,
    max_abs,
    random_matrix,
)
from .invariance import (
    CheckResult,
    GeneralizedParams,
    PhaseFunction,
    bc_condition_residual,
    verify_phi0_uniqueness,
    zeta_for,
)
from .nonrel import NonRelParams, levy_leblond_solve, pauli_energy
from .operators import (
    dispersion,
    dirac_square_equals_kg,
    gauge_map_from_standard,
    gauge_map_to_standard,
    hamiltonian_matrix,
    plane_wave_solve,
)
from .poincare import PoincareTransform, covariance_residual

__all__ = ["run_verification", "format_report", "report_header"]

_KINDS = ("rotation", "boost")


def _random_transform(rng, bounded: bool = False) -> PoincareTransform:
    kind = _KINDS[int(rng.integers(2))]
    axis = int(rng.integers(1, 4))
    if bounded:
        par = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
    else:
        par = float(rng.uniform(-2.0, 2.0))
    return PoincareTransform.make(kind, axis, par)


def _random_params(rng) -> GeneralizedParams:
    return GeneralizedParams.from_physical(
        m0=float(rng.uniform(0.1, 5.0)),
        eps_tilde=float(rng.uniform(-1.0, 1.0)),
        p_tilde=rng.uniform(-1.0, 1.0, 3),
    )


def _check_clifford(threshold: float = 1e-14) -> CheckResult:
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * I4 if mu == nu else 0.0 * I4
            worst = max(worst, max_abs(anticommutator(GAMMA[mu], GAMMA[nu]) - target))
    return CheckResult("clifford_anticommutators", worst, worst <= threshold)


def _check_gamma5(threshold: float = 1e-14) -> CheckResult:
    product = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    worst = max_abs(GAMMA5 - product)
    literal = np.zeros((4, 4), dtype=complex)
    literal[0, 2] = literal[1, 3] = literal[2, 0] = literal[3, 1] = -1j
    worst = max(worst, max_abs(GAMMA5 - literal))
    return CheckResult("gamma5_identity", worst, worst <= threshold)


def _check_basis_roundtrip(rng, trials: int, threshold: float = 1e-12) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        m = random_matrix(rng, 2.0)
        worst = max(worst, max_abs(basis_decompose(m).reconstruct() - m))
    return CheckResult("basis_roundtrip", worst, worst <= threshold)


def _check_covariance(rng, trials: int, threshold: float = 1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        t = _random_transform(rng)
        worst = max(worst, covariance_residual(GAMMA, t))
    return CheckResult("covariance_gamma", worst, worst <= threshold)


def _check_covariance_negative(rng, trials: int) -> CheckResult:
    perturbed = [GAMMA[0], GAMMA[1] + 0.1 * I4, GAMMA[2], GAMMA[3]]
    weakest = np.inf
    for _ in range(trials):
        par = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
        worst = 0.0
        for kind in _KINDS:
            for axis in (1, 2, 3):
                t = PoincareTransform.make(kind, axis, par)
                worst = max(worst, covariance_residual(perturbed, t))
        weakest = min(weakest, worst)
    return CheckResult("covariance_negative_control", float(weakest), weakest >= 1e-3)


def _bounded_imaginary_c(rng) -> np.ndarray:
    mag = rng.uniform(0.25, 1.0, 4)
    sign = rng.choice((-1.0, 1.0), 4)
    return 1j * mag * sign


def _check_zeta_condition(rng, trials: int, threshold: float = 1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        c = 1j * rng.uniform(-1.0, 1.0, 4)
        a = 1j * rng.uniform(0.0, 1.0)
        t = _random_transform(rng)
        worst = max(worst, bc_condition_residual(a, c, t, zeta_for(c, t)))
    return CheckResult("zeta_condition", worst, worst <= threshold)


def _check_zeta_negative(rng, trials: int) -> CheckResult:
    weakest = np.inf
    for _ in range(trials):
        c = _bounded_imaginary_c(rng)
        a = 1j * rng.uniform(0.0, 1.0)
        t = _random_transform(rng, bounded=True)
        weakest = min(
            weakest, bc_condition_residual(a, c, t, PhaseFunction.zero())
        )
    return CheckResult("zeta_negative_control", float(weakest), weakest >= 0.05)


def _check_hermiticity(rng, trials: int, threshold: float = 1e-13) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        h = hamiltonian_matrix(rng.uniform(-2.0, 2.0, 3), _random_params(rng))
        worst = max(worst, max_abs(h - h.conj().T))
    return CheckResult("hamiltonian_hermiticity", worst, worst <= threshold)


def _check_dispersion(rng, trials: int, threshold: float = 1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        params = _random_params(rng)
        k = rng.uniform(-2.0, 2.0, 3)
        eig = np.linalg.eigvalsh(hamiltonian_matrix(k, params))
        lo = dispersion(k, params, -1)
        hi = dispersion(k, params, +1)
        expected = np.sort(np.array([lo, lo, hi, hi]))
        worst = max(worst, float(np.max(np.abs(eig - expected))))
    return CheckResult("dispersion_vs_eigensolver", worst, worst <= threshold)


def _check_dirac_square(rng, trials: int, threshold: float = 1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        worst = max(
            worst,
            dirac_square_equals_kg(rng.uniform(-2.0, 2.0, 3), _random_params(rng)),
        )
    return CheckResult("dirac_square_kg", worst, worst <= threshold)


def _check_gauge_map(rng, trials: int, threshold: float = 1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        params = _random_params(rng)
        k = rng.uniform(-2.0, 2.0, 3)
        standard = GeneralizedParams.standard(params.m0)
        for sol in plane_wave_solve(k, params):
            mapped = gauge_map_to_standard(sol, params)
            h = hamiltonian_matrix(mapped.k, standard)
            worst = max(
                worst,
                max_abs(h @ mapped.spinor - mapped.energy * mapped.spinor),
            )
            back = gauge_map_from_standard(mapped, params)
            worst = max(worst, max_abs(back.spinor - sol.spinor))
            worst = max(worst, abs(back.energy - sol.energy))
            worst = max(worst, float(np.max(np.abs(back.k - sol.k))))
    return CheckResult("gauge_map_roundtrip", worst, worst <= threshold)


def _check_levy_leblond(rng, trials: int, threshold: float = 1e-13) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        params = NonRelParams(
            m0=float(rng.uniform(0.2, 4.0)),
            eps_tilde=float(rng.uniform(-1.0, 1.0)),
            c_tilde=rng.uniform(-1.0, 1.0, 3),
        )
        k = rng.uniform(-1.0, 1.0, 3)
        worst = max(
            worst,
            abs(levy_leblond_solve(k, params).energy - pauli_energy(k, params)),
        )
    return CheckResult("levy_leblond_vs_pauli", worst, worst <= threshold)


def run_verification(trials: int = 200, seed: int = 42, tol: float | None = None) -> list[CheckResult]:
    """Run every suite with one seeded generator; fixed order of checks.

    When `tol` is given it replaces the threshold of every residual-bounded
    check; the negative controls (which pass by exceeding a violation
    floor) and the uniqueness suite keep their own gates.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    def gate(default: float) -> float:
        return default if tol is None else tol

    results = [
        _check_clifford(gate(1e-14)),
        _check_gamma5(gate(1e-14)),
        _check_basis_roundtrip(rng, trials, gate(1e-12)),
        _check_covariance(rng, trials, gate(1e-10)),
        _check_covariance_negative(rng, max(1, trials // 10)),
        _check_zeta_condition(rng, trials, gate(1e-10)),
        _check_zeta_negative(rng, trials),
    ]
    results.extend(verify_phi0_uniqueness(trials=max(50, trials // 2), seed=seed + 1))
    results.extend(
        [
            _check_hermiticity(rng, trials, gate(1e-13)),
            _check_dispersion(rng, trials, gate(1e-10)),
            _check_dirac_square(rng, trials, gate(1e-10)),
            _check_gauge_map(rng, max(1, trials // 4), gate(1e-10)),
            _check_levy_leblond(rng, trials, gate(1e-13)),
        ]
    )
    return results


def format_report(results: list[CheckResult], header: str | None = None) -> str:
    lines = [header] if header else []
    lines.extend(r.line() for r in results)
    return "\n".join(lines) + "\n"


def report_header(trials: int, seed: int) -> str:
    """Comment line recording the draw parameters; keeps randomized check
    lines reproducible without widening the CHECK line format."""
    return f"# diraclab verify trials={trials} seed={seed}"

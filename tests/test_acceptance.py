"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (run with -s to see them); the
assertions carry the same thresholds, so `pytest -v` gives the same
verdict line per criterion.
"""

import time

import numpy as np
import pytest

from diraclab.clifford import GAMMA, I4, anticommutator, max_abs
from diraclab.evolution import init_gaussian, trajectory
from diraclab.invariance import (
    GeneralizedParams,
    PhaseFunction,
    bc_condition_residual,
    verify_phi0_uniqueness,
    zeta_for,
)
from diraclab.nonrel import levy_leblond_solve, nonrel_abs_error, pauli_energy
from diraclab.operators import (
    dispersion,
    dirac_square_equals_kg,
    gauge_map,
    hamiltonian_matrix,
    plane_wave_solve,
)
from diraclab.poincare import PoincareTransform, covariance_residual
from diraclab.verify import format_report, run_verification


def _passline(name):
    print(f"ACCEPTANCE {name}: PASS")


def _random_transform(rng, bounded=False):
    kind = "rotation" if rng.random() < 0.5 else "boost"
    if bounded:
        par = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
    else:
        par = float(rng.uniform(-2.0, 2.0))
    return PoincareTransform(kind, int(rng.integers(1, 4)), par)


def _random_params(rng):
    return GeneralizedParams(
        m0=float(rng.uniform(0.1, 5.0)),
        eps_tilde=float(rng.uniform(-1.0, 1.0)),
        p_tilde=rng.uniform(-1.0, 1.0, 3),
    )


def test_criterion_01_clifford_suite():
    start = time.perf_counter()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * I4 if mu == nu else np.zeros((4, 4))
            worst = max(worst, max_abs(anticommutator(GAMMA[mu], GAMMA[nu]) - target))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-14
    assert elapsed < 1.0
    _passline("01 clifford suite")


def test_criterion_02_covariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        worst = max(worst, covariance_residual(GAMMA, _random_transform(rng)))
    assert worst <= 1e-10

    perturbed = [GAMMA[0], GAMMA[1] + 0.1 * I4, GAMMA[2], GAMMA[3]]
    weakest = np.inf
    for _ in range(20):
        par = float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)))
        control = max(
            covariance_residual(perturbed, PoincareTransform(kind, axis, par))
            for kind in ("rotation", "boost")
            for axis in (1, 2, 3)
        )
        weakest = min(weakest, control)
    assert weakest > 1e-3
    assert time.perf_counter() - start < 5.0
    _passline("02 covariance suite")


def test_criterion_03_phase_function_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(203)
    worst = 0.0
    for _ in range(200):
        c = 1j * rng.uniform(-1.0, 1.0, 4)
        a = 1j * rng.uniform(0.0, 1.0)
        t = _random_transform(rng)
        worst = max(worst, bc_condition_residual(a, c, t, zeta_for(c, t)))
    assert worst <= 1e-10

    weakest = np.inf
    for _ in range(200):
        # every component bounded away from zero keeps the missing phase
        # visible whichever axis the transform picks
        c = 1j * rng.uniform(0.25, 1.0, 4) * rng.choice((-1.0, 1.0), 4)
        a = 1j * rng.uniform(0.0, 1.0)
        t = _random_transform(rng, bounded=True)
        weakest = min(weakest, bc_condition_residual(a, c, t, PhaseFunction.zero()))
    assert weakest >= 0.05
    assert time.perf_counter() - start < 5.0
    _passline("03 phase-function theorem")


def test_criterion_04_phi0_uniqueness():
    report = {r.name: r for r in verify_phi0_uniqueness(trials=100, seed=204)}
    assert report["phi0_gamma_structure"].max_residual <= 1e-10
    assert report["phi0_random_violation"].max_residual > 1e-3
    # nullspace statistic bundles |dim - 2| with the containment residuals
    assert report["phi0_ansatz_nullspace"].passed
    assert report["phi0_ansatz_nullspace"].max_residual <= 1e-10
    assert report["phi0_bc_commutant"].passed
    assert report["phi0_bc_negative"].passed
    _passline("04 phi0 uniqueness")


def test_criterion_05_dispersion_identity():
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(500):
        params = _random_params(rng)
        k = rng.uniform(-2.0, 2.0, 3)
        eig = np.linalg.eigvalsh(hamiltonian_matrix(k, params))
        lo, hi = dispersion(k, params, -1), dispersion(k, params, +1)
        worst = max(worst, float(np.max(np.abs(eig - np.sort([lo, lo, hi, hi])))))
        # double degeneracy of each branch
        worst = max(worst, abs(eig[0] - eig[1]), abs(eig[2] - eig[3]))
    assert worst <= 1e-10
    _passline("05 dispersion identity")


def test_criterion_06_dirac_square_equals_kg():
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(100):
        worst = max(
            worst, dirac_square_equals_kg(rng.uniform(-2.0, 2.0, 3), _random_params(rng))
        )
    assert worst <= 1e-10
    _passline("06 dirac^2 = kg")


def test_criterion_07_gauge_map_equivalence():
    rng = np.random.default_rng(207)
    worst_eigen = 0.0
    worst_round = 0.0
    for _ in range(100):
        params = _random_params(rng)
        k = rng.uniform(-2.0, 2.0, 3)
        std = GeneralizedParams(params.m0)
        for sol in plane_wave_solve(k, params):
            mapped = gauge_map(sol, params, std)
            h = hamiltonian_matrix(mapped.k, std)
            worst_eigen = max(
                worst_eigen, max_abs(h @ mapped.spinor - mapped.energy * mapped.spinor)
            )
            back = gauge_map(mapped, std, params)
            worst_round = max(
                worst_round,
                float(np.max(np.abs(back.k - sol.k))),
                abs(back.energy - sol.energy),
                max_abs(back.spinor - sol.spinor),
            )
    assert worst_eigen <= 1e-10
    assert worst_round <= 1e-12
    _passline("07 gauge-map equivalence")


def test_criterion_08_nonrelativistic_limit():
    rng = np.random.default_rng(208)
    worst = 0.0
    for _ in range(100):
        p = GeneralizedParams(
            float(rng.uniform(0.2, 4.0)), float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 3)
        )
        k = rng.uniform(-1.0, 1.0, 3)
        worst = max(worst, abs(levy_leblond_solve(k, p).energy - pauli_energy(k, p)))
    assert worst <= 1e-13

    m0 = 1.0
    ks = np.geomspace(1e-3, 1e-1, 25) * m0
    errs = np.array([nonrel_abs_error([0, 0, k], GeneralizedParams(m0)) for k in ks])
    slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    assert abs(slope - 4.0) <= 0.1

    # generalized forms reduce to the standard ones exactly at zero shifts
    plain = GeneralizedParams(1.7)
    for kz in (0.0, 0.05, 0.3):
        k = np.array([0.1, -0.2, kz])
        assert pauli_energy(k, plain) == float(k @ k) / (2 * 1.7)
        sol = levy_leblond_solve(k, plain)
        assert sol.energy == float(k @ k) / (2 * 1.7)
    _passline("08 non-relativistic limit")


def test_criterion_09_evolution():
    start = time.perf_counter()
    n, length, width, x0 = 1024, 200.0, 10.0, 60.0
    dt, steps, sample_every = 5e-3, 10_000, 500
    expected_v = 0.5 / np.sqrt(1.25)  # 0.44721...

    # case A: plain mass, moving packet
    std = GeneralizedParams(1.0)
    packet = init_gaussian(n, length, x0, 0.5, width, params=std)
    fwd = trajectory(packet, std, dt, steps, sample_every)
    assert np.max(np.abs(fwd.norms - 1.0)) <= 1e-10
    back = trajectory(fwd.packet, std, -dt, steps, sample_every=steps)
    assert np.max(np.abs(back.packet.values - packet.values)) <= 1e-10
    v = float(np.polyfit(fwd.times, fwd.mean_x, 1)[0])
    assert v == pytest.approx(expected_v, rel=0.01)

    # case B: momentum shift moves the dispersion minimum; the packet
    # drifts at zero grid momentum
    gen = GeneralizedParams(1.0, 0.0, (0.0, 0.0, 0.5))
    packet_b = init_gaussian(n, length, x0, 0.0, width, params=gen)
    fwd_b = trajectory(packet_b, gen, dt, steps, sample_every)
    assert np.max(np.abs(fwd_b.norms - 1.0)) <= 1e-10
    v_b = float(np.polyfit(fwd_b.times, fwd_b.mean_x, 1)[0])
    assert v_b == pytest.approx(expected_v, rel=0.01)

    assert time.perf_counter() - start < 60.0
    _passline("09 evolution")


def test_criterion_10_determinism():
    first = format_report(run_verification(trials=200, seed=42))
    second = format_report(run_verification(trials=200, seed=42))
    assert first == second
    assert first.encode() == second.encode()
    for line in first.strip().splitlines():
        assert line.endswith("PASS"), line
    _passline("10 determinism")

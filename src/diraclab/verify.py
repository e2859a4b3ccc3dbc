"""Seeded verification suites spanning all modules.

Every suite reduces to one CheckResult line; the CLI `verify` subcommand
prints them in fixed order, so a fixed seed gives byte-identical reports.
Negative controls draw their coefficients and parameters bounded away
from zero, which keeps the violated condition visible regardless of the
draw (a transform whose parameter is near zero, or a constant matrix
whose relevant components vanish, would otherwise mask the defect).

Each randomized check draws its trials in a fixed per-trial order (one
generator call per quantity, trial after trial, or one call that gives the
same stream), evaluates one residual per trial on (trials, 4, 4) stacks in
blocks of at most invariance._BLOCK trials, and hands the residual array to
invariance._reduce, which makes every verdict NaN-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import GAMMA, GAMMA5, I4, _compose, _decompose, anticommutator
from .invariance import (
    CheckResult,
    _bc_residuals,
    _param_stack,
    _blockwise,
    _ParamStack,
    _reduce,
    _zeta,
    verify_phi0_uniqueness,
)
from .nonrel import _levy_leblond_spinors, _nonrel_stack
from .operators import (
    _dirac_square_residuals,
    _hamiltonian,
    _plane_waves,
    _shift,
    _sigma_dot,
    dispersion,
)
from .poincare import _covariance_residuals, _reps

__all__ = ["run_verification", "format_report", "report_header"]

_KINDS = ("rotation", "boost")
# A random sign is _SIGNS[rng.integers(2)]: rng.choice((-1.0, 1.0)) draws the
# same stream through rng.integers, at several times the per-call cost.  That
# equality is numpy's implementation, not its documented contract; the golden
# reports in tests/test_verify.py pin the stream, so a numpy that breaks it
# fails there.
_SIGNS = np.array([-1.0, 1.0])

# Bounds of the uniform draws, one pair per drawn number, in draw order.
_K = ((-2.0, 2.0),) * 3
_PARAMS = ((0.1, 5.0), (-1.0, 1.0)) + ((-1.0, 1.0),) * 3  # m0, eps_tilde, p_tilde


def _uniform(rng, trials: int, bounds) -> np.ndarray:
    """(trials, len(bounds)) uniform draws.  rng.uniform fills the array in
    row-major order, so the stream is that of one call per number, trial
    after trial."""
    lo, hi = np.array(bounds).T
    return rng.uniform(lo, hi, (trials, len(bounds)))


def _params(u: np.ndarray) -> _ParamStack:
    """The GeneralizedParams of (trials, 5) draws (m0, eps_tilde, p_tilde)."""
    return _param_stack(u[:, 0], u[:, 1], u[:, 2:5])


def _draw_transform(rng, bounded: bool = False) -> tuple[str, int, float]:
    kind = _KINDS[int(rng.integers(2))]
    axis = int(rng.integers(1, 4))
    if bounded:
        par = float(rng.uniform(0.5, 2.0) * _SIGNS[rng.integers(2)])
    else:
        par = float(rng.uniform(-2.0, 2.0))
    return kind, axis, par


def _check_clifford(threshold: float = 1e-14) -> CheckResult:
    g = np.array(GAMMA)
    target = 2.0 * np.eye(4)[:, :, None, None] * I4
    defects = anticommutator(g[:, None], g[None, :]) - target
    return _reduce("clifford_anticommutators", np.abs(defects), threshold, "bound")


def _check_gamma5(threshold: float = 1e-14) -> CheckResult:
    product = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
    literal = np.zeros((4, 4), dtype=complex)
    literal[0, 2] = literal[1, 3] = literal[2, 0] = literal[3, 1] = -1j
    defects = [GAMMA5 - product, GAMMA5 - literal]
    return _reduce("gamma5_identity", np.abs(defects), threshold, "bound")


def _check(name: str, residuals, rng, trials: int, gate: float, kind: str = "bound"):
    """The verdict on `trials` draws of residuals(rng, n), taken blockwise."""
    return _reduce(name, _blockwise(residuals, rng, trials), gate, kind)


def _per_trial(a: np.ndarray) -> np.ndarray:
    """Each trial's largest entry: (n, ...) -> (n,).  np.max keeps NaN."""
    return np.max(a.reshape(len(a), -1), axis=1)


def _basis_roundtrip(rng, n):
    # Per trial, as clifford.random_matrix draws: 16 real parts, then 16 imaginary,
    # here uniform in [-2, 2).
    u = rng.uniform(-2.0, 2.0, (n, 2, 4, 4))
    m = u[:, 0] + 1j * u[:, 1]
    return _per_trial(np.abs(_compose(_decompose(m)) - m))


def _covariance(rng, n):
    draws = [_draw_transform(rng) for _ in range(n)]
    return _covariance_residuals(np.array(GAMMA), *_reps(*zip(*draws)))


def _covariance_negative(rng, n):
    perturbed = np.array([GAMMA[0], GAMMA[1] + 0.1 * I4, GAMMA[2], GAMMA[3]])
    pars = [float(rng.uniform(0.5, 2.0) * _SIGNS[rng.integers(2)]) for _ in range(n)]
    # Each trial's parameter under all six (kind, axis) pairs; a trial's
    # violation is the largest of its six residuals.
    kinds, axes = np.repeat(_KINDS, 3), np.tile([1, 2, 3], 2)
    return _per_trial(
        _covariance_residuals(perturbed, *_reps(kinds, axes, np.array(pars)[:, None]))
    )


def _bounded_imaginary_c(rng) -> np.ndarray:
    mag = rng.uniform(0.25, 1.0, 4)
    sign = _SIGNS[rng.integers(2, size=4)]
    return 1j * mag * sign


def _zeta_draws(rng, n: int, bounded: bool):
    """Per trial: c, then a, then the transform; stacked column by column."""
    rows = []
    for _ in range(n):
        c = _bounded_imaginary_c(rng) if bounded else 1j * rng.uniform(-1.0, 1.0, 4)
        a = 1j * rng.uniform(0.0, 1.0)
        rows.append((c, a, *_draw_transform(rng, bounded)))
    return (np.array(col) for col in zip(*rows))


def _zeta_condition(rng, n):
    c, a, kinds, axes, pars = _zeta_draws(rng, n, bounded=False)
    S, Sinv, _ = _reps(kinds, axes, pars)
    return _bc_residuals(a, c, S, Sinv, _zeta(c, kinds, axes, pars))


def _zeta_negative(rng, n):
    c, a, kinds, axes, pars = _zeta_draws(rng, n, bounded=True)
    S, Sinv, _ = _reps(kinds, axes, pars)
    return _bc_residuals(a, c, S, Sinv, np.zeros_like(c))


def _hermiticity(rng, n):
    u = _uniform(rng, n, _K + _PARAMS)
    h = _hamiltonian(np.ascontiguousarray(u[:, :3]), _params(u[:, 3:]))
    return _per_trial(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))


def _dispersion(rng, n):
    u = _uniform(rng, n, _PARAMS + _K)
    params, k = _params(u[:, :5]), np.ascontiguousarray(u[:, 5:])
    eig = np.linalg.eigvalsh(_hamiltonian(k, params))
    lo = dispersion(k, params, -1)
    hi = dispersion(k, params, +1)
    expected = np.sort(np.stack([lo, lo, hi, hi], axis=-1), axis=-1)
    return _per_trial(np.abs(eig - expected))


def _dirac_square(rng, n):
    u = _uniform(rng, n, _K + _PARAMS)
    return _dirac_square_residuals(np.ascontiguousarray(u[:, :3]), _params(u[:, 3:]))


def _gauge_map(rng, n):
    u = _uniform(rng, n, _PARAMS + _K)
    params, k = _params(u[:, :5]), np.ascontiguousarray(u[:, 5:])
    energy, spinor = _plane_waves(k, params)
    # One row per solution: four per trial, each with its trial's k and
    # parameters.  To the standard equation and back, as
    # gauge_map_to_standard and gauge_map_from_standard do; the second
    # eigenstate check measures the mapped spinor against the standard
    # Hamiltonian.
    rows = _ParamStack(*(np.repeat(x, 4, axis=0) for x in params))
    standard = rows._replace(
        eps_tilde=np.zeros_like(rows.eps_tilde), p_tilde=np.zeros_like(rows.p_tilde)
    )
    k, energy, spinor = np.repeat(k, 4, axis=0), energy.ravel(), spinor.reshape(-1, 4)
    k_std, e_std, _ = _shift(k, energy, spinor, rows, rows, +1)
    k_back, e_back, std_defect = _shift(k_std, e_std, spinor, rows, standard, -1)
    r = np.stack([std_defect, np.abs(e_back - energy), np.max(np.abs(k_back - k), axis=-1)])
    return _per_trial(r.T.reshape(n, -1))


def _levy_leblond(rng, n):
    # Per trial: m0, eps_tilde, c_tilde, then k.
    u = _uniform(rng, n, ((0.2, 4.0), (-1.0, 1.0)) + ((-1.0, 1.0),) * 6)
    params = _nonrel_stack(u[:, 0], u[:, 1], u[:, 2:5])
    k = np.ascontiguousarray(u[:, 5:])
    energy, phi, chi = _levy_leblond_spinors(k, params)
    # The first linked equation, (e + eps_tilde) phi = sigma.K chi with
    # chi = sigma.K phi / 2m0: it holds when (sigma.K)^2 = K^2 agrees with
    # the energy formula e = K^2 / 2m0 - eps_tilde, the Pauli energy.
    sigma_k_chi = (_sigma_dot(k + params.c_tilde) @ chi[..., None])[..., 0]
    return _per_trial(np.abs((energy + params.eps_tilde)[:, None] * phi - sigma_k_chi))


def run_verification(trials: int = 200, seed: int = 42, tol: float | None = None) -> list[CheckResult]:
    """Run every suite with one seeded generator; fixed order of checks.

    When `tol` is given it replaces the threshold of every residual-bounded
    check; the negative controls (which pass by exceeding a violation
    floor) and the uniqueness suite keep their own gates.  `tol` must be
    positive and finite: an infinite gate passes everything and a zero or
    negative one fails everything.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rng = np.random.default_rng(seed)

    def gate(default: float) -> float:
        return default if tol is None else tol

    results = [
        _check_clifford(gate(1e-14)),
        _check_gamma5(gate(1e-14)),
        _check("basis_roundtrip", _basis_roundtrip, rng, trials, gate(1e-12)),
        _check("covariance_gamma", _covariance, rng, trials, gate(1e-10)),
        _check("covariance_negative_control", _covariance_negative, rng,
               max(1, trials // 10), 1e-3, "floor"),
        _check("zeta_condition", _zeta_condition, rng, trials, gate(1e-10)),
        _check("zeta_negative_control", _zeta_negative, rng, trials, 0.05, "floor"),
    ]
    results.extend(verify_phi0_uniqueness(trials=max(50, trials // 2), seed=seed + 1))
    results.extend(
        [
            _check("hamiltonian_hermiticity", _hermiticity, rng, trials, gate(1e-13)),
            _check("dispersion_vs_eigensolver", _dispersion, rng, trials, gate(1e-10)),
            _check("dirac_square_kg", _dirac_square, rng, trials, gate(1e-10)),
            _check("gauge_map_roundtrip", _gauge_map, rng, max(1, trials // 4), gate(1e-10)),
            _check("levy_leblond_vs_pauli", _levy_leblond, rng, trials, gate(1e-13)),
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

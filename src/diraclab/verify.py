"""Seeded verification suites spanning all modules.

Every suite reduces to one CheckResult line; the CLI `verify` subcommand
prints them in fixed order, so a fixed seed gives byte-identical reports.
Negative controls draw their coefficients and parameters bounded away
from zero, which keeps the violated condition visible regardless of the
draw (a transform whose parameter is near zero, or a constant matrix
whose relevant components vanish, would otherwise mask the defect).

Each randomized check makes one generator call per block of at most
invariance._BLOCK trials: a (trials, columns) uniform draw, one row per
trial.  Integer choices (kind, axis, sign) are the floors of their own
uniform columns.  The check evaluates one residual per trial on
(trials, 4, 4) stacks and hands the residual array to invariance._reduce,
which makes every verdict NaN-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import GAMMA, GAMMA5, I4, _compose, _count, _decompose, _real, anticommutator
from .invariance import (
    CheckResult,
    _bc_residuals,
    _blockwise,
    _ParamStack,
    _reduce,
    _zeta,
    verify_phi0_uniqueness,
)
from .nonrel import _levy_leblond_spinors
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

_KINDS = np.array(["rotation", "boost"])
_SIGNS = np.array([-1.0, 1.0])

# Bounds of the uniform draws, one pair per column, in column order.
_K = ((-2.0, 2.0),) * 3
_PARAMS = ((0.1, 5.0), (-1.0, 1.0)) + ((-1.0, 1.0),) * 3  # m0, eps_tilde, p_tilde
_BIT = (0.0, 2.0)  # floored to 0 or 1: an index into _KINDS or _SIGNS
_KIND_AXIS = (_BIT, (1.0, 4.0))  # the axis floored to 1, 2 or 3
_MAGNITUDE = ((0.5, 2.0), _BIT)  # a parameter bounded away from zero, then its sign


def _uniform(rng, trials: int, bounds) -> np.ndarray:
    """(trials, len(bounds)) uniform draws in one generator call, one row
    per trial.  rng.uniform fills the array in row-major order, so the
    first n rows of a 2n-trial draw are the n-trial draw."""
    lo, hi = np.array(bounds).T
    return rng.uniform(lo, hi, (trials, len(bounds)))


def _floor(u: np.ndarray) -> np.ndarray:
    """The floor of positive draws, as indices.  lo + (hi - lo) * r with
    r <= 1 - 2**-53 stays below hi for the bounds above, so the floor of a
    (0, 2) column is 0 or 1 and of a (1, 4) column 1, 2 or 3."""
    return u.astype(np.intp)  # truncation is the floor for positive values


def _kinds_axes(u: np.ndarray):
    """Kinds and axes of (trials, 2) _KIND_AXIS draws."""
    i = _floor(u)
    return _KINDS[i[:, 0]], i[:, 1]


def _signed(u: np.ndarray) -> np.ndarray:
    """Signed magnitudes of (trials, 2) _MAGNITUDE draws."""
    return u[:, 0] * _SIGNS[_floor(u[:, 1])]


def _params(u: np.ndarray) -> _ParamStack:
    """The GeneralizedParams of (trials, 5) draws (m0, eps_tilde, p_tilde),
    which the bounds of each check keep in the public parameter domain
    (m0 > 0 for the limit forms)."""
    return _ParamStack(u[:, 0], u[:, 1], u[:, 2:5])


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
    # Per trial: kind, axis, parameter.
    u = _uniform(rng, n, _KIND_AXIS + ((-2.0, 2.0),))
    return _covariance_residuals(np.array(GAMMA), *_reps(*_kinds_axes(u[:, :2]), u[:, 2]))


def _covariance_negative(rng, n):
    perturbed = np.array([GAMMA[0], GAMMA[1] + 0.1 * I4, GAMMA[2], GAMMA[3]])
    pars = _signed(_uniform(rng, n, _MAGNITUDE))
    # Each trial's parameter under all six (kind, axis) pairs; a trial's
    # violation is the largest of its six residuals.
    kinds, axes = np.repeat(_KINDS, 3), np.tile([1, 2, 3], 2)
    return _per_trial(_covariance_residuals(perturbed, *_reps(kinds, axes, pars[:, None])))


def _zeta_condition(rng, n):
    # Per trial: c, a, kind, axis, parameter.
    u = _uniform(rng, n, ((-1.0, 1.0),) * 4 + ((0.0, 1.0),) + _KIND_AXIS + ((-2.0, 2.0),))
    c, (kinds, axes), pars = 1j * u[:, :4], _kinds_axes(u[:, 5:7]), u[:, 7]
    S, Sinv, L = _reps(kinds, axes, pars)
    return _bc_residuals(1j * u[:, 4], c, S, Sinv, _zeta(c, L))


def _zeta_negative(rng, n):
    # Per trial: |c|, the signs of c, a, kind, axis, then a parameter
    # bounded away from zero and its sign.
    bounds = ((0.25, 1.0),) * 4 + (_BIT,) * 4 + ((0.0, 1.0),) + _KIND_AXIS + _MAGNITUDE
    u = _uniform(rng, n, bounds)
    c = 1j * u[:, :4] * _SIGNS[_floor(u[:, 4:8])]
    S, Sinv, _ = _reps(*_kinds_axes(u[:, 9:11]), _signed(u[:, 11:]))
    return _bc_residuals(1j * u[:, 8], c, S, Sinv, np.zeros_like(c))


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
    # Per trial: m0, eps_tilde, p_tilde, then k.
    u = _uniform(rng, n, ((0.2, 4.0), (-1.0, 1.0)) + ((-1.0, 1.0),) * 6)
    params, k = _params(u[:, :5]), np.ascontiguousarray(u[:, 5:])
    energy, phi, chi = _levy_leblond_spinors(k, params)
    # The first linked equation, (e + eps_tilde) phi = sigma.K chi with
    # chi = sigma.K phi / 2m0: it holds when (sigma.K)^2 = K^2 agrees with
    # the energy formula e = K^2 / 2m0 - eps_tilde, the Pauli energy.
    sigma_k_chi = (_sigma_dot(k + params.p_tilde) @ chi[..., None])[..., 0]
    return _per_trial(np.abs((energy + params.eps_tilde)[:, None] * phi - sigma_k_chi))


def run_verification(trials: int = 200, seed: int = 42, tol: float | None = None) -> list[CheckResult]:
    """Run every suite with one seeded generator; fixed order of checks.

    When `tol` is given it replaces the threshold of every residual-bounded
    check; the negative controls (which pass by exceeding a violation
    floor) and the uniqueness suite keep their own gates.  `tol` must be
    positive and finite: an infinite gate passes everything and a zero or
    negative one fails everything.
    """
    _count("trials", trials, 1)
    rng = np.random.default_rng(_count("seed", seed, 0))
    if tol is not None:
        # a NaN or infinite float is out of range as 0 is, with the same
        # message; _real would reject it with its own
        tol = float(tol) if isinstance(tol, (float, np.floating)) else _real("tol", tol)
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")

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

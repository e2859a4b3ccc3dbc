"""Momentum-space Hamiltonians, plane-wave solutions and dispersion.

The first-order equation in Hamiltonian form uses the Hermitian velocity
matrices alpha_j = -i*gamma(0)gamma(j) (the Euclideanized spatial
generators carry a factor of i, so the bare product would be
anti-Hermitian) and beta = gamma(0):

    H(k) = alpha . (k + p_tilde) + m0*beta - eps_tilde*I

Its eigenvalues are +/- sqrt(m0^2 + |k + p_tilde|^2) - eps_tilde, each
doubly degenerate.  Applying the operator twice gives the second-order
form whose momentum-space matrix kg_rhs_matrix reproduces H(k)^2 as an
operator identity.  Solutions of the generalized equation map onto
standard ones by the kinematic shift (k, e) -> (k + p_tilde, e + eps_tilde)
with the spinor unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import GAMMA, I4, max_abs
from .invariance import GeneralizedParams

__all__ = [
    "ALPHA",
    "BETA",
    "hamiltonian_matrix",
    "dispersion",
    "PlaneWaveSolution",
    "plane_wave_solve",
    "kg_rhs_matrix",
    "kg_residual",
    "dirac_square_equals_kg",
    "gauge_map_to_standard",
    "gauge_map_from_standard",
]

BETA = GAMMA[0]
ALPHA = tuple(-1j * (GAMMA[0] @ g) for g in GAMMA[1:])
for _m in ALPHA:
    _m.flags.writeable = False


def _as_k3(k, stack: bool = False) -> np.ndarray:
    """Momentum as a float array: a scalar is k along z, otherwise a
    3-vector or, with stack=True, a (..., 3) stack of 3-vectors."""
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:
        return np.array([0.0, 0.0, float(k)])
    if k.shape[-1:] != (3,) or (k.ndim > 1 and not stack):
        raise ValueError(f"momentum shape {k.shape} is not {'(..., 3)' if stack else '(3,)'}")
    return k


def _k2(k, shift):
    """|k + shift|^2 on the trailing axis of a momentum or a (..., 3) stack."""
    kk = _as_k3(k, stack=True) + shift
    # matmul, not a sum over the axis: for one momentum this is exactly kk @ kk;
    # an overflow gives inf quietly, and _finite rejects it downstream
    with np.errstate(over="ignore", invalid="ignore"):
        return (kk[..., None, :] @ kk[..., :, None])[..., 0, 0]


def _w(k2, m0: float, c: float = 1.0):
    """Branch energy without shifts, sqrt(m0^2 c^4 + c^2 K^2), for K^2 = k2."""
    try:
        w = np.sqrt((m0 * c ** 2) ** 2 + c ** 2 * k2)
    except OverflowError:  # Python float ** raises where numpy gives inf
        w = np.inf
    return _finite(w)


def _finite(x):
    """x itself; ValueError if any entry overflowed to a non-finite energy."""
    # math.isfinite for one momentum (np.float64 is a float): the scalar
    # energy helpers run thousands of times per verify report
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError("energy is not finite: the inputs overflow double precision")
    return x


def _value(x):
    """A Python float for one momentum, the array for a stack, checked finite."""
    x = _finite(x)
    return float(x) if np.ndim(x) == 0 else x


def _alpha_dot(v) -> np.ndarray:
    """alpha . v: 4x4 for a 3-vector, (..., 4, 4) for a (..., 3) stack."""
    x, y, z = v[..., 0, None, None], v[..., 1, None, None], v[..., 2, None, None]
    return x * ALPHA[0] + y * ALPHA[1] + z * ALPHA[2]


def _h0(k: np.ndarray, params: GeneralizedParams) -> np.ndarray:
    """H0 = alpha.(k + p_tilde) + m0*beta at a 3-vector k or a (..., 3) stack."""
    return _alpha_dot(k + params.p_tilde) + params.m0 * BETA


def hamiltonian_matrix(k, params: GeneralizedParams) -> np.ndarray:
    """Hermitian 4x4 Hamiltonian at momentum k (scalar k means k along z)."""
    return _h0(_as_k3(k), params) - params.eps_tilde * I4


def dispersion(k, params: GeneralizedParams, branch: int = +1) -> float | np.ndarray:
    """Plane-wave energy on the given branch: +/- sqrt(m0^2+|k+p|^2) - eps;
    a float for one momentum k, an array for a (..., 3) stack of momenta."""
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    w = _w(_k2(k, params.p_tilde), params.m0)
    return _value(branch * w - params.eps_tilde)


@dataclass(frozen=True)
class PlaneWaveSolution:
    """One normalized momentum eigenstate of the Hamiltonian."""

    k: np.ndarray
    energy: float
    branch: int
    spinor: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        s = np.asarray(self.spinor, dtype=np.complex128)
        k.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "spinor", s)


def _sigma_dot(v) -> np.ndarray:
    return np.array(
        [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=np.complex128
    )


def plane_wave_solve(k, params: GeneralizedParams) -> list[PlaneWaveSolution]:
    """Four orthonormal eigenpairs at momentum k, in deterministic order.

    The two upper-branch spinors take the canonical upper-pair basis for
    the large components, the lower branch the canonical lower pair, so
    degenerate subspaces come out the same on every run.  Order:
    [plus, plus, minus, minus].
    """
    k = _as_k3(k)
    kk = k + params.p_tilde
    m0 = params.m0
    w = float(_w(kk @ kk, m0))
    sk = _sigma_dot(kk)

    def bispinor(upper, lower):
        v = np.concatenate([upper, lower])
        return v / np.linalg.norm(v)

    e2 = np.eye(2, dtype=np.complex128)
    sols = []
    if w + m0 < 1e-300:
        # Massless at zero kinetic momentum: fully degenerate, use the
        # canonical basis.
        for i, branch in zip(range(4), (+1, +1, -1, -1)):
            v = np.zeros(4, dtype=np.complex128)
            v[i] = 1.0
            sols.append(
                PlaneWaveSolution(k, -params.eps_tilde, branch, v)
            )
        return sols

    for col in range(2):
        upper = e2[:, col]
        lower = (sk @ upper) / (w + m0)
        sols.append(
            PlaneWaveSolution(k, w - params.eps_tilde, +1, bispinor(upper, lower))
        )
    for col in range(2):
        lower = e2[:, col]
        upper = -(sk @ lower) / (w + m0)
        sols.append(
            PlaneWaveSolution(k, -w - params.eps_tilde, -1, bispinor(upper, lower))
        )
    return sols


def kg_rhs_matrix(k, params: GeneralizedParams) -> np.ndarray:
    """Momentum-space matrix of the second-order equation's right side.

    On a plane wave the second-order equation reads e^2 * psi = M psi with

        M = (k^2 + m0^2 + p^2 + eps^2 + 2 p.k) * I
            - 2*m0*eps*beta - 2*eps*alpha.k - 2*eps*alpha.p
    """
    k = _as_k3(k)
    p = params.p_tilde
    eps = params.eps_tilde
    m0 = params.m0
    scalar = k @ k + m0 ** 2 + p @ p + eps ** 2 + 2.0 * (p @ k)
    return (
        scalar * I4
        - 2.0 * m0 * eps * BETA
        - 2.0 * eps * _alpha_dot(k)
        - 2.0 * eps * _alpha_dot(p)
    )


def kg_residual(k, energy: float, spinor, params: GeneralizedParams) -> float:
    """Max-norm defect of the second-order equation on one plane wave."""
    spinor = np.asarray(spinor, dtype=np.complex128)
    return max_abs(energy ** 2 * spinor - kg_rhs_matrix(k, params) @ spinor)


def dirac_square_equals_kg(k, params: GeneralizedParams) -> float:
    """Operator identity check: the squared Hamiltonian against the
    second-order matrix.  Zero up to roundoff for every (k, params)."""
    h = hamiltonian_matrix(k, params)
    return max_abs(h @ h - kg_rhs_matrix(k, params))


def _shift(
    solution: PlaneWaveSolution, params: GeneralizedParams, sign: int, residual_tol: float
) -> PlaneWaveSolution:
    """The solution moved by sign * (p_tilde, eps_tilde), spinor unchanged,
    after checking that it is an eigenstate of the Hamiltonian it comes
    from: the generalized one for sign = +1, the standard one for -1."""
    source = params if sign > 0 else GeneralizedParams.standard(params.m0)
    h = hamiltonian_matrix(solution.k, source)
    defect = max_abs(h @ solution.spinor - solution.energy * solution.spinor)
    if defect > residual_tol:
        raise ValueError(
            f"input is not an eigenstate of its Hamiltonian (residual {defect:.3e})"
        )
    return PlaneWaveSolution(
        k=solution.k + sign * params.p_tilde,
        energy=solution.energy + sign * params.eps_tilde,
        branch=solution.branch,
        spinor=solution.spinor,
    )


def gauge_map_to_standard(
    solution: PlaneWaveSolution, params: GeneralizedParams, residual_tol: float = 1e-8
) -> PlaneWaveSolution:
    """Shift a generalized solution to the standard-equation solution.

    The mapped state has momentum k + p_tilde, energy e + eps_tilde and
    the identical spinor; it satisfies the mass-only Hamiltonian exactly.
    Raises if the input does not solve its own eigenproblem.
    """
    return _shift(solution, params, +1, residual_tol)


def gauge_map_from_standard(
    solution: PlaneWaveSolution, params: GeneralizedParams, residual_tol: float = 1e-8
) -> PlaneWaveSolution:
    """Inverse shift: take a standard-equation solution back to the
    generalized one at momentum k - p_tilde and energy e - eps_tilde.
    Raises if the input does not solve the standard eigenproblem."""
    return _shift(solution, params, -1, residual_tol)

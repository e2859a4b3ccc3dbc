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

from .clifford import GAMMA, I4
from .invariance import GeneralizedParams

__all__ = [
    "ALPHA",
    "BETA",
    "hamiltonian_matrix",
    "dispersion",
    "PlaneWaveSolution",
    "plane_wave_solve",
    "kg_rhs_matrix",
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
    3-vector or, with stack=True, a (..., 3) stack of 3-vectors.  A NaN or
    infinite entry is rejected before any arithmetic."""
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError(f"k must be finite, got {k}")
    if k.ndim == 0:
        return np.array([0.0, 0.0, float(k)])
    if k.shape[-1:] != (3,) or (k.ndim > 1 and not stack):
        raise ValueError(f"momentum shape {k.shape} is not {'(..., 3)' if stack else '(3,)'}")
    return k


def _dot(a, b):
    """a . b on the trailing axis of two 3- or 4-vectors or of stacks of them.

    matmul, not a sum over the axis: for one pair of vectors this is
    exactly a @ b, so each row of a stack matches its one-vector call.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _k2(k, shift):
    """|k + shift|^2 on the trailing axis of a momentum or a (..., 3) stack."""
    kk = _as_k3(k, stack=True) + shift
    # an overflow gives inf quietly, and _finite rejects it downstream
    with np.errstate(over="ignore", invalid="ignore"):
        return _dot(kk, kk)


def _pow2(x):
    """x ** 2 as Python computes it for one float, by the C library's pow.

    That can differ in the last bit from numpy's x * x for a stack (in
    about 0.1% of draws), so stacked parameters take this route too and
    each row matches its one-parameter call.
    """
    if np.ndim(x) == 0:
        return x ** 2
    x = np.asarray(x)
    return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)


def _w(k2, m0, c: float = 1.0):
    """Branch energy without shifts, sqrt(m0^2 c^4 + c^2 K^2), for K^2 = k2."""
    try:
        w = np.sqrt(_pow2(m0 * c ** 2) + c ** 2 * k2)
    except OverflowError:  # Python float ** raises where numpy gives inf
        w = np.inf
    return _finite(w)


def _finite(x):
    """x itself; ValueError if any entry overflowed to a non-finite energy."""
    # math.isfinite for one momentum (np.float64 is a float), which is
    # cheaper than numpy's reduction on a scalar
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


def _times(x, m) -> np.ndarray:
    """A scalar or a (...) stack of scalars times one matrix or a stack."""
    return np.asarray(x)[..., None, None] * m


# The private cores below take `params` as one GeneralizedParams, or as an
# invariance._ParamStack whose fields are stacks matching the momenta.


def _h0(k: np.ndarray, params) -> np.ndarray:
    """H0 = alpha.(k + p_tilde) + m0*beta at a 3-vector k or a (..., 3) stack."""
    return _alpha_dot(k + params.p_tilde) + _times(params.m0, BETA)


def _hamiltonian(k: np.ndarray, params) -> np.ndarray:
    """H = H0 - eps_tilde*I at a 3-vector k or a (..., 3) stack."""
    return _h0(k, params) - _times(params.eps_tilde, I4)


def hamiltonian_matrix(k, params: GeneralizedParams) -> np.ndarray:
    """Hermitian 4x4 Hamiltonian at momentum k (scalar k means k along z)."""
    return _hamiltonian(_as_k3(k), params)


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
        k = np.array(self.k, dtype=float)
        s = np.array(self.spinor, dtype=np.complex128)
        k.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "spinor", s)


def _sigma_dot(v) -> np.ndarray:
    """sigma . v: 2x2 for a 3-vector, (..., 2, 2) for a (..., 3) stack."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    rows = [np.stack([z, x - 1j * y], axis=-1), np.stack([x + 1j * y, -z], axis=-1)]
    return np.stack(rows, axis=-2).astype(np.complex128)


_BRANCHES = (+1, +1, -1, -1)


def plane_wave_solve(k, params: GeneralizedParams) -> list[PlaneWaveSolution]:
    """Four orthonormal eigenpairs at momentum k, in deterministic order.

    The two upper-branch spinors take the canonical upper-pair basis for
    the large components, the lower branch the canonical lower pair, so
    degenerate subspaces come out the same on every run.  Order:
    [plus, plus, minus, minus].
    """
    k = _as_k3(k)
    energies, spinors = _plane_waves(k, params)
    return [
        PlaneWaveSolution(k, float(e), branch, s)
        for e, branch, s in zip(energies, _BRANCHES, spinors)
    ]


def _plane_waves(k: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """plane_wave_solve's energies (..., 4) and spinors (..., 4, 4), one
    row per solution, at a 3-vector k or a (..., 3) stack."""
    kk = k + params.p_tilde
    m0, eps = np.asarray(params.m0), np.asarray(params.eps_tilde)
    w = _w(_dot(kk, kk), params.m0)
    sk = _sigma_dot(kk)
    # Massless at zero kinetic momentum: fully degenerate, so the rows
    # take the canonical basis (and a unit denominator, unused).
    rest = w + m0 < 1e-300
    den = np.where(rest, 1.0, w + m0)[..., None]
    e2 = np.eye(2, dtype=np.complex128)
    units = [np.broadcast_to(e2[:, col], sk.shape[:-1]) for col in range(2)]
    sk_units = [sk @ e2[:, col] for col in range(2)]
    v = np.stack(
        [np.concatenate([unit, sku / den], axis=-1) for unit, sku in zip(units, sk_units)]
        + [np.concatenate([-sku / den, unit], axis=-1) for unit, sku in zip(units, sk_units)],
        axis=-2,
    )
    # np.linalg.norm's own sum for one vector, so stacked rows match it
    norm = np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))
    v = v / norm[..., None]
    v[rest] = I4
    energies = np.stack([w - eps, w - eps, -w - eps, -w - eps], axis=-1)
    energies[rest] = -np.broadcast_to(eps, rest.shape)[rest][:, None]
    return energies, v


def kg_rhs_matrix(k, params: GeneralizedParams) -> np.ndarray:
    """Momentum-space matrix of the second-order equation's right side.

    On a plane wave the second-order equation reads e^2 * psi = M psi with

        M = (k^2 + m0^2 + p^2 + eps^2 + 2 p.k) * I
            - 2*m0*eps*beta - 2*eps*alpha.k - 2*eps*alpha.p
    """
    return _kg_rhs(_as_k3(k), params)


def _kg_rhs(k: np.ndarray, params) -> np.ndarray:
    p = params.p_tilde
    eps = params.eps_tilde
    m0 = params.m0
    scalar = _dot(k, k) + _pow2(m0) + _dot(p, p) + _pow2(eps) + 2.0 * _dot(p, k)
    return (
        _times(scalar, I4)
        - _times(2.0 * m0 * eps, BETA)
        - _times(2.0 * eps, _alpha_dot(k))
        - _times(2.0 * eps, _alpha_dot(p))
    )


def dirac_square_equals_kg(k, params: GeneralizedParams) -> float:
    """Operator identity check: the squared Hamiltonian against the
    second-order matrix.  Zero up to roundoff for every (k, params)."""
    return float(_dirac_square_residuals(_as_k3(k), params))


def _dirac_square_residuals(k: np.ndarray, params) -> np.ndarray:
    h = _hamiltonian(k, params)
    return np.max(np.abs(h @ h - _kg_rhs(k, params)), axis=(-2, -1))


# Largest eigenstate defect max|H psi - e psi| a gauge map accepts.
_EIGEN_TOL = 1e-8


def _shift(k, energy, spinor, params, source, sign: int):
    """Plane waves moved by sign * (p_tilde, eps_tilde), spinors unchanged,
    after checking that each is an eigenstate of the Hamiltonian of
    `source` to within _EIGEN_TOL.  Rows: k (..., 3), energy (...),
    spinor (..., 4).  Returns the moved k and energy and each row's
    eigenstate defect."""
    h = _hamiltonian(k, source)
    eigen = (h @ spinor[..., None])[..., 0] - energy[..., None] * spinor
    defect = np.max(np.abs(eigen), axis=-1)
    if np.any(defect > _EIGEN_TOL):
        raise ValueError(
            f"input is not an eigenstate of its Hamiltonian (residual {np.max(defect):.3e})"
        )
    return k + sign * params.p_tilde, energy + sign * params.eps_tilde, defect


def _shifted(
    solution: PlaneWaveSolution, params: GeneralizedParams, sign: int
) -> PlaneWaveSolution:
    """_shift for one solution of the generalized Hamiltonian (sign = +1)
    or of the standard one (sign = -1)."""
    source = params if sign > 0 else GeneralizedParams.standard(params.m0)
    k, energy, _ = _shift(
        solution.k, np.asarray(solution.energy), solution.spinor, params, source, sign
    )
    return PlaneWaveSolution(k, float(energy), solution.branch, solution.spinor)


def gauge_map_to_standard(
    solution: PlaneWaveSolution, params: GeneralizedParams
) -> PlaneWaveSolution:
    """Shift a generalized solution to the standard-equation solution.

    The mapped state has momentum k + p_tilde, energy e + eps_tilde and
    the identical spinor; it satisfies the mass-only Hamiltonian exactly.
    Raises if the input does not solve its own eigenproblem.
    """
    return _shifted(solution, params, +1)


def gauge_map_from_standard(
    solution: PlaneWaveSolution, params: GeneralizedParams
) -> PlaneWaveSolution:
    """Inverse shift: take a standard-equation solution back to the
    generalized one at momentum k - p_tilde and energy e - eps_tilde.
    Raises if the input does not solve the standard eigenproblem."""
    return _shifted(solution, params, -1)

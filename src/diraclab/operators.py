"""Momentum-space Hamiltonians, plane-wave solutions and dispersion.

The first-order equation in Hamiltonian form uses the Hermitian velocity
matrices alpha_j = -i*gamma(0)gamma(j) (the Euclideanized spatial
generators carry a factor of i, so the bare product would be
anti-Hermitian) and beta = gamma(0):

    H(k) = alpha . (k + p_tilde) + m0*beta - eps_tilde*I

Its eigenvalues are +/- sqrt(m0^2 + |k + p_tilde|^2) - eps_tilde, each
doubly degenerate.  Applying the operator twice gives the second-order
form whose momentum-space matrix kg_rhs_matrix reproduces H(k)^2 as an
operator identity.  gauge_map takes a solution for one parameter set to
the solution for another of the same m0 by the kinematic shift
(k, e) -> (k + p_s - p_t, e + eps_s - eps_t) with the spinor unchanged.
One momentum and a stack take the same numpy arithmetic (a square is
x * x), so stacked rows equal one-momentum calls bit for bit; an overflow
gives inf or NaN quietly and _finite raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import GAMMA, I4, _as_k3, _count, _equal_fields, _finite, _real
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
    "gauge_map",
]

BETA = GAMMA[0]
ALPHA = tuple(-1j * (GAMMA[0] @ g) for g in GAMMA[1:])
for _m in ALPHA:
    _m.flags.writeable = False


def _dot(a, b):
    """a . b on the trailing axis of two 3- or 4-vectors or of stacks of them.

    matmul, not a sum over the axis: for one pair of vectors this is
    exactly a @ b, so each row of a stack matches its one-vector call.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _k2(k, shift):
    """|k + shift|^2 on the trailing axis of a momentum or a (..., 3) stack."""
    k = _as_k3("k", k, stack=True)
    # an overflow gives inf quietly, and _finite rejects it downstream
    with np.errstate(over="ignore", invalid="ignore"):
        kk = k + shift
        return _dot(kk, kk)


def _w(k2, m0, c: float = 1.0):
    """Branch energy without shifts, sqrt(m0^2 c^4 + c^2 K^2), for K^2 = k2."""
    # an overflow gives inf quietly, and _finite rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = c * c
        rest = m0 * c2
        return _finite(np.sqrt(rest * rest + c2 * k2))


def _finite_call(core, *args):
    """core(*args), an overflow giving inf or NaN quietly, checked by _finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(core(*args))


def _branch(branch: int) -> int:
    """branch, once it is the integer +1 or -1."""
    if _count("branch", branch, -1) not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    return branch


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
    return _finite_call(_hamiltonian, _as_k3("k", k), params)


def _c_light(c_light) -> float:
    """c_light as a float, once it is a positive real number; the message
    shows the value passed."""
    c = _real("c_light", c_light)
    if c <= 0.0:
        raise ValueError(f"c_light must be positive, got {c_light!r}")
    return c


def dispersion(k, params: GeneralizedParams, branch: int = +1, *,
               c_light: float = 1.0) -> float | np.ndarray:
    """Plane-wave energy on the given branch,
    +/- sqrt(m0^2 c^4 + c^2 |k + p_tilde|^2) - eps_tilde, with the speed of
    light c = c_light > 0 (1 in natural units); a float for one momentum
    k, an array for a (..., 3) stack of momenta."""
    branch, c = _branch(branch), _c_light(c_light)
    w = _w(_k2(k, params.p_tilde), params.m0, c)
    return _value(branch * w - params.eps_tilde)


@dataclass(frozen=True, eq=False)
class PlaneWaveSolution:
    """One normalized momentum eigenstate of the Hamiltonian: a finite
    momentum (a scalar lies along z), energy and 4-spinor, and the branch
    +1 or -1."""

    k: np.ndarray
    energy: float
    branch: int
    spinor: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        k = _as_k3("k", self.k).copy()
        s = np.array(self.spinor, dtype=np.complex128)
        if s.shape != (4,) or not np.isfinite(s).all():
            raise ValueError(f"spinor must be a finite (4,) array, got {self.spinor!r}")
        k.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "energy", _real("energy", self.energy))
        object.__setattr__(self, "branch", _branch(self.branch))
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
    k = _as_k3("k", k)
    energies, spinors = _plane_waves(k, params)
    return [
        PlaneWaveSolution(k, float(e), branch, s)
        for e, branch, s in zip(energies, _BRANCHES, spinors)
    ]


def _plane_waves(k: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """plane_wave_solve's energies (..., 4) and spinors (..., 4, 4), one
    row per solution, at a 3-vector k or a (..., 3) stack."""
    w = _w(_k2(k, params.p_tilde), params.m0)
    kk = k + params.p_tilde  # finite, as |kk|^2 is
    m0, eps = np.asarray(params.m0), np.asarray(params.eps_tilde)
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
    M = H^2 = (H0 - eps_tilde)^2, H0 = alpha.(k + p_tilde) + m0*beta:

        M = (|k + p_tilde|^2 + m0^2 + eps_tilde^2) * I - 2*eps_tilde*H0
    """
    return _finite_call(_kg_rhs, _as_k3("k", k), params)


def _kg_rhs(k: np.ndarray, params) -> np.ndarray:
    kk, m0, eps = k + params.p_tilde, params.m0, params.eps_tilde
    scalar = _dot(kk, kk) + m0 * m0 + eps * eps
    return _times(scalar, I4) - _times(2.0 * eps, _h0(k, params))


def dirac_square_equals_kg(k, params: GeneralizedParams) -> float:
    """Operator identity check: the squared Hamiltonian against the
    second-order matrix.  Zero up to roundoff for every (k, params)."""
    return float(_finite_call(_dirac_square_residuals, _as_k3("k", k), params))


def _dirac_square_residuals(k: np.ndarray, params) -> np.ndarray:
    h = _hamiltonian(k, params)
    return np.max(np.abs(h @ h - _kg_rhs(k, params)), axis=(-2, -1))


# Largest eigenstate defect max|H psi - e psi| a gauge map accepts.
_EIGEN_TOL = 1e-8


def _shift(k, energy, spinor, source, target):
    """Plane waves of `source` moved to `target`: k + (p_s - p_t) and
    energy + (eps_s - eps_t), spinors unchanged, after checking that each
    is an eigenstate of the Hamiltonian of `source` to within _EIGEN_TOL.
    Rows: k (..., 3), energy (...), spinor (..., 4).  Returns the moved k
    and energy and each row's eigenstate defect."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = _finite(_hamiltonian(k, source))
        eigen = (h @ spinor[..., None])[..., 0] - energy[..., None] * spinor
        defect = np.max(np.abs(eigen), axis=-1)
        k = _finite(k + (source.p_tilde - target.p_tilde))
        energy = _finite(energy + (source.eps_tilde - target.eps_tilde))
    if not np.all(defect <= _EIGEN_TOL):
        raise ValueError(
            f"input is not an eigenstate of its Hamiltonian (residual {np.max(defect):.3e})"
        )
    return k, energy, defect


def gauge_map(
    solution: PlaneWaveSolution, source: GeneralizedParams, target: GeneralizedParams
) -> PlaneWaveSolution:
    """Take a solution for `source` to the solution for `target`, a
    parameter set of the same m0: momentum k + (p_s - p_t), energy
    e + (eps_s - eps_t), the identical spinor and branch.  With target
    GeneralizedParams(m0) it is the standard equation's solution, which
    solves the mass-only Hamiltonian exactly.  Raises if the masses differ
    or if the input does not solve the eigenproblem of `source`.
    """
    if source.m0 != target.m0:
        raise ValueError(f"m0 of source and target must be equal, got {source.m0} and {target.m0}")
    k, energy, _ = _shift(solution.k, np.asarray(solution.energy), solution.spinor, source, target)
    return PlaneWaveSolution(k, float(energy), solution.branch, solution.spinor)

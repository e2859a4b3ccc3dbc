"""Exact 4x4 gamma-matrix algebra in the Euclideanized Dirac representation.

The spatial generators carry an explicit factor of i relative to the
textbook Dirac matrices, so all four generators square to +I and the
anticommutation table reads {gamma(mu), gamma(nu)} = 2*delta(mu,nu)*I
with a plain Kronecker delta instead of the Minkowski metric.

Every derived matrix (the antisymmetric pair products, the chiral element
and its vector products) is computed from products of the four generators,
so this module is the single source of the sign conventions used by the
rest of the package.  In this representation the chiral element is
anti-Hermitian while the other fifteen basis elements are Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "I4",
    "PAULI",
    "GAMMA",
    "GAMMA5",
    "SIGMA_PAIRS",
    "pauli",
    "gamma",
    "sigma_pair",
    "gamma5_gamma",
    "anticommutator",
    "commutator",
    "vector_contract",
    "max_abs",
    "BasisCoefficients",
    "basis_matrices",
    "basis_labels",
    "basis_decompose",
    "random_matrix",
]


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    m.flags.writeable = False
    return m


_I2 = np.eye(2, dtype=np.complex128)
_Z2 = np.zeros((2, 2), dtype=np.complex128)

PAULI = (
    _frozen(np.array([[0, 1], [1, 0]])),
    _frozen(np.array([[0, -1j], [1j, 0]])),
    _frozen(np.array([[1, 0], [0, -1]])),
)

I4 = _frozen(np.eye(4))

GAMMA = (
    _frozen(np.block([[_I2, _Z2], [_Z2, -_I2]])),
    _frozen(np.block([[_Z2, 1j * PAULI[0]], [-1j * PAULI[0], _Z2]])),
    _frozen(np.block([[_Z2, 1j * PAULI[1]], [-1j * PAULI[1], _Z2]])),
    _frozen(np.block([[_Z2, 1j * PAULI[2]], [-1j * PAULI[2], _Z2]])),
)

GAMMA5 = _frozen(1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])

# Index pairs (mu < nu) for the six antisymmetric products, in fixed order.
SIGMA_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def pauli(j: int) -> np.ndarray:
    """Pauli matrix for spatial axis j in 1..3."""
    if j not in (1, 2, 3):
        raise ValueError(f"Pauli axis must be 1, 2 or 3, got {j}")
    return PAULI[j - 1]


def gamma(mu: int) -> np.ndarray:
    """Contravariant generator gamma^mu for mu in 0..3."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"spacetime index must be in 0..3, got {mu}")
    return GAMMA[mu]


def sigma_pair(mu: int, nu: int) -> np.ndarray:
    """Antisymmetric pair product (i/2)[gamma(mu), gamma(nu)]."""
    return 0.5j * (gamma(mu) @ gamma(nu) - gamma(nu) @ gamma(mu))


def gamma5_gamma(mu: int) -> np.ndarray:
    """Product of the chiral element with gamma(mu)."""
    return GAMMA5 @ gamma(mu)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def vector_contract(coeffs, mats=GAMMA) -> np.ndarray:
    """Signed vector contraction v0*M0 - v1*M1 - v2*M2 - v3*M3.

    This is the sign pattern used for every vector-indexed coefficient
    tuple in the package (the constant matrix of the first-order equation
    and the phase-function gradient alike).  A (..., 4) stack of tuples
    gives a (..., 4, 4) stack of matrices.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape[-1:] != (4,):
        raise ValueError(f"expected 4 coefficients, got shape {c.shape}")
    c0, c1, c2, c3 = np.moveaxis(c, -1, 0)[..., None, None]
    return c0 * mats[0] - c1 * mats[1] - c2 * mats[2] - c3 * mats[3]


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; the max-norm used for all residuals."""
    return float(np.max(np.abs(m)))


def _build_basis():
    """Column matrices multiplying each stored coefficient, in order.

    Order: a; b01..b23; c0..c3; d0..d3; e5.  The c and d columns carry the
    signed vector contraction, so decomposition coefficients come out in
    the same convention used to build constant matrices.
    """
    mats = [I4]
    labels = ["a"]
    for (m, n) in SIGMA_PAIRS:
        mats.append(sigma_pair(m, n))
        labels.append(f"b{m}{n}")
    signs = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        mats.append(signs[mu] * gamma(mu))
        labels.append(f"c{mu}")
    for mu in range(4):
        mats.append(signs[mu] * gamma5_gamma(mu))
        labels.append(f"d{mu}")
    mats.append(GAMMA5)
    labels.append("e5")
    return [_frozen(m) for m in mats], tuple(labels)


_BASIS_MATS, _BASIS_LABELS = _build_basis()
_BASIS_TABLE = np.stack([m.ravel() for m in _BASIS_MATS], axis=1)
_BASIS_CONDITION = float(np.linalg.cond(_BASIS_TABLE))
if _BASIS_CONDITION > 1e6:
    # The sixteen elements are trace-orthogonal; a large condition number
    # can only mean the table itself was corrupted.
    raise RuntimeError(
        f"matrix basis table is ill-conditioned (cond={_BASIS_CONDITION:.3e})"
    )


def basis_matrices() -> list[np.ndarray]:
    """The sixteen coefficient column matrices, in storage order."""
    return list(_BASIS_MATS)


def basis_labels() -> tuple[str, ...]:
    return _BASIS_LABELS


@dataclass(frozen=True)
class BasisCoefficients:
    """Coefficients of a 4x4 matrix over the sixteen-element basis.

    Reconstruction is a*I + sum_p b[p]*sigma_pair(p) + vector_contract(c)
    + vector_contract(d, chiral-vector products) + e5*chiral element.
    """

    a: complex
    b: np.ndarray  # (6,) coefficients of the pair products, SIGMA_PAIRS order
    c: np.ndarray  # (4,) vector coefficients, signed contraction
    d: np.ndarray  # (4,) chiral-vector coefficients, signed contraction
    e5: complex

    def as_vector(self) -> np.ndarray:
        return np.concatenate(
            [[self.a], self.b, self.c, self.d, [self.e5]]
        ).astype(np.complex128)

    @classmethod
    def from_vector(cls, v) -> "BasisCoefficients":
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (16,):
            raise ValueError(f"expected 16 coefficients, got shape {v.shape}")
        return cls(
            a=complex(v[0]),
            b=v[1:7].copy(),
            c=v[7:11].copy(),
            d=v[11:15].copy(),
            e5=complex(v[15]),
        )

    def reconstruct(self) -> np.ndarray:
        return _compose(self.as_vector())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Hermiticity read off the coefficients.

        The fifteen non-chiral columns are Hermitian matrices, so their
        coefficients must be real; the chiral column is anti-Hermitian,
        so its coefficient must be purely imaginary.
        """
        worst = max(
            abs(self.a.imag),
            float(np.max(np.abs(self.b.imag))) if self.b.size else 0.0,
            float(np.max(np.abs(self.c.imag))),
            float(np.max(np.abs(self.d.imag))),
            abs(self.e5.real),
        )
        return worst <= tol


def basis_decompose(m: np.ndarray) -> BasisCoefficients:
    """Unique coefficients of an arbitrary complex 4x4 matrix.

    Solves the 16x16 linear system against the precomputed basis table;
    round-trip reconstruction is exact to roundoff.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return BasisCoefficients.from_vector(_decompose(m))


def _decompose(m: np.ndarray) -> np.ndarray:
    """Coefficient vectors (..., 16) of a (..., 4, 4) stack of matrices."""
    flat = m.reshape(m.shape[:-2] + (16,))
    # One single-column 16x16 solve per matrix; one multi-column solve for
    # the whole stack rounds differently.
    table = np.broadcast_to(_BASIS_TABLE, flat.shape[:-1] + (16, 16))
    return np.linalg.solve(table, flat[..., None])[..., 0]


def _compose(coeffs: np.ndarray) -> np.ndarray:
    """Matrices (..., 4, 4) from a (..., 16) stack of coefficient vectors."""
    flat = (_BASIS_TABLE @ coeffs[..., None])[..., 0]
    return flat.reshape(coeffs.shape[:-1] + (4, 4))


def random_matrix(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Dense complex 4x4 sample with entries uniform in a centered box."""
    re = rng.uniform(-scale, scale, (4, 4))
    im = rng.uniform(-scale, scale, (4, 4))
    return re + 1j * im

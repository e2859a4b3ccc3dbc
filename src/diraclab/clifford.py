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
The basis table T (entries 0, +-1, +-i) has T^H T = 4 I exactly, checked at
import, so decomposition is the closed form (T^H vec m) / 4 for one matrix
or a stack.  This bottom module also holds the input rules _count, _real,
_as_float and _as_k3, and the overflow check _finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


def _count(name: str, value, least: int):
    """value, once it is an integer (a numpy integer too, not a bool) of at
    least `least`: the one rule for counts, sizes, seeds and indices."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _as_float(name: str, value) -> np.ndarray:
    """value as a float array of finite entries.  A bool, a value numpy
    cannot convert and a NaN or infinite entry raise ValueError naming the
    field and showing the value passed (None converts to NaN; an int too
    large for a float is one numpy cannot convert)."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, not a bool, got {value!r}")
    try:
        x = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a real number, got {value!r} ({exc})") from None
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _real(name: str, value) -> float:
    """value as a Python float: the one rule for real scalar parameters,
    _as_float's rule on one number."""
    x = _as_float(name, value)
    if x.ndim:
        raise ValueError(f"{name} must be one real number, not an array of scalars, got {value!r}")
    return float(x)


def _as_k3(name: str, k, stack: bool = False) -> np.ndarray:
    """The momentum-like field `name` as a float array: a scalar is a vector
    along z, otherwise a 3-vector or, with stack=True, a (..., 3) stack of
    3-vectors.  A NaN or infinite entry and a wrong shape are rejected by
    name before any arithmetic."""
    k = _as_float(name, k)
    if k.ndim == 0:
        return np.array([0.0, 0.0, float(k)])
    if k.shape[-1:] != (3,) or (k.ndim > 1 and not stack):
        shape = "(..., 3)" if stack else "(3,)"
        raise ValueError(f"{name} must be a scalar or of shape {shape}, got shape {k.shape}")
    return k


def _finite(x, what: str = "energy"):
    """x itself; ValueError if any entry of `what` overflowed to a non-finite value."""
    if not np.isfinite(x).all():
        raise ValueError(f"{what} is not finite: the inputs overflow double precision")
    return x


def _equal_fields(self, other):
    """Value equality for a dataclass with array fields: the same class and
    np.array_equal on each field.  The generated __eq__ compares the fields
    as one tuple, and an array cannot answer that comparison.  A class
    using it passes eq=False and sets __hash__ = None: it is not hashable,
    and with eq=True a frozen dataclass would replace that None by a hash
    of the field tuple, which fails on the arrays."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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


def _index(name: str, value, first: int, last: int) -> int:
    """value, once it is an integer (the count rule) in first..last."""
    if _count(name, value, first) > last:
        raise ValueError(f"{name} must be in {first}..{last}, got {value!r}")
    return value


def pauli(j: int) -> np.ndarray:
    """Pauli matrix for spatial axis j in 1..3."""
    return PAULI[_index("j", j, 1, 3) - 1]


def gamma(mu: int) -> np.ndarray:
    """Contravariant generator gamma^mu for mu in 0..3."""
    return GAMMA[_index("mu", mu, 0, 3)]


def sigma_pair(mu: int, nu: int) -> np.ndarray:
    """Antisymmetric pair product (i/2)[gamma(mu), gamma(nu)]."""
    g_mu, g_nu = GAMMA[_index("mu", mu, 0, 3)], GAMMA[_index("nu", nu, 0, 3)]
    return 0.5j * (g_mu @ g_nu - g_nu @ g_mu)


def gamma5_gamma(mu: int) -> np.ndarray:
    """Product of the chiral element with gamma(mu)."""
    return GAMMA5 @ gamma(mu)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def vector_contract(coeffs) -> np.ndarray:
    """Signed vector contraction v0*G0 - v1*G1 - v2*G2 - v3*G3 over the generators.

    This is the sign pattern used for every vector-indexed coefficient
    tuple in the package (the constant matrix of the first-order equation
    and the phase-function gradient alike).  A (..., 4) stack of tuples
    gives a (..., 4, 4) stack of matrices.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape[-1:] != (4,):
        raise ValueError(f"expected 4 coefficients, got shape {c.shape}")
    c0, c1, c2, c3 = np.moveaxis(c, -1, 0)[..., None, None]
    return c0 * GAMMA[0] - c1 * GAMMA[1] - c2 * GAMMA[2] - c3 * GAMMA[3]


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
_BASIS_ADJOINT = _BASIS_TABLE.conj().T
_BASIS_ADJOINT.flags.writeable = False
if not np.array_equal(_BASIS_ADJOINT @ _BASIS_TABLE, 4.0 * np.eye(16)):
    # Exact for entries 0, +-1 and +-i; anything else means the table
    # itself was corrupted, and the closed-form decomposition would be wrong.
    raise RuntimeError("matrix basis table is not trace-orthogonal: T^H T != 4 I")


def basis_matrices() -> list[np.ndarray]:
    """The sixteen coefficient column matrices, in storage order."""
    return list(_BASIS_MATS)


def basis_labels() -> tuple[str, ...]:
    return _BASIS_LABELS


@dataclass(frozen=True, eq=False)
class BasisCoefficients:
    """Coefficients of a 4x4 matrix over the sixteen-element basis.

    Reconstruction is a*I + sum_p b[p]*sigma_pair(p) + vector_contract(c)
    + the same signed contraction of d over the chiral-vector products
    + e5*chiral element.
    """

    a: complex
    b: np.ndarray  # (6,) coefficients of the pair products, SIGMA_PAIRS order
    c: np.ndarray  # (4,) vector coefficients, signed contraction
    d: np.ndarray  # (4,) chiral-vector coefficients, signed contraction
    e5: complex

    __eq__ = _equal_fields
    __hash__ = None

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

    def is_hermitian(self) -> bool:
        """Hermiticity read off the coefficients, to 1e-12.

        The fifteen non-chiral columns are Hermitian matrices, so their
        coefficients must be real; the chiral column is anti-Hermitian,
        so its coefficient must be purely imaginary.  A non-finite
        coefficient reads False.
        """
        v = self.as_vector()
        worst = np.max(np.abs(np.append(v[:-1].imag, v[-1].real)))
        return bool(worst <= 1e-12 and np.isfinite(v).all())


def basis_decompose(m: np.ndarray) -> BasisCoefficients:
    """Unique coefficients of an arbitrary complex 4x4 matrix.

    The closed form (T^H vec m) / 4 over the trace-orthogonal basis table;
    round-trip reconstruction is exact to roundoff.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return BasisCoefficients.from_vector(_decompose(m))


def _decompose(m: np.ndarray) -> np.ndarray:
    """Coefficient vectors (..., 16) of a (..., 4, 4) stack of matrices."""
    flat = m.reshape(m.shape[:-2] + (16,))
    return (_BASIS_ADJOINT @ flat[..., None])[..., 0] / 4.0


def _compose(coeffs: np.ndarray) -> np.ndarray:
    """Matrices (..., 4, 4) from a (..., 16) stack of coefficient vectors."""
    flat = (_BASIS_TABLE @ coeffs[..., None])[..., 0]
    return flat.reshape(coeffs.shape[:-1] + (4, 4))


def random_matrix(rng: np.random.Generator) -> np.ndarray:
    """Dense complex 4x4 sample with real and imaginary parts uniform in [-1, 1)."""
    re = rng.uniform(-1.0, 1.0, (4, 4))
    im = rng.uniform(-1.0, 1.0, (4, 4))
    return re + 1j * im

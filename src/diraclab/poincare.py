"""Spinor and index representations of rotations and boosts.

PoincareTransform.make(kind, axis, parameter) is the one builder: it checks
its arguments and pairs the two representations, each written once.

Rotations about axis a act in the plane of the other two axes through the
half-angle single-product form cos(t/2)*I - gamma(k)gamma(l)*sin(t/2) with
(a, k, l) a cyclic permutation of (3, 1, 2).  Boost spinor matrices are
built from the covariant generator pair, cosh(e/2)*I + i*gl(a)gl(0)*sinh(e/2)
with gl(0) = gamma(0) and gl(a) = -gamma(a), which is what makes the index
transformation below (cosh/sinh rows carrying explicit factors of i)
conjugate correctly.  The spinor inverse is the same formula at the negated
parameter.

The index ("vector") representation acts on a 4-tuple of matrices B^mu and
is complex for boosts: the time row mixes as (cosh, -i sinh) and the boosted
spatial row as (+i sinh, cosh).  covariance_residual measures how far a
matrix 4-tuple is from transforming covariantly under a given transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import GAMMA, I4, max_abs

__all__ = [
    "ROTATION_PLANES",
    "PoincareTransform",
    "covariance_residual",
]

# axis -> (k, l): rotation about the axis mixes the (k, l) plane.
ROTATION_PLANES = {1: (2, 3), 2: (3, 1), 3: (1, 2)}

# Generator products, per axis: gamma(k)gamma(l) for the rotation plane and
# i*gl(a)gl(0) for the boost.
_ROTATION_GEN = {a: GAMMA[k] @ GAMMA[l] for a, (k, l) in ROTATION_PLANES.items()}
_BOOST_GEN = {a: 1j * (-GAMMA[a] @ GAMMA[0]) for a in ROTATION_PLANES}


def _checked(kind: str, axis: int, parameter: float) -> float:
    """The parameter as a float, once kind, axis and finiteness are checked."""
    if kind not in ("rotation", "boost"):
        raise ValueError(f"kind must be 'rotation' or 'boost', got {kind!r}")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    par = float(parameter)
    if not math.isfinite(par):
        raise ValueError(f"{kind} parameter must be finite, got {parameter}")
    return par


def _spinor(kind: str, axis: int, par: float) -> np.ndarray:
    """Half-angle spinor matrix of a checked rotation or boost."""
    if kind == "rotation":
        return np.cos(par / 2) * I4 - _ROTATION_GEN[axis] * np.sin(par / 2)
    return np.cosh(par / 2) * I4 + _BOOST_GEN[axis] * np.sinh(par / 2)


def _vector(kind: str, axis: int, par: float) -> np.ndarray:
    """Index matrix: a real SO(2) block on the rotation plane, or the
    complex block mixing the time row with the boosted row."""
    L = np.eye(4, dtype=np.complex128)
    if kind == "rotation":
        k, l = ROTATION_PLANES[axis]
        L[k, k] = np.cos(par)
        L[k, l] = np.sin(par)
        L[l, k] = -np.sin(par)
        L[l, l] = np.cos(par)
    else:
        L[0, 0] = np.cosh(par)
        L[0, axis] = -1j * np.sinh(par)
        L[axis, 0] = 1j * np.sinh(par)
        L[axis, axis] = np.cosh(par)
    return L


@dataclass(frozen=True)
class PoincareTransform:
    """Paired spinor and index representations of one rotation or boost."""

    kind: str
    axis: int
    parameter: float
    spinor_rep: np.ndarray
    vector_rep: np.ndarray

    @classmethod
    def make(cls, kind: str, axis: int, parameter: float) -> "PoincareTransform":
        """The transform of the given kind about (rotation) or along (boost)
        axis 1, 2 or 3; the angle or rapidity must be finite."""
        par = _checked(kind, axis, parameter)
        return cls(kind, axis, par, _spinor(kind, axis, par), _vector(kind, axis, par))

    @classmethod
    def rotation(cls, axis: int, theta: float) -> "PoincareTransform":
        return cls.make("rotation", axis, theta)

    @classmethod
    def boost(cls, axis: int, eta: float) -> "PoincareTransform":
        return cls.make("boost", axis, eta)

    @classmethod
    def identity(cls) -> "PoincareTransform":
        return cls.make("rotation", 3, 0.0)

    def spinor_inverse(self) -> np.ndarray:
        """Exact inverse: the same formula at the negated parameter."""
        return _spinor(self.kind, self.axis, -self.parameter)


def covariance_residual(bset, transform: PoincareTransform) -> float:
    """Max-norm mismatch between the index and spinor actions on a 4-tuple.

    Zero (to tolerance) exactly when the four matrices transform
    covariantly: contracting the index representation over the tuple
    reproduces conjugation by the spinor representation.  A NaN entry in
    the tuple gives a NaN residual, which fails every tolerance gate.
    """
    bset = [np.asarray(b, dtype=np.complex128) for b in bset]
    if len(bset) != 4:
        raise ValueError(f"expected a 4-tuple of matrices, got {len(bset)}")
    S = transform.spinor_rep
    Sinv = transform.spinor_inverse()
    if max_abs(S @ Sinv - I4) > 1e-8:
        # Unreachable for finite parameters; kept as a guard against
        # a corrupted transform object.
        raise RuntimeError("spinor representation is not invertible")
    L = transform.vector_rep
    defects = [
        L[beta, 0] * bset[0]
        + L[beta, 1] * bset[1]
        + L[beta, 2] * bset[2]
        + L[beta, 3] * bset[3]
        - S @ bset[beta] @ Sinv
        for beta in range(4)
    ]
    return max_abs(np.array(defects))

"""Spinor and index representations of rotations and boosts.

PoincareTransform.make(kind, axis, parameter) is the one builder: it checks
its arguments and pairs the two representations, each written once.  The
private formulas (_spinor, _vector, _covariance_residuals) also take (T,)
stacks of transforms, row for row bit-identical to one transform.

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

from .clifford import GAMMA, I4

__all__ = [
    "ROTATION_PLANES",
    "PoincareTransform",
    "covariance_residual",
]

# axis -> (k, l): rotation about the axis mixes the (k, l) plane.
ROTATION_PLANES = {1: (2, 3), 2: (3, 1), 3: (1, 2)}

# Generator products for axes 1, 2, 3: gamma(k)gamma(l) for the rotation
# plane and i*gl(a)gl(0) for the boost; and the planes as an array.
_ROTATION_GEN = np.stack([GAMMA[k] @ GAMMA[l] for k, l in ROTATION_PLANES.values()])
_BOOST_GEN = np.stack([1j * (-GAMMA[a] @ GAMMA[0]) for a in ROTATION_PLANES])
_PLANES = np.array(list(ROTATION_PLANES.values()))


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


def _split(kind, axis, par):
    """One checked transform (shape ()) or a stack of them as rows: the
    shape, the rotation rows, the boost rows, and the axes and parameters
    of all rows."""
    kind, axis, par = np.broadcast_arrays(kind, axis, np.asarray(par, dtype=float))
    rot = kind.ravel() == "rotation"
    return kind.shape, np.flatnonzero(rot), np.flatnonzero(~rot), axis.ravel(), par.ravel()


def _spinor(kind, axis, par) -> np.ndarray:
    """Half-angle spinor matrix of a checked rotation or boost: 4x4 for one
    transform, (T, 4, 4) for (T,) arrays of kinds, axes and parameters."""
    shape, r, b, axis, par = _split(kind, axis, par)
    out = np.empty((len(par), 4, 4), dtype=np.complex128)
    half = par[r, None, None] / 2
    out[r] = np.cos(half) * I4 - _ROTATION_GEN[axis[r] - 1] * np.sin(half)
    half = par[b, None, None] / 2
    out[b] = np.cosh(half) * I4 + _BOOST_GEN[axis[b] - 1] * np.sinh(half)
    return out.reshape(shape + (4, 4))


def _vector(kind, axis, par) -> np.ndarray:
    """Index matrix: a real SO(2) block on the rotation plane, or the
    complex block mixing the time row with the boosted row; stacks as
    _spinor does."""
    shape, r, b, axis, par = _split(kind, axis, par)
    out = np.zeros((len(par), 4, 4), dtype=np.complex128)
    out[:, range(4), range(4)] = 1.0
    (k, l), th = _PLANES[axis[r] - 1].T, par[r]
    out[r, k, k] = np.cos(th)
    out[r, k, l] = np.sin(th)
    out[r, l, k] = -np.sin(th)
    out[r, l, l] = np.cos(th)
    a, eta = axis[b], par[b]
    out[b, 0, 0] = np.cosh(eta)
    out[b, 0, a] = -1j * np.sinh(eta)
    out[b, a, 0] = 1j * np.sinh(eta)
    out[b, a, a] = np.cosh(eta)
    return out.reshape(shape + (4, 4))


def _reps(kind, axis, par) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spinor matrices, their inverses and index matrices of checked
    transforms, each stacked as _spinor stacks."""
    par = np.asarray(par, dtype=float)
    return _spinor(kind, axis, par), _spinor(kind, axis, -par), _vector(kind, axis, par)


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
    bset = np.asarray(bset, dtype=np.complex128)
    if len(bset) != 4:
        raise ValueError(f"expected a 4-tuple of matrices, got {len(bset)}")
    S = transform.spinor_rep
    return float(_covariance_residuals(bset, S, transform.spinor_inverse(), transform.vector_rep))


def _covariance_residuals(bset, S, Sinv, L) -> np.ndarray:
    """covariance_residual for (T, 4, 4) stacks of spinor matrices, their
    inverses and index matrices: one residual per transform.  bset is a
    (4, 4, 4) tuple shared by every transform or a stack broadcasting
    against them."""
    return np.max(np.abs(_covariance_defects(bset, S, Sinv, L)), axis=(-3, -2, -1))


def _covariance_defects(bset, S, Sinv, L) -> np.ndarray:
    """The (..., 4, 4, 4) defects sum_mu L[beta, mu] B^mu - S B^beta S^-1."""
    if np.any(np.max(np.abs(S @ Sinv - I4), axis=(-2, -1)) > 1e-8):
        # Unreachable for finite parameters; kept as a guard against
        # a corrupted transform object.
        raise RuntimeError("spinor representation is not invertible")
    B = np.moveaxis(bset, -3, 0)  # B[mu] is the (..., 4, 4) stack of B^mu
    defects = [
        L[..., beta, 0, None, None] * B[0]
        + L[..., beta, 1, None, None] * B[1]
        + L[..., beta, 2, None, None] * B[2]
        + L[..., beta, 3, None, None] * B[3]
        - S @ B[beta] @ Sinv
        for beta in range(4)
    ]
    return np.stack(defects, axis=-3)

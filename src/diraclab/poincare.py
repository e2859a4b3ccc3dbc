"""Spinor and index representations of rotations and boosts.

A PoincareTransform is its kind, axis and parameter, checked when it is
built; its two representations are computed from these three, each formula
written once.  The tables _ROTATION_GEN and _BOOST_GEN below are the
package's one definition of the six Lorentz generators.  The private
formulas (_spinor, _vector, _covariance_residuals) also take (T,) stacks of
transforms, row for row bit-identical to one transform.

Rotations about axis a act in the plane of the other two axes through the
half-angle single-product form cos(t/2)*I - gamma(k)gamma(l)*sin(t/2) with
(a, k, l) a cyclic permutation of (3, 1, 2).  Boost spinor matrices are
built from the covariant generator pair, cosh(e/2)*I + i*gl(a)gl(0)*sinh(e/2)
with gl(0) = gamma(0) and gl(a) = -gamma(a), which is what makes the index
transformation below (cosh/sinh rows carrying explicit factors of i)
conjugate correctly.  The spinor inverse is the same formula at the negated
parameter.  A rapidity beyond _MAX_RAPIDITY, where cosh overflows double
precision, is rejected.

The index ("vector") representation acts on a 4-tuple of matrices B^mu and
is complex for boosts: the time row mixes as (cosh, -i sinh) and the boosted
spatial row as (+i sinh, cosh).  covariance_residual measures how far a
matrix 4-tuple is from transforming covariantly under a given transform.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clifford import GAMMA, I4, _index, _real

__all__ = [
    "PoincareTransform",
    "covariance_residual",
]

# Row a - 1 is the plane (k, l) that a rotation about axis a mixes.
_PLANES = np.array([(2, 3), (3, 1), (1, 2)])

# Generator products for axes 1, 2, 3: gamma(k)gamma(l) for the rotation
# plane and i*gl(a)gl(0) for the boost.
_ROTATION_GEN = np.stack([GAMMA[k] @ GAMMA[l] for k, l in _PLANES])
_BOOST_GEN = np.stack([1j * (-GAMMA[a] @ GAMMA[0]) for a in (1, 2, 3)])

# The largest rapidity whose cosh is finite in double precision.
_MAX_RAPIDITY = math.acosh(sys.float_info.max)


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
    """A rotation about, or a boost along, axis 1, 2 or 3 by a finite angle
    or rapidity (|rapidity| <= _MAX_RAPIDITY).  Transforms compare and hash
    by these three fields; each representation is computed on access."""

    kind: str
    axis: int
    parameter: float

    def __post_init__(self):
        if self.kind not in ("rotation", "boost"):
            raise ValueError(f"kind must be 'rotation' or 'boost', got {self.kind!r}")
        _index("axis", self.axis, 1, 3)
        par = _real(f"{self.kind} parameter", self.parameter)
        if self.kind == "boost" and abs(par) > _MAX_RAPIDITY:
            raise ValueError(
                f"boost parameter {par} overflows double precision: "
                f"cosh is finite only for |rapidity| <= {_MAX_RAPIDITY}"
            )
        object.__setattr__(self, "parameter", par)

    @classmethod
    def rotation(cls, axis: int, theta: float) -> "PoincareTransform":
        return cls("rotation", axis, theta)

    @classmethod
    def boost(cls, axis: int, eta: float) -> "PoincareTransform":
        return cls("boost", axis, eta)

    @classmethod
    def identity(cls) -> "PoincareTransform":
        return cls("rotation", 3, 0.0)

    @property
    def spinor_rep(self) -> np.ndarray:
        return _spinor(self.kind, self.axis, self.parameter)

    @property
    def vector_rep(self) -> np.ndarray:
        return _vector(self.kind, self.axis, self.parameter)

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
    reps = _reps(transform.kind, transform.axis, transform.parameter)
    return float(_covariance_residuals(bset, *reps))


def _covariance_residuals(bset, S, Sinv, L) -> np.ndarray:
    """covariance_residual for (T, 4, 4) stacks of spinor matrices, their
    inverses and index matrices: one residual per transform.  bset is a
    (4, 4, 4) tuple shared by every transform or a stack broadcasting
    against them."""
    return np.max(np.abs(_covariance_defects(bset, S, Sinv, L)), axis=(-3, -2, -1))


def _covariance_defects(bset, S, Sinv, L) -> np.ndarray:
    """The (..., 4, 4, 4) defects sum_mu L[beta, mu] B^mu - S B^beta S^-1."""
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

"""Non-relativistic limits of the generalized first-order equation.

Two limit forms are implemented for constant shifts and a constant scalar
potential: the two-component kinetic-energy form (pauli_energy) and the
linked first-order pair (levy_leblond_solve), which agree identically at
zero potential.  nonrel_error quantifies how fast the relativistic branch
approaches the limit; the absolute gap is evaluated in a conjugate form
that avoids catastrophic cancellation at small momenta, where the true
gap scales as |k + shift|^4 / (8 m0^3 c^2).

The speed of light is an explicit parameter here; natural-unit callers
pass 1.

The energy functions take the momentum k as a scalar (momentum along z)
or a 3-vector, and return a float; or as a (..., 3) stack of momenta, and
return an array of shape (...).  levy_leblond_solve takes one momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import _as_k3, _k2, _sigma_dot, _value, _w

__all__ = [
    "NonRelParams",
    "pauli_energy",
    "LevyLeblondSolution",
    "levy_leblond_solve",
    "dirac_energy",
    "kinetic_minus_rest",
    "nonrel_abs_error",
    "NonRelError",
    "nonrel_error",
]


@dataclass(frozen=True)
class NonRelParams:
    """Masses, constant shifts and the constant scalar potential."""

    m0: float
    eps_tilde: float = 0.0
    c_tilde: np.ndarray = field(default_factory=lambda: np.zeros(3))
    c_light: float = 1.0
    scalar_potential: float = 0.0
    charge: float = 1.0

    def __post_init__(self):
        ct = _as_k3(self.c_tilde)
        if self.m0 <= 0.0:
            raise ValueError(f"m0 must be positive, got {self.m0}")
        if self.c_light <= 0.0:
            raise ValueError(f"c_light must be positive, got {self.c_light}")
        ct.flags.writeable = False
        object.__setattr__(self, "c_tilde", ct)
        scalars = (self.m0, self.eps_tilde, self.c_light, self.scalar_potential, self.charge)
        if not np.all(np.isfinite([*scalars, *ct])):
            raise ValueError(f"parameters must be finite, got {self}")


def pauli_energy(k, params: NonRelParams, vector_potential=None) -> float | np.ndarray:
    """Two-component limit energy |k + shift|^2 / 2m0 + e*A0 - eps_tilde.

    Only the zero-vector-potential case is supported: with A_j = 0 and a
    constant momentum shift both the magnetic term and the curl term
    vanish, and the spectrum is spin degenerate.
    """
    if vector_potential is not None:
        a = np.asarray(vector_potential, dtype=float)
        if np.any(a != 0.0):
            raise ValueError(
                "nonzero vector potentials are out of scope; only the constant "
                "scalar potential is supported"
            )
    k2 = _k2(k, params.c_tilde)
    return _value(
        k2 / (2.0 * params.m0) + params.charge * params.scalar_potential - params.eps_tilde
    )


class LevyLeblondSolution(NamedTuple):
    energy: float
    phi: np.ndarray
    chi: np.ndarray


def levy_leblond_solve(k, params: NonRelParams, phi_seed=None) -> LevyLeblondSolution:
    """Solve the linked first-order pair

        (e + eps_tilde) phi = sigma.(k + shift) chi
        2 m0 chi = sigma.(k + shift) phi

    jointly: e = |k + shift|^2 / 2m0 - eps_tilde with
    chi = sigma.(k + shift) phi / 2m0, returned with unit total norm.
    """
    kk = _as_k3(k) + params.c_tilde
    sk = _sigma_dot(kk)
    if phi_seed is None:
        phi = np.array([1.0, 0.0], dtype=np.complex128)
    else:
        phi = np.asarray(phi_seed, dtype=np.complex128)
        if phi.shape != (2,):
            raise ValueError(f"phi_seed must have 2 components, got {phi.shape}")
        phi = phi / np.linalg.norm(phi)
    chi = (sk @ phi) / (2.0 * params.m0)
    norm = np.sqrt(np.vdot(phi, phi).real + np.vdot(chi, chi).real)
    energy = float((kk @ kk) / (2.0 * params.m0) - params.eps_tilde)
    return LevyLeblondSolution(energy, phi / norm, chi / norm)


def dirac_energy(k, params: NonRelParams, branch: int = +1) -> float | np.ndarray:
    """Relativistic branch energy in physical units, constant potential
    included: +/- sqrt(m0^2 c^4 + c^2 |k+shift|^2) + e*A0 - eps_tilde."""
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    w = _w(_k2(k, params.c_tilde), params.m0, params.c_light)
    return _value(branch * w + params.charge * params.scalar_potential - params.eps_tilde)


def kinetic_minus_rest(k, params: NonRelParams) -> float | np.ndarray:
    """sqrt(m0^2 c^4 + c^2 K^2) - m0 c^2 in the cancellation-free form
    c^2 K^2 / (sqrt(...) + m0 c^2)."""
    c = params.c_light
    k2 = _k2(k, params.c_tilde)
    w = _w(k2, params.m0, c)
    return _value(c ** 2 * k2 / (w + params.m0 * c ** 2))


def nonrel_abs_error(k, params: NonRelParams) -> float | np.ndarray:
    """|relativistic kinetic energy - limit kinetic energy|, stable form.

    The shifts and the potential cancel identically between the two
    energies, leaving K^4 c^2 / (2 m0 (W + m0 c^2)^2) with
    W = sqrt(m0^2 c^4 + c^2 K^2); at small K this is K^4 / (8 m0^3 c^2).
    """
    c = params.c_light
    k2 = _k2(k, params.c_tilde)
    w = _w(k2, params.m0, c)
    return _value(k2 ** 2 * c ** 2 / (2.0 * params.m0 * (w + params.m0 * c ** 2) ** 2))


class NonRelError(NamedTuple):
    """Limit-error value; relative when the limit energy is nonzero."""

    value: float
    relative: bool


def nonrel_error(k, params: NonRelParams, floor: float = 1e-300) -> NonRelError:
    """Relative gap between the relativistic branch (rest energy removed)
    and the limit energy; falls back to the absolute gap, flagged, when
    the limit energy vanishes.  On a stack of momenta both fields are
    arrays, and every momentum must stay below m0 * c_light."""
    if np.any(np.sqrt(_k2(k, params.c_tilde)) >= params.m0 * params.c_light):
        raise ValueError("kinetic momentum must stay below m0 * c_light")
    abs_err = nonrel_abs_error(k, params)
    denom = np.abs(pauli_energy(k, params))
    relative = ~(denom < floor)
    value = _value(abs_err / np.where(relative, denom, 1.0))
    return NonRelError(value, bool(relative) if np.ndim(relative) == 0 else relative)

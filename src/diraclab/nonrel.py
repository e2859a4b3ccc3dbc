"""Non-relativistic limits of the generalized first-order equation.

Two limit forms are implemented for constant shifts: the two-component
kinetic-energy form (pauli_energy) and the linked first-order pair
(levy_leblond_solve), which agree identically.  There is no potential
field: a constant scalar potential A0 enters every energy only as the
shift eps_tilde -> eps_tilde - q*A0, so it is modelled by eps_tilde.
nonrel_error quantifies how fast the relativistic branch approaches the
limit; the absolute gap is evaluated in a conjugate form that avoids
catastrophic cancellation at small momenta, where the true gap scales as
|k + shift|^4 / (8 m0^3 c^2).

The speed of light is an explicit parameter here; natural-unit callers
pass 1.

The energy functions take the momentum k as a scalar (momentum along z)
or a 3-vector, and return a float; or as a (..., 3) stack of momenta, and
return an array of shape (...).  levy_leblond_solve takes one momentum.
A NaN or infinite k is rejected as such (operators._as_k3); a finite k
whose energy overflows is reported as an overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .invariance import _as_float
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
    """Mass, constant shifts and the speed of light.

    A constant scalar potential A0 on a charge q is the energy shift
    eps_tilde -> eps_tilde - q*A0; there is no separate potential field.
    """

    m0: float
    eps_tilde: float = 0.0
    c_tilde: np.ndarray = field(default_factory=lambda: np.zeros(3))
    c_light: float = 1.0

    def __post_init__(self):
        if any(np.ndim(x) for x in (self.m0, self.eps_tilde, self.c_light)):
            raise ValueError(f"the parameters other than c_tilde must be scalars, got {self}")
        _check(self)
        ct = _as_k3(self.c_tilde).copy()
        ct.flags.writeable = False
        object.__setattr__(self, "c_tilde", ct)


class _NonRelStack(NamedTuple):
    """The fields of many NonRelParams at once: m0 and eps_tilde of shape
    (T,), c_tilde of shape (T, 3).  The energy functions take it wherever
    they take one NonRelParams."""

    m0: np.ndarray
    eps_tilde: np.ndarray
    c_tilde: np.ndarray
    c_light: float = 1.0


def _nonrel_stack(m0, eps_tilde, c_tilde) -> _NonRelStack:
    """NonRelParams for (T,) stacks of masses and shifts, checked alike."""
    stack = _NonRelStack(
        np.asarray(m0, dtype=float),
        np.asarray(eps_tilde, dtype=float),
        np.asarray(c_tilde, dtype=float),
    )
    _check(stack)
    _as_k3(stack.c_tilde, stack=True)  # the shape check
    return stack


def _check(params) -> None:
    """NonRelParams' checks, on one set of fields or a stack of them; each
    error names the field and shows the value passed."""
    fields = {name: getattr(params, name) for name in ("m0", "c_light", "eps_tilde", "c_tilde")}
    values = {name: _as_float(name, x) for name, x in fields.items()}
    for name in ("m0", "c_light"):
        if np.any(values[name] <= 0.0):
            raise ValueError(f"{name} must be positive, got {fields[name]!r}")
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"parameters must be finite, got {name}={fields[name]!r}")


def pauli_energy(k, params: NonRelParams) -> float | np.ndarray:
    """Two-component limit energy |k + shift|^2 / 2m0 - eps_tilde.

    Only the zero-vector-potential case is modelled: with A_j = 0 and a
    constant momentum shift both the magnetic term and the curl term
    vanish, and the spectrum is spin degenerate.
    """
    # an overflow gives inf quietly, and _value rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _k2(k, params.c_tilde) / (2.0 * params.m0) - params.eps_tilde
    return _value(energy)


class LevyLeblondSolution(NamedTuple):
    energy: float
    phi: np.ndarray
    chi: np.ndarray


def levy_leblond_solve(k, params: NonRelParams) -> LevyLeblondSolution:
    """Solve the linked first-order pair

        (e + eps_tilde) phi = sigma.(k + shift) chi
        2 m0 chi = sigma.(k + shift) phi

    jointly: e = |k + shift|^2 / 2m0 - eps_tilde with phi along (1, 0)
    and chi = sigma.(k + shift) phi / 2m0, returned with unit total norm.
    A non-finite k and a momentum whose energy or spinor overflows double
    precision raise ValueError.
    """
    return LevyLeblondSolution(*_levy_leblond_spinors(_as_k3(k), params))


def _levy_leblond_spinors(k, params):
    """levy_leblond_solve's energy, phi and chi for one momentum or a
    (T, 3) stack with a _NonRelStack: energies (T,), spinors (T, 2).  The
    energy is the Pauli energy, which rejects an overflow."""
    energy = pauli_energy(k, params)
    phi = np.zeros(np.shape(k)[:-1] + (2,), dtype=np.complex128)
    phi[..., 0] = 1.0
    two_m0 = 2.0 * np.asarray(params.m0)[..., None]
    # an overflowing chi or norm gives inf or NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        kk = k + params.c_tilde
        chi = (_sigma_dot(kk) @ phi[..., None])[..., 0] / two_m0
        norm = np.sqrt(1.0 + np.sum(np.abs(chi) ** 2, axis=-1))[..., None]
    if not np.isfinite(norm).all():
        raise ValueError("the spinor norm is not finite: the inputs overflow double precision")
    return energy, phi / norm, chi / norm


def dirac_energy(k, params: NonRelParams, branch: int = +1) -> float | np.ndarray:
    """Relativistic branch energy in physical units:
    +/- sqrt(m0^2 c^4 + c^2 |k+shift|^2) - eps_tilde."""
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    w = _w(_k2(k, params.c_tilde), params.m0, params.c_light)
    return _value(branch * w - params.eps_tilde)


def kinetic_minus_rest(k, params: NonRelParams) -> float | np.ndarray:
    """sqrt(m0^2 c^4 + c^2 K^2) - m0 c^2 in the cancellation-free form
    c^2 K^2 / (sqrt(...) + m0 c^2)."""
    c = params.c_light
    k2 = _k2(k, params.c_tilde)
    w = _w(k2, params.m0, c)
    return _value(c ** 2 * k2 / (w + params.m0 * c ** 2))


def nonrel_abs_error(k, params: NonRelParams) -> float | np.ndarray:
    """|relativistic kinetic energy - limit kinetic energy|, stable form.

    The shifts cancel identically between the two energies, leaving
    K^4 c^2 / (2 m0 (W + m0 c^2)^2) with
    W = sqrt(m0^2 c^4 + c^2 K^2); at small K this is K^4 / (8 m0^3 c^2).
    """
    c = params.c_light
    k2 = _k2(k, params.c_tilde)
    w = _w(k2, params.m0, c)
    # an overflow gives inf quietly, and _value rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        err = k2 ** 2 * c ** 2 / (2.0 * params.m0 * (w + params.m0 * c ** 2) ** 2)
    return _value(err)


class NonRelError(NamedTuple):
    """Limit-error value; relative when the limit energy is nonzero."""

    value: float
    relative: bool


def nonrel_error(k, params: NonRelParams) -> NonRelError:
    """Relative gap between the relativistic branch (rest energy removed)
    and the limit energy; falls back to the absolute gap, flagged, when
    the limit energy vanishes.  On a stack of momenta both fields are
    arrays, and every momentum must stay below m0 * c_light.  A momentum
    whose |k + shift|^2 overflows is reported as an overflow, not as one
    at or above m0 * c_light."""
    k2 = _k2(k, params.c_tilde)
    if not np.isfinite(k2).all():
        raise ValueError(
            "|k + shift|^2 is not finite: the inputs overflow double precision"
        )
    if np.any(np.sqrt(k2) >= params.m0 * params.c_light):
        raise ValueError("kinetic momentum must stay below m0 * c_light")
    abs_err = nonrel_abs_error(k, params)
    denom = np.abs(pauli_energy(k, params))
    relative = ~(denom < 1e-300)
    value = _value(abs_err / np.where(relative, denom, 1.0))
    return NonRelError(value, bool(relative) if np.ndim(relative) == 0 else relative)

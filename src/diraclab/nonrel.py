"""Non-relativistic limits of the generalized first-order equation.

The limits are taken of the generalized equation itself, so every function
here takes its GeneralizedParams (m0, eps_tilde, p_tilde), with m0 > 0: the
limit forms divide by m0.  Two limit forms are implemented for constant
shifts: the two-component kinetic-energy form (pauli_energy) and the linked
first-order pair (levy_leblond_solve), which agree identically.  There is
no potential field: a constant scalar potential A0 enters every energy only
as the shift eps_tilde -> eps_tilde - q*A0, so it is modelled by eps_tilde.
nonrel_error quantifies how fast the relativistic branch approaches the
limit; the absolute gap is evaluated in a conjugate form that avoids
catastrophic cancellation at small momenta, where the true gap scales as
|k + p_tilde|^4 / (8 m0^3 c^2).  The three functions here where the speed
of light enters take it as the keyword c_light > 0, default 1 (natural
units), as the relativistic branch energy operators.dispersion does.

The energy functions take the momentum k as a scalar (momentum along z)
or a 3-vector, and return a float; or as a (..., 3) stack of momenta, and
return an array of shape (...).  levy_leblond_solve takes one momentum.
A NaN or infinite k is rejected as such (clifford._as_k3); a finite k
whose energy overflows is reported as an overflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .clifford import _as_k3, _finite, _real
from .invariance import GeneralizedParams
from .operators import _c_light, _k2, _sigma_dot, _value, _w

__all__ = [
    "pauli_energy",
    "LevyLeblondSolution",
    "levy_leblond_solve",
    "kinetic_minus_rest",
    "nonrel_abs_error",
    "nonrel_error",
]


def _limit_domain(m0, c_light=1.0) -> float:
    """c_light as a float, once m0 and c_light are real numbers, both
    positive: the limit forms' own rules, checked by every function here.
    Both are checked as real numbers before either as positive.  The
    messages show the values passed."""
    mass = _real("m0", m0)
    _real("c_light", c_light)
    if mass <= 0.0:
        raise ValueError(f"m0 must be positive, got {m0!r}")
    return _c_light(c_light)


def pauli_energy(k, params: GeneralizedParams) -> float | np.ndarray:
    """Two-component limit energy |k + p_tilde|^2 / 2m0 - eps_tilde.

    Only the zero-vector-potential case is modelled: with A_j = 0 and a
    constant momentum shift both the magnetic term and the curl term
    vanish, and the spectrum is spin degenerate.
    """
    _limit_domain(params.m0)
    return _pauli_energy(k, params)


def _pauli_energy(k, params):
    """pauli_energy for one GeneralizedParams, or for an
    invariance._ParamStack whose fields match a (T, 3) stack of momenta."""
    # an overflow gives inf quietly, and _value rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _k2(k, params.p_tilde) / (2.0 * params.m0) - params.eps_tilde
    return _value(energy)


class LevyLeblondSolution(NamedTuple):
    energy: float
    phi: np.ndarray
    chi: np.ndarray


def levy_leblond_solve(k, params: GeneralizedParams) -> LevyLeblondSolution:
    """Solve the linked first-order pair

        (e + eps_tilde) phi = sigma.(k + p_tilde) chi
        2 m0 chi = sigma.(k + p_tilde) phi

    jointly: e = |k + p_tilde|^2 / 2m0 - eps_tilde with phi along (1, 0)
    and chi = sigma.(k + p_tilde) phi / 2m0, returned with unit total norm.
    A non-finite k and a momentum whose energy or spinor overflows double
    precision raise ValueError.
    """
    _limit_domain(params.m0)
    return LevyLeblondSolution(*_levy_leblond_spinors(_as_k3("k", k), params))


def _levy_leblond_spinors(k, params):
    """levy_leblond_solve's energy, phi and chi for one momentum or a
    (T, 3) stack with an invariance._ParamStack: energies (T,), spinors
    (T, 2).  The energy is the Pauli energy, which rejects an overflow."""
    energy = _pauli_energy(k, params)
    phi = np.zeros(np.shape(k)[:-1] + (2,), dtype=np.complex128)
    phi[..., 0] = 1.0
    two_m0 = 2.0 * np.asarray(params.m0)[..., None]
    # an overflowing chi or norm gives inf or NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        kk = k + params.p_tilde
        chi = (_sigma_dot(kk) @ phi[..., None])[..., 0] / two_m0
        norm = np.sqrt(1.0 + np.sum(np.square(np.abs(chi)), axis=-1))[..., None]
    _finite(norm, "the spinor norm")
    return energy, phi / norm, chi / norm


def _relativistic(k, params, c_light):
    """c^2, K^2 = |k + p_tilde|^2 and W = sqrt(m0^2 c^4 + c^2 K^2)."""
    c = _limit_domain(params.m0, c_light)
    k2 = _k2(k, params.p_tilde)
    return c * c, k2, _w(k2, params.m0, c)


def kinetic_minus_rest(k, params: GeneralizedParams, *, c_light: float = 1.0) -> float | np.ndarray:
    """sqrt(m0^2 c^4 + c^2 K^2) - m0 c^2 in the cancellation-free form
    c^2 K^2 / (sqrt(...) + m0 c^2)."""
    c2, k2, w = _relativistic(k, params, c_light)
    return _value(c2 * k2 / (w + params.m0 * c2))


def nonrel_abs_error(k, params: GeneralizedParams, *, c_light: float = 1.0) -> float | np.ndarray:
    """|relativistic kinetic energy - limit kinetic energy|, stable form.

    The shifts cancel identically between the two energies, leaving
    K^4 c^2 / (2 m0 (W + m0 c^2)^2) with
    W = sqrt(m0^2 c^4 + c^2 K^2); at small K this is K^4 / (8 m0^3 c^2).
    """
    c2, k2, w = _relativistic(k, params, c_light)
    # an overflow gives inf quietly, and _value rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        total = w + params.m0 * c2
        err = k2 * k2 * c2 / (2.0 * params.m0 * (total * total))
    return _value(err)


def nonrel_error(k, params: GeneralizedParams, *, c_light: float = 1.0) -> float | np.ndarray:
    """Relative gap nonrel_abs_error / |pauli_energy| between the
    relativistic branch (rest energy removed) and the limit energy; NaN
    where the limit energy is below 1e-300 in magnitude.  A float for one
    momentum, an array for a stack, and every momentum must stay below
    m0 * c_light.  A momentum whose |k + p_tilde|^2 overflows is reported
    as an overflow, not as one at or above m0 * c_light."""
    c_light = _limit_domain(params.m0, c_light)
    k2 = _finite(_k2(k, params.p_tilde), "|k + shift|^2")
    if np.any(np.sqrt(k2) >= params.m0 * c_light):
        raise ValueError("kinetic momentum must stay below m0 * c_light")
    abs_err = nonrel_abs_error(k, params, c_light=c_light)
    denom = np.abs(_pauli_energy(k, params))
    vanishes = denom < 1e-300
    rel = _value(abs_err / np.where(vanishes, 1.0, denom))
    if np.ndim(rel) == 0:
        return math.nan if vanishes else rel
    rel[vanishes] = np.nan
    return rel

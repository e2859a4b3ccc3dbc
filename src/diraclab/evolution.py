"""Exact spectral time evolution of 4-spinor wavepackets on a periodic grid.

The equation has constant coefficients, so each grid momentum evolves
independently under its own 4x4 Hamiltonian H = H0 - eps_tilde with
H0 = alpha.(k + p_tilde) + m0*beta.  Since H0^2 = w^2 with
w = sqrt(m0^2 + |k + p_tilde|^2), the propagator has the closed form

    exp(-i H t) = exp(i eps_tilde t) * [cos(w t) - i sin(w t) H0 / w]

(Thaller, The Dirac Equation, 1992, ch. 1), evaluated directly at each
requested time in momentum space: no time-step error, and the roundoff
does not grow with the number of samples.  H0 and w on the grid come from
operators (_h0, _k2, _w), the one place that defines them.  A trajectory
sample costs one inverse FFT; its mean_k comes from the spectral
coefficients.  Grid conventions:

* samples live at x_i = i * L / n for i = 0..n-1 with n a power of two;
* grid momenta are 2*pi*fftfreq(n, L/n), i.e. FFT ordering covering
  [-pi*n/L, pi*n/L) with the single Nyquist bin on the negative side;
* a packet's norm is sum |psi|^2 * dx = 1.

Packets must keep their momentum support away from the Nyquist bin; the
constructor enforces |k0| + 3/width below pi*n/L.  Observable reductions
use numpy's pairwise summation, so trajectories are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariance import GeneralizedParams
from .operators import _h0, _k2, _w, plane_wave_solve

__all__ = [
    "WavePacket",
    "Observables",
    "observables",
    "init_gaussian",
    "SpectralPropagator",
    "evolve",
    "TrajectoryResult",
    "trajectory",
    "group_velocity_estimate",
    "write_trajectory_csv",
]


def _check_grid(n: int, length: float) -> None:
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 64, got {n}")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")


@dataclass(frozen=True)
class WavePacket:
    """Periodic 1-D grid of 4-component spinor samples."""

    n: int
    length: float
    values: np.ndarray  # (n, 4) complex
    time: float = 0.0

    def __post_init__(self):
        _check_grid(self.n, self.length)
        v = np.array(self.values, dtype=np.complex128, order="C")
        if v.shape != (self.n, 4):
            raise ValueError(f"values must have shape ({self.n}, 4), got {v.shape}")
        if not (math.isfinite(self.time) and np.isfinite(v).all()):
            raise ValueError("values and time must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def nyquist(self) -> float:
        return np.pi * self.n / self.length


@dataclass(frozen=True)
class Observables:
    norm: float
    mean_x: float
    spread: float
    mean_k: float


def _reduce(values_x, values_k, x, k, dx) -> tuple[float, float, float, float]:
    """norm, mean_x, spread and mean_k of one state from its spinor-major
    (4, n) samples in position and in momentum space."""
    density = np.sum(np.abs(values_x) ** 2, axis=0)
    norm = float(np.sum(density) * dx)
    weight = density * dx / norm
    mean_x = float(np.sum(x * weight))
    var = float(np.sum((x - mean_x) ** 2 * weight))
    kweight = np.sum(np.abs(values_k) ** 2, axis=0)
    mean_k = float(np.sum(k * kweight) / np.sum(kweight))
    return norm, mean_x, math.sqrt(max(var, 0.0)), mean_k


def observables(packet: WavePacket) -> Observables:
    values = packet.values.T
    return Observables(*_reduce(values, np.fft.fft(values), packet.x, packet.k, packet.dx))


def init_gaussian(
    n: int,
    length: float,
    x0: float,
    k0: float,
    width: float,
    branch: int = +1,
    params: GeneralizedParams | None = None,
) -> WavePacket:
    """Gaussian envelope times the first plane-wave spinor of the branch.

    `width` is the standard deviation of the amplitude envelope, so the
    position density has spread width/sqrt(2).  Unit norm.
    """
    if params is None:
        params = GeneralizedParams.standard(1.0)
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    _check_grid(n, length)
    for name, value in (("x0", x0), ("k0", k0), ("width", width)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    dx = length / n
    if width < 5.0 * dx:
        raise ValueError(
            f"width {width} under-resolved: need at least 5 grid spacings ({5 * dx:.4g})"
        )
    nyquist = np.pi * n / length
    if abs(k0) + 3.0 / width >= nyquist:
        raise ValueError(
            f"momentum support |k0|+3/width = {abs(k0) + 3.0 / width:.4g} reaches "
            f"the Nyquist momentum {nyquist:.4g}"
        )
    sols = plane_wave_solve(k0, params)
    spinor = sols[0].spinor if branch == +1 else sols[2].spinor
    x = np.arange(n) * dx
    envelope = np.exp(-((x - x0) ** 2) / (2.0 * width ** 2)) * np.exp(1j * k0 * x)
    values = envelope[:, None] * spinor[None, :]
    norm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * dx)
    return WavePacket(n=n, length=length, values=values / norm, time=0.0)


def _check_span(time: float, dt: float, steps: int) -> None:
    """dt and the end time time + dt*steps (time itself is finite) are finite."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if not math.isfinite(time + dt * steps):
        raise ValueError(f"time {time} + dt*steps ({dt}*{steps}) overflows double precision")


class SpectralPropagator:
    """Closed-form mode-wise propagator for one (grid, params) pair."""

    def __init__(self, n: int, length: float, params: GeneralizedParams):
        self.n = n
        self.length = length
        self.params = params
        k = np.zeros((n, 3))
        k[:, 2] = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        self._h0 = _h0(k, params)
        self._w = _w(_k2(k, params.p_tilde), params.m0)

    def _minus_i_h0(self, psi_k: np.ndarray) -> np.ndarray:
        """-i H0 applied mode by mode to (n, 4) coefficients."""
        return -1j * (self._h0 @ psi_k[:, :, None])[:, :, 0]

    def _coefficients(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode cos(wt) and sin(wt)/w, each times the phase exp(i eps t):
        exp(-i H t) psi = cos * psi + sin_over_w * (-i H0 psi)."""
        wt = self._w * t
        phase = np.exp(1j * self.params.eps_tilde * t)
        # sin(wt)/w, exact at w = 0 (a massless mode at k + p = 0)
        return phase * np.cos(wt), phase * t * np.sinc(wt / np.pi)

    def advance(self, psi_k: np.ndarray, t: float) -> np.ndarray:
        """One-shot exact advance of (n, 4) spectral coefficients by time t."""
        cos, sin_over_w = self._coefficients(t)
        return cos[:, None] * psi_k + sin_over_w[:, None] * self._minus_i_h0(psi_k)


def evolve(
    packet: WavePacket, params: GeneralizedParams, dt: float, steps: int = 1
) -> WavePacket:
    """Advance a packet by dt*steps with the exact mode-wise propagator."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    _check_span(packet.time, dt, steps)
    propagator = SpectralPropagator(packet.n, packet.length, params)
    psi_k = np.fft.fft(packet.values, axis=0)
    # a span whose phase w*t overflows gives NaN values, which WavePacket rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.fft.ifft(propagator.advance(psi_k, dt * steps), axis=0)
    return WavePacket(packet.n, packet.length, values, packet.time + dt * steps)


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    norms: np.ndarray
    mean_x: np.ndarray
    spreads: np.ndarray
    mean_k: np.ndarray
    packet: WavePacket

    def rows(self):
        return zip(self.times, self.norms, self.mean_x, self.spreads, self.mean_k)


def trajectory(
    packet: WavePacket,
    params: GeneralizedParams,
    dt: float,
    steps: int,
    sample_every: int = 1,
) -> TrajectoryResult:
    """Sample a packet's observables every `sample_every` steps of dt.

    Each sample is the closed-form propagator applied to the initial
    spectral coefficients at t_j = dt * (steps done), so samples carry no
    accumulated roundoff from earlier ones.  Each sample costs one inverse
    FFT, and mean_k is read from its spectral coefficients.  The initial
    state is the first sample and the state after `steps` steps the last.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    _check_span(packet.time, dt, steps)
    prop = SpectralPropagator(packet.n, packet.length, params)
    psi0_k = np.fft.fft(packet.values, axis=0)
    minus_i_h0_psi0 = np.ascontiguousarray(prop._minus_i_h0(psi0_k).T)
    psi0_k = np.ascontiguousarray(psi0_k.T)
    x, k, dx = packet.x, packet.k, packet.dx

    done = np.minimum(np.arange(0, steps + sample_every, sample_every), steps)
    times = packet.time + dt * done
    table = np.empty((done.size, 4))
    values = packet.values.T
    table[0] = _reduce(values, psi0_k, x, k, dx)
    # a time whose phase w*t overflows gives NaN samples, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, done.size):
            cos, sin_over_w = prop._coefficients(dt * done[j])
            psi_k = cos * psi0_k + sin_over_w * minus_i_h0_psi0
            values = np.fft.ifft(psi_k)
            table[j] = _reduce(values, psi_k, x, k, dx)
    if not np.isfinite(table).all():
        raise ValueError("trajectory is not finite: the inputs overflow double precision")
    final = WavePacket(packet.n, packet.length, values.T, float(times[-1]))
    return TrajectoryResult(times, *table.T, packet=final)


def group_velocity_estimate(
    params: GeneralizedParams,
    k0: float,
    t_total: float,
    *,
    n: int = 1024,
    length: float = 200.0,
    width: float = 10.0,
    x0: float | None = None,
    samples: int = 12,
    branch: int = +1,
    min_displacement: float | None = None,
) -> float:
    """Packet velocity from a linear fit of the mean position over time.

    Compare against the dispersion derivative
    (k0 + shift) / sqrt(m0^2 + (k0 + shift)^2).  When min_displacement is
    given, a fitted displacement below it raises, flagging a run whose
    drift cannot be resolved on the grid.
    """
    if t_total <= 0.0:
        raise ValueError(f"t_total must be positive, got {t_total}")
    if samples < 10:
        raise ValueError(f"need at least 10 samples for the fit, got {samples}")
    if x0 is None:
        x0 = 0.3 * length
    packet = init_gaussian(n, length, x0, k0, width, branch=branch, params=params)
    dt = t_total / samples
    result = trajectory(packet, params, dt, steps=samples, sample_every=1)
    slope = float(np.polyfit(result.times, result.mean_x, 1)[0])
    if min_displacement is not None and abs(slope) * t_total < min_displacement:
        raise RuntimeError(
            f"displacement {abs(slope) * t_total:.4g} below the resolution "
            f"threshold {min_displacement:.4g}"
        )
    return slope


def write_trajectory_csv(stream, result: TrajectoryResult) -> None:
    """Write `t,norm,mean_x,spread,mean_k` rows at 17 significant digits."""
    stream.write("t,norm,mean_x,spread,mean_k\n")
    for row in result.rows():
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")

"""Exact spectral time evolution of 4-spinor wavepackets on a periodic grid.

The equation has constant coefficients, so each grid momentum evolves
independently under its own 4x4 Hamiltonian H = H0 - eps_tilde with
H0 = alpha.(k + p_tilde) + m0*beta.  Since H0^2 = w^2 with
w = sqrt(m0^2 + |k + p_tilde|^2), H0 has the two energies +w and -w, with
the branch projectors P+- = (1 +- H0/w)/2, and the propagator has the
closed form

    exp(-i H t) = exp(i eps_tilde t) * [exp(-i w t) P+ + exp(i w t) P-]

(Thaller, The Dirac Equation, 1992, ch. 1), evaluated in momentum space
at each requested time from the initial coefficients: no time-step error,
and the roundoff does not grow with the number of samples.  H0 and w on
the grid come from operators (_h0, _k2, _w), the one place that defines
them.  _Spectrum holds a packet's P+ psi0 and P- psi0, each scaled by 1/n,
the normalisation of the inverse FFT, which n (a power of two) makes
exact.  Its one state routine forms a P+ psi0 + b P- psi0 per mode and
takes the unnormalised inverse FFT into a reused buffer.  evolve, and
trajectory's last sample, pass a = exp(i eps_tilde t) conj(z) and
b = exp(i eps_tilde t) z with z = exp(i w t), so the packet trajectory
returns equals evolve's bit for bit; trajectory's other samples pass
(conj(z), z), dropping the global phase, which no |psi|^2 observable
sees, and read z from a two-level phase table (one np.exp per 64
samples, no trig call per sample).  A sample's mean_k comes from its
spectral coefficients.

Only the spinor components a packet occupies are evolved.  A component
that is zero in both psi0 and H0 psi0 is zero in P+ psi0 and P- psi0, so
at every t; _Spectrum keeps the r occupied rows and the state formula,
the inverse FFT and the reduction run on r rows.  With p_tilde along z,
H0 couples components {0, 2} and {1, 3} only, and init_gaussian's spinor
lies in {0, 2}: such a packet runs on 2 rows.  A transverse p_tilde, or a
packet that fills both pairs, runs on all 4.  Dropped rows would only add
+0.0 to each density, so the results do not depend on r, bit for bit.

Grid conventions:

* samples live at x_i = i * L / n for i = 0..n-1 with n a power of two;
* grid momenta are 2*pi*fftfreq(n, L/n), i.e. FFT ordering covering
  [-pi*n/L, pi*n/L) with the single Nyquist bin on the negative side;
* a packet's norm is sum |psi|^2 * dx = 1.

Packets must keep their momentum support away from the Nyquist bin; the
constructor enforces |k0| + 3/width below pi*n/L.  Observables are
reduced by one routine (_Moments): a sum of re^2 + im^2 over the
components, then dot products with x and k.  A packet of zero norm has no
moments and is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariance import GeneralizedParams
from .operators import ALPHA, _h0, _k2, _w, plane_wave_solve

__all__ = [
    "WavePacket",
    "Observables",
    "observables",
    "init_gaussian",
    "evolve",
    "TrajectoryResult",
    "trajectory",
    "write_trajectory_csv",
]


def _is_count(value, least: int) -> bool:
    """value is an integer (a numpy integer too) of at least `least`."""
    return isinstance(value, (int, np.integer)) and value >= least


def _check_grid(n: int, length: float) -> None:
    if not _is_count(n, 64) or (n & (n - 1)) != 0:
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


@dataclass(frozen=True)
class Observables:
    norm: float
    mean_x: float
    spread: float
    mean_k: float


class _Moments:
    """The observable reduction: norm, mean_x, spread and mean_k of one state
    from its spinor-major (r, n) samples in position and in momentum space,
    r <= 4 rows (the components left out are zero).  Each call reuses the
    same work buffers."""

    def __init__(self, packet: WavePacket):
        self.x, self.k, self.dx = packet.x, packet.k, packet.dx
        self._squares = np.empty((8, packet.n))
        self._density = np.empty(packet.n)
        self._centered = np.empty(packet.n)

    def _density_of(self, values: np.ndarray) -> np.ndarray:
        """sum of re^2 + im^2 over the r rows of values, per grid point."""
        r = values.shape[0]
        np.square(values.real, out=self._squares[:r])
        np.square(values.imag, out=self._squares[r : 2 * r])
        return np.sum(self._squares[: 2 * r], axis=0, out=self._density)

    def __call__(self, values_x, values_k) -> tuple[float, float, float, float]:
        density = self._density_of(values_x)
        total = float(np.sum(density))
        if total == 0.0:
            raise ValueError("the packet has zero norm: its moments are undefined")
        mean_x = float(self.x @ density) / total
        centered = np.subtract(self.x, mean_x, out=self._centered)
        var = float(np.square(centered, out=centered) @ density) / total
        kweight = self._density_of(values_k)
        mean_k = float(self.k @ kweight) / float(np.sum(kweight))
        return total * self.dx, mean_x, math.sqrt(max(var, 0.0)), mean_k


def observables(packet: WavePacket) -> Observables:
    values = packet.values.T
    return Observables(*_Moments(packet)(values, np.fft.fft(values)))


def init_gaussian(
    n: int,
    length: float,
    x0: float,
    k0: float,
    width: float,
    branch: int = +1,
    *,
    params: GeneralizedParams,
) -> WavePacket:
    """Gaussian envelope times the first plane-wave spinor of the branch
    of `params` at k0, the parameters the packet is then evolved with.

    `width` is the standard deviation of the amplitude envelope, so the
    position density has spread width/sqrt(2).  Unit norm.
    """
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
    # an x0 far off the grid overflows the exponent, and the envelope is 0
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-((x - x0) ** 2) / (2.0 * width ** 2)) * np.exp(1j * k0 * x)
        values = envelope[:, None] * spinor[None, :]
        norm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * dx)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(
            f"the envelope at x0 = {x0} with width {width} vanishes on the grid "
            f"[0, {length}): it has no finite, nonzero norm"
        )
    return WavePacket(n=n, length=length, values=values / norm, time=0.0)


def _check_span(time: float, dt: float, steps: int) -> None:
    """dt and the end time time + dt*steps (time itself is finite) are finite."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if not math.isfinite(time + dt * steps):
        raise ValueError(f"time {time} + dt*steps ({dt}*{steps}) overflows double precision")


def _unit_phase(w: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """exp(i w t) per mode, written into the complex array `out`."""
    out.real = 0.0
    np.multiply(w, t, out=out.imag)
    return np.exp(out, out=out)


class _Spectrum:
    """A packet's branch components P+ psi0 and P- psi0, P+- = (1 +- H0/w)/2,
    each scaled by 1/n and spinor-major (r, n) over the occupied components
    `rows`, with w per mode, the rows of psi0 itself (the initial state's
    spectral coefficients) and the work buffers of the states built from
    them.  A component is occupied if the packet or H0 psi0 is nonzero in
    it; the others stay exactly 0 at every t.  On a w = 0 mode (massless
    at k + p = 0) H0 = 0, so both projectors are 1/2 there."""

    def __init__(self, packet: WavePacket, params: GeneralizedParams):
        k = np.zeros((packet.n, 3))
        k[:, 2] = packet.k
        self.w = _w(_k2(k, params.p_tilde), params.m0)
        self.eps_tilde = params.eps_tilde
        psi0 = np.fft.fft(packet.values, axis=0)
        # on the z-directed grid H0 = (alpha.p + m0 beta) + k_z alpha_z:
        # one fixed 4x4 and one scalar per mode, so no (n, 4, 4) stack
        h0_psi0 = packet.k[:, None] * (psi0 @ ALPHA[2].T)
        h0_psi0 += psi0 @ _h0(np.zeros(3), params).T
        occupied = packet.values.any(axis=0) | h0_psi0.any(axis=0)
        self.rows = np.flatnonzero(occupied)
        self.psi0 = np.ascontiguousarray(psi0.T[self.rows])
        inv_w = np.divide(1.0, self.w, out=np.zeros(packet.n), where=self.w != 0.0)
        h0_psi0_over_w = h0_psi0.T[self.rows] * inv_w
        scale = 0.5 / packet.n  # exact: n is a power of two
        self.plus = (self.psi0 + h0_psi0_over_w) * scale
        self.minus = (self.psi0 - h0_psi0_over_w) * scale
        self._psi_k, self._values = np.empty_like(self.psi0), np.empty_like(self.psi0)

    def state(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """a * P+ psi0 + b * P- psi0 per mode, and its inverse FFT: the
        state's (values, spectral coefficients / n), in reused buffers."""
        np.multiply(a, self.plus, out=self._psi_k)
        np.multiply(b, self.minus, out=self._values)
        np.add(self._psi_k, self._values, out=self._psi_k)
        np.fft.ifft(self._psi_k, norm="forward", out=self._values)
        return self._values, self._psi_k

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The state exp(-i H t) psi0, global phase exp(i eps t) included."""
        z = _unit_phase(self.w, t, np.empty(self.w.size, dtype=np.complex128))
        phase = np.exp(1j * self.eps_tilde * t)
        return self.state(phase * np.conjugate(z), phase * z)

    def spinors(self, values: np.ndarray) -> np.ndarray:
        """The (n, 4) samples of a state from its occupied rows, 0 elsewhere."""
        full = np.zeros((values.shape[1], 4), dtype=np.complex128)
        full[:, self.rows] = values.T
        return full


def evolve(
    packet: WavePacket, params: GeneralizedParams, dt: float, steps: int = 1
) -> WavePacket:
    """Advance a packet by dt*steps with the exact mode-wise propagator."""
    if not _is_count(steps, 0):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    _check_span(packet.time, dt, steps)
    spectrum = _Spectrum(packet, params)
    # a span whose phase w*t overflows gives NaN values, which WavePacket rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values, _ = spectrum.at(dt * steps)
    end = packet.time + dt * steps
    return WavePacket(packet.n, packet.length, spectrum.spinors(values), end)


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


# Samples per block of trajectory's phase table, and blocks per outer block.
_BLOCK = 8


def _phase_table(w: np.ndarray, tau: float, samples: int):
    """Yield exp(i w j tau) for j = 1 .. samples - 1, in one reused array.

    With B = _BLOCK and j = (p B + s) B + r it is outer_p * mid_s * inner_r,
    inner_r = exp(i w tau r), mid_s = exp(i w tau s B) and
    outer_p = exp(i w tau p B^2).  The B inner rows are evaluated up front,
    each mid row on its first use and the outer factor once per B^2 = 64
    samples, each one np.exp of its own argument, so z_j carries a few
    roundings however large j is (a recurrence z_j = z_{j-1} z_1 would add
    one per j).  outer_p * mid_s is formed once per B samples, so a sample
    costs one complex multiply.
    """
    inner = np.empty((min(_BLOCK, samples), w.size), dtype=np.complex128)
    for r, row in enumerate(inner):
        _unit_phase(w, tau * r, row)
    mid = np.empty((_BLOCK, w.size), dtype=np.complex128)
    outer, block, z = (np.empty(w.size, dtype=np.complex128) for _ in range(3))
    for j in range(1, samples):
        q, r = divmod(j, _BLOCK)
        if r == 0 or j == 1:
            p, s = divmod(q, _BLOCK)
            if p == 0:
                _unit_phase(w, tau * (s * _BLOCK), mid[s])
            if s == 0 or j == 1:
                _unit_phase(w, tau * (p * _BLOCK * _BLOCK), outer)
            np.multiply(outer, mid[s], out=block)
        yield np.multiply(block, inner[r], out=z)


def trajectory(
    packet: WavePacket,
    params: GeneralizedParams,
    dt: float,
    steps: int,
    sample_every: int = 1,
) -> TrajectoryResult:
    """Sample a packet's observables every `sample_every` steps of dt.

    Sample j is the closed-form propagator applied to the initial spectral
    coefficients psi0 at t_j = j * tau, tau = dt * sample_every, so samples
    carry no roundoff from earlier ones.  Every sample is _Spectrum's one
    state formula with z_j = exp(i w t_j), on the branch components P+- psi0
    that _Spectrum holds with the inverse FFT's 1/n folded in:

        psi_j = conj(z_j) * P+ psi0 + z_j * P- psi0

    The global phase exp(i eps t) drops out of every observable, so the
    samples leave it out and read z_j from a two-level phase table
    (_phase_table: one np.exp per 64 samples, no trig call per sample and
    an error of a few roundings whatever the sample count); a sample's
    observables agree with those of evolve over the same span to 1e-13
    relative, and its norm stays within a few ulp of the initial one.  Each
    sample costs one inverse FFT of the occupied components into a reused
    buffer, and mean_k is read from its spectral coefficients.  The initial
    state is the first sample.  The last sample, after `steps` steps, passes
    the global phase and z as evolve does, so the returned packet equals
    evolve(packet, params, dt, steps) bit for bit.
    """
    if not _is_count(steps, 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    if not _is_count(sample_every, 1):
        raise ValueError(f"sample_every must be an integer >= 1, got {sample_every!r}")
    _check_span(packet.time, dt, steps)
    spectrum = _Spectrum(packet, params)
    moments = _Moments(packet)

    done = np.minimum(np.arange(0, steps + sample_every, sample_every), steps)
    times = packet.time + dt * done
    last = done.size - 1
    table = np.empty((done.size, 4))
    table[0] = moments(packet.values.T[spectrum.rows], spectrum.psi0)
    z_bar = np.empty(spectrum.w.size, dtype=np.complex128)
    # a time whose phase w*t overflows gives NaN samples, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, z in enumerate(_phase_table(spectrum.w, dt * sample_every, last), start=1):
            table[j] = moments(*spectrum.state(np.conjugate(z, out=z_bar), z))
        values, psi_k = spectrum.at(dt * steps)
        table[last] = moments(values, psi_k)
    if not np.isfinite(table).all():
        raise ValueError("trajectory is not finite: the inputs overflow double precision")
    final = WavePacket(packet.n, packet.length, spectrum.spinors(values), float(times[-1]))
    return TrajectoryResult(times, *table.T, packet=final)


def write_trajectory_csv(stream, result: TrajectoryResult) -> None:
    """Write `t,norm,mean_x,spread,mean_k` rows at 17 significant digits."""
    stream.write("t,norm,mean_x,spread,mean_k\n")
    for row in result.rows():
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")

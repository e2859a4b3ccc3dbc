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
them.

Only the spinor components a packet occupies are evolved.  A component
that is zero in both psi0 and H0 psi0 is zero in P+ psi0 and P- psi0, so
at every t; _Spectrum keeps the r occupied rows and the state formula,
the inverse FFT and the reduction run on r rows.  With p_tilde along z,
H0 couples components {0, 2} and {1, 3} only, and init_gaussian's spinor
lies in {0, 2}: such a packet runs on 2 rows.  A transverse p_tilde, or a
packet that fills both pairs, runs on all 4.  Dropped rows would only add
+0.0 to each sum, so the results do not depend on r, bit for bit.

Grid conventions:

* samples live at x_i = i * L / n for i = 0..n-1 with n a power of two;
* grid momenta are 2*pi*fftfreq(n, L/n), i.e. FFT ordering covering
  [-pi*n/L, pi*n/L) with the single Nyquist bin on the negative side;
* a packet's norm is sum |psi|^2 * dx = 1.

Packets must keep their momentum support away from the Nyquist bin; the
constructor enforces |k0| + 3/width below pi*n/L.  A packet of zero norm
has no moments and is rejected.
"""

from __future__ import annotations

import math
import os
import threading
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
    """The observable reduction of a block of m states from their
    spinor-major (m, r, n) spectral coefficients and samples, r <= 4 rows
    (the components left out are zero).  Viewed as floats (m, r, n, 2),
    the squares re^2 and im^2 of the entries give each moment as one
    product with k or x, summed over the rows and the pair.  `scratch`,
    m x n complex numbers, holds the squares of one row or the centred
    positions."""

    def __init__(self, packet: WavePacket):
        self.x, self.k, self.dx = packet.x, packet.k, packet.dx

    def momentum(self, values_k, scratch, out) -> None:
        """mean_k of each state into out[:, 3], from its spectral
        coefficients, which are left as they are."""
        parts = values_k.view(np.float64)
        weight = np.vecdot(parts, parts).sum(axis=1)
        squares = scratch.view(np.float64).reshape(*scratch.shape, 2)
        moment = 0.0
        for row in parts.reshape(*values_k.shape, 2).transpose(1, 0, 2, 3):
            moment = moment + np.matmul(self.k, np.square(row, out=squares)).sum(axis=1)
        out[:, 3] = moment / weight

    def position(self, values, scratch, out) -> None:
        """norm, mean_x and spread of each state into out[:, :3], from its
        samples, which are squared in place."""
        squares = values.view(np.float64).reshape(*values.shape, 2)
        np.square(squares, out=squares)
        total = np.sum(squares, axis=(2, 3)).sum(axis=1)
        if not total.all():
            raise ValueError("the packet has zero norm: its moments are undefined")
        mean_x = np.matmul(self.x, squares).sum(axis=(1, 2)) / total
        centered = scratch.view(np.float64)[:, : self.x.size]
        np.square(np.subtract(self.x, mean_x[:, None], out=centered), out=centered)
        var = np.matmul(centered[:, None, None], squares).sum(axis=(1, 2, 3)) / total
        out[:, 0] = total * self.dx
        out[:, 1] = mean_x
        out[:, 2] = np.sqrt(np.maximum(var, 0.0))

    def sample(self, values_k, scratch, out) -> None:
        """norm, mean_x, spread, mean_k of each state into out from its
        spectral coefficients (over n), which are inverse-transformed in
        place into its samples and then squared."""
        self.momentum(values_k, scratch, out)
        np.fft.ifft(values_k, norm="forward", out=values_k)
        self.position(values_k, scratch, out)

    def of(self, values) -> np.ndarray:
        """norm, mean_x, spread, mean_k of one state from its (r, n)
        samples, which are left as they are."""
        values = np.array(values, dtype=np.complex128, order="C")[None]
        values_k = np.fft.fft(values, out=np.empty_like(values))
        scratch = np.empty((1, self.x.size), dtype=np.complex128)
        out = np.empty((1, 4))
        self.position(values, scratch, out)
        self.momentum(values_k, scratch, out)
        return out[0]


def observables(packet: WavePacket) -> Observables:
    return Observables(*_Moments(packet).of(packet.values.T))


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
    `rows`, with w per mode.  A component is occupied if the packet or
    H0 psi0 is nonzero in it; the others stay exactly 0 at every t.  On a
    w = 0 mode (massless at k + p = 0) H0 = 0, so both projectors are 1/2
    there."""

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
        psi0 = np.ascontiguousarray(psi0.T[self.rows])
        inv_w = np.divide(1.0, self.w, out=np.zeros(packet.n), where=self.w != 0.0)
        h0_psi0_over_w = h0_psi0.T[self.rows] * inv_w
        scale = 0.5 / packet.n  # exact: n is a power of two
        self.plus = (psi0 + h0_psi0_over_w) * scale
        self.minus = (psi0 - h0_psi0_over_w) * scale

    def state(self, z, out) -> np.ndarray:
        """conj(z) P+ psi0 + z P- psi0 per mode, the spectral coefficients
        (over n) of the state at the phases z = exp(i w t) with the global
        phase left out, formed in out as conj(z) (P+ psi0 + z^2 P- psi0)
        (|z| = 1), which needs no other buffer.  z is (n,) and out (r, n),
        or z is (m, 1, n) and out (m, r, n) for a block of m states; z is
        conjugated in place."""
        np.multiply(z, self.minus, out=out)
        np.multiply(out, z, out=out)
        np.add(out, self.plus, out=out)
        return np.multiply(out, np.conjugate(z, out=z), out=out)

    def at(self, t: float) -> np.ndarray:
        """The spectral coefficients (over n) of exp(-i H t) psi0, global
        phase exp(i eps t) included."""
        # numpy allocates its ufunc buffers for every broadcast operand, at
        # _BUFSIZE elements here; the setting ends with the errstate block,
        # which keeps the caller's error state
        with np.errstate():
            np.setbufsize(_BUFSIZE)
            z = _unit_phase(self.w, t, np.empty(self.w.size, dtype=np.complex128))
            values_k = self.state(z, np.empty_like(self.plus))
            return np.multiply(values_k, np.exp(1j * self.eps_tilde * t), out=values_k)

    def spinors(self, values_k: np.ndarray) -> np.ndarray:
        """The (n, 4) samples of a state from the spectral coefficients
        (over n) of its occupied rows, which are left as they are; 0 in
        the other rows."""
        full = np.zeros((values_k.shape[1], 4), dtype=np.complex128)
        full[:, self.rows] = np.fft.ifft(values_k, norm="forward").T
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
        values = spectrum.spinors(spectrum.at(dt * steps))
    return WavePacket(packet.n, packet.length, values, packet.time + dt * steps)


@dataclass(frozen=True)
class TrajectoryResult:
    times: np.ndarray
    norms: np.ndarray
    mean_x: np.ndarray
    spreads: np.ndarray
    mean_k: np.ndarray
    packet: WavePacket


# trajectory's sampler (_sample): spinor rows per block, and workers.
_BLOCK_ROWS = 8
_WORKERS = 2
# Samples between two exact evaluations of the phase chain (_sample_blocks).
_REFRESH = 32
# numpy's ufunc buffer size in elements in the sampler and _Spectrum.at.
_BUFSIZE = 1024


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sample_blocks(spectrum, moments, tau, step, blocks, table, buffers) -> None:
    """One worker: table[j] for the samples j of each block b in `blocks`,
    j = b*size + i for i < size and 0 < j < last, in its own buffers, whose
    length is the block size.

    z_j = exp(i w tau j) is one np.exp of its own argument where j is a
    multiple of _REFRESH and z_{j-1} * step otherwise, step = exp(i w tau):
    at most _REFRESH roundings however large j is, where a recurrence
    from z_0 would add one per j.  Every z_j comes from the same chain
    whichever worker computes it.  z, spent once a block's states are
    formed, is the reductions' scratch."""
    z, values, carry = buffers
    size = len(z)
    w, last = spectrum.w, len(table) - 1
    # errstate is per thread; a phase w*t that overflows gives NaN samples,
    # rejected by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        # no call here needs ufunc buffers (there is no cast), yet numpy
        # allocates them at this size for every broadcast or strided
        # operand; the setting ends with the errstate block
        np.setbufsize(_BUFSIZE)
        # carry holds z_{j-1} for the next j: follow the chain from its refresh
        first = blocks.start * size
        if first % _REFRESH:
            _unit_phase(w, tau * (first - first % _REFRESH), carry)
            for _ in range(first % _REFRESH - 1):
                np.multiply(carry, step, out=carry)
        for b in blocks:
            base = b * size
            for i in range(size):
                if (base + i) % _REFRESH:
                    np.multiply(z[i - 1] if i else carry, step, out=z[i])
                else:
                    _unit_phase(w, tau * (base + i), z[i])
            np.copyto(carry, z[-1])
            rows = slice(max(base, 1) - base, min(base + size, last) - base)
            m = rows.stop - rows.start
            spectrum.state(z[rows, None], values[:m])
            moments.sample(values[:m], z[:m], table[base + rows.start : base + rows.stop])


def _sample(spectrum, moments, tau: float, table) -> None:
    """table[j] for the samples j = 1 .. last - 1, last = len(table) - 1.

    A packet on r rows runs blocks of size = max(1, _BLOCK_ROWS // r)
    samples, 4 on two rows and 2 on four: block b holds the samples
    b*size .. (b+1)*size - 1 in that range whatever the worker count.  A
    block's states take a few whole-block numpy calls (_Spectrum.state,
    _Moments.sample), each long enough to pay for handing the GIL to
    another worker.  The workers are the calling thread and at most
    _WORKERS - 1 helper threads, no more than the usable CPUs; each takes
    a contiguous range of blocks, the calling thread the first.  Each
    holds one block's buffers, (r + 1) n complex numbers per sample of the
    block and n more, all allocated before any worker starts.  Every
    operation on a sample is elementwise or per row, so what a sample
    computes depends neither on its block nor on its worker.  A helper's
    exception is raised here, after every helper ended."""
    last = len(table) - 1
    if last < 2:
        return
    r, n = spectrum.plus.shape
    size = max(1, _BLOCK_ROWS // r)
    blocks = -(-last // size)
    workers = min(_WORKERS, _usable_cpus(), blocks)
    step = _unit_phase(spectrum.w, tau, np.empty(n, dtype=np.complex128))
    bounds = [blocks * i // workers for i in range(workers + 1)]
    work = []
    for start, stop in zip(bounds, bounds[1:]):
        buffers = (np.empty((size, n), dtype=np.complex128),
                   np.empty((size, r, n), dtype=np.complex128),
                   np.empty(n, dtype=np.complex128))
        work.append((spectrum, moments, tau, step, range(start, stop), table, buffers))
    errors = []

    def helper(*args):
        try:
            _sample_blocks(*args)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=helper, args=args) for args in work[1:]]
    try:
        for thread in helpers:
            thread.start()
        _sample_blocks(*work[0])
    finally:
        for thread in helpers:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def trajectory(
    packet: WavePacket,
    params: GeneralizedParams,
    dt: float,
    steps: int,
    sample_every: int = 1,
) -> TrajectoryResult:
    """Sample a packet's observables every `sample_every` steps of dt.

    Row j holds the observables at t_j = j * tau, tau = dt * sample_every,
    of the closed-form propagator applied to the initial coefficients, so
    a row carries no roundoff from earlier ones; row 0 is the packet
    itself and the last row is at dt * steps.  The rows in between leave
    out the global phase exp(i eps t), which no observable sees, and take
    exp(i w t_j) from a chain of products; they agree with the observables
    of evolve over the same span to 1e-13 relative, and a row's norm stays
    within a few ulp of the initial one.  The last row and the returned
    packet come from _Spectrum.at and .spinors, as evolve's packet does, so
    that packet equals evolve(packet, params, dt, steps) bit for bit.
    Beyond the returned arrays, memory does not grow with the row count,
    and the rows do not depend on how _sample splits them into blocks and
    threads, bit for bit; a helper thread is joined before trajectory
    returns or raises.
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
    table = np.empty((done.size, 4))
    table[0] = moments.of(packet.values.T[spectrum.rows])
    # a time whose phase w*t overflows gives NaN samples, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        _sample(spectrum, moments, dt * sample_every, table)
        values_k = spectrum.at(dt * steps)
        spinors = spectrum.spinors(values_k)
        scratch = np.empty((1, packet.n), dtype=np.complex128)
        moments.sample(values_k[None], scratch, table[-1:])
    if not np.isfinite(table).all():
        raise ValueError("trajectory is not finite: the inputs overflow double precision")
    final = WavePacket(packet.n, packet.length, spinors, float(times[-1]))
    return TrajectoryResult(times, *table.T, packet=final)


def write_trajectory_csv(stream, result: TrajectoryResult) -> None:
    """Write `t,norm,mean_x,spread,mean_k` rows at 17 significant digits."""
    stream.write("t,norm,mean_x,spread,mean_k\n")
    table = np.column_stack((result.times, result.norms, result.mean_x, result.spreads,
                             result.mean_k))
    stream.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist()))

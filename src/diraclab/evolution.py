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
import queue
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .clifford import _count, _equal_fields, _finite, _real
from .invariance import GeneralizedParams
from .operators import ALPHA, _branch, _h0, _k2, _w, plane_wave_solve

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


def _check_grid(n: int, length: float) -> float:
    """The grid length as a float, once n and length are checked."""
    if _count("n", n, 64) & (n - 1):
        raise ValueError(f"n must be a power of two >= 64, got {n}")
    if n > sys.float_info.max:
        raise ValueError(f"n = 2**{n.bit_length() - 1} overflows double precision")
    length = _real("length", length)
    if length <= 0.0:
        raise ValueError(f"length must be positive and finite, got {length}")
    return length


@dataclass(frozen=True)
class WavePacket:
    """Periodic 1-D grid of 4-component spinor samples."""

    n: int
    length: float
    values: np.ndarray  # (n, 4) complex
    time: float = 0.0

    __eq__ = _equal_fields

    def __post_init__(self):
        object.__setattr__(self, "length", _check_grid(self.n, self.length))
        v = np.array(self.values, dtype=np.complex128, order="C")
        if v.shape != (self.n, 4):
            raise ValueError(f"values must have shape ({self.n}, 4), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", _real("time", self.time))

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
    positions.  trajectory reduces mean_k for its first row (`of`) and its
    last (`sample`) only, and its blocks with `position`: each mode evolves
    under its own unitary exp(-iHt), so its weight sum_r |psi_r(k, t)|^2,
    and with it mean_k, never changes."""

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
        samples, which are left as they are; checked finite."""
        values = np.array(values, dtype=np.complex128, order="C")[None]
        scratch = np.empty((1, self.x.size), dtype=np.complex128)
        out = np.empty((1, 4))
        # an overflow gives inf or NaN quietly, and _finite rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            values_k = np.fft.fft(values, out=np.empty_like(values))
            self.position(values, scratch, out)
            self.momentum(values_k, scratch, out)
        return _finite(out[0], "an observable")


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
    branch = _branch(branch)
    length = _check_grid(n, length)
    x0, k0, width = _real("x0", x0), _real("k0", k0), _real("width", width)
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    two_variance = 2.0 * (width * width)
    if two_variance == math.inf:
        raise ValueError(f"width {width} overflows double precision: 2*width^2 is not finite")
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
        envelope = np.exp(-np.square(x - x0) / two_variance) * np.exp(1j * k0 * x)
        values = envelope[:, None] * spinor[None, :]
        norm = math.sqrt(float(np.sum(np.square(np.abs(values)))) * dx)
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(
            f"the envelope at x0 = {x0} with width {width} vanishes on the grid "
            f"[0, {length}): it has no finite, nonzero norm"
        )
    return WavePacket(n=n, length=length, values=values / norm, time=0.0)


def _check_span(time: float, dt: float, steps: int) -> float:
    """dt as a float, once steps fits double precision and dt and the end
    time time + dt*steps (time itself is finite) are checked finite."""
    dt = _real("dt", dt)
    if steps > sys.float_info.max or not math.isfinite(time + dt * steps):
        raise ValueError(f"time {time} + dt*steps overflows double precision (dt = {dt})")
    return dt


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
    dt = _check_span(packet.time, dt, _count("steps", steps, 0))
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

    __eq__ = _equal_fields


# trajectory's sampler (_sample): spinor rows per block.
_BLOCK_ROWS = 8
# Samples between two exact evaluations of the phase chain (_sample).
_REFRESH = 32
# numpy's ufunc buffer size in elements in the sampler and _Spectrum.at.
_BUFSIZE = 1024


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _inverse_ffts(requests, replies) -> None:
    """The helper thread: each block of spectral coefficients taken from
    `requests` is inverse-transformed in place into its samples, and
    answered on `replies` with None or the exception it raised, until
    None arrives.  errstate is per thread; an overflowed phase gives NaN
    samples, rejected by trajectory."""
    with np.errstate(over="ignore", invalid="ignore"):
        while (values := requests.get()) is not None:
            try:
                np.fft.ifft(values, norm="forward", out=values)
            except BaseException as exc:  # re-raised in the calling thread
                replies.put(exc)
            else:
                replies.put(None)


def _sample(spectrum, moments, tau: float, table) -> None:
    """table[j] for the samples j = 1 .. last - 1, last = len(table) - 1.

    A packet on r rows runs blocks of size = max(1, _BLOCK_ROWS // r)
    samples, 4 on two rows and 2 on four: block b holds the samples
    b*size .. (b+1)*size - 1 in that range.  z_j = exp(i w tau j) is one
    np.exp of its own argument where j is a multiple of _REFRESH and
    z_{j-1} * step otherwise, step = exp(i w tau): at most _REFRESH
    roundings however large j is, where a recurrence from z_0 would add
    one per j.

    Every row's mean_k is row 0's, table[0, 3]: each mode's evolution is
    unitary, so its weight, and with it the momentum distribution, is the
    same at every t.  Only norm, mean_x and spread are reduced here.

    The calling thread runs the phase chain and forms each block's states.
    With two usable CPUs and two blocks or more, a helper thread then
    takes the block's inverse FFT, one numpy call that needs the GIL only
    to start and to end, while this thread reduces the position moments of
    the block before and forms the next: two (size, r, n) block buffers,
    used in turn.  Otherwise the FFT runs inline on one.  z, spent once a
    block's states are formed, is the reduction's scratch.  Every
    operation on a sample is elementwise or per row, so its bits depend
    neither on its block nor on the thread.  The helper answers every
    block and is joined before _sample returns or raises; an exception it
    raised is raised here."""
    last = len(table) - 1
    if last < 2:
        return
    table[1:last, 3] = table[0, 3]
    r, n = spectrum.plus.shape
    size = max(1, _BLOCK_ROWS // r)
    blocks = -(-last // size)
    w = spectrum.w
    step = _unit_phase(w, tau, np.empty(n, dtype=np.complex128))
    z = np.empty((size, n), dtype=np.complex128)
    carry = np.empty(n, dtype=np.complex128)  # z_{j-1} for the next block's first j
    helper = None
    if blocks > 1 and _usable_cpus() > 1:
        requests, replies = queue.SimpleQueue(), queue.SimpleQueue()
        helper = threading.Thread(target=_inverse_ffts, args=(requests, replies))
    buffers = [np.empty((size, r, n), dtype=np.complex128) for _ in range(2 if helper else 1)]
    pending = None  # the block whose inverse FFT the helper runs

    def finish(values, out) -> None:
        error = replies.get()
        if error is not None:
            raise error
        moments.position(values, z[: len(values)], out)

    # the caller's error state: a phase w*t that overflows gives NaN
    # samples, rejected by trajectory
    with np.errstate(over="ignore", invalid="ignore"):
        # no call here needs ufunc buffers (there is no cast), yet numpy
        # allocates them at this size for every broadcast or strided
        # operand; the setting ends with the errstate block
        np.setbufsize(_BUFSIZE)
        try:
            if helper:
                helper.start()
            for b in range(blocks):
                base = b * size
                for i in range(size):
                    if (base + i) % _REFRESH:
                        np.multiply(z[i - 1] if i else carry, step, out=z[i])
                    else:
                        _unit_phase(w, tau * (base + i), z[i])
                np.copyto(carry, z[-1])
                rows = slice(max(base, 1) - base, min(base + size, last) - base)
                m = rows.stop - rows.start
                values = buffers[b % len(buffers)][:m]
                out = table[base + rows.start : base + rows.stop]
                spectrum.state(z[rows, None], values)
                if not helper:
                    np.fft.ifft(values, norm="forward", out=values)
                    moments.position(values, z[:m], out)
                    continue
                requests.put(values)
                if pending:
                    finish(*pending)
                pending = values, out
            if pending:
                finish(*pending)
        finally:
            if helper and helper.ident is not None:
                requests.put(None)
                helper.join()


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
    within a few ulp of the initial one.  Their mean_k is row 0's, not
    reduced again: each mode's evolution is unitary, so the momentum
    distribution never changes.  The last row and the returned packet come
    from _Spectrum.at and .spinors, as evolve's packet does, so that packet
    equals evolve(packet, params, dt, steps) bit for bit; the last row's
    mean_k is still reduced from that state, so its difference from row 0's
    is a computed drift.
    Beyond the returned arrays, memory does not grow with the row count.
    With two usable CPUs, a helper thread takes each block's inverse FFT
    while this thread reduces and forms the others (_sample); it is joined
    before trajectory returns or raises.  The rows depend neither on the
    block size nor on the helper, bit for bit.
    """
    steps = _count("steps", steps, 1)
    if _count("sample_every", sample_every, 1) > sys.float_info.max:
        raise ValueError("sample_every overflows double precision: it exceeds 1.8e308")
    dt = _check_span(packet.time, dt, steps)
    # Every sample_every >= steps gives rows 0 and steps; clamped, the
    # sample indices below stay int64 for any steps below 2**62.
    sample_every = min(sample_every, steps)
    spectrum = _Spectrum(packet, params)
    moments = _Moments(packet)

    try:
        done = np.minimum(np.arange(0, steps + sample_every, sample_every), steps)
        table = np.empty((done.size, 4))
    except ValueError as exc:  # numpy's size check, before any allocation
        raise ValueError(
            f"steps {steps} at sample_every {sample_every} gives more samples "
            f"than an array can hold: {exc}"
        ) from None
    times = packet.time + dt * done
    table[0] = moments.of(packet.values.T[spectrum.rows])
    # a time whose phase w*t overflows gives NaN samples, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        _sample(spectrum, moments, dt * sample_every, table)
        values_k = spectrum.at(dt * steps)
        spinors = spectrum.spinors(values_k)
        scratch = np.empty((1, packet.n), dtype=np.complex128)
        moments.sample(values_k[None], scratch, table[-1:])
    _finite(table, "an observable")
    final = WavePacket(packet.n, packet.length, spinors, float(times[-1]))
    return TrajectoryResult(times, *table.T, packet=final)


def write_trajectory_csv(stream, result: TrajectoryResult) -> None:
    """Write `t,norm,mean_x,spread,mean_k` rows at 17 significant digits."""
    stream.write("t,norm,mean_x,spread,mean_k\n")
    table = np.column_stack((result.times, result.norms, result.mean_x, result.spreads,
                             result.mean_k))
    stream.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist()))

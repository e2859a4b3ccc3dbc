"""Spectral evolution: construction, unitarity, phases, group velocity."""

import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from diraclab import evolution
from diraclab.evolution import (
    WavePacket,
    evolve,
    init_gaussian,
    observables,
    trajectory,
)
from diraclab.invariance import GeneralizedParams
from diraclab.operators import ALPHA, BETA, dispersion, hamiltonian_matrix, plane_wave_solve

STD = GeneralizedParams.standard(1.0)


def test_packet_validation():
    vals = np.zeros((128, 4), dtype=complex)
    with pytest.raises(ValueError):
        WavePacket(n=100, length=10.0, values=np.zeros((100, 4), dtype=complex))
    with pytest.raises(ValueError):
        WavePacket(n=32, length=10.0, values=np.zeros((32, 4), dtype=complex))
    with pytest.raises(ValueError):
        WavePacket(n=128, length=-1.0, values=vals)
    with pytest.raises(ValueError):
        WavePacket(n=128, length=10.0, values=np.zeros((128, 3), dtype=complex))
    # n must be an integer, a numpy integer included
    with pytest.raises(ValueError, match="n must be"):
        WavePacket(n=64.0, length=10.0, values=np.zeros((64, 4), dtype=complex))
    assert WavePacket(n=np.int64(64), length=10.0, values=np.zeros((64, 4))).n == 64


def test_init_resolution_guards():
    with pytest.raises(ValueError):
        init_gaussian(128, 100.0, 50.0, 0.5, width=1.0, params=STD)  # width < 5 dx
    with pytest.raises(ValueError):
        # momentum support hits the Nyquist bin
        init_gaussian(128, 100.0, 50.0, 3.9, width=10.0, params=STD)
    with pytest.raises(ValueError, match="n must be"):
        init_gaussian(128.0, 100.0, 50.0, 0.5, width=10.0, params=STD)
    for width in (0.0, -10.0):
        with pytest.raises(ValueError, match="width must be positive"):
            init_gaussian(128, 100.0, 50.0, 0.5, width=width, params=STD)
    # True and 1.0 are not the branch +1; 0 and 2 are not branches
    for branch in (True, 1.0, 0, 2):
        with pytest.raises(ValueError, match="^branch must be"):
            init_gaussian(128, 100.0, 50.0, 0.5, width=10.0, branch=branch, params=STD)


def test_init_observables():
    packet = init_gaussian(512, 100.0, 40.0, 0.8, width=6.0, params=STD)
    obs = observables(packet)
    assert obs.norm == pytest.approx(1.0, abs=1e-12)
    assert obs.mean_x == pytest.approx(40.0, abs=1e-6)
    assert obs.mean_k == pytest.approx(0.8, abs=1e-6)


def test_widest_gaussian_is_a_constant_envelope():
    # 2 width^2 is 2e300 here, so the exponent is below 1e-296 on the grid
    # and the envelope reads exactly 1: a unit-norm packet of constant
    # density.  A width whose 2 width^2 overflows is rejected by name.
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=1e150, params=STD)
    density = np.sum(np.abs(packet.values) ** 2, axis=1)
    assert np.sum(density) * packet.dx == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(density, 1.0 / packet.length, rtol=1e-14)
    with pytest.raises(ValueError, match="^width 1e\\+200 overflows double precision"):
        init_gaussian(128, 100.0, 50.0, 0.5, width=1e200, params=STD)


def test_init_spread_matches_envelope():
    width = 15.0
    packet = init_gaussian(1024, 300.0, 150.0, 0.3, width=width, params=STD)
    obs = observables(packet)
    assert obs.spread == pytest.approx(width / np.sqrt(2), rel=1e-3)


def test_negative_branch_energy_expectation():
    k0 = 0.4
    packet = init_gaussian(1024, 400.0, 200.0, k0, width=25.0, branch=-1, params=STD)
    psi_k = np.fft.fft(packet.values, axis=0)
    k = packet.k
    num = 0.0
    den = 0.0
    for m in range(packet.n):
        h = hamiltonian_matrix([0, 0, k[m]], STD)
        num += np.vdot(psi_k[m], h @ psi_k[m]).real
        den += np.vdot(psi_k[m], psi_k[m]).real
    expectation = num / den
    assert expectation == pytest.approx(dispersion(k0, STD, -1), abs=5e-3)


def test_plane_wave_mode_acquires_phase():
    n, length = 256, 64.0
    packet0 = init_gaussian(n, length, 32.0, 0.5, width=5.0, params=STD)
    k = packet0.k
    mode = 12
    sol = plane_wave_solve([0, 0, k[mode]], STD)[0]
    x = packet0.x
    values = np.exp(1j * k[mode] * x)[:, None] * sol.spinor[None, :]
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * packet0.dx)
    packet = WavePacket(n, length, values)
    t = 3.7
    out = evolve(packet, STD, t)
    np.testing.assert_allclose(
        out.values, np.exp(-1j * sol.energy * t) * packet.values, atol=1e-12
    )


def test_evolve_forward_backward():
    packet = init_gaussian(256, 100.0, 50.0, 0.6, width=7.0, params=STD)
    params = GeneralizedParams.from_physical(1.0, 0.3, (0.0, 0.0, 0.2))
    out = evolve(evolve(packet, params, 2.5), params, -2.5)
    assert np.max(np.abs(out.values - packet.values)) <= 1e-10
    assert out.time == pytest.approx(0.0)


def test_trajectory_norm_and_reversibility_quick():
    packet = init_gaussian(256, 100.0, 30.0, 0.5, width=7.0, params=STD)
    fwd = trajectory(packet, STD, dt=0.01, steps=400, sample_every=100)
    assert np.max(np.abs(fwd.norms - 1.0)) <= 1e-12
    back = trajectory(fwd.packet, STD, dt=-0.01, steps=400, sample_every=400)
    assert np.max(np.abs(back.packet.values - packet.values)) <= 1e-11
    assert fwd.times[-1] == pytest.approx(4.0)


def test_trajectory_sampling_layout():
    packet = init_gaussian(128, 100.0, 50.0, 0.0, width=8.0, params=STD)
    result = trajectory(packet, STD, dt=0.1, steps=10, sample_every=3)
    np.testing.assert_allclose(result.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    with pytest.raises(ValueError):
        trajectory(packet, STD, dt=0.1, steps=0)
    # step counts are integers: a fractional count would sample off the dt grid
    with pytest.raises(ValueError, match="steps"):
        trajectory(packet, STD, dt=0.1, steps=2.5)
    with pytest.raises(ValueError, match="sample_every"):
        trajectory(packet, STD, dt=0.1, steps=3, sample_every=1.5)
    with pytest.raises(ValueError, match="steps"):
        evolve(packet, STD, 0.1, steps=2.5)
    counted = trajectory(packet, STD, 0.1, np.int64(10), sample_every=np.int32(3))
    np.testing.assert_array_equal(counted.times, result.times)
    assert evolve(packet, STD, 0.1, np.int64(10)).time == result.packet.time


def test_sample_every_past_steps_gives_the_first_and_last_rows():
    # Any sample_every >= steps samples t = 0 and t = dt * steps, whatever
    # its size; one of 2**63 once lost the last row.
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=8.0, params=STD)
    ends = trajectory(packet, STD, 0.1, 4, sample_every=4)
    for sample_every in (5, 2**62, 2**63, 10**300):
        result = trajectory(packet, STD, 0.1, 4, sample_every=sample_every)
        for name in ("times", "norms", "mean_x", "spreads", "mean_k"):
            np.testing.assert_array_equal(getattr(result, name), getattr(ends, name))
        np.testing.assert_array_equal(result.packet.values, ends.packet.values)
        assert result.packet.time == ends.packet.time


def fitted_velocity(params, k0, t_total, n, length, width):
    """Packet velocity: the slope of a linear fit of the mean position at
    12 equal steps over t_total, from x0 = 0.3 * length.  Compare with
    the dispersion derivative (k0 + shift) / sqrt(m0^2 + (k0 + shift)^2)."""
    packet = init_gaussian(n, length, 0.3 * length, k0, width, params=params)
    result = trajectory(packet, params, t_total / 12, steps=12)
    return float(np.polyfit(result.times, result.mean_x, 1)[0])


def test_group_velocity_standard():
    v = fitted_velocity(STD, k0=0.5, t_total=30.0, n=512, length=200.0, width=10.0)
    expected = 0.5 / np.sqrt(1.25)
    assert v == pytest.approx(expected, rel=0.01)


def test_group_velocity_rest_packet():
    # residual slope is interference wobble, orders below the grid spacing
    v = fitted_velocity(STD, k0=0.0, t_total=10.0, n=256, length=100.0, width=8.0)
    assert abs(v) <= 1e-4


def test_group_velocity_shifted_params():
    params = GeneralizedParams.from_physical(1.0, 0.0, (0.0, 0.0, 0.5))
    v = fitted_velocity(params, k0=0.0, t_total=30.0, n=512, length=200.0, width=10.0)
    assert v == pytest.approx(0.5 / np.sqrt(1.25), rel=0.01)


def test_gauge_map_density_equivalence():
    # A shifted-parameter packet and the plain-mass packet at shifted
    # momentum differ by the pure phase exp(i*(shift.x - shift_e*t)), so
    # their densities agree at every sampled time.  The momentum shift is
    # chosen on the grid lattice so the phase is exactly periodic.
    length = 64.0 * np.pi
    n = 512
    p_shift = 0.5  # = 16 * (2*pi/length), exactly on the momentum lattice
    assert abs(p_shift * length / (2 * np.pi) - round(p_shift * length / (2 * np.pi))) < 1e-12
    gen = GeneralizedParams.from_physical(1.0, 0.3, (0.0, 0.0, p_shift))
    std = GeneralizedParams.standard(1.0)
    k0 = 0.5
    pa = init_gaussian(n, length, length / 3, k0, width=9.0, params=gen)
    pb = init_gaussian(n, length, length / 3, k0 + p_shift, width=9.0, params=std)
    for t in (0.0, 4.0, 11.0):
        da = np.sum(np.abs(evolve(pa, gen, t).values) ** 2, axis=1)
        db = np.sum(np.abs(evolve(pb, std, t).values) ** 2, axis=1)
        assert np.max(np.abs(da - db)) <= 1e-8


class TestClosedFormPropagator:
    N, LENGTH = 64, 16.0 * np.pi  # grid momenta are multiples of 1/8

    def random_packet(self, seed, components=(0, 1, 2, 3)):
        """Random spectral coefficients in `components`, exactly 0 in the rest."""
        rng = np.random.default_rng(seed)
        psi_k = np.zeros((self.N, 4), dtype=complex)
        shape = (self.N, len(components))
        psi_k[:, components] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return WavePacket(self.N, self.LENGTH, np.fft.ifft(psi_k, axis=0))

    @pytest.mark.parametrize(
        "params, components, reached",
        [
            (GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)),
             (0, 1, 2, 3), (0, 1, 2, 3)),
            # massless, with the grid mode k = 0.25 at k + p = 0
            (GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -0.25)),
             (0, 1, 2, 3), (0, 1, 2, 3)),
            # along z, H0 takes component 0 to 2 and never to 1 or 3
            (GeneralizedParams.from_physical(1.3, -0.4, (0.0, 0.0, 0.6)), (0,), (0, 2)),
            # a transverse p_tilde couples {0, 2} to {1, 3}
            (GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)),
             (0, 2), (0, 1, 2, 3)),
        ],
        ids=["generalized", "massless", "z-directed-component-0", "transverse-components-0-2"],
    )
    def test_evolve_matches_dense_exponential(self, params, components, reached):
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.LENGTH / self.N)
        packet = self.random_packet(91, components)
        psi_k = np.fft.fft(packet.values, axis=0)
        for t in (0.0, 0.37, -2.9):
            values = evolve(packet, params, t).values
            out = np.fft.fft(values, axis=0)
            for m in range(self.N):
                u = expm(-1j * hamiltonian_matrix([0.0, 0.0, k[m]], params) * t)
                np.testing.assert_allclose(out[m], u @ psi_k[m], rtol=0, atol=1e-12)
            if t != 0.0:
                np.testing.assert_array_equal(values.any(axis=0), np.isin(range(4), reached))

    @pytest.mark.parametrize(
        "params",
        [
            GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)),
            # massless, with w = 0 at the grid mode k = 0.25
            GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -0.25)),
        ],
        ids=["generalized", "massless"],
    )
    def test_branch_components_are_eigenvectors_of_h0(self, params):
        # _Spectrum's P+ psi0 and P- psi0 (scaled by 1/n) have the energies
        # +w and -w of H0 = H + eps_tilde on every mode, and sum to psi0 / n
        packet = self.random_packet(93)
        spectrum = evolution._Spectrum(packet, params)
        assert spectrum.rows.tolist() == [0, 1, 2, 3]
        psi0 = np.fft.fft(packet.values, axis=0).T
        scale = np.max(np.abs(psi0)) / self.N
        for m, k in enumerate(packet.k):
            h0 = hamiltonian_matrix([0.0, 0.0, k], params) + params.eps_tilde * np.eye(4)
            w = spectrum.w[m]
            for sign, part in ((+1, spectrum.plus[:, m]), (-1, spectrum.minus[:, m])):
                np.testing.assert_allclose(
                    h0 @ part, sign * w * part, rtol=0, atol=1e-14 * scale * max(w, 1.0)
                )
        np.testing.assert_allclose(
            spectrum.plus + spectrum.minus, psi0 / self.N, rtol=0, atol=1e-15 * scale
        )

    def test_coefficients_stay_unitary_at_long_times(self):
        # Re(z)^2 + Im(z)^2 = 1 to roundoff for z = exp(i w t), the phase
        # evolve and trajectory take their coefficients from, also where
        # w*t is in the hundreds
        params = GeneralizedParams.from_physical(1.23, 0.31, (0.0, 0.0, 0.12))
        packet = init_gaussian(4096, 800.0, 100.0, 0.55, width=10.0, params=params)
        w = evolution._Spectrum(packet, params).w
        z = np.empty(w.size, dtype=complex)
        for t in (0.5, 77.25, 499.5, -500.0):
            evolution._unit_phase(w, t, z)
            defect = np.abs(z.real) ** 2 + np.abs(z.imag) ** 2 - 1.0
            assert np.max(np.abs(defect)) <= 2e-15

    def test_composition(self):
        params = GeneralizedParams.from_physical(0.8, 0.3, (0.1, 0.2, -0.5))
        packet = self.random_packet(92)
        two_steps = evolve(evolve(packet, params, 1.9), params, 3.4)
        np.testing.assert_allclose(
            np.fft.fft(two_steps.values, axis=0),
            np.fft.fft(evolve(packet, params, 5.3).values, axis=0),
            rtol=0, atol=1e-12,
        )


def test_rejects_non_finite_inputs():
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=8.0, params=STD)
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            trajectory(packet, STD, dt=dt, steps=4)
        with pytest.raises(ValueError, match="dt"):
            evolve(packet, STD, dt)
    with pytest.raises(ValueError, match="length"):
        WavePacket(n=128, length=np.inf, values=packet.values)
    good = dict(n=128, length=100.0, x0=50.0, k0=0.5, width=8.0)
    for name in ("length", "x0", "k0", "width"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                init_gaussian(**{**good, name: bad}, params=STD)
    # a finite x0 so far off the grid that the envelope vanishes (or its
    # exponent overflows) on every grid point: no numpy warning, no division
    for x0 in (1e6, -300.0, 1e200, -1e308):
        with pytest.raises(ValueError, match="x0 = .* width 8.0 vanishes"):
            init_gaussian(**{**good, "x0": x0}, params=STD)


def test_init_gaussian_takes_params_by_keyword_only():
    # no default mass: the spinor is always that of the evolving parameters
    with pytest.raises(TypeError):
        init_gaussian(128, 100.0, 50.0, 0.5, 8.0)
    with pytest.raises(TypeError):
        init_gaussian(128, 100.0, 50.0, 0.5, 8.0, +1, STD)


def test_rejects_spans_that_overflow():
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=8.0, params=STD)
    late = WavePacket(packet.n, packet.length, packet.values, time=1e308)
    # dt*steps, or the end time, overflows: rejected before any work
    for start, dt, steps in ((packet, 1e308, 10), (late, 1e308, 1), (packet, -1e308, 3)):
        with pytest.raises(ValueError, match="overflows"):
            evolve(start, STD, dt, steps)
        with pytest.raises(ValueError, match="overflows"):
            trajectory(start, STD, dt, steps)
    # a finite span whose phase w*t overflows gives NaN modes
    with pytest.raises(ValueError, match="finite"):
        evolve(packet, STD, 1e307, 10)
    with pytest.raises(ValueError, match="finite"):
        trajectory(packet, STD, 1e307, 10, sample_every=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_packet_rejects_non_finite_values_and_time(bad):
    WavePacket(n=128, length=10.0, values=np.zeros((128, 4)), time=2.5)
    for part in (1.0, 1j):
        values = np.zeros((128, 4), dtype=complex)
        values[17, 2] = bad * part
        with pytest.raises(ValueError, match="finite"):
            WavePacket(n=128, length=10.0, values=values)
    with pytest.raises(ValueError, match="finite"):
        WavePacket(n=128, length=10.0, values=np.zeros((128, 4)), time=bad)


def test_propagator_rejects_overflowing_energy():
    # the grid energies come from operators._w, which raises on overflow
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=8.0, params=STD)
    heavy = GeneralizedParams.standard(1e200)
    with pytest.raises(ValueError, match="finite"):
        evolve(packet, heavy, 0.1)
    with pytest.raises(ValueError, match="finite"):
        trajectory(packet, heavy, 0.1, 4)


# Reference: the per-sample loop trajectory ran before it kept the spectral
# coefficients spinor-major.  It built a WavePacket per sample and reduced it
# with the old observables formulas, which FFT the sample back to k-space.
def reference_observables(packet):
    density = np.sum(np.abs(packet.values) ** 2, axis=1)
    norm = float(np.sum(density) * packet.dx)
    weight = density * packet.dx / norm
    mean_x = float(np.sum(packet.x * weight))
    var = float(np.sum((packet.x - mean_x) ** 2 * weight))
    kweight = np.sum(np.abs(np.fft.fft(packet.values, axis=0)) ** 2, axis=1)
    mean_k = float(np.sum(packet.k * kweight) / np.sum(kweight))
    return [norm, mean_x, np.sqrt(max(var, 0.0)), mean_k]


def reference_trajectory(packet, params, dt, steps, sample_every):
    times, rows, done, current = [packet.time], [reference_observables(packet)], 0, packet
    while done < steps:
        done += min(sample_every, steps - done)
        current = evolve(packet, params, dt, done)
        times.append(current.time)
        rows.append(reference_observables(current))
    return np.array(times), np.array(rows), current


@pytest.mark.parametrize(
    "params, k0, dt, steps, sample_every, t0, branch",
    [
        (GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)), 0.5, -0.37, 23, 5, 2.5, +1),
        (GeneralizedParams.from_physical(0.0, 0.7, (0.1, 0.0, -0.25)), 0.4, 0.45, 17, 4, -1.25, +1),
        # p_tilde along z: the packet occupies components 0 and 2 only
        (GeneralizedParams.from_physical(1.23, 0.31, (0.0, 0.0, 0.12)), 0.55, 0.5, 19, 3, 0.75, +1),
        (GeneralizedParams.from_physical(0.9, -0.2, (0.0, 0.0, -0.3)), 0.45, -0.6, 14, 5, 0.0, -1),
    ],
    ids=["generalized", "massless", "z-directed-branch+1", "z-directed-branch-1"],
)
def test_trajectory_matches_per_sample_loop_and_evolve(
    params, k0, dt, steps, sample_every, t0, branch
):
    start = init_gaussian(256, 100.0, 50.0, k0, width=8.0, branch=branch, params=params)
    packet = WavePacket(start.n, start.length, start.values, time=t0)
    result = trajectory(packet, params, dt, steps, sample_every)

    times, rows, final = reference_trajectory(packet, params, dt, steps, sample_every)
    np.testing.assert_array_equal(result.times, times)
    columns = np.column_stack([result.norms, result.mean_x, result.spreads, result.mean_k])
    np.testing.assert_allclose(columns, rows, rtol=1e-13, atol=0)
    np.testing.assert_allclose(result.packet.values, final.values, rtol=1e-13, atol=0)

    done = [*range(0, steps, sample_every), steps]
    assert result.times.size == len(done)
    for j, n_steps in enumerate(done):
        expected = observables(evolve(packet, params, dt, n_steps))
        got = [result.norms[j], result.mean_x[j], result.spreads[j], result.mean_k[j]]
        np.testing.assert_allclose(
            got, [expected.norm, expected.mean_x, expected.spread, expected.mean_k],
            rtol=1e-13, atol=0,
        )
    direct = evolve(packet, params, dt, steps)
    np.testing.assert_array_equal(result.packet.values, direct.values)
    assert result.packet.time == direct.time == times[-1]


def assert_rows_match_evolve(result, packet, params, dt, steps, sample_every, rows):
    for j in rows:
        expected = observables(evolve(packet, params, dt, min(j * sample_every, steps)))
        got = [result.norms[j], result.mean_x[j], result.spreads[j], result.mean_k[j]]
        np.testing.assert_allclose(
            got, [expected.norm, expected.mean_x, expected.spread, expected.mean_k],
            rtol=1e-13, atol=0, err_msg=f"row {j}",
        )


def test_phase_chain_rows_match_evolve_across_blocks():
    # Several refreshes of the phase chain, several steps per sample and a
    # partial last step: rows on both sides of each refresh (z_j is one
    # np.exp there and a product with exp(i w tau) after it), of each block
    # boundary and of a block boundary mid-run, and the last row, match
    # evolve.
    params = GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6))
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=params)
    refresh, sample_every = evolution._REFRESH, 3
    steps = sample_every * (2 * refresh + 5) + 2
    dt = 0.37
    result = trajectory(packet, params, dt, steps, sample_every)
    last = result.times.size - 1
    assert last == 2 * refresh + 6
    size = max(1, evolution._BLOCK_ROWS // len(evolution._Spectrum(packet, params).rows))
    blocks = -(-last // size)
    middle = blocks // 2 * size
    rows = [1, 2, 3, refresh - 1, refresh, refresh + 1, 2 * refresh - 1, 2 * refresh,
            2 * refresh + 1, middle - 1, middle, last - 1, last]
    assert_rows_match_evolve(result, packet, params, dt, steps, sample_every, rows)
    np.testing.assert_array_equal(result.packet.values, evolve(packet, params, dt, steps).values)


def test_massless_zero_mode_on_the_phase_chain():
    # m0 = 0 and p_tilde = -k[m]: grid mode m has w = 0 exactly, where
    # H0 = 0 and 1/w is read as 0, so both projectors are 1/2 there.
    n, length, m = 256, 64.0, 5
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    params = GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -k[m]))
    packet = init_gaussian(n, length, 32.0, 0.3, width=4.0, params=params)
    spectrum = evolution._Spectrum(packet, params)
    psi0 = np.fft.fft(packet.values, axis=0).T[spectrum.rows]
    assert spectrum.w[m] == 0.0 and psi0[:, m].any()
    np.testing.assert_array_equal(spectrum.plus[:, m], psi0[:, m] / (2 * n))
    np.testing.assert_array_equal(spectrum.minus[:, m], psi0[:, m] / (2 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = trajectory(packet, params, 0.45, 60, sample_every=2)
    table = np.column_stack([result.norms, result.mean_x, result.spreads, result.mean_k])
    assert np.isfinite(table).all()
    assert_rows_match_evolve(result, packet, params, 0.45, 60, 2, range(result.times.size))


def dense_packet():
    # the evolve_dense benchmark's grid and packet
    params = GeneralizedParams.from_physical(1.23, 0.31, (0.0, 0.0, 0.12))
    return init_gaussian(4096, 800.0, 100.0, 0.55, width=10.0, params=params), params


def test_spectrum_keeps_only_the_occupied_components():
    # The evolve_dense packet lives in components 0 and 2, so each sample
    # combines and inverse-FFTs 2 rows; a transverse p_tilde reaches all 4.
    packet, params = dense_packet()
    spectrum = evolution._Spectrum(packet, params)
    assert spectrum.rows.tolist() == [0, 2]
    assert spectrum.plus.shape == spectrum.minus.shape == (2, packet.n)
    assert not packet.values[:, [1, 3]].any()
    transverse = GeneralizedParams.from_physical(1.23, 0.31, (0.05, 0.0, 0.12))
    assert evolution._Spectrum(packet, transverse).rows.tolist() == [0, 1, 2, 3]


def test_zero_packet_has_no_moments():
    zero = WavePacket(128, 100.0, np.zeros((128, 4)))
    with pytest.raises(ValueError, match="zero norm"):
        observables(zero)
    with pytest.raises(ValueError, match="zero norm"):
        trajectory(zero, STD, 0.1, 4)
    # with no occupied component, evolve returns the zero packet
    out = evolve(zero, STD, 0.1, 3)
    assert out.values.shape == (128, 4) and not out.values.any()


def test_norm_is_conserved_over_a_long_dense_trajectory():
    packet, params = dense_packet()
    result = trajectory(packet, params, 0.5, 1000)
    assert np.max(np.abs(result.norms - 1.0)) <= 4e-15


def test_spectrum_setup_memory_peak():
    # H0 psi0 is one fixed 4x4 product plus k_z times alpha_z psi0, with no
    # (n, 4, 4) Hamiltonian stack (1 MiB alone at n = 4096).
    packet, params = dense_packet()
    evolution._Spectrum(packet, params)  # numpy's one-time FFT setup
    tracemalloc.start()
    try:
        evolution._Spectrum(packet, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_spectrum_at_memory_peak_and_bits(monkeypatch):
    # _Spectrum.at holds its result (r x n complex) and z (n complex),
    # 192 KiB at n = 4096 on two rows.  Its broadcasts run with ufunc
    # buffers of _BUFSIZE elements, not numpy's 8192 (128 KiB complex,
    # a peak of about 321 KiB), and the values do not depend on that size.
    packet, params = dense_packet()
    spectrum = evolution._Spectrum(packet, params)
    spectrum.at(3.0)
    tracemalloc.start()
    try:
        spectrum.at(3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 224 * 2**10
    assert np.getbufsize() == 8192
    values = evolve(packet, params, 0.5, 37).values
    monkeypatch.setattr(evolution, "_BUFSIZE", 8192)
    np.testing.assert_array_equal(evolve(packet, params, 0.5, 37).values, values)


def test_trajectory_memory_peak_does_not_grow_with_steps():
    # Samples reuse their buffers: the traced peak stays under a fixed
    # bound and the same for 20 and 400 steps.
    packet, params = dense_packet()
    trajectory(packet, params, 0.5, 2)  # numpy's one-time FFT setup
    peaks = []
    for steps in (20, 400):
        tracemalloc.start()
        try:
            trajectory(packet, params, 0.5, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 3.5 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 64 * 2**10


# Independent oracles: each generalized parameter maps the grid evolution
# exactly onto standard evolution (eps_tilde = 0, p_tilde = 0), so the
# generalized trajectories are checked against trajectories that take the
# closed form through different modes, phases and spinor rows.
def columns(result):
    return np.column_stack([result.norms, result.mean_x, result.spreads, result.mean_k])


def assert_close_to(got, expected):
    """got within 1e-13 of expected, relative to expected's largest entry."""
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("m0, branch", [(1.3, +1), (0.9, -1), (0.0, +1)])
def test_eps_tilde_is_a_global_phase(m0, branch):
    eps, p_tilde = 0.37, (0.2, -0.1, 0.6)
    params = GeneralizedParams.from_physical(m0, eps, p_tilde)
    plain = GeneralizedParams.from_physical(m0, 0.0, p_tilde)
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, branch=branch, params=params)
    for t in (0.37, -2.9, 41.5):
        expected = np.exp(1j * eps * t) * evolve(packet, plain, t).values
        assert_close_to(evolve(packet, params, t).values, expected)


@pytest.mark.parametrize(
    "m0, eps, m, branch", [(1.0, 0.37, 3, +1), (0.0, -0.2, -5, +1), (1.2, 0.1, 4, -1)]
)
def test_p_tilde_along_z_is_a_momentum_shift(m0, eps, m, branch):
    # p_tilde = 2 pi m / L is a shift by m grid modes: psi evolves as the
    # standard packet exp(i p_tilde z) psi, whose mean_k is higher by p_tilde.
    # The packet stays far from the periodic boundary, so the few modes the
    # shift wraps across the Nyquist bin carry no weight.
    n, length, dt, steps = 1024, 400.0, 0.5, 120
    p_tilde = 2.0 * np.pi * m / length
    params = GeneralizedParams.from_physical(m0, eps, (0.0, 0.0, p_tilde))
    packet = init_gaussian(n, length, 200.0, 0.4, width=10.0, branch=branch, params=params)
    boost = np.exp(1j * p_tilde * packet.x)[:, None]
    got = trajectory(packet, params, dt, steps, sample_every=7)
    expected = trajectory(WavePacket(n, length, boost * packet.values),
                          GeneralizedParams.standard(m0), dt, steps, sample_every=7)
    shifted = columns(expected) - [0.0, 0.0, 0.0, p_tilde]
    np.testing.assert_allclose(columns(got), shifted, rtol=1e-13, atol=0)
    assert_close_to(got.packet.values, np.exp(1j * eps * dt * steps) / boost * expected.packet.values)


def mass_map(m0, p_perp):
    """U = cos(theta/2) + sin(theta/2) beta (n.alpha), tan(theta) = |p_perp|/m0,
    and the standard parameters of mass m_eff = sqrt(m0^2 + |p_perp|^2)."""
    size = math.hypot(*p_perp)
    theta = math.atan2(size, m0)
    n_alpha = (p_perp[0] * ALPHA[0] + p_perp[1] * ALPHA[1]) / size
    u = math.cos(theta / 2) * np.eye(4) + math.sin(theta / 2) * (BETA @ n_alpha)
    return u, GeneralizedParams.standard(math.hypot(m0, size))


@pytest.mark.parametrize(
    "m0, p_perp, branch", [(1.0, (0.6, -0.3), +1), (0.0, (0.25, 0.4), +1), (1.3, (-0.2, 0.1), -1)]
)
def test_transverse_p_tilde_is_extra_mass(m0, p_perp, branch):
    # U (mass_map) commutes with alpha_z and takes alpha.p_perp + m0 beta to
    # m_eff beta: psi evolves as the standard packet U psi at mass m_eff
    eps, dt, steps = 0.31, 0.45, 90
    params = GeneralizedParams.from_physical(m0, eps, (*p_perp, 0.0))
    u, heavy = mass_map(m0, p_perp)
    h0 = hamiltonian_matrix(0.0, params) + eps * np.eye(4)
    np.testing.assert_allclose(u @ h0 @ u.conj().T, hamiltonian_matrix(0.0, heavy), atol=1e-15)
    np.testing.assert_allclose(u @ ALPHA[2], ALPHA[2] @ u, atol=1e-15)

    packet = init_gaussian(512, 100.0, 40.0, 0.5, width=8.0, branch=branch, params=params)
    assert evolution._Spectrum(packet, params).rows.tolist() == [0, 1, 2, 3]
    got = trajectory(packet, params, dt, steps, sample_every=4)
    expected = trajectory(WavePacket(512, 100.0, packet.values @ u.T), heavy, dt, steps,
                          sample_every=4)
    np.testing.assert_allclose(columns(got), columns(expected), rtol=1e-13, atol=0)
    assert_close_to(got.packet.values @ u.T,
                    np.exp(1j * eps * dt * steps) * expected.packet.values)


@settings(max_examples=8, deadline=None)
@given(
    m0=st.floats(0.0, 2.0),
    eps=st.floats(-1.0, 1.0),
    p_perp=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    branch=st.sampled_from([+1, -1]),
)
def test_generalized_evolution_is_mapped_standard_evolution(m0, eps, p_perp, branch):
    # eps_tilde is the global phase exp(i eps t), and a transverse p_tilde
    # is extra mass, over the parameter space; the trajectories run on all
    # four spinor components.
    assume(math.hypot(*p_perp) >= 1e-3)
    dt, steps = 0.45, 90
    params = GeneralizedParams.from_physical(m0, eps, (*p_perp, 0.0))
    packet = init_gaussian(256, 100.0, 40.0, 0.5, width=8.0, branch=branch, params=params)
    plain = GeneralizedParams.from_physical(m0, 0.0, (*p_perp, 0.0))
    expected = np.exp(1j * eps * dt * steps) * evolve(packet, plain, dt, steps).values
    assert_close_to(evolve(packet, params, dt, steps).values, expected)

    u, heavy = mass_map(m0, p_perp)
    assert evolution._Spectrum(packet, params).rows.tolist() == [0, 1, 2, 3]
    got = trajectory(packet, params, dt, steps, sample_every=4)
    mapped = trajectory(WavePacket(256, 100.0, packet.values @ u.T), heavy, dt, steps,
                        sample_every=4)
    np.testing.assert_allclose(columns(got), columns(mapped), rtol=1e-13, atol=0)
    assert_close_to(got.packet.values @ u.T,
                    np.exp(1j * eps * dt * steps) * mapped.packet.values)


@pytest.mark.parametrize(
    "m0, eps, p_tilde, branch",
    [(1.23, 0.31, (0.0, 0.0, 0.12), +1), (1.0, -0.2, (0.0, 0.0, -0.3), -1),
     (0.1, 0.4, (0.0, 0.0, 0.2), +1), (0.9, 0.2, (0.3, -0.2, 0.1), -1)],
)
def test_single_branch_packet_moves_at_its_mean_group_velocity(m0, eps, p_tilde, branch):
    # On one branch P+- alpha_z P+- = +-(k + p_z)/w P+-, so the packet
    # P+- psi has mean_x(t) = mean_x(0) + t <v> and a variance quadratic in
    # t with leading coefficient Var(v), v = +-(k + p_z)/w over its momentum
    # density: no Zitterbewegung.  The domain is m0 > 0 (or a packet whose
    # support stays away from k = -p_z): at m0 = 0, P+- jumps at k = -p_z,
    # and the projected packet, cut off sharply in k, has slowly decaying
    # tails in x that reach the periodic seam (2.3e-4 at m0 = 0, p_z = -0.3).
    n, length = 1024, 800.0
    params = GeneralizedParams.from_physical(m0, eps, p_tilde)
    start = init_gaussian(n, length, 300.0, 0.55, width=10.0, branch=branch, params=params)
    spectrum = evolution._Spectrum(start, params)
    coefficients = spectrum.plus if branch == +1 else spectrum.minus
    packet = WavePacket(n, length, spectrum.spinors(coefficients))
    v = branch * (packet.k + p_tilde[2]) / spectrum.w
    density = np.sum(np.abs(coefficients) ** 2, axis=0)
    density /= density.sum()
    mean_v = density @ v
    var_v = density @ (v - mean_v) ** 2

    result = trajectory(packet, params, 5.0, 40)
    t = result.times
    assert_close_to(result.mean_x, result.mean_x[0] + t * mean_v)
    var = result.spreads ** 2
    linear = var - var_v * t ** 2
    assert_close_to(linear, np.polyval(np.polyfit(t, linear, 1), t))


# The sampler: trajectory's samples between the first and the last run in
# fixed blocks; with two usable CPUs a helper thread takes each block's
# inverse FFT.
def with_cpus(monkeypatch, cpus):
    """Run trajectory's sampler as on `cpus` usable CPUs, whatever the host has."""
    monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize(
    "m0, p_tilde, rows",
    [(1.23, (0.0, 0.0, 0.12), [0, 2]), (1.23, (0.05, -0.1, 0.12), [0, 1, 2, 3]),
     (0.0, (0.0, 0.0, -0.3), [0, 2])],
    ids=["two-rows", "four-rows", "massless"],
)
@pytest.mark.parametrize(
    "steps, sample_every",
    # no sample between the first and the last, one, two; a partial last
    # step and a partial final block; three refreshes of the phase chain
    [(1, 1), (2, 1), (3, 1), (23, 5), (40, 3), (73, 1)],
)
def test_one_worker_and_two_give_the_same_bits(monkeypatch, m0, p_tilde, rows, steps,
                                               sample_every):
    # Blocks of 2, 6, 8 and 16 spinor rows: on two rows, blocks of 1, 3, 4
    # and 8 samples (3 does not divide _REFRESH); on four, of 1, 1, 2 and 4.
    # One CPU runs every stage in the calling thread on one buffer; two
    # hand each block's inverse FFT to the helper.
    params = GeneralizedParams.from_physical(m0, 0.31, p_tilde)
    packet = init_gaussian(512, 100.0, 40.0, 0.55, width=8.0, params=params)
    assert evolution._Spectrum(packet, params).rows.tolist() == rows
    results = []
    for block_rows in (2, 6, 8, 16):
        monkeypatch.setattr(evolution, "_BLOCK_ROWS", block_rows)
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            results.append(trajectory(packet, params, 0.45, steps, sample_every))
    first = results[0]
    for result in results[1:]:
        np.testing.assert_array_equal(result.times, first.times)
        np.testing.assert_array_equal(columns(result), columns(first))
        np.testing.assert_array_equal(result.packet.values, first.packet.values)
    np.testing.assert_array_equal(first.packet.values, evolve(packet, params, 0.45, steps).values)


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # The helper shares the two block buffers with the calling thread,
    # which writes the table, on more CPUs than the host may have, while
    # the interpreter hands the GIL over as often as it can: the bits
    # match one CPU's.
    params = GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6))
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=params)
    with_cpus(monkeypatch, 1)
    one = trajectory(packet, params, 0.37, 90)
    with_cpus(monkeypatch, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = trajectory(packet, params, 0.37, 90)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(columns(many), columns(one))
    np.testing.assert_array_equal(many.packet.values, one.packet.values)


def test_usable_cpus_without_affinity(monkeypatch):
    # Platforms without os.sched_getaffinity (macOS) count os.cpu_count(),
    # or one CPU where that is unknown; the samples keep their bits.
    params = GeneralizedParams.from_physical(1.3, -0.4, (0.0, 0.0, 0.2))
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=params)
    with_affinity = trajectory(packet, params, 0.37, 90)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert evolution._usable_cpus() == (os.cpu_count() or 1)
    without = trajectory(packet, params, 0.37, 90)
    np.testing.assert_array_equal(columns(without), columns(with_affinity))
    np.testing.assert_array_equal(without.packet.values, with_affinity.packet.values)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert evolution._usable_cpus() == 1


@pytest.mark.parametrize(
    "cpus, steps, helpers",
    # two rows run blocks of four samples: 40 steps make ten blocks, 4
    # make one (samples 1 to 3)
    [(1, 40, 0), (2, 40, 1), (6, 40, 1), (2, 4, 0)],
)
def test_the_helper_runs_on_two_cpus_and_two_blocks(monkeypatch, cpus, steps, helpers):
    # The threads alive while the position moments are reduced: one more
    # than before trajectory only where a helper runs, and none after it.
    with_cpus(monkeypatch, cpus)
    position = evolution._Moments.position
    alive = []

    def counting(self, *args):
        alive.append(threading.active_count())
        position(self, *args)

    monkeypatch.setattr(evolution._Moments, "position", counting)
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=STD)
    before = threading.active_count()
    trajectory(packet, STD, 0.1, steps)
    assert max(alive) == before + helpers
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_worker_exception_reaches_the_caller(monkeypatch, failing):
    # The third inverse FFT in the helper, or the third position reduction
    # in the calling thread, raises while the helper runs: trajectory
    # raises that exception after the helper ended.
    with_cpus(monkeypatch, 2)
    target = (np.fft, "ifft") if failing == "helper" else (evolution._Moments, "position")
    original = getattr(*target)
    calls = []

    def fail_on_the_third(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
            calls.append(threading.active_count())
            if len(calls) == 3:
                raise RuntimeError(f"{failing} failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(*target, fail_on_the_third)
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=STD)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        trajectory(packet, STD, 0.1, 40)
    # the helper may take one more block before the caller reads its error
    assert len(calls) >= 3 and calls[2] == before + 1
    assert threading.active_count() == before


def test_overflow_raises_with_no_warning_from_either_worker(monkeypatch):
    # Sample 8 is a refresh of the phase chain whose argument w*t
    # overflows.  The calling thread ignores the overflow of its phases and
    # the helper the NaN in its inverse FFTs (numpy's error state is per
    # thread), and trajectory rejects the NaN samples.
    with_cpus(monkeypatch, 2)
    monkeypatch.setattr(evolution, "_REFRESH", 4)
    packet = init_gaussian(128, 100.0, 50.0, 0.5, width=8.0, params=STD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            trajectory(packet, STD, 1e307, 16)


# mean_k is conserved: each mode evolves under its own unitary exp(-iHt),
# so its weight, and with it the momentum distribution, never changes.
# trajectory reduces mean_k for its first and last rows only.
def premise_packet(case):
    if case == "two-rows":
        return dense_packet()
    if case == "four-rows":
        params = GeneralizedParams.from_physical(1.23, 0.31, (0.05, -0.1, 0.12))
        return init_gaussian(512, 100.0, 40.0, 0.55, width=8.0, params=params), params
    if case == "massless-zero-mode":
        n, length, m = 256, 64.0, 5
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        params = GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -k[m]))
        return init_gaussian(n, length, 32.0, 0.3, width=4.0, params=params), params
    params = GeneralizedParams.from_physical(0.9, -0.2, (0.0, 0.0, -0.3))
    return init_gaussian(256, 100.0, 50.0, 0.45, width=6.0, branch=-1, params=params), params


@pytest.mark.parametrize("case", ["two-rows", "four-rows", "massless-zero-mode", "branch-1"])
def test_mean_k_of_every_sample_is_row_0s(case):
    # States formed at samples on both sides of a refresh of the phase
    # chain and of a block boundary reduce to row 0's mean_k within
    # 1e-14 of the packet's rms momentum, a gate set before measuring.
    packet, params = premise_packet(case)
    spectrum = evolution._Spectrum(packet, params)
    if case == "massless-zero-mode":
        assert not spectrum.w.all()
    r = len(spectrum.rows)
    assert r == (4 if case == "four-rows" else 2)
    size = max(1, evolution._BLOCK_ROWS // r)
    refresh, tau = evolution._REFRESH, 0.45
    steps = 2 * refresh + 3
    result = trajectory(packet, params, tau, steps)
    boundary = (refresh // size + 2) * size
    samples = np.array([1, refresh - 1, refresh, refresh + 1, boundary - 1, boundary, steps - 1])
    z = np.empty((samples.size, 1, packet.n), dtype=np.complex128)
    for i, j in enumerate(samples):
        evolution._unit_phase(spectrum.w, tau * j, z[i, 0])
    states = spectrum.state(z, np.empty((samples.size, r, packet.n), dtype=np.complex128))
    moments = evolution._Moments(packet)
    out = np.empty((samples.size, 4))
    moments.momentum(states, np.empty((samples.size, packet.n), dtype=np.complex128), out)

    weight = np.sum(np.abs(np.fft.fft(packet.values, axis=0)) ** 2, axis=1)
    k_rms = math.sqrt(np.sum(packet.k ** 2 * weight) / np.sum(weight))
    assert np.max(np.abs(out[:, 3] - result.mean_k[0])) <= 1e-14 * k_rms
    assert np.all(result.mean_k[1:-1] == result.mean_k[0])

    # the last row is reduced from its own state, the one evolve's packet gives
    final = spectrum.at(tau * steps)[None]
    moments.momentum(final, np.empty((1, packet.n), dtype=np.complex128), out[:1])
    assert result.mean_k[-1] == out[0, 3]
    np.testing.assert_array_equal(result.packet.values, evolve(packet, params, tau, steps).values)
    assert result.mean_k[-1] == pytest.approx(observables(result.packet).mean_k, rel=1e-13)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("steps", [1, 3, 1000])
def test_mean_k_is_reduced_for_the_first_and_last_rows_only(monkeypatch, cpus, steps):
    with_cpus(monkeypatch, cpus)
    momentum = evolution._Moments.momentum
    calls = []

    def counting(self, values_k, *args):
        calls.append(len(values_k))
        momentum(self, values_k, *args)

    monkeypatch.setattr(evolution._Moments, "momentum", counting)
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=STD)
    result = trajectory(packet, STD, 0.1, steps)
    assert result.times.size == steps + 1
    assert calls == [1, 1]

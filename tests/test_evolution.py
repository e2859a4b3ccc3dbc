"""Spectral evolution: construction, unitarity, phases, group velocity."""

import tracemalloc
import warnings

import numpy as np
import pytest
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
from diraclab.operators import dispersion, hamiltonian_matrix, plane_wave_solve

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


def test_init_observables():
    packet = init_gaussian(512, 100.0, 40.0, 0.8, width=6.0, params=STD)
    obs = observables(packet)
    assert obs.norm == pytest.approx(1.0, abs=1e-12)
    assert obs.mean_x == pytest.approx(40.0, abs=1e-6)
    assert obs.mean_k == pytest.approx(0.8, abs=1e-6)


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

    def random_packet(self, seed):
        rng = np.random.default_rng(seed)
        psi_k = rng.normal(size=(self.N, 4)) + 1j * rng.normal(size=(self.N, 4))
        return WavePacket(self.N, self.LENGTH, np.fft.ifft(psi_k, axis=0))

    @pytest.mark.parametrize(
        "params",
        [
            GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)),
            # massless, with the grid mode k = 0.25 at k + p = 0
            GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -0.25)),
        ],
        ids=["generalized", "massless"],
    )
    def test_evolve_matches_dense_exponential(self, params):
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.LENGTH / self.N)
        packet = self.random_packet(91)
        psi_k = np.fft.fft(packet.values, axis=0)
        for t in (0.0, 0.37, -2.9):
            out = np.fft.fft(evolve(packet, params, t).values, axis=0)
            for m in range(self.N):
                u = expm(-1j * hamiltonian_matrix([0.0, 0.0, k[m]], params) * t)
                np.testing.assert_allclose(out[m], u @ psi_k[m], rtol=0, atol=1e-12)

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
    "params, k0, dt, steps, sample_every, t0",
    [
        (GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6)), 0.5, -0.37, 23, 5, 2.5),
        (GeneralizedParams.from_physical(0.0, 0.7, (0.1, 0.0, -0.25)), 0.4, 0.45, 17, 4, -1.25),
    ],
    ids=["generalized", "massless"],
)
def test_trajectory_matches_per_sample_loop_and_evolve(params, k0, dt, steps, sample_every, t0):
    start = init_gaussian(256, 100.0, 50.0, k0, width=8.0, params=params)
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


def test_phase_table_rows_match_evolve_across_blocks():
    # More than three blocks of samples, several steps per sample and a
    # partial last step: rows on both sides of each block boundary, where
    # the block factor is refreshed, and the last row match evolve.
    params = GeneralizedParams.from_physical(1.3, -0.4, (0.2, -0.1, 0.6))
    packet = init_gaussian(256, 100.0, 50.0, 0.5, width=8.0, params=params)
    block, sample_every = evolution._BLOCK, 3
    steps = sample_every * (3 * block + 2) + 2
    dt = 0.37
    result = trajectory(packet, params, dt, steps, sample_every)
    last = result.times.size - 1
    assert last == 3 * block + 3
    rows = [1, block - 1, block, block + 1, 2 * block, 3 * block, last - 1, last]
    assert_rows_match_evolve(result, packet, params, dt, steps, sample_every, rows)
    np.testing.assert_array_equal(result.packet.values, evolve(packet, params, dt, steps).values)


def test_massless_zero_mode_on_the_phase_table():
    # m0 = 0 and p_tilde = -k[m]: grid mode m has w = 0 exactly, where
    # sin(wt)/w is read as 0: the term it scales, -i H0 psi0, is 0 there.
    n, length, m = 256, 64.0, 5
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    params = GeneralizedParams.from_physical(0.0, 0.7, (0.0, 0.0, -k[m]))
    packet = init_gaussian(n, length, 32.0, 0.3, width=4.0, params=params)
    spectrum = evolution._Spectrum(packet, params)
    assert spectrum.w[m] == 0.0 and not spectrum.minus_i_h0_psi0[:, m].any()
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


def test_norm_is_conserved_over_a_long_dense_trajectory():
    packet, params = dense_packet()
    result = trajectory(packet, params, 0.5, 1000)
    assert np.max(np.abs(result.norms - 1.0)) <= 4e-15


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

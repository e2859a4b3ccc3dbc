"""Non-relativistic limit forms and their approach to the full branch."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diraclab.clifford import pauli
from diraclab.invariance import GeneralizedParams
from diraclab.nonrel import (
    NonRelParams,
    _levy_leblond_spinors,
    _nonrel_stack,
    dirac_energy,
    kinetic_minus_rest,
    levy_leblond_solve,
    nonrel_abs_error,
    nonrel_error,
    pauli_energy,
)
from diraclab.operators import (
    dirac_square_equals_kg,
    dispersion,
    hamiltonian_matrix,
    kg_rhs_matrix,
    plane_wave_solve,
)

FREE = NonRelParams(m0=1.0)


def random_nonrel(rng):
    return NonRelParams(
        m0=float(rng.uniform(0.2, 4.0)),
        eps_tilde=float(rng.uniform(-1.0, 1.0)),
        c_tilde=rng.uniform(-1.0, 1.0, 3),
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NonRelParams(m0=0.0)
        with pytest.raises(ValueError):
            NonRelParams(m0=1.0, c_light=0.0)
        with pytest.raises(ValueError):
            NonRelParams(m0=1.0, c_tilde=np.zeros(2))
        with pytest.raises(ValueError, match=r"^c_tilde must be a real number, got \(0.0, 'b', 0.0\)"):
            NonRelParams(m0=1.0, c_tilde=(0.0, "b", 0.0))
        with pytest.raises(ValueError, match="^m0 must be a real number, got 'a'"):
            NonRelParams(m0="a")
        with pytest.raises(ValueError, match="^c_light must be a real number, got 'x'"):
            NonRelParams(m0=1.0, c_light="x")
        with pytest.raises(ValueError, match="^parameters must be finite, got eps_tilde=None$"):
            NonRelParams(m0=1.0, eps_tilde=None)

    @pytest.mark.parametrize("field", ["m0", "eps_tilde", "c_tilde", "c_light"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"m0": 1.0, field: (0.0, value, 0.0) if field == "c_tilde" else value}
        # a non-finite shift is a parameter, not a momentum k; the message
        # names the field and shows the value passed
        with pytest.raises(ValueError, match="parameters" if field == "c_tilde" else None) as info:
            NonRelParams(**kwargs)
        assert field in str(info.value) and repr(kwargs[field]) in str(info.value)

    def test_overflowing_energy_raises_value_error(self):
        # finite inputs whose energy overflows: Python float ** raised
        # OverflowError here, and numpy arrays returned inf
        stack = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e200]])
        big_c = NonRelParams(m0=1.0, c_light=1e200)
        tiny_m0 = NonRelParams(m0=1e-10)
        calls = [
            lambda: dispersion(0.0, GeneralizedParams.from_physical(1e200)),
            lambda: dirac_energy(0.5, NonRelParams(m0=1e200)),
            lambda: kinetic_minus_rest(0.5, big_c),
            lambda: nonrel_abs_error(0.5, big_c),
            lambda: nonrel_error(0.5, big_c),
            lambda: dirac_energy(stack, FREE),
            lambda: pauli_energy(stack, FREE),
            # |k|^2 finite, the division by a tiny 2 m0 or the square not
            lambda: pauli_energy(1e150, tiny_m0),
            lambda: nonrel_abs_error(1e150, tiny_m0),
            lambda: levy_leblond_solve(1e150, tiny_m0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_scalar_c_tilde_means_z(self):
        p = NonRelParams(m0=1.0, c_tilde=0.2)
        np.testing.assert_allclose(p.c_tilde, [0, 0, 0.2])


class TestPauliEnergy:
    def test_free_rest(self):
        assert pauli_energy(np.zeros(3), FREE) == 0.0

    def test_free_momentum(self):
        assert pauli_energy([0, 0, 0.1], FREE) == pytest.approx(0.005)

    def test_shifted_example(self):
        p = NonRelParams(m0=1.0, eps_tilde=0.1, c_tilde=(0, 0, 0.2))
        assert pauli_energy(np.zeros(3), p) == pytest.approx(-0.08)


class TestLevyLeblond:
    def test_rest_case(self):
        p = NonRelParams(m0=1.0, eps_tilde=0.4)
        sol = levy_leblond_solve(np.zeros(3), p)
        assert sol.energy == pytest.approx(-0.4)
        np.testing.assert_allclose(sol.chi, 0, atol=1e-15)

    def test_example_energy(self):
        sol = levy_leblond_solve([0, 0, 0.2], FREE)
        assert sol.energy == pytest.approx(0.02)

    def test_chi_elimination_relation(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = random_nonrel(rng)
            k = rng.uniform(-1, 1, 3)
            kk = k + p.c_tilde
            sk = kk[0] * pauli(1) + kk[1] * pauli(2) + kk[2] * pauli(3)
            sol = levy_leblond_solve(k, p)
            np.testing.assert_allclose(
                sol.chi, (sk @ sol.phi) / (2 * p.m0), atol=1e-13
            )
            # both linked equations hold
            np.testing.assert_allclose(
                (sol.energy + p.eps_tilde) * sol.phi, sk @ sol.chi, atol=1e-12
            )
            norm = np.vdot(sol.phi, sol.phi).real + np.vdot(sol.chi, sol.chi).real
            assert norm == pytest.approx(1.0)

    def test_against_generalized_eigenproblem(self):
        # Independent oracle: the linked pair as a 4-dim generalized
        # eigenproblem; its two finite eigenvalues are the limit energy.
        rng = np.random.default_rng(62)
        i2, z2 = np.eye(2), np.zeros((2, 2))
        for _ in range(25):
            p = random_nonrel(rng)
            k = rng.uniform(-1, 1, 3)
            kk = k + p.c_tilde
            sk = kk[0] * pauli(1) + kk[1] * pauli(2) + kk[2] * pauli(3)
            m = np.block([[p.eps_tilde * i2, -sk], [sk, -2 * p.m0 * i2]])
            n = np.block([[-i2, z2], [z2, z2]])
            eig = scipy.linalg.eig(m, n, right=False)
            finite = sorted(x.real for x in eig if np.isfinite(x))
            assert len(finite) == 2
            sol = levy_leblond_solve(k, p)
            np.testing.assert_allclose(finite, [sol.energy, sol.energy], atol=1e-10)

    def test_equals_pauli_at_zero_potential(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            p = NonRelParams(
                m0=float(rng.uniform(0.2, 4.0)),
                eps_tilde=float(rng.uniform(-1.0, 1.0)),
                c_tilde=rng.uniform(-1.0, 1.0, 3),
            )
            k = rng.uniform(-1, 1, 3)
            assert abs(levy_leblond_solve(k, p).energy - pauli_energy(k, p)) <= 1e-13

    def test_phi_seed(self):
        # phi is fixed along (1, 0); at k along z, sigma_z phi = phi
        sol = levy_leblond_solve([0, 0, 0.2], FREE)
        assert sol.phi[1] == 0.0 and sol.phi[0].real > 0.0
        np.testing.assert_allclose(sol.chi, 0.1 * sol.phi, rtol=1e-15)

    @pytest.mark.parametrize(
        "k", [np.nan, np.inf, -np.inf, [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0]]
    )
    def test_rejects_non_finite_momentum(self, k):
        with pytest.raises(ValueError, match="finite"):
            levy_leblond_solve(k, FREE)

    def test_rejects_overflow(self):
        # energy (k^2 / 2m0) and spinor norm (|k| / 2m0) past double precision
        with pytest.raises(ValueError, match="overflow"):
            levy_leblond_solve(1e200, FREE)
        with pytest.raises(ValueError, match="overflow"):
            levy_leblond_solve(1e145, NonRelParams(m0=1e-10))
        # |k|^2 finite, |k|^2 / 2m0 not: the energy division overflows
        with pytest.raises(ValueError, match="overflow"):
            levy_leblond_solve(1e150, NonRelParams(m0=1e-10))


class TestLimitError:
    def test_example_value(self):
        err = nonrel_error([0, 0, 0.1], FREE)
        assert err.relative
        assert err.value == pytest.approx(0.0024875775822101594, rel=1e-9)
        assert err.value == pytest.approx(2.5e-3, rel=0.01)

    def test_series_oracle(self):
        # direct subtraction at moderate momentum, where cancellation is
        # harmless, agrees with the stable closed form
        for kz in (0.05, 0.1, 0.3, 0.6):
            direct = abs(np.sqrt(1 + kz ** 2) - 1 - kz ** 2 / 2)
            assert nonrel_abs_error([0, 0, kz], FREE) == pytest.approx(direct, rel=1e-9)

    def test_vanishes_at_rest(self):
        p = NonRelParams(m0=1.0, eps_tilde=0.3)
        err = nonrel_error(np.zeros(3), p)
        assert err.relative
        assert err.value == 0.0

    def test_quadratic_relative_scaling(self):
        e1 = nonrel_error([0, 0, 0.01], FREE).value
        e2 = nonrel_error([0, 0, 0.02], FREE).value
        assert e2 / e1 == pytest.approx(4.0, rel=0.01)

    def test_small_momentum_regime(self):
        # whenever the kinetic momentum |k + shift| stays below 0.1 m0 c
        # the relative error stays within a percent (energy shift zero, so
        # the limit energy cannot pass through zero and mask the regime)
        rng = np.random.default_rng(64)
        for _ in range(50):
            m0 = float(rng.uniform(0.2, 4.0))
            shift = rng.uniform(-0.5, 0.5, 3) * m0
            p = NonRelParams(m0=m0, c_tilde=shift)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            kinetic = float(rng.uniform(0.01, 0.1)) * m0
            k = kinetic * direction - shift
            err = nonrel_error(k, p)
            assert err.relative
            assert err.value <= 0.01

    def test_quartic_absolute_slope(self):
        ks = np.geomspace(1e-3, 1e-1, 25)
        errs = np.array([nonrel_abs_error([0, 0, k], FREE) for k in ks])
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)
        # prefactor 1/(8 m0^3 c^2) at the small end
        assert errs[0] == pytest.approx(ks[0] ** 4 / 8.0, rel=1e-4)

    def test_absolute_fallback_flagged(self):
        err = nonrel_error(np.zeros(3), FREE)
        assert not err.relative
        assert err.value == 0.0

    def test_rejects_relativistic_momentum(self):
        with pytest.raises(ValueError):
            nonrel_error([0, 0, 1.5], FREE)

    def test_overflowing_momentum_is_reported_as_overflow(self):
        # 1e199 < m0 * c_light = 1e200, but |k|^2 overflows to inf
        with pytest.raises(ValueError, match="overflow double precision"):
            nonrel_error(1e199, NonRelParams(m0=1e200))

    def test_physical_units_consistency(self):
        # restoring the light speed: same physics, scaled error
        p = NonRelParams(m0=1.0, c_light=137.0)
        kz = 0.5
        expected = kz ** 4 / (8 * 137.0 ** 2)
        assert nonrel_abs_error([0, 0, kz], p) == pytest.approx(expected, rel=1e-3)

    def test_dirac_energy_branches(self):
        p = NonRelParams(m0=1.0, eps_tilde=0.2)
        kz = 0.4
        w = np.sqrt(1 + kz ** 2)
        assert dirac_energy([0, 0, kz], p, +1) == pytest.approx(w - 0.2)
        assert dirac_energy([0, 0, kz], p, -1) == pytest.approx(-w - 0.2)
        with pytest.raises(ValueError):
            dirac_energy(np.zeros(3), p, 0)

    def test_kinetic_consistency(self):
        p = NonRelParams(m0=1.0, eps_tilde=0.2)
        kz = 0.4
        lhs = kinetic_minus_rest([0, 0, kz], p)
        rhs = dirac_energy([0, 0, kz], p, +1) - 1.0 + 0.2
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_standard_reduction(self):
        # zero shifts recover the plain kinetic forms exactly
        gen = NonRelParams(m0=1.7)
        k = np.array([0.1, 0.2, -0.3])
        assert pauli_energy(k, gen) == pytest.approx(float(k @ k) / (2 * 1.7), abs=1e-15)
        assert levy_leblond_solve(k, gen).energy == pytest.approx(
            float(k @ k) / (2 * 1.7), abs=1e-15
        )


# Tolerance fixed before the comparison: a stack and the per-row calls run
# the same float64 formulas, so they may differ by at most about one
# rounding of the result.
BATCH_RTOL = 1e-15

_unit = st.floats(-1.0, 1.0)


@st.composite
def nonrel_params(draw):
    return NonRelParams(
        m0=draw(st.floats(0.1, 4.0)),
        eps_tilde=draw(_unit),
        c_tilde=draw(arrays(float, 3, elements=_unit)),
        c_light=draw(st.sampled_from([0.5, 3.0, 137.0])),
    )


def _rows(n):
    return arrays(float, (n, 3), elements=st.floats(-3.0, 3.0))


def _energies(params):
    """Every batched energy helper, as k -> value, for one parameter set."""
    gen = GeneralizedParams.from_physical(params.m0, params.eps_tilde, params.c_tilde)
    return {
        "dispersion+": lambda k: dispersion(k, gen, +1),
        "dispersion-": lambda k: dispersion(k, gen, -1),
        "dirac_energy+": lambda k: dirac_energy(k, params, +1),
        "dirac_energy-": lambda k: dirac_energy(k, params, -1),
        "kinetic_minus_rest": lambda k: kinetic_minus_rest(k, params),
        "nonrel_abs_error": lambda k: nonrel_abs_error(k, params),
        "pauli_energy": lambda k: pauli_energy(k, params),
    }


class TestBatchedEnergies:
    """A (N, 3) stack of momenta gives the per-row results in one call."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), params=nonrel_params(), n=st.integers(1, 12))
    def test_stack_equals_rows(self, data, params, n):
        ks = data.draw(_rows(n))
        for name, energy in _energies(params).items():
            batched = energy(ks)
            assert batched.shape == (n,), name
            rows = [energy(k) for k in ks]
            np.testing.assert_allclose(batched, rows, rtol=BATCH_RTOL, atol=0, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), params=nonrel_params(), n=st.integers(1, 12))
    def test_nonrel_error_stack_equals_rows(self, data, params, n):
        # kinetic momenta |k + shift| strictly inside m0 * c_light
        u = data.draw(_rows(n))
        radius = 0.9 * params.m0 * params.c_light
        ks = radius * u / (1.0 + np.linalg.norm(u, axis=1, keepdims=True)) - params.c_tilde
        batched = nonrel_error(ks, params)
        rows = [nonrel_error(k, params) for k in ks]
        np.testing.assert_array_equal(batched.relative, [r.relative for r in rows])
        np.testing.assert_allclose(
            batched.value, [r.value for r in rows], rtol=BATCH_RTOL, atol=0
        )

    @pytest.mark.parametrize("k", [0.3, np.float64(-0.2), [0.1, -0.2, 0.3], np.zeros(3)])
    def test_one_momentum_gives_float(self, k):
        params = NonRelParams(m0=1.3, eps_tilde=0.2, c_tilde=(0.1, 0.0, -0.2), c_light=2.0)
        for name, energy in _energies(params).items():
            assert type(energy(k)) is float, name
        err = nonrel_error(k, params)
        assert type(err.value) is float and type(err.relative) is bool

    def test_one_momentum_squares_exactly_like_k_dot_k(self):
        # criterion 08 compares pauli_energy with float(k @ k) / (2 m0)
        # bit for bit; 2 m0 = 1 here, so the energy is |k|^2 itself
        ks = np.random.default_rng(66).uniform(-3.0, 3.0, (300, 3))
        half = NonRelParams(m0=0.5)
        assert [pauli_energy(k, half) for k in ks] == [float(k @ k) for k in ks]
        np.testing.assert_array_equal(pauli_energy(ks, half), [k @ k for k in ks])

    def test_scalar_momentum_is_along_z(self):
        params = NonRelParams(m0=1.3, eps_tilde=0.2, c_tilde=(0.1, 0.0, -0.2), c_light=2.0)
        for name, energy in _energies(params).items():
            assert energy(0.4) == energy([0.0, 0.0, 0.4]), name

    def test_nested_stack_keeps_leading_shape(self):
        ks = np.random.default_rng(65).uniform(-0.5, 0.5, (2, 4, 3))
        for name, energy in _energies(FREE).items():
            out = energy(ks)
            assert out.shape == (2, 4), name
            np.testing.assert_allclose(out, energy(ks.reshape(8, 3)).reshape(2, 4), rtol=0)
        assert nonrel_error(ks, FREE).value.shape == (2, 4)

    @pytest.mark.parametrize("k", [np.zeros(2), np.zeros(4), np.zeros((5, 2)), np.zeros((3, 4))])
    def test_wrong_momentum_shape_raises(self, k):
        for name, energy in _energies(FREE).items():
            with pytest.raises(ValueError, match="shape"):
                energy(k)
        with pytest.raises(ValueError, match="shape"):
            nonrel_error(k, FREE)

    @pytest.mark.parametrize("kz", [1.0, 1.5])
    def test_nonrel_error_rejects_stack_reaching_m0_c(self, kz):
        ks = np.zeros((5, 3))
        ks[:, 2] = [0.1, 0.2, kz, 0.3, 0.4]
        with pytest.raises(ValueError, match="m0 \\* c_light"):
            nonrel_error(ks, FREE)


def test_stacked_params_rows_equal_one_parameter_set():
    rng = np.random.default_rng(41)
    m0, eps, c, k = (rng.uniform(0.2, 4.0, 9), rng.uniform(-1, 1, 9),
                     rng.uniform(-1, 1, (9, 3)), rng.uniform(-1, 1, (9, 3)))
    stack = _nonrel_stack(m0, eps, c)
    pauli_stack = pauli_energy(k, stack)
    energy, phi, chi = _levy_leblond_spinors(k, stack)
    for i in range(9):
        one = NonRelParams(m0=m0[i], eps_tilde=eps[i], c_tilde=c[i])
        sol = levy_leblond_solve(k[i], one)
        assert pauli_stack[i] == energy[i] == sol.energy
        assert phi[i].tobytes() == sol.phi.tobytes() and chi[i].tobytes() == sol.chi.tobytes()
        assert pauli_stack[i] == pauli_energy(k[i], one)
    with pytest.raises(ValueError, match="positive"):
        _nonrel_stack(np.where(np.arange(9) == 4, 0.0, m0), eps, c)
    with pytest.raises(ValueError, match="finite"):
        _nonrel_stack(m0, np.where(np.arange(9) == 4, np.nan, eps), c)


def test_params_reject_stacked_scalars():
    # One NonRelParams holds one set of parameters; stacks are private.
    with pytest.raises(ValueError, match="scalars"):
        NonRelParams(m0=np.array([1.0, 2.0]))


# Every public function that takes a momentum k, and whether it takes a
# (..., 3) stack of momenta.
GEN = GeneralizedParams.from_physical(1.0, 0.5, (0.0, 0.0, 0.25))
MOMENTUM_CALLS = {
    "hamiltonian_matrix": (lambda k: hamiltonian_matrix(k, GEN), False),
    "dispersion": (lambda k: dispersion(k, GEN), True),
    "plane_wave_solve": (lambda k: plane_wave_solve(k, GEN), False),
    "kg_rhs_matrix": (lambda k: kg_rhs_matrix(k, GEN), False),
    "dirac_square_equals_kg": (lambda k: dirac_square_equals_kg(k, GEN), False),
    "pauli_energy": (lambda k: pauli_energy(k, FREE), True),
    "levy_leblond_solve": (lambda k: levy_leblond_solve(k, FREE), False),
    "dirac_energy": (lambda k: dirac_energy(k, FREE), True),
    "kinetic_minus_rest": (lambda k: kinetic_minus_rest(k, FREE), True),
    "nonrel_abs_error": (lambda k: nonrel_abs_error(k, FREE), True),
    "nonrel_error": (lambda k: nonrel_error(k, FREE), True),
}


@pytest.mark.parametrize("name", sorted(MOMENTUM_CALLS))
@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf, None], ids=["nan", "inf", "-inf", "stack"])
def test_non_finite_momentum_is_rejected_by_name(name, k):
    # a NaN or infinite k is not an overflow: it is rejected, with no numpy
    # warning, before any arithmetic; None stands for a stack holding a NaN
    # (one 3-vector for the functions that take one momentum)
    call, stacked = MOMENTUM_CALLS[name]
    if k is None:
        k = [[0.0, 0.0, 0.5], [0.0, np.nan, 0.0]] if stacked else [0.0, np.nan, 0.0]
    with pytest.raises(ValueError, match="^k must be finite"):
        call(k)

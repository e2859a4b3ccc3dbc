"""Non-relativistic limit forms and their approach to the full branch."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diraclab import evolution
from diraclab.clifford import pauli
from diraclab.evolution import WavePacket, init_gaussian, observables, trajectory
from diraclab.invariance import GeneralizedParams, _ParamStack
from diraclab.nonrel import (
    _levy_leblond_spinors,
    _pauli_energy,
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

FREE = GeneralizedParams(1.0)


def random_params(rng):
    return GeneralizedParams(
        float(rng.uniform(0.2, 4.0)), float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 3)
    )


# Every limit function, as (params, c_light) -> value at one momentum; the
# three where the speed of light enters take it as a keyword, and so does
# the relativistic branch energy, dispersion, which is no limit form.
LIMIT_CALLS = {
    "pauli_energy": lambda p, c: pauli_energy(0.1, p),
    "levy_leblond_solve": lambda p, c: levy_leblond_solve(0.1, p),
    "kinetic_minus_rest": lambda p, c: kinetic_minus_rest(0.1, p, c_light=c),
    "nonrel_abs_error": lambda p, c: nonrel_abs_error(0.1, p, c_light=c),
    "nonrel_error": lambda p, c: nonrel_error(0.1, p, c_light=c),
}
C_LIGHT_CALLS = {
    "dispersion": lambda p, c: dispersion(0.1, p, c_light=c),
    **{name: LIMIT_CALLS[name] for name in
       ("kinetic_minus_rest", "nonrel_abs_error", "nonrel_error")},
}


class TestParams:
    def test_validation(self):
        # The limit forms' own rules, on top of GeneralizedParams': m0 > 0
        # (the generalized equation allows m0 = 0) and c_light a positive
        # real number; the messages show the value passed.  dispersion
        # takes c_light by the same rule and keeps m0 >= 0.
        massless = GeneralizedParams(0.0, 0.2, 0.3)
        for name, call in LIMIT_CALLS.items():
            with pytest.raises(ValueError, match=r"^m0 must be positive, got 0\.0$"):
                call(massless, 1.0)
        assert C_LIGHT_CALLS["dispersion"](massless, 2.0) == pytest.approx(
            np.sqrt(4.0 * (0.1 + 0.3) ** 2) - 0.2, rel=1e-15)
        for name, call in C_LIGHT_CALLS.items():
            for c, shown in ((0.0, "0.0"), (-2.0, "-2.0"), (np.float64(0.0), "np.float64(0.0)")):
                with pytest.raises(ValueError, match=rf"^c_light must be positive, got {re.escape(shown)}$"):
                    call(FREE, c)
            with pytest.raises(ValueError, match="^c_light must be a real number, got 'x'"):
                call(FREE, "x")
            # the real rule on both values comes first, then m0's range rule
            with pytest.raises(ValueError, match="^c_light must be finite"):
                call(massless, np.nan)
            if name == "dispersion":
                continue
            with pytest.raises(ValueError, match="^m0 must be positive"):
                call(massless, 0.0)
            assert call(FREE, 2) == call(FREE, 2.0), name

    @pytest.mark.parametrize("field", ["m0", "eps_tilde", "p_tilde", "c_light"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None])
    def test_rejects_non_finite(self, field, value):
        # The limit functions take the generalized equation's parameters, so
        # a non-finite m0, shift or c_light is rejected where it is passed:
        # by GeneralizedParams or by the c_light keyword.  A non-finite shift is
        # a parameter, not a momentum k; the message names the field and
        # shows the value passed.
        physical = {"m0": 1.0, "eps_tilde": 0.0, "p_tilde": 0.0}
        if field == "c_light":
            calls = [lambda c=call: c(FREE, value) for call in C_LIGHT_CALLS.values()]
            shown = value
        else:
            shown = (0.0, value, 0.0) if field == "p_tilde" else value
            calls = [lambda: GeneralizedParams(**{**physical, field: shown})]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{field} must be finite, got ") as info:
                call()
            assert str(info.value) == f"{field} must be finite, got {shown!r}"

    def test_overflowing_energy_raises_value_error(self):
        # finite inputs whose energy overflows: Python float ** raised
        # OverflowError here, and numpy arrays returned inf
        stack = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e200]])
        tiny_m0 = GeneralizedParams(1e-10)
        calls = [
            lambda: dispersion(0.0, GeneralizedParams(1e200)),
            lambda: dispersion(0.5, FREE, c_light=1e200),
            lambda: kinetic_minus_rest(0.5, FREE, c_light=1e200),
            lambda: nonrel_abs_error(0.5, FREE, c_light=1e200),
            lambda: nonrel_error(0.5, FREE, c_light=1e200),
            lambda: dispersion(stack, FREE),
            lambda: pauli_energy(stack, FREE),
            # |k|^2 finite, the division by a tiny 2 m0 or the square not
            lambda: pauli_energy(1e150, tiny_m0),
            lambda: nonrel_abs_error(1e150, tiny_m0),
            lambda: levy_leblond_solve(1e150, tiny_m0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestPauliEnergy:
    def test_free_rest(self):
        assert pauli_energy(np.zeros(3), FREE) == 0.0

    def test_free_momentum(self):
        assert pauli_energy([0, 0, 0.1], FREE) == pytest.approx(0.005)

    def test_shifted_example(self):
        p = GeneralizedParams(1.0, 0.1, (0, 0, 0.2))
        assert pauli_energy(np.zeros(3), p) == pytest.approx(-0.08)


class TestLevyLeblond:
    def test_rest_case(self):
        p = GeneralizedParams(1.0, 0.4)
        sol = levy_leblond_solve(np.zeros(3), p)
        assert sol.energy == pytest.approx(-0.4)
        np.testing.assert_allclose(sol.chi, 0, atol=1e-15)

    def test_example_energy(self):
        sol = levy_leblond_solve([0, 0, 0.2], FREE)
        assert sol.energy == pytest.approx(0.02)

    def test_chi_elimination_relation(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = random_params(rng)
            k = rng.uniform(-1, 1, 3)
            kk = k + p.p_tilde
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
            p = random_params(rng)
            k = rng.uniform(-1, 1, 3)
            kk = k + p.p_tilde
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
            p = random_params(rng)
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
            levy_leblond_solve(1e145, GeneralizedParams(1e-10))
        # |k|^2 finite, |k|^2 / 2m0 not: the energy division overflows
        with pytest.raises(ValueError, match="overflow"):
            levy_leblond_solve(1e150, GeneralizedParams(1e-10))


class TestLimitError:
    def test_example_value(self):
        err = nonrel_error([0, 0, 0.1], FREE)
        assert err == pytest.approx(0.0024875775822101594, rel=1e-9)
        assert err == pytest.approx(2.5e-3, rel=0.01)

    def test_series_oracle(self):
        # direct subtraction at moderate momentum, where cancellation is
        # harmless, agrees with the stable closed form
        for kz in (0.05, 0.1, 0.3, 0.6):
            direct = abs(np.sqrt(1 + kz ** 2) - 1 - kz ** 2 / 2)
            assert nonrel_abs_error([0, 0, kz], FREE) == pytest.approx(direct, rel=1e-9)

    def test_vanishes_at_rest(self):
        p = GeneralizedParams(1.0, 0.3)
        assert nonrel_error(np.zeros(3), p) == 0.0

    def test_quadratic_relative_scaling(self):
        e1 = nonrel_error([0, 0, 0.01], FREE)
        e2 = nonrel_error([0, 0, 0.02], FREE)
        assert e2 / e1 == pytest.approx(4.0, rel=0.01)

    def test_small_momentum_regime(self):
        # whenever the kinetic momentum |k + shift| stays below 0.1 m0 c
        # the relative error stays within a percent (energy shift zero, so
        # the limit energy cannot pass through zero and mask the regime)
        rng = np.random.default_rng(64)
        for _ in range(50):
            m0 = float(rng.uniform(0.2, 4.0))
            shift = rng.uniform(-0.5, 0.5, 3) * m0
            p = GeneralizedParams(m0, 0.0, shift)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            kinetic = float(rng.uniform(0.01, 0.1)) * m0
            k = kinetic * direction - shift
            assert nonrel_error(k, p) <= 0.01

    def test_quartic_absolute_slope(self):
        ks = np.geomspace(1e-3, 1e-1, 25)
        errs = np.array([nonrel_abs_error([0, 0, k], FREE) for k in ks])
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)
        # prefactor 1/(8 m0^3 c^2) at the small end
        assert errs[0] == pytest.approx(ks[0] ** 4 / 8.0, rel=1e-4)

    def test_vanishing_limit_energy_gives_nan(self):
        # at rest both gaps are zero, and the relative one is undefined:
        # NaN, as the limit command's rel_error column writes it
        assert nonrel_abs_error(np.zeros(3), FREE) == 0.0
        err = nonrel_error(np.zeros(3), FREE)
        assert type(err) is float and np.isnan(err)
        # the absolute gap over the Pauli energy, wherever that is not below 1e-300
        ks = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.3], [1e-151, 0.0, 0.0], [0.0, 0.2, 0.0]])
        rel = nonrel_error(ks, FREE)
        moving = ks[[1, 3]]
        expected = nonrel_abs_error(moving, FREE) / pauli_energy(moving, FREE)
        np.testing.assert_array_equal(rel[[1, 3]], expected)
        assert np.isnan(rel[[0, 2]]).all()

    def test_rejects_relativistic_momentum(self):
        with pytest.raises(ValueError):
            nonrel_error([0, 0, 1.5], FREE)

    def test_overflowing_momentum_is_reported_as_overflow(self):
        # 1e199 < m0 * c_light = 1e200, but |k|^2 overflows to inf
        with pytest.raises(ValueError, match="overflow double precision"):
            nonrel_error(1e199, GeneralizedParams(1e200))

    def test_physical_units_consistency(self):
        # restoring the light speed: same physics, scaled error
        kz = 0.5
        expected = kz ** 4 / (8 * 137.0 ** 2)
        assert nonrel_abs_error([0, 0, kz], FREE, c_light=137.0) == pytest.approx(expected, rel=1e-3)

    def test_dispersion_branches_in_physical_units(self):
        p = GeneralizedParams(1.0, 0.2)
        kz = 0.4
        for c in (1.0, 3.0):
            w = np.sqrt(c ** 4 + c ** 2 * kz ** 2)
            assert dispersion([0, 0, kz], p, +1, c_light=c) == pytest.approx(w - 0.2)
            assert dispersion([0, 0, kz], p, -1, c_light=c) == pytest.approx(-w - 0.2)
        for branch in (0, True, 1.0):
            with pytest.raises(ValueError, match="^branch must be"):
                dispersion(np.zeros(3), p, branch, c_light=3.0)

    def test_kinetic_consistency(self):
        p = GeneralizedParams(1.0, 0.2)
        kz = 0.4
        lhs = kinetic_minus_rest([0, 0, kz], p)
        rhs = dispersion([0, 0, kz], p, +1) - 1.0 + 0.2
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_standard_reduction(self):
        # zero shifts recover the plain kinetic forms exactly
        gen = GeneralizedParams(1.7)
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
def limit_cases(draw):
    """A parameter set and a speed of light."""
    params = GeneralizedParams(
        draw(st.floats(0.1, 4.0)), draw(_unit), draw(arrays(float, 3, elements=_unit))
    )
    return params, draw(st.sampled_from([0.5, 3.0, 137.0]))


def _rows(n):
    return arrays(float, (n, 3), elements=st.floats(-3.0, 3.0))


def _energies(params, c_light=1.0):
    """Every batched energy helper, as k -> value, for one parameter set
    and speed of light."""
    return {
        "dispersion+": lambda k: dispersion(k, params, +1, c_light=c_light),
        "dispersion-": lambda k: dispersion(k, params, -1, c_light=c_light),
        "kinetic_minus_rest": lambda k: kinetic_minus_rest(k, params, c_light=c_light),
        "nonrel_abs_error": lambda k: nonrel_abs_error(k, params, c_light=c_light),
        "pauli_energy": lambda k: pauli_energy(k, params),
    }


class TestBatchedEnergies:
    """A (N, 3) stack of momenta gives the per-row results in one call."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=limit_cases(), n=st.integers(1, 12))
    def test_stack_equals_rows(self, data, case, n):
        ks = data.draw(_rows(n))
        for name, energy in _energies(*case).items():
            batched = energy(ks)
            assert batched.shape == (n,), name
            rows = [energy(k) for k in ks]
            np.testing.assert_allclose(batched, rows, rtol=BATCH_RTOL, atol=0, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=limit_cases(), n=st.integers(1, 12))
    def test_nonrel_error_stack_equals_rows(self, data, case, n):
        # kinetic momenta |k + p_tilde| strictly inside m0 * c_light
        params, c_light = case
        u = data.draw(_rows(n))
        radius = 0.9 * params.m0 * c_light
        ks = radius * u / (1.0 + np.linalg.norm(u, axis=1, keepdims=True)) - params.p_tilde
        batched = nonrel_error(ks, params, c_light=c_light)
        rows = [nonrel_error(k, params, c_light=c_light) for k in ks]
        # NaN rows, where the limit energy vanishes, compare equal
        np.testing.assert_allclose(batched, rows, rtol=BATCH_RTOL, atol=0)

    @pytest.mark.parametrize("k", [0.3, np.float64(-0.2), [0.1, -0.2, 0.3], np.zeros(3)])
    def test_one_momentum_gives_float(self, k):
        params = GeneralizedParams(1.3, 0.2, (0.1, 0.0, -0.2))
        for name, energy in _energies(params, 2.0).items():
            assert type(energy(k)) is float, name
        assert type(nonrel_error(k, params, c_light=2.0)) is float

    def test_one_momentum_squares_exactly_like_k_dot_k(self):
        # criterion 08 compares pauli_energy with float(k @ k) / (2 m0)
        # bit for bit; 2 m0 = 1 here, so the energy is |k|^2 itself
        ks = np.random.default_rng(66).uniform(-3.0, 3.0, (300, 3))
        half = GeneralizedParams(0.5)
        assert [pauli_energy(k, half) for k in ks] == [float(k @ k) for k in ks]
        np.testing.assert_array_equal(pauli_energy(ks, half), [k @ k for k in ks])

    def test_scalar_momentum_is_along_z(self):
        params = GeneralizedParams(1.3, 0.2, (0.1, 0.0, -0.2))
        for name, energy in _energies(params, 2.0).items():
            assert energy(0.4) == energy([0.0, 0.0, 0.4]), name

    def test_nested_stack_keeps_leading_shape(self):
        ks = np.random.default_rng(65).uniform(-0.5, 0.5, (2, 4, 3))
        for name, energy in _energies(FREE).items():
            out = energy(ks)
            assert out.shape == (2, 4), name
            np.testing.assert_allclose(out, energy(ks.reshape(8, 3)).reshape(2, 4), rtol=0)
        assert nonrel_error(ks, FREE).shape == (2, 4)

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
    stack = _ParamStack(m0, eps, c)
    pauli_stack = _pauli_energy(k, stack)
    energy, phi, chi = _levy_leblond_spinors(k, stack)
    for i in range(9):
        one = GeneralizedParams(m0[i], eps[i], c[i])
        sol = levy_leblond_solve(k[i], one)
        assert pauli_stack[i] == energy[i] == sol.energy
        assert phi[i].tobytes() == sol.phi.tobytes() and chi[i].tobytes() == sol.chi.tobytes()
        assert pauli_stack[i] == pauli_energy(k[i], one)


def test_params_reject_stacked_scalars():
    # One GeneralizedParams holds one set of parameters, and c_light is one
    # number; stacks are private.
    with pytest.raises(ValueError, match="^m0 must be one real number, not an array of scalars"):
        GeneralizedParams(np.array([1.0, 2.0]))
    for name, call in C_LIGHT_CALLS.items():
        with pytest.raises(ValueError, match="^c_light must be one real number, not an array"):
            call(FREE, np.array([1.0, 2.0]))


# Every public function that takes a momentum k, and whether it takes a
# (..., 3) stack of momenta.
GEN = GeneralizedParams(1.0, 0.5, (0.0, 0.0, 0.25))
MOMENTUM_CALLS = {
    "hamiltonian_matrix": (lambda k: hamiltonian_matrix(k, GEN), False),
    "dispersion": (lambda k: dispersion(k, GEN), True),
    "plane_wave_solve": (lambda k: plane_wave_solve(k, GEN), False),
    "kg_rhs_matrix": (lambda k: kg_rhs_matrix(k, GEN), False),
    "dirac_square_equals_kg": (lambda k: dirac_square_equals_kg(k, GEN), False),
    "pauli_energy": (lambda k: pauli_energy(k, FREE), True),
    "levy_leblond_solve": (lambda k: levy_leblond_solve(k, FREE), False),
    "dispersion_c_light": (lambda k: dispersion(k, FREE, c_light=2.0), True),
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


@pytest.mark.parametrize(
    "m0, eps, p, k0",
    [(1.0, 0.0, 0.0, 0.1), (1.0, 0.0, 0.0, 0.16), (1.23, 0.4, 0.3, -0.2),
     (0.8, -0.25, -0.15, 0.25)],
    ids=["k0-0.1", "k0-0.16", "shifted", "shifted-back"],
)
def test_positive_branch_packet_against_pauli_schroedinger_evolution(m0, eps, p, k0):
    # The limit in time.  A P+-projected Dirac packet and a Schroedinger
    # packet of the same momentum density rho, evolved with the Pauli
    # energy E = K^2/2m0 - eps_tilde (K = k + p_z; eps_tilde is a global
    # phase), each move at their mean velocity, <K/w> and <K/m0>.  Their
    # mean_x gap is then exactly t <K/w - K/m0>.  The gap is about 1% of
    # the motion, and the cancellation in it is a few ulp of mean_x ~ 300,
    # about 1e-12 absolute and at most 5e-12 of the largest gap here; the
    # gate is 1e-10 of it.  Over its leading term -t <K^3>/2m0^3 the gap
    # approaches 1 as O(K^2): Taylor's bounds on 1/sqrt(1 + u) give
    # |ratio - 1| <= 3 <|K|^5> / (4 m0^2 |<K^3>|), and the Dirac packet lags.
    n, length, x0, width = 4096, 800.0, 300.0, 20.0
    params = GeneralizedParams(m0, eps, (0.0, 0.0, p))
    start = init_gaussian(n, length, x0, k0, width, params=params)
    spectrum = evolution._Spectrum(start, params)
    dirac = trajectory(WavePacket(n, length, spectrum.spinors(spectrum.plus)), params, 10.0, 40)
    t = dirac.times

    k = start.k
    rho = np.sum(np.abs(spectrum.plus) ** 2, axis=0)
    energy = pauli_energy(k[:, None] * (0.0, 0.0, 1.0), params)
    phi0 = np.sqrt(rho) * np.exp(-1j * k * x0)  # centred at x0
    values = np.zeros((n, 4), dtype=complex)
    schroedinger = []
    for time in t:
        values[:, 0] = np.fft.ifft(phi0 * np.exp(-1j * energy * time))
        schroedinger.append(observables(WavePacket(n, length, values)).mean_x)
    gap = (dirac.mean_x - dirac.mean_x[0]) - (np.array(schroedinger) - schroedinger[0])

    rho /= rho.sum()
    kin = k + p
    expected = t * (rho @ (kin / np.hypot(m0, kin) - kin / m0))
    assert np.max(np.abs(gap - expected)) <= 1e-10 * np.max(np.abs(expected))
    ratio = gap[1:] / (-t[1:] * (rho @ kin ** 3) / (2 * m0 ** 3))
    window = 0.75 * (rho @ np.abs(kin) ** 5) / (m0 ** 2 * abs(rho @ kin ** 3))
    assert np.all(np.abs(ratio - 1.0) <= window) and np.all(ratio < 1.0)


def test_levy_leblond_spinor_against_positive_branch_plane_wave():
    # The Levy-Leblond link chi = sigma.K phi / 2m0 against the lower
    # components of the positive-branch plane wave, sigma.K upper / (w + m0)
    # with upper along (1, 0), K = k + p_tilde and w = sqrt(m0^2 + K^2).
    # Both spinors start along (1, 0), so the gap between the lower pair
    # over the first entry is |K| (w - m0) / (2 m0 (w + m0)), written
    # without cancellation as |K|^3 / (2 m0 (w + m0)^2).  The gap is a
    # difference of two vectors of size about |K| / 2m0, so the gate is
    # 1e-12 of the gap plus 4 ulp of that size.  Over its leading term
    # |K|^3 / 8m0^3 the gap is 4 m0^2 / (w + m0)^2, at most 1 and, as
    # w - m0 <= K^2 / 2m0, at least 1 - K^2 / 2m0^2.
    rng = np.random.default_rng(67)
    for _ in range(200):
        params = GeneralizedParams(
            float(rng.uniform(0.3, 3.0)), float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 3)
        )
        k = rng.uniform(-1.0, 1.0, 3)
        limit = levy_leblond_solve(k, params)
        spinor = plane_wave_solve(k, params)[0].spinor
        link = limit.chi / limit.phi[0]
        gap = np.linalg.norm(link - spinor[2:] / spinor[0])

        m0, kin = params.m0, k + params.p_tilde
        k2 = float(kin @ kin)
        w = np.sqrt(m0 * m0 + k2)
        closed = k2 * np.sqrt(k2) / (2.0 * m0 * (w + m0) ** 2)
        assert abs(gap - closed) <= 1e-12 * closed + 4 * np.finfo(float).eps * np.linalg.norm(link)
        ratio = closed / (k2 * np.sqrt(k2) / (8.0 * m0 ** 3))
        assert 1.0 - k2 / (2.0 * m0 * m0) <= ratio <= 1.0

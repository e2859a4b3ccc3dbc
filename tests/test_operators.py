"""Hamiltonians, plane waves, dispersion, second-order identity, gauge map."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diraclab.clifford import max_abs, pauli
from diraclab.invariance import GeneralizedParams, _ParamStack
from diraclab.operators import (
    ALPHA,
    BETA,
    _dirac_square_residuals,
    _h0,
    _hamiltonian,
    _plane_waves,
    _shift,
    dirac_square_equals_kg,
    dispersion,
    gauge_map,
    hamiltonian_matrix,
    kg_rhs_matrix,
    plane_wave_solve,
)

STD = GeneralizedParams(1.0)
GEN = GeneralizedParams(1.0, 0.5, (0.0, 0.0, 0.25))


def random_params(rng):
    return GeneralizedParams(
        m0=float(rng.uniform(0.1, 5.0)),
        eps_tilde=float(rng.uniform(-1.0, 1.0)),
        p_tilde=rng.uniform(-1.0, 1.0, 3),
    )


def test_alpha_beta_structure():
    for j in range(3):
        assert max_abs(ALPHA[j] - ALPHA[j].conj().T) <= 1e-15
        block = np.block(
            [[np.zeros((2, 2)), pauli(j + 1)], [pauli(j + 1), np.zeros((2, 2))]]
        )
        assert max_abs(ALPHA[j] - block) <= 1e-15
    assert max_abs(BETA - np.diag([1, 1, -1, -1])) == 0.0


def test_rest_frame_hamiltonian():
    h = hamiltonian_matrix(np.zeros(3), STD)
    np.testing.assert_allclose(h, np.diag([1, 1, -1, -1]).astype(complex), atol=1e-15)


def test_eigenvalues_standard_k():
    h = hamiltonian_matrix([0, 0, 0.5], STD)
    eig = np.linalg.eigvalsh(h)
    w = 1.118033988749895  # sqrt(1.25)
    np.testing.assert_allclose(eig, [-w, -w, w, w], atol=1e-12)


def test_eigenvalues_generalized_rest():
    h = hamiltonian_matrix(np.zeros(3), GEN)
    eig = np.linalg.eigvalsh(h)
    w = np.sqrt(1.0625)
    np.testing.assert_allclose(eig, [-w - 0.5, -w - 0.5, w - 0.5, w - 0.5], atol=1e-12)


def test_hermitian_for_random_inputs():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        h = hamiltonian_matrix(rng.uniform(-3, 3, 3), random_params(rng))
        worst = max(worst, max_abs(h - h.conj().T))
    assert worst <= 1e-13


def test_scalar_momentum_means_z_axis():
    assert max_abs(hamiltonian_matrix(0.7, STD) - hamiltonian_matrix([0, 0, 0.7], STD)) == 0.0


class TestDispersion:
    def test_rest_energy(self):
        assert dispersion(np.zeros(3), STD, +1) == pytest.approx(1.0)

    def test_generalized_rest_value(self):
        assert dispersion(np.zeros(3), GEN, +1) == pytest.approx(0.5307764064044151)

    def test_branch_sum_is_minus_two_eps(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            total = dispersion(k, params, +1) + dispersion(k, params, -1)
            assert total == pytest.approx(-2 * params.eps_tilde, abs=1e-12)

    def test_matches_eigensolver(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(500):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            eig = np.linalg.eigvalsh(hamiltonian_matrix(k, params))
            lo, hi = dispersion(k, params, -1), dispersion(k, params, +1)
            worst = max(worst, float(np.max(np.abs(eig - np.sort([lo, lo, hi, hi])))))
        assert worst <= 1e-10

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            dispersion(np.zeros(3), STD, 2)
        # True and 1.0 are not the branch +1
        for branch in (True, 1.0, np.float64(-1.0)):
            with pytest.raises(ValueError, match="^branch must be an integer"):
                dispersion(np.zeros(3), STD, branch)
        assert dispersion(np.zeros(3), STD, np.int64(-1)) == dispersion(np.zeros(3), STD, -1)

    def test_determinant_condition(self):
        # det(H - e*I) equals the squared scalar dispersion polynomial,
        # reflecting the double degeneracy of each branch.
        rng = np.random.default_rng(44)
        for _ in range(100):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            e = float(rng.uniform(-3, 3))
            kk = k + params.p_tilde
            scalar = (e + params.eps_tilde) ** 2 - params.m0 ** 2 - kk @ kk
            det = np.linalg.det(hamiltonian_matrix(k, params) - e * np.eye(4))
            assert abs(det - scalar ** 2) <= 1e-8 * max(1.0, abs(scalar ** 2))


class TestPlaneWaves:
    def test_rest_frame_standard_spinors(self):
        sols = plane_wave_solve(np.zeros(3), STD)
        assert [s.branch for s in sols] == [1, 1, -1, -1]
        # positive branch spans the upper pair with vanishing small
        # components at zero momentum
        for s, col in zip(sols[:2], np.eye(2)):
            np.testing.assert_allclose(s.spinor[:2], col, atol=1e-15)
            np.testing.assert_allclose(s.spinor[2:], 0, atol=1e-15)
        for s in sols:
            assert s.energy == pytest.approx(1.0 if s.branch == 1 else -1.0)

    def test_small_component_relation(self):
        sols = plane_wave_solve([0, 0, 0.3], STD)
        s = sols[0]
        expected = (pauli(3) @ s.spinor[:2]) * 0.3 / (s.energy + 1.0)
        np.testing.assert_allclose(s.spinor[2:], expected, atol=1e-12)

    def test_eigen_residual_and_orthonormality(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            h = hamiltonian_matrix(k, params)
            sols = plane_wave_solve(k, params)
            basis = np.stack([s.spinor for s in sols], axis=1)
            gram = basis.conj().T @ basis
            assert max_abs(gram - np.eye(4)) <= 1e-10
            for s in sols:
                assert max_abs(h @ s.spinor - s.energy * s.spinor) <= 1e-10
                assert s.energy == pytest.approx(
                    dispersion(k, params, s.branch), abs=1e-10
                )

    def test_linked_pair_equations(self):
        # The two-component split of the eigenproblem: each solution
        # satisfies both linked equations.
        rng = np.random.default_rng(46)
        for _ in range(50):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            kk = k + params.p_tilde
            sk = kk[0] * pauli(1) + kk[1] * pauli(2) + kk[2] * pauli(3)
            for s in plane_wave_solve(k, params):
                phi, chi = s.spinor[:2], s.spinor[2:]
                e = s.energy + params.eps_tilde
                r1 = (e - params.m0) * phi - sk @ chi
                r2 = -(sk @ phi) + (e + params.m0) * chi
                assert max_abs(r1) <= 1e-10
                assert max_abs(r2) <= 1e-10

    def test_deterministic_output(self):
        a = plane_wave_solve([0.3, -0.2, 0.9], GEN)
        b = plane_wave_solve([0.3, -0.2, 0.9], GEN)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.spinor, y.spinor)


class TestSecondOrder:
    def test_plane_waves_satisfy_it(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            for s in plane_wave_solve(k, params):
                rhs = kg_rhs_matrix(k, params) @ s.spinor
                assert max_abs(s.energy ** 2 * s.spinor - rhs) <= 1e-10

    def test_off_shell_energy_fails(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            # keep the probe energy clear of both branches (and their
            # negatives, which also solve the squared equation)
            off = max(
                abs(dispersion(k, params, +1)), abs(dispersion(k, params, -1))
            ) + 1.0
            assert max_abs(off ** 2 * psi - kg_rhs_matrix(k, params) @ psi) > 1e-3

    def test_standard_reduces_to_classic_check(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m0 = float(rng.uniform(0.2, 3.0))
            params = GeneralizedParams(m0)
            k = rng.uniform(-2, 2, 3)
            e = np.sqrt(m0 ** 2 + k @ k)
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            # scalar relation: the matrix is (k^2 + m0^2) I, so any spinor
            # at the on-shell energy passes
            assert max_abs(e ** 2 * psi - kg_rhs_matrix(k, params) @ psi) <= 1e-10

    def test_operator_identity(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(100):
            worst = max(
                worst, dirac_square_equals_kg(rng.uniform(-2, 2, 3), random_params(rng))
            )
        assert worst <= 1e-10

    def test_rest_standard_value(self):
        assert dirac_square_equals_kg(np.zeros(3), STD) <= 1e-15

    def test_momentum_shift_cross_term(self):
        # with only a momentum shift the matrix is scalar:
        # (|k + p|^2 + m0^2) I, the cross term appearing exactly
        params = GeneralizedParams(1.2, 0.0, (0.3, -0.4, 0.5))
        rng = np.random.default_rng(52)
        for _ in range(20):
            k = rng.uniform(-2, 2, 3)
            kk = k + params.p_tilde
            expected = (kk @ kk + params.m0 ** 2) * np.eye(4)
            assert max_abs(kg_rhs_matrix(k, params) - expected) <= 1e-12


class TestGaugeMap:
    def test_example_shift(self):
        sol = plane_wave_solve(np.zeros(3), GEN)[0]
        assert sol.energy == pytest.approx(0.5307764064044151)
        mapped = gauge_map(sol, GEN, STD)
        np.testing.assert_allclose(mapped.k, [0, 0, 0.25], atol=1e-15)
        assert mapped.energy == pytest.approx(1.0307764064044151)

    def test_standard_input_unchanged(self):
        sol = plane_wave_solve([0, 0, 0.4], STD)[0]
        mapped = gauge_map(sol, STD, STD)
        np.testing.assert_array_equal(mapped.k, sol.k)
        assert mapped.energy == sol.energy

    def test_mapped_solves_standard_hamiltonian(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            std = GeneralizedParams(params.m0)
            for sol in plane_wave_solve(k, params):
                mapped = gauge_map(sol, params, std)
                h = hamiltonian_matrix(mapped.k, std)
                assert max_abs(h @ mapped.spinor - mapped.energy * mapped.spinor) <= 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            params = random_params(rng)
            k = rng.uniform(-2, 2, 3)
            std = GeneralizedParams(params.m0)
            for sol in plane_wave_solve(k, params):
                back = gauge_map(gauge_map(sol, params, std), std, params)
                assert np.max(np.abs(back.k - sol.k)) <= 1e-12
                assert abs(back.energy - sol.energy) <= 1e-12
                np.testing.assert_array_equal(back.spinor, sol.spinor)

    def test_rejects_non_eigenstate(self):
        sol = plane_wave_solve(np.zeros(3), GEN)[0]
        bad = type(sol)(
            k=sol.k, energy=sol.energy + 0.3, branch=sol.branch, spinor=sol.spinor
        )
        with pytest.raises(ValueError):
            gauge_map(bad, GEN, STD)

    def test_rejects_non_finite_spinor(self):
        # A NaN spinor is no solution: the constructor rejects it, and the
        # shift behind gauge_map fails a NaN defect, not passes it.
        sol = plane_wave_solve(np.zeros(3), GEN)[0]
        nan_spinor = np.array([np.nan, 0, 0, 0], dtype=complex)
        with pytest.raises(ValueError, match="^spinor must be"):
            type(sol)(k=sol.k, energy=sol.energy, branch=sol.branch, spinor=nan_spinor)
        for target in (STD, GEN):
            with pytest.raises(ValueError, match=r"eigenstate .*\(residual nan\)"):
                _shift(sol.k, np.asarray(sol.energy), nan_spinor, GEN, target)

    def test_direct_map_equals_the_composition_through_the_standard_set(self):
        # Between two generalized parameter sets of one m0, the direct map
        # and the map through GeneralizedParams(m0) give the same solution:
        # the spinor bit for bit, k and the energy within 1e-12.
        rng = np.random.default_rng(55)
        for _ in range(50):
            source = random_params(rng)
            target = GeneralizedParams(source.m0, rng.uniform(-1, 1), rng.uniform(-1, 1, 3))
            std = GeneralizedParams(source.m0)
            for sol in plane_wave_solve(rng.uniform(-2, 2, 3), source):
                direct = gauge_map(sol, source, target)
                composed = gauge_map(gauge_map(sol, source, std), std, target)
                np.testing.assert_array_equal(direct.spinor.view(np.uint64),
                                              composed.spinor.view(np.uint64))
                assert np.max(np.abs(direct.k - composed.k)) <= 1e-12
                assert abs(direct.energy - composed.energy) <= 1e-12
                assert direct.branch == composed.branch == sol.branch
                h = hamiltonian_matrix(direct.k, target)
                assert max_abs(h @ direct.spinor - direct.energy * direct.spinor) <= 1e-10

    def test_rejects_a_mass_mismatch_by_name(self):
        # The shift changes no mass: parameter sets of different m0 have
        # no gauge map between them, whichever way round.
        sol = plane_wave_solve(np.zeros(3), GEN)[0]
        for target in (GeneralizedParams(2.0), GeneralizedParams(0.0, 0.5, (0.0, 0.0, 0.25))):
            with pytest.raises(ValueError, match="^m0 of source and target must be equal"):
                gauge_map(sol, GEN, target)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def momenta(shape=3):
    return arrays(float, shape, elements=reals(-2.0, 2.0))


@st.composite
def generalized_params(draw):
    """m0 in [0, 5] with the massless case drawn explicitly, eps and a general p."""
    m0 = draw(st.one_of(st.just(0.0), reals(0.0, 5.0)))
    return GeneralizedParams(
        m0, draw(reals(-1.0, 1.0)), draw(arrays(float, 3, elements=reals(-1.0, 1.0)))
    )


def bits(a):
    return np.asarray(a).view(np.uint64)


class TestSpectralCoreProperties:
    """One H0 and one energy formula for every momentum, parameter and stack."""

    @settings(max_examples=200, deadline=None)
    @given(params=generalized_params(), k=momenta())
    def test_dispersion_matches_eigensolver(self, params, k):
        eig = np.linalg.eigvalsh(hamiltonian_matrix(k, params))
        lo, hi = dispersion(k, params, -1), dispersion(k, params, +1)
        assert np.max(np.abs(eig - np.sort([lo, lo, hi, hi]))) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(params=generalized_params(), ks=st.integers(1, 8).flatmap(lambda n: momenta((n, 3))))
    def test_stacked_h0_rows_equal_one_momentum(self, params, ks):
        stack = _h0(ks, params)
        assert stack.shape == (len(ks), 4, 4)
        for k, h in zip(ks, stack):
            np.testing.assert_array_equal(bits(h), bits(_h0(k, params)))
        nested = _h0(ks[None], params)
        np.testing.assert_array_equal(bits(nested[0]), bits(stack))

    @settings(max_examples=100, deadline=None)
    @given(params=generalized_params(), k=momenta())
    def test_gauge_map_roundtrip(self, params, k):
        std = GeneralizedParams(params.m0)
        for sol in plane_wave_solve(k, params):
            back = gauge_map(gauge_map(sol, params, std), std, params)
            np.testing.assert_array_equal(bits(back.spinor), bits(sol.spinor))
            assert np.max(np.abs(back.k - sol.k)) <= 1e-12
            assert abs(back.energy - sol.energy) <= 1e-12
            assert back.branch == sol.branch

    @settings(max_examples=100, deadline=None)
    @given(params=generalized_params(), k=momenta(), offset=reals(0.01, 3.0))
    def test_from_standard_rejects_non_eigenstate(self, params, k, offset):
        std = GeneralizedParams(params.m0)
        for sol in plane_wave_solve(k, std):
            gauge_map(sol, std, params)  # a standard eigenstate maps
            bad = type(sol)(
                k=sol.k, energy=sol.energy + offset, branch=sol.branch, spinor=sol.spinor
            )
            with pytest.raises(ValueError, match="eigenstate"):
                gauge_map(bad, std, params)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(generalized_params(), momenta(), st.booleans()), min_size=1, max_size=8
        )
    )
    @example(rows=[(GeneralizedParams(0.0, 0.3, (0.1, -0.2, 0.4)), np.zeros(3), True)])
    def test_stacked_plane_waves_rows_equal_one_momentum(self, rows):
        """Per-row parameters and momenta, with k = -p_tilde where the flag
        is set: at m0 = 0 that row takes the massless zero-momentum branch."""
        params = [p for p, _, _ in rows]
        ks = np.array([-p.p_tilde if at_rest else k for p, k, at_rest in rows])
        stack = _ParamStack(
            np.array([p.m0 for p in params]), np.array([p.eps_tilde for p in params]),
            np.array([p.p_tilde for p in params]),
        )
        energies, spinors = _plane_waves(ks, stack)
        hams, squares = _hamiltonian(ks, stack), _dirac_square_residuals(ks, stack)
        for i, p in enumerate(params):
            sols = plane_wave_solve(ks[i], p)
            np.testing.assert_array_equal(bits(energies[i]), bits([s.energy for s in sols]))
            np.testing.assert_array_equal(bits(spinors[i]), bits([s.spinor for s in sols]))
            np.testing.assert_array_equal(bits(hams[i]), bits(hamiltonian_matrix(ks[i], p)))
            assert squares[i] == dirac_square_equals_kg(ks[i], p)
            if p.m0 == 0.0 and not np.any(ks[i] + p.p_tilde):
                np.testing.assert_array_equal(spinors[i], np.eye(4))
                np.testing.assert_array_equal(energies[i], -p.eps_tilde)

    def test_stacked_shift_rejects_one_bad_row(self):
        p_tilde = np.array([[0.0, 0.0, 0.2], [0.1, 0.0, 0.0]])
        stack = _ParamStack(np.array([1.0, 2.0]), np.array([0.3, -0.1]), p_tilde)
        ks = np.array([[0.3, 0.1, -0.2], [0.0, 0.5, 0.0]])
        energies, spinors = _plane_waves(ks, stack)
        energy, spinor = energies[:, 0], spinors[:, 0]
        _shift(ks, energy, spinor, stack, stack)
        with pytest.raises(ValueError, match="eigenstate"):
            _shift(ks, energy + [0.0, 0.3], spinor, stack, stack)

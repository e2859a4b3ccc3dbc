"""Generator algebra: anticommutation table, derived elements, basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diraclab import clifford
from diraclab.clifford import (
    GAMMA,
    GAMMA5,
    I4,
    BasisCoefficients,
    anticommutator,
    basis_decompose,
    basis_labels,
    basis_matrices,
    gamma,
    gamma5_gamma,
    max_abs,
    random_matrix,
    sigma_pair,
    vector_contract,
)


def test_gamma0_is_diag_plus_minus():
    np.testing.assert_array_equal(gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma_index_validation():
    with pytest.raises(ValueError):
        gamma(4)


def test_all_generators_square_to_identity():
    # gamma(3) @ gamma(3) is +I here, not -I: the spatial generators carry
    # an explicit factor of i.
    for mu in range(4):
        assert max_abs(gamma(mu) @ gamma(mu) - I4) <= 1e-15


def test_anticommutator_table():
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            target = 2.0 * I4 if mu == nu else np.zeros((4, 4))
            worst = max(worst, max_abs(anticommutator(GAMMA[mu], GAMMA[nu]) - target))
    assert worst <= 1e-14


def test_anticommutator_identity_case():
    rng = np.random.default_rng(3)
    m = random_matrix(rng)
    np.testing.assert_allclose(anticommutator(I4, m), 2 * m, atol=1e-15)


def test_gamma5_matches_product_and_literal():
    assert max_abs(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]) <= 1e-14
    literal = np.zeros((4, 4), dtype=complex)
    literal[0, 2] = literal[1, 3] = literal[2, 0] = literal[3, 1] = -1j
    assert max_abs(GAMMA5 - literal) <= 1e-15


def test_gamma5_is_antihermitian():
    assert max_abs(GAMMA5 + GAMMA5.conj().T) <= 1e-15


def is_hermitian(m, tol=1e-12):
    return max_abs(m - m.conj().T) <= tol


def test_hermitian_basis_elements():
    # All elements except the chiral one are Hermitian in this convention.
    for mu in range(4):
        assert is_hermitian(gamma(mu))
        assert is_hermitian(gamma5_gamma(mu))
    for mu in range(4):
        for nu in range(mu + 1, 4):
            assert is_hermitian(sigma_pair(mu, nu))
    assert not is_hermitian(GAMMA5)


def test_vector_contract_signs():
    v = np.array([2.0, 3.0, 0.0, 0.0])
    expected = 2.0 * gamma(0) - 3.0 * gamma(1)
    assert max_abs(vector_contract(v) - expected) <= 0


class TestBasisDecompose:
    def test_gamma5_is_pure_e5(self):
        coeffs = basis_decompose(GAMMA5)
        assert abs(coeffs.e5 - 1.0) <= 1e-14
        vec = coeffs.as_vector()
        assert np.max(np.abs(vec[:15])) <= 1e-14

    def test_identity_plus_gamma0(self):
        coeffs = basis_decompose(2.0 * I4 + 3.0 * gamma(0))
        assert abs(coeffs.a - 2.0) <= 1e-13
        np.testing.assert_allclose(coeffs.c, [3.0, 0, 0, 0], atol=1e-13)
        assert np.max(np.abs(coeffs.b)) <= 1e-13
        assert np.max(np.abs(coeffs.d)) <= 1e-13
        assert abs(coeffs.e5) <= 1e-13

    def test_gamma1_gamma2_is_pure_pair_coefficient(self):
        # sigma_pair(1, 2) = i*gamma(1)gamma(2), so the product decomposes
        # with coefficient -i on the (1, 2) slot.
        coeffs = basis_decompose(gamma(1) @ gamma(2))
        idx = basis_labels().index("b12") - 1  # offset into the b array
        np.testing.assert_allclose(coeffs.b[idx], -1j, atol=1e-14)
        others = [coeffs.b[i] for i in range(6) if i != idx]
        assert np.max(np.abs(others)) <= 1e-14

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            m = 2.0 * random_matrix(rng)
            worst = max(worst, max_abs(basis_decompose(m).reconstruct() - m))
        assert worst <= 1e-12

    def test_against_trace_inner_products(self):
        # Independent route: the sixteen columns are trace-orthogonal, so
        # each coefficient is a normalized trace overlap.
        rng = np.random.default_rng(12)
        mats = basis_matrices()
        for _ in range(50):
            m = random_matrix(rng)
            vec = basis_decompose(m).as_vector()
            for i, e in enumerate(mats):
                overlap = np.trace(e.conj().T @ m) / np.trace(e.conj().T @ e)
                assert abs(vec[i] - overlap) <= 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            basis_decompose(np.eye(3))


class TestHermiticityDetector:
    def test_agrees_with_direct_check(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = random_matrix(rng)
            if rng.random() < 0.5:
                m = m + m.conj().T
            direct = is_hermitian(m, 1e-12)
            from_coeffs = basis_decompose(m).is_hermitian()
            assert direct == from_coeffs

    def test_imaginary_chiral_coefficient_is_hermitian(self):
        # i * (chiral element) is Hermitian, so the detector must accept a
        # purely imaginary e5.
        m = I4 + 0.3j * GAMMA5
        assert is_hermitian(m)
        assert basis_decompose(m).is_hermitian()

    def test_real_chiral_coefficient_is_not(self):
        m = I4 + 0.3 * GAMMA5
        assert not is_hermitian(m)
        assert not basis_decompose(m).is_hermitian()

    def test_non_finite_coefficient_is_not(self):
        # v[3] = nan*1j read True when the parts were reduced one by one
        # with max(), which keeps an earlier finite value over a NaN
        values = (np.nan * 1j, complex(0.0, np.nan), complex(np.nan, 0.0), complex(np.inf, 0.0))
        for index in range(16):
            for value in values:
                v = np.zeros(16, dtype=complex)
                v[0] = 1.0
                v[index] = value
                assert not BasisCoefficients.from_vector(v).is_hermitian(), (index, value)


def test_basis_table_is_exactly_trace_orthogonal():
    # T^H T = 4 I with no rounding: the entries are 0, +-1 and +-i.  This
    # is what the closed-form decomposition (T^H vec m) / 4 rests on.
    table = clifford._BASIS_TABLE
    assert set(np.unique(table).tolist()) <= {0, 1, -1, 1j, -1j}
    np.testing.assert_array_equal(table.conj().T @ table, 4.0 * np.eye(16))


def test_each_basis_element_decomposes_to_its_unit_vector():
    for i, m in enumerate(basis_matrices()):
        np.testing.assert_array_equal(basis_decompose(m).as_vector(), np.eye(16)[i])


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.just(2), st.just(4), st.just(4)),
        elements=st.floats(-1e300, 1e300),
    )
)
def test_decompose_stack_rows_equal_one_matrix_calls(parts):
    stack = parts[:, 0] + 1j * parts[:, 1]
    rows = clifford._decompose(stack)
    for m, row in zip(stack, rows):
        np.testing.assert_array_equal(row.view(np.uint64), clifford._decompose(m).view(np.uint64))

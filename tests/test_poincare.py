"""Rotation/boost representations and the covariance condition."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.clifford import GAMMA, I4, max_abs
from diraclab.poincare import (
    _MAX_RAPIDITY,
    PoincareTransform,
    _covariance_residuals,
    _reps,
    _spinor,
    _vector,
    covariance_residual,
)


def spinor(kind, axis, par):
    return PoincareTransform(kind, axis, par).spinor_rep


def vector(kind, axis, par):
    return PoincareTransform(kind, axis, par).vector_rep


def test_zero_parameter_is_identity():
    assert max_abs(spinor("rotation", 3, 0.0) - I4) <= 0
    assert max_abs(spinor("boost", 3, 0.0) - I4) <= 0
    assert max_abs(vector("rotation", 2, 0.0) - I4) <= 0
    assert max_abs(vector("boost", 1, 0.0) - I4) <= 0


def test_invalid_axis_and_parameter():
    for kind, axis, par in [
        ("rotation", 0, 1.0),
        ("boost", 4, 1.0),
        ("boost", 3, float("inf")),
        ("shear", 1, 1.0),
        ("rotation", 1, float("nan")),
        ("rotation", 2, float("inf")),
        ("rotation", 3, float("-inf")),
        ("boost", 1, float("nan")),
    ]:
        with pytest.raises(ValueError):
            PoincareTransform(kind, axis, par)
    with pytest.raises(ValueError):
        PoincareTransform.rotation(1, float("nan"))
    # an axis must be the integer 1, 2 or 3: a float or a bool is rejected
    # by name, not by an IndexError deep in numpy
    for make, axis in [(PoincareTransform.rotation, 1.0), (PoincareTransform.boost, True),
                       (PoincareTransform.rotation, np.float64(2.0))]:
        with pytest.raises(ValueError, match="^axis must be an integer >= 1"):
            make(axis, 0.3)
    assert max_abs(spinor("boost", np.int64(2), 0.3) - spinor("boost", 2, 0.3)) == 0


def test_rotation_composition_adds_angles():
    lhs = spinor("rotation", 3, 0.7) @ spinor("rotation", 3, 1.1)
    assert max_abs(lhs - spinor("rotation", 3, 1.8)) <= 1e-14


def test_full_turn_is_minus_identity():
    assert max_abs(spinor("rotation", 3, 2 * np.pi) + I4) <= 1e-14
    assert max_abs(spinor("rotation", 1, 2 * np.pi) + I4) <= 1e-14


def test_boost_inverse_and_composition():
    assert max_abs(spinor("boost", 3, 0.9) @ spinor("boost", 3, -0.9) - I4) <= 1e-14
    lhs = spinor("boost", 3, 0.5) @ spinor("boost", 3, 0.5)
    assert max_abs(lhs - spinor("boost", 3, 1.0)) <= 1e-14


def test_rotations_unitary_boosts_hermitian():
    rng = np.random.default_rng(21)
    for _ in range(200):
        axis = int(rng.integers(1, 4))
        par = float(rng.uniform(-2, 2))
        r = spinor("rotation", axis, par)
        assert max_abs(r @ r.conj().T - I4) <= 1e-12
        t = PoincareTransform.boost(axis, par)
        s = t.spinor_rep
        assert max_abs(s - s.conj().T) <= 1e-12
        assert max_abs(s @ t.spinor_inverse() - I4) <= 1e-12


def test_same_axis_transforms_commute_and_add():
    rng = np.random.default_rng(22)
    for _ in range(50):
        axis = int(rng.integers(1, 4))
        a, b = rng.uniform(-2, 2, 2)
        for kind in ("rotation", "boost"):
            ab = spinor(kind, axis, a) @ spinor(kind, axis, b)
            ba = spinor(kind, axis, b) @ spinor(kind, axis, a)
            assert max_abs(ab - ba) <= 1e-10
            assert max_abs(ab - spinor(kind, axis, a + b)) <= 1e-10


def test_half_angle_identities():
    # Consistency of the trig/hyperbolic path used by the representations.
    for eta in np.linspace(-2, 2, 17):
        assert abs(np.sinh(eta / 2) * np.cosh(eta / 2) - np.sinh(eta) / 2) <= 1e-14
        assert abs(np.cosh(eta / 2) ** 2 - (np.cosh(eta) + 1) / 2) <= 1e-14
        assert abs(np.sinh(eta / 2) ** 2 - (np.cosh(eta) - 1) / 2) <= 1e-14
    for th in np.linspace(-2, 2, 17):
        assert abs(np.sin(th) - 2 * np.sin(th / 2) * np.cos(th / 2)) <= 1e-14
        assert abs(np.cos(th) - (np.cos(th / 2) ** 2 - np.sin(th / 2) ** 2)) <= 1e-14
        assert abs((1 - np.cos(th)) / 2 - np.sin(th / 2) ** 2) <= 1e-14


def test_boost_vector_rep_rows():
    eta = 0.8
    L = vector("boost", 3, eta)
    np.testing.assert_allclose(
        L[0], [np.cosh(eta), 0, 0, -1j * np.sinh(eta)], atol=1e-15
    )
    np.testing.assert_allclose(
        L[3], [1j * np.sinh(eta), 0, 0, np.cosh(eta)], atol=1e-15
    )
    np.testing.assert_allclose(L[1], [0, 1, 0, 0], atol=0)
    np.testing.assert_allclose(L[2], [0, 0, 1, 0], atol=0)


def test_rotation_vector_rep_quarter_turn():
    # A quarter turn about z sends the 1-index onto the 2-direction; the
    # pairing with the spinor side is what certifies the orientation.
    t = PoincareTransform.rotation(3, np.pi / 2)
    assert covariance_residual(GAMMA, t) <= 1e-12
    L = t.vector_rep
    np.testing.assert_allclose(L[1], [0, 0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(L[2], [0, -1, 0, 0], atol=1e-15)


def test_covariance_identity_and_specific_boost():
    assert covariance_residual(GAMMA, PoincareTransform.identity()) <= 1e-15
    assert covariance_residual(GAMMA, PoincareTransform.boost(3, 1.3)) <= 1e-12


def test_covariance_random_transforms():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        kind = "rotation" if rng.random() < 0.5 else "boost"
        t = PoincareTransform(kind, int(rng.integers(1, 4)), rng.uniform(-2, 2))
        worst = max(worst, covariance_residual(GAMMA, t))
    assert worst <= 1e-10


def test_covariance_detects_perturbation():
    perturbed = [GAMMA[0], GAMMA[1] + 0.1 * I4, GAMMA[2], GAMMA[3]]
    assert covariance_residual(perturbed, PoincareTransform.boost(1, 0.8)) > 0.01


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("eta", [20.0, 30.0, 40.0, -40.0])
def test_large_boosts_stay_covariant(axis, eta):
    # The residual is relative to the boost's own scale, cosh(eta).
    r = covariance_residual(GAMMA, PoincareTransform.boost(axis, eta))
    assert np.isfinite(r) and r <= 1e-15 * np.cosh(eta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rapidity_bound_is_where_cosh_overflows():
    bound = _MAX_RAPIDITY
    assert np.isfinite(np.cosh(bound))
    with np.errstate(over="ignore"):
        assert np.cosh(np.nextafter(bound, np.inf)) == np.inf
    for eta in (bound, -bound):
        assert np.isfinite(covariance_residual(GAMMA, PoincareTransform.boost(3, eta)))
    for eta in (np.nextafter(bound, np.inf), -800.0, 1e300):
        with pytest.raises(ValueError, match="^boost parameter .* overflows"):
            PoincareTransform.boost(1, eta)
    # an angle has no such bound: its sine and cosine are always finite
    assert PoincareTransform.rotation(1, 1e300).parameter == 1e300


def test_transform_is_its_kind_axis_and_parameter():
    assert [f.name for f in dataclasses.fields(PoincareTransform)] == ["kind", "axis", "parameter"]
    t = PoincareTransform.boost(1, 0.7)
    assert t == PoincareTransform("boost", np.int64(1), np.float64(0.7))
    assert hash(t) == hash(PoincareTransform("boost", 1, 0.7))
    assert len({t, PoincareTransform.boost(1, 0.7), PoincareTransform.rotation(1, 0.7)}) == 2
    assert PoincareTransform.identity() == PoincareTransform.rotation(3, 0)
    # each representation is computed from the triple: a write into one
    # returned array does not reach the transform
    t.spinor_rep[0, 0] = np.nan
    t.vector_rep[0, 0] = np.nan
    assert covariance_residual(GAMMA, t) <= 1e-12


def test_covariance_input_validation():
    with pytest.raises(ValueError):
        covariance_residual([I4, I4], PoincareTransform.identity())


def test_covariance_residual_does_not_hide_nan():
    # A NaN matrix in any slot must fail a `<=` gate, not read as 0.
    for slot in range(4):
        bset = list(GAMMA)
        bset[slot] = GAMMA[slot] * np.nan
        r = covariance_residual(bset, PoincareTransform.boost(1, 0.7))
        assert not r <= 1e-10
    # A NaN confined to one row of the index matrix must not be outranked
    # by the finite defects of the other rows.
    S, Sinv, L = _reps("boost", 1, 0.7)
    L[2, 2] = np.nan
    assert not _covariance_residuals(np.array(GAMMA), S, Sinv, L) <= 1e-10


transforms = st.builds(
    PoincareTransform,
    st.sampled_from(("rotation", "boost")),
    st.integers(1, 3),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(transforms, transforms)
def test_composed_transforms_are_covariant(t1, t2):
    """The generators stay covariant under the product of two transforms.

    The spinor action composes in the written order, S = S1 @ S2 with
    S^-1 = S2^-1 @ S1^-1, while the index action composes in reverse,
    L = L2 @ L1: conjugating by S1 @ S2 applies L2 first and then L1 to the
    tuple index.  With t1 = rotation(3, 1.0) and t2 = boost(1, 0.7), for
    example, L2 @ L1 leaves about 2e-16 and L1 @ L2 leaves 0.73.
    """
    S = t1.spinor_rep @ t2.spinor_rep
    Sinv = t2.spinor_inverse() @ t1.spinor_inverse()
    L = t2.vector_rep @ t1.vector_rep
    lhs = np.einsum("bm,mij->bij", L, np.array(GAMMA))
    assert max_abs(lhs - S @ np.array(GAMMA) @ Sinv) <= 1e-10


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("rotation", "boost")),
            st.integers(1, 3),
            st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0)),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_stacked_reps_rows_equal_one_transform(draws):
    """The stacked formulas give every row of a (T,) stack, signed zeros
    included, exactly as PoincareTransform gives one transform."""
    kinds, axes, pars = (list(col) for col in zip(*draws))
    S, Sinv, L = _reps(kinds, axes, pars)
    np.testing.assert_array_equal(bits(_spinor(kinds, axes, pars)), bits(S))
    np.testing.assert_array_equal(bits(_vector(kinds, axes, pars)), bits(L))
    residuals = _covariance_residuals(np.array(GAMMA), S, Sinv, L)
    for i, (kind, axis, par) in enumerate(draws):
        t = PoincareTransform(kind, axis, par)
        np.testing.assert_array_equal(bits(S[i]), bits(t.spinor_rep))
        np.testing.assert_array_equal(bits(Sinv[i]), bits(t.spinor_inverse()))
        np.testing.assert_array_equal(bits(L[i]), bits(t.vector_rep))
        assert residuals[i] == covariance_residual(GAMMA, t)

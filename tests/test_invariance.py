"""Phase-function machinery and the zero-phase uniqueness suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diraclab.clifford import GAMMA, GAMMA5, I4, basis_labels
from diraclab.invariance import (
    CheckResult,
    GeneralizedParams,
    PhaseFunction,
    _bc_residuals,
    _commutant_matrix,
    _containment_residual,
    _covariance_system_matrix,
    _listed_constraint_residual,
    _nullspace,
    _param_stack,
    _zeta,
    bc_condition_residual,
    bc_matrix,
    verify_phi0_uniqueness,
    zeta_boost,
    zeta_for,
    zeta_rotation,
)
from diraclab.poincare import PoincareTransform, _reps


class TestGeneralizedParams:
    def test_from_physical_roundtrip(self):
        p = GeneralizedParams.from_physical(1.5, 0.25, (0.1, -0.2, 0.3))
        assert p.m0 == pytest.approx(1.5)
        assert p.eps_tilde == pytest.approx(0.25)
        np.testing.assert_allclose(p.p_tilde, [0.1, -0.2, 0.3])

    def test_rejects_real_coefficients(self):
        with pytest.raises(ValueError):
            GeneralizedParams(a=1.0, c=np.zeros(4))
        with pytest.raises(ValueError):
            GeneralizedParams(a=1j, c=np.array([0.5, 0, 0, 0], dtype=complex))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            GeneralizedParams(a=-1j, c=np.zeros(4, dtype=complex))

    @pytest.mark.parametrize(
        "m0, eps, p", [(np.inf, 0.0, 0.0), (np.nan, 0.0, 0.0), (1.0, np.nan, 0.0),
                       (1.0, 0.0, (0.0, np.inf, 0.0)), (None, 0.0, 0.0),
                       (1.0, None, 0.0), (1.0, 0.0, (0.0, None, 0.0))]
    )
    def test_rejects_non_finite(self, m0, eps, p):
        # The message names the field and shows the value passed, not its
        # conversion (None, not nan).
        name, value = next(
            (name, x) for name, x in (("m0", m0), ("eps_tilde", eps), ("p_tilde", p))
            if not np.isfinite(np.asarray(x, dtype=float)).all()
        )
        with pytest.raises(ValueError, match="finite") as info:
            GeneralizedParams.from_physical(m0, eps, p)
        assert str(info.value) == f"{name} must be finite, got {value!r}"

    @pytest.mark.parametrize("m0, eps", [("a", 0.0), (1.0, "x")])
    def test_rejects_non_numeric(self, m0, eps):
        name, value = ("m0", m0) if m0 == "a" else ("eps_tilde", eps)
        with pytest.raises(ValueError, match="could not convert") as info:
            GeneralizedParams.from_physical(m0, eps)
        assert str(info.value).startswith(f"{name} must be a real number, got {value!r}")

    @pytest.mark.parametrize(
        "m0, eps, p, message",
        [
            (-1.0, 0.0, 0.0, "m0 must be nonnegative, got -1.0"),
            (np.nan, 0.0, 0.0, "m0 must be finite"),
            (1.0, np.inf, 0.0, "eps_tilde must be finite"),
            (1.0, 0.0, (np.nan, 0.0, 0.0), "p_tilde must be finite"),
        ],
    )
    def test_errors_name_the_physical_parameter(self, m0, eps, p, message):
        with pytest.raises(ValueError, match=message):
            GeneralizedParams.from_physical(m0, eps, p)

    def test_scalar_p_tilde_means_z(self):
        p = GeneralizedParams.from_physical(1.0, 0.0, 0.4)
        np.testing.assert_allclose(p.p_tilde, [0, 0, 0.4])


class TestZetaFunctions:
    def test_identity_transform_gives_zero(self):
        c = 1j * np.array([0.3, -0.7, 0.2, 0.9])
        assert np.max(np.abs(zeta_rotation(c, 3, 0.0).zeta)) == 0.0
        assert np.max(np.abs(zeta_boost(c, 1, 0.0).zeta)) == 0.0

    def test_rotation_leaves_axis_and_time_components(self):
        c = 1j * np.array([0.3, -0.7, 0.2, 0.9])
        z = zeta_rotation(c, 3, 1.1).zeta
        assert z[0] == 0.0 and z[3] == 0.0

    def test_rotation_example_value(self):
        # c2 = 0.3i, quarter turn about z.  The closure with the half-angle
        # rotation matrices fixes the overall sign; both plane components
        # come out +0.3 (see test_closure_* below for the defining check).
        z = zeta_rotation(np.array([0, 0, 0.3j, 0]), 3, np.pi / 2).zeta
        np.testing.assert_allclose(z[1], 0.3, atol=1e-15)
        np.testing.assert_allclose(z[2], 0.3, atol=1e-15)

    def test_rotation_vanishes_when_plane_components_vanish(self):
        c = 1j * np.array([0.4, 0, 0, -0.8])
        for th in (0.3, 1.2, 2.8):
            assert np.max(np.abs(zeta_rotation(c, 3, th).zeta)) == 0.0

    def test_boost_example_value(self):
        z = zeta_boost(np.array([0.5j, 0, 0, 0]), 3, 1.0).zeta
        np.testing.assert_allclose(z[0], -0.2715403174076219, atol=1e-15)
        np.testing.assert_allclose(z[3], -0.5876005968219007j, atol=1e-15)
        assert z[1] == 0.0 and z[2] == 0.0

    def test_boost_zero_c_gives_zero(self):
        z = zeta_boost(np.zeros(4, dtype=complex), 3, 1.7).zeta
        assert np.max(np.abs(z)) == 0.0

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            zeta_rotation(np.zeros(4), 0, 1.0)
        with pytest.raises(ValueError):
            zeta_boost(np.zeros(4), 5, 1.0)

    @pytest.mark.parametrize("par", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter(self, par):
        c = 1j * np.array([0.3, -0.7, 0.2, 0.9])
        with pytest.raises(ValueError, match="finite"):
            zeta_rotation(c, 1, par)
        with pytest.raises(ValueError, match="finite"):
            zeta_boost(c, 1, par)


class TestInvarianceCondition:
    def test_identity_residual_zero(self):
        c = 1j * np.array([0.5, 0, 0, 0])
        r = bc_condition_residual(0.3j, c, PoincareTransform.identity(), PhaseFunction.zero())
        assert r <= 1e-15

    def test_boost_with_matching_zeta(self):
        c = np.array([0.5j, 0, 0, 0])
        t = PoincareTransform.boost(3, 1.0)
        r = bc_condition_residual(0.0j, c, t, zeta_boost(c, 3, 1.0))
        assert r <= 1e-12

    def test_boost_without_zeta_fails(self):
        c = np.array([0.5j, 0, 0, 0])
        t = PoincareTransform.boost(3, 1.0)
        assert bc_condition_residual(0.0j, c, t, PhaseFunction.zero()) > 0.1

    def test_closure_random_rotations_and_boosts(self):
        # Central property: the zeta formulas close the invariance
        # condition for every axis, kind and parameter.
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(300):
            c = 1j * rng.uniform(-1, 1, 4)
            a = 1j * rng.uniform(0, 1)
            kind = "rotation" if rng.random() < 0.5 else "boost"
            t = PoincareTransform.make(kind, int(rng.integers(1, 4)), rng.uniform(-2, 2))
            worst = max(worst, bc_condition_residual(a, c, t, zeta_for(c, t)))
        assert worst <= 1e-10

    def test_identity_term_needs_no_phase(self):
        # With c = 0 the constant matrix is a multiple of the identity and
        # is invariant under every transform without any phase.
        rng = np.random.default_rng(32)
        c = np.zeros(4, dtype=complex)
        for _ in range(50):
            kind = "rotation" if rng.random() < 0.5 else "boost"
            t = PoincareTransform.make(kind, int(rng.integers(1, 4)), rng.uniform(-2, 2))
            assert bc_condition_residual(0.7j, c, t, PhaseFunction.zero()) <= 1e-12

    def test_bc_matrix_structure(self):
        from diraclab.clifford import I4, gamma

        m = bc_matrix(2j, np.array([0, 3j, 0, 0]))
        np.testing.assert_allclose(m, 2j * I4 - 3j * gamma(1), atol=1e-15)


class TestPhi0Uniqueness:
    def test_report_passes_and_format(self):
        report = verify_phi0_uniqueness(trials=100, seed=7)
        names = [r.name for r in report]
        assert names == [
            "phi0_gamma_structure",
            "phi0_ansatz_nullspace",
            "phi0_random_violation",
            "phi0_bc_commutant",
            "phi0_bc_negative",
        ]
        for r in report:
            assert r.passed, r.line()
            line = r.line()
            assert line.startswith(f"CHECK {r.name} max_residual=")
            assert line.endswith("PASS")

    def test_gamma_structure_residual_small(self):
        report = {r.name: r for r in verify_phi0_uniqueness(trials=1, seed=0)}
        assert report["phi0_gamma_structure"].max_residual <= 1e-10

    def test_mixed_normalization_blocks_pass_listed_constraints(self):
        # The listed constraints are insensitive to a scale on each matrix,
        # so the real-block normalization (g0, -i g1, -i g2, -i g3) passes too.
        bset = np.array([GAMMA[0], *(-1j * GAMMA[j] for j in (1, 2, 3))])
        assert _listed_constraint_residual(bset) <= 1e-10

    def test_random_draw_violates(self):
        rng = np.random.default_rng(34)
        bset = rng.uniform(-1, 1, (4, 4, 4)) + 1j * rng.uniform(-1, 1, (4, 4, 4))
        assert _listed_constraint_residual(bset) > 1e-3

    def test_covariant_tuples_are_gamma_and_gamma5_gamma(self):
        # Over all 64 entries of a 4-tuple, with no ansatz.
        dim, basis = _nullspace(_covariance_system_matrix())
        assert dim == 2
        gammas = np.array(GAMMA)
        for bset in (gammas, GAMMA5 @ gammas):
            assert _containment_residual(basis, bset.ravel()) <= 1e-14

    def test_perturbed_tuple_is_not_covariant(self):
        _, basis = _nullspace(_covariance_system_matrix())
        bset = np.array(GAMMA)
        bset[1] = bset[1] + 0.1 * I4
        assert _containment_residual(basis, bset.ravel()) > 1e-3

    def test_commutant_is_identity_and_gamma5(self):
        dim, basis = _nullspace(_commutant_matrix())
        assert dim == 2
        labels = basis_labels()
        for label in ("a", "e5"):  # the I and gamma5 columns
            e = np.zeros(16)
            e[labels.index(label)] = 1.0
            assert _containment_residual(basis, e) <= 1e-14

    def test_trials_validation(self):
        for trials in (0, -1, 2.0, None, "3"):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                verify_phi0_uniqueness(trials=trials)

    def test_checkresult_fail_line(self):
        r = CheckResult("demo", 0.5, False)
        assert r.line() == "CHECK demo max_residual=5.000000e-01 FAIL"


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("rotation", "boost")),
            st.integers(1, 3),
            st.floats(-2.0, 2.0),
            arrays(float, 4, elements=st.floats(-1.0, 1.0)),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_stacked_zeta_and_bc_rows_equal_one_transform(draws):
    kinds, axes, pars, cs, avals = (list(col) for col in zip(*draws))
    c, a = 1j * np.array(cs), 1j * np.array(avals)
    S, Sinv, _ = _reps(kinds, axes, pars)
    z = _zeta(c, kinds, axes, pars)
    residuals = _bc_residuals(a, c, S, Sinv, z)
    for i, (kind, axis, par, _, _) in enumerate(draws):
        t = PoincareTransform.make(kind, axis, par)
        phase = zeta_for(c[i], t)
        np.testing.assert_array_equal(bits(z[i]), bits(phase.zeta))
        assert residuals[i] == bc_condition_residual(a[i], c[i], t, phase)


def test_param_stack_keeps_the_generalized_params_checks():
    m0, eps, p = np.array([1.0, 0.5]), np.array([0.2, -0.3]), np.array([[0.1, 0, 0], [0, 0.2, 0]])
    stack = _param_stack(m0, eps, p)
    for i in range(2):
        one = GeneralizedParams.from_physical(m0[i], eps[i], p[i])
        assert (stack.m0[i], stack.eps_tilde[i]) == (one.m0, one.eps_tilde)
        np.testing.assert_array_equal(stack.p_tilde[i], one.p_tilde)
    with pytest.raises(ValueError, match="finite"):
        _param_stack(np.array([1.0, np.nan]), eps, p)
    with pytest.raises(ValueError, match="finite"):
        _param_stack(m0, eps, np.array([[0.1, 0, 0], [0, np.inf, 0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        _param_stack(np.array([1.0, -0.5]), eps, p)

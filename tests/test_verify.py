"""The verify suite: its reducer, NaN and empty-sample verdicts, the tol
domain, the stacked draws and the pinned default reports."""

import numpy as np
import pytest

import diraclab.invariance as invariance
import diraclab.nonrel as nonrel
import diraclab.verify as verify
from diraclab.invariance import _reduce
from diraclab.verify import format_report, report_header, run_verification

# `verify --trials 500` at seeds 1, 7 and 42, as the per-trial loops printed
# them before the checks ran on stacks.  A changed digit here is a changed
# residual: name it, do not regenerate the report.  levy_leblond_vs_pauli
# reads the linked-pair defect of the solved spinors; it read exactly 0
# while it compared two copies of one energy formula.
GOLDEN = {
    1: """\
# diraclab verify trials=500 seed=1
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=1.110223e-15 PASS
CHECK covariance_gamma max_residual=8.881784e-16 PASS
CHECK covariance_negative_control max_residual=5.752805e-02 PASS
CHECK zeta_condition max_residual=1.332268e-15 PASS
CHECK zeta_negative_control max_residual=1.992410e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.018307e-15 PASS
CHECK phi0_random_violation max_residual=1.823354e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=7.993606e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=8.950904e-16 PASS
CHECK levy_leblond_vs_pauli max_residual=4.580230e-16 PASS
""",
    7: """\
# diraclab verify trials=500 seed=7
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=1.110223e-15 PASS
CHECK covariance_gamma max_residual=8.881784e-16 PASS
CHECK covariance_negative_control max_residual=5.222864e-02 PASS
CHECK zeta_condition max_residual=1.336886e-15 PASS
CHECK zeta_negative_control max_residual=2.063539e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.018307e-15 PASS
CHECK phi0_random_violation max_residual=1.804402e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=6.217249e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=1.776574e-15 PASS
CHECK levy_leblond_vs_pauli max_residual=4.490358e-16 PASS
""",
    42: """\
# diraclab verify trials=500 seed=42
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=9.485750e-16 PASS
CHECK covariance_gamma max_residual=8.881784e-16 PASS
CHECK covariance_negative_control max_residual=5.493908e-02 PASS
CHECK zeta_condition max_residual=8.950904e-16 PASS
CHECK zeta_negative_control max_residual=2.328463e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.018307e-15 PASS
CHECK phi0_random_violation max_residual=1.783380e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=6.217249e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=1.777224e-15 PASS
CHECK levy_leblond_vs_pauli max_residual=4.494792e-16 PASS
""",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_default_report_is_pinned(seed):
    report = format_report(run_verification(500, seed), header=report_header(500, seed))
    assert report == GOLDEN[seed]


def test_nan_residuals_fail(monkeypatch):
    # A positive check (bound) and both phi0 checks built on the listed
    # constraints (one bound, one floor) must read FAIL on a NaN residual.
    monkeypatch.setattr(
        verify, "_covariance_residuals", lambda bset, S, Sinv, L: np.full(S.shape[:-2], np.nan)
    )
    monkeypatch.setattr(
        invariance, "_listed_constraint_residual", lambda bset: np.full(np.shape(bset)[:-3], np.nan)
    )
    lines = {r.name: r.line() for r in run_verification(5, 1)}
    for name in ("covariance_gamma", "phi0_gamma_structure", "phi0_random_violation"):
        assert lines[name] == f"CHECK {name} max_residual=nan FAIL"
    assert lines["zeta_condition"].endswith(" PASS")


@pytest.mark.parametrize("kind, gate", [("bound", 1e-10), ("floor", 1e-3)])
def test_reducer_fails_a_nan_among_finite_residuals(kind, gate):
    good = 0.0 if kind == "bound" else 1.0
    for position in (0, 3, 6):
        r = np.full(7, good)
        r[position] = np.nan
        result = _reduce("x", r, gate, kind)
        assert not result.passed
        assert np.isnan(result.max_residual)
    assert _reduce("x", np.full(7, good), gate, kind).passed


@pytest.mark.parametrize("kind", ["bound", "floor"])
@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 4))])
def test_reducer_fails_zero_samples(kind, empty):
    result = _reduce("x", empty, 1.0, kind)
    assert not result.passed
    assert np.isnan(result.max_residual) or np.isfinite(result.max_residual)
    assert result.line() == "CHECK x max_residual=nan FAIL"


def test_reducer_kinds():
    r = [0.2, 0.5, 0.3]
    assert _reduce("x", r, 0.5, "bound") == invariance.CheckResult("x", 0.5, True)
    assert _reduce("x", r, 0.4, "bound") == invariance.CheckResult("x", 0.5, False)
    assert _reduce("x", r, 0.2, "floor") == invariance.CheckResult("x", 0.2, True)
    assert _reduce("x", r, 0.3, "floor") == invariance.CheckResult("x", 0.2, False)
    with pytest.raises(ValueError, match="kind"):
        _reduce("x", r, 0.5, "max")


@pytest.mark.parametrize("trials", [0, -5, 2.0, None, "3"])
def test_run_verification_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_verification(trials, 1)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0])
def test_run_verification_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        run_verification(5, 1, tol=tol)


def test_stacked_uniform_draws_follow_the_per_trial_stream():
    # _uniform's one call must draw what one call per number, trial after
    # trial, drew: hermiticity's k (3 numbers) then m0, eps_tilde, p_tilde.
    bounds = verify._K + verify._PARAMS
    loop_rng, stack_rng = np.random.default_rng(11), np.random.default_rng(11)
    loop = [
        [*loop_rng.uniform(-2.0, 2.0, 3), loop_rng.uniform(0.1, 5.0),
         loop_rng.uniform(-1.0, 1.0), *loop_rng.uniform(-1.0, 1.0, 3)]
        for _ in range(23)
    ]
    stacked = verify._uniform(stack_rng, 23, bounds)
    assert stacked.tobytes() == np.array(loop).tobytes()
    assert loop_rng.random() == stack_rng.random()


def test_blocks_draw_and_check_like_one_stack(monkeypatch):
    # Trials run in blocks of at most invariance._BLOCK, so the stacks'
    # memory does not grow with --trials; blocks must not change a result.
    whole = run_verification(40, 3)
    monkeypatch.setattr(invariance, "_BLOCK", 7)
    sizes = []
    r = invariance._blockwise(lambda rng, n: sizes.append(n) or np.zeros(n), None, 40)
    assert sizes == [7] * 5 + [5] and r.shape == (40,)
    assert run_verification(40, 3) == whole


def test_levy_leblond_check_sees_a_wrong_energy_or_spinor(monkeypatch):
    # The linked-pair defect (e + eps_tilde) phi - sigma.K chi must read a
    # 1e-9 error in the energy, or in chi relative to phi, past the gate.
    energy, spinors = nonrel.pauli_energy, verify._levy_leblond_spinors

    def chi_off(k, p):
        e, phi, chi = spinors(k, p)
        return e, phi, chi * (1 + 1e-9)

    for target, name, wrong in (
        (nonrel, "pauli_energy", lambda k, p: energy(k, p) + 1e-9),
        (verify, "_levy_leblond_spinors", chi_off),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, wrong)
            result = run_verification(50, 3)[-1]
        assert result.name == "levy_leblond_vs_pauli"
        assert not result.passed and result.max_residual > 1e-11, name
    assert run_verification(50, 3)[-1].passed

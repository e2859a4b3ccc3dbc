"""The verify suite: its reducer, NaN and empty-sample verdicts, the tol
domain, the stacked draws and the pinned default reports."""

import numpy as np
import pytest

import diraclab.invariance as invariance
import diraclab.nonrel as nonrel
import diraclab.verify as verify
from diraclab.invariance import GeneralizedParams, _reduce
from diraclab.verify import format_report, report_header, run_verification

# `verify --trials 500` at seeds 1, 7 and 42, with every check drawing its
# trials in one generator call per block, one row per trial.  A changed
# digit here is a changed residual: name it, do not regenerate the report.
# levy_leblond_vs_pauli reads the linked-pair defect of the solved spinors;
# it read exactly 0 while it compared two copies of one energy formula.
# basis_roundtrip reads the closed-form decomposition (T^H vec m) / 4; it read
# 1.110223e-15, 1.110223e-15 and 9.485750e-16 while each matrix took an LU solve.
# phi0_ansatz_nullspace reads the kernel from eigh of the Gram matrix; it read
# 1.018307e-15 from an SVD, whose bits followed the BLAS thread count.
# zeta_condition reads zeta = -i(c - L^dagger c); it read 9.930137e-16 at seed 1
# and 1.332268e-15 at seed 42 from the per-kind trig formulas.
GOLDEN = {
    1: """\
# diraclab verify trials=500 seed=1
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=4.965068e-16 PASS
CHECK covariance_gamma max_residual=6.661338e-16 PASS
CHECK covariance_negative_control max_residual=5.320239e-02 PASS
CHECK zeta_condition max_residual=1.404333e-15 PASS
CHECK zeta_negative_control max_residual=1.707708e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.911229e-15 PASS
CHECK phi0_random_violation max_residual=1.823354e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=6.217249e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=1.776370e-15 PASS
CHECK levy_leblond_vs_pauli max_residual=6.686715e-16 PASS
""",
    7: """\
# diraclab verify trials=500 seed=7
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=6.280370e-16 PASS
CHECK covariance_gamma max_residual=8.881784e-16 PASS
CHECK covariance_negative_control max_residual=5.554033e-02 PASS
CHECK zeta_condition max_residual=9.930137e-16 PASS
CHECK zeta_negative_control max_residual=1.811275e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.911229e-15 PASS
CHECK phi0_random_violation max_residual=1.804402e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=6.217249e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=1.777224e-15 PASS
CHECK levy_leblond_vs_pauli max_residual=6.680228e-16 PASS
""",
    42: """\
# diraclab verify trials=500 seed=42
CHECK clifford_anticommutators max_residual=0.000000e+00 PASS
CHECK gamma5_identity max_residual=0.000000e+00 PASS
CHECK basis_roundtrip max_residual=4.965068e-16 PASS
CHECK covariance_gamma max_residual=8.881784e-16 PASS
CHECK covariance_negative_control max_residual=5.254612e-02 PASS
CHECK zeta_condition max_residual=1.110223e-15 PASS
CHECK zeta_negative_control max_residual=1.999365e-01 PASS
CHECK phi0_gamma_structure max_residual=0.000000e+00 PASS
CHECK phi0_ansatz_nullspace max_residual=1.911229e-15 PASS
CHECK phi0_random_violation max_residual=1.783380e+00 PASS
CHECK phi0_bc_commutant max_residual=0.000000e+00 PASS
CHECK phi0_bc_negative max_residual=2.000000e+00 PASS
CHECK hamiltonian_hermiticity max_residual=0.000000e+00 PASS
CHECK dispersion_vs_eigensolver max_residual=6.217249e-15 PASS
CHECK dirac_square_kg max_residual=1.421085e-14 PASS
CHECK gauge_map_roundtrip max_residual=1.776357e-15 PASS
CHECK levy_leblond_vs_pauli max_residual=6.661357e-16 PASS
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


@pytest.mark.parametrize("seed", [-1, None, 1.0, "3", (1, 2)])
def test_run_verification_rejects_bad_seed(seed):
    # Rejected before any draw: seed=None would otherwise run seven checks
    # and stop at seed + 1, and verify_phi0_uniqueness would draw from OS
    # entropy.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        run_verification(5, seed)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        invariance.verify_phi0_uniqueness(5, seed)


def test_numpy_integer_seed_is_the_int_seed():
    assert run_verification(5, np.int64(3)) == run_verification(5, 3)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0])
def test_run_verification_rejects_bad_tol(tol):
    # one message for a NaN, an infinite, a zero and a negative gate
    with pytest.raises(ValueError) as info:
        run_verification(5, 1, tol=tol)
    assert str(info.value) == f"tol must be positive and finite, got {tol}"


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


_TRANSFORM_CHECKS = ["_covariance", "_covariance_negative", "_zeta_condition", "_zeta_negative"]


def _record(monkeypatch, name):
    """Wrap verify.<name> so that each call's arguments and result are kept."""
    calls, wrapped = [], getattr(verify, name)

    def call(*args):
        calls.append((args, wrapped(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, name, call)
    return calls


@pytest.mark.parametrize("check", _TRANSFORM_CHECKS)
def test_transform_draws_cover_every_kind_axis_and_sign(monkeypatch, check):
    # Over a few thousand trials every (kind, axis) pair occurs, a
    # parameter bounded away from zero takes both signs, and every
    # parameter stays within its bounds.
    reps, bc = _record(monkeypatch, "_reps"), _record(monkeypatch, "_bc_residuals")
    getattr(verify, check)(np.random.default_rng(5), 3000)
    kinds, axes, pars = (x.ravel() for x in np.broadcast_arrays(*reps[0][0]))
    pairs = {(kind, axis) for kind in ("rotation", "boost") for axis in (1, 2, 3)}
    assert set(zip(kinds.tolist(), axes.tolist())) == pairs
    if check.endswith("negative"):
        assert set(np.sign(pars)) == {-1.0, 1.0}
        assert np.all((np.abs(pars) >= 0.5) & (np.abs(pars) < 2.0))
    else:
        assert np.all((pars >= -2.0) & (pars < 2.0))
    if check.startswith("_zeta"):
        a, c = (np.asarray(x) for x in bc[0][0][:2])
        assert np.all(a.real == 0) and np.all((a.imag >= 0.0) & (a.imag < 1.0))
        assert np.all(c.real == 0)
        if check == "_zeta_negative":
            assert np.all((np.abs(c.imag) >= 0.25) & (np.abs(c.imag) < 1.0))
            assert all(set(np.sign(col)) == {-1.0, 1.0} for col in c.imag.T)
        else:
            assert np.all((c.imag >= -1.0) & (c.imag < 1.0))


@pytest.mark.parametrize("check", _TRANSFORM_CHECKS)
def test_first_trials_of_a_longer_draw_are_the_shorter_draw(monkeypatch, check):
    # The first n rows of a 2n-trial draw are the n-trial draw, so blocks
    # of trials draw what one stack would.
    draws = _record(monkeypatch, "_uniform")
    short, long = (getattr(verify, check)(np.random.default_rng(9), n) for n in (37, 74))
    assert [u.shape[0] for _, u in draws] == [37, 74]
    assert draws[0][1].tobytes() == draws[1][1][:37].tobytes()
    assert short.tobytes() == long[:37].tobytes()


def test_extreme_draws_floor_below_the_upper_bound():
    # numpy's largest uniform double is r = 1 - 2**-53, drawn as
    # lo + (hi - lo) * r.  On (0, 2) that is 2 - 2**-52, exactly.  On
    # (1, 4), 3 * r lies 3/4 of an ulp below 3 (ulp 2**-51 on [2, 4)), so
    # it rounds down to 3 - 2**-51, and 1 + that is 4 - 2**-51, exactly.
    # Neither reaches hi, so the floors are 1 and 3, never 2 or 4.
    r = 1 - 2.0**-53
    top = np.array([[lo + (hi - lo) * r for lo, hi in verify._KIND_AXIS + verify._MAGNITUDE]])
    assert top[0, 0] == top[0, 3] == 2 - 2.0**-52 and top[0, 1] == 4 - 2.0**-51
    assert verify._floor(top[:, [0, 1, 3]]).tolist() == [[1, 3, 1]]
    kinds, axes = verify._kinds_axes(top[:, :2])
    assert kinds.tolist() == ["boost"] and axes.tolist() == [3]
    assert verify._signed(top[:, 2:]).tolist() == [top[0, 2]]
    bottom = np.array([[lo for lo, _ in verify._KIND_AXIS + verify._MAGNITUDE]])
    assert verify._floor(bottom[:, [0, 1, 3]]).tolist() == [[0, 1, 0]]
    assert verify._signed(bottom[:, 2:]).tolist() == [-0.5]


class _Edge:
    """A generator stand-in whose every uniform draw is one end of its bounds."""

    def __init__(self, top: bool):
        self.top = top

    def uniform(self, lo, hi, size):
        return np.broadcast_to(hi if self.top else lo, size).copy()


@pytest.mark.parametrize("top", [False, True], ids=["low", "high"])
def test_draw_bounds_lie_in_the_public_parameter_domain(monkeypatch, top):
    # verify builds its parameter stacks from its draws with no check of its
    # own, so every row it can draw, up to either end of the draw bounds,
    # must be a parameter set the public constructors accept, with the same
    # fields read back.
    generalized = _record(monkeypatch, "_ParamStack")
    for check in ("_hermiticity", "_dispersion", "_dirac_square", "_gauge_map", "_levy_leblond"):
        getattr(verify, check)(_Edge(top), 3)
    assert len(generalized) == 6
    for (m0, eps, p), _ in generalized:
        for i in range(len(m0)):
            one = GeneralizedParams.from_physical(m0[i], eps[i], p[i])
            assert (one.m0, one.eps_tilde, *one.p_tilde) == (m0[i], eps[i], *p[i])
    # The last stack is the Levy-Leblond check's: the limit forms, which
    # need m0 > 0, take its rows too.
    (m0, eps, p), _ = generalized[-1]
    for i in range(len(m0)):
        nonrel.levy_leblond_solve(0.5, GeneralizedParams.from_physical(m0[i], eps[i], p[i]))


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
    energy, spinors = nonrel._pauli_energy, verify._levy_leblond_spinors

    def chi_off(k, p):
        e, phi, chi = spinors(k, p)
        return e, phi, chi * (1 + 1e-9)

    for target, name, wrong in (
        (nonrel, "_pauli_energy", lambda k, p: energy(k, p) + 1e-9),
        (verify, "_levy_leblond_spinors", chi_off),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, name, wrong)
            result = run_verification(50, 3)[-1]
        assert result.name == "levy_leblond_vs_pauli"
        assert not result.passed and result.max_residual > 1e-11, name
    assert run_verification(50, 3)[-1].passed

"""Package-level import surface and the value types' array contract."""

import ast
import contextlib
import importlib
import io
import pkgutil
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import diraclab as dl
from diraclab.clifford import _equal_fields

# The whole public surface of `diraclab`, submodules aside.  An added,
# removed or leaked name changes this set and must be reviewed here.
PUBLIC = {
    # algebra
    "GAMMA", "GAMMA5", "I4", "PAULI", "pauli", "gamma", "sigma_pair",
    "gamma5_gamma", "anticommutator", "commutator", "vector_contract",
    "basis_decompose", "BasisCoefficients", "max_abs",
    # transformations
    "PoincareTransform", "covariance_residual",
    # invariance
    "PhaseFunction", "GeneralizedParams", "zeta_for", "bc_matrix",
    "bc_condition_residual", "verify_phi0_uniqueness", "CheckResult",
    # operators
    "ALPHA", "BETA", "hamiltonian_matrix", "dispersion", "plane_wave_solve",
    "PlaneWaveSolution", "kg_rhs_matrix", "dirac_square_equals_kg", "gauge_map",
    # limits
    "pauli_energy", "LevyLeblondSolution", "levy_leblond_solve",
    "kinetic_minus_rest", "nonrel_abs_error", "nonrel_error",
    # evolution
    "WavePacket", "Observables", "TrajectoryResult", "init_gaussian",
    "observables", "evolve", "trajectory",
    "write_trajectory_csv",
    # verification
    "run_verification", "format_report",
}


def test_public_surface():
    exported = {
        name for name in dir(dl)
        if not name.startswith("_") and not isinstance(getattr(dl, name), types.ModuleType)
    }
    assert exported == PUBLIC, (
        f"added: {sorted(exported - PUBLIC)}, missing: {sorted(PUBLIC - exported)}"
    )
    assert len(PUBLIC) == 48
    assert dl.__version__


def test_every_module_all_entry_resolves():
    for info in pkgutil.iter_modules(dl.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"diraclab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"diraclab.{info.name}.__all__ lists undefined names: {missing}"


def test_readme_quickstart_runs():
    # The README's one python block uses the public names it shows; run it
    # with every warning an error.  Its first two lines print the same
    # energy, from the eigensolver and from the closed form.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    lines = stdout.getvalue().splitlines()
    assert lines[0] == lines[1]
    assert float(lines[0]) == pytest.approx(0.530776, abs=1e-6)  # as the README says


@pytest.mark.parametrize(
    "build, field, array",
    [
        (lambda a: dl.WavePacket(n=64, length=1.0, values=a), "values",
         np.ones((64, 4), dtype=complex)),
        (lambda a: dl.PlaneWaveSolution(a, 1.0, 1, np.ones(4, dtype=complex)), "k",
         np.ones(3)),
        (lambda a: dl.PlaneWaveSolution(np.ones(3), 1.0, 1, a), "spinor",
         np.ones(4, dtype=complex)),
        (lambda a: dl.GeneralizedParams(1.0, 0.0, a), "p_tilde", np.ones(3)),
        (lambda a: dl.PhaseFunction(a), "zeta", np.ones(4, dtype=complex)),
    ],
    ids=["WavePacket", "PlaneWaveSolution.k", "PlaneWaveSolution.spinor",
         "GeneralizedParams", "PhaseFunction"],
)
def test_stored_arrays_are_read_only_copies(build, field, array):
    # The array already has the stored dtype and layout, so only an explicit
    # copy keeps the caller's array writeable and the stored field fixed.
    stored = getattr(build(array), field)
    assert not stored.flags.writeable
    assert array.flags.writeable
    array[...] = 0
    assert np.all(stored != 0)


# Value equality (clifford._equal_fields): two separately built values with
# equal fields compare equal, and a change in an array field or a scalar
# field makes them differ.  The generated dataclass __eq__ raised ValueError
# on the array fields.  Such a value is not hashable: hashing it raises
# TypeError naming its class, not the ndarray of one of its fields.
EQUAL_VALUES = {
    "GeneralizedParams": lambda shift: dl.GeneralizedParams(1.0, 0.2, shift),
    "WavePacket": lambda shift: dl.init_gaussian(128, 100.0, 50.0 + shift, 0.5, 8.0, params=_STD),
    "PhaseFunction": lambda shift: dl.PhaseFunction([0.3j, shift, 0.0, 0.1j]),
    "PlaneWaveSolution": lambda shift: dl.plane_wave_solve((0.0, shift, 0.4), _STD)[0],
    "BasisCoefficients": lambda shift: dl.basis_decompose(dl.gamma(1) + shift * dl.GAMMA5),
    "TrajectoryResult": lambda shift: dl.trajectory(
        dl.init_gaussian(64, 32.0, 16.0, 0.5, 4.0, params=_STD), _STD, 0.1 + shift, 3),
}


@pytest.mark.parametrize("name", sorted(EQUAL_VALUES))
def test_values_compare_by_their_fields(name):
    build = EQUAL_VALUES[name]
    a, same, other = build(0.0), build(0.0), build(0.5)
    assert type(a).__name__ == name and a is not same
    assert a == same and not (a != same)
    assert a != other and not (a == other)
    assert a != object() and a != 1.0
    assert type(a).__eq__ is type(same).__eq__ is _equal_fields
    with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
        hash(a)


# Every scalar entry point checks its input with one of two rules in
# diraclab.clifford: _count (an integer, not a bool, at least a bound) and
# _real (one finite real number, not a bool).  A rejected value raises
# ValueError whose message starts with the name of the field.
_STD = dl.GeneralizedParams(1.0)
_PACKET = dl.init_gaussian(128, 100.0, 50.0, 0.5, 8.0, params=_STD)
_GAUSSIAN = dict(n=128, length=100.0, x0=50.0, k0=0.5, width=8.0)
_C = 1j * np.array([0.3, -0.7, 0.2, 0.9])
_SPINOR = np.eye(4)[0]

ENTRY_POINTS = [
    ("trials", lambda v: dl.run_verification(v, 1)),
    ("trials", lambda v: dl.verify_phi0_uniqueness(v, 1)),
    ("seed", lambda v: dl.run_verification(5, v)),
    ("seed", lambda v: dl.verify_phi0_uniqueness(5, v)),
    ("tol", lambda v: dl.run_verification(5, 1, tol=v)),
    ("steps", lambda v: dl.evolve(_PACKET, _STD, 0.1, v)),
    ("steps", lambda v: dl.trajectory(_PACKET, _STD, 0.1, v)),
    ("sample_every", lambda v: dl.trajectory(_PACKET, _STD, 0.1, 4, sample_every=v)),
    ("dt", lambda v: dl.evolve(_PACKET, _STD, v)),
    ("dt", lambda v: dl.trajectory(_PACKET, _STD, v, 4)),
    ("n", lambda v: dl.WavePacket(v, 100.0, np.zeros((128, 4)))),
    ("length", lambda v: dl.WavePacket(128, v, np.zeros((128, 4)))),
    ("time", lambda v: dl.WavePacket(128, 100.0, np.zeros((128, 4)), time=v)),
    *((name, lambda v, name=name: dl.init_gaussian(**{**_GAUSSIAN, name: v}, params=_STD))
      for name in _GAUSSIAN),
    ("branch", lambda v: dl.init_gaussian(**_GAUSSIAN, branch=v, params=_STD)),
    ("branch", lambda v: dl.dispersion(0.5, _STD, v)),
    ("m0", lambda v: dl.GeneralizedParams(v)),
    ("eps_tilde", lambda v: dl.GeneralizedParams(1.0, v)),
    ("p_tilde", lambda v: dl.GeneralizedParams(1.0, 0.0, v)),
    ("k", lambda v: dl.dispersion(v, _STD)),
    # the limit functions' parameters, built as their callers build them
    ("m0", lambda v: dl.pauli_energy(0.5, dl.GeneralizedParams(v))),
    ("eps_tilde", lambda v: dl.levy_leblond_solve(0.5, dl.GeneralizedParams(1.0, v))),
    ("c_light", lambda v: dl.dispersion(0.5, _STD, c_light=v)),
    ("axis", lambda v: dl.PoincareTransform.rotation(v, 0.3)),
    ("axis", lambda v: dl.zeta_for(_C, dl.PoincareTransform("boost", v, 0.3))),
    ("rotation parameter", lambda v: dl.PoincareTransform.rotation(1, v)),
    ("boost parameter", lambda v: dl.PoincareTransform("boost", 2, v)),
    ("rotation parameter", lambda v: dl.zeta_for(_C, dl.PoincareTransform.rotation(3, v))),
    ("mu", lambda v: dl.gamma(v)),
    ("j", lambda v: dl.pauli(v)),
    ("mu", lambda v: dl.sigma_pair(v, 2)),
    ("nu", lambda v: dl.sigma_pair(1, v)),
    ("mu", lambda v: dl.gamma5_gamma(v)),
    ("energy", lambda v: dl.PlaneWaveSolution(np.zeros(3), v, 1, _SPINOR)),
    ("branch", lambda v: dl.PlaneWaveSolution(np.zeros(3), 1.0, v, _SPINOR)),
    ("c_light", lambda v: dl.kinetic_minus_rest(0.5, _STD, c_light=v)),
    ("c_light", lambda v: dl.nonrel_abs_error(0.5, _STD, c_light=v)),
    ("c_light", lambda v: dl.nonrel_error(0.5, _STD, c_light=v)),
]


BAD_SCALARS = {"bool": True, "list": [1.0, 2.0], "str": "a", "None": None, "nan": np.nan}
# An int too large for a float is a bad real number.  A count has its own
# rule, and trials=10**400 just runs that many trials.
BAD_REALS = {**BAD_SCALARS, "huge_int": 10**400}
COUNTS = {"trials", "seed", "steps", "sample_every", "n", "branch", "axis", "mu", "j", "nu"}


@pytest.mark.parametrize(
    "name, call, value",
    [pytest.param(name, call, value, id=f"{i}-{name}-{kind}")
     for i, (name, call) in enumerate(ENTRY_POINTS)
     for kind, value in (BAD_SCALARS if name in COUNTS else BAD_REALS).items()
     if not (name == "tol" and value is None)],  # tol=None is the default gate
)
def test_entry_points_reject_bad_scalars_by_name(name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} "), str(info.value)


def test_one_count_rule():
    # A count is checked by clifford._count alone: np.integer appears in
    # one isinstance call in the package, the one in _count.
    found = []
    for path in sorted((Path(dl.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and "np.integer" in ast.unparse(node)):
                    found.append((path.name, func.name))
    assert found == [("clifford.py", "_count")]
    text = "".join(p.read_text(encoding="utf-8") for p in Path(dl.__file__).parent.glob("*.py"))
    assert text.count("np.integer") == 1


def words_in_package_and_readme(words):
    """(file, word) for each of `words` that a package module or the README holds."""
    package = Path(dl.__file__).parent
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    texts["README.md"] = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    return [(name, word) for name, text in texts.items() for word in words if word in text]


def test_one_parameter_set_for_the_limits():
    # The limit forms take the generalized equation's GeneralizedParams, so
    # the momentum shift has one name, p_tilde: no second parameter type,
    # stack or name for it in the package or the README.  GeneralizedParams
    # stores its physical fields and is built by its own constructor: no
    # builder classmethod and no Hermiticity tolerance on complex fields.
    assert words_in_package_and_readme(
        ("NonRelParams", "_NonRelStack", "c_tilde", "from_physical",
         "GeneralizedParams.standard", "_IMAG_TOL")) == []


def test_one_public_name_per_energy_formula():
    # The branch energy is dispersion, in natural or physical units by its
    # c_light keyword; one gauge_map moves a solution between any two
    # parameter sets of equal m0; nonrel_error is the relative gap, NaN
    # where the limit energy vanishes.  No second name for any of them in
    # the package or the README.
    assert words_in_package_and_readme(
        ("dirac_energy", "gauge_map_to_standard", "gauge_map_from_standard", "NonRelError")) == []


@pytest.mark.parametrize(
    "name, call",
    [
        ("mu", lambda: dl.gamma(4)),
        ("j", lambda: dl.pauli(0)),
        ("nu", lambda: dl.sigma_pair(0, 4)),
        ("mu", lambda: dl.gamma5_gamma(-1)),
        ("axis", lambda: dl.PoincareTransform.boost(4, 0.3)),
    ],
    ids=["gamma", "pauli", "sigma_pair", "gamma5_gamma", "axis"],
)
def test_indices_out_of_range_are_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


# A value of the wrong shape or a non-finite coefficient is rejected by the
# name of the field that holds it.
def _solution(k=np.zeros(3), energy=1.0, branch=1, spinor=_SPINOR):
    return dl.PlaneWaveSolution(k, energy, branch, spinor)


FIELD_ERRORS = {
    "GeneralizedParams.from_physical.p_tilde": (
        "p_tilde", lambda: dl.GeneralizedParams(1.0, 0.0, [1.0, 2.0])),
    "dispersion.k": ("k", lambda: dl.dispersion([1.0, 2.0], _STD)),
    "hamiltonian_matrix.k": ("k", lambda: dl.hamiltonian_matrix(np.zeros((2, 3)), _STD)),
    "pauli_energy.k": ("k", lambda: dl.pauli_energy(np.zeros(4), _STD)),
    "levy_leblond_solve.k": ("k", lambda: dl.levy_leblond_solve([1.0, 2.0], _STD)),
    "GeneralizedParams.m0": ("m0", lambda: dl.GeneralizedParams(np.nan)),
    "GeneralizedParams.p_tilde": ("p_tilde", lambda: dl.GeneralizedParams(1.0, 0.0, [0.0, np.inf, 0.0])),
    "PlaneWaveSolution.k": ("k", lambda: _solution(k=[0, 0, np.nan])),
    "PlaneWaveSolution.energy": ("energy", lambda: _solution(energy=np.inf)),
    "PlaneWaveSolution.branch": ("branch", lambda: _solution(branch=7)),
    "PlaneWaveSolution.spinor": ("spinor", lambda: _solution(spinor=[1.0, 0.0])),
    "zeta_for.c": ("c", lambda: dl.zeta_for([0, np.nan, 0, 0], dl.PoincareTransform.identity())),
}


@pytest.mark.parametrize("name, call", FIELD_ERRORS.values(), ids=FIELD_ERRORS)
def test_shape_and_finiteness_errors_name_the_field(name, call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


# Finite inputs whose results overflow double precision, at every operators
# and evolution entry point: a ValueError naming the overflow, and no numpy
# RuntimeWarning on the way.
_HEAVY = dl.GeneralizedParams(1e200)
_FAR = dl.GeneralizedParams(1.0, 0.0, 1e308)
_HUGE = dl.WavePacket(64, 10.0, np.full((64, 4), 1e200))
OVERFLOWS = {
    "hamiltonian_matrix": lambda: dl.hamiltonian_matrix(1e308, _FAR),
    "kg_rhs_matrix-eps_tilde": lambda: dl.kg_rhs_matrix(0.5, dl.GeneralizedParams(1.0, 1e200)),
    "kg_rhs_matrix-m0": lambda: dl.kg_rhs_matrix(0.5, _HEAVY),
    "dirac_square_equals_kg": lambda: dl.dirac_square_equals_kg(0.5, _HEAVY),
    "dispersion": lambda: dl.dispersion(1e200, _STD),
    "plane_wave_solve": lambda: dl.plane_wave_solve(1e308, _FAR),
    "gauge_map": lambda: dl.gauge_map(
        dl.PlaneWaveSolution([0.0, 0.0, 1e308], 1.0, 1, [1.0, 0.0, 0.0, 0.0]), _FAR, _STD),
    "dispersion-c_light": lambda: dl.dispersion(0.5, _STD, c_light=1e200),
    "levy_leblond_solve": lambda: dl.levy_leblond_solve(1e200, _STD),
    "init_gaussian-width": lambda: dl.init_gaussian(**{**_GAUSSIAN, "width": 1e200}, params=_STD),
    "init_gaussian-m0": lambda: dl.init_gaussian(**_GAUSSIAN, params=_HEAVY),
    "evolve-steps": lambda: dl.evolve(_PACKET, _STD, 0.1, 10**400),
    "trajectory-steps": lambda: dl.trajectory(_PACKET, _STD, 0.1, 10**400),
    "evolve-m0": lambda: dl.evolve(_PACKET, _HEAVY, 0.1),
    "observables": lambda: dl.observables(_HUGE),
    "trajectory-packet": lambda: dl.trajectory(_HUGE, _STD, 0.1, 2),
    "PoincareTransform.boost": lambda: dl.PoincareTransform.boost(3, 800.0),
    "zeta_for-eta": lambda: dl.zeta_for(_C, dl.PoincareTransform.boost(3, 800.0)),
    "zeta_for-c": lambda: dl.zeta_for(1e300 * _C, dl.PoincareTransform.boost(3, 700.0)),
    "init_gaussian-n": lambda: dl.init_gaussian(**{**_GAUSSIAN, "n": 2**1100}, params=_STD),
    "trajectory-sample_every": lambda: dl.trajectory(_PACKET, _STD, 0.1, 4, sample_every=10**400),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflow_is_a_value_error_without_warning(call):
    with pytest.raises(ValueError, match="overflow"):
        call()


@pytest.mark.parametrize("name, case", [("n", "init_gaussian-n"),
                                        ("sample_every", "trajectory-sample_every")])
def test_counts_beyond_double_precision_name_the_count(name, case):
    with pytest.raises(ValueError, match=f"^{name} "):
        OVERFLOWS[case]()

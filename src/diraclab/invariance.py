"""Invariance conditions for the first-order 4-spinor equation.

The constant matrix of the equation has the form B = a*I + vector_contract(c).
Under a rotation or boost it fails to be invariant unless the wavefunction
absorbs an affine phase.  The phase gradient that restores invariance has
one closed form for every transform,

    zeta = -i * (c - L^dagger c),

with L the transform's index matrix (zeta_for below).  It holds for
products too, whose index matrix composes in the reverse order (S = S1 S2
has L = L2 L1), and for parity (S = gamma0, L = diag(1, -1, -1, -1)).
bc_condition_residual evaluates the defect

    B - S B S^{-1} - i * vector_contract(zeta)

which vanishes exactly when the triple (params, transform, phase) satisfies
the invariance condition.  With c = 0 the identity-term matrix commutes with
every spinor representation, so the standard equation needs no phase.

verify_phi0_uniqueness runs the zero-phase uniqueness suite over every
4-tuple of 4x4 matrices, with no ansatz: the covariant tuples are exactly
span{gamma^mu, gamma5 gamma^mu}, and the matrices commuting with every
Lorentz generator (poincare's _ROTATION_GEN and _BOOST_GEN, the only
generator tables) are exactly span{I, gamma5}.  It assumes the fixed spinor
representation and proper orthochronous transforms only; parity, which is
left out, is what would tell gamma5 gamma^mu from gamma^mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford import (
    I4,
    GAMMA,
    GAMMA5,
    _as_k3,
    _count,
    _equal_fields,
    _finite,
    _real,
    anticommutator,
    basis_matrices,
    commutator,
    gamma,
    vector_contract,
)
from .poincare import (
    _BOOST_GEN,
    _ROTATION_GEN,
    PoincareTransform,
    _covariance_defects,
    _covariance_residuals,
    _reps,
)

__all__ = [
    "PhaseFunction",
    "GeneralizedParams",
    "zeta_for",
    "bc_matrix",
    "bc_condition_residual",
    "CheckResult",
    "verify_phi0_uniqueness",
]


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Gradient zeta of the affine phase multiplying the wavefunction.

    zeta is a read-only copy of the 4-tuple that enters the invariance
    condition through the signed contraction i * vector_contract(zeta).
    """

    zeta: np.ndarray

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        z = np.array(self.zeta, dtype=np.complex128)
        if z.shape != (4,):
            raise ValueError(f"zeta must have 4 components, got shape {z.shape}")
        z.flags.writeable = False
        object.__setattr__(self, "zeta", z)

    @classmethod
    def zero(cls) -> "PhaseFunction":
        return cls(np.zeros(4, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class GeneralizedParams:
    """Free parameters of the generalized first-order equation: the rest
    mass m0 >= 0, the energy shift eps_tilde and the momentum shift p_tilde
    (a read-only (3,) copy; a scalar lies along z), all finite.  The
    paper's coefficients are a = i*m0 and c = i*(-eps_tilde, p_tilde);
    real fields keep the Hamiltonian Hermitian.
    """

    m0: float
    eps_tilde: float = 0.0
    p_tilde: np.ndarray = (0.0, 0.0, 0.0)

    __eq__ = _equal_fields
    __hash__ = None

    def __post_init__(self):
        # + 0.0 stores a signed zero as +0.0: -0.0 and 0.0 give the same bits
        m0, eps = _real("m0", self.m0) + 0.0, _real("eps_tilde", self.eps_tilde) + 0.0
        p = _as_k3("p_tilde", self.p_tilde) + 0.0
        if m0 < 0.0:
            raise ValueError(f"m0 must be nonnegative, got {self.m0!r}")
        p.flags.writeable = False
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "eps_tilde", eps)
        object.__setattr__(self, "p_tilde", p)

    @property
    def a(self) -> complex:
        return 1j * self.m0

    @property
    def c(self) -> np.ndarray:
        return 1j * np.array([-self.eps_tilde, *self.p_tilde])


class _ParamStack(NamedTuple):
    """The physical fields of many GeneralizedParams at once: m0 and
    eps_tilde of shape (...), p_tilde of shape (..., 3).  The operators
    cores take it wherever they take one GeneralizedParams."""

    m0: np.ndarray
    eps_tilde: np.ndarray
    p_tilde: np.ndarray


def zeta_for(c, transform: PoincareTransform) -> PhaseFunction:
    """The phase gradient that restores invariance under a transform.

    zeta = -i * (c - L^dagger c), with L the transform's index matrix
    (vector_rep).  c must be finite; a gradient that overflows double
    precision raises ValueError.  Written out, a rotation by t about axis a
    has only the two plane components

        zeta_k = -i*c_k*(1 - cos t) - i*c_l*sin t
        zeta_l = -i*c_l*(1 - cos t) + i*c_k*sin t

    with (a, k, l) cyclic, and a boost by e along axis a only the time and
    the boosted component

        zeta_0 = 2i*c_0*sinh^2(e/2) + 2*c_a*sinh(e/2)cosh(e/2)
        zeta_a = 2i*c_a*sinh^2(e/2) - 2*c_0*sinh(e/2)cosh(e/2)
    """
    c = np.asarray(c, dtype=np.complex128)
    if not np.isfinite(c).all():
        raise ValueError(f"c must be finite, got {c!r}")
    # an overflow gives inf or NaN quietly, and _finite rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = _zeta(c, transform.vector_rep)
    return PhaseFunction(_finite(zeta, "zeta"))


def _zeta(c, L) -> np.ndarray:
    """-i * (c - L^dagger c) for index matrices L of shape (4, 4) or
    (T, 4, 4), with c of shape (4,) or (T, 4).

    In this package's convention S vector_contract(c) S^-1 =
    vector_contract(L^dagger c), so B - S B S^-1 = vector_contract(c -
    L^dagger c) for B = bc_matrix(a, c): the a*I term cancels, and this
    zeta closes the invariance condition for any transform whose spinor
    and index matrices are S and L.
    """
    return -1j * (c - (c[..., None, :] @ np.conj(L))[..., 0, :])


def bc_matrix(a, c) -> np.ndarray:
    """Constant matrix a*I + signed contraction of c over the generators;
    a (...) stack of a with a (..., 4) stack of c gives (..., 4, 4)."""
    return np.asarray(a, dtype=np.complex128)[..., None, None] * I4 + vector_contract(c)


def bc_condition_residual(a, c, transform: PoincareTransform, phase: PhaseFunction) -> float:
    """Max-norm defect of the invariance condition for (a, c, T, phase).

    Arbitrary complex a and c are accepted here so that negative controls
    can probe non-Hermitian candidates.
    """
    S, Sinv, _ = _reps(transform.kind, transform.axis, transform.parameter)
    return float(_bc_residuals(a, c, S, Sinv, phase.zeta))


def _bc_residuals(a, c, S, Sinv, zeta) -> np.ndarray:
    """bc_condition_residual for (T,) stacks: a (T,), c and zeta (T, 4),
    spinor matrices and inverses (T, 4, 4); one residual per row."""
    B = bc_matrix(a, c)
    defect = B - S @ B @ Sinv - 1j * vector_contract(zeta)
    return np.max(np.abs(defect), axis=(-2, -1))


# ---------------------------------------------------------------------------
# Zero-phase uniqueness suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named residual check with its pass/fail verdict."""

    name: str
    max_residual: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} max_residual={self.max_residual:.6e} {status}"


def _reduce(name: str, residuals, gate: float, kind: str) -> CheckResult:
    """One check's verdict over every residual it produced.

    kind "bound" passes when the largest residual is at most the gate,
    "floor" (negative controls) when the smallest is at least the gate.
    The reported value is that largest or smallest residual.  A NaN
    residual propagates and fails either comparison, and a check that
    produced no residual at all fails with a NaN value.
    """
    if kind not in ("bound", "floor"):
        raise ValueError(f"kind must be 'bound' or 'floor', got {kind!r}")
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return CheckResult(name, float("nan"), False)
    if kind == "bound":
        value = float(np.max(r))
        return CheckResult(name, value, value <= gate)
    value = float(np.min(r))
    return CheckResult(name, value, value >= gate)


_BLOCK = 1024  # trials per stack: bounds the stacks' memory at any trial count


def _blockwise(residuals, rng, trials: int) -> np.ndarray:
    """residuals(rng, n), one (n,) residual per trial, over consecutive
    blocks of at most _BLOCK trials.  Each block draws its trials after the
    previous one, so the draws and residuals are those of one call with
    every trial, in memory that does not grow with the trial count."""
    parts = [residuals(rng, min(_BLOCK, trials - done)) for done in range(0, trials, _BLOCK)]
    return np.concatenate(parts) if parts else np.zeros(0)


def _listed_constraint_residual(bset):
    """The boost (anti)commutation constraints of the zero-phase analysis.

    For each boost axis b with generator X (poincare's _BOOST_GEN, a unit
    multiple of gamma(b)gamma(0)): the time matrix and the matrix along b
    anticommute with X, the transverse matrices commute with X.  Each
    constraint reads one matrix, so they are insensitive to a scale on each
    matrix of the tuple.  One max-norm
    residual per 4-tuple of a (..., 4, 4, 4) stack.
    """
    bset = np.asarray(bset, dtype=np.complex128)
    defects = []
    for b, X in zip((1, 2, 3), _BOOST_GEN):
        defects.append(anticommutator(bset[..., 0, :, :], X))
        defects.append(anticommutator(bset[..., b, :, :], X))
        defects.extend(commutator(bset[..., j, :, :], X) for j in (1, 2, 3) if j != b)
    return np.max(np.abs(np.stack(defects, axis=-3)), axis=(-3, -2, -1))


def _axis_reps(par: float):
    """_reps of one rotation and one boost about each axis, at par."""
    return _reps(np.tile(["rotation", "boost"], 3), np.repeat([1, 2, 3], 2), par)


def _covariance_system_matrix() -> np.ndarray:
    """The 384 x 64 linear map from the entries of a 4-tuple of 4x4
    matrices to its covariance defects under _axis_reps(0.7).

    A tuple covariant under every rotation and boost is covariant at 0.7,
    so the kernel holds every covariant tuple, and perhaps more.  Once it
    measures dimension 2 and contains gamma^mu and gamma5 gamma^mu, two
    independent covariant tuples, it is exactly their span: one parameter
    suffices.
    """
    units = np.eye(64).reshape(64, 1, 4, 4, 4)
    return _covariance_defects(units, *_axis_reps(0.7)).reshape(64, -1).T


def _nullspace(mat: np.ndarray):
    """The dimension and an orthonormal basis (columns) of mat's kernel,
    from eigh of the Gram matrix mat^H mat.  Rounding leaves its kernel
    eigenvalues near 1e-16 of the largest, and the others are at least 0.2
    of it for both maps here, so a cut at 1e-8 sits mid-gap.  The small
    eigensystem rounds the same on one BLAS thread and on two; an SVD of
    the tall mat did not."""
    values, vectors = np.linalg.eigh(mat.conj().T @ mat)  # ascending
    dim = int(np.sum(values < 1e-8 * values[-1]))
    return dim, vectors[:, :dim]


def _containment_residual(basis: np.ndarray, v: np.ndarray) -> float:
    """Distance of the unit vector along v from the span of basis; 1.0 for
    an empty basis."""
    v = v / np.linalg.norm(v)
    proj = basis @ (basis.conj().T @ v)
    return float(np.linalg.norm(v - proj))


def _commutant_matrix() -> np.ndarray:
    """Linear map from the 16 basis coefficients of a 4x4 matrix to its
    commutators with the six Lorentz generators."""
    cols = [
        np.concatenate([commutator(m, g).ravel() for g in (*_ROTATION_GEN, *_BOOST_GEN)])
        for m in basis_matrices()
    ]
    return np.stack(cols, axis=1)


def _random_violations(rng, n: int) -> np.ndarray:
    """Listed-constraint residuals of n random complex 4-tuples; the
    per-trial draws are the real then the imaginary parts, in one call."""
    u = rng.uniform(-1, 1, (n, 2, 4, 4, 4))
    return _listed_constraint_residual(u[:, 0] + 1j * u[:, 1])


_PHI0_TOL = 1e-10  # gate of the uniqueness suite's residual-bounded checks
_VIOLATION_FLOOR = 1e-3  # least violation its negative controls must show


def verify_phi0_uniqueness(trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Numerical evidence that zero phase forces the standard structure,
    over every 4-tuple of 4x4 matrices.

    Returns one CheckResult per constraint group, gated at _PHI0_TOL or,
    for the two that must fail a constraint, _VIOLATION_FLOOR:

    * phi0_gamma_structure: the generator 4-tuple satisfies every listed
      constraint;
    * phi0_ansatz_nullspace: the covariance-linear system over all 64
      entries of a 4-tuple has a two-dimensional solution space, spanned
      by gamma^mu and gamma5 gamma^mu, and every reconstructed basis tuple
      is covariant at a second parameter;
    * phi0_random_violation: seeded random complex 4-tuples each violate
      at least one constraint;
    * phi0_bc_commutant: the matrices commuting with all six Lorentz
      generators are exactly span{I, gamma5}, over all 16 basis elements;
    * phi0_bc_negative: a bare generator used as the constant matrix
      violates the commutation constraints outright.

    What this still assumes: the fixed spinor representation of the
    transforms, and proper orthochronous transforms only.  Parity would
    tell gamma^mu from gamma5 gamma^mu (and I from gamma5); without it
    both survive.  phi0_ansatz_nullspace keeps its name, from the earlier
    block-ansatz form of the check, because the acceptance tests and the
    benchmark pin the check names.
    """
    _count("trials", trials, 1)
    rng = np.random.default_rng(_count("seed", seed, 0))
    gammas = np.array(GAMMA)
    r = _listed_constraint_residual(gammas)
    results = [_reduce("phi0_gamma_structure", r, _PHI0_TOL, "bound")]

    dim, basis = _nullspace(_covariance_system_matrix())
    covariant = (gammas, GAMMA5 @ gammas)
    stats = [abs(dim - 2), *(_containment_residual(basis, t.ravel()) for t in covariant)]
    # Reconstructed basis tuples must themselves pass the covariance check.
    cov = _covariance_residuals(basis.T.reshape(-1, 1, 4, 4, 4), *_axis_reps(0.8))
    results.append(_reduce("phi0_ansatz_nullspace", [*stats, *cov.ravel()], _PHI0_TOL, "bound"))

    r = _blockwise(_random_violations, rng, trials)
    results.append(_reduce("phi0_random_violation", r, _VIOLATION_FLOOR, "floor"))

    dim, basis = _nullspace(_commutant_matrix())
    identity_and_gamma5 = np.eye(16)[[0, 15]]  # the basis's first and last elements
    stats = [abs(dim - 2), *(_containment_residual(basis, e) for e in identity_and_gamma5)]
    results.append(_reduce("phi0_bc_commutant", stats, _PHI0_TOL, "bound"))

    # The violation is the largest of the six commutators; one residual.
    generators = (*_ROTATION_GEN, *_BOOST_GEN)
    worst_gamma1 = np.max(np.abs([commutator(gamma(1), g) for g in generators]))
    results.append(_reduce("phi0_bc_negative", worst_gamma1, _VIOLATION_FLOOR, "floor"))
    return results

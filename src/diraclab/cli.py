"""Batch command-line front end.

Subcommands: verify (check report), dispersion (branch/limit energy sweep
CSV), evolve (trajectory CSV), limit (non-relativistic error table CSV),
decompose (basis coefficients of a matrix file).  Runs are fully determined
by the command line plus the seed; no environment variables or config
files.  Exit status: 0 success, 1 check failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .clifford import _count, _real, basis_decompose, basis_labels
from .evolution import init_gaussian, trajectory, write_trajectory_csv
from .invariance import GeneralizedParams
from .nonrel import _limit_domain, kinetic_minus_rest, nonrel_abs_error, nonrel_error, pauli_energy
from .operators import dispersion
from .verify import format_report, report_header, run_verification

__all__ = ["main", "build_parser", "parse_matrix_file", "write_matrix_file"]


def parse_matrix_file(path: str) -> np.ndarray:
    """Read a 4x4 complex matrix: 4 lines of 8 floats (re im pairs).

    Raises ValueError with a line/column diagnostic on malformed input,
    a non-finite value (nan, inf) included.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    if len(lines) != 4:
        raise ValueError(f"{path}: expected 4 data lines, found {len(lines)}")
    out = np.zeros((4, 8))
    for row, (lineno, line) in enumerate(lines):
        fields = line.split()
        if len(fields) != 8:
            raise ValueError(
                f"{path}: line {lineno}: expected 8 values, found {len(fields)}"
            )
        for col, token in enumerate(fields):
            try:
                out[row, col] = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}, field {col + 1}: "
                    f"could not parse {token!r} as a number"
                ) from None
            if not np.isfinite(out[row, col]):
                raise ValueError(
                    f"{path}: line {lineno}, field {col + 1}: {token!r} is not finite"
                )
    return out.view(np.complex128)  # (re, im) pairs, bit for bit, signed zeros too


def write_matrix_file(path: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        for row in range(4):
            parts = []
            for col in range(4):
                parts.append(f"{m[row, col].real:.17g}")
                parts.append(f"{m[row, col].imag:.17g}")
            fh.write(" ".join(parts) + "\n")


def _fmt_complex(z: complex) -> str:
    re = f"{z.real:.12g}"
    im = f"{abs(z.imag):.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


def _output(path):
    """The stream a `with` block writes to: the file `path`, closed at the
    block's end, or stdout for None and "-", which stays open."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


# Rows of a sweep CSV formatted and written per write call.
_CHUNK_ROWS = 512


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows, each value as repr(float).

    Each row's bytes are ``",".join(map(repr, row)) + "\\n"``.  The rows are
    formatted in chunks of _CHUNK_ROWS, and a column object passed twice
    (dispersion's Pauli energy) is formatted once per chunk.
    """
    distinct = {id(col): np.asarray(col, dtype=float) for col in columns}
    slots = [list(distinct).index(id(col)) for col in columns]
    arrays = list(distinct.values())
    rows = min(map(len, arrays))
    with _output(path) as stream:
        stream.write(header + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            end = start + _CHUNK_ROWS
            chunk = [list(map(repr, a[start:end].tolist())) for a in arrays]
            lines = map(",".join, zip(*[chunk[i] for i in slots]))
            stream.write("\n".join(lines) + "\n")


def _sweep_rows(flag: str, count) -> int:
    """A sweep's row count, once it is an integer >= 2 that one float64
    array can hold: numpy allocates no array of more than sys.maxsize bytes."""
    if _count(flag, count, 2) > sys.maxsize // 8:
        raise ValueError(f"{flag} must be at most {sys.maxsize // 8}, the most float64 values "
                         "one array can hold")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description=__doc__.splitlines()[0] if __doc__ else None,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("dispersion", help="energy branches over a momentum sweep")
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--eps-tilde", type=float, default=0.0)
    p.add_argument("--p-tilde", type=float, default=0.0)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--c-light", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("evolve", help="spectral wavepacket trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--eps-tilde", type=float, default=0.0)
    p.add_argument("--p-tilde", type=float, default=0.0)
    p.add_argument("--sample-every", type=int, default=1)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("limit", help="non-relativistic limit error table")
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--c-light", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("decompose", help="basis coefficients of a matrix file")
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output", default=None)

    return parser


def _cmd_verify(args) -> int:
    results = run_verification(trials=args.trials, seed=args.seed, tol=args.tol)
    sys.stdout.write(
        format_report(results, header=report_header(args.trials, args.seed))
    )
    return 0 if all(r.passed for r in results) else 1


def _cmd_dispersion(args) -> int:
    _sweep_rows("--steps", args.steps)
    k_min, k_max = _real("--k-min", args.k_min), _real("--k-max", args.k_max)
    if not np.isfinite(k_max - k_min):
        raise ValueError(
            "the span from --k-min to --k-max is not finite: "
            "the inputs overflow double precision"
        )
    # the Pauli columns' m0 > 0, before GeneralizedParams, whose m0 rule is m0 >= 0
    _limit_domain(args.m0, args.c_light)
    params = GeneralizedParams(args.m0, args.eps_tilde, (0.0, 0.0, args.p_tilde))
    ks = np.linspace(k_min, k_max, args.steps)
    k3 = ks[:, None] * (0.0, 0.0, 1.0)  # the sweep runs along z
    pauli = pauli_energy(k3, params)
    plus, minus = (dispersion(k3, params, b, c_light=args.c_light) for b in (+1, -1))
    columns = (ks, plus, minus, pauli, pauli)
    _write_csv(args.output, "k,eps_plus,eps_minus,eps_pauli,eps_ll", columns)
    return 0


def _cmd_evolve(args) -> int:
    params = GeneralizedParams(args.m0, args.eps_tilde, (0.0, 0.0, args.p_tilde))
    x0 = args.x0 if args.x0 is not None else args.length / 2.0
    packet = init_gaussian(
        args.n, args.length, x0, args.k0, args.width, branch=args.branch, params=params
    )
    result = trajectory(
        packet, params, args.dt, args.steps, sample_every=args.sample_every
    )
    with _output(args.output) as stream:
        write_trajectory_csv(stream, result)
    return 0


def _cmd_limit(args) -> int:
    _sweep_rows("--points", args.points)
    k_max = _real("--k-max", args.k_max)
    if k_max <= 0.0:
        raise ValueError("--k-max must be positive and finite")
    if k_max * 1e-3 == 0.0:
        raise ValueError(f"--k-max is too small: the grid's first point, --k-max/1000, "
                         f"underflows to zero, got {args.k_max!r}")
    _limit_domain(args.m0, args.c_light)
    params = GeneralizedParams(args.m0)
    ks = np.geomspace(args.k_max * 1e-3, args.k_max, args.points)
    k3 = ks[:, None] * (0.0, 0.0, 1.0)
    columns = (
        ks,
        kinetic_minus_rest(k3, params, c_light=args.c_light),
        pauli_energy(k3, params),
        nonrel_abs_error(k3, params, c_light=args.c_light),
        nonrel_error(k3, params, c_light=args.c_light),
    )
    _write_csv(args.output, "k,dirac_kinetic,pauli_kinetic,abs_error,rel_error", columns)
    return 0


def _cmd_decompose(args) -> int:
    m = parse_matrix_file(args.input)
    coeffs = basis_decompose(m)
    vec = coeffs.as_vector()
    with _output(args.output) as stream:
        for label, value in zip(basis_labels(), vec):
            stream.write(f"{label}={_fmt_complex(complex(value))}\n")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "dispersion": _cmd_dispersion,
    "evolve": _cmd_evolve,
    "limit": _cmd_limit,
    "decompose": _cmd_decompose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the inputs need more memory than is available: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the inputs overflow double precision: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded CLI command lines and their output gates.

Every iteration of a workload is a short list of commands for
``diraclab.cli.main``.  A ``random.Random`` seeded from ``--seed`` draws the
physical parameters of each iteration, so the program sees only generated
inputs and the same seed gives the same inputs.  Sizes are fixed, so the
cost of an iteration does not depend on the seed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the gate applied to what it printed or wrote."""

    kind: str  # CLI subcommand
    argv: list[str]
    output: Path | None  # file named by -o, or None when it prints to stdout
    check: Callable[[str], list[str]]  # output text -> gate violations


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work: str  # the work one iteration does, for the throughput note
    make: Callable[[random.Random, Path], list[Command]]


def _num(x: float) -> str:
    return repr(float(x))


def _signed(flag: str, x: float) -> str:
    # One token, so that argparse reads a value such as -7e-05 as the
    # option's value and not as an unknown option.
    return f"{flag}={_num(x)}"


def _evolve(rng, out, *, n, length, dt, steps, sample_every, width, x0):
    # Around the criterion-09 point (m0 = 1, k0 = 0.5).  A packet's mean
    # velocity sits below the plane-wave group velocity the gate compares
    # with (dispersion over the packet's momentum spread, branch mixing);
    # the bias grows as m0 and k0 + p_tilde shrink and passes 1% near
    # m0 = 0.8, k0 + p_tilde = 0.3 on the criterion-09 grid (T = 50).  In
    # this range it stays under 0.65% there and under 0.25% on the
    # evolve_dense grid, and with k0 + p_tilde < 0.8 the packet stays clear
    # of the periodic boundary.
    m0 = rng.uniform(1.0, 1.5)
    eps = rng.uniform(-0.5, 0.5)
    p = rng.uniform(0.0, 0.2)
    k0 = rng.uniform(0.5, 0.6)
    path = out / "trajectory.csv"
    argv = [
        "evolve", "--n", str(n), "--length", _num(length), "--dt", _num(dt),
        "--steps", str(steps), "--sample-every", str(sample_every),
        "--width", _num(width), "--x0", _num(x0), "--k0", _num(k0),
        "--m0", _num(m0), _signed("--eps-tilde", eps), _signed("--p-tilde", p),
        "-o", str(path),
    ]
    check = functools.partial(
        checks.check_trajectory,
        rows=steps // sample_every + 1, m0=m0, kinetic=k0 + p, length=length,
    )
    return [Command("evolve", argv, path, check)]


def _verify(rng, out, *, trials):
    argv = ["verify", "--trials", str(trials), "--seed", str(rng.randrange(2**31))]
    check = functools.partial(checks.check_verify, expected=checks.VERIFY_CHECKS)
    return [Command("verify", argv, None, check)]


def _sweeps(rng, out, *, points):
    m0 = rng.uniform(0.5, 2.0)
    eps = rng.uniform(-1.0, 1.0)
    p = rng.uniform(-0.5, 0.5)
    k_max = rng.uniform(0.5, 0.95) * m0  # the limit table needs k_max < m0
    disp = out / "dispersion.csv"
    limit = out / "limit.csv"
    return [
        Command(
            "dispersion",
            ["dispersion", "--m0", _num(m0), _signed("--eps-tilde", eps),
             _signed("--p-tilde", p), "--k-min", "-2.0", "--k-max", "2.0",
             "--steps", str(points), "-o", str(disp)],
            disp,
            functools.partial(checks.check_dispersion, rows=points, m0=m0, p_tilde=p),
        ),
        Command(
            "limit",
            ["limit", "--m0", _num(m0), "--k-max", _num(k_max),
             "--points", str(points), "-o", str(limit)],
            limit,
            functools.partial(checks.check_limit, rows=points, m0=m0),
        ),
    ]


def _suite_sweeps(rng, out, *, trials, points):
    return _verify(rng, out, trials=trials) + _sweeps(rng, out, points=points)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve_dense",
            "one step per sample: observables, FFT, packet construction and CSV "
            "dominate, stepping is about a third",
            "1001 samples",
            functools.partial(_evolve, n=4096, length=800.0, dt=0.5, steps=1000,
                              sample_every=1, width=10.0, x0=100.0),
        ),
        Workload(
            "suite_sweeps",
            "verify checks (Python-level 4x4 work in clifford, poincare, invariance) "
            "then energy sweeps (scalar calls in operators, nonrel; cli CSV rows); no FFT",
            "500 verify trials and two 10 001-row sweeps",
            functools.partial(_suite_sweeps, trials=500, points=10_001),
        ),
    )
}

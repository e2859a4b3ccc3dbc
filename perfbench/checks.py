"""Output gates for the benchmark, taken from the acceptance criteria.

The gates check physics, not golden bytes, so a change that moves trailing
digits (an exact propagator in place of repeated stepping, a vectorized
sweep) still passes, while a wrong answer fails.  CSV columns are read by
header name, so extra columns are ignored.  Each check returns the list of
violations it found; an empty list means the output passed.
"""

from __future__ import annotations

import math

NORM_GATE = 1e-10  # |norm - 1| on every trajectory row (criterion 09)
VELOCITY_GATE = 0.01  # relative group-velocity error of the mean_x fit (criterion 09)
MEAN_K_GATE = 1e-9  # drift of the mean momentum, which free evolution conserves
ENERGY_GATE = 1e-12  # relative error of the recomputed sweep energies
CLEARANCE = 5.0  # spreads between the packet and the ends of the periodic box
VERIFY_CHECKS = 17  # CHECK lines in a verify report


def columns(text: str, names) -> dict[str, list[float]]:
    """Parse CSV text and return the named columns as floats.

    Raises ValueError when a column is missing or a field is not a number.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"missing columns {missing} in header {header}")
    index = {n: header.index(n) for n in names}
    out: dict[str, list[float]] = {n: [] for n in names}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"line {lineno}: {len(fields)} fields, header has {len(header)}")
        for n, i in index.items():
            out[n].append(float(fields[i]))
    return out


def _rows(cols, expected: int) -> list[str]:
    got = len(next(iter(cols.values())))
    return [] if got == expected else [f"{got} rows, expected {expected}"]


def _slope(xs, ys) -> float:
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def norm_drift(text: str) -> float:
    """Largest |norm - 1| over the rows of a trajectory CSV."""
    return max(abs(v - 1.0) for v in columns(text, ("norm",))["norm"])


def check_trajectory(text: str, *, rows: int, m0: float, kinetic: float, length: float) -> list[str]:
    """Gate an `evolve` CSV: unit norm, conserved mean momentum, and a mean
    position moving at the group velocity kinetic / sqrt(m0^2 + kinetic^2),
    with the packet clear of the periodic boundary."""
    try:
        c = columns(text, ("t", "norm", "mean_x", "spread", "mean_k"))
    except ValueError as exc:
        return [str(exc)]
    problems = _rows(c, rows)
    if len(c["t"]) < 2:
        return problems + ["fewer than two samples"]
    drift = max(abs(v - 1.0) for v in c["norm"])
    if not drift <= NORM_GATE:
        problems.append(f"norm drift {drift:.3e} > {NORM_GATE:g}")
    k_first = c["mean_k"][0]
    k_dev = max(abs(v - k_first) for v in c["mean_k"])
    if not k_dev <= MEAN_K_GATE * max(1.0, abs(k_first)):
        problems.append(f"mean_k drifts by {k_dev:.3e}")
    expected_v = kinetic / math.hypot(m0, kinetic)
    v = _slope(c["t"], c["mean_x"])
    if not abs(v - expected_v) <= VELOCITY_GATE * abs(expected_v):
        problems.append(f"group velocity {v:.6g}, expected {expected_v:.6g} within 1%")
    lo = min(x - CLEARANCE * s for x, s in zip(c["mean_x"], c["spread"]))
    hi = max(x + CLEARANCE * s for x, s in zip(c["mean_x"], c["spread"]))
    if not (lo > 0.0 and hi < length):
        problems.append(f"packet reaches the periodic boundary: [{lo:.4g}, {hi:.4g}]")
    return problems


def check_verify(text: str, *, expected: int) -> list[str]:
    """Gate a `verify` report: the expected number of CHECK lines, all PASS."""
    lines = [line for line in text.splitlines() if line.startswith("CHECK ")]
    problems = [] if len(lines) == expected else [f"{len(lines)} checks, expected {expected}"]
    problems.extend(f"not passed: {line}" for line in lines if not line.endswith(" PASS"))
    return problems


def _relative_mismatch(name, got, want) -> list[str]:
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= ENERGY_GATE * abs(w):
            return [f"row {i + 1}: {name} {g!r}, recomputed {w!r}"]
    return []


def check_dispersion(text: str, *, rows: int, m0: float, p_tilde: float) -> list[str]:
    """Gate a `dispersion` CSV: eps_plus - eps_minus = 2 sqrt(m0^2 + (k+p)^2)."""
    try:
        c = columns(text, ("k", "eps_plus", "eps_minus"))
    except ValueError as exc:
        return [str(exc)]
    gap = [a - b for a, b in zip(c["eps_plus"], c["eps_minus"])]
    want = [2.0 * math.hypot(m0, k + p_tilde) for k in c["k"]]
    return _rows(c, rows) + _relative_mismatch("branch gap", gap, want)


def check_limit(text: str, *, rows: int, m0: float) -> list[str]:
    """Gate a `limit` CSV: abs_error = K^4 / (2 m0 (W + m0)^2), W = sqrt(m0^2 + K^2)."""
    try:
        c = columns(text, ("k", "abs_error"))
    except ValueError as exc:
        return [str(exc)]
    want = [k ** 4 / (2.0 * m0 * (math.hypot(m0, k) + m0) ** 2) for k in c["k"]]
    return _rows(c, rows) + _relative_mismatch("abs_error", c["abs_error"], want)

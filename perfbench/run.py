#!/usr/bin/env python3
"""diraclab benchmark: closed-loop CLI workloads with gate-checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_dense --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0
    python3 perfbench/selftest.py

One client runs one workload closed-loop in this process: each iteration
generates its command lines from the seeded generator, calls
``diraclab.cli.main`` for each only after the previous call returned, and
then checks the outputs against the acceptance gates (checks.py).  An
iteration that exits nonzero, raises or fails a gate counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off.  A fixed
reference task (reference.py) runs between iterations; the gated iteration
times are ratios to the reference time around each iteration, so that they
follow the program and not the shared host's speed, which can halve for
minutes at a time.  The wall times in seconds are printed beside them.
``--trace 1``
runs untraced iterations for half the time, then traced ones (spans.py) for
the other half, and reports the per-layer metrics, including the tracing
overhead.  The program under test is ``src/diraclab`` of the checkout that
holds this file; without it the run fails before printing a result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` with every
iteration's time and command line and the machine's metadata; a traced run
writes its spans to ``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_RUNS = 7  # fresh interpreters timed for setup_s, after one untimed warm-up
IMPORT_PROBES = 3  # fresh interpreters under -X importtime in a traced run
TAIL_BEYOND = 10  # a tail is the highest sample with this many samples above it
MIN_ITERATIONS = TAIL_BEYOND + 1
MIN_TRACE_PHASE = 3  # iterations in each half of a traced run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_rel": "ref",  # iteration wall time over the reference time around it
    "wall_tail_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, not gated: these follow the host's speed.
HOST_TIMED = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "iterations_per_s": "1/s",
    "reference_s": "s",
}

# Computed, not measured: one 4x4 complex matrix-vector product per mode-step
# (16 complex multiplies and 12 complex adds), reading the 4x4 step matrix
# and the 4-spinor and writing the 4-spinor, all complex128.
FLOP_PER_MODE_STEP = 16 * 6 + 12 * 2
BYTE_PER_MODE_STEP = (16 + 4 + 4) * 16

# What each per-layer metric should move, and on which workload:
#   accel.*       wall_rel on evolve_dense (stepping is about a third of it);
#                 zero on suite_sweeps
#   evolution.*   wall_rel on evolve_dense, where observables and FFT take
#                 about two thirds
#   operators.*, nonrel.*   wall_rel on suite_sweeps (the sweeps and the
#                 verify trials)
#   clifford.*, poincare.*, invariance.*, verify.*   wall_rel on suite_sweeps
#                 (the verify trials)
#   cli.*         wall_rel on suite_sweeps (CSV row formatting)
#   import.*      setup_s on every workload
#   trace.*       nothing: the cost of tracing and the time no span covers
PER_LAYER = {
    "accel.propagate_s": "s",
    "accel.propagate_calls": "count",
    "accel.mode_steps": "count",
    "accel.gflop_computed": "GFLOP",
    "accel.gbyte_computed": "GB",
    "accel.gflops_per_s": "GFLOP/s",
    "evolution.self_s": "s",
    "evolution.calls": "count",
    "evolution.observables_s": "s",
    "evolution.observables_calls": "count",
    "evolution.fft_s": "s",
    "evolution.fft_calls": "count",
    "evolution.trajectory_self_s": "s",
    "evolution.csv_s": "s",
    "evolution.csv_bytes": "bytes",
    "evolution.init_s": "s",
    "evolution.propagator_setup_s": "s",
    "evolution.norm_drift_max": "1",
    "operators.self_s": "s",
    "operators.calls": "count",
    "nonrel.self_s": "s",
    "nonrel.calls": "count",
    "clifford.self_s": "s",
    "clifford.calls": "count",
    "poincare.self_s": "s",
    "poincare.calls": "count",
    "invariance.self_s": "s",
    "invariance.calls": "count",
    "invariance.phi0_uniqueness_s": "s",
    "verify.self_s": "s",
    "verify.calls": "count",
    "verify.checks": "count",
    "verify.failed_checks": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "import.numpy_s": "s",
    "import.diraclab_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


@dataclass
class Outcome:
    wall: float
    argv: list[list[str]]
    problems: list[str]
    counts: dict[str, float]  # output_metrics of what the commands produced
    reference: float | None = None  # mean reference time just before and after


def cap_threads() -> int:
    """Keep the BLAS/OpenMP thread settings within the usable CPU count; one
    thread unless set, as the single client needs no more."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = "1"
    return nproc


def metadata(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def fresh_import(flags=()) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports diraclab.cli and exits."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # installed packages run from cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import diraclab.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed:\n{proc.stderr}")
    return wall, proc.stderr


def import_split(stderr: str) -> tuple[float, float]:
    """(numpy cumulative, diraclab modules' own) import seconds from -X importtime."""
    numpy_s = diraclab_s = 0.0
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == "numpy":
            numpy_s = cumulative / 1e6
        elif module == "diraclab" or module.startswith("diraclab."):
            diraclab_s += own / 1e6
    return numpy_s, diraclab_s


def execute(cli, commands: list[Command]) -> tuple[float, list[str], list[tuple[Command, str]]]:
    """Run the commands back to back; return the wall time, the gate
    violations and the text each command printed or wrote."""
    for cmd in commands:
        if cmd.output is not None:
            cmd.output.unlink(missing_ok=True)  # a command that writes nothing must not pass
    finished = []
    problems = []
    t0 = time.perf_counter()
    try:
        for cmd in commands:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                status = cli.main(list(cmd.argv))
            finished.append((cmd, status, printed.getvalue()))
    except SystemExit as exc:
        problems.append(f"exited with {exc.code!r}")
    except Exception:  # a crash of the program fails the iteration, not the run
        problems.append(traceback.format_exc(limit=4))
    wall = time.perf_counter() - t0
    outputs = []
    for cmd, status, printed in finished:
        if status != 0:
            problems.append(f"{cmd.kind}: exit status {status}")
        try:
            text = printed if cmd.output is None else cmd.output.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{cmd.kind}: {exc}")
            continue
        problems.extend(f"{cmd.kind}: {p}" for p in cmd.check(text))
        outputs.append((cmd, text))
    return wall, problems, outputs


def output_metrics(outputs: list[tuple[Command, str]]) -> dict[str, float]:
    """Per-iteration counts read from what the commands printed or wrote."""
    m = {"cli.rows": 0, "cli.bytes": 0, "evolution.csv_bytes": 0,
         "verify.checks": 0, "verify.failed_checks": 0, "evolution.norm_drift_max": 0.0}
    for cmd, text in outputs:
        lines = text.splitlines()
        size = len(text.encode("utf-8"))
        m["cli.bytes"] += size
        if cmd.kind == "verify":
            checked = [line for line in lines if line.startswith("CHECK ")]
            m["cli.rows"] += len(checked)
            m["verify.checks"] += len(checked)
            m["verify.failed_checks"] += sum(not line.endswith(" PASS") for line in checked)
        else:
            m["cli.rows"] += max(len(lines) - 1, 0)
        if cmd.kind == "evolve":
            m["evolution.csv_bytes"] += size
            try:
                drift = checks.norm_drift(text)
            except ValueError:
                continue  # already reported by the gate
            m["evolution.norm_drift_max"] = max(m["evolution.norm_drift_max"], drift)
    return m


def run_iteration(cli, commands: list[Command]) -> Outcome:
    wall, problems, outputs = execute(cli, commands)
    return Outcome(wall, [c.argv for c in commands], problems, output_metrics(outputs))


def run_loop(cli, workload, rng, seconds: float, minimum: int, tracer=None,
             with_reference=False) -> list[Outcome]:
    """Iterate until the next pass, as long as the last one, would end past
    the deadline, and at least `minimum` times.  With `with_reference`, time
    the reference task before the first iteration and after each one."""
    import reference  # after cap_threads, as it imports numpy

    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    before = reference.timed() if with_reference else None
    last_pass = 0.0
    while len(outcomes) < minimum or time.perf_counter() + last_pass < deadline:
        t0 = time.perf_counter()
        commands = workload.make(rng, OUT)
        if tracer is not None:
            tracer.iteration = len(outcomes)
        outcome = run_iteration(cli, commands)
        if with_reference:
            after = reference.timed()
            outcome.reference = (before + after) / 2
            before = after
        outcomes.append(outcome)
        last_pass = time.perf_counter() - t0
    return outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(workload, timed: list[Outcome], setup_walls) -> tuple[dict, dict]:
    walls = [o.wall for o in timed]
    rels = [o.wall / o.reference for o in timed]
    references = [o.reference for o in timed]
    tail_rel, tail_pct = tail(rels)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_rel": statistics.median(rels),
        "wall_tail_rel": tail_rel,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": rss_mb,
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail(walls)[0],
        "iterations_per_s": len(walls) / sum(walls),
        "reference_s": statistics.median(references),
    }
    n = len(walls)
    tail_note = f"p{tail_pct:.0f} of {n} iterations, {min(TAIL_BEYOND, n - 1)} above it"
    notes = {
        "wall_rel": f"median of {n} iterations, each over its reference time",
        "wall_tail_rel": tail_note,
        "setup_s": f"median of {len(setup_walls)} fresh interpreters importing diraclab.cli",
        "peak_rss_mb": "peak RSS of this process, 1 sample",
        "wall_s": f"median of {n} iterations",
        "wall_tail_s": tail_note,
        "iterations_per_s": f"{n} iterations over {sum(walls):.4g} s, "
                            f"each {workload.work}",
        "reference_s": f"median of {n + 1} reference runs",
    }
    return metrics, notes


def per_layer(cli, workload, rng, seconds, outcomes) -> tuple[dict, dict, object]:
    import spans

    untraced = run_loop(cli, workload, rng, seconds / 2, MIN_TRACE_PHASE)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_loop(cli, workload, rng, seconds / 2, MIN_TRACE_PHASE, tracer)
    finally:
        tracer.uninstall()
    outcomes.extend(untraced + traced)

    rows = tracer.summary(len(traced))
    for row, outcome in zip(rows, traced):
        row.update(outcome.counts)
        row["trace.unattributed_s"] = outcome.wall - row.pop("trace.self_total_s")
        gflop = row["accel.mode_steps"] * FLOP_PER_MODE_STEP / 1e9
        row["accel.gflop_computed"] = gflop
        row["accel.gbyte_computed"] = row["accel.mode_steps"] * BYTE_PER_MODE_STEP / 1e9
        row["accel.gflops_per_s"] = gflop / row["accel.propagate_s"] if row["accel.propagate_s"] else 0.0
    # median_low keeps each count a value some iteration really had
    metrics = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    metrics["evolution.norm_drift_max"] = max(o.counts["evolution.norm_drift_max"] for o in outcomes)
    splits = [import_split(fresh_import(("-X", "importtime"))[1]) for _ in range(IMPORT_PROBES)]
    metrics["import.numpy_s"] = statistics.median(s[0] for s in splits)
    metrics["import.diraclab_s"] = statistics.median(s[1] for s in splits)
    traced_wall = statistics.median(o.wall for o in traced)
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(o.wall for o in untraced)
    span_note = f"median of {len(traced)} traced iterations"
    notes = {name: span_note for name in PER_LAYER}
    notes["evolution.norm_drift_max"] = f"max over {len(outcomes)} iterations"
    notes["import.numpy_s"] = notes["import.diraclab_s"] = (
        f"median of {IMPORT_PROBES} -X importtime interpreters")
    notes["trace.overhead_ratio"] = (
        f"traced median {traced_wall:.4g} s over untraced median, "
        f"{len(traced)} and {len(untraced)} iterations")
    return metrics, notes, tracer


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "diraclab" / "cli.py").is_file():
        print(f"error: no diraclab sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("diraclab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: diraclab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    outcomes = [run_iteration(cli, workload.make(rng, OUT))]  # warm-up, untimed
    if args.trace:
        metrics, notes, tracer = per_layer(cli, workload, rng, args.seconds, outcomes)
        tracer.save(OUT / f"spans-{workload.name}.npz")
        units, printed = PER_LAYER, PER_LAYER
    else:
        fresh_import()
        setup_walls = [fresh_import()[0] for _ in range(SETUP_RUNS)]
        timed = run_loop(cli, workload, rng, args.seconds, MIN_ITERATIONS, with_reference=True)
        outcomes.extend(timed)
        metrics, notes = end_to_end(workload, timed, setup_walls)
        units, printed = END_TO_END, {**END_TO_END, **HOST_TIMED}

    failed = [o for o in outcomes if o.problems]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(nproc),
        "iterations": [{"wall_s": o.wall, "reference_s": o.reference, "argv": o.argv,
                        "problems": o.problems} for o in outcomes],
        "metrics": metrics,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} iterations, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(outcomes):.4g}")
    for o in failed[:3]:
        print("  failed:", "; ".join(o.problems)[:500])
    for name, unit in printed.items():
        gated = "" if name in units else "  (not gated)"
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit:<8} {notes.get(name, '')}{gated}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

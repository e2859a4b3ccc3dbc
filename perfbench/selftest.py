#!/usr/bin/env python3
"""Self-tests of the benchmark: gates pass on real outputs, fail on perturbed
ones (negative controls), and tracing survives functions that no longer exist.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import unittest

import run
import spans
import workloads
from workloads import WORKLOADS, Command

sys.path.insert(0, str(run.SRC))
import diraclab.cli as cli  # noqa: E402
import diraclab.evolution as evolution  # noqa: E402
import numpy.fft  # noqa: E402


def edit_csv(text: str, column: str, row: int, fn) -> str:
    """Apply fn to one field, picked by header name and data row."""
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = repr(fn(float(fields[i])))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def map_column(text: str, column: str, fn) -> str:
    lines = text.splitlines()
    for row in range(len(lines) - 1):
        text = edit_csv(text, column, row, lambda v, r=row: fn(v, r))
    return text


class GateTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(parents=True, exist_ok=True)
        cls.results = {}
        cls.by_kind = {}
        for name, workload in WORKLOADS.items():
            commands = workload.make(random.Random(7), run.OUT)
            _, problems, outputs = run.execute(cli, commands)
            cls.results[name] = (commands, problems, outputs)
            for cmd, text in outputs:
                cls.by_kind[cmd.kind] = (cmd, text)

    def assertFails(self, kind, text):
        cmd, _ = self.by_kind[kind]
        self.assertTrue(cmd.check(text), f"{kind}: perturbed output passed the gate")

    def test_real_outputs_pass(self):
        for name, (commands, problems, outputs) in self.results.items():
            self.assertEqual(problems, [], name)
            self.assertEqual(len(outputs), len(commands), name)

    def test_trajectory_negative_controls(self):
        cmd, text = self.by_kind["evolve"]
        self.assertEqual(cmd.check(text), [])
        self.assertFails("evolve", edit_csv(text, "norm", 3, lambda v: v + 2e-10))
        self.assertFails("evolve", edit_csv(text, "mean_k", 5, lambda v: v + 1e-6))
        self.assertFails("evolve", map_column(text, "mean_x", lambda v, r: v * 1.03))
        self.assertFails("evolve", "\n".join(text.splitlines()[:-1]) + "\n")
        self.assertFails("evolve", map_column(text, "spread", lambda v, r: v * 40))
        self.assertFails("evolve", text.replace("mean_x", "mean_y", 1))
        self.assertFails("evolve", text.replace(",", ",nan,", 1))
        self.assertFails("evolve", "")

    def test_extra_and_reordered_columns_pass(self):
        cmd, text = self.by_kind["evolve"]
        lines = [line.split(",") for line in text.splitlines()]
        order = [4, 2, 0, 3, 1]
        reordered = [[f[i] for i in order] + ["extra" if n == 0 else "1.0"]
                     for n, f in enumerate(lines)]
        self.assertEqual(cmd.check("\n".join(",".join(f) for f in reordered) + "\n"), [])

    def test_verify_negative_controls(self):
        cmd, text = self.by_kind["verify"]
        self.assertEqual(cmd.check(text), [])
        self.assertFails("verify", text.replace(" PASS", " FAIL", 1))
        lines = text.splitlines()
        self.assertFails("verify", "\n".join(lines[:-1]) + "\n")
        self.assertFails("verify", text + lines[-1] + "\n")

    def test_sweep_negative_controls(self):
        cmd, text = self.by_kind["dispersion"]
        self.assertEqual(cmd.check(text), [])
        self.assertFails("dispersion", edit_csv(text, "eps_minus", 100, lambda v: v * (1 + 1e-9)))
        self.assertFails("dispersion", edit_csv(text, "k", 7, lambda v: v + 1e-6))
        self.assertFails("dispersion", "\n".join(text.splitlines()[:-1]) + "\n")
        cmd, text = self.by_kind["limit"]
        self.assertEqual(cmd.check(text), [])
        self.assertFails("limit", edit_csv(text, "abs_error", 0, lambda v: v * (1 + 1e-9)))
        last = len(text.splitlines()) - 2
        self.assertFails("limit", edit_csv(text, "abs_error", last, lambda v: v * (1 - 1e-9)))
        self.assertFails("limit", text + text.splitlines()[-1] + "\n")

    def test_failed_commands_fail_the_iteration(self):
        bad_size = Command("evolve", ["evolve", "--n", "100", "--length", "10", "--dt", "1",
                                      "--steps", "1", "--k0", "0", "--width", "1", "--m0", "1"],
                           None, lambda text: [])
        with contextlib.redirect_stderr(io.StringIO()):
            outcome = run.run_iteration(cli, [bad_size])
            self.assertTrue(any("exit status 2" in p for p in outcome.problems))
            outcome = run.run_iteration(cli, [Command("verify", ["verify", "--bogus"], None,
                                                      lambda text: [])])
        self.assertTrue(any("exited with 2" in p for p in outcome.problems))

    def test_tiny_negative_values_parse(self):
        class Draws(random.Random):
            def uniform(self, a, b):  # every signed draw a tiny negative value
                return -7.4e-05 if a < 0 else b

        commands = workloads._sweeps(Draws(), run.OUT, points=11)
        commands += workloads._evolve(Draws(), run.OUT, **EVOLVE_SMALL)
        outcome = run.run_iteration(cli, commands)
        self.assertEqual(outcome.problems, [])


EVOLVE_SMALL = dict(n=1024, length=200.0, dt=0.05, steps=100, sample_every=10, width=10.0,
                    x0=50.0)
EVOLVE = ["evolve", "--n", "256", "--length", "100", "--dt", "0.01", "--steps", "40",
          "--sample-every", "10", "--k0", "0.5", "--width", "8", "--m0", "1"]


def traced_evolve(tracer) -> dict:
    originals = (evolution.observables, numpy.fft.fft, evolution.SpectralPropagator.__init__)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(EVOLVE)) == 0
    finally:
        tracer.uninstall()
    assert originals == (evolution.observables, numpy.fft.fft,
                         evolution.SpectralPropagator.__init__), "tracing not undone"
    return tracer.summary(1)[0]


class TraceTests(unittest.TestCase):
    def test_spans_attribute_the_evolve_layers(self):
        m = traced_evolve(spans.Tracer())
        self.assertEqual(m["accel.mode_steps"], 256 * 40)
        self.assertEqual(m["accel.propagate_calls"], 4)
        self.assertEqual(m["evolution.observables_calls"], 5)
        self.assertEqual(m["cli.calls"], 2)  # main and build_parser
        self.assertEqual(m["verify.calls"], 0)
        self.assertGreater(m["evolution.fft_calls"], 0)
        self.assertGreater(m["evolution.propagator_setup_s"], 0.0)
        self.assertLessEqual(m["accel.propagate_s"], m["trace.self_total_s"])

    def test_missing_names_record_zero_calls(self):
        groups = spans.GROUPS + (
            spans.Group("gone.function_s", "diraclab.evolution", ("no_such_function",), True,
                        "gone.function_calls"),
            spans.Group("gone.method_s", "diraclab.evolution", ("SpectralPropagator.no_such_method",),
                        False),
            spans.Group("gone.module_s", "diraclab._no_such_module", ("anything",), True,
                        "gone.module_calls"),
        )
        counters = dict(spans.COUNTERS)
        counters[("diraclab._no_such_module", "anything")] = ("gone.count", spans._mode_steps)
        counters[("diraclab.evolution", "no_such_function")] = ("gone.count", spans._mode_steps)
        tracer = spans.Tracer(layers=spans.LAYERS + ("_no_such_module",), groups=groups,
                              counters=counters)
        m = traced_evolve(tracer)
        for name in ("gone.function_s", "gone.function_calls", "gone.method_s",
                     "gone.module_s", "gone.module_calls", "gone.count",
                     "no_such_module.self_s", "no_such_module.calls"):
            self.assertEqual(m[name], 0, name)
        self.assertEqual(m["accel.mode_steps"], 256 * 40)


if __name__ == "__main__":
    unittest.main()

"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps every public function and public method of each
layer module of ``diraclab``, plus ``numpy.fft.fft``/``ifft``, and rebinds
each wrapper wherever a caller looks the original up: on the defining
module, on every ``diraclab`` module that imported the name, and on the
class that owns a method.  Names are found by module attribute at install
time, so a refactor that deletes or renames a function or a whole module
only makes the matching metric read zero calls.

Each call records a span (name, start, end, parent span, iteration) in
flat arrays kept in memory; ``summary`` turns them into per-iteration
self times and call counts, and ``save`` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "diraclab"
LAYERS = (
    "cli", "verify", "evolution", "_accel", "operators",
    "nonrel", "invariance", "poincare", "clifford",
)
FFT = ("numpy.fft", ("fft", "ifft"))  # traced too; its layer is the module name


@dataclass(frozen=True)
class Group:
    """A named per-layer metric built from the spans of a few functions.

    `paths` are attribute paths on `module`; the missing ones are skipped.
    An inclusive group sums whole calls (nested calls of the same group
    counted once); otherwise only the group's own self time counts.
    """

    metric: str
    module: str
    paths: tuple[str, ...]
    inclusive: bool
    calls_metric: str | None = None


GROUPS = (
    Group("accel.propagate_s", "diraclab._accel",
          ("propagate_steps", "propagate_steps_numpy", "propagate_steps_numba"),
          True, "accel.propagate_calls"),
    Group("evolution.observables_s", "diraclab.evolution", ("observables",), False,
          "evolution.observables_calls"),
    Group("evolution.fft_s", *FFT, False, "evolution.fft_calls"),
    Group("evolution.trajectory_self_s", "diraclab.evolution", ("trajectory",), False),
    Group("evolution.csv_s", "diraclab.evolution", ("write_trajectory_csv",), True),
    Group("evolution.init_s", "diraclab.evolution", ("init_gaussian",), True),
    Group("evolution.propagator_setup_s", "diraclab.evolution",
          ("SpectralPropagator.__init__", "SpectralPropagator.step_matrices"), True),
    Group("invariance.phi0_uniqueness_s", "diraclab.invariance",
          ("verify_phi0_uniqueness",), True),
)


def _mode_steps(args, kwargs) -> int:
    amplitudes = args[1] if len(args) > 1 else kwargs["amplitudes"]
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    return int(amplitudes.shape[0]) * int(steps)


# Work counted from call arguments: (module, path) -> (counter, argument reader).
COUNTERS = {
    ("diraclab._accel", "propagate_steps"): ("accel.mode_steps", _mode_steps),
    ("diraclab._accel", "propagate_steps_numpy"): ("accel.mode_steps", _mode_steps),
    ("diraclab._accel", "propagate_steps_numba"): ("accel.mode_steps", _mode_steps),
}


def _ints(a: array) -> np.ndarray:
    # A copy, so the array can still grow after the view is gone.
    return np.frombuffer(a, dtype=np.int64).copy() if len(a) else np.zeros(0, dtype=np.int64)


def lookup(module: str, path: str):
    """The function at `path` on `module`, or None when either is gone."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return getattr(obj, "__func__", obj)  # a classmethod's function


class Tracer:
    def __init__(self, layers=LAYERS, groups=GROUPS, counters=COUNTERS):
        self.layers = tuple(layers)
        self.groups = tuple(groups)
        self.counter_specs = dict(counters)
        self.iteration = 0
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.iter = array("q")
        self._stack: list[int] = []
        self._counts: dict[tuple[int, str], int] = {}
        self._ids: dict[int, int] = {}  # id(original function) -> name id
        self._members: list[set[int]] = []  # per group: id(original function)
        self._wrappers: dict[int, Callable] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, label: str, layer: str, counter=None):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name_id = len(self.names)
        self.names.append(label)
        self.name_layer.append(layer)
        self._ids[id(fn)] = name_id
        start, end, parent, name, it, stack = (
            self.start, self.end, self.parent, self.name, self.iter, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            it.append(tracer.iteration)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if counter is not None:
                    tracer._count(counter, args, kwargs)

        self._wrappers[id(fn)] = traced
        return traced

    def _count(self, counter, args, kwargs) -> None:
        key, reader = counter
        try:
            value = reader(args, kwargs)
        except (IndexError, KeyError, AttributeError, TypeError, ValueError):
            return  # signature changed; the counter reads zero
        slot = (self.iteration, key)
        self._counts[slot] = self._counts.get(slot, 0) + value

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._members = []
        for g in self.groups:
            objs = (lookup(g.module, path) for path in g.paths)
            self._members.append({id(obj) for obj in objs if obj is not None})
        counters_by_obj = {}
        for where, counter in self.counter_specs.items():
            obj = lookup(*where)
            if obj is not None:
                counters_by_obj[id(obj)] = counter
        for layer in self.layers:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a deleted layer reads zero calls
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._wrap(obj, f"{layer}.{obj.__qualname__}", layer,
                               counters_by_obj.get(id(obj)))
                elif isinstance(obj, type):
                    self._install_class(obj, layer)
        fft_module, fft_names = FFT
        npfft = importlib.import_module(fft_module)
        for attr in fft_names:
            self._patch(npfft, attr, self._wrap(getattr(npfft, attr), f"{fft_module}.{attr}", fft_module))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if callable(obj) and id(obj) in self._wrappers and obj is not self._wrappers[id(obj)]:
                    self._patch(module, attr, self._wrappers[id(obj)])

    def _install_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, types.FunctionType):
                wrapped = self._wrap(raw, f"{layer}.{raw.__qualname__}", layer)
            elif isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                wrapped = type(raw)(self._wrap(fn, f"{layer}.{fn.__qualname__}", layer))
            else:
                continue  # properties and data stay untraced
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self, iterations: int) -> list[dict[str, float]]:
        """Per-iteration span metrics: `<layer>.self_s` and `<layer>.calls`
        for every layer, each group's time (and calls), the counters, and
        `trace.spans`/`trace.self_total_s` over all spans."""
        n_names = max(len(self.names), 1)
        start, end, parent, name, it = (
            _ints(a) for a in (self.start, self.end, self.parent, self.name, self.iter))
        dur = (end - start) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        cell = it * n_names + name
        size = iterations * n_names
        self_by = np.bincount(cell, weights=self_t, minlength=size).reshape(iterations, n_names)
        calls_by = np.bincount(cell, minlength=size).reshape(iterations, n_names)

        rows = [dict() for _ in range(iterations)]
        layer_cols = {}
        for i, layer in enumerate(self.name_layer):
            layer_cols.setdefault(layer, []).append(i)
        for layer in self.layers:
            cols = layer_cols.get(layer, [])
            prefix = layer.lstrip("_")  # metric names may not start with "_"
            for r, row in enumerate(rows):
                row[prefix + ".self_s"] = float(self_by[r, cols].sum())
                row[prefix + ".calls"] = int(calls_by[r, cols].sum())

        for g, members in zip(self.groups, self._members):
            member = np.zeros(n_names, dtype=bool)
            member[[self._ids[i] for i in members if i in self._ids]] = True
            in_group = member[name] if name.size else np.zeros(0, dtype=bool)
            if g.inclusive:
                parent_in = np.zeros_like(in_group)
                parent_in[nested] = in_group[parent[nested]]
                take = in_group & ~parent_in
                weights = dur[take]
            else:
                take = in_group
                weights = self_t[take]
            t = np.bincount(it[take], weights=weights, minlength=iterations)
            c = np.bincount(it[in_group], minlength=iterations)
            for r, row in enumerate(rows):
                row[g.metric] = float(t[r])
                if g.calls_metric:
                    row[g.calls_metric] = int(c[r])

        counter_keys = {key for key, _ in self.counter_specs.values()}
        for r, row in enumerate(rows):
            for key in counter_keys:
                row[key] = self._counts.get((r, key), 0)
            row["trace.spans"] = int(calls_by[r].sum())
            row["trace.self_total_s"] = float(self_by[r].sum())
        return rows

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            layers=np.array(self.name_layer, dtype=str),
            start_ns=_ints(self.start),
            end_ns=_ints(self.end),
            parent=_ints(self.parent),
            name=_ints(self.name),
            iteration=_ints(self.iter),
        )

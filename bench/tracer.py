"""Spans and counters recorded around calls into bohmpart, from outside it.

`Tracer.install` replaces public functions of the bohmpart modules with
wrappers, in every module that holds a reference to them (the modules import
each other's functions by name), and `Tracer.uninstall` puts the originals
back.  A call is recorded only while an operation span is open, so the
benchmark's own oracle calls between operations leave no trace.

Spans are kept in flat arrays and reduced to per-layer numbers at the end.
Per-point kernels called inside integrands and ODE right-hand sides get
counters (calls, seconds, points) instead of spans; their time stays in the
self time of the span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYER_OF_MODULE = {"core": "core", "wavepacket": "wavepacket",
                   "trajectories": "trajectories", "partition": "partition",
                   "bath": "bath", "verify": "verify", "numdiff": "verify",
                   "cli": "cli"}
LAYERS = ["bench", "cli", "verify", "partition", "bath", "trajectories",
          "wavepacket", "core"]

# Per-point kernels: counters, not spans.
COUNTED = {"evolve", "density", "energy_pointwise", "amplitude", "total_phase",
           "wavefunction", "phase_gradient", "quantum_potential", "density_dt",
           "energy_dt", "bohmian_velocity", "quantum_force", "potential_value",
           "classical_force", "central_first", "central_second"}
POINT_KERNELS = {"density", "energy_pointwise"}
CLI_SPANS = {"main", "emit", "cmd_fig1", "cmd_marginal", "cmd_limits", "cmd_bath",
             "cmd_trajectory", "cmd_partition", "cmd_verify"}

# A call of the key, made inside an open span of the first name, also
# increments the second counter.
ATTRIBUTE = {
    "core.integrate_window": [
        ("partition.unified_Z_gaussian.quadrature", "partition.unified_Z_gaussian.quad_calls"),
        ("bath.unified_bath_Z.quadrature", "bath.unified_bath_Z.quad_calls")],
    "wavepacket.density": [("partition.marginal_Z", "partition.marginal_Z.evals")],
    "wavepacket.evolve": [("trajectories.integrate.rk45", "trajectories.integrate.rhs_evals"),
                          ("trajectories.integrate.rk4", "trajectories.integrate.rhs_evals")],
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _suffix_from(fn):
    """Span-name suffix chosen from the call's arguments, or None."""
    params = inspect.signature(fn).parameters
    if "method" in params:
        def suffix(bound):
            return bound.arguments["method"].value
    elif "cfg" in params and fn.__name__ == "integrate":
        def suffix(bound):
            return "rk4" if type(bound.arguments["cfg"].stepper).__name__ == "RK4Fixed" \
                else "rk45"
    elif "basis_size" in params:
        def suffix(bound):
            return f"k{bound.arguments['basis_size']}"
    else:
        return None
    sig = inspect.signature(fn)

    def name_suffix(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return suffix(bound)
    return name_suffix


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._op_id = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _attribute(self, name: str):
        for watch, counter in ATTRIBUTE.get(name, ()):
            if self._open[watch]:
                self.counts[counter] += 1

    def _begin(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open[name] += 1
        self._attribute(name)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int, name: str):
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def _error(self, idx: int, name: str):
        """Count an exception once, where it leaves its layer."""
        parent = self.parent[idx]
        if parent < 0 or layer_of(self.names[self.name[parent]]) != layer_of(name):
            self.counts[f"{layer_of(name)}.errors"] += 1

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """The root span of one benchmark operation."""
        self._op_id = op_id
        idx = self._begin("bench.op")
        try:
            yield
        finally:
            self._finish(idx, "bench.op")
            self._op_id = -1

    def _span(self, fn, base: str):
        suffix = _suffix_from(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            name = f"{base}.{suffix(args, kwargs)}" if suffix else base
            idx = tracer._begin(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer._error(idx, name)
                raise
            finally:
                tracer._finish(idx, name)
        return wrapper

    def _counter(self, fn, base: str):
        # Runs up to ~10^5 times per operation: no formatting or lookups here.
        points = fn.__name__ in POINT_KERNELS
        stack, counts, is_open = self._stack, self.counts, self._open
        key_s, key_calls, key_points = f"{base}.s", f"{base}.calls", f"{base}.points"
        attributed = ATTRIBUTE.get(base, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key_s] += perf_counter() - t0
                counts[key_calls] += 1
                if points:
                    counts[key_points] += getattr(args[1], "size", 1)
                for watch, counter in attributed:
                    if is_open[watch]:
                        counts[counter] += 1
        return wrapper

    def _cli_span(self, fn, base: str):
        """emit also counts the bytes it emits; cmd_partition is named by --oracle."""
        if fn.__name__ == "emit":
            inner = self._span(fn, base)
            counts = self.counts
            tracer = self

            @functools.wraps(fn)
            def emit(args, command, config, payload, extra_files=None):
                if tracer._stack:
                    counts["cli.emit.bytes"] += len(payload) + sum(
                        len(blob) for blob in (extra_files or {}).values())
                return inner(args, command, config, payload, extra_files)
            return emit
        if fn.__name__ != "cmd_partition":
            return self._span(fn, base)
        plain, oracle = self._span(fn, "cli.partition"), self._span(fn, "cli.partition_oracle")

        @functools.wraps(fn)
        def partition(args):
            return (oracle if args.oracle else plain)(args)
        return partition

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {short: importlib.import_module(f"bohmpart.{short}")
                   for short in LAYER_OF_MODULE}
        package = importlib.import_module("bohmpart")
        holders = list(modules.values()) + [package]
        for short, module in modules.items():
            layer = LAYER_OF_MODULE[short]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                if short == "cli":
                    if attr not in CLI_SPANS:
                        continue
                    wrapped = self._cli_span(fn, "cli." + attr.removeprefix("cmd_"))
                elif short == "numdiff":
                    wrapped = self._counter(fn, "verify.numdiff")
                elif attr in COUNTED:
                    wrapped = self._counter(fn, f"{layer}.{attr}")
                else:
                    wrapped = self._span(fn, f"{layer}.{attr}")
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._installed.append((holder, name, fn))
                            setattr(holder, name, wrapped)

    def uninstall(self):
        for holder, name, fn in reversed(self._installed):
            setattr(holder, name, fn)
        self._installed.clear()

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> dict:
        """Per-name calls, outermost inclusive time, bath closed-form time, layer self time."""
        n = len(self.start)
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        layer_ids = np.array([LAYERS.index(layer_of(name)) for name in self.names] + [-1])
        enters_layer = layer_ids[parent_name] != layer_ids[names]

        calls, outermost = Counter(), Counter()
        layer_self = {layer: 0.0 for layer in LAYERS}
        bath_closed = 0.0
        for ident, name in enumerate(self.names):
            mine = names == ident
            calls[name] = int(mine.sum())
            outermost[name] = float(dur[mine & (parent_name != ident)].sum())
            layer_self[layer_of(name)] += float(self_time[mine].sum())
            if layer_of(name) == "bath" and not name.endswith(".quadrature"):
                bath_closed += float(dur[mine & enters_layer].sum())
        root = names == self._ids.get("bench.op", -1)
        return {"calls": calls, "outermost": outermost, "layer_self": layer_self,
                "bath_closed_s": bath_closed, "ops_s": float(dur[root].sum()),
                "spans": n}

"""Span tracing of cryomux's public functions, installed from outside the package.

`Tracer` replaces each traced function with a wrapper wherever the function
is bound: in its defining module, in every cryomux module that imported it
by name, and on the class for methods. Each wrapper records a span (name,
start, end, parent span, op id) in memory; `metrics()` turns the spans of
the traced ops into per-op calls, self times and counters. A traced name
that no longer exists is skipped with a note, and a wrapped function that is
never called reports 0 calls.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


def _evolve_label(bound: inspect.BoundArguments) -> str:
    return f"qubitsim.evolve.{bound.arguments['config'].levels}level"


def _count_cliffords(bound: inspect.BoundArguments, result, counters: dict) -> None:
    # each sequence is m random Cliffords plus the recovery element
    n = bound.arguments["repeats"] * sum(int(m) + 1 for m in bound.arguments["lengths"])
    counters["rbengine.run_rb.cliffords"] = counters.get("rbengine.run_rb.cliffords", 0) + n


def _count_fit(bound: inspect.BoundArguments, result, counters: dict) -> None:
    counters["fitkit.least_squares.iterations"] = (
        counters.get("fitkit.least_squares.iterations", 0) + result.iterations
    )
    counters["fitkit.least_squares.converged"] = (
        counters.get("fitkit.least_squares.converged", 0) + int(bool(result.converged))
    )


def _count_bytes(bound: inspect.BoundArguments, result, counters: dict) -> None:
    counters["scenarios.bytes_written"] = counters.get("scenarios.bytes_written", 0) + sum(
        path.stat().st_size for path in result
    )


@dataclass(frozen=True)
class Site:
    """A traced function: `target` is "<module>:<qualname>", where a
    qualname of "*" means every public function defined in the module.
    `label` names the span's self time from the bound arguments; `count`
    adds to the run's counters from the bound arguments and the result."""

    target: str
    span: str
    label: Callable | None = None
    count: Callable | None = None


SITES = (
    Site("cryomux.qubitsim:evolve", "qubitsim.evolve", label=_evolve_label),
    Site("cryomux.qubitsim:gate_channel", "qubitsim.gate_channel"),
    Site("cryomux.qubitsim:calibrate_pi_pulse", "qubitsim.calibrate_pi_pulse"),
    Site("cryomux.qubitsim:tdm_experiment", "qubitsim.tdm_experiment"),
    Site("cryomux.chainmodel:gating_envelope", "chainmodel.gating_envelope"),
    Site("cryomux.chainmodel:MuxModel.static_power", "chainmodel.power"),
    Site("cryomux.chainmodel:MuxModel.dynamic_power", "chainmodel.power"),
    Site("cryomux.noisecalc:*", "noisecalc"),
    Site("cryomux.rbengine:run_rb", "rbengine.run_rb", count=_count_cliffords),
    Site("cryomux.rbengine:rb_sequence", "rbengine.rb_sequence"),
    Site("cryomux.rbengine:fit_rb", "rbengine.fit_rb"),
    Site("cryomux.fitkit:least_squares", "fitkit.least_squares", count=_count_fit),
    Site("cryomux.fitkit:fit_t1", "fitkit.fit"),
    Site("cryomux.fitkit:fit_echo", "fitkit.fit"),
    Site("cryomux.fitkit:fit_ramsey", "fitkit.fit"),
    Site("cryomux.fitkit:fit_rb_decay", "fitkit.fit"),
    Site("cryomux.fitkit:read_trace_csv", "fitkit.read_trace_csv"),
    Site("cryomux.scenarios:run_scenario", "scenarios.run_scenario", count=_count_bytes),
    Site("cryomux.scenarios:Table.render_csv", "scenarios.render"),
    Site("cryomux.scenarios:Table.render_json", "scenarios.render"),
)

# Per-layer metric name -> unit. Calls, self times and counters are means
# per traced op.
PER_LAYER = {
    "qubitsim.evolve.calls": "count/op",
    "qubitsim.evolve.2level.self_s": "s/op",
    "qubitsim.evolve.3level.self_s": "s/op",
    "qubitsim.gate_channel.calls": "count/op",
    "qubitsim.gate_channel.self_s": "s/op",
    "qubitsim.calibrate_pi_pulse.calls": "count/op",
    "qubitsim.calibrate_pi_pulse.self_s": "s/op",
    "qubitsim.tdm_experiment.calls": "count/op",
    "qubitsim.tdm_experiment.self_s": "s/op",
    "chainmodel.gating_envelope.calls": "count/op",
    "chainmodel.gating_envelope.self_s": "s/op",
    "chainmodel.power.calls": "count/op",
    "chainmodel.power.self_s": "s/op",
    "noisecalc.calls": "count/op",
    "noisecalc.self_s": "s/op",
    "rbengine.run_rb.self_s": "s/op",
    "rbengine.run_rb.ns_per_clifford": "ns",
    "rbengine.rb_sequence.calls": "count/op",
    "rbengine.rb_sequence.self_s": "s/op",
    "rbengine.fit_rb.calls": "count/op",
    "rbengine.fit_rb.self_s": "s/op",
    "fitkit.fit.calls": "count/op",
    "fitkit.fit.self_s": "s/op",
    "fitkit.least_squares.calls": "count/op",
    "fitkit.least_squares.self_s": "s/op",
    "fitkit.least_squares.iterations": "count/op",
    "fitkit.least_squares.converged_frac": "1",
    "fitkit.read_trace_csv.self_s": "s/op",
    "scenarios.run_scenario.calls": "count/op",
    "scenarios.run_scenario.self_s": "s/op",
    "scenarios.render.self_s": "s/op",
    "scenarios.bytes_written": "B/op",
    "trace.op_s": "s/op",
    "trace.unattributed_s": "s/op",
    "trace.overhead_frac": "1",
}

_ROOT = "trace.op"
_FIELDS = 6  # span id, label id, start ns, end ns, parent index (-1: none), op id


class Tracer:
    """Records spans of the wrapped functions while `run_op` runs an op.

    Spans are kept in one flat integer array, _FIELDS slots per span, so a
    run of many thousand short ops stays small in memory."""

    def __init__(self, sites=SITES):
        self.notes: list[str] = []
        self.patches: list[tuple[object, str, object, object]] = []
        self.names: list[str] = [_ROOT]
        self._ids: dict[str, int] = {_ROOT: 0}
        self.spans = array("q")
        self.counters: dict[str, int] = {}
        self.ops = 0
        self._stack: list[int] = []
        for site in sites:
            for fn, owners in self._resolve(site.target):
                wrapper = self._wrap(fn, site)
                self.patches += [(owner, attr, fn, wrapper) for owner, attr in owners]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _resolve(self, target: str):
        """(function, [(owner, attribute), ...]) for each function a target names."""
        module_name, qualname = target.split(":")
        module = sys.modules.get(module_name)
        if module is None:
            self.notes.append(f"skipped {target}: module not imported")
            return []
        if qualname == "*":
            fns = [
                fn for name, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == module_name and not name.startswith("_")
            ]
        else:
            owner = module
            for part in qualname.split(".")[:-1]:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(qualname.rsplit(".", 1)[-1]) if owner is not None else None
            if not inspect.isfunction(fn):
                self.notes.append(f"skipped {target}: no such function")
                return []
            if owner is not module:
                return [(fn, [(owner, fn.__name__)])]
            fns = [fn]
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cryomux"]
        return [
            (fn, [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn])
            for fn in fns
        ]

    def _open(self, span_id: int, label_id: int) -> int:
        index = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((span_id, label_id, time.perf_counter_ns(), 0, parent, self.ops))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index * _FIELDS + 3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, site: Site):
        signature = inspect.signature(fn)
        span_id = label_id = self._id(site.span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if site.label or site.count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            index = self._open(span_id, self._id(site.label(bound)) if site.label else label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if site.count:
                site.count(bound, result, self.counters)
            return result

        return wrapper

    def run_op(self, op, i: int):
        """Run op(i) with every wrapper installed; returns (result, seconds)."""
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        index = self._open(0, 0)
        try:
            result = op(i)
        finally:
            self._close(index)
            self.ops += 1
            for owner, attr, fn, _ in self.patches:
                setattr(owner, attr, fn)
        start, end = self.spans[index * _FIELDS + 2: index * _FIELDS + 4]
        return result, (end - start) * 1e-9

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-op means of calls, self times and counters over the traced ops."""
        n_spans = len(self.spans) // _FIELDS
        span_ids = self.spans[0::_FIELDS]
        label_ids = self.spans[1::_FIELDS]
        durations = [end - start for start, end in zip(self.spans[2::_FIELDS], self.spans[3::_FIELDS])]
        child_ns = [0] * n_spans
        for parent, duration in zip(self.spans[4::_FIELDS], durations):
            if parent >= 0:
                child_ns[parent] += duration
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for k in range(n_spans):
            calls[span_ids[k]] += 1
            self_ns[label_ids[k]] += durations[k] - child_ns[k]
        n = max(self.ops, 1)
        values = {f"{name}.calls": calls[k] / n for k, name in enumerate(self.names)}
        values.update({f"{name}.self_s": self_ns[k] * 1e-9 / n for k, name in enumerate(self.names)})
        values.update({name: c / n for name, c in self.counters.items()})
        values["trace.op_s"] = sum(d for k, d in zip(span_ids, durations) if k == 0) * 1e-9 / n
        values["trace.unattributed_s"] = self_ns[0] * 1e-9 / n
        cliffords = self.counters.get("rbengine.run_rb.cliffords", 0)
        run_rb = self._ids.get("rbengine.run_rb")
        values["rbengine.run_rb.ns_per_clifford"] = (
            self_ns[run_rb] / cliffords if cliffords else 0.0
        )
        fits = values.get("fitkit.least_squares.calls", 0.0) * n
        values["fitkit.least_squares.converged_frac"] = (
            self.counters.get("fitkit.least_squares.converged", 0) / fits if fits else 0.0
        )
        values["trace.overhead_frac"] = overhead_frac
        return {name: values.get(name, 0.0) for name in PER_LAYER}

"""Per-layer spans recorded from outside the package.

The tracer swaps the public functions of each ``floquetdd`` module for
timing wrappers, at every module attribute where a caller looks them up
(``floquetdd.validity.floquet_solve``, ``floquetdd.cli.emit_csv``, ...),
and wraps the CLI subcommand runners.  A span holds name, start, end,
parent and item id; spans stay in memory until the run ends.  Scalar
reservoir calls, made thousands of times per run, are aggregated to a call
count plus summed time, which is charged to the enclosing span as child
time.  The package itself is not modified.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: int
    leaf_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans and leaf calls cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[i]
            if c.end > span.start and c.start < span.end
        ]
        out.append(span.duration - _covered(clipped) - span.leaf_s)
    return out


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Notes: per-call counts taken from a traced call's arguments and result.
def _note_solve(tracer, args, kwargs, result):
    drive, grid = _arg(args, kwargs, 0, "drive"), _arg(args, kwargs, 1, "grid")
    tracer.counts["floquet.floquet_solve.sample_steps"] += grid.n_samples
    tracer.solve_keys.add(
        (drive.omega, drive.rabi, drive.omega_eg, grid.n_samples, grid.period,
         _arg(args, kwargs, 2, "truncation", 16))
    )


def _note_map(tracer, args, kwargs, result):
    rabi = np.asarray(_arg(args, kwargs, 0, "rabi_values"))
    omega_eg = np.asarray(_arg(args, kwargs, 1, "omega_eg_values"))
    n_samples = _arg(args, kwargs, 3, "n_samples", 512)
    tracer.counts["floquet.quasienergy_magnitude_map.cell_steps"] += rabi.size * omega_eg.size * n_samples


def _note_table(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["dipole.sidebands"] += 2 * result.truncation + 1


def _note_evolve(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    times = np.asarray(_arg(args, kwargs, 2, "times"), dtype=float)
    scale = max(float(np.linalg.norm(model.hamiltonian, 2)), model.max_rate)
    tracer.counts["lindblad.evolve.model_time"] += float(times[-1]) * scale


def _note_steady(tracer, args, kwargs, result):
    if result is None:
        tracer.counts["lindblad.steady_state.refusals"] += 1


def _note_scan(tracer, args, kwargs, result):
    rabi = np.asarray(_arg(args, kwargs, 0, "rabi_values"))
    omega_eg = np.asarray(_arg(args, kwargs, 1, "omega_eg_values"))
    tracer.counts["validity.scan_tau_map.cells"] += rabi.size * omega_eg.size


def _note_csv(tracer, args, kwargs, result):
    table, path = _arg(args, kwargs, 0, "table"), _arg(args, kwargs, 1, "path")
    tracer.counts["io.emit_csv.rows"] += len(table.rows)
    if os.path.exists(path):
        tracer.counts["io.emit_csv.bytes"] += os.path.getsize(path)


def _note_json(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    if os.path.exists(path):
        tracer.counts["io.emit_json.bytes"] += os.path.getsize(path)


# (module, function, note) of every traced span.
SPANS = (
    ("floquet", "floquet_solve", _note_solve),
    ("floquet", "propagate_period", None),
    ("floquet", "quasienergy_magnitude_map", _note_map),
    ("dipole", "matrix_elements", _note_table),
    ("dipole", "coupling_coefficients", None),
    ("dipole", "build_channels", None),
    ("lindblad", "build_liouvillian", None),
    ("lindblad", "steady_state", _note_steady),
    ("lindblad", "evolve", _note_evolve),
    ("lindblad", "obe_reference", None),
    ("lindblad", "fme_vs_obe_compare", None),
    ("validity", "scan_tau_map", _note_scan),
    ("validity", "timescale_report", None),
    ("spin", "build_spin_hamiltonian", None),
    ("scenario", "load_scenario", None),
    ("io", "emit_csv", _note_csv),
    ("io", "emit_json", _note_json),
)
LEAVES = (("bath", "omega_dd"), ("bath", "gamma_thermal_single"), ("bath", "gamma_thermal_pair"))
SUBCOMMANDS = (
    "floquet", "coefficients", "channels", "evolve", "steady",
    "spinmodel", "taumap", "compare", "reproduce-paper",
)


class Tracer:
    """Records spans while installed (``install``/``uninstall`` or ``with``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves = {f"{m}.{f}": [0, 0.0] for m, f in LEAVES}
        self.counts = defaultdict(float)
        self.solve_keys = set()
        self.item = -1
        self._stack: list[int] = []
        self._restore = []

    def wrap_span(self, name, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.item)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.end = perf_counter()
                tracer._stack.pop()
                if note is not None:
                    note(tracer, args, kwargs, None)
                raise
            span.end = perf_counter()
            tracer._stack.pop()
            if note is not None:
                note(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn):
        tracer = self
        totals = self.leaves[name]

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]].leaf_s += elapsed

        traced.__wrapped__ = fn
        return traced

    def _swap(self, original, wrapper) -> None:
        """Replace ``original`` at every floquetdd module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "floquetdd" and not mod_name.startswith("floquetdd."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        import floquetdd.cli

        for module_name, fn_name, note in SPANS:
            module = sys.modules[f"floquetdd.{module_name}"]
            original = getattr(module, fn_name)
            self._swap(original, self.wrap_span(f"{module_name}.{fn_name}", original, note))
        for module_name, fn_name in LEAVES:
            module = sys.modules[f"floquetdd.{module_name}"]
            original = getattr(module, fn_name)
            self._swap(original, self.wrap_leaf(f"{module_name}.{fn_name}", original))
        runners = floquetdd.cli._RUNNERS
        self._runners = dict(runners)
        for sub, runner in self._runners.items():
            runners[sub] = self.wrap_span(f"cli.{sub}", runner)

    def uninstall(self) -> None:
        import floquetdd.cli

        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        floquetdd.cli._RUNNERS.update(self._runners)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict:
        """name -> {calls, busy_s, self_s} over every recorded span."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["calls"] += 1
            entry["busy_s"] += span.duration
            entry["self_s"] += own
        return out


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


def _catalogue():
    m = []

    def add(name, unit, better="lower"):
        m.append(Metric(name, unit, better))

    for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("sample_steps", "count")):
        add(f"floquet.floquet_solve.{stat}", unit)
    add("floquet.floquet_solve.unique_ratio", "ratio", "higher")
    add("floquet.propagate_period.busy_s", "s")
    add("floquet.quasienergy_magnitude_map.busy_s", "s")
    add("floquet.quasienergy_magnitude_map.cell_steps", "count")
    add("floquet.quasienergy_magnitude_map.cell_steps_per_s", "1/s", "higher")
    for _, fn in LEAVES:
        add(f"bath.{fn}.calls", "count")
        add(f"bath.{fn}.busy_s", "s")
    add("dipole.matrix_elements.busy_s", "s")
    for fn in ("coupling_coefficients", "build_channels"):
        add(f"dipole.{fn}.busy_s", "s")
        add(f"dipole.{fn}.self_s", "s")
    add("dipole.sidebands", "count")
    add("lindblad.evolve.calls", "count")
    add("lindblad.evolve.busy_s", "s")
    add("lindblad.evolve.model_time", "1")
    for fn in ("build_liouvillian", "steady_state", "obe_reference", "fme_vs_obe_compare"):
        add(f"lindblad.{fn}.busy_s", "s")
    add("lindblad.fme_vs_obe_compare.self_s", "s")
    add("lindblad.steady_state.refusal_ratio", "ratio")
    add("validity.scan_tau_map.busy_s", "s")
    add("validity.scan_tau_map.self_s", "s")
    add("validity.scan_tau_map.cells", "count")
    add("validity.timescale_report.busy_s", "s")
    add("validity.timescale_report.self_s", "s")
    add("spin.build_spin_hamiltonian.busy_s", "s")
    add("scenario.load_scenario.busy_s", "s")
    add("floquetdd.import_s", "s")
    add("io.emit_csv.busy_s", "s")
    add("io.emit_csv.rows", "count")
    add("io.emit_csv.bytes", "B")
    add("io.emit_json.busy_s", "s")
    add("io.emit_json.bytes", "B")
    for sub in SUBCOMMANDS:
        add(f"cli.{sub}.busy_s", "s")
        add(f"cli.{sub}.self_s", "s")
    add("trace.items", "count", "higher")
    add("trace.overhead_ratio", "ratio", "higher")
    add("error_rate", "ratio")
    return tuple(m)


PER_LAYER = _catalogue()


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER metric from the recorded spans; ``extra`` supplies the
    ones measured by the harness itself (import, items, overhead, errors)."""
    totals = tracer.totals()
    values = dict(extra)
    for name, entry in totals.items():
        for stat in ("calls", "busy_s", "self_s"):
            values[f"{name}.{stat}"] = entry[stat]
    for name, (calls, seconds) in tracer.leaves.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_s"] = seconds
    values.update(tracer.counts)
    solves = totals["floquet.floquet_solve"]["calls"]
    values["floquet.floquet_solve.unique_ratio"] = len(tracer.solve_keys) / solves if solves else 0.0
    map_busy = totals["floquet.quasienergy_magnitude_map"]["busy_s"]
    values["floquet.quasienergy_magnitude_map.cell_steps_per_s"] = (
        tracer.counts["floquet.quasienergy_magnitude_map.cell_steps"] / map_busy if map_busy else 0.0
    )
    steady = totals["lindblad.steady_state"]["calls"]
    values["lindblad.steady_state.refusal_ratio"] = (
        tracer.counts["lindblad.steady_state.refusals"] / steady if steady else 0.0
    )
    out = {}
    for metric in PER_LAYER:
        out[metric.name] = {"value": float(values.get(metric.name, 0.0)), "unit": metric.unit}
    return out

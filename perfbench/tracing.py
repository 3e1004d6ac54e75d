"""Spans around the calls into memwave's public functions, installed from outside.

The traced workload subprocess calls :func:`instrument` after importing
``memwave.cli``.  It replaces module functions and class methods of memwave
with wrappers that record one span per call (name, start, end, parent) in
memory, plus a few exact counters.  No file under ``src/`` changes; the
wrappers see every call because the program looks these names up on their
module or class at call time.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (owner, attribute, span name); one span name may cover several functions.
# Owners are named, not imported, so that the parent process, which imports
# this module for its units, never imports numpy or memwave.
LAYERS = (
    ("stepper", "run", "stepper.run"),
    ("stepper", "make_initial_data", "stepper.initial_data"),
    ("MemoryConvolution", "__init__", "stepper.memory.setup"),
    ("MemoryConvolution", "known_part", "stepper.memory.known_part"),
    ("SpatialGrid", "to_spectrum", "spectral.fft"),
    ("SpatialGrid", "to_field", "spectral.fft"),
    ("SpatialGrid", "gradient", "spectral.gradient"),
    ("SpatialGrid", "l2_norm", "spectral.norms"),
    ("SpatialGrid", "exterior_l2", "spectral.norms"),
    ("StepCoefficients", "__init__", "spectral.coefficients"),
    ("StepCoefficients", "advance", "spectral.advance"),
    ("diagnostics", "exterior_energy", "diagnostics.exterior_energy"),
    ("diagnostics", "fit_decay_samples", "diagnostics.fit_decay"),
    ("criticality", "classify", "criticality.classify"),
    ("cli", "emit_report", "cli.emit_report"),
)

ROOT_SPAN = "cli.run_subcommand"


class Tracer:
    """In-memory span list plus the exact counters the spans cannot give."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.steps = 0
        self.history_bytes = 0
        self.memory_bytes = 0
        self.report_bytes = 0
        self.loop_ffts = 0
        self._in_step_loop = False

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        setattr(owner, attr, traced)

    # -- exact counters ------------------------------------------------------

    def _on_stepper_run(self, args, history) -> None:
        self._in_step_loop = False
        self.steps += len(history.records) - 1
        self.history_bytes += sum(s.u.nbytes + s.v.nbytes for s in history.states)
        for record in (history.nonlinearity_record, history.forcing_record):
            if record is not None:
                self.history_bytes += record.nbytes

    def _on_stepper_memory_known_part(self, args, result) -> None:
        # the direct sum reads samples[1:m_next]: (m_next - 1) rows of N doubles
        _, samples, m_next = args
        self.memory_bytes += max(m_next - 1, 0) * samples[0].nbytes
        # the step loop calls known_part first in every step, so FFTs counted
        # from here on belong to steps, not to the set-up before the loop
        self._in_step_loop = True

    def _on_spectral_fft(self, args, result) -> None:
        if self._in_step_loop:
            self.loop_ffts += 1

    def _on_cli_emit_report(self, args, written) -> None:
        self.report_bytes += sum(Path(p).stat().st_size for p in written)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def instrument(tracer: Tracer) -> None:
    """Route every call listed in LAYERS through ``tracer``."""
    from memwave import cli, criticality, diagnostics, spectral, stepper

    owners = {
        "stepper": stepper,
        "diagnostics": diagnostics,
        "criticality": criticality,
        "cli": cli,
        "MemoryConvolution": stepper.MemoryConvolution,
        "SpatialGrid": spectral.SpatialGrid,
        "StepCoefficients": spectral.StepCoefficients,
    }
    for owner, attr, name in LAYERS:
        tracer._wrap(owners[owner], attr, name)


#: every per-layer metric with its unit; the last four come from the run itself
UNITS = {
    "stepper.run.s": "s",
    "stepper.run.self.s": "s",
    "stepper.steps": "count",
    "stepper.memory.known_part.s": "s",
    "stepper.memory.known_part.calls": "count",
    "stepper.memory.bytes_computed": "B_computed",
    "stepper.memory.setup.s": "s",
    "stepper.history.bytes": "B_computed",
    "stepper.initial_data.s": "s",
    "spectral.fft.calls": "count",
    "spectral.fft.s": "s",
    "spectral.fft.per_step": "1/step",
    "spectral.advance.calls": "count",
    "spectral.advance.s": "s",
    "spectral.gradient.calls": "count",
    "spectral.gradient.s": "s",
    "spectral.norms.s": "s",
    "spectral.coefficients.s": "s",
    "diagnostics.exterior_energy.calls": "count",
    "diagnostics.exterior_energy.s": "s",
    "diagnostics.fit_decay.s": "s",
    "criticality.classify.calls": "count",
    "cli.emit_report.s": "s",
    "cli.report.bytes": "B",
    "cli.self.s": "s",
    "cli.import.s": "s",
    "cli.parse_config.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the spans and counters give, by their benchmark names."""
    totals = tracer.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    known_calls = get("stepper.memory.known_part", "calls")
    return {
        "stepper.run.s": get("stepper.run", "s"),
        "stepper.run.self.s": get("stepper.run", "self_s"),
        "stepper.steps": tracer.steps,
        "stepper.memory.known_part.s": get("stepper.memory.known_part", "s"),
        "stepper.memory.known_part.calls": known_calls,
        "stepper.memory.bytes_computed": tracer.memory_bytes,
        "stepper.memory.setup.s": get("stepper.memory.setup", "s"),
        "stepper.history.bytes": tracer.history_bytes,
        "stepper.initial_data.s": get("stepper.initial_data", "s"),
        "spectral.fft.calls": get("spectral.fft", "calls"),
        "spectral.fft.s": get("spectral.fft", "s"),
        "spectral.fft.per_step": tracer.loop_ffts / known_calls if known_calls else 0.0,
        "spectral.advance.calls": get("spectral.advance", "calls"),
        "spectral.advance.s": get("spectral.advance", "s"),
        "spectral.gradient.calls": get("spectral.gradient", "calls"),
        "spectral.gradient.s": get("spectral.gradient", "s"),
        "spectral.norms.s": get("spectral.norms", "s"),
        "spectral.coefficients.s": get("spectral.coefficients", "s"),
        "diagnostics.exterior_energy.calls": get("diagnostics.exterior_energy", "calls"),
        "diagnostics.exterior_energy.s": get("diagnostics.exterior_energy", "s"),
        "diagnostics.fit_decay.s": get("diagnostics.fit_decay", "s"),
        "criticality.classify.calls": get("criticality.classify", "calls"),
        "cli.emit_report.s": get("cli.emit_report", "s"),
        "cli.report.bytes": tracer.report_bytes,
        "cli.self.s": get(ROOT_SPAN, "self_s"),
    }

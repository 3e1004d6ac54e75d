"""Batch front door: config parsing, subcommands, CSV and summary emission.

Subcommands: ``simulate``, ``classify``, ``sweep``, ``verify``, ``exponents``.
Scientific outcomes (including detected blow-up) exit with code 0; only
malformed configs or infrastructure failures are process errors.  Identical
manifests produce byte-identical output files on one machine, numpy build
and BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import criticality, diagnostics, frac_ops, spectral, stepper

SCHEMA_TAG = "memwave.v1"
MAX_TIMESERIES_ROWS = 5000

RUN_COLUMNS = (
    "t",
    "l2_u",
    "h1_u",
    "l2_du",
    "W",
    "exterior_energy",
    "forcing_l2",
    "exterior_mass",
)

SUBCOMMANDS = ("simulate", "classify", "sweep", "verify", "exponents")

_GRID_DEFAULTS = {1: 4096, 2: 256, 3: 64}

_KEY_DEFAULTS = {
    "n": "1",
    "gamma": "0.9",
    "p": "2.0",
    "K": "4.0",
    "amplitude": "1.0",
    "data_shape": "gaussian_bump",
    "box_half_length": "",  # derived from K and t_end when empty
    "points_per_dim": "",  # per-dimension default when empty
    "dt": "",  # min(0.25, dx/2) when empty
    "t_end": "50.0",
    "blowup_threshold": "1e6",
    "delta": "0.1",
    "output_dir": "out",
    "nonlinearity": "on",
    "sweep_p": "",
    "sweep_gamma": "",
    "sweep_amplitude": "",
    "gamma_grid": "",
}

KNOWN_KEYS = tuple(_KEY_DEFAULTS)


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc


def _parse_switch(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected on/off, got {raw!r}")


def _parse_float_list(raw: str, key: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(_parse_float(s, key) for s in items)


@dataclass(frozen=True)
class RunManifest:
    """Validated scenario plus batch-level options for one invocation."""

    scenario: stepper.ScenarioConfig
    output_dir: Path
    subcommand: str
    delta: float
    sweep_axes: dict[str, tuple[float, ...]] = field(default_factory=dict)
    gamma_grid: tuple[float, ...] = ()
    full_resolution: bool = False


def parse_config(text: str, subcommand: str = "simulate") -> RunManifest:
    """Parse a flat ``key = value`` document into a validated manifest.

    Unknown and repeated keys are rejected outright, missing keys take their
    documented defaults, and every scenario invariant is checked here so
    downstream code never sees an inconsistent manifest.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    values = dict(_KEY_DEFAULTS)
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = raw

    n = _parse_int(values["n"], "n")
    if n not in (1, 2, 3):
        raise ConfigError("key 'n': dimension must be 1, 2 or 3")
    K = _parse_float(values["K"], "K")
    t_end = _parse_float(values["t_end"], "t_end")
    if t_end <= 0.0:
        raise ConfigError("key 't_end': t_end must be positive")

    if values["box_half_length"]:
        half_length = _parse_float(values["box_half_length"], "box_half_length")
    else:
        half_length = stepper.suggested_half_length(K, t_end)
    if values["points_per_dim"]:
        points = _parse_int(values["points_per_dim"], "points_per_dim")
    else:
        points = _GRID_DEFAULTS[n]
    try:
        # the preset data are radial, so even in every axis: every run keeps
        # the orthant of the even grid
        grid = spectral.SpatialGrid(n, half_length, points, even=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if values["data_shape"] == "custom":
        raise ConfigError(
            "key 'data_shape': custom data cannot come from a config file; "
            "library runs pass them as ScenarioConfig.custom_data"
        )
    dt = (
        _parse_float(values["dt"], "dt")
        if values["dt"]
        else stepper.default_dt(grid)
    )
    delta = _parse_float(values["delta"], "delta")
    if delta <= 0.0:
        raise ConfigError("key 'delta': delta must be positive")

    try:
        scenario = stepper.ScenarioConfig(
            grid=grid,
            gamma=_parse_float(values["gamma"], "gamma"),
            p=_parse_float(values["p"], "p"),
            support_radius=K,
            amplitude=_parse_float(values["amplitude"], "amplitude"),
            dt=dt,
            t_end=t_end,
            data_shape=values["data_shape"],
            blowup_threshold=_parse_float(values["blowup_threshold"], "blowup_threshold"),
            nonlinearity_enabled=_parse_switch(values["nonlinearity"], "nonlinearity"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep_axes = {}
    for key, axis in (("sweep_p", "p"), ("sweep_gamma", "gamma"), ("sweep_amplitude", "amplitude")):
        if values[key]:
            sweep_axes[axis] = _parse_float_list(values[key], key)
            for value in sweep_axes[axis]:
                try:
                    replace(scenario, **{axis: value})
                except ValueError as exc:
                    raise ConfigError(f"key {key!r}: {exc}") from exc
    if subcommand == "sweep" and not sweep_axes:
        raise ConfigError("sweep requires at least one non-empty sweep axis")

    gamma_grid = _parse_float_list(values["gamma_grid"], "gamma_grid")
    for gamma in gamma_grid:
        if not 0.0 < gamma < 1.0:
            raise ConfigError(f"key 'gamma_grid': gamma must lie in (0, 1), got {gamma}")
    if not gamma_grid:
        gamma_grid = (0.55, 0.6, 0.7, 0.8, 0.9, 0.99)

    return RunManifest(
        scenario=scenario,
        output_dir=Path(values["output_dir"]),
        subcommand=subcommand,
        delta=delta,
        sweep_axes=sweep_axes,
        gamma_grid=gamma_grid,
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@dataclass
class SummaryReport:
    """Everything one invocation produced, ready for deterministic emission.

    A table's rows may be any sequence of dicts, such as a run table's view
    over its run's records (:meth:`_RunRows.rows`).  ``long_rows`` may be any
    iterable, a generator over the tables among them: :func:`emit_report`
    consumes it once.
    """

    subcommand: str
    summary_columns: tuple[str, ...] = ()
    summary_rows: list[dict] = field(default_factory=list)
    tables: dict[str, tuple[tuple[str, ...], Sequence[dict]]] = field(default_factory=dict)
    long_rows: Iterable[tuple[str, str, float, float]] = ()
    notes: list[str] = field(default_factory=list)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])


def emit_report(report: SummaryReport, output_dir: Path) -> list[Path]:
    """Write the summary (text + CSV), the long-format CSV, and all tables."""
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []

    columns = ("schema",) + tuple(report.summary_columns)
    rows = [{"schema": SCHEMA_TAG, **row} for row in report.summary_rows]
    path = output_dir / "summary.csv"
    _write_csv(path, columns, rows)
    written.append(path)

    path = output_dir / "summary.txt"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"memwave {report.subcommand} report (schema {SCHEMA_TAG})\n")
        for note in report.notes:
            handle.write(f"note: {note}\n")
        for row in report.summary_rows:
            pairs = ", ".join(f"{k}={_fmt(v)}" for k, v in row.items())
            handle.write(pairs + "\n")
    written.append(path)

    path = output_dir / "long.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("label", "series", "t", "value"))
        for label, series, t, value in report.long_rows:
            writer.writerow((label, series, _fmt(t), _fmt(value)))
    written.append(path)

    for name, (columns, rows) in report.tables.items():
        path = output_dir / f"{name}.csv"
        _write_csv(path, columns, rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class _RunTable(Sequence):
    """A run table's rows as a read-only view: a row's dict is built when it
    is read, from the run's records and the exterior energies observed at
    the table's nodes, so a table holds one record and one exterior energy
    per row."""

    def __init__(self, records, config, nodes, exterior):
        self._records = records
        self._config = config
        self._nodes = nodes
        self._exterior = exterior

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        record = self._records[self._nodes[index]]
        config = self._config
        return {
            "t": record.t,
            "l2_u": record.l2_u,
            "h1_u": record.h1_u,
            "l2_du": record.l2_du,
            "W": diagnostics.energy_W_from_norm(
                record.t, record.l2_du, config.dim, config.gamma
            ),
            "exterior_energy": self._exterior[index],
            "forcing_l2": record.forcing_l2,
            "exterior_mass": record.exterior_mass,
        }


class _RunRows:
    """Observer of :func:`stepper.run` that builds the rows of a run table.

    Rows sit at multiples of a stride that comes from the planned step count
    M (1 with ``full_resolution``), and the node a run stops at always gets a
    row.  Each row's exterior energy is taken while the node streams past,
    from the spectrum the stepping loop already has
    (:func:`~memwave.diagnostics.exterior_energy`: on the matrix-transform
    grids the total energy by Parseval less a corner box of inverse-matrix
    rows, else one inverse transform per gradient component); the node a
    run stops at, when it lies off the stride, is the history's final state,
    whose exterior energy :meth:`rows` takes with one forward transform.
    The nodes and their exterior energies are kept in typed arrays, 16 bytes
    a row.
    """

    def __init__(
        self, config: stepper.ScenarioConfig, delta: float, full_resolution: bool
    ):
        nodes = config.time_grid.n_nodes
        self.stride = 1 if full_resolution else max(1, math.ceil(nodes / MAX_TIMESERIES_ROWS))
        self.delta = delta
        self.nodes = array("q")
        self.exterior = array("d")

    def _observe(self, node, state, uh=None) -> None:
        self.nodes.append(node)
        self.exterior.append(diagnostics.exterior_energy(state, self.delta, uh).value)

    def __call__(self, node, state, uh, g, forcing) -> None:
        if node % self.stride == 0:
            self._observe(node, state, uh)

    def rows(self, history: stepper.SolutionHistory) -> _RunTable:
        """The table's rows, a view over the run's records and the observed
        nodes; it holds ``history.records``, not the history and its states."""
        last = len(history.records) - 1
        if not self.nodes or self.nodes[-1] != last:
            self._observe(last, history.states[-1])
        return _RunTable(history.records, history.config, self.nodes, self.exterior)


def _simulate_rows(
    scenario: stepper.ScenarioConfig, manifest: RunManifest
) -> tuple[stepper.SolutionHistory, _RunTable]:
    """Run one scenario and return its history with its run-table rows."""
    observer = _RunRows(scenario, manifest.delta, manifest.full_resolution)
    history = stepper.run(scenario, observers=(observer,))
    return history, observer.rows(history)


def _melt(
    tables: Iterable[tuple[str, Sequence[dict]]], series: tuple[str, ...]
) -> Iterator[tuple[str, str, float, float]]:
    """long.csv's rows of run tables: each row's ``series`` in row order,
    table by table, with the table's label and the row's ``t``."""
    for label, rows in tables:
        for row in rows:
            for name in series:
                yield label, name, row["t"], row[name]


def _default_fit_window(t_end: float) -> tuple[float, float]:
    # last half-decade of simulated time
    return (t_end / math.sqrt(10.0), t_end)


def _scenario_row(label: str, scenario: stepper.ScenarioConfig) -> dict:
    """A summary row with the scenario's inputs, the step its time grid
    takes as ``dt``, and empty outcome cells."""
    return {
        "label": label,
        "n": scenario.dim,
        "gamma": scenario.gamma,
        "p": scenario.p,
        "K": scenario.support_radius,
        "amplitude": scenario.amplitude,
        "dt": scenario.time_grid.dt,
        "t_end": scenario.t_end,
        "status": "",
        "t_detect": "",
        "decay_exponent": "",
        "decay_r2": "",
        "sup_W": "",
        "flag": "",
    }


def _add_flag(row: dict, flag: str) -> None:
    """Add ``flag`` to the row's ``flag`` cell: flags join with ``;`` in the
    order they are set, so none overwrites another."""
    row["flag"] = f"{row['flag']};{flag}" if row["flag"] else flag


def _summarize_run(
    label: str, scenario: stepper.ScenarioConfig, history: stepper.SolutionHistory
) -> dict:
    n = scenario.dim
    row = _scenario_row(label, scenario)
    row["status"] = history.status.phase.value
    row["t_detect"] = history.status.t if history.status.t is not None else ""
    times = history.times
    l2_du = history.record_array("l2_du")
    if history.status.phase is stepper.Phase.COMPLETED:
        W = diagnostics.energy_W_from_norm(times, l2_du, n, scenario.gamma)
        row["sup_W"] = float(np.max(W))
        try:
            fit = diagnostics.fit_decay_samples(
                times, l2_du, _default_fit_window(scenario.t_end)
            )
            row["decay_exponent"] = fit.exponent
            row["decay_r2"] = fit.r_squared
        except ValueError:
            _add_flag(row, "decay_fit_unavailable")
    if any(r.exterior_mass > stepper.EXTERIOR_MASS_BUDGET * r.l2_u for r in history.records):
        _add_flag(row, "exterior_mass")
    return row


SUMMARY_COLUMNS = (
    "label",
    "n",
    "gamma",
    "p",
    "K",
    "amplitude",
    "dt",
    "t_end",
    "status",
    "t_detect",
    "decay_exponent",
    "decay_r2",
    "sup_W",
    "verdict",
    "flag",
)

#: the sweep's regime map, a projection of its summary rows
REGIME_COLUMNS = ("label", "n", "gamma", "p", "amplitude", "verdict", "status", "t_detect", "flag")


def _is_seven_smooth(n: int) -> bool:
    for prime in (2, 3, 5, 7):
        while n % prime == 0:
            n //= prime
    return n == 1


def _fft_length_notes(grid: spectral.SpatialGrid) -> list[str]:
    """A note for a grid that transforms by FFT at a ``points_per_dim`` with a
    prime factor above 7, naming the nearest even 7-smooth length at or
    above it; the grid stays as requested.  numpy's real FFT of such a
    length costs 15-18 times a smooth one's: 4.6 ms at 26434 = 2 * 13217
    against 0.32 ms at 26460 (2-vCPU VM)."""
    n = grid.points_per_dim
    if grid.transform_matrix_bytes or _is_seven_smooth(n):
        return []
    smooth = next(k for k in itertools.count(n + 2, 2) if _is_seven_smooth(k))
    return [
        f"points_per_dim = {n} has a prime factor above 7, which slows every "
        f"FFT of the run; the nearest even 7-smooth points_per_dim at or "
        f"above it is {smooth}"
    ]


def _cmd_simulate(manifest: RunManifest) -> SummaryReport:
    report = SummaryReport("simulate", summary_columns=SUMMARY_COLUMNS)
    report.notes.extend(_fft_length_notes(manifest.scenario.grid))
    history, rows = _simulate_rows(manifest.scenario, manifest)
    report.tables["run"] = (RUN_COLUMNS, rows)
    summary = _summarize_run("run", manifest.scenario, history)
    summary["verdict"] = ""
    report.summary_rows.append(summary)
    report.long_rows = _melt([("run", rows)], RUN_COLUMNS[1:])
    return report


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _traits_for(scenario: stepper.ScenarioConfig) -> criticality.DataTraits:
    positive = scenario.amplitude > 0.0 and scenario.data_shape in (
        "gaussian_bump",
        "plateau",
    )
    return criticality.DataTraits(
        positive_mean=positive, small_data=True, compact_support=True
    )


EXPONENT_COLUMNS = ("p_c", "p_gamma", "p_1", "p_2", "p_3", "sobolev_cap")


def _exponent_row(n: int, gamma: float) -> dict:
    """gamma and the critical exponents of dimension n at that gamma."""
    exps = criticality.compute_exponents(n, gamma)
    return {"gamma": gamma, **{name: float(getattr(exps, name)) for name in EXPONENT_COLUMNS}}


def _cmd_classify(manifest: RunManifest) -> SummaryReport:
    scenario = manifest.scenario
    report = SummaryReport(
        "classify",
        summary_columns=("label", "n", "gamma", "p", "verdict", "citation", "notes"),
    )
    verdict = criticality.classify(
        scenario.dim, scenario.gamma, scenario.p, _traits_for(scenario)
    )
    report.summary_rows.append(
        {
            "label": "classify",
            "n": scenario.dim,
            "gamma": scenario.gamma,
            "p": scenario.p,
            "verdict": verdict.tag,
            "citation": verdict.citation,
            "notes": verdict.notes or "small_data assumed; smallness is not quantitative",
        }
    )
    report.tables["exponents"] = (
        ("gamma",) + EXPONENT_COLUMNS,
        [_exponent_row(scenario.dim, scenario.gamma)],
    )
    return report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_entries(manifest: RunManifest) -> list[stepper.ScenarioConfig]:
    base = manifest.scenario
    axes = manifest.sweep_axes
    p_values = axes.get("p", (base.p,))
    gamma_values = axes.get("gamma", (base.gamma,))
    amp_values = axes.get("amplitude", (base.amplitude,))
    entries = []
    for p in p_values:
        for gamma in gamma_values:
            for amplitude in amp_values:
                entries.append(replace(base, p=p, gamma=gamma, amplitude=amplitude))
    return entries


def _cmd_sweep(manifest: RunManifest) -> SummaryReport:
    """Run the entries one at a time; one that raises becomes an ``error`` row.

    The exception's class goes to the entry's ``flag`` and its message to a
    note in summary.txt; the other entries complete and are written as usual.
    An entry keeps its summary row and its run table, a view over its
    records; its history, with the initial and final states, is dropped
    before the next entry runs.
    """
    report = SummaryReport("sweep", summary_columns=SUMMARY_COLUMNS)
    report.notes.extend(_fft_length_notes(manifest.scenario.grid))
    map_rows = []
    run_tables = []
    for index, scenario in enumerate(_sweep_entries(manifest)):
        label = f"run_{index:03d}"
        verdict = criticality.classify(
            scenario.dim, scenario.gamma, scenario.p, _traits_for(scenario)
        )
        try:
            history, rows = _simulate_rows(scenario, manifest)
        except Exception as exc:  # the other entries must still complete
            summary = _scenario_row(label, scenario)
            summary["status"] = "error"
            _add_flag(summary, type(exc).__name__)
            report.notes.append(f"{label} failed: {type(exc).__name__}: {exc}")
            rows = None
        else:
            summary = _summarize_run(label, scenario, history)
            completed = history.status.phase is stepper.Phase.COMPLETED
            if verdict.tag == "BlowUpPositiveData" and completed:
                _add_flag(summary, "horizon_too_short")
            del history
        summary["verdict"] = verdict.tag
        report.summary_rows.append(summary)
        if rows is not None:
            report.tables[label] = (RUN_COLUMNS, rows)
            run_tables.append((label, rows))
        map_rows.append({c: summary[c] for c in REGIME_COLUMNS})
    report.tables["regime_map"] = (REGIME_COLUMNS, map_rows)
    report.long_rows = _melt(run_tables, ("l2_du",))
    return report


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def _cmd_exponents(manifest: RunManifest) -> SummaryReport:
    n = manifest.scenario.dim
    report = SummaryReport(
        "exponents", summary_columns=("label", "n", "gamma") + EXPONENT_COLUMNS
    )
    rows = [
        {"label": f"gamma={_fmt(gamma)}", "n": n, **_exponent_row(n, gamma)}
        for gamma in manifest.gamma_grid
    ]
    report.summary_rows = rows
    report.long_rows = [
        (name, "gamma", row["gamma"], row[name])
        for row in rows
        for name in ("p_gamma", "p_1", "p_2", "p_3")
    ]
    report.tables["exponent_table"] = (("n", "gamma") + EXPONENT_COLUMNS, rows)
    return report


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

CUI_TRIPLES = (
    ("super_1", 0.5, 1.0, 2.0),
    ("super_2", 0.3, 1.5, 0.4),
    ("super_3", 0.7, 0.8, 1.2),
    ("log_1", 0.5, 0.5, 1.0),
    ("log_2", 0.3, 0.7, 0.5),
    ("log_3", 0.2, 0.8, 1.0),
    ("sub_1", 0.2, 0.1, 0.3),
    ("sub_2", 0.1, 0.2, 0.4),
    ("sub_3", 0.3, 0.1, 0.4),
)

# Every verify row, in output order: (suite, case) -> (threshold, comparator).
# The weak_residual row's refinement ratio (4.00 when dt and dx halve) shows
# that the trapezoid pairing of a run with the closed-form cutoff profiles
# is consistent at order 2; it does not measure the scheme's time order.
# The cui rows integrate by composite 24-point Gauss-Legendre on graded
# panels: over their 360 integrals it is within 3.2e-13 relative of scipy's
# weighted quad (QAWS), the oracle tests/test_diagnostics.py holds at 1e-11.
VERIFY_CHECKS: dict[tuple[str, str], tuple[float, str]] = {
    ("frac_inversion", "residual"): (0.02, "<="),
    ("frac_inversion", "order"): (0.8, ">="),
    ("frac_adjoint", "relative_residual"): (0.01, "<="),
    ("frac_adjoint", "refinement_ratio"): (0.5, "<="),
    ("frac_closed_form", "lattice_worst"): (0.01, "<="),
    ("symbol_continuity", "k0_jump"): (1e-6, "<"),
    ("symbol_continuity", "k1_jump"): (1e-6, "<"),
    **{("cui", case): (0.01, "slope<=") for case, *_ in CUI_TRIPLES},
    ("gagliardo", "ratio_table"): (math.inf, "finite"),
    ("weak_residual", "refinement_ratio"): (1.5, ">="),
}

# A measurement is the printed value, or (printed value, other quantity) for
# a comparator that names one: "slope<=" takes the sup ratio and the slope
# over the last decade, "finite" the worst ratio and every ratio.
_COMPARATORS = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "slope<=": lambda pair, threshold: math.isfinite(pair[0]) and pair[1] <= threshold,
    "finite": lambda pair, threshold: all(math.isfinite(r) and r > 0.0 for r in pair[1]),
}


def _verify_row(suite: str, case: str, measured) -> dict:
    threshold, comparator = VERIFY_CHECKS[suite, case]
    return {
        "suite": suite,
        "case": case,
        "value": measured[0] if isinstance(measured, tuple) else measured,
        "threshold": threshold,
        "comparator": comparator,
        "passed": _COMPARATORS[comparator](measured, threshold),
    }


def _verify_frac_rows() -> dict:
    order = frac_ops.FracOrder(0.5)
    residuals = []
    for n_steps in (512, 1024, 2048):
        grid = frac_ops.TimeGrid(1.0 / n_steps, n_steps)
        g = frac_ops.TimeSeries(grid, np.sin(grid.times))
        residuals.append(frac_ops.inversion_residual(g, order) / np.abs(np.sin(grid.times)).max())
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]

    rel_residuals = []
    for n_steps in (512, 1024):
        grid = frac_ops.TimeGrid(1.0 / n_steps, n_steps)
        f = frac_ops.TimeSeries(grid, grid.times.copy())
        g = frac_ops.CutoffProfile(7.0, 1.0).sample(grid)
        lhs, rhs = frac_ops.adjointness_sides(f, g, order)
        rel_residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

    worst = 0.0
    grid = frac_ops.TimeGrid(1.0 / 1024, 1024)
    for sigma in (5.0, 7.0, 9.0):
        profile = frac_ops.CutoffProfile(sigma, 1.0)
        w1 = profile.sample(grid)
        for alpha in (0.25, 0.5, 0.75):
            for k in (0, 1, 2):
                approx = frac_ops.rl_deriv_right(w1, frac_ops.FracOrder(alpha), k)
                exact = frac_ops.cutoff_deriv_closed_form(
                    profile, frac_ops.FracOrder(alpha), k, grid.times
                )
                err = np.abs(approx.values - exact).max() / np.abs(exact).max()
                worst = max(worst, float(err))
    return {
        ("frac_inversion", "residual"): residuals[0],
        ("frac_inversion", "order"): min(orders),
        ("frac_adjoint", "relative_residual"): rel_residuals[0],
        ("frac_adjoint", "refinement_ratio"): rel_residuals[1] / rel_residuals[0],
        ("frac_closed_form", "lattice_worst"): worst,
    }


def _verify_symbol_rows() -> dict:
    eps = 1e-8
    xi2 = np.array([0.25 - eps, 0.25 + eps])
    jump0 = 0.0
    jump1 = 0.0
    # the true symbols vary like t^2 eps across the window; the 1e-6
    # relative continuity bound is meaningful at moderate times
    for t in (0.5, 1.0, 5.0):
        k0 = spectral.k0_hat(t, xi2)
        k1 = spectral.k1_hat(t, xi2)
        jump0 = max(jump0, abs(k0[1] - k0[0]) / max(abs(k0[0]), 1e-300))
        jump1 = max(jump1, abs(k1[1] - k1[0]) / max(abs(k1[0]), 1e-300))
    return {("symbol_continuity", "k0_jump"): jump0, ("symbol_continuity", "k1_jump"): jump1}


def _verify_cui_rows() -> dict:
    t_samples = np.geomspace(1.0, 1e4, 40)
    measured = {}
    for case, theta, a, b in CUI_TRIPLES:
        rep = diagnostics.cui_bound_check(theta, a, b, t_samples)
        measured["cui", case] = (rep.sup_ratio, rep.last_decade_slope)
    return measured


def _verify_gagliardo_rows() -> dict:
    # bump riding outward with the cone: the exponential weight is large on
    # its support, the regime the inequality has to balance
    grid = spectral.SpatialGrid(1, 128.0, 4096)
    K = 4.0
    ratios = []
    for t in (1.0, 10.0, 100.0):
        u = stepper._bump_profile(np.abs(grid.axis_coords - t), K, "gaussian_bump")
        for q, sigma in ((2.0, 1.0), (4.0, 0.5), (4.0, 1.0)):
            ratios.append(diagnostics.gagliardo_ratio(u, grid, t, q, sigma, K))
    return {("gagliardo", "ratio_table"): (max([0.0, *ratios]), ratios)}


def _weak_refinement_pair() -> float:
    """Residual ratio of a small global-regime run under (dt, dx) halving."""
    residuals = []
    for points, n_steps in ((256, 128), (512, 256)):
        grid = spectral.SpatialGrid(1, 16.0, points, even=True)
        scenario = stepper.ScenarioConfig(
            grid=grid,
            gamma=0.9,
            p=4.5,
            support_radius=2.0,
            amplitude=1e-2,
            dt=8.0 / n_steps,
            t_end=8.0,
        )
        params = diagnostics.TestFunctionParams(
            ell=8, eta=7.0, B=6.0, T=8.0, alpha=frac_ops.FracOrder(1.0 - 0.9)
        )
        pairing = diagnostics.WeakPairing(params, grid)
        history = stepper.run(scenario, observers=(pairing,))
        residuals.append(
            diagnostics.weak_residual(history, pairing, scenario.p, scenario.gamma)
        )
    return residuals[0] / residuals[1]


def _cmd_verify(manifest: RunManifest) -> SummaryReport:
    columns = ("suite", "case", "value", "threshold", "comparator", "passed")
    report = SummaryReport("verify", summary_columns=columns)
    measured = {
        **_verify_frac_rows(),
        **_verify_symbol_rows(),
        **_verify_cui_rows(),
        **_verify_gagliardo_rows(),
        ("weak_residual", "refinement_ratio"): _weak_refinement_pair(),
    }
    missing = [pair for pair in VERIFY_CHECKS if pair not in measured]
    if missing:
        raise RuntimeError(f"verify suite incomplete, missing rows: {missing}")
    rows = [_verify_row(suite, case, measured[suite, case]) for suite, case in VERIFY_CHECKS]
    report.summary_rows = rows
    report.tables["verify"] = (columns, rows)
    report.long_rows = [(row["suite"], row["case"], 0.0, float(row["value"])) for row in rows]
    if not all(r["passed"] for r in rows):
        report.notes.append("one or more verification rows failed")
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "exponents": _cmd_exponents,
}


def run_subcommand(manifest: RunManifest) -> tuple[SummaryReport, list[Path]]:
    """Execute the manifest's subcommand and write its files."""
    report = _COMMANDS[manifest.subcommand](manifest)
    written = emit_report(report, manifest.output_dir)
    return report, written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Damped wave equation with memory nonlinearity: "
        "simulation, classification and verification suites.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None, help="config file path")
        cmd.add_argument("--out", type=Path, default=None, help="output directory")
        if name in ("simulate", "sweep"):
            cmd.add_argument("--full-resolution", action="store_true",
                             help="emit every time step instead of striding to 5000 rows")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        manifest = parse_config(text, args.subcommand)
        if args.out is not None:
            manifest = replace(manifest, output_dir=args.out)
        manifest = replace(
            manifest, full_resolution=getattr(args, "full_resolution", False)
        )
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _, written = run_subcommand(manifest)
    except Exception as exc:  # infrastructure failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


__all__ = [
    "ConfigError",
    "RunManifest",
    "SummaryReport",
    "KNOWN_KEYS",
    "SCHEMA_TAG",
    "parse_config",
    "run_subcommand",
    "emit_report",
    "build_parser",
    "main",
]


if __name__ == "__main__":
    sys.exit(main())

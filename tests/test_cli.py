"""CLI tests: config parsing, subcommand outputs, determinism, exit codes."""

import csv
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import memwave.cli as cli_mod
from memwave import spectral, stepper
from memwave.diagnostics import energy_W_from_norm, exterior_energy
from memwave.spectral import SpatialGrid
from memwave.cli import (
    ConfigError,
    SummaryReport,
    emit_report,
    main,
    parse_config,
)

TINY_BLOWUP = """
n = 1
gamma = 0.9
p = 2.0
K = 4.0
amplitude = 2.0
box_half_length = 32.0
points_per_dim = 256
dt = 0.125
t_end = 20.0
"""

TINY_LINEAR = """
n = 1
gamma = 0.9
p = 4.5
K = 4.0
amplitude = 0.01
box_half_length = 32.0
points_per_dim = 256
dt = 0.25
t_end = 10.0
nonlinearity = off
"""


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    manifest = parse_config("n = 1\n", "simulate")
    scenario = manifest.scenario
    assert scenario.dim == 1
    assert scenario.gamma == 0.9
    assert scenario.grid.points_per_dim == 4096
    # derived box: K + 1.1 * t_end
    assert scenario.grid.half_length == pytest.approx(4.0 + 1.1 * 50.0)
    assert scenario.dt <= 0.25
    assert manifest.output_dir.name == "out"


def test_rejects_gamma_out_of_range():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("gamma = 1.2\n", "simulate")


def test_rejects_support_exceeding_box():
    with pytest.raises(ConfigError, match="support"):
        parse_config("K = 40.0\nbox_half_length = 30.0\n", "simulate")


def test_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config("mystery = 1\n", "simulate")


def test_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n", "simulate")


def test_comments_and_blanks_ignored():
    manifest = parse_config("# comment\n\nn = 2  # trailing\n", "simulate")
    assert manifest.scenario.dim == 2
    assert manifest.scenario.grid.points_per_dim == 256


def test_sweep_requires_axes():
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("n = 1\n", "sweep")
    manifest = parse_config("n = 1\nsweep_p = 2.0, 3.0\n", "sweep")
    assert manifest.sweep_axes["p"] == (2.0, 3.0)


@pytest.mark.parametrize(
    "key,values",
    [("sweep_gamma", "0.5, 1.5"), ("sweep_p", "2.0, 0.5"), ("sweep_amplitude", "1.0, inf")],
)
def test_rejects_sweep_axis_value_out_of_range(key, values):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"n = 1\n{key} = {values}\n", "sweep")


@pytest.mark.parametrize(
    "key,value",
    [
        ("amplitude", "nan"),
        ("K", "nan"),
        ("dt", "nan"),
        ("t_end", "inf"),
        ("p", "nan"),
        ("blowup_threshold", "nan"),
    ],
)
def test_non_finite_value_is_a_config_error(tmp_path, key, value):
    settings = {"n": "1", "points_per_dim": "256", "t_end": "2.0", key: value}
    config = "".join(f"{k} = {v}\n" for k, v in settings.items())
    with pytest.raises(ConfigError, match=key):
        parse_config(config, "simulate")
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 2
    assert not out.exists()


def test_repeated_key_is_a_config_error_naming_both_lines(tmp_path):
    config = "t_end = 2\n# comment\nn = 1\nt_end = 5\n"
    with pytest.raises(ConfigError, match=r"line 4: key 't_end' repeats line 1"):
        parse_config(config, "simulate")
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,line",
    [("simulate", "amplitude = -1"), ("sweep", "sweep_amplitude = 0.01, -1")],
)
def test_negative_amplitude_is_a_config_error(tmp_path, subcommand, line):
    config = f"n = 1\npoints_per_dim = 256\nt_end = 2.0\n{line}\n"
    with pytest.raises(ConfigError, match="amplitude must be non-negative"):
        parse_config(config, subcommand)
    code, out = run_cli(tmp_path, config, subcommand)
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# emit_report
# ---------------------------------------------------------------------------

def test_empty_report_writes_header_only(tmp_path):
    report = SummaryReport("sweep", summary_columns=("label", "status"))
    emit_report(report, tmp_path)
    text = (tmp_path / "summary.csv").read_text()
    assert text == "schema,label,status\n"
    assert (tmp_path / "long.csv").read_text() == "label,series,t,value\n"


@pytest.mark.parametrize(
    "value,text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")]
)
def test_fmt_writes_non_finite_floats_with_their_sign(value, text):
    assert cli_mod._fmt(value) == text


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------

def run_cli(tmp_path, config_text, subcommand, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_simulate_linear_preset(tmp_path):
    code, out = run_cli(tmp_path, TINY_LINEAR, "simulate")
    assert code == 0
    rows = read_csv(out / "run.csv")
    assert list(rows[0].keys()) == [
        "t",
        "l2_u",
        "h1_u",
        "l2_du",
        "W",
        "exterior_energy",
        "forcing_l2",
        "exterior_mass",
    ]
    summary = read_csv(out / "summary.csv")[0]
    assert summary["status"] == "completed"
    assert summary["schema"] == "memwave.v1"
    assert float(summary["decay_exponent"]) < 0.0
    assert float(rows[-1]["exterior_mass"]) <= stepper.EXTERIOR_MASS_BUDGET * float(
        rows[-1]["l2_u"]
    )
    # resolved: no record's exterior mass exceeds the budget
    assert summary["flag"] == ""


def test_under_resolved_support_is_flagged(tmp_path):
    # 16 points over a box of 5.4: the data core, of width K / 7 = 0.57, is
    # about one cell wide, and its spectral ringing reaches far beyond the
    # support ball; a one-second horizon also leaves no decay fit
    config = "n = 3\np = 2.0\namplitude = 0.01\npoints_per_dim = 16\nt_end = 1.0\n"
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 0
    summary = read_csv(out / "summary.csv")[0]
    assert summary["status"] == "completed"
    assert summary["flag"] == "decay_fit_unavailable;exterior_mass"
    rows = read_csv(out / "run.csv")
    assert any(
        float(r["exterior_mass"]) > stepper.EXTERIOR_MASS_BUDGET * float(r["l2_u"])
        for r in rows
    )


@pytest.mark.parametrize("subcommand", ["simulate", "sweep"])
@pytest.mark.parametrize("points,smooth", [(1034, 1050), (1024, None)])
def test_slow_fft_length_gets_a_note(tmp_path, subcommand, points, smooth):
    # 518 stored points take the FFT path; 1034 = 2 * 11 * 47 is slow there
    config = f"n = 1\npoints_per_dim = {points}\nt_end = 0.5\nsweep_p = 2.0\n"
    code, out = run_cli(tmp_path, config, subcommand)
    assert code == 0
    notes = [
        line for line in (out / "summary.txt").read_text().splitlines()
        if line.startswith("note: points_per_dim")
    ]
    if smooth is None:
        assert notes == []
    else:
        assert len(notes) == 1 and notes[0].endswith(f"at or above it is {smooth}")


def test_fft_length_notes_name_the_nearest_smooth_length():
    note, = cli_mod._fft_length_notes(SpatialGrid(1, 100.0, 26434, even=True))
    assert note.endswith("at or above it is 26460")
    # the benchmark's grids: 2049 stored points of a smooth length, and the
    # 2-D and 3-D axes of 129 and 33 points, which take matrix transforms;
    # so does 202 = 2 * 101, whose 102 stored points need no note
    for dim, points in ((1, 4096), (2, 256), (3, 64), (2, 202)):
        assert cli_mod._fft_length_notes(SpatialGrid(dim, 10.0, points, even=True)) == []


def test_simulate_of_fewer_steps_than_a_block(tmp_path):
    # 4 steps, fewer than stepper._BLOCK: one block of 4 steps without
    # exponentials, and a run table of every node
    config = "n = 1\np = 2.0\namplitude = 0.01\ndt = 0.25\nt_end = 1.0\n"
    assert parse_config(config, "simulate").scenario.n_steps == 4 < stepper._BLOCK
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 0
    assert read_csv(out / "summary.csv")[0]["status"] == "completed"
    rows = read_csv(out / "run.csv")
    assert [float(r["t"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert float(rows[0]["forcing_l2"]) == 0.0 < float(rows[-1]["forcing_l2"])


def test_simulate_blowup_exits_zero(tmp_path):
    code, out = run_cli(tmp_path, TINY_BLOWUP, "simulate")
    assert code == 0
    summary = read_csv(out / "summary.csv")[0]
    assert summary["status"] == "blowup_detected"
    assert float(summary["t_detect"]) > 0.0


#: 2-D and 3-D runs on dense even grids, whose transforms are matrix products
#: in numpy's BLAS, with more than stepper._BLOCK steps, so that the memory
#: sum folds its blocks into the exponential modes
TINY_2D = """
n = 2
p = 2.5
K = 3.0
amplitude = 0.5
box_half_length = 8.0
points_per_dim = 64
dt = 0.1
t_end = 2.0
"""

TINY_3D = """
n = 3
p = 4.5
K = 2.0
amplitude = 0.01
box_half_length = 6.0
points_per_dim = 32
dt = 0.1
t_end = 2.0
"""


@pytest.mark.parametrize(
    "config", [TINY_BLOWUP, TINY_2D, TINY_3D], ids=["1d", "2d", "3d"]
)
def test_simulate_deterministic_outputs(tmp_path, config):
    # byte-identity on one machine, numpy build and BLAS thread count (README)
    manifest = parse_config(config)
    if manifest.scenario.dim > 1:
        assert manifest.scenario.grid.even and manifest.scenario.n_steps > stepper._BLOCK
        assert max(manifest.scenario.grid.shape) <= spectral._DENSE_AXIS
    _, out1 = run_cli(tmp_path / "a", config, "simulate")
    _, out2 = run_cli(tmp_path / "b", config, "simulate")
    for name in ("summary.csv", "run.csv", "long.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


#: a 2-D sweep on a dense even grid with one entry that completes and one
#: that blows up, both past stepper._BLOCK steps
SWEEP_2D = """
n = 2
p = 2.0
K = 3.0
box_half_length = 8.0
points_per_dim = 64
dt = 0.1
t_end = 3.0
sweep_amplitude = 0.01, 5.0
"""


def test_sweep_deterministic_outputs(tmp_path):
    # byte-identity of every written file, as for simulate (README)
    manifest = parse_config(SWEEP_2D, "sweep")
    assert manifest.scenario.grid.even
    assert max(manifest.scenario.grid.shape) <= spectral._DENSE_AXIS
    _, out1 = run_cli(tmp_path / "a", SWEEP_2D, "sweep")
    _, out2 = run_cli(tmp_path / "b", SWEEP_2D, "sweep")
    summary = read_csv(out1 / "summary.csv")
    assert [row["status"] for row in summary] == ["completed", "blowup_detected"]
    assert float(summary[1]["t_detect"]) > stepper._BLOCK * manifest.scenario.dt
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    assert names == sorted(
        ["summary.csv", "summary.txt", "long.csv", "regime_map.csv", "run_000.csv", "run_001.csv"]
    )
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _melt_text(tables, series):
    """long.csv's text as the melt of the written run tables: each row's
    ``series`` in row order, table by table, cells as written."""
    lines = ["label,series,t,value"]
    for label, path in tables:
        for row in read_csv(path):
            lines += [f"{label},{name},{row['t']},{row[name]}" for name in series]
    return "\n".join(lines) + "\n"


def test_long_csv_is_the_melt_of_the_simulate_run_table(tmp_path):
    _, out = run_cli(tmp_path, TINY_BLOWUP, "simulate")
    want = _melt_text([("run", out / "run.csv")], cli_mod.RUN_COLUMNS[1:])
    assert (out / "long.csv").read_text() == want


def test_long_csv_is_the_melt_of_the_sweep_run_tables(tmp_path):
    _, out = run_cli(tmp_path, SWEEP_2D, "sweep")
    labels = [row["label"] for row in read_csv(out / "summary.csv")]
    assert labels == ["run_000", "run_001"]
    want = _melt_text([(label, out / f"{label}.csv") for label in labels], ("l2_du",))
    assert (out / "long.csv").read_text() == want


def test_custom_data_shape_in_a_config_is_a_config_error(tmp_path, capsys):
    config = "n = 1\npoints_per_dim = 256\nt_end = 2.0\ndata_shape = custom\n"
    with pytest.raises(ConfigError, match="ScenarioConfig.custom_data"):
        parse_config(config, "simulate")
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "data_shape" in err and "ScenarioConfig.custom_data" in err


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma = 2.0\n")
    code = main(["simulate", "--config", str(cfg)])
    assert code == 2


def test_sweep_axis_out_of_range_exits_two_before_any_entry(tmp_path):
    code, out = run_cli(tmp_path, "n = 1\nsweep_gamma = 0.5, 1.5\n", "sweep")
    assert code == 2
    assert not out.exists()


def test_gamma_grid_out_of_range_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="gamma_grid"):
        parse_config("gamma_grid = 0.5, 1.5\n", "exponents")
    code, out = run_cli(tmp_path, "n = 1\ngamma_grid = 0.5, 1.5\n", "exponents")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand,flag",
    [
        ("sweep", "--workers=2"),
        ("simulate", "--workers=2"),
        ("classify", "--workers=2"),
        ("verify", "--workers=2"),
        ("exponents", "--workers=2"),
        ("classify", "--full-resolution"),
        ("verify", "--full-resolution"),
        ("exponents", "--full-resolution"),
    ],
)
def test_flag_of_another_subcommand_exits_two(subcommand, flag):
    # --full-resolution acts on simulate and sweep only; --workers on none,
    # since sweep entries run one at a time
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, flag])
    assert excinfo.value.code == 2


def test_missing_config_file_exit_code(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_classify_subcommand(tmp_path):
    code, out = run_cli(tmp_path, "n = 1\ngamma = 0.9\np = 2.0\n", "classify")
    assert code == 0
    row = read_csv(out / "summary.csv")[0]
    assert row["verdict"] == "BlowUpPositiveData"
    exps = read_csv(out / "exponents.csv")[0]
    assert float(exps["p_gamma"]) == pytest.approx(3.75)


def test_exponents_subcommand_matches_library(tmp_path):
    from memwave.criticality import compute_exponents

    config = "n = 1\ngamma_grid = 0.6, 0.7, 0.8, 0.9, 0.99\n"
    code, out = run_cli(tmp_path, config, "exponents")
    assert code == 0
    rows = read_csv(out / "exponent_table.csv")
    assert len(rows) == 5
    for row in rows:
        exps = compute_exponents(1, float(row["gamma"]))
        assert float(row["p_gamma"]) == pytest.approx(float(exps.p_gamma))
        assert float(row["p_1"]) == pytest.approx(float(exps.p_1))


SWEEP_CONFIG = """
n = 1
gamma = 0.9
K = 4.0
amplitude = 2.0
box_half_length = 32.0
points_per_dim = 256
dt = 0.125
t_end = 15.0
sweep_p = 2.0, 4.5
"""


def test_sweep_regime_map_and_coherence(tmp_path):
    code, out = run_cli(tmp_path, SWEEP_CONFIG, "sweep")
    assert code == 0
    rows = read_csv(out / "regime_map.csv")
    assert len(rows) == 2
    by_p = {float(r["p"]): r for r in rows}
    assert by_p[2.0]["verdict"] == "BlowUpPositiveData"
    assert by_p[2.0]["status"] == "blowup_detected"
    # no horizon flag; the growing solution outruns the grid, whose exterior
    # mass reaches 1.8e-4 of ||u||_2 by the detection
    assert by_p[2.0]["flag"] == "exterior_mass"
    # p = 4.5 with amplitude 2.0 at this horizon may complete or blow up;
    # either way the coherence rule is: a blow-up verdict that completed
    # must carry the horizon flag
    for row in rows:
        if row["verdict"] == "BlowUpPositiveData" and row["status"] == "completed":
            assert row["flag"] == "horizon_too_short"


def test_sweep_row_keeps_every_flag_in_the_order_set(tmp_path):
    # a one-second horizon: the fit window holds too few samples for a decay
    # fit, and a blow-up verdict that completed is too short a horizon
    config = """
n = 1
p = 2.0
amplitude = 0.01
points_per_dim = 256
dt = 0.25
t_end = 1.0
sweep_p = 2.0
"""
    code, out = run_cli(tmp_path, config, "sweep")
    assert code == 0
    summary = read_csv(out / "summary.csv")[0]
    regime = read_csv(out / "regime_map.csv")[0]
    assert summary["status"] == "completed" and summary["decay_exponent"] == ""
    for row in (summary, regime):
        assert row["flag"] == "decay_fit_unavailable;horizon_too_short"


def test_sweep_transition_across_critical_exponents(tmp_path):
    # p sweep through the proven blow-up range (p <= p_gamma = 3.75) and
    # beyond: all subcritical rows must report detected blow-up
    config = SWEEP_CONFIG.replace("sweep_p = 2.0, 4.5", "sweep_p = 2.0, 3.0, 3.75, 4.5")
    code, out = run_cli(tmp_path, config, "sweep")
    assert code == 0
    rows = read_csv(out / "regime_map.csv")
    by_p = {float(r["p"]): r for r in rows}
    for p in (2.0, 3.0, 3.75):
        assert by_p[p]["verdict"] == "BlowUpPositiveData"
        assert by_p[p]["status"] == "blowup_detected" or by_p[p]["flag"] == "horizon_too_short"
    assert by_p[4.5]["verdict"] == "GlobalSmallData"


def test_full_resolution_flag(tmp_path):
    config = TINY_LINEAR.replace("t_end = 10.0", "t_end = 8.0")
    _, strided = run_cli(tmp_path / "a", config, "simulate")
    _, full = run_cli(tmp_path / "b", config, "simulate", "--full-resolution")
    # 8 / 0.25 = 32 steps: both below the stride cap here, so equal row
    # counts; the flag is exercised for coverage
    assert len(read_csv(full / "run.csv")) == len(read_csv(strided / "run.csv"))
    assert len(read_csv(full / "run.csv")) == 33


def test_timeseries_rows_capped_by_stride(tmp_path, monkeypatch):
    import memwave.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_TIMESERIES_ROWS", 10)
    config = TINY_LINEAR.replace("t_end = 10.0", "t_end = 8.0")
    _, out = run_cli(tmp_path, config, "simulate")
    rows = read_csv(out / "run.csv")
    assert len(rows) <= 11  # stride cap plus the guaranteed final row
    assert float(rows[-1]["t"]) == pytest.approx(8.0)


def test_simulate_full_linear_preset_decay_window(tmp_path):
    # full desk-scale linear preset: the summary decay fit must land in the
    # proven rate window for n = 1
    config = """
n = 1
gamma = 0.9
K = 2.0
amplitude = 1.0
box_half_length = 250.0
points_per_dim = 4096
dt = 0.25
t_end = 200.0
nonlinearity = off
"""
    code, out = run_cli(tmp_path, config, "simulate")
    assert code == 0
    summary = read_csv(out / "summary.csv")[0]
    assert -0.95 <= float(summary["decay_exponent"]) <= -0.55
    assert float(summary["decay_r2"]) >= 0.95


# ---------------------------------------------------------------------------
# run tables streamed from the stepping loop
# ---------------------------------------------------------------------------

def _rows_from_stored_states(history, states, delta, full_resolution):
    """Run-table rows as built before the row observer: after the run, from
    every node's state, strided by the number of records, with
    exterior_energy transforming u itself."""
    config = history.config
    count = len(history.records)
    stride = 1 if full_resolution else max(1, math.ceil(count / cli_mod.MAX_TIMESERIES_ROWS))
    indices = list(range(0, count, stride))
    if indices[-1] != count - 1:
        indices.append(count - 1)
    rows = []
    for i in indices:
        record = history.records[i]
        ext = exterior_energy(states[i], delta)
        rows.append(
            {
                "t": record.t,
                "l2_u": record.l2_u,
                "h1_u": record.h1_u,
                "l2_du": record.l2_du,
                "W": energy_W_from_norm(record.t, record.l2_du, config.dim, config.gamma),
                "exterior_energy": ext.value,
                "forcing_l2": record.forcing_l2,
                "exterior_mass": record.exterior_mass,
            }
        )
    return rows


class KeepStates:
    """Test observer: every node's state."""

    def __init__(self):
        self.states = []

    def __call__(self, node, state, uh, g, forcing):
        self.states.append(state)


ORACLE_SCENARIOS = {
    "n1": dict(grid=SpatialGrid(1, 32.0, 256), p=4.5, amplitude=1e-2, dt=0.125, t_end=5.0),
    "n2": dict(grid=SpatialGrid(2, 8.0, 32), p=4.5, amplitude=1e-2, dt=0.1, t_end=2.0),
    "n3": dict(grid=SpatialGrid(3, 6.0, 16), p=4.5, amplitude=1e-2, dt=0.1, t_end=1.0),
    "blowup": dict(grid=SpatialGrid(1, 32.0, 256), p=2.0, amplitude=2.0, dt=0.125, t_end=20.0),
}


def _oracle_scenario(name):
    return stepper.ScenarioConfig(gamma=0.9, support_radius=2.0, **ORACLE_SCENARIOS[name])


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_streamed_rows_match_rows_from_stored_states(name):
    scenario = _oracle_scenario(name)
    observer = cli_mod._RunRows(scenario, 0.1, False)
    keep = KeepStates()
    history = stepper.run(scenario, observers=(observer, keep))
    expected_phase = "blowup_detected" if name == "blowup" else "completed"
    assert history.status.phase.value == expected_phase
    streamed = observer.rows(history)
    stored = _rows_from_stored_states(history, keep.states, 0.1, False)
    assert len(streamed) == len(stored) == len(history.records)
    for got, want in zip(streamed, stored):
        assert list(got) == list(want)
        for key, value in want.items():
            if key == "exterior_energy":
                assert got[key] == pytest.approx(value, rel=1e-12)
            else:
                assert got[key] == value


def test_run_table_is_a_view_over_the_records():
    scenario = _oracle_scenario("n1")
    observer = cli_mod._RunRows(scenario, 0.1, True)
    history = stepper.run(scenario, observers=(observer,))
    rows = observer.rows(history)
    assert len(rows) == len(history.records)
    assert rows[-1] == rows[len(rows) - 1] == list(rows)[-1]
    assert rows[1:3] == [rows[1], rows[2]]
    with pytest.raises(IndexError):
        rows[len(rows)]
    # a new dict at each read: changing one does not change the table
    rows[0]["t"] = -1.0
    assert rows[0]["t"] == history.records[0].t


def _traced_peak(manifest):
    """tracemalloc's peak during ``manifest``'s second run (the first fills
    the caches of its grid and of numpy)."""
    cli_mod.run_subcommand(manifest)
    tracemalloc.start()
    try:
        cli_mod.run_subcommand(manifest)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_resolution_simulate_holds_node_bytes_per_node(tmp_path):
    # twice the horizon adds a record and an exterior energy per table row,
    # within the estimate's stepper._NODE_BYTES per node; a dict per row and
    # seven long-format tuples took about 1030 bytes
    config = "n = 1\np = 4.5\namplitude = 0.01\nbox_half_length = 16.0\n"
    config += "points_per_dim = 64\ndt = 0.05\nt_end = {}\n"
    peaks, nodes = [], []
    for t_end in (25.0, 50.0):
        manifest = parse_config(config.format(t_end), "simulate")
        manifest = replace(manifest, output_dir=tmp_path, full_resolution=True)
        peaks.append(_traced_peak(manifest))
        nodes.append(manifest.scenario.time_grid.n_nodes)
    assert nodes == [501, 1001]
    assert (peaks[1] - peaks[0]) / (nodes[1] - nodes[0]) <= stepper._NODE_BYTES


def test_blowup_rows_sit_on_the_stride_of_the_planned_steps(monkeypatch):
    monkeypatch.setattr(cli_mod, "MAX_TIMESERIES_ROWS", 10)
    scenario = _oracle_scenario("blowup")
    observer = cli_mod._RunRows(scenario, 0.1, False)
    history = stepper.run(scenario, observers=(observer,))
    assert history.status.phase is stepper.Phase.BLOWUP_DETECTED
    stride = math.ceil((scenario.n_steps + 1) / 10)
    last = len(history.records) - 1
    # the stride comes from M, not from the nodes the run reached
    assert stride > 1 and stride != math.ceil((last + 1) / 10)
    nodes = [round(row["t"] / scenario.dt) for row in observer.rows(history)]
    expected = list(range(0, last + 1, stride))
    if expected[-1] != last:
        expected.append(last)
    assert nodes == expected
    assert nodes[-1] == round(history.status.t / scenario.dt)


def _overflowing_power(samples_before):
    """stepper._power_p that overflows after ``samples_before`` samples."""
    power_p, calls = stepper._power_p, []

    def power(u, p, out=None):
        calls.append(None)
        return power_p(u if len(calls) <= samples_before else 1e300 * u, p, out=out)

    return power


@pytest.mark.parametrize(
    "name,phase",
    [("blowup", stepper.Phase.BLOWUP_DETECTED), ("n1", stepper.Phase.NUMERICAL_FAILURE)],
)
def test_held_row_survives_the_step_that_stops_the_run(name, phase, monkeypatch):
    # the last recorded node is off the stride and the step after it makes
    # u non-finite: the loop rewrites its spectrum buffer in that step before
    # it returns, so the row held for that node must not read the buffer
    monkeypatch.setattr(cli_mod, "MAX_TIMESERIES_ROWS", 10)
    scenario = _oracle_scenario(name)
    if name == "blowup":
        # the forcing overflows while the run grows, before the functional
        # reaches the threshold (as in tests/test_stepper.py)
        scenario = stepper.ScenarioConfig(
            grid=SpatialGrid(1, 32.0, 256), gamma=0.9, p=2.0, support_radius=4.0,
            amplitude=1.0, dt=0.125, t_end=25.0, blowup_threshold=1e200,
        )
    else:
        # |u|^p overflows from the second sample of step 14 on
        monkeypatch.setattr(stepper, "_power_p", _overflowing_power(2 * 13 + 2))
    observer = cli_mod._RunRows(scenario, 0.1, False)
    history = stepper.run(scenario, observers=(observer,))
    assert history.status.phase is phase
    last = len(history.records) - 1
    assert last % observer.stride != 0
    assert history.status.t == pytest.approx((last + 1) * scenario.dt)
    row = observer.rows(history)[-1]
    assert row["t"] == history.states[-1].time
    # from scratch, u's spectrum is transformed anew: equal up to round-off
    want = exterior_energy(history.states[-1], 0.1).value
    assert row["exterior_energy"] == pytest.approx(want, rel=1e-12)


#: |u|^p overflows in the first step, before the blow-up functional grows
OVERFLOW_CONFIG = """
n = 1
points_per_dim = 256
t_end = 5
p = 4.5
amplitude = 1e80
"""


@pytest.mark.parametrize(
    "subcommand,extra,label",
    [("simulate", "", "run"), ("sweep", "sweep_amplitude = 1.0, 1e80\n", "run_001")],
)
def test_numerical_failure_note_gives_its_time_and_reason(tmp_path, subcommand, extra, label):
    code, out = run_cli(tmp_path, OVERFLOW_CONFIG + extra, subcommand)
    assert code == 0
    statuses = {row["label"]: row["status"] for row in read_csv(out / "summary.csv")}
    assert statuses.pop(label) == "numerical_failure"
    assert set(statuses.values()) <= {"completed"}
    notes = [
        line for line in (out / "summary.txt").read_text().splitlines()
        if line.startswith("note: ")
    ]
    assert notes == [
        f"note: {label}: numerical_failure at t = 0.037109375: "
        "non-finite u or v before the blow-up functional grew"
    ]


SWEEP_THREE = SWEEP_CONFIG.replace("sweep_p = 2.0, 4.5", "sweep_p = 2.0, 3.0, 4.5")


def test_sweep_entry_error_leaves_other_entries_intact(tmp_path, monkeypatch):
    _, clean = run_cli(tmp_path / "clean", SWEEP_THREE, "sweep")
    real_run = stepper.run

    def run_failing_at_p3(config, observers=()):
        if config.p == 3.0:
            raise RuntimeError("injected failure")
        return real_run(config, observers)

    monkeypatch.setattr(stepper, "run", run_failing_at_p3)
    code, broken = run_cli(tmp_path / "broken", SWEEP_THREE, "sweep")
    assert code == 0

    for name in ("summary.csv", "regime_map.csv"):
        clean_lines = (clean / name).read_text().splitlines()
        broken_lines = (broken / name).read_text().splitlines()
        assert len(clean_lines) == len(broken_lines) == 4
        for index in (0, 1, 3):  # header, run_000, run_002
            assert broken_lines[index] == clean_lines[index]
    failed = {row["label"]: row for row in read_csv(broken / "regime_map.csv")}["run_001"]
    assert (failed["status"], failed["flag"]) == ("error", "RuntimeError")
    summary = {row["label"]: row for row in read_csv(broken / "summary.csv")}["run_001"]
    assert (summary["status"], summary["flag"]) == ("error", "RuntimeError")
    assert summary["verdict"] != ""

    for name in ("run_000.csv", "run_002.csv"):
        assert (broken / name).read_bytes() == (clean / name).read_bytes()
    assert not (broken / "run_001.csv").exists()
    kept = [line for line in (clean / "long.csv").read_text().splitlines()
            if not line.startswith("run_001,")]
    assert (broken / "long.csv").read_text().splitlines() == kept
    assert "run_001 failed: RuntimeError: injected failure" in (broken / "summary.txt").read_text()


def test_sweep_entry_larger_than_physical_memory_is_an_error_row(tmp_path, monkeypatch):
    # every entry needs more than the machine has: each refuses to run on
    # its own and becomes an error row, and the report is still written
    entries = cli_mod._sweep_entries(parse_config(SWEEP_THREE, "sweep"))
    available = min(stepper.memory_estimate(s) for s in entries) - 1
    monkeypatch.setattr(stepper, "_physical_memory", lambda: available)
    code, out = run_cli(tmp_path, SWEEP_THREE, "sweep")
    assert code == 0
    for name in ("summary.csv", "regime_map.csv"):
        rows = read_csv(out / name)
        assert [(r["status"], r["flag"]) for r in rows] == [("error", "ValueError")] * 3
    notes = (out / "summary.txt").read_text()
    for index in range(3):
        assert f"run_{index:03d} failed: ValueError: run needs about" in notes
    assert not list(out.glob("run_*.csv"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_writes_every_check_in_table_order_and_all_pass(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    rows = read_csv(out / "verify.csv")
    assert len(rows) == 18
    assert [(r["suite"], r["case"]) for r in rows] == list(cli_mod.VERIFY_CHECKS)
    for row in rows:
        threshold, comparator = cli_mod.VERIFY_CHECKS[row["suite"], row["case"]]
        assert (float(row["threshold"]), row["comparator"]) == (threshold, comparator)
        assert row["passed"] == "true", row
    assert "failed" not in (out / "summary.txt").read_text()


def test_verify_failing_measurement_reads_false_with_a_note(tmp_path, monkeypatch):
    # the refinement ratio must reach 1.5
    monkeypatch.setattr(cli_mod, "_weak_refinement_pair", lambda: 1.0)
    out = tmp_path / "out"
    main(["verify", "--out", str(out)])
    rows = {(r["suite"], r["case"]): r for r in read_csv(out / "verify.csv")}
    failed = rows.pop(("weak_residual", "refinement_ratio"))
    assert (failed["value"], failed["passed"]) == ("1", "false")
    assert all(r["passed"] == "true" for r in rows.values())
    assert "note: one or more verification rows failed" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("planted", [2.0, math.inf, math.nan])
def test_verify_gagliardo_row_fails_on_a_planted_ratio(monkeypatch, planted):
    # one of the nine ratios replaced by a multiple of the measured worst
    pair = ("gagliardo", "ratio_table")
    worst = cli_mod._verify_gagliardo_rows()[pair]
    assert cli_mod._verify_row(*pair, worst)["passed"]
    measure = cli_mod.diagnostics.gagliardo_ratio
    calls = []

    def planted_ratio(*args):
        calls.append(None)
        return planted * worst if len(calls) == 5 else measure(*args)

    monkeypatch.setattr(cli_mod.diagnostics, "gagliardo_ratio", planted_ratio)
    row = cli_mod._verify_row(*pair, cli_mod._verify_gagliardo_rows()[pair])
    assert len(calls) == 9
    assert row["passed"] is False


def test_verify_missing_measurement_is_an_infrastructure_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "_weak_refinement_pair", lambda: 2.0)
    monkeypatch.setattr(cli_mod, "_verify_symbol_rows", lambda: {})
    assert main(["verify", "--out", str(tmp_path / "out")]) == 1


def test_readme_library_example_prints_what_its_comments_say(capsys):
    # README's "## Library example" block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    exponents, status, verdict = capsys.readouterr().out.splitlines()
    assert exponents == "15/4 4"
    phase, t = status.split()
    assert phase == "Phase.BLOWUP_DETECTED" and float(t) < 3.0
    assert verdict == "BlowUpPositiveData"
    assert namespace["peaks"]

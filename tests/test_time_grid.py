"""One time grid per run: ScenarioConfig.time_grid is where every consumer
takes the step, the nodes and the horizon from, and the horizon defect that
its step rule still has (ROADMAP item 1)."""

import csv
import math
from dataclasses import replace

import pytest

import memwave.stepper as stepper_mod
from memwave.cli import main, parse_config
from memwave.diagnostics import TestFunctionParams, WeakPairing, weak_residual
from memwave.frac_ops import FracOrder, TimeGrid
from memwave.spectral import SpatialGrid
from memwave.stepper import Phase, ScenarioConfig, run

#: dt = 0.3 does not divide t_end = 4: the rule round(t_end/dt) takes 13
#: steps to 3.9, ceil(t_end/dt) = 14 steps of 4/14 end at 4 exactly
SCENARIO = """
n = 1
gamma = 0.9
p = 4.5
K = 2.0
amplitude = 0.01
box_half_length = 16.0
points_per_dim = 128
dt = 0.3
t_end = 4.0
"""

HORIZON_DEFECT = "ROADMAP item 1: a run takes round(t_end/dt) steps and ends within dt/2 of t_end"


def _config(dt, t_end=1.0):
    return ScenarioConfig(
        grid=SpatialGrid(1, 16.0, 64, even=True), gamma=0.9, p=2.0,
        support_radius=4.0, amplitude=0.01, dt=dt, t_end=t_end,
    )


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _simulate(tmp_path, text):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return _read_csv(out / "summary.csv")[0], _read_csv(out / "run.csv")


def test_time_grid_is_the_step_rule():
    # the rule of today's outputs; ROADMAP item 1 replaces it
    config = _config(0.3, 4.0)
    assert config.time_grid == TimeGrid(0.3, 13)
    assert config.n_steps == 13


def test_prefix_takes_the_nodes_up_to_a_node():
    grid = TimeGrid(0.25, 8)
    assert grid.prefix(1.5) == TimeGrid(0.25, 6)
    assert grid.prefix(2.0) == grid
    with pytest.raises(ValueError, match="whole number of steps"):
        grid.prefix(1.6)
    with pytest.raises(ValueError, match="beyond"):
        grid.prefix(2.25)


@pytest.mark.xfail(strict=True, reason=HORIZON_DEFECT)
def test_run_ends_at_t_end_when_dt_does_not_divide_it():
    # 3 steps of 0.3 stop at 0.9, reported as completed
    history = run(_config(0.3))
    assert history.status.phase is Phase.COMPLETED
    assert history.records[-1].t == 1.0


@pytest.mark.xfail(strict=True, reason=HORIZON_DEFECT)
def test_run_does_not_pass_t_end():
    # 2 steps of 0.6 run on to 1.2
    history = run(_config(0.6))
    assert history.records[-1].t <= 1.0


@pytest.mark.xfail(strict=True, reason=HORIZON_DEFECT)
def test_cli_run_table_ends_at_the_summary_t_end(tmp_path):
    summary, rows = _simulate(tmp_path, SCENARIO)
    assert rows[-1]["t"] == summary["t_end"]


def test_every_consumer_follows_the_time_grid(tmp_path, monkeypatch):
    # the snapped grid of ROADMAP item 1 in place of the rule: the stepper,
    # the memory sum's fit, the CLI's tables and the weak residual follow it
    def snapped(self):
        n_steps = math.ceil(self.t_end / self.dt)
        return TimeGrid(self.t_end / n_steps, n_steps)

    config = parse_config(SCENARIO).scenario
    # the rule gives this step's run the snapped grid, so the patched run
    # must make the same records: nothing may step with the requested dt
    reference = run(replace(config, dt=config.t_end / 14))
    monkeypatch.setattr(ScenarioConfig, "time_grid", property(snapped))
    fits = []
    exponential_sum = stepper_mod.exponential_sum

    def spy(gamma, dt, horizon):
        fits.append((dt, horizon))
        return exponential_sum(gamma, dt, horizon)

    monkeypatch.setattr(stepper_mod, "exponential_sum", spy)

    grid = config.time_grid
    assert grid.n_steps == 14 > stepper_mod._BLOCK and grid.horizon == config.t_end
    params = TestFunctionParams(ell=8, eta=7.0, B=6.0, T=config.t_end, alpha=FracOrder(0.1))
    pairing = WeakPairing(params, config.grid)
    history = run(config, observers=(pairing,))
    assert history.status.phase is Phase.COMPLETED
    assert len(history.records) == grid.n_nodes
    assert [r.t for r in history.records] == grid.times.tolist()
    assert history.records[-1].t == config.t_end
    assert history.records == reference.records
    assert fits and set(fits) == {(grid.dt, grid.horizon)}
    assert math.isfinite(weak_residual(history, pairing, config.p, config.gamma))

    summary, rows = _simulate(tmp_path, SCENARIO)
    assert summary["dt"] == format(grid.dt, ".12g") != format(config.dt, ".12g")
    assert float(rows[-1]["t"]) == float(summary["t_end"]) == config.t_end
    assert len(rows) == grid.n_nodes

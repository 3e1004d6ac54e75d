"""The benchmark's output check: a run that misses a reference counts as failed.

Usage, from the root of a checkout: python3 -m pytest perfbench/test_check.py
It runs the memory_1d workload once, about 15 s.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_perturbed_reference_counts_the_run_as_failed(monkeypatch, capsys):
    references = run.load_references()
    perturbed = copy.deepcopy(references)
    entry = perturbed["memory_1d"]["run"]
    entry["sup_W"] = repr(float(entry["sup_W"]) * (1 + 10 * run.RTOL))
    monkeypatch.setattr(run, "load_references", lambda: perturbed)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)

    argv = ["--workload", "memory_1d", "--seed", str(run.DEFAULT_SEED), "--seconds", "1"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert any(line.startswith("run failed: run: sup_W") for line in lines)

    # the same outputs pass against the recorded references
    record = json.loads((run.OUT / "memory_1d" / "result.json").read_text())
    written = record["runs"]["run"][0]["written"]
    out_dir = run.OUT / "memory_1d"
    rows = run.observed_rows("memory_1d", out_dir)
    assert run.check_outputs(
        "memory_1d", run.DEFAULT_SEED, out_dir, written, rows, references
    ) == []


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.tracing.UNITS

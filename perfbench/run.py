#!/usr/bin/env python3
"""memwave benchmark: three long CLI workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload memory_1d --seed 0 --seconds 40 --trace 0

Every workload run executes in its own fresh subprocess (child.py) through the
public CLI functions ``cli.parse_config`` and ``cli.run_subcommand``, on a
config text generated here from ``--seed``.  The program is imported from
``src/`` of this checkout; the outputs go to ``.perfbench_out/``.

``--trace 0`` measures the end-to-end metrics.  It starts one set-up process
that is not timed (it fills the bytecode and file caches), then
SETUP_SAMPLES processes that stop after ``cli.parse_config``, then repeats the
workload while the next repetition still fits in ``--seconds`` (at least
once).  Each metric is the median over the samples:

- ``wall_s``: the call into ``cli.run_subcommand`` to its return (solve,
  post-processing and CSV emission);
- ``setup_s``: process start through ``import memwave.cli`` and
  ``cli.parse_config``;
- ``steps_per_s``: time steps completed, summed over sweep entries, per
  ``wall_s``;
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process, in MiB.

Runs that raise, exit non-zero or fail the output check are counted in the
result's ``failed`` (printed as ``runs_failed``).  CPU time is left out of the
end-to-end set: OpenBLAS threads spin-wait, so it varies far more than wall
time; the traced run records it.

``--trace 1`` makes one untraced and one traced run of the workload and
reports the per-layer metrics of the traced one (see tracing.py), plus the
tracing overhead as the difference of the two ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 0
SETUP_SAMPLES = 5
#: the whole run, set-up samples included, ends within this many seconds
TIME_LIMIT_S = 170.0

#: Relative tolerance of the default-seed comparison of sup_W, decay_exponent
#: and the final l2_du.  The program is deterministic in double precision (runs
#: of one config write identical CSV text), so the tolerance only has
#: to admit the changes the ROADMAP plans to make without changing answers:
#: the spectral-resident propagator must agree with today's to 1e-12, and the
#: sum-of-exponentials kernel may differ from the direct memory sum by 1e-8
#: in the forcing.  1e-6 leaves two decades of amplification above that
#: forcing budget, while a change of dt, grid, data or scheme moves these
#: values by 1e-4 or more.
RTOL = 1e-6


def _simulate_config(n: int, points: int, amplitude: float) -> str:
    return (
        "n = {n}\npoints_per_dim = {points}\ngamma = 0.9\nt_end = 50\n"
        "p = 4.5\namplitude = {amplitude!r}\n"
    ).format(n=n, points=points, amplitude=amplitude)


def _sweep_config(small: float, large: float) -> str:
    return (
        "n = 2\npoints_per_dim = 256\ngamma = 0.9\nt_end = 50\n"
        "sweep_p = 1.5, 3.0, 4.5\nsweep_amplitude = {small!r}, {large!r}\n"
    ).format(small=small, large=large)


@dataclass(frozen=True)
class Workload:
    subcommand: str
    grid: str
    why: str
    #: seeded generator of the config text (without output_dir)
    config: Callable[[random.Random], str]
    #: status every summary row must have, by label, whatever the seed
    expected: dict[str, str]
    #: CSV tables beyond summary.csv, summary.txt, long.csv and one per label
    extra_tables: tuple[str, ...] = ()


# All three use gamma = 0.9 and t_end = 50 (box K + 1.1 t_end = 59, default dt)
# and run with one sweep worker, so no thread pool is added to OpenBLAS's.
# The seed jitters each amplitude.  Small data at p = 4.5 stays global for
# +-3 %; the two sweep blow-ups are detected at the same step (107 and 15)
# over the jitter windows below, which sit inside the measured windows
# (-0.1 %, +1.2 %] and [-10 %, +1 %], so every seed runs the same steps.
WORKLOADS = {
    # The one workload where the memory layer dominates: known_part takes
    # about half of stepper.run.  ROADMAP item 4 (sum-of-exponentials kernel)
    # targets it; the history grows to 3471 x 4096 x 8 B = 114 MB per array.
    "memory_1d": Workload(
        subcommand="simulate",
        grid="1-D, 4096 points",
        why=(
            "3471 steps on a small grid: the O(M^2 N) direct memory sum "
            "(MemoryConvolution.known_part) dominates, unlike the other two"
        ),
        config=lambda rng: _simulate_config(1, 4096, 0.01 * (1 + rng.uniform(-0.03, 0.03))),
        expected={"run": "completed"},
    ),
    # FFTs (10 per step), advance and exterior_energy dominate; the memory sum
    # is minor.  ROADMAP items 2 (spectral-resident propagator) and 3
    # (streaming observers, peak RSS) should show here; it is the bypass case
    # for item 4.
    "spectral_3d": Workload(
        subcommand="simulate",
        grid="3-D, 64^3 points",
        why=(
            "200 steps on 64^3: FFTs, the Duhamel advance and the stored "
            "history dominate and the memory sum is minor"
        ),
        config=lambda rng: _simulate_config(3, 64, 0.01 * (1 + rng.uniform(-0.03, 0.03))),
        expected={"run": "completed"},
    ),
    # The same stepper used differently: many runs of uneven length, the
    # early-termination path, every history held until the report is written,
    # classify and 9 CSV tables.  A change that speeds up one simulate by
    # holding more memory, or that breaks the blow-up path, shows here.
    "sweep_2d": Workload(
        subcommand="sweep",
        grid="2-D, 256^2 points",
        why=(
            "6 runs of uneven length on 256^2 with two blow-ups: early "
            "termination, all histories held until the report, classify, 9 CSV tables"
        ),
        config=lambda rng: _sweep_config(
            0.01 * (1 + rng.uniform(0.0, 0.01)), 1.0 * (1 + rng.uniform(-0.03, 0.005))
        ),
        expected={
            "run_000": "blowup_detected",  # p = 1.5, small amplitude
            "run_001": "blowup_detected",  # p = 1.5, amplitude 1
            "run_002": "completed",
            "run_003": "completed",
            "run_004": "completed",
            "run_005": "completed",
        },
        extra_tables=("regime_map",),
    ),
}

SUMMARY_NUMBERS = ("n", "gamma", "p", "K", "amplitude", "dt", "t_end", "t_detect",
                   "decay_exponent", "decay_r2", "sup_W")
CHECKED_VALUES = ("sup_W", "decay_exponent", "l2_du")


def generate_config(name: str, seed: int) -> str:
    return WORKLOADS[name].config(random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def observed_rows(name: str, out_dir: Path) -> dict[str, dict[str, str]]:
    """Per summary label: status, t_detect, dt, sup_W, decay_exponent, final t and l2_du."""
    rows = {}
    for row in _read_csv(out_dir / "summary.csv"):
        last = _read_csv(out_dir / f"{row['label']}.csv")[-1]
        rows[row["label"]] = {
            **{k: row[k] for k in ("status", "t_detect", "dt", "sup_W", "decay_exponent")},
            "t": last["t"],
            "l2_du": last["l2_du"],
        }
    return rows


def _nonfinite(path: Path, columns=None) -> list[str]:
    """Cells of the given columns (default: all) that are not finite numbers."""
    return [
        f"{path.name}: {key} = {row[key]}"
        for row in _read_csv(path)
        for key in (columns or row)
        if row[key] != "" and not math.isfinite(float(row[key]))
    ]


def check_outputs(name: str, seed: int, out_dir: Path, written: list[str],
                  rows: dict[str, dict[str, str]], references: dict) -> list[str]:
    """Problems found in one run's outputs; an empty list means the run is correct.

    ``rows`` are the run's ``observed_rows``.  Any seed: the expected files
    exist, every number in the summary and the run tables is finite, each
    entry has the status its inputs were generated for and the reference
    t_detect.  The default seed also compares sup_W, decay_exponent and the
    final l2_du with the references within RTOL.
    """
    workload = WORKLOADS[name]
    expected_files = {"summary.csv", "summary.txt", "long.csv"}
    expected_files |= {f"{t}.csv" for t in (*workload.expected, *workload.extra_tables)}
    if set(written) != expected_files:
        return [f"files written {sorted(written)}, expected {sorted(expected_files)}"]
    problems = _nonfinite(out_dir / "summary.csv", SUMMARY_NUMBERS)
    for label in workload.expected:
        problems += _nonfinite(out_dir / f"{label}.csv")
    if set(rows) != set(workload.expected):
        return problems + [f"summary labels {sorted(rows)}, expected {sorted(workload.expected)}"]
    for label, status in workload.expected.items():
        row, ref = rows[label], references[name][label]
        if row["status"] != status:
            problems.append(f"{label}: status {row['status']}, expected {status}")
        if row["t_detect"] != ref["t_detect"]:
            problems.append(f"{label}: t_detect {row['t_detect']!r}, expected {ref['t_detect']!r}")
        if seed != DEFAULT_SEED:
            continue
        for key in CHECKED_VALUES:
            got, want = row[key], ref[key]
            if (got == "") != (want == "") or (
                want != "" and abs(float(got) - float(want)) > RTOL * abs(float(want))
            ):
                problems.append(f"{label}: {key} {got!r}, reference {want!r} (rtol {RTOL})")
    return problems


def steps_completed(rows: dict[str, dict[str, str]]) -> int:
    """Time steps completed, summed over entries: the last emitted row is at step * dt."""
    return sum(round(float(r["t"]) / float(r["dt"])) for r in rows.values())


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, config_path: Path, subcommand: str, deadline: float) -> dict:
    """Run child.py to completion and return its JSON line plus setup_s."""
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(CHILD), mode, str(config_path), subcommand],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{mode} run timed out")
        except BaseException:
            proc.kill()  # leaving the with block waits for it
            raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run exited with code {proc.returncode}")
    result = json.loads(stdout.decode().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def environment_record(child_env: dict) -> dict:
    try:
        l2, l3 = os.sysconf(191), os.sysconf(194)  # glibc _SC_LEVEL2/3_CACHE_SIZE
    except (ValueError, OSError):
        l2 = l3 = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": l2,
        "l3_cache_bytes": l3,
        "python": sys.version.split()[0],
        "thread_env": {k: v for k, v in os.environ.items()
                       if "THREAD" in k or k.startswith(("OPENBLAS", "OMP_", "MKL_"))},
        **child_env,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def prepare(name: str, seed: int) -> tuple[Path, Path]:
    """Empty the workload's output directory and write its config there."""
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.txt"
    config_path.write_text(
        generate_config(name, seed) + f"output_dir = {out_dir}\n", encoding="utf-8"
    )
    return out_dir, config_path


def _measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run the workload's processes; return samples, failures and the environment."""
    workload = WORKLOADS[name]
    out_dir, config_path = prepare(name, seed)
    references = load_references()
    reps: dict[str, list[dict]] = {"run": [], "trace": []}
    failures: list[str] = []
    attempts: list[str] = []

    def attempt(mode: str) -> None:
        attempts.append(mode)
        try:
            rep = run_child(mode, config_path, workload.subcommand, deadline)
            rows = observed_rows(name, out_dir)
            problems = check_outputs(name, seed, out_dir, rep["written"], rows, references)
            rep["steps"] = steps_completed(rows)
        except ChildFailed as exc:
            failures.append(str(exc))
            return
        except (OSError, LookupError, ValueError) as exc:
            failures.append(f"{mode} run left unreadable outputs: {exc!r}")
            return
        if problems:
            # the run still took its time; it is reported, and counted as failed
            failures.append("; ".join(problems))
        reps[mode].append(rep)

    environment = run_child("setup", config_path, workload.subcommand, deadline)["environment"]
    setups = []
    if trace:
        attempt("run")
        attempt("trace")
    else:
        start = time.monotonic()
        setups = [
            run_child("setup", config_path, workload.subcommand, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        while True:
            rep_start = time.monotonic()
            attempt("run")
            now = time.monotonic()
            if now + (now - rep_start) > min(start + seconds, deadline):
                break
    return {"environment": environment, "setups": setups, "reps": reps,
            "attempted": len(attempts), "failures": failures}


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MiB"}


def _end_to_end(samples: dict) -> dict[str, float]:
    reps = samples["reps"]["run"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(samples["setups"]),
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in reps),
    }


def _per_layer(samples: dict) -> dict[str, float]:
    plain, traced = samples["reps"]["run"][0], samples["reps"]["trace"][0]
    return {
        **traced["layers"],
        "cli.import.s": traced["import_s"],
        "cli.parse_config.s": traced["parse_config_s"],
        "process.cpu_s": traced["cpu_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "memwave" / "cli.py").is_file():
        print(f"error: no memwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    samples = _measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    needed = ("run", "trace") if args.trace else ("run",)
    for failure in samples["failures"]:
        print(f"run failed: {failure}")
    if not all(samples["reps"][m] for m in needed):
        print("error: no run completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = _per_layer(samples), tracing.UNITS
    else:
        metrics, units = _end_to_end(samples), END_TO_END_UNITS

    workload = WORKLOADS[args.workload]
    environment = environment_record(samples["environment"])
    steps = samples["reps"]["run"][0]["steps"]
    print(f"workload {args.workload} (seed {args.seed}): {workload.subcommand}, "
          f"{workload.grid}, {steps} time steps per workload run")
    print(f"why: {workload.why}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for key, value in metrics.items():
        shown = f"{value:20.6f}" if isinstance(value, float) else f"{value:13d}"
        print(f"  {key:36s} {shown} {units[key]}")
    failed = len(samples["failures"])
    print(f"  {'runs_failed':36s} {failed:13d} of {samples['attempted']} runs")
    result = {
        "correct": failed == 0,
        "attempted": samples["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, environment=environment, setup_samples=samples["setups"],
                  runs=samples["reps"], failures=samples["failures"])
    (OUT / args.workload / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

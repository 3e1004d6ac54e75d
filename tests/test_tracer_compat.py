"""The benchmark's tracer (perfbench/tracing.py) still instruments the program.

The tracer replaces module functions and class methods process-wide, so it
runs in a subprocess: a tiny ``simulate`` through ``cli.run_subcommand`` under
``tracing.instrument``, whose ``layer_metrics`` must complete.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from dataclasses import replace
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import tracing
from memwave import cli

tracer = tracing.Tracer()
tracing.instrument(tracer)
manifest = cli.parse_config("n = 2\\npoints_per_dim = 16\\nt_end = 2\\np = 4.5\\n"
                            "amplitude = 0.01\\n", "simulate")
manifest = replace(manifest, output_dir=out)
tracer.call(tracing.ROOT_SPAN, cli.run_subcommand, manifest)
print(json.dumps(tracing.layer_metrics(tracer)))
"""


def test_tracer_layer_metrics_complete(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert all(math.isfinite(value) for value in metrics.values())
    # default dt = min(0.25, dx/2) = 0.25 over t_end = 2: 8 steps, 9 nodes
    assert metrics["stepper.steps"] == 8
    # the history keeps the initial and the final state, u and v each, on
    # the 9^2 points of the even grid's orthant
    assert metrics["stepper.history.bytes"] == 2 * 2 * 9**2 * 8
    # the tracer still sees the even grid's transforms
    assert metrics["spectral.fft.calls"] > 0
    assert metrics["diagnostics.exterior_energy.calls"] == 9
    assert metrics["stepper.memory.known_part.calls"] == 8
    assert metrics["cli.report.bytes"] > 0

"""One workload run in a fresh process, through memwave's public CLI functions.

Usage: python3 perfbench/child.py {setup,run,trace} CONFIG_PATH SUBCOMMAND

``setup`` stops after ``cli.parse_config``; ``run`` also times
``cli.run_subcommand``; ``trace`` does the same with spans recorded around
the calls into each memwave module (see tracing.py) and writes them to
``trace.json`` in the run's output directory.  The last line of standard
output is one JSON object.  The parent turns ``setup_done``, a
CLOCK_MONOTONIC reading (system wide on Linux), into setup_s by subtracting
its own reading taken just before it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment(manifest) -> dict:
    import numpy
    import scipy

    scenario = manifest.scenario
    points = scenario.grid.points_per_dim**scenario.dim
    sample_array = (scenario.n_steps + 1) * points * 8
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "grid_points": points,
        "n_steps_per_run": scenario.n_steps,
        # G = |u|^p samples, one row per step; F, u and v histories match it
        "sample_array_bytes": sample_array,
        "history_bytes_per_run": 4 * sample_array,
    }


def main(argv: list[str]) -> int:
    mode, config_path, subcommand = argv
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    from memwave import cli

    t_parse = time.perf_counter()
    manifest = cli.parse_config(Path(config_path).read_text(encoding="utf-8"), subcommand)
    t_parsed = time.perf_counter()
    out = {
        "setup_done": time.monotonic(),
        "import_s": t_parse - t_import,
        "parse_config_s": t_parsed - t_parse,
    }
    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        print(f"memwave imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 3

    if mode == "setup":
        out["environment"] = environment(manifest)
    else:
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        start = time.perf_counter()
        if tracer is None:
            _, written = cli.run_subcommand(manifest)
        else:
            _, written = tracer.call(tracing.ROOT_SPAN, cli.run_subcommand, manifest)
        out["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["peak_rss_kib"] = usage.ru_maxrss
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["written"] = sorted(Path(p).name for p in written)
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
            tracer.write(manifest.output_dir / "trace.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

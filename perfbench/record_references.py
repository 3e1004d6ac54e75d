"""Write references.json from one default-seed run of every workload.

Usage, from the root of a checkout: python3 perfbench/record_references.py

Record only at a commit whose outputs are known to be right: the benchmark
then holds every later commit to them (see RTOL in run.py).
"""

from __future__ import annotations

import json
import time

import run


def main() -> None:
    references = {}
    for name, workload in run.WORKLOADS.items():
        out_dir, config_path = run.prepare(name, run.DEFAULT_SEED)
        run.run_child("run", config_path, workload.subcommand, time.monotonic() + 600)
        references[name] = {
            label: {k: row[k] for k in ("status", "t_detect", *run.CHECKED_VALUES)}
            for label, row in run.observed_rows(name, out_dir).items()
        }
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

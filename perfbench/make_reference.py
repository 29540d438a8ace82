"""Regenerate ``reference.json``: the seed-0 outputs the check compares.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Only rerun this when a change is meant to alter the numbers, and say so in
the change: the stored values guard against changes that trade accuracy
for speed.
"""

import json
import tempfile

from check import REFERENCE_FILE, reference_values
from workloads import WORKLOADS, workload_config


def main():
    from podflow.harness import ExperimentConfig, run_pipeline

    stored = {}
    for name in sorted(WORKLOADS):
        config = ExperimentConfig.from_dict(workload_config(name, seed=0))
        with tempfile.TemporaryDirectory() as out:
            run_pipeline(config, out_dir=out)
            stored[name] = reference_values(out)
        print(f"{name}: stored", flush=True)
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Set-up cost of one workload, measured in a fresh process.

Set-up is what a user pays before the first time step: importing
``podflow``, parsing the config, building the mesh and constructing
``FOMProblem`` (function spaces plus static assembly). It is only
meaningful in a fresh process, before anything has imported NumPy, so
this module imports nothing heavy at the top.

Run as a script it prints the timings of one fresh process as JSON:

    python3 perfbench/setup_probe.py '<raw config JSON>'
"""

import json
import sys
import time


def measure_setup(raw):
    """Seconds spent in each set-up stage; ``total_s`` is their sum."""
    t0 = time.perf_counter()
    import podflow
    from podflow.harness import ExperimentConfig, build_case
    t1 = time.perf_counter()
    config = ExperimentConfig.from_dict(raw)
    t2 = time.perf_counter()
    mesh = config.geometry.build()
    t3 = time.perf_counter()
    podflow.FOMProblem(mesh, config.fom, build_case(config).flow_case)
    t4 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1, "mesh_s": t3 - t2,
            "problem_s": t4 - t3, "total_s": t4 - t0}


if __name__ == "__main__":
    print(json.dumps(measure_setup(json.loads(sys.argv[1]))))

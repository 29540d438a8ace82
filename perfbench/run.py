"""Pipeline benchmark for podflow.

Runs ``podflow.harness.run_pipeline`` on one workload (see
``workloads.py``) and prints every metric by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload desk_graddiv --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Each workload runs in its own process with BLAS and OpenMP pinned to one
thread. Set-up (import, config, mesh, ``FOMProblem``) is timed in
``SETUP_SAMPLES`` fresh processes and reported as the median. A tiny-size
run of the workload is then discarded as warm-up, and pipeline runs are
repeated until ``--seconds`` have passed. ``wall_s`` scales each run by the
host speed measured next to it (``hostspeed.py``); the unscaled median is
printed too.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
untraced and traced runs alternate: the traced runs give the per-layer
metrics (``tracer.py``), their artifacts must be byte-identical to the
untraced run's, and ``trace.overhead`` compares the two medians.

Every timed run is one operation. It fails if it raises or if its outputs
fail the check in ``check.py``.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, workload_config  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "vel_error": "norm",
    "pres_error": "norm",
}
PER_LAYER = {
    "setup.import_s": "s", "setup.problem_s": "s",
    "harness.fom_s": "s", "harness.pod_s": "s", "harness.errors_s": "s",
    "harness.io_s": "s", "harness.bytes_written": "bytes",
    "harness.unattributed_s": "s",
    "fom.steps": "count", "fom.step_ms": "ms", "fom.solves": "count",
    "fom.solves_per_step": "count", "fom.solve_ms": "ms",
    "fom.factorizations": "count", "fom.factor_ms": "ms",
    "fom.factor_share": "ratio",
    "assembly.convection_calls": "count", "assembly.convection_ms": "ms",
    "assembly.load_calls": "count", "assembly.load_ms": "ms",
    "pod.basis_ms": "ms", "pod.project_calls": "count",
    "rom.builds": "count", "rom.build_ms": "ms",
    "rom.recovery_builds": "count", "rom.recovery_build_ms": "ms",
    "rom.steps": "count", "rom.online_step_ms": "ms", "rom.solve_ms": "ms",
    "rom.forcing_ms": "ms", "rom.forcing_share": "ratio",
    "rom.recover_ms": "ms", "rom.speedup": "ratio",
    "metrics.probe_calls": "count", "metrics.probe_ms": "ms",
    "trace.overhead": "ratio",
}


def median_and_spread(values):
    """Median and interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment(seed):
    """Versions, BLAS, threads, cores, source revision and size."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "src_lines": src_lines,
    }


def git_sha():
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    # The ceiling keeps git from taking the commit of an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_samples(raw):
    """Set-up timings of ``SETUP_SAMPLES`` fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(raw)],
            env=child_env(), capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def differing_files(dir_a, dir_b):
    """Names of files that differ between two artifact directories."""
    names = {p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()}
    return sorted(n for n in names
                  if not ((dir_a / n).is_file() and (dir_b / n).is_file()
                          and (dir_a / n).read_bytes() == (dir_b / n).read_bytes()))


def run_workload(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    raw = workload_config(args.workload, args.seed, args.size)
    setups = setup_samples(raw)

    from podflow.harness import ExperimentConfig, run_pipeline
    from check import CheckFailed, check_outputs, load_reference, read_csv
    from tracer import Tracer, layer_metrics, median_metrics
    from hostspeed import REFERENCE_S, HostSpeed

    config = ExperimentConfig.from_dict(raw)
    has_probe = raw["geometry"].get("hole") is not None
    reference = None
    if args.seed == 0 and args.size == "full":
        reference = load_reference(args.workload)
        if reference is None:
            raise SystemExit(f"no stored reference for {args.workload}")

    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    plain, traced = work / "plain", work / "traced"
    host = HostSpeed()
    walls, scaled_walls, traced_walls, layer_samples, failures = [], [], [], [], []
    missing, errors = set(), None

    def attempt(out, tracer=None):
        """One timed pipeline run; returns its wall time or None on failure."""
        if out.exists():
            shutil.rmtree(out)
        gc.collect()
        try:
            start = time.perf_counter()
            if tracer is None:
                run_pipeline(config, out_dir=out)
            else:
                with tracer:
                    run_pipeline(config, out_dir=out)
            wall = time.perf_counter() - start
            check_outputs(out, has_probe, reference)
            if tracer is not None:
                differ = differing_files(plain, out)
                if differ:
                    raise CheckFailed(f"traced artifacts differ: {differ}")
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return wall

    try:
        # Warm-up: the same workload at tiny size loads every lazy import
        # and code path. After it the first full-size run measured no slower
        # than later ones, so a costly full-size warm-up is not needed.
        run_pipeline(ExperimentConfig.from_dict(
            workload_config(args.workload, args.seed, "tiny")),
            out_dir=work / "warmup")
        attempted = 0
        start = time.perf_counter()
        while attempted == 0 or time.perf_counter() - start < args.seconds:
            kernel_before = host.kernel_s()
            wall = attempt(plain)
            kernel_after = host.kernel_s()
            attempted += 1
            if wall is not None:
                walls.append(wall)
                scaled_walls.append(
                    wall * 2 * REFERENCE_S / (kernel_before + kernel_after))
                errors = read_csv(plain / "errors.csv")
            if args.trace and wall is not None:
                tracer = Tracer()
                wall = attempt(traced, tracer)
                attempted += 1
                if wall is not None:
                    traced_walls.append(wall)
                    size = sum(p.stat().st_size for p in traced.iterdir())
                    layer_samples.append(layer_metrics(tracer, wall, size))
                missing = tracer.missing
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while other runs use it
            work.parent.rmdir()

    metrics, notes = {}, {}
    if args.trace:
        if layer_samples:
            metrics.update(median_metrics(layer_samples))
            metrics["trace.overhead"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        if missing:
            notes["missing_targets"] = sorted(missing)
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.problem_s"] = statistics.median(s["problem_s"] for s in setups)
        units = PER_LAYER
    else:
        metrics["setup_s"], notes["setup_s_spread"] = median_and_spread(
            [s["total_s"] for s in setups])
        if walls:
            metrics["wall_s"], notes["wall_s_spread"] = median_and_spread(
                scaled_walls)
            notes["wall_s_runs"] = len(walls)
            notes["unscaled_wall_s"], notes["unscaled_wall_s_spread"] = (
                median_and_spread(walls))
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            header, rows = errors
            last = max(rows, key=lambda row: row[header.index("r")])
            metrics["vel_error"] = last[header.index("vel_error")]
            metrics["pres_error"] = last[header.index("pres_error")]
        units = END_TO_END
    return {
        "workload": args.workload,
        "environment": environment(args.seed),
        "notes": notes,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics},
        },
    }


def report(outcome):
    """Print one workload's outcome for people; the JSON line comes last."""
    name = outcome["workload"]
    result = outcome["result"]
    notes = outcome["notes"]
    print(f"[{name}] environment: {json.dumps(outcome['environment'], sort_keys=True)}")
    for metric, entry in result["metrics"].items():
        line = f"[{name}] {metric}: {entry['value']:.6g} {entry['unit']}"
        if f"{metric}_spread" in notes:
            line += f" (spread {100 * notes[metric + '_spread']:.1f} %"
            if f"{metric}_runs" in notes:
                line += f" over {notes[metric + '_runs']} runs"
            line += ")"
        print(line)
    if "unscaled_wall_s" in notes:
        print(f"[{name}] unscaled wall: {notes['unscaled_wall_s']:.6g} s "
              f"(spread {100 * notes['unscaled_wall_s_spread']:.1f} %)")
    if notes.get("missing_targets"):
        print(f"[{name}] absent: spans not found for {notes['missing_targets']}")
    share = result["failed"] / result["attempted"]
    print(f"[{name}] output check: {result['failed']} of {result['attempted']} "
          f"runs failed (share {share:.3f})")
    for failure in outcome["failures"]:
        print(f"[{name}]   {failure}")


def run_all(args):
    """Every workload, each in its own process; aggregate JSON last."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "podflow" / "__init__.py").is_file():
        sys.exit(f"podflow sources not found under {SRC}")
    if args.workload == "all":
        result = run_all(args)
    else:
        outcome = run_workload(args)
        report(outcome)
        result = outcome["result"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Run a fixed set of pipelines and studies from two source trees and
compare their output directories byte for byte.

    python tools/identity_sweep.py --against REV

``REV`` is a git revision of this repository. Its ``src/`` is exported with
``git archive`` into a temporary directory (no worktree is registered), and
every run is made twice, each in its own process with BLAS and OpenMP
pinned to one thread: once from ``REV``'s ``src/`` and once from the
working tree's. Each pair of output directories is then compared file by
file, byte for byte (``run_meta.json`` without its ``source_sha256``,
which differs between any two trees); for a pair that differs,
``compare_runs.compare_dirs`` prints where, the run's line gives the
largest column relative difference it found with the ``file:column`` it
comes from and the largest gate relative difference (see
``compare_runs``), and the closing summary the gate's. A change that
claims bit-for-bit identical arithmetic must leave every pair identical.

The runs are the tiny configs (grad-div, LPS, adaptive μ, centred POD, the
holed channel under both schemes and with its main reduced run smaller than
its error table's largest, and the steady ``stokes_poly`` case), the three
benchmark workloads at tiny size, the desk cavity under both schemes,
the three workloads at full size with seeds 0 and 1, the convergence study
of both schemes, two reduced runs past the snapshot window (the adaptive
tiny config at 10 times its window, ``channel_picard`` at twice its
window), and three resumed pipelines (the tiny config,
``tiny_channel`` and ``channel_picard``), each run with ``stop_after="pod"``
and then in full into one directory, so the full run reads the first run's
snapshots in place of its full-order run (the only stage that resumes) and
builds the mesh and the bases again, rewriting ``mesh.txt``. The configs come from the
working tree, so both sides run the same inputs. The closing summary also
counts identical and differing runs per time integrator, read from each
run's config. The exit status
is 0 when every pair is identical and 1 otherwise.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare_runs import comparable_bytes, compare_dirs  # noqa: E402
from workloads import workload_config  # noqa: E402

TINY = {
    "geometry": {"nx": 4, "ny": 4},
    "case": {"name": "cavity", "parameters": {"amplitude": 100.0}},
    "fom": {"scheme": "graddiv", "nu": 5e-3, "dt": 1e-2, "t_final": 0.06,
            "stabilization": {"grad_div": 0.3}, "snapshot_window": [0.02, 0.06]},
    "pod": {},
    "rom": {"r_values": [1, 2]},
}

CHANNEL = {
    "geometry": {"width": 2.0, "height": 1.0, "nx": 8, "ny": 4,
                 "hole": [0.5, 0.25, 0.75, 0.5]},
    "case": {"name": "channel",
             "parameters": {"u_max": 0.3, "pulse_amplitude": 5.0, "pulse_period": 0.04}},
    "fom": {"scheme": "graddiv", "nu": 5e-3, "dt": 1e-2, "t_final": 0.06,
            "stabilization": {"grad_div": 0.3}, "snapshot_window": [0.02, 0.06]},
    "pod": {"center": True},
    "rom": {"r_values": [2]},
}

WORKLOAD_NAMES = ("desk_graddiv", "cavity_lps_nx32", "channel_picard")
DEFAULT_INTEGRATOR = "bdf2_semi_implicit"  # FOMConfig's, for a config that names none

# The convergence study's level 0: the decaying vortex on a 4 x 4 mesh
VORTEX = {
    "geometry": {"nx": 4, "ny": 4},
    "case": {"name": "taylor_green"},
    "fom": {"nu": 1e-2, "dt": 2e-2, "t_final": 0.08, "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.0, 0.08]},
}


def _with(raw, **sections):
    """A copy of ``raw`` with the given sections updated key by key."""
    out = copy.deepcopy(raw)
    for section, values in sections.items():
        out[section] = {**out.get(section, {}), **values}
    return out


def runs():
    """{name: (kind, spec)}: the sweep's runs in order."""
    lps = {"scheme": "lps", "stabilization": {}}
    out = {
        "tiny_graddiv": ("pipeline", TINY),
        "tiny_lps": ("pipeline", _with(TINY, fom=lps)),
        "tiny_adaptive": ("pipeline", _with(TINY, rom={"adaptive": {"enabled": True,
                                                                    "frequency": 2}})),
        "tiny_centred": ("pipeline", _with(TINY, pod={"center": True})),
        "tiny_channel": ("pipeline", CHANNEL),
        # the main run's drag/lift forms are a leading block of a wider build
        "tiny_channel_small_r": ("pipeline", _with(CHANNEL, rom={"r": 2, "r_values": [2, 4]})),
        "tiny_channel_lps_euler": ("pipeline", _with(
            CHANNEL, fom={**lps, "time_integrator": "implicit_euler"})),
        "tiny_stokes_poly": ("pipeline", _with(
            TINY, case={"name": "stokes_poly", "parameters": {}},
            fom={"nu": 0.05, "snapshot_window": [0.0, 0.06]})),
    }
    for name in WORKLOAD_NAMES:
        out[f"tiny_{name}"] = ("pipeline", workload_config(name, 0, "tiny"))
    out["desk_lps"] = ("pipeline", _with(workload_config("desk_graddiv"), fom=lps))
    for seed in (0, 1):
        for name in WORKLOAD_NAMES:
            out[f"{name}_seed{seed}"] = ("pipeline", workload_config(name, seed))
    for scheme in ("graddiv", "lps"):
        out[f"convergence_{scheme}"] = ("convergence", _with(VORTEX, fom={"scheme": scheme}))
    # reduced runs past the snapshot window: 10x the tiny window, 2x the channel's
    out["tiny_adaptive_long"] = ("pipeline", _with(TINY, rom={
        "t_final": 0.42, "adaptive": {"enabled": True}}))
    out["channel_picard_long"] = ("pipeline", _with(workload_config("channel_picard"),
                                                    rom={"t_final": 0.40}))
    for name in ("tiny_graddiv", "tiny_channel", "channel_picard_seed0"):
        out[f"resumed_{name}"] = ("resumed", out[name][1])
    return out


def integrator(spec):
    """The time integrator of the run config ``spec``."""
    return spec["fom"].get("time_integrator", DEFAULT_INTEGRATOR)


def summary(names, differing):
    """The closing line: how many of ``names`` are identical, overall and
    per time integrator, and the largest difference of each that differs."""
    plan = runs()
    tally = {}
    for name in names:
        counts = tally.setdefault(integrator(plan[name][1]), [0, 0])
        counts[name in differing] += 1
    return (f"{len(names) - len(differing)} of {len(names)} runs identical ("
            + ", ".join(f"{key}: {same} identical, {diff} differ"
                        for key, (same, diff) in tally.items()) + ")"
            + (f"; differ: {', '.join(f'{n} ({w:.1e})' for n, w in differing.items())}"
               if differing else ""))


# One run in a fresh process: argv is src, kind, JSON spec, output directory.
_RUNNER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from podflow import harness
kind, spec, out = sys.argv[2], json.loads(sys.argv[3]), Path(sys.argv[4])
if kind in ("pipeline", "resumed"):
    config = harness.ExperimentConfig.from_dict(spec)
    if kind == "resumed":
        harness.run_pipeline(config, out_dir=out, stop_after="pod")
    harness.run_pipeline(config, out_dir=out)
else:
    harness.convergence_study(harness.ExperimentConfig.from_dict(spec), out_dir=out)
"""


def run_one(src, kind, spec, out):
    """Make one run from the tree ``src``; returns its stderr on failure."""
    out.mkdir(parents=True)
    env = {**os.environ, **{v: "1" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(src), kind, json.dumps(spec), str(out)],
        capture_output=True, text=True, env=env)
    return None if result.returncode == 0 else result.stderr.strip()


def export_src(rev, dest):
    """Write ``src/`` of the git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest) / "src"


def _files(directory):
    """{relative name: bytes} of every file under ``directory``, as
    ``compare_runs`` compares them."""
    return {p.relative_to(directory).as_posix(): comparable_bytes(p)
            for p in directory.rglob("*") if p.is_file()}


def sweep(ref_src, names, work):
    """Run ``names`` from the source tree ``ref_src`` and from the working
    tree, under ``work``; print one line per run and return {name: largest
    gate relative difference} of the runs that differ (inf for a file that
    differs in kind or a run that failed)."""
    plan = runs()
    differing = {}
    for name in names:
        kind, spec = plan[name]
        start = time.perf_counter()
        dirs = [work / side / name for side in ("ref", "new")]
        errors = [run_one(src, kind, spec, d) for src, d in zip((ref_src, ROOT / "src"), dirs)]
        ref_files, new_files = (_files(d) for d in dirs)
        seconds = time.perf_counter() - start
        ran = errors == [None, None] and bool(ref_files)
        if ran and ref_files == new_files:
            print(f"{'identical':<10} {name} ({seconds:.1f} s)", flush=True)
            continue
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            found = compare_dirs(*dirs)
        differing[name] = found.gate if ran else math.inf
        column = (f"{found.column:.1e}" + (f" at {found.column_at}" if found.column_at else "")
                  if ran else f"{math.inf:.1e}")
        print(f"{'DIFFERS':<10} {name} ({seconds:.1f} s, column rel diff {column}, "
              f"max rel diff {differing[name]:.1e})", flush=True)
        for side, error in zip(("ref", "new"), errors):
            if error:
                print(f"    {side} run failed: {error.splitlines()[-1]}")
        print(report.getvalue(), end="", flush=True)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the outputs of fixed runs from a git revision and the working tree.")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare with")
    args = parser.parse_args(argv)
    names = list(runs())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        differing = sweep(export_src(args.against, work / "tree"), names, work)
    print(summary(names, differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""The identity sweep tool on one tiny config."""

import contextlib
import importlib.util
import io
import re
import shutil
from pathlib import Path

from podflow.harness import _CASES

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity_sweep.py"

_spec = importlib.util.spec_from_file_location("identity_sweep", TOOL)
identity_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity_sweep)


def sweep(ref_src, tmp_path, names=("tiny_graddiv",)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        differing = identity_sweep.sweep(ref_src, list(names), tmp_path / "work")
    return differing, out.getvalue()


def test_the_run_list_covers_the_workloads_and_studies():
    names = list(identity_sweep.runs())
    assert len(names) == len(set(names)) == 25
    for name in ("tiny_graddiv", "tiny_channel_small_r", "tiny_stokes_poly", "desk_lps",
                 "cavity_lps_nx32_seed1", "convergence_lps", "tiny_adaptive_long",
                 "channel_picard_long", "resumed_tiny_graddiv", "resumed_tiny_channel",
                 "resumed_channel_picard_seed0"):
        assert name in names
    # a resumed run repeats the config of the run it is named after
    plan = identity_sweep.runs()
    assert plan["resumed_tiny_channel"] == ("resumed", plan["tiny_channel"][1])


def test_the_runs_pose_exactly_the_registry_cases():
    posed = set()
    for _, spec in identity_sweep.runs().values():
        posed.add(spec["case"]["name"])
    assert posed == set(_CASES)


def test_the_summary_counts_runs_per_time_integrator():
    plan = identity_sweep.runs()
    euler = [name for name, (_, spec) in plan.items()
             if identity_sweep.integrator(spec) == "implicit_euler"]
    assert euler == ["tiny_channel_lps_euler", "tiny_channel_picard", "channel_picard_seed0",
                     "channel_picard_seed1", "channel_picard_long",
                     "resumed_channel_picard_seed0"]
    assert identity_sweep.integrator(plan["convergence_lps"][1]) == "bdf2_semi_implicit"
    differing = {"channel_picard_seed1": 7.7e-9, "tiny_channel_picard": 1e-9}
    assert identity_sweep.summary(list(plan), differing) == (
        "23 of 25 runs identical (bdf2_semi_implicit: 19 identical, 0 differ, "
        "implicit_euler: 4 identical, 2 differ); "
        "differ: channel_picard_seed1 (7.7e-09), tiny_channel_picard (1.0e-09)")


def test_a_copy_of_the_tree_is_identical_and_a_changed_one_differs(tmp_path):
    copy = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    differing, out = sweep(copy, tmp_path / "same")
    assert differing == {}, out
    assert out.startswith("identical  tiny_graddiv")
    assert (tmp_path / "same" / "work" / "ref" / "tiny_graddiv" / "errors.csv").is_file()

    # one ulp less viscosity in the reference tree's full-order model
    fom = copy / "podflow" / "fom.py"
    text = fom.read_text()
    marker = "        self._static_velocity_block = config.nu * self.stiffness"
    assert text.count(marker) == 2
    fom.write_text(text.replace(marker, marker.replace("config.nu", "(config.nu * (1 - 2**-52))")))
    differing, out = sweep(copy, tmp_path / "changed")
    assert list(differing) == ["tiny_graddiv"]
    # a rounding-level change: the run's line gives its size
    assert 0.0 < differing["tiny_graddiv"] < 1e-6
    first = out.splitlines()[0]
    assert first.startswith("DIFFERS    tiny_graddiv (")
    assert first.endswith(f", max rel diff {differing['tiny_graddiv']:.1e})")
    # the column figure names the file and column it comes from
    column, place = re.search(r", column rel diff (\S+) at (\S+),", first).groups()
    name, part = place.split(":")
    assert (tmp_path / "changed" / "work" / "ref" / "tiny_graddiv" / name).is_file()
    line = next(line for line in out.splitlines() if line.startswith(f"    {part}: column"))
    assert f"{float(line.split()[4].strip(',')):.1e}" == column


def test_a_resumed_run_writes_what_a_fresh_run_writes(tmp_path):
    # the reference tree's pipeline runs twice into one directory, the
    # working tree's too; both leave the files of one fresh run
    copy = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    differing, out = sweep(copy, tmp_path, ["resumed_tiny_graddiv", "tiny_graddiv"])
    assert differing == {}, out
    work = tmp_path / "work" / "new"
    files = [{p.name: p.read_bytes() for p in (work / name).iterdir()}
             for name in ("resumed_tiny_graddiv", "tiny_graddiv")]
    assert files[0] == files[1]


def test_a_git_revision_exports_its_source_tree(tmp_path):
    src = identity_sweep.export_src("HEAD", tmp_path)
    assert (src / "podflow" / "fom.py").is_file()

"""The artifact comparison tool on two runs of one tiny pipeline."""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from podflow.container import read_container, write_container
from podflow.harness import ExperimentConfig, run_pipeline

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"

TINY = {
    "geometry": {"nx": 4, "ny": 4},
    "case": {"name": "cavity", "parameters": {"amplitude": 100.0}},
    "fom": {"scheme": "graddiv", "nu": 5e-3, "dt": 1e-2, "t_final": 0.06,
            "stabilization": {"grad_div": 0.3}, "snapshot_window": [0.02, 0.06]},
    "pod": {},
    "rom": {"r_values": [1, 2]},
}


_spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def compare(dir_a, dir_b, *options):
    """Exit status and output of the tool, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = compare_runs.main([str(dir_a), str(dir_b), *options])
    return status, out.getvalue()


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    dirs = [tmp_path_factory.mktemp(f"run{k}") for k in range(2)]
    for d in dirs:
        run_pipeline(ExperimentConfig.from_dict(TINY), out_dir=d)
    return dirs


def test_two_runs_of_one_config_compare_identical(two_runs):
    result = subprocess.run([sys.executable, str(TOOL), *map(str, two_runs)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    for name in ("operators.bin", "qoi.csv", "rom.csv", "errors.csv", "run_meta.json"):
        assert f"identical  {name}" in lines


def test_a_record_differing_only_by_its_source_digest_compares_identical(two_runs, tmp_path):
    # a tree without the digest, and one with another digest, wrote the same run
    dirs = [tmp_path / "without", tmp_path / "other"]
    for run, copy in zip(two_runs, dirs):
        shutil.copytree(run, copy)
    path = dirs[0] / "run_meta.json"
    meta = json.loads(path.read_text())
    assert len(meta.pop("source_sha256")) == 64
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    path = dirs[1] / "run_meta.json"
    path.write_text(path.read_text().replace(meta_digest(two_runs[1]), "0" * 64))
    status, out = compare(*dirs)
    assert status == 0, out
    assert "identical  run_meta.json" in out.splitlines()
    # any other change to the record still differs
    path.write_text(path.read_text().replace('"fom"', '"pod"', 1))
    assert compare_runs.compare_dirs(*dirs).differs == ["run_meta.json"]


def meta_digest(run):
    return json.loads((run / "run_meta.json").read_text())["source_sha256"]


def test_a_changed_csv_value_fails_above_rtol(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    path = changed / "errors.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    status, out = compare(two_runs[0], changed)
    assert status == 1
    assert "csv        errors.csv" in out
    # an error below 1: the gate reads its absolute change, the column
    # figure that change against the column's largest entry
    value = float(cells[1])
    assert value < 1.0
    largest = max(abs(float(row.split(",")[1])) for row in lines[1:])
    line = next(line for line in out.splitlines() if line.startswith("    vel_error:"))
    column, gate = (float(word.strip(",")) for word in line.split()[4::4])
    assert line == f"    vel_error: column rel diff {column:.3e}, max rel diff {gate:.3e}"
    assert column == pytest.approx(1e-9 * value / largest, rel=1e-3)
    assert gate == pytest.approx(1e-9 * value, rel=1e-3)
    assert out.splitlines()[-1].startswith(f"worst relative difference {gate:.3e} "
                                           f"(column {column:.3e}): ABOVE")
    assert compare(two_runs[0], changed, "--rtol", "1e-8")[0] == 0
    # --rtol gates the gate measure, whatever the column figure reads
    assert gate < 1e-10 < column
    assert compare(two_runs[0], changed, "--rtol", "1e-10")[0] == 0


def test_the_column_figure_scales_by_the_largest_reference_entry():
    a = [0.0, 1e-6, 4.0, np.nan, 2.0]
    b = [1e-3, 1e-6 * (1 + 1e-6), 4.0, np.nan, 2.0 * (1 - 1e-9)]
    gate, column = compare_runs.relative_differences(a, b)
    # the zero entry moves both, the column figure against the largest
    # entry, 4; the nan entries agree
    assert gate == pytest.approx(1e-3, rel=1e-12)
    assert column == pytest.approx(1e-3 / 4.0, rel=1e-12)
    # a near-zero entry that doubles leaves the column figure small
    assert compare_runs.relative_differences([1e-12, 4.0], [2e-12, 4.0]) == (
        pytest.approx(1e-12), pytest.approx(2.5e-13))
    assert compare_runs.relative_differences(a, a) == (0.0, 0.0)
    assert compare_runs.relative_differences([1.0], [np.nan]) == (np.inf, np.inf)
    assert compare_runs.relative_differences([0.0, 0.0], [0.0, 1e-13]) == (1e-13, np.inf)


def test_container_arrays_and_missing_files_are_reported(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    meta, arrays = read_container(changed / "operators.bin", "operators")
    arrays["mass"] = arrays["mass"] * (1.0 + 1e-12)
    assert meta["mean_energy"] == 0.0  # an uncentred basis
    meta["mean_energy"] = 1e-13
    write_container(changed / "operators.bin", "operators", meta, arrays)
    status, out = compare(two_runs[0], changed, "--rtol", "1e-10")
    assert status == 0, out
    assert "container  operators.bin" in out
    assert "    stiffness: bitwise equal" in out
    # a change to a zero reference value has no scale to be relative to
    assert "    mean_energy (metadata): column rel diff inf, max rel diff 1.000e-13" in out
    mass_line = next(line for line in out.splitlines() if line.startswith("    mass:"))
    assert 0.0 < float(mass_line.split()[-1]) <= 1e-11
    (changed / "qoi.csv").unlink()
    status, out = compare(two_runs[0], changed, "--rtol", "1e-10")
    assert status == 1
    assert "differs    qoi.csv (only in DIR_A)" in out


def test_a_changed_container_header_lists_its_keys_and_still_compares_arrays(
        two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    meta, arrays = read_container(changed / "operators.bin", "operators")
    meta["r"] += 1
    meta["extra"] = "new"
    arrays["mass"] = arrays["mass"] * (1.0 + 1e-12)
    write_container(changed / "operators.bin", "operators", meta, arrays)
    status, out = compare(two_runs[0], changed, "--rtol", "1e-10")
    assert status == 1
    lines = out.splitlines()
    assert "differs    operators.bin" in lines
    assert "    metadata differs: extra, r" in lines
    assert "    stiffness: bitwise equal" in lines
    mass_line = next(line for line in lines if line.startswith("    mass:"))
    assert 0.0 < float(mass_line.split()[-1]) <= 1e-11


def test_a_container_whose_array_set_changed_lists_the_one_sided_arrays(two_runs, tmp_path):
    # a velocity snapshot container saved centred, with its mean, against
    # one saved as computed
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    path = changed / "snapshots_velocity.bin"
    meta, arrays = read_container(path, "snapshots")
    mean = arrays["fields"].mean(axis=1)
    write_container(path, "snapshots", meta,
                    {**arrays, "fields": arrays["fields"] - mean[:, None], "mean": mean})
    status, out = compare(two_runs[0], changed)
    lines = out.splitlines()
    assert status == 1
    assert "differs    snapshots_velocity.bin" in lines
    assert "    arrays only in DIR_B: mean" in lines and "    times: bitwise equal" in lines
    fields_line = next(line for line in lines if line.startswith("    fields:"))
    found = compare_runs.compare_dirs(two_runs[0], changed)
    assert found.differs == ["snapshots_velocity.bin"]
    assert fields_line.endswith(f"max rel diff {found.gate:.3e}") and found.gate > 0.0
    assert found.column_at == "snapshots_velocity.bin:fields"
    # the other way round the mean is DIR_A's, and a shared array whose
    # shape differs reads inf
    status, out = compare(changed, two_runs[0])
    assert "    arrays only in DIR_A: mean" in out.splitlines()
    write_container(path, "snapshots", meta, {"times": arrays["times"][1:], "mean": mean,
                                              "fields": arrays["fields"][:, 1:]})
    lines = compare(two_runs[0], changed)[1].splitlines()
    assert "    arrays only in DIR_B: mean" in lines
    assert "    array shapes differ: times, fields" in lines
    assert "    fields: column rel diff inf, max rel diff inf" in lines
    assert compare_runs.compare_dirs(two_runs[0], changed).gate == np.inf


def test_a_header_only_container_difference_gates_on_its_arrays(two_runs, tmp_path):
    # a basis whose header gained a key while every array is bitwise equal
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    path = changed / "basis_pressure.bin"
    meta, arrays = read_container(path, "basis")
    write_container(path, "basis", {**meta, "r": 2}, arrays)
    status, out = compare(two_runs[0], changed)
    lines = out.splitlines()
    assert status == 1
    assert "differs    basis_pressure.bin" in lines
    assert "    metadata differs: r" in lines and "    modes: bitwise equal" in lines
    # the file still differs, but its gate and column figures read its arrays
    found = compare_runs.compare_dirs(two_runs[0], changed)
    assert found.gate == 0.0
    assert found == (0.0, 0.0, None, ["basis_pressure.bin"])
    assert lines[-1] == ("worst relative difference 0.000e+00 (column 0.000e+00): "
                         "within rtol 0.0e+00; files that differ: basis_pressure.bin")


def test_a_json_object_lists_one_sided_keys_and_gates_on_its_shared_values(
        two_runs, tmp_path):
    # both records get the same top-level keys, a string and a number among them
    base, changed = tmp_path / "base", tmp_path / "changed"
    for run, copy in zip(two_runs, (base, changed)):
        shutil.copytree(run, copy)
        path = copy / "run_meta.json"
        meta = {**json.loads(path.read_text()), "scheme": "graddiv", "seed": 0,
                "case": "cavity"}
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    del meta["scheme"]
    meta["added"] = {"stages": ["fom"]}
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    status, out = compare(base, changed, "--rtol", "1e-10")
    lines = out.splitlines()
    assert "differs    run_meta.json" in lines
    assert "    keys only in DIR_A: scheme" in lines
    assert "    keys only in DIR_B: added" in lines
    assert "    seed: equal" in lines and "    artifacts: equal" in lines
    # the file still differs, but its gate figure reads only the shared
    # values, which are equal
    assert status == 1
    assert lines[-1] == ("worst relative difference 0.000e+00 (column 0.000e+00): "
                         "within rtol 1.0e-10; files that differ: run_meta.json")
    found = compare_runs.compare_dirs(base, changed)
    assert found == (0.0, 0.0, None, ["run_meta.json"])

    # a shared number is gated by its relative difference, any other
    # shared value that changed reads inf
    meta["seed"] = 1e-12
    path.write_text(json.dumps(meta))
    status, out = compare(base, changed, "--rtol", "1e-10")
    assert status == 1
    assert "    seed: column rel diff inf, max rel diff 1.000e-12" in out.splitlines()
    assert compare_runs.compare_dirs(base, changed).gate == 1e-12
    meta["case"] = "channel"
    path.write_text(json.dumps(meta))
    found = compare_runs.compare_dirs(base, changed)
    assert found.gate == found.column == np.inf
    assert found.column_at == "run_meta.json:case"


def test_a_nested_json_object_is_compared_key_by_key(two_runs, tmp_path):
    # a record from a tree whose geometry had one more key, and another nu
    base, changed = tmp_path / "base", tmp_path / "changed"
    for run, copy in zip(two_runs, (base, changed)):
        shutil.copytree(run, copy)
    path = base / "run_meta.json"
    meta = json.loads(path.read_text())
    meta["config"]["geometry"]["refine"] = 1
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    path = changed / "run_meta.json"
    meta = json.loads(path.read_text())
    nu = meta["config"]["fom"]["nu"]
    meta["config"]["fom"]["nu"] = nu * (1.0 + 1e-9)
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    status, out = compare(base, changed, "--rtol", "1e-10")
    lines = out.splitlines()
    assert status == 1
    assert "differs    run_meta.json" in lines
    assert "    keys only in DIR_A: config.geometry.refine" in lines
    assert not any(line.startswith("    keys only in DIR_B") for line in lines)
    # equal values keep one line at the depth where they agree
    assert "    artifacts: equal" in lines and "    config.geometry.nx: equal" in lines
    assert "    config.fom.dt: equal" in lines and "    config.pod: equal" in lines
    found = compare_runs.compare_dirs(base, changed)
    assert found.gate == abs(meta["config"]["fom"]["nu"] - nu) < 1e-10
    assert found.column_at == "run_meta.json:config.fom.nu"
    assert found.differs == ["run_meta.json"]


def test_the_column_figure_names_its_file_and_column(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    path = changed / "qoi.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    found = compare_runs.compare_dirs(two_runs[0], changed)
    assert found.column_at == "qoi.csv:E_kin" and found.differs == []
    (changed / "mesh.txt").unlink()
    found = compare_runs.compare_dirs(two_runs[0], changed)
    assert found.column_at == "mesh.txt" and found.differs == ["mesh.txt"]

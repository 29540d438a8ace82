"""Tests for the command-line front end: subcommands, artifacts, exit codes."""

import json

import pytest

import podflow.harness
from podflow.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from podflow.harness import read_csv


@pytest.fixture
def config_path(tmp_path, monkeypatch):
    # a run without --out-dir writes to ./out, here tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    raw = {
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "cavity", "parameters": {"amplitude": 100.0}},
        "fom": {
            "scheme": "graddiv",
            "nu": 5e-3,
            "dt": 1e-2,
            "t_final": 0.06,
            "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.02, 0.06],
        },
        "pod": {},
        "rom": {"r_values": [1, 2]},
    }
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "podflow" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_CONFIG


def test_unknown_subcommand_is_a_usage_error(config_path, capsys):
    assert main(["transmogrify"]) == EXIT_CONFIG
    # a longer horizon is a rom run with rom.t_final, not a study
    assert main(["study", "longhorizon", "--config", str(config_path)]) == EXIT_CONFIG


def test_missing_config_file_reports_a_config_error(tmp_path, capsys):
    code = main(["fom", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_value_reports_a_config_error(config_path, capsys):
    code = main(["fom", "--config", str(config_path),
                 "--override", "case.name=bogus"])
    assert code == EXIT_CONFIG
    assert "case_unknown" in capsys.readouterr().err


def test_malformed_config_value_reports_a_config_error(config_path, capsys):
    code = main(["rom", "--config", str(config_path),
                 "--override", "geometry.nx=abc"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "geometry.nx" in err


def test_non_numeric_case_parameter_reports_a_config_error(config_path, capsys):
    code = main(["fom", "--config", str(config_path),
                 "--override", "case.parameters.amplitude=abc"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "case_parameter" in err and "case.parameters.amplitude" in err


def test_reduced_scheme_override_is_an_unknown_key(config_path, capsys):
    # the reduced model always takes the full-order scheme
    code = main(["rom", "--config", str(config_path),
                 "--override", "rom.scheme=lps"])
    assert code == EXIT_CONFIG
    assert "unknown_key" in capsys.readouterr().err


def test_reduced_integrator_must_repeat_the_full_order_one(config_path, capsys):
    code = main(["rom", "--config", str(config_path),
                 "--override", "rom.integrator=implicit_euler"])
    assert code == EXIT_CONFIG
    assert "rom_invalid" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("rom.r_pressure=9", "rom_invalid: rom.r_pressure=9 exceeds the pressure basis rank 5"),
    ("rom.r=50", "rom_invalid: rom.r=50 exceeds the basis rank 5"),
    ("rom.r_values=[2, 50]", "rom_invalid: max(rom.r_values)=50 exceeds the basis rank 5"),
], ids=["rom.r_pressure", "rom.r", "rom.r_values"])
def test_a_size_above_the_basis_rank_reports_a_config_error(
        config_path, capsys, override, message):
    # the rank is known only after POD, so the rom stage raises it
    code = main(["rom", "--config", str(config_path), "--override", override])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_a_run_without_a_snapshot_window_is_a_config_error(config_path, tmp_path, capsys):
    raw = json.loads(config_path.read_text())
    del raw["fom"]["snapshot_window"]
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "nowindow"
    assert main(["fom", "--config", str(config_path), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "snapshot_window_missing" in capsys.readouterr().err
    assert not out.exists()


def test_stage_failure_reports_a_runtime_error(config_path, tmp_path, capsys):
    code = main(["fom", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "fail"),
                 "--override", "fom.time_integrator=implicit_euler",
                 "--override", "fom.nonlinear_max_iterations=1",
                 "--override", "fom.nonlinear_tolerance=1e-15"])
    assert code == EXIT_RUNTIME
    assert "stage 'fom'" in capsys.readouterr().err


def test_full_order_subcommand_writes_snapshots(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fom", "--config", str(config_path)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"mesh.txt", "qoi.csv", "snapshots_velocity.bin",
            "snapshots_pressure.bin", "run_meta.json"} <= names
    assert "operators.bin" not in names
    assert "snapshots" in capsys.readouterr().out


def test_basis_subcommand_writes_bases(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pod", "--config", str(config_path)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"basis_velocity.bin", "basis_pressure.bin"} <= names
    assert "operators.bin" not in names
    # a basis keeps every mode: the rank and its spectrum, no selected size
    stdout = capsys.readouterr().out
    assert "rank 5, leading eigenvalue" in stdout and "selected" not in stdout


def test_reduced_subcommand_writes_the_full_chain(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["rom", "--config", str(config_path)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"operators.bin", "rom.csv", "errors.csv"} <= names
    stdout = capsys.readouterr().out
    assert "reduced run" in stdout and "vel_error" in stdout


def test_out_dir_flag_overrides_the_default_directory(config_path, tmp_path):
    other = tmp_path / "elsewhere"
    assert main(["rom", "--config", str(config_path),
                 "--out-dir", str(other)]) == EXIT_OK
    assert (other / "rom.csv").exists()
    assert not (tmp_path / "out").exists()


def test_out_dir_flag_is_taken_as_a_directory_name(config_path, tmp_path):
    # a numeric or quoted name is a path, not a JSON value
    for name in ("2024", '"q"'):
        assert main(["fom", "--config", str(config_path), "--out-dir", name]) == EXIT_OK
        assert (tmp_path / name / "qoi.csv").exists()
    assert not (tmp_path / "q").exists()


def test_rom_after_pod_resumes_the_full_order_run_and_writes_a_fresh_runs_files(
        config_path, tmp_path, monkeypatch, capsys):
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert main(["rom", "--config", str(config_path), "--out-dir", str(fresh)]) == EXIT_OK
    assert "resumed stages: none" in capsys.readouterr().out
    assert main(["pod", "--config", str(config_path), "--out-dir", str(resumed)]) == EXIT_OK
    assert "resumed stages: none" in capsys.readouterr().out

    def recomputed(*args, **kwargs):
        raise AssertionError("the resumed full-order run was computed again")

    # a call would fail the command with a runtime error; the bases are built
    monkeypatch.setattr(podflow.harness, "run_fom", recomputed)
    assert main(["rom", "--config", str(config_path), "--out-dir", str(resumed)]) == EXIT_OK
    assert "resumed stages: fom" in capsys.readouterr().out.splitlines()
    files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (fresh, resumed)]
    assert "run_meta.json" in files[0] and files[0] == files[1]


def test_the_seed_flag_is_a_usage_error(config_path, tmp_path):
    # podflow draws no random numbers, so there is no seed to set
    assert main(["fom", "--config", str(config_path), "--seed", "1"]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.fixture
def vortex_path(tmp_path):
    """The convergence study's level 0: the LPS decaying vortex on a 4 x 4 mesh."""
    raw = {
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "taylor_green"},
        "fom": {"scheme": "lps", "nu": 1e-2, "dt": 2e-2, "t_final": 0.04,
                "snapshot_window": [0.0, 0.04]},
    }
    path = tmp_path / "vortex.json"
    path.write_text(json.dumps(raw))
    return path


def test_convergence_study_subcommand_writes_its_table(vortex_path, tmp_path, capsys):
    out = tmp_path / "conv"
    code = main(["study", "convergence", "--config", str(vortex_path), "--levels", "2",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    header, data = read_csv(out / "convergence.csv")
    assert data[:, header.index("nx")].tolist() == [4, 8]
    lines = capsys.readouterr().out.splitlines()
    order = data[1, header.index("order")]
    assert lines[1].endswith(f" order={order:.3f}") and order > 2.0
    assert lines[2].startswith("interpolation orders: ")


def test_convergence_study_off_the_step_grid_is_a_config_error(vortex_path, tmp_path, capsys):
    code = main(["study", "convergence", "--config", str(vortex_path), "--levels", "2",
                 "--override", "fom.t_final=0.05", "--out-dir", str(tmp_path / "conv")])
    assert code == EXIT_CONFIG
    assert "fom_invalid" in capsys.readouterr().err
    assert not (tmp_path / "conv").exists()


def test_the_output_directory_is_only_the_out_dir_flag(config_path, tmp_path, capsys):
    # without --out-dir a run writes to ./out, and a config cannot name a directory
    assert main(["fom", "--config", str(config_path)]) == EXIT_OK
    assert (tmp_path / "out" / "qoi.csv").exists()
    code = main(["fom", "--config", str(config_path),
                 "--override", f"output.directory={tmp_path / 'other'}"])
    assert code == EXIT_CONFIG
    assert "unknown_key" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_report_summarizes_artifacts_and_writes_plot_scripts(
        config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["rom", "--config", str(config_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    summary = json.loads((out / "report.json").read_text())
    assert summary["error_table_sizes"] == [1, 2]
    assert "fom_final_E_kin" in summary
    # the coefficient comes from rom.csv: constant at the config's 0.3
    assert summary["mu_changes"] == 0 and summary["mu_final"] == 0.3
    # the coefficient norm's growth, which a blow-up drives past 1e3
    header, rom = read_csv(out / "rom.csv")
    a_norm = rom[:, header.index("a_norm")]
    assert summary["rom_max_a_norm_ratio"] == a_norm.max() / a_norm[0] < 1e3
    scripts = sorted(p.name for p in out.glob("plot_*.py"))
    assert scripts == ["plot_errors.py", "plot_qoi.py", "plot_rom.py"]
    for name in scripts:
        source = (out / name).read_text()
        assert "matplotlib" in source and "savefig" in source
    assert "report.json" in stdout


def test_report_on_an_empty_directory_is_a_config_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out-dir", str(empty)]) == EXIT_CONFIG
    assert main(["report", "--out-dir", str(tmp_path / "missing")]) == EXIT_CONFIG


def test_plot_scripts_compile_without_running(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["rom", "--config", str(config_path)]) == EXIT_OK
    assert main(["report", "--out-dir", str(out)]) == EXIT_OK
    for script in out.glob("plot_*.py"):
        compile(script.read_text(), str(script), "exec")


def test_a_geometry_the_mesh_rejects_reports_a_config_error(config_path, capsys):
    # the hole's edges fall between the grid lines of a three-cell-wide mesh
    code = main(["fom", "--config", str(config_path),
                 "--override", "geometry.hole=[0.25,0.25,0.5,0.5]",
                 "--override", "geometry.nx=3"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "geometry_invalid" in err

"""Tests for the experiment configuration, cases, and pipeline drivers."""

import collections
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import summed_forcing
from test_rom import assert_same_arrays, gradient_gram_blocks

from podflow.assembly import StabilizationConfig, assemble_load
import podflow.fom
import podflow.harness
import podflow.metrics
import podflow.pod
import podflow.rom
from podflow.cli import EXIT_CONFIG, main
from podflow.container import read_container, write_container
from podflow.fom import FOMConfig, FOMProblem, SeparableForcing, snapshot_steps
from podflow.harness import (
    AdaptiveBlock,
    ConfigError,
    ExperimentConfig,
    GeometryConfig,
    PODBlock,
    ROMBlock,
    StageError,
    _full_order,
    apply_overrides,
    build_case,
    convergence_study,
    read_csv,
    run_pipeline,
    write_csv,
)
from podflow.metrics import discrete_l2_error, kinetic_energy


# -- closed-form cases --------------------------------------------------------------


def _symbolic_case(name, x, y, t, nu):
    """Velocity, pressure and body force of a closed-form case, derived
    with sympy."""
    if name == "taylor_green":
        decay = sp.exp(-2 * sp.pi**2 * nu * t)
        u = -sp.cos(sp.pi * x) * sp.sin(sp.pi * y) * decay
        v = sp.sin(sp.pi * x) * sp.cos(sp.pi * y) * decay
        p = -(sp.cos(2 * sp.pi * x) + sp.cos(2 * sp.pi * y)) / 4 * decay**2
        return u, v, p, (sp.Integer(0), sp.Integer(0))
    psi = x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2
    u, v = sp.diff(psi, y), -sp.diff(psi, x)
    p = x**3 + y**3 - sp.Rational(1, 2)
    forcing = tuple(
        -nu * (sp.diff(w, x, 2) + sp.diff(w, y, 2)) + u * sp.diff(w, x)
        + v * sp.diff(w, y) + sp.diff(p, s) for w, s in ((u, x), (v, y)))
    return u, v, p, forcing


@pytest.mark.parametrize("name,nu", [("taylor_green", 0.01), ("taylor_green", 0.02),
                                     ("stokes_poly", 0.05)])
def test_closed_form_cases_solve_the_equations_and_match_sympy(name, nu):
    x, y, t = sp.symbols("x y t")
    nu_s = sp.Float(nu)
    u, v, p, (f1, f2) = _symbolic_case(name, x, y, t, nu_s)
    residuals = [sp.diff(w, t) - nu_s * (sp.diff(w, x, 2) + sp.diff(w, y, 2))
                 + u * sp.diff(w, x) + v * sp.diff(w, y) + sp.diff(p, s) - f
                 for w, s, f in ((u, x, f1), (v, y, f2))]
    residuals.append(sp.diff(u, x) + sp.diff(v, y))
    lam = lambda expr: sp.lambdify((x, y, t), expr, "numpy")

    rng = np.random.default_rng(0)
    xs = rng.uniform(0.05, 0.95, size=40)
    ys = rng.uniform(0.05, 0.95, size=40)
    for t_val in (0.0, 0.13, 0.77):
        for res in residuals:
            values = np.broadcast_to(lam(res)(xs, ys, t_val), xs.shape)
            assert np.abs(values).max() <= 1e-10
        if name == "taylor_green":
            got = podflow.harness._taylor_green(nu)(xs, ys, t_val)
            want = (u, v)
        else:
            got = podflow.harness._stokes_poly_forcing(nu)(xs, ys)
            want = (f1, f2)
        for component, expr in zip(got, want):
            ref = lam(expr)(xs, ys, t_val)
            assert np.abs(component - ref).max() <= 1e-14 * np.abs(ref).max()


def test_decaying_vortex_velocity_is_divergence_free_pointwise():
    velocity = podflow.harness._taylor_green(0.02)
    eps = 1e-6
    x, y, t = 0.37, 0.61, 0.2
    ux = (velocity(x + eps, y, t)[0] - velocity(x - eps, y, t)[0]) / (2 * eps)
    vy = (velocity(x, y + eps, t)[1] - velocity(x, y - eps, t)[1]) / (2 * eps)
    assert abs(ux + vy) < 1e-8


# -- configuration parsing and validation -------------------------------------------


def base_raw():
    return {
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
        "rom": {},
    }


def config_error_name(raw):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    return err.value.name


def test_valid_config_parses_with_defaults():
    cfg = ExperimentConfig.from_dict(base_raw())
    assert cfg.case_name == "cavity"
    assert cfg.fom.scheme == "graddiv"
    assert cfg.effective_rom_mu() == pytest.approx(0.3)
    assert cfg.effective_rom_t_final() == pytest.approx(0.06)
    assert not cfg.pod.center and cfg.rom.r is None and cfg.rom.r_values is None
    assert not cfg.rom.adaptive.enabled


def test_unknown_top_level_key_is_rejected():
    raw = base_raw()
    raw["extra"] = 1
    assert config_error_name(raw) == "unknown_key"


def test_unknown_section_key_is_rejected():
    raw = base_raw()
    raw["rom"]["bogus"] = 1
    assert config_error_name(raw) == "unknown_key"


def test_missing_required_section_is_rejected():
    raw = base_raw()
    del raw["fom"]
    assert config_error_name(raw) == "missing_key"


def test_unknown_case_name_is_rejected():
    # a retired case name fails like any other unknown name
    for name in ("mystery", "resting_pressure"):
        raw = base_raw()
        raw["case"]["name"] = name
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.name == "case_unknown"
        assert str(err.value).endswith(
            "available: ['cavity', 'channel', 'stokes_poly', 'taylor_green']")


def test_unknown_case_parameter_is_rejected():
    raw = base_raw()
    raw["case"]["parameters"]["swirl"] = 2.0
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError) as err:
        build_case(cfg)
    assert err.value.name == "case_parameter"


@pytest.mark.parametrize("dotted", ["seed", "geometry.refine", "pod.r",
                                    "pod.energy_threshold", "rom.adaptive.mu_init"])
def test_a_removed_setting_is_an_unknown_key(dotted):
    # podflow draws no random numbers, and a run meshes its geometry as given;
    # the rom section alone sets the reduced sizes, and rom.mu the run's start
    raw = apply_overrides(base_raw(), [f"{dotted}=1"])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.name == "unknown_key"
    assert repr(dotted.split(".")[-1]) in str(err.value)


@pytest.mark.parametrize("name", ["pulse_x", "pulse_y", "pulse_width"])
def test_the_channel_pulse_is_placed_by_the_hole_alone(name):
    raw = channel_raw()
    raw["case"]["parameters"][name] = 1.0
    with pytest.raises(ConfigError) as err:
        build_case(ExperimentConfig.from_dict(raw))
    assert err.value.name == "case_parameter"
    assert name in str(err.value)
    # the hole (0.5, 0.25)-(0.75, 0.5) puts the pulse's centre behind it by
    # 3/4 of its width at its mid-height, and makes the pulse half as wide
    # as the hole is high
    bump = build_case(ExperimentConfig.from_dict(channel_raw())).flow_case.forcing.shapes[0]
    x = np.array([0.9375, 0.9375 + 0.125])
    assert bump(x, np.full(2, 0.375))[1].tolist() == [1.0, np.exp(-1.0)]


@pytest.mark.parametrize("value", ["abc", True, None, [1.0], {"a": 1.0},
                                   float("nan"), float("inf")])
def test_case_parameters_must_be_finite_numbers(value):
    raw = base_raw()
    raw["case"]["parameters"]["amplitude"] = value
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError) as err:
        build_case(cfg)
    assert err.value.name == "case_parameter"
    assert "case.parameters.amplitude" in str(err.value)


def test_invalid_geometry_is_rejected():
    raw = base_raw()
    raw["geometry"]["nx"] = 0
    assert config_error_name(raw) == "geometry_invalid"


def test_invalid_fom_field_is_rejected():
    raw = base_raw()
    raw["fom"]["dt"] = -1.0
    assert config_error_name(raw) == "fom_invalid"


def test_a_nonlinear_tolerance_below_the_backward_error_is_rejected():
    # no solve gets below 4 eps, so Picard increments would never meet it
    raw = base_raw()
    raw["fom"]["time_integrator"] = "implicit_euler"
    raw["fom"]["nonlinear_tolerance"] = 1e-17
    assert config_error_name(raw) == "fom_invalid"
    eps4 = raw["fom"]["nonlinear_tolerance"] = 4.0 * np.finfo(float).eps
    assert ExperimentConfig.from_dict(raw).fom.nonlinear_tolerance == eps4


def test_snapshot_window_is_required(tmp_path, count_calls):
    # the config loads, and the pipeline rejects it before any full-order step
    raw = base_raw()
    del raw["fom"]["snapshot_window"]
    cfg = ExperimentConfig.from_dict(raw)
    count_calls(podflow.harness, "run_fom", "run_fom")
    with pytest.raises(ConfigError) as err:
        run_pipeline(cfg, tmp_path / "run")
    assert err.value.name == "snapshot_window_missing"
    assert count_calls.calls["run_fom"] == 0
    assert not any(tmp_path.iterdir())


def test_reduced_window_must_reach_snapshot_end():
    raw = base_raw()
    raw["rom"]["t_final"] = 0.04
    assert config_error_name(raw) == "rom_window"
    raw["rom"]["t_final"] = 0.1
    assert ExperimentConfig.from_dict(raw).effective_rom_t_final() == 0.1


def test_final_times_must_be_whole_numbers_of_steps():
    # dt is 0.01: 0.066 would run to 0.07
    raw = base_raw()
    raw["fom"]["t_final"] = 0.066
    assert config_error_name(raw) == "fom_invalid"
    raw = base_raw()
    raw["rom"]["t_final"] = 0.066
    assert config_error_name(raw) == "rom_invalid"
    raw["rom"]["t_final"] = 0.07
    assert ExperimentConfig.from_dict(raw).effective_rom_t_final() == 0.07


def test_adaptation_requires_divergence_stable_scheme():
    raw = base_raw()
    raw["fom"]["scheme"] = "lps"
    del raw["fom"]["stabilization"]
    raw["rom"]["adaptive"] = {"enabled": True}
    assert config_error_name(raw) == "adaptive_requires_graddiv"


def test_invalid_adaptive_settings_are_rejected():
    with pytest.raises(ConfigError) as err:
        AdaptiveBlock(enabled=True, frequency=0)
    assert err.value.name == "adaptive_invalid"
    raw = base_raw()
    raw["rom"]["adaptive"] = {"enabled": True, "mu_min": -5.0}
    assert config_error_name(raw) == "adaptive_invalid"


@pytest.mark.parametrize("block", [{"enabled": True, "frequency": 0}, {"delta": -1}])
def test_malformed_adaptive_settings_fail_at_load_before_any_stage(
        tmp_path, count_calls, block):
    # the controller's own checks run at load, whether or not it is enabled
    raw = base_raw()
    raw["rom"]["adaptive"] = block
    assert config_error_name(raw) == "adaptive_invalid"
    count_calls(podflow.harness, "run_fom", "run_fom")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["rom", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert count_calls.calls["run_fom"] == 0


def test_invalid_rom_fields_are_rejected():
    for patch in ({"r": 0}, {"integrator": "leapfrog"}, {"mu": -0.5},
                  {"r_values": []}):
        raw = base_raw()
        raw["rom"] = patch
        assert config_error_name(raw) == "rom_invalid"


def test_the_pressure_indicator_coupling_is_not_an_option():
    # it is the principal-angle cosine of each row's supremizers
    raw = base_raw()
    raw["rom"] = {"alpha": 0.5}
    assert config_error_name(raw) == "unknown_key"


def test_a_geometry_the_mesh_rejects_is_a_config_error():
    # the hole's edges fall between the grid lines of the coarser mesh
    cfg = ExperimentConfig.from_dict(apply_overrides(channel_raw(), ["geometry.nx=3"]))
    with pytest.raises(ConfigError) as err:
        cfg.geometry.build()
    assert err.value.name == "geometry_invalid"
    assert "not aligned" in str(err.value)


@pytest.mark.parametrize("fom_integrator, rom_integrator", [
    ("bdf2_semi_implicit", "implicit_euler"),
    ("implicit_euler", "bdf2_semi_implicit")])
def test_reduced_integrator_other_than_the_full_order_one_is_rejected(
        fom_integrator, rom_integrator):
    raw = base_raw()
    raw["fom"]["time_integrator"] = fom_integrator
    raw["rom"] = {"integrator": rom_integrator}
    assert config_error_name(raw) == "rom_invalid"


def test_invalid_pod_fields_are_rejected():
    for patch in ({"center": 1}, {"center": "true"}):
        raw = base_raw()
        raw["pod"] = patch
        assert config_error_name(raw) == "pod_invalid"


_MALFORMED = [
    ("geometry.nx", "abc", "geometry_invalid"),
    ("geometry.hole", 5, "geometry_invalid"),
    ("rom.r_values", 3, "rom_invalid"),
    ("rom.adaptive", 5, "config_type"),
    ("rom.adaptive.enabled", 1, "rom_invalid"),
    ("rom.mu", "fast", "rom_invalid"),
    ("fom.stabilization", 5, "config_type"),
    ("fom.stabilization.grad_div", "x", "fom_invalid"),
    ("fom.snapshot_window", [0.1], "fom_invalid"),
    ("fom.nu", float("nan"), "fom_invalid"),
    ("fom.dt", 10**400, "fom_invalid"),
    # a removed key: the rom section alone sets the reduced sizes
    ("pod.r", "x", "unknown_key"),
    ("pod.center", "false", "pod_invalid"),
    ("case.parameters", [1], "config_type"),
    ("case.name", 5, "config_type"),
    # the output directory is run_pipeline's argument, not a config key
    ("output", {"directory": "out"}, "unknown_key"),
]


@pytest.mark.parametrize("dotted, value, name", _MALFORMED,
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_values_raise_a_config_error_naming_the_key(dotted, value, name):
    raw = apply_overrides(base_raw(), [f"{dotted}={json.dumps(value)}"])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.name == name
    assert dotted.split(".")[-1] in str(err.value)


def _dotted_keys():
    keys = ["case.name", "case.parameters"]
    for prefix, cls in (("geometry", GeometryConfig), ("fom", FOMConfig),
                        ("fom.stabilization", StabilizationConfig),
                        ("pod", PODBlock), ("rom", ROMBlock),
                        ("rom.adaptive", AdaptiveBlock)):
        keys += [prefix] + [f"{prefix}.{f.name}" for f in fields(cls)]
    return keys + ["junk", "rom.junk", "fom.stabilization.junk",
                   "case.parameters.junk", "geometry.nx.junk"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(_dotted_keys()), value=_JSON_VALUES)
def test_any_json_value_at_any_key_parses_or_raises_a_config_error(key, value):
    raw = base_raw()
    try:
        apply_overrides(raw, [f"{key}={json.dumps(value)}"])
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass


def test_config_from_json_applies_overrides(tmp_path):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(base_raw(), fh)
    cfg = ExperimentConfig.from_json(
        path, overrides=["fom.nu=0.01", "rom.r=2", "case.name=cavity"])
    assert cfg.fom.nu == pytest.approx(0.01)
    assert cfg.rom.r == 2


def test_config_from_json_reports_parse_and_io_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(tmp_path / "missing.json")
    assert err.value.name == "config_io"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(bad)
    assert err.value.name == "config_parse"


def test_overrides_parse_json_values_and_create_sections():
    raw = {"rom": {}}
    apply_overrides(raw, ["rom.mu=0.4", "rom.r_values=[1,2,3]",
                          "case.name=cavity", "rom.adaptive.enabled=true"])
    assert raw["rom"]["mu"] == 0.4
    assert raw["rom"]["r_values"] == [1, 2, 3]
    assert raw["case"]["name"] == "cavity"
    assert raw["rom"]["adaptive"]["enabled"] is True


def test_malformed_overrides_are_rejected():
    for item in ("no_equals", "=value", "a..=1"):
        with pytest.raises(ConfigError) as err:
            apply_overrides({}, [item])
        assert err.value.name == "override_syntax"


def test_overrides_and_configs_need_an_object_root():
    with pytest.raises(ConfigError) as err:
        apply_overrides([1, 2], ["rom.mu=1"])
    assert err.value.name == "config_type"
    assert config_error_name([1, 2]) == "config_type"


def test_geometry_with_hole_builds_an_obstacle_boundary():
    geom = GeometryConfig(width=2.0, height=1.0, nx=8, ny=4,
                          hole=(0.5, 0.25, 0.75, 0.5))
    mesh = geom.build()
    assert "obstacle" in set(mesh.boundary_edges.values())


def test_snapshot_count_matches_window_arithmetic():
    cfg = FOMConfig(scheme="graddiv", nu=1e-3, dt=2e-3, t_final=7.0,
                    snapshot_window=(5.0, 5.332))
    assert snapshot_steps(cfg).size == 167
    strided = FOMConfig(scheme="graddiv", nu=1e-3, dt=2e-3, t_final=7.0,
                        snapshot_window=(5.0, 5.332), snapshot_stride=2)
    assert snapshot_steps(strided).size == 84


# -- CSV helpers ---------------------------------------------------------------------


def test_csv_round_trip_preserves_floats_exactly(tmp_path):
    values = [(1, 0.1 + 0.2, np.pi), (2, 1e-17, -3.5e300)]
    path = write_csv(tmp_path / "table.csv", ("k", "a", "b"), values)
    header, data = read_csv(path)
    assert header == ["k", "a", "b"]
    for row, expected in zip(data, values):
        assert row[0] == expected[0]
        assert row[1] == expected[1]
        assert row[2] == expected[2]
    text = path.read_text()
    assert text.splitlines()[1].startswith("1,")


# -- pipeline ------------------------------------------------------------------------


def run_small_pipeline(tmp_path, raw=None, **kwargs):
    cfg = ExperimentConfig.from_dict(base_raw() if raw is None else raw)
    return run_pipeline(cfg, out_dir=tmp_path, **kwargs)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name, key, scoped=False)`` wraps ``owner.name``
    so each call adds one to ``count_calls.calls[key]``; while a ``scoped``
    function runs, each wrapped call also adds one to ``"<key> in <its
    key>"``."""
    calls = collections.Counter()
    scopes = []

    def count(owner, name, key, scoped=False):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if scopes:
                calls[f"{key} in {scopes[0]}"] += 1
            if scoped:
                scopes.append(key)
            try:
                return original(*args, **kwargs)
            finally:
                if scoped:
                    scopes.pop()

        monkeypatch.setattr(owner, name, wrapper)

    count.calls = calls
    return count


EXPECTED_FILES = {
    "mesh.txt", "qoi.csv", "snapshots_velocity.bin", "snapshots_pressure.bin",
    "basis_velocity.bin", "basis_pressure.bin", "operators.bin", "rom.csv",
    "errors.csv", "run_meta.json",
}


def test_pipeline_writes_every_artifact(tmp_path):
    result = run_small_pipeline(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == EXPECTED_FILES
    header, qoi = read_csv(tmp_path / "qoi.csv")
    assert header == ["t", "E_kin", "c_D", "c_L", "weak_div"]
    assert qoi.shape[0] == result.fom_run.qoi.shape[0]
    header, rom = read_csv(tmp_path / "rom.csv")
    assert header == ["t", "mu", "E_kin", "E_diff", "c_D", "c_L", "a_norm"]
    assert rom.shape[0] == result.rom_run.times.size
    assert np.all(np.isfinite(rom[:, 2]))
    header, errors = read_csv(tmp_path / "errors.csv")
    assert header == ["r", "vel_error", "pres_error", "vel_indicator",
                      "pres_indicator"]
    # the record holds each value once: the scheme and case in its config
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert sorted(meta) == ["artifacts", "config", "source_sha256", "stages"]
    assert meta["config"]["case_name"] == "cavity"
    assert meta["config"]["fom"]["scheme"] == "graddiv"


def test_pipeline_stops_after_requested_stage(tmp_path):
    result = run_small_pipeline(tmp_path / "fom", stop_after="fom")
    names = {p.name for p in (tmp_path / "fom").iterdir()}
    assert "qoi.csv" in names and "basis_velocity.bin" not in names
    assert result.vel_basis is None and result.rom_run is None

    result = run_small_pipeline(tmp_path / "pod", stop_after="pod")
    names = {p.name for p in (tmp_path / "pod").iterdir()}
    assert "basis_velocity.bin" in names and "operators.bin" not in names
    assert result.vel_basis is not None and result.rom_run is None

    for stage in ("solve", "rom"):
        with pytest.raises(ConfigError) as err:
            run_small_pipeline(tmp_path / "bad", stop_after=stage)
        assert err.value.name == "stage_unknown"


def test_pipeline_equal_order_scheme_produces_reduced_pressure(tmp_path):
    raw = base_raw()
    raw["fom"]["scheme"] = "lps"
    del raw["fom"]["stabilization"]
    raw["rom"] = {"r_values": [1, 2]}
    result = run_small_pipeline(tmp_path, raw)
    assert result.rom_run.b_traj is not None
    header, errors = read_csv(tmp_path / "errors.csv")
    assert errors.shape == (2, 5)
    assert np.all(np.isfinite(errors[:, 2]))
    assert errors[1, 1] < errors[0, 1]


def test_pipeline_velocity_error_vanishes_when_basis_replays_snapshots(tmp_path):
    raw = base_raw()
    raw["fom"]["t_final"] = 0.09
    raw["fom"]["snapshot_window"] = [0.045, 0.09]
    raw["rom"] = {"r_values": [5]}
    result = run_small_pipeline(tmp_path, raw)
    assert result.vel_basis.rank == 5
    header, errors = read_csv(tmp_path / "errors.csv")
    assert errors[0, 0] == 5
    assert errors[0, 1] <= 1e-8
    # The recovered pressure tests the momentum equation with the current
    # velocity as its own convecting field, while the full-order step used
    # the extrapolated one, so the replayed pressure carries a small
    # step-size-driven offset rather than vanishing.
    pres = result.pres_snapshots.fields
    ref = discrete_l2_error(np.zeros_like(pres[:, 2:]), pres[:, 2:],
                            result.problem.pressure_mass, 1e-2)
    assert errors[0, 2] <= 0.02 * ref


def test_pipeline_centered_basis_still_replays_snapshots(tmp_path):
    result = run_small_pipeline(tmp_path, centred_raws()["cavity"])
    assert result.vel_basis.rank == 4
    assert result.vel_basis.mean is not None
    header, errors = read_csv(tmp_path / "errors.csv")
    assert errors[0, 1] <= 1e-8


def test_centred_snapshots_are_saved_as_the_full_order_run_computed_them(tmp_path):
    result = run_small_pipeline(tmp_path, centred_raws()["cavity"])
    recorded = result.fom_run.snapshots[0].fields
    _, arrays = read_container(tmp_path / "snapshots_velocity.bin", "snapshots")
    assert set(arrays) == {"times", "fields"}
    assert arrays["fields"].tobytes() == np.ascontiguousarray(recorded).tobytes()
    # the last snapshot is the run's final velocity
    assert np.array_equal(recorded[:, -1], result.fom_run.final_state.u)
    assert np.array_equal(result.vel_basis.mean, recorded.mean(axis=1))


@pytest.mark.parametrize("window, stride", [([0.02, 0.06], 5), ([0.015, 0.018], 1)],
                         ids=["one-step", "no-step"])
def test_a_window_that_records_fewer_than_two_snapshots_is_rejected(
        tmp_path, count_calls, window, stride):
    raw = base_raw()
    raw["fom"].update(snapshot_window=window, snapshot_stride=stride)
    count_calls(podflow.harness, "run_fom", "run_fom")
    with pytest.raises(StageError, match="need at least two snapshots") as err:
        run_small_pipeline(tmp_path, raw)
    assert err.value.stage == "fom"
    # rejected before any full-order step
    assert count_calls.calls["run_fom"] == 0
    assert not (tmp_path / "snapshots_velocity.bin").exists()
    assert not (tmp_path / "run_meta.json").exists()


def test_pipeline_adaptation_changes_mu_only_on_its_schedule(tmp_path):
    raw = base_raw()
    raw["rom"] = {
        "t_final": 0.12, "mu": 0.4,
        "adaptive": {"enabled": True, "frequency": 5,
                     "mu_min": 0.05, "delta": 0.1, "tolerance": 1e-6},
    }
    run_small_pipeline(tmp_path, raw)
    # rom.csv records the coefficient, from rom.mu on; no separate table repeats it
    assert not (tmp_path / "mu.csv").exists()
    header, rom = read_csv(tmp_path / "rom.csv")
    mu, e_diff = rom[:, header.index("mu")], rom[:, header.index("E_diff")]
    assert mu[0] == 0.4
    changes = np.nonzero(np.diff(mu) != 0.0)[0] + 1
    assert changes.size > 0
    assert np.all(changes % 5 == 0)
    assert np.all(np.isfinite(e_diff[1:]))


def test_pipeline_runs_are_byte_identical(tmp_path):
    run_small_pipeline(tmp_path / "a")
    run_small_pipeline(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


# -- stages resume from their artifacts ----------------------------------------------


def files_of(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def count_offline_work(count_calls):
    count_calls(podflow.harness, "run_fom", "run_fom")
    count_calls(podflow.harness, "build_basis", "build_basis")
    return count_calls.calls


def test_loaded_snapshots_give_the_bases_of_the_run_bit_for_bit(tmp_path):
    # the benchmark's LPS cavity at tiny size: row-major snapshots read back
    # changed its bases in the last bits, column-major ones do not
    raw = base_raw()
    raw["case"]["parameters"] = {"amplitude": 120.0, "period": 0.2}
    raw["fom"].update(scheme="lps", stabilization={}, t_final=0.03,
                      snapshot_window=[0.0, 0.03])
    full = _full_order(ExperimentConfig.from_dict(raw))
    for snaps, mass in ((full.vel_snaps, full.problem.mass),
                        (full.pres_snaps, full.problem.pressure_mass)):
        podflow.fom.save_snapshots(snaps, tmp_path / "snapshots.bin")
        loaded = podflow.fom.load_snapshots(tmp_path / "snapshots.bin")
        want, got = (podflow.pod.build_basis(s, mass) for s in (snaps, loaded))
        for name in ("modes", "eigenvalues", "eigenvectors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_a_full_run_after_pod_resumes_the_full_order_run_and_writes_a_fresh_runs_files(
        tmp_path, count_calls):
    raw = base_raw()
    raw["rom"] = {"r_values": [1, 2]}
    run_small_pipeline(tmp_path / "fresh", raw)
    run_small_pipeline(tmp_path / "resumed", raw, stop_after="pod")
    calls = count_offline_work(count_calls)
    result = run_small_pipeline(tmp_path / "resumed", raw)
    # only the full-order run resumes; the bases are built from its snapshots
    assert result.resumed == ("fom",) and result.fom_run is None
    assert (calls["run_fom"], calls["build_basis"]) == (0, 2)
    assert files_of(tmp_path / "resumed") == files_of(tmp_path / "fresh")
    meta = json.loads((tmp_path / "fresh" / "run_meta.json").read_text())
    assert meta["stages"] == ["fom", "pod", "rom"]
    assert "output_directory" not in meta["config"]


@pytest.mark.parametrize("digest", [None, "0" * 64])
def test_a_run_directory_written_by_other_source_resumes_nothing(tmp_path, count_calls, digest):
    # a directory written by another version of the package, or by one that
    # recorded no digest, may hold snapshots and bases this code does not make
    run_small_pipeline(tmp_path / "fresh")
    old = tmp_path / "old"
    run_small_pipeline(old, stop_after="pod")
    path = old / "run_meta.json"
    meta = json.loads(path.read_text())
    assert meta["source_sha256"] == podflow.harness._source_sha256()
    meta["source_sha256"] = digest
    path.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
    calls = count_offline_work(count_calls)
    assert run_small_pipeline(old).resumed == ()
    assert (calls["run_fom"], calls["build_basis"]) == (1, 2)  # velocity and pressure
    assert files_of(old) == files_of(tmp_path / "fresh")


def test_a_run_directory_written_with_the_older_echoed_keys_still_resumes(
        tmp_path, count_calls):
    # earlier records repeated the config's case, scheme and seed, snapshot
    # headers its step, stride and window, and basis headers the snapshot
    # count and a selected size; the bases are built again and rewritten
    run_small_pipeline(tmp_path / "fresh")
    old = tmp_path / "old"
    run_small_pipeline(old, stop_after="pod")
    path = old / "run_meta.json"
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, "case": "cavity", "scheme": "graddiv",
                                "rom_scheme": "graddiv", "seed": 0}))
    echoed = {"snapshots": {"scheme": "graddiv", "dt": 0.01, "stride": 1,
                            "t_start": 0.02, "t_end": 0.06},
              "basis": {"n_snapshots": 5, "r": 2}}
    for kind, keys in echoed.items():
        for name in ("velocity", "pressure"):
            path = old / f"{kind}_{name}.bin"
            header, arrays = read_container(path, kind)
            write_container(path, kind, {**header, **keys}, arrays)
    calls = count_offline_work(count_calls)
    assert run_small_pipeline(old).resumed == ("fom",)
    assert (calls["run_fom"], calls["build_basis"]) == (0, 2)
    # every file the resumed run wrote, its record and bases included, is a
    # fresh run's; only the snapshots it read keep their older headers
    fresh = files_of(tmp_path / "fresh")
    for name, data in files_of(old).items():
        assert data == fresh[name] or name.startswith("snapshots_"), name


@pytest.mark.parametrize("section,key,value,resumed", [
    ("rom", "r_values", [2], ("fom",)),
    ("rom", "mu", 0.4, ("fom",)),
    ("rom", "r", 2, ("fom",)),
    ("geometry", "ny", 5, ()),
    ("case", "parameters", {"amplitude": 90.0}, ()),
    ("fom", "nu", 4e-3, ()),
    # the snapshots are saved as computed; only the basis is centred
    ("pod", "center", True, ("fom",)),
])
def test_a_stage_resumes_only_while_the_config_it_reads_is_unchanged(
        tmp_path, count_calls, section, key, value, resumed):
    raw = base_raw()
    run_small_pipeline(tmp_path / "resumed", raw)
    raw[section] = {**raw[section], key: value}
    run_small_pipeline(tmp_path / "fresh", raw)
    calls = count_offline_work(count_calls)
    result = run_small_pipeline(tmp_path / "resumed", raw)
    assert result.resumed == resumed
    assert calls["run_fom"] == ("fom" not in resumed)
    assert calls["build_basis"] == 2
    assert files_of(tmp_path / "resumed") == files_of(tmp_path / "fresh")


def test_the_named_stage_always_runs(tmp_path, count_calls):
    run_small_pipeline(tmp_path)
    calls = count_offline_work(count_calls)
    assert run_small_pipeline(tmp_path, stop_after="pod").resumed == ("fom",)
    assert (calls["run_fom"], calls["build_basis"]) == (0, 2)
    assert run_small_pipeline(tmp_path, stop_after="fom").resumed == ()
    assert calls["run_fom"] == 1
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["stages"] == ["fom"] and "basis_velocity" not in meta["artifacts"]


def test_a_resumed_run_rebuilds_the_mesh_and_the_bases(tmp_path, count_calls):
    # a resumed run reads the snapshots alone: the bases it writes and the
    # mesh it poses the problem on are built, not read
    raw = base_raw()
    raw["rom"] = {"r_values": [1, 2]}
    run_small_pipeline(tmp_path / "fresh", raw)
    resumed = tmp_path / "resumed"
    run_small_pipeline(resumed, raw)
    for name in ("velocity", "pressure"):
        (resumed / f"basis_{name}.bin").unlink()
    (resumed / "mesh.txt").write_text("not a mesh\n")
    calls = count_offline_work(count_calls)
    assert run_small_pipeline(resumed, raw).resumed == ("fom",)
    assert calls["run_fom"] == 0
    fresh = files_of(tmp_path / "fresh")
    # the mesh the run was posed on is the one its record lists
    for name in ("mesh.txt", "operators.bin", "rom.csv", "errors.csv", "basis_velocity.bin",
                 "basis_pressure.bin"):
        assert (resumed / name).read_bytes() == fresh[name], name


@pytest.mark.parametrize("record", [
    None, b"{not json", b"\xff\xfe", b"[1, 2]", b'{"stages": "fom pod"}',
    b'{"stages": ["fom", "pod"], "config": {"geometry": 1}}'])
def test_a_record_that_is_missing_or_unreadable_resumes_nothing(
        tmp_path, count_calls, record):
    run_small_pipeline(tmp_path)
    path = tmp_path / "run_meta.json"
    if record is None:  # a record without the config, as older runs wrote it
        meta = json.loads(path.read_text())
        del meta["config"], meta["stages"]
        record = json.dumps(meta).encode()
    path.write_bytes(record)
    calls = count_offline_work(count_calls)
    assert run_small_pipeline(tmp_path).resumed == ()
    assert (calls["run_fom"], calls["build_basis"]) == (1, 2)


def test_a_run_that_fails_after_rewriting_an_artifact_leaves_no_record(tmp_path):
    run_small_pipeline(tmp_path)
    raw = base_raw()
    raw["fom"]["nu"] = 4e-3
    raw["rom"] = {"r": 50}
    with pytest.raises(ConfigError) as err:
        run_small_pipeline(tmp_path, raw)
    assert err.value.name == "rom_invalid"
    assert not (tmp_path / "run_meta.json").exists()
    # so the next run computes every stage again
    assert run_small_pipeline(tmp_path).resumed == ()


def channel_raw():
    return {
        "geometry": {"width": 2.0, "height": 1.0, "nx": 8, "ny": 4,
                     "hole": [0.5, 0.25, 0.75, 0.5]},
        "case": {"name": "channel",
                 "parameters": {"u_max": 0.3, "pulse_amplitude": 5.0,
                                "pulse_period": 0.04}},
        "fom": {
            "scheme": "graddiv", "nu": 5e-3, "dt": 1e-2, "t_final": 0.06,
            "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.02, 0.06],
        },
        "pod": {"center": True},
        "rom": {"r_values": [2]},
    }


def test_each_pipeline_call_on_a_case_with_an_obstacle_builds_one_drag_lift_probe(
        tmp_path, count_calls):
    # the probe comes with the posed problem, whichever stages then read it
    raw = channel_raw()
    count_calls(podflow.harness, "DragLiftProbe", "probe")
    run_small_pipeline(tmp_path, raw, stop_after="fom")
    assert count_calls.calls["probe"] == 1
    assert run_small_pipeline(tmp_path, raw, stop_after="pod").resumed == ("fom",)
    assert count_calls.calls["probe"] == 2
    assert run_small_pipeline(tmp_path, raw).resumed == ("fom",)
    assert count_calls.calls["probe"] == 3


def test_pipeline_channel_case_reports_drag_and_lift(tmp_path):
    result = run_small_pipeline(tmp_path, channel_raw())
    header, qoi = read_csv(tmp_path / "qoi.csv")
    assert np.all(np.isfinite(qoi[:, 2])), "drag must be recorded"
    assert np.all(np.isfinite(qoi[:, 3])), "lift must be recorded"
    header, rom = read_csv(tmp_path / "rom.csv")
    assert np.all(np.isfinite(rom[:, 4]))
    assert result.vel_basis.mean is not None


def centred_raws():
    """The centred configs of this suite's pipelines: the cavity, and the
    channel under both integrators from a window that starts at rest,
    whose first reconstruction is the mean minus its own projection."""
    cavity = base_raw()
    cavity["fom"].update(t_final=0.09, snapshot_window=[0.045, 0.09])
    cavity["pod"], cavity["rom"] = {"center": True}, {"r_values": [4]}
    raws = {"cavity": cavity, "channel": channel_raw()}
    for integrator in ("bdf2_semi_implicit", "implicit_euler"):
        raw = channel_raw()
        raw["fom"].update(time_integrator=integrator, t_final=0.03,
                          snapshot_window=[0.0, 0.03])
        raw["rom"] = {"integrator": integrator, "r_values": [1, 2]}
        raws[f"channel_from_rest_{integrator}"] = raw
    return raws


@pytest.mark.parametrize("name", list(centred_raws()))
def test_a_centred_reduced_energy_is_never_negative(tmp_path, name):
    # near rest the terms of ½(aᵀMa + 2 mᵀa + ‖mean‖²) cancel, and their sum
    # can fall below zero; ½‖R [1, a]‖², R a factor of the Gram matrix, cannot
    result = run_small_pipeline(tmp_path, centred_raws()[name])
    ops, run = result.operators, result.rom_run
    assert ops.lift == 1
    mass = result.problem.mass
    for a, got in zip(run.a_traj.T, run.energy_traj):
        mean, moved = ops.mean, ops.vel_modes @ a
        # the terms cancel near rest, so the error is relative to their size
        scale = (np.sqrt(kinetic_energy(mean, mass)) + np.sqrt(kinetic_energy(moved, mass)))**2
        assert abs(got - kinetic_energy(mean + moved, mass)) <= 1e-12 * scale
    header, rom = read_csv(tmp_path / "rom.csv")
    assert np.all(rom[:, header.index("E_kin")] >= 0.0)


def test_channel_pipeline_without_supremizers_reports_nan_reduced_drag_and_lift(
        tmp_path, monkeypatch):
    # no supremizer recovery means no reduced pressure to test drag and lift
    monkeypatch.setattr(podflow.rom, "compute_supremizers",
                        lambda problem, pres_basis: np.zeros((problem.n_velocity, 0)))
    run_small_pipeline(tmp_path, channel_raw())
    qoi = read_csv(tmp_path / "qoi.csv")[1]
    assert np.all(np.isfinite(qoi[:, 2:4]))
    rom = read_csv(tmp_path / "rom.csv")[1]
    assert np.all(np.isnan(rom[:, 4:6]))


def test_grad_div_pipeline_recovers_pressure_with_rom_r_pressure_modes(tmp_path):
    # the main run's reduced drag and lift recover pressure from
    # rom.r_pressure supremizers, as the coupled scheme solves for as many
    run_small_pipeline(tmp_path / "default", channel_raw())
    raw = channel_raw()
    raw["rom"]["r_pressure"] = 1
    result = run_small_pipeline(tmp_path / "one", raw)
    assert result.operators.recovery.coupling.shape == (1, 1)
    default = read_csv(tmp_path / "default" / "rom.csv")[1]
    one = read_csv(tmp_path / "one" / "rom.csv")[1]
    assert np.array_equal(one[:, 2], default[:, 2])
    assert not np.array_equal(one[:, 4], default[:, 4])


@pytest.mark.parametrize("center", [False, True])
def test_a_grad_div_build_assembles_one_convection_matrix_per_trial_function(
        tmp_path, count_calls, center):
    # the reduced model, its pressure recovery and, on the channel, the
    # drag/lift forms test the same convection products: r matrices, one
    # more for the mean of a centred basis
    count_calls(podflow.rom, "convection_action", "convection")
    count_calls(podflow.harness, "build_rom_operators", "build", scoped=True)
    for name, raw in (("cavity", base_raw()), ("channel", channel_raw())):
        count_calls.calls.clear()
        raw["pod"] = {"center": center}
        result = run_small_pipeline(tmp_path / name, raw)
        assert count_calls.calls["build"] == 1
        assert result.operators.recovery is not None
        assert (result.operators.drag_lift is not None) == (name == "channel")
        r_max = max([result.operators.r, *raw["rom"].get("r_values", ())])
        assert count_calls.calls["convection in build"] == r_max + center


@pytest.mark.parametrize("center", [False, True])
def test_the_drag_lift_projection_reuses_the_build_s_convection(
        tmp_path, count_calls, center):
    # the reduced model, its recovery and the drag/lift probe all test the
    # convection of the largest build's modes: no matrix is assembled twice
    count_calls(podflow.rom, "convection_action", "convection")
    raw = channel_raw()
    raw["pod"] = {"center": center}
    result = run_small_pipeline(tmp_path, raw)
    assert result.operators.recovery is not None
    assert np.all(np.isfinite(read_csv(tmp_path / "rom.csv")[1][:, 4:6]))
    r_max = max(result.operators.r, *raw["rom"]["r_values"])
    assert count_calls.calls["convection"] == r_max + center


@pytest.fixture(scope="module")
def channel_builds():
    """{center: (full-order stage, velocity basis, build at the full
    velocity rank with its recovery and drag/lift forms)} of the channel."""
    builds = {}
    for center in (False, True):
        raw = channel_raw()
        raw["pod"] = {"center": center}
        config = ExperimentConfig.from_dict(raw)
        full = _full_order(config)
        vel_basis = podflow.pod.build_basis(full.vel_snaps, full.problem.mass, center=center)
        pres_basis = podflow.pod.build_basis(full.pres_snaps, full.problem.pressure_mass)
        builds[center] = (full, vel_basis, podflow.rom.build_rom_operators(
            full.problem, vel_basis, pres_basis, r=vel_basis.rank,
            drag_lift=full.probe.fields))
    return builds


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_drag_lift_forms_match_a_projection_at_that_size(channel_builds, data):
    full, vel_basis, ops = channel_builds[data.draw(st.booleans(), label="center")]
    rp = data.draw(st.integers(1, ops.recovery.coupling.shape[0]), label="rp")
    for r in range(1, ops.r + 1):
        direct, = podflow.rom._project(full.problem, vel_basis.modes[:, :r],
                                       vel_basis.mean, [full.probe.fields])
        assert_same_arrays(podflow.rom.truncate_operators(ops, r, rp).drag_lift, direct)


def test_the_error_table_recovers_pressure_only_at_compared_snapshots(tmp_path, count_calls):
    # desk-like stride: every fourth reduced step is a snapshot
    count_calls(podflow.rom.PressureRecovery, "recover", "recover")
    count_calls(podflow.harness, "reduced_error_table", "table", scoped=True)
    raw = base_raw()
    raw["fom"]["dt"] = 2.5e-3
    raw["fom"]["snapshot_stride"] = 4
    raw["rom"] = {"r_values": [1, 2]}
    run_small_pipeline(tmp_path, raw)
    # each row runs 16 steps between 5 snapshots, and the first snapshot,
    # the start, has no reduced pressure: 4 recoveries per row, not 17
    assert count_calls.calls["recover in table"] == 2 * 4


def test_the_error_table_builds_the_reduced_stiffness_once(tmp_path, count_calls):
    # every row takes its c_r_h1 from a leading block of one full-rank matrix
    count_calls(podflow.harness, "reduced_stiffness", "stiffness")
    count_calls(podflow.harness, "reduced_error_table", "table", scoped=True)
    raw = base_raw()
    raw["rom"] = {"r_values": [1, 2, 3]}
    run_small_pipeline(tmp_path, raw)
    assert count_calls.calls["table"] == 1
    assert count_calls.calls["stiffness in table"] == 1


def test_the_error_table_takes_each_rows_principal_angles_from_one_gram_matrix(
        tmp_path, monkeypatch):
    # each row's coupling constant is the one of its own modes and
    # supremizers, measured in a small dense metric, not the full stiffness
    angles = []
    principal_angle_cosine = podflow.harness.principal_angle_cosine

    def record(g_vv, g_zz, g_vz):
        assert g_vz.shape == (g_vv.shape[0], g_zz.shape[0])
        angles.append((g_vv.shape[0], g_zz.shape[0], principal_angle_cosine(g_vv, g_zz, g_vz)))
        return angles[-1][-1]

    monkeypatch.setattr(podflow.harness, "principal_angle_cosine", record)
    raw = base_raw()
    raw["rom"] = {"r_values": [1, 2, 3]}
    result = run_small_pipeline(tmp_path, raw)
    problem = result.problem
    assert [r for r, _, _ in angles] == [1, 2, 3]
    for r, rp, alpha in angles:
        z = podflow.rom.compute_supremizers(problem, result.pres_basis.modes[:, :rp])
        direct = principal_angle_cosine(*gradient_gram_blocks(
            result.vel_basis.modes[:, :r], z, problem.stiffness))
        assert abs(alpha - direct) <= 1e-12, r


def test_equal_order_channel_assembles_one_grad_div_matrix(tmp_path, count_calls):
    # the reduced operators and the probe's projection share the problem's
    # unit grad-div matrix
    for module in (podflow.fom, podflow.rom):
        if hasattr(module, "assemble_grad_div"):
            count_calls(module, "assemble_grad_div", "grad_div")
    raw = channel_raw()
    raw["fom"]["scheme"] = "lps"
    del raw["fom"]["stabilization"]
    run_small_pipeline(tmp_path, raw)
    assert count_calls.calls["grad_div"] == 1


def test_full_rank_coupled_replay_reproduces_the_full_order_drag_and_lift(tmp_path):
    # implicit Euler needs one level, so the reduced run from the first
    # snapshot replays the full-order steps, and its step residuals test
    # like the full-order ones
    raw = channel_raw()
    raw["fom"]["scheme"] = "lps"
    del raw["fom"]["stabilization"]
    raw["fom"]["time_integrator"] = "implicit_euler"
    raw["rom"]["r_pressure"] = 5
    run_small_pipeline(tmp_path, raw)
    qoi = read_csv(tmp_path / "qoi.csv")[1]
    rom = read_csv(tmp_path / "rom.csv")[1]
    assert rom.shape[0] == 5
    for row in rom[1:]:
        ref = qoi[np.argmin(np.abs(qoi[:, 0] - row[0]))]
        assert abs(ref[0] - row[0]) <= 1e-12
        assert np.all(np.abs(row[4:6] - ref[2:4])
                      <= 1e-9 * np.maximum(1.0, np.abs(ref[2:4])))


# the implicit-Euler channel_raw() run's full-order Picard sweeps and
# triangular solves
SWEEPS, LU_SOLVES = 32, 38


class _Factor:
    """A SuperLU factor whose solves :func:`count_calls` can count."""

    def __init__(self, lu):
        self.lu, self.perm_c = lu, lu.perm_c

    def solve(self, b):
        return self.lu.solve(b)


def count_sweeps(monkeypatch, count_calls):
    """Count each full-order Picard sweep as ``"sweep"``."""
    solve_step = podflow.fom.solve_step

    def counting(integrator, sweep, *args):
        def counted(w):
            count_calls.calls["sweep"] += 1
            return sweep(w)
        return solve_step(integrator, counted, *args)

    monkeypatch.setattr(podflow.fom, "solve_step", counting)


def test_implicit_euler_sweeps_solve_only_as_exactly_as_picard_needs(count_calls, monkeypatch):
    # Picard starts from the extrapolated level, and a sweep makes one
    # correction against the run's factor from its convecting field: one
    # triangular solve each, the ordering and the factoring sweeps' too.
    # Only the accepted sweep's system is solved again to 4 eps, here with
    # one correction per step
    raw = channel_raw()
    raw["fom"]["time_integrator"] = "implicit_euler"
    cfg = ExperimentConfig.from_dict(raw)
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a, **kwargs: _Factor(splu(a, **kwargs)))
    count_sweeps(monkeypatch, count_calls)
    count_calls(podflow.harness, "run_fom", "run", scoped=True)
    count_calls(_Factor, "solve", "lu solve")
    _full_order(cfg)
    assert count_calls.calls["sweep"] == SWEEPS
    assert count_calls.calls["lu solve in run"] == LU_SOLVES == SWEEPS + cfg.fom.n_steps


def test_implicit_euler_assembles_convection_only_on_the_sweeps_that_factor(
        count_calls, monkeypatch):
    # the ordering and the factoring sweeps assemble their convection; the
    # corrections act with it unassembled, and each step's accepted sweep
    # sums the element matrices of its correction for the 4 eps solve and
    # the probe's residual
    raw = channel_raw()
    raw["fom"]["time_integrator"] = "implicit_euler"
    cfg = ExperimentConfig.from_dict(raw)
    count_sweeps(monkeypatch, count_calls)
    count_calls(podflow.harness, "run_fom", "run", scoped=True)
    count_calls(podflow.fom, "convection_matrix", "convection")
    count_calls(podflow.fom.FOMProblem, "correct", "chord")
    _full_order(cfg)
    assert count_calls.calls["convection in run"] == 2
    assert count_calls.calls["chord in run"] == count_calls.calls["sweep"] - 2 == SWEEPS - 2


@pytest.mark.parametrize("integrator", ["implicit_euler", "bdf2_semi_implicit"])
def test_bdf2_factors_every_step_and_implicit_euler_twice_per_run(integrator, count_calls):
    # a BDF2 step solves once, bit for bit splu; implicit-Euler sweeps
    # correct against the run's one factor, made at the second sweep after
    # the first step's ordering factorization
    raw = channel_raw() if integrator == "implicit_euler" else base_raw()
    raw["fom"]["time_integrator"] = integrator
    cfg = ExperimentConfig.from_dict(raw)
    count_calls(podflow.harness, "run_fom", "run", scoped=True)
    count_calls(scipy.sparse.linalg, "splu", "splu")
    count_calls(podflow.fom.FOMProblem, "solve_coupled", "solve")
    _full_order(cfg)
    steps = cfg.fom.n_steps
    assert count_calls.calls["run"] == 1 and steps == 6
    if integrator == "implicit_euler":
        # the ordering and the factoring sweeps, and each step's accepted
        # sweep solved again; the other sweeps correct unassembled
        assert count_calls.calls["solve in run"] == 2 + steps
        assert count_calls.calls["splu in run"] == 2
    else:
        assert count_calls.calls["solve in run"] == steps
        assert count_calls.calls["splu in run"] == steps


@pytest.fixture(scope="module", params=["bdf2_semi_implicit", "implicit_euler"])
def channel_steps(request):
    raw = channel_raw()
    raw["fom"]["time_integrator"] = request.param
    cfg = ExperimentConfig.from_dict(raw)
    full = _full_order(cfg)
    return full.problem, full.probe, full.run.final_state.residual


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_drag_and_lift_do_not_depend_on_the_probe_extension(channel_steps, seed):
    problem, probe, residual = channel_steps
    space = problem.vel_space
    n = space.n_scalar
    boundary = space.boundary_scalar_dofs()
    obstacle = space.boundary_scalar_dofs("obstacle")
    fields = np.random.default_rng(seed).normal(size=probe.fields.shape)
    fields[np.concatenate([boundary, n + boundary])] = 0.0
    fields[obstacle, 0] = fields[n + obstacle, 1] = 1.0
    harmonic = probe.fields.T @ residual
    assert np.abs(fields.T @ residual - harmonic).max() \
        <= 1e-10 * np.abs(harmonic).max()


def test_pipeline_channel_case_requires_a_hole(tmp_path):
    raw = base_raw()
    raw["case"] = {"name": "channel", "parameters": {}}
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError) as err:
        run_pipeline(cfg, out_dir=tmp_path)
    assert err.value.name == "case_geometry"


def test_reduced_run_takes_the_full_order_integrator(tmp_path):
    raw = base_raw()
    raw["fom"]["time_integrator"] = "implicit_euler"
    run_small_pipeline(tmp_path / "fom_only", raw)
    raw["rom"]["integrator"] = "implicit_euler"
    run_small_pipeline(tmp_path / "both", raw)
    assert (tmp_path / "fom_only" / "rom.csv").read_bytes() == \
        (tmp_path / "both" / "rom.csv").read_bytes()


def test_pipeline_wraps_runtime_failures_with_the_stage_name(tmp_path):
    raw = base_raw()
    raw["fom"]["time_integrator"] = "implicit_euler"
    raw["fom"]["nonlinear_max_iterations"] = 1
    raw["fom"]["nonlinear_tolerance"] = 1e-15
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg, out_dir=tmp_path)
    assert err.value.stage == "fom"


def test_pipeline_decaying_vortex_case_tracks_the_exact_solution(tmp_path):
    raw = {
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "taylor_green"},
        "fom": {
            "scheme": "lps", "nu": 1e-2, "dt": 1e-2, "t_final": 0.05,
            "snapshot_window": [0.0, 0.05],
        },
        "pod": {},
        "rom": {},
    }
    result = run_small_pipeline(tmp_path, raw)
    header, qoi = read_csv(tmp_path / "qoi.csv")
    energy = qoi[:, 1]
    assert np.all(np.diff(energy) < 0.0), "the vortex decays"
    # The boundary values decay in time while each mode carries fixed
    # boundary data, so the reduced replay tracks the snapshots closely but
    # not to rounding as in the enclosed-flow cases.
    assert result.error_table[0][1] < 1e-3


# -- studies -------------------------------------------------------------------------


def vortex_raw(t_final=4e-2):
    """The convergence study's level 0: the LPS decaying vortex on a 4 x 4 mesh."""
    return {
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "taylor_green"},
        "fom": {"scheme": "lps", "nu": 1e-2, "dt": 2e-2, "t_final": t_final,
                "snapshot_window": [0.0, t_final]},
    }


def test_convergence_study_orders_exceed_the_scheme_floor(tmp_path):
    rows = convergence_study(ExperimentConfig.from_dict(vortex_raw()), levels=2,
                             out_dir=tmp_path)
    assert [row[:2] for row in rows] == [(4, 2e-2), (8, 2e-2 / 4)]
    (_, _, coarse, _, _, _), (_, _, fine, order, _, interp_order) = rows
    assert order > 2.0 and fine < coarse
    assert abs(interp_order - 3.0) < 0.35
    header, data = read_csv(tmp_path / "convergence.csv")
    assert header == ["nx", "dt", "error", "order", "interp_error",
                      "interp_order"]
    assert data.shape[0] == 2 and np.isnan(data[0, 3]) and data[1, 3] == order


def test_convergence_study_needs_no_snapshot_window(tmp_path, monkeypatch):
    # the levels record no snapshots, so the window changes nothing
    runs, run_fom = [], podflow.harness.run_fom
    monkeypatch.setattr(podflow.harness, "run_fom",
                        lambda *args, **kwargs: runs.append(run_fom(*args, **kwargs)) or runs[-1])
    raw = vortex_raw()
    convergence_study(ExperimentConfig.from_dict(raw), levels=2, out_dir=tmp_path / "window")
    del raw["fom"]["snapshot_window"]
    convergence_study(ExperimentConfig.from_dict(raw), levels=2, out_dir=tmp_path / "none")
    assert (tmp_path / "window" / "convergence.csv").read_bytes() == \
        (tmp_path / "none" / "convergence.csv").read_bytes()
    assert len(runs) == 4
    assert all(snaps.n_snapshots == 0 for run in runs for snaps in run.snapshots)


def test_convergence_study_rejects_a_single_level():
    with pytest.raises(ConfigError) as err:
        convergence_study(ExperimentConfig.from_dict(vortex_raw()), levels=1)
    assert err.value.name == "study_invalid"


def test_convergence_study_rejects_a_final_time_off_the_step_grid(count_calls):
    # fom.t_final is checked against fom.dt when the config loads; each
    # level's step divides it
    count_calls(podflow.harness, "run_fom", "run_fom")
    raw = vortex_raw(t_final=0.05)
    with pytest.raises(ConfigError) as err:
        convergence_study(ExperimentConfig.from_dict(raw), levels=2)
    assert err.value.name == "fom_invalid"
    assert count_calls.calls["run_fom"] == 0, "rejected before the full-order run"


def test_convergence_study_rejects_a_case_other_than_the_vortex(count_calls):
    # only the vortex has the exact velocity the errors are measured against
    count_calls(podflow.harness, "run_fom", "run_fom")
    with pytest.raises(ConfigError) as err:
        convergence_study(ExperimentConfig.from_dict(base_raw()), levels=2)
    assert err.value.name == "study_invalid" and "cavity" in str(err.value)
    assert count_calls.calls["run_fom"] == 0, "rejected before the full-order run"


# -- separable forcing and the reduced online phase ----------------------------------


def _forced_case_raws():
    channel = base_raw()
    channel["geometry"] = {"width": 2.0, "height": 1.0, "nx": 16, "ny": 8,
                           "hole": [0.5, 0.375, 0.625, 0.625]}
    channel["case"] = {"name": "channel",
                       "parameters": {"pulse_amplitude": 5.0, "pulse_period": 0.1}}
    stokes = base_raw()
    stokes["case"] = {"name": "stokes_poly", "parameters": {}}
    return {"cavity": base_raw(), "channel": channel, "stokes_poly": stokes}


@pytest.fixture(scope="module")
def forced_problems():
    problems = {}
    for name, raw in _forced_case_raws().items():
        cfg = ExperimentConfig.from_dict(raw)
        problems[name] = FOMProblem(cfg.geometry.build(), cfg.fom,
                                    build_case(cfg).flow_case)
    return problems


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(t=st.floats(min_value=0.0, max_value=2.0))
def test_separable_loads_match_the_assembled_forcing(forced_problems, t):
    for name, problem in forced_problems.items():
        forcing = problem.case.forcing
        assert isinstance(forcing, SeparableForcing), name
        separable = problem.load_shapes @ forcing.coefficients(t)
        assembled = problem.load_vector(t)
        assert np.abs(separable - assembled).max() \
            <= 1e-13 * np.abs(assembled).max(), name


def test_full_order_loads_equal_the_assembled_forcing_bit_for_bit():
    # the shapes are evaluated once per problem; each load sums their kept
    # values with the same arithmetic as assembling the forcing itself
    for name, raw in _forced_case_raws().items():
        cfg = ExperimentConfig.from_dict(raw)
        case = build_case(cfg).flow_case
        forcing = case.forcing
        counted = []

        def counting(shape):
            def call(x, y):
                counted.append(shape)
                return shape(x, y)
            return call

        wrapped = SeparableForcing(tuple(counting(g) for g in forcing.shapes),
                                   forcing.coefficients, forcing.scale)
        problem = FOMProblem(cfg.geometry.build(), cfg.fom, replace(case, forcing=wrapped))
        for t in (0.0, 0.013, 0.05, 0.37, 1.9):
            want = assemble_load(problem.vel_space, summed_forcing(forcing), t)
            got = problem.load_vector(t)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, t)
        want = forcing.scale * np.column_stack(
            [assemble_load(problem.vel_space, g) for g in forcing.shapes])
        assert np.array_equal(problem.load_shapes.view(np.int64), want.view(np.int64)), name
        assert counted == list(forcing.shapes), name


_workloads_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_workloads_spec)
_workloads_spec.loader.exec_module(workloads)


def _time_levels(config):
    """The full-order run's time levels, summed step by step as it steps,
    and the levels of the reduced runs from its first two snapshots on."""
    fom = config.fom
    levels = [0.0]
    for _ in range(fom.n_steps):
        levels.append(levels[-1] + fom.dt)
    levels = np.array(levels)
    starts = levels[snapshot_steps(fom)[:2]]
    n = round((config.effective_rom_t_final() - starts[0]) / fom.dt) + 1
    return [levels] + [t0 + fom.dt * np.arange(n) for t0 in starts]


@pytest.mark.parametrize("case", ["own", "stokes_poly"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_time_factors_of_an_array_of_times_are_the_per_time_ones_bit_for_bit(name, case):
    # a reduced run takes all its loads from one call on its time levels;
    # each must be the load of a per-time call, as the full-order run makes
    raw = workloads.workload_config(name)
    if case != "own":
        raw["case"] = {"name": case, "parameters": {}}
    config = ExperimentConfig.from_dict(raw)
    forcing = build_case(config).flow_case.forcing
    for times in _time_levels(config):
        got = forcing.coefficients(times)
        assert got.shape == (len(forcing.shapes), times.size)
        for t, column in zip(times, got.T):
            for scalar in (float(t), t):
                want = forcing.coefficients(scalar)
                assert want.shape == (len(forcing.shapes),)
                assert np.array_equal(column.view(np.int64), want.view(np.int64)), (t, scalar)


def _check_reduced_phase_builds_once_and_assembles_no_load(tmp_path, count_calls, raw):
    count_calls(podflow.fom, "_integrate_load", "fom load")
    count_calls(podflow.harness, "build_rom_operators", "build")
    count_calls(podflow.rom, "_project", "projection")
    count_calls(podflow.harness, "run_rom", "run_rom", scoped=True)
    raw["rom"]["r_values"] = [1, 2, 3]
    result = run_pipeline(ExperimentConfig.from_dict(raw), out_dir=tmp_path)
    calls = count_calls.calls
    assert calls["run_rom"] == 4
    # one projection pass makes the model, its recovery and drag/lift forms
    assert calls["build"] == 1 and calls["projection"] == 1
    assert calls["fom load in run_rom"] == 0
    # one load quadrature per full-order step and one per separable forcing
    # term, which the reduced models share; reduced drag and lift make none
    shapes = result.problem.case.forcing.shapes
    assert calls["fom load"] == result.fom_run.times.size + len(shapes)


def test_reduced_phase_builds_once_and_assembles_no_load(tmp_path, count_calls):
    _check_reduced_phase_builds_once_and_assembles_no_load(tmp_path, count_calls,
                                                           base_raw())


def test_channel_reduced_phase_builds_once_and_assembles_no_load(tmp_path, count_calls):
    # the reduced drag and lift add no full-order load to the channel
    _check_reduced_phase_builds_once_and_assembles_no_load(tmp_path, count_calls,
                                                           channel_raw())


def test_importing_the_package_skips_the_slow_optional_modules():
    # set-up (import, config, mesh, FOMProblem) of both schemes and of the
    # closed-form cases loads none of the modules that only solves, studies
    # and tests call
    code = """
import json, sys
import podflow
from podflow.harness import ExperimentConfig, build_case
for raw in json.loads(sys.argv[1]):
    config = ExperimentConfig.from_dict(raw)
    podflow.FOMProblem(config.geometry.build(), config.fom, build_case(config).flow_case)
slow = ("scipy.special", "scipy.linalg", "scipy.sparse.linalg", "sympy", "scipy.stats")
print(sorted(m for m in slow if m in sys.modules))
"""
    lps = base_raw()
    lps["fom"].update(scheme="lps", stabilization={})
    closed_forms = []
    for name in ("taylor_green", "stokes_poly"):
        raw = base_raw()
        raw["case"] = {"name": name, "parameters": {}}
        closed_forms.append(raw)
    env = {**os.environ, "PYTHONPATH": str(Path(podflow.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code,
                          json.dumps([lps, base_raw(), *closed_forms])],
                         capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"

"""Experiment drivers: configuration, flow cases, pipeline stages and studies.

A JSON experiment configuration selects a geometry, a flow case, the
full-order scheme, whether POD centres the velocity snapshots, and the
reduced run, whose section alone sets the reduced sizes: the velocity size
and the error table's sizes default to the velocity basis rank, and a
pressure size r_p to min(r, pressure rank).
Each section is read into a frozen dataclass whose fields are the accepted
keys with their defaults; a value is checked against its field's annotation
(a nested dataclass reads a nested section), and every malformed input
raises a :class:`ConfigError` whose name says what was wrong.

The flow cases are the forced cavity, the holed channel and two closed
forms written as NumPy expressions: the decaying Taylor-Green vortex,
whose velocity is the boundary data, the initial state and the convergence
study's reference, and the steady ``stokes_poly`` flow, whose body force
is derived by hand.

``run_pipeline`` needs ``fom.snapshot_window`` and checks it before any
full-order step. It runs three stages and writes deterministic CSV and
binary artifacts. The fom stage (``_full_order``) poses the configured case
on a mesh, with the drag/lift probe when the case has an obstacle, and runs
the full-order model; its snapshots are the states that model computed.
The pod stage extracts the velocity and pressure bases, every mode above
the rank cutoff, and centres the velocity basis on the snapshot mean when
``pod.center`` asks. The rom stage builds the reduced operators, with their
pressure recovery and drag/lift forms, once at the largest sizes, runs the
reduced model from the first snapshot's coefficients and the reduced-size
error sweep on their leading blocks; reduced drag and lift test the reduced
steps' residuals. ``convergence_study`` runs the fom stage alone, without
snapshots, to measure observed orders on refinements of a decaying-vortex
config. A run's ``run_meta.json`` records its artifacts, config, stages and
the SHA-256 of the package source that wrote it, and its ``rom.csv`` the
reduced run's grad-div coefficient and coefficient norm. Only the
full-order run resumes: a later pod or rom run into its directory reads its
two snapshot containers in place of the full-order run while the source and
the config the snapshots depend on are unchanged (geometry, case and fom).
The mesh is always built from the geometry and the bases from the
snapshots; if the source or that config differs, or in a new directory,
every stage runs. So another ``pod.center``, a longer reduced horizon
(``rom.t_final``) or another adaptation (``rom.adaptive``) on one
full-order run is another ``run_pipeline`` call into the same directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .fe_space import interpolate
from .fom import (
    _TIME_TOL,
    FlowCase,
    FOMConfig,
    FOMProblem,
    SeparableForcing,
    _whole_steps,
    load_snapshots,
    run_fom,
    save_snapshots,
    snapshot_steps,
)
from .mesh import MeshError, build_rect_mesh, save_mesh
from .metrics import (
    DragLiftProbe,
    analytic_l2_error,
    discrete_l2_error,
    error_indicators,
    kinetic_energy,
)
from .pod import build_basis, project_L2, reduced_stiffness, save_basis
from .rom import (
    AdaptiveMuConfig,
    build_rom_operators,
    principal_angle_cosine,
    reduced_pressure,
    run_rom,
    save_operators,
    step_residuals,
    truncate_operators,
)


class ConfigError(ValueError):
    """Configuration rejection with a stable machine-readable name."""

    def __init__(self, name, message):
        self.name = name
        super().__init__(f"{name}: {message}")


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextmanager
def _stage(name):
    try:
        yield
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# -- configuration ----------------------------------------------------------------


def _require_keys(block, allowed, required, section):
    if not isinstance(block, dict):
        raise ConfigError("config_type", f"section {section!r} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(
            "unknown_key",
            f"section {section!r} does not accept {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(
            "missing_key",
            f"section {section!r} needs {sorted(missing)}")


# The JSON types each scalar annotation accepts, and its name in messages.
_SCALARS = {
    float: ((int, float), "a finite number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    dict: ((dict,), "an object"),
}


def _read_value(kind, value, key, error):
    """Parse one JSON value by the annotation ``kind``; ``error`` names the
    :class:`ConfigError` raised when it does not parse."""
    if is_dataclass(kind):
        return _read_section(kind, value, key)
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(error, f"{key} must be a list, got {value!r}")
        return tuple(_read_value(get_args(kind)[0], item, f"{key}[{i}]", error)
                     for i, item in enumerate(value))
    accepted, name = _SCALARS[kind]
    # JSON true/false are Python ints, so only a bool field takes them. The
    # bound is exact for ints of any size and rejects nan and infinities.
    if (isinstance(value, accepted) and (kind is bool or not isinstance(value, bool))
            and (kind is not float or abs(value) <= sys.float_info.max)):
        return kind(value)
    raise ConfigError(error, f"{key} must be {name}, got {value!r}")


def _read_section(cls, block, section):
    """Build the dataclass ``cls`` from the JSON object ``block``.

    The fields of ``cls`` are the accepted keys and their defaults; a field
    without a default is required, and null is accepted only where the
    default is None. A value that does not parse by its field's annotation,
    or a combination the constructor rejects with a bare ``ValueError``,
    raises ``<top section>_invalid``.
    """
    known = {f.name: f for f in fields(cls)}
    _require_keys(block, known,
                  [name for name, f in known.items()
                   if f.default is MISSING and f.default_factory is MISSING],
                  section)
    kinds = get_type_hints(cls)
    error = section.split(".")[0] + "_invalid"
    values = {name: _read_value(kinds[name], value, f"{section}.{name}", error)
              for name, value in block.items()
              if value is not None or known[name].default is not None}
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(error, f"{section}: {exc}") from exc


@dataclass(frozen=True)
class GeometryConfig:
    """Rectangular channel geometry with an optional rectangular hole."""

    width: float = 1.0
    height: float = 1.0
    nx: int = 8
    ny: int = 8
    hole: tuple[float, ...] = None

    def __post_init__(self):
        if self.width <= 0.0 or self.height <= 0.0:
            raise ConfigError("geometry_invalid", "width and height must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("geometry_invalid", "nx and ny must be at least 1")
        if self.hole is not None and len(self.hole) != 4:
            raise ConfigError("geometry_invalid", "hole needs (x0, y0, x1, y1)")

    def build(self):
        try:
            return build_rect_mesh(self.width, self.height, self.nx, self.ny,
                                   hole=self.hole)
        except MeshError as exc:
            raise ConfigError("geometry_invalid", str(exc)) from exc


@dataclass(frozen=True)
class PODBlock:
    """Basis extraction settings: whether the velocity basis is built from
    the snapshots centred on their mean, which it then keeps. A basis keeps
    every mode; the rom section sets the sizes."""

    center: bool = False


@dataclass(frozen=True)
class AdaptiveBlock(AdaptiveMuConfig):
    """The reduced run's grad-div controller: its update rule and whether it
    runs. It starts from the run's own coefficient, ``rom.mu``."""

    enabled: bool = False

    def __post_init__(self):
        # a nested section's bare ValueError would read rom_invalid
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError("adaptive_invalid", str(exc)) from exc


@dataclass(frozen=True)
class ROMBlock:
    """Reduced-run settings."""

    r: int = None  # defaults to the velocity basis rank
    r_pressure: int = None  # defaults to min(r, pressure basis rank)
    r_values: tuple[int, ...] = None  # the error table's sizes; defaults to (rank,)
    t_final: float = None  # defaults to the snapshot window end
    integrator: str = None  # the full-order integrator; only it is accepted
    mu: float = None  # defaults to the full-order grad-div coefficient
    adaptive: AdaptiveBlock = field(default_factory=AdaptiveBlock)

    def __post_init__(self):
        if self.r is not None and self.r < 1:
            raise ConfigError("rom_invalid", "r must be at least 1")
        if self.r_pressure is not None and self.r_pressure < 1:
            raise ConfigError("rom_invalid", "r_pressure must be at least 1")
        if self.r_values is not None:
            if not self.r_values or any(int(v) < 1 for v in self.r_values):
                raise ConfigError("rom_invalid", "r_values must be positive sizes")
        if self.mu is not None and self.mu < 0.0:
            raise ConfigError("rom_invalid", "mu must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    geometry: GeometryConfig
    case_name: str
    case_parameters: dict
    fom: FOMConfig
    pod: PODBlock
    rom: ROMBlock

    def __post_init__(self):
        if self.case_name not in _CASES:
            raise ConfigError(
                "case_unknown",
                f"unknown case {self.case_name!r}; available: {sorted(_CASES)}")
        window = self.fom.snapshot_window
        if (window is not None and self.rom.t_final is not None
                and self.rom.t_final < window[1] - _TIME_TOL):
            raise ConfigError(
                "rom_window",
                f"rom.t_final={self.rom.t_final} ends before the snapshot "
                f"window end {window[1]}")
        if self.rom.t_final is not None and not _whole_steps(self.rom.t_final, self.fom.dt):
            raise ConfigError("rom_invalid", f"rom.t_final={self.rom.t_final} is not a "
                              f"whole number of steps of fom.dt={self.fom.dt}")
        if self.rom.integrator not in (None, self.fom.time_integrator):
            raise ConfigError("rom_invalid", f"rom.integrator={self.rom.integrator!r} differs "
                              f"from fom.time_integrator={self.fom.time_integrator!r}")
        if self.rom.adaptive.enabled and self.fom.scheme != "graddiv":
            raise ConfigError("adaptive_requires_graddiv",
                              "adaptive mu applies to the grad-div scheme only")

    def effective_rom_mu(self):
        if self.rom.mu is not None:
            return self.rom.mu
        if self.fom.scheme == "graddiv":
            return self.fom.stabilization.grad_div
        return 0.0

    def effective_rom_t_final(self):
        if self.rom.t_final is not None:
            return self.rom.t_final
        return self.fom.snapshot_window[1]

    @classmethod
    def from_dict(cls, raw):
        _require_keys(raw, ("geometry", "case", "fom", "pod", "rom"),
                      ("geometry", "case", "fom"), "config")
        case_block = raw["case"]
        _require_keys(case_block, ("name", "parameters"), ("name",), "case")
        return cls(
            geometry=_read_section(GeometryConfig, raw["geometry"], "geometry"),
            case_name=_read_value(str, case_block["name"], "case.name",
                                  "config_type"),
            case_parameters=_read_value(dict, case_block.get("parameters", {}),
                                        "case.parameters", "config_type"),
            fom=_read_section(FOMConfig, raw["fom"], "fom"),
            pod=_read_section(PODBlock, raw.get("pod", {}), "pod"),
            rom=_read_section(ROMBlock, raw.get("rom", {}), "rom"),
        )

    @classmethod
    def from_json(cls, path, overrides=()):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config_io", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config_parse", f"{path}: {exc}") from exc
        apply_overrides(raw, overrides)
        return cls.from_dict(raw)


def apply_overrides(raw, overrides):
    """Apply ``section.key=value`` assignments to a raw config dict in place.

    Values parse as JSON when possible and fall back to plain strings, so
    ``rom.mu=0.4`` assigns a number and ``case.name=cavity`` a string.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config_type", "configuration must be an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override_syntax",
                              f"override {item!r} is not key=value")
        dotted, text = item.split("=", 1)
        keys = dotted.split(".")
        if any(not k for k in keys):
            raise ConfigError("override_syntax",
                              f"override {item!r} has an empty key segment")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = raw
        for key in keys[:-1]:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError("override_syntax",
                                  f"override {item!r} descends into a non-object")
        target[keys[-1]] = value
    return raw


# -- closed-form cases ------------------------------------------------------------


def _taylor_green(nu):
    """The decaying vortex (Taylor & Green 1937): ``velocity(x, y, t)``
    solves the Navier-Stokes equations on the unit square with zero body
    force and pressure -(cos 2 pi x + cos 2 pi y) decay^2 / 4."""
    def velocity(x, y, t):
        decay = np.exp(-(2.0 * nu) * np.pi**2 * t)
        return (-decay * np.sin(np.pi * y) * np.cos(np.pi * x),
                decay * np.sin(np.pi * x) * np.cos(np.pi * y))

    return velocity


def _stokes_poly_forcing(nu):
    """The body force ``(x, y) -> (fx, fy)`` that makes the steady flow of
    stream function X(x) Y(y), X = x^2 (1 - x)^2 and Y likewise, with
    pressure x^3 + y^3 - 1/2 solve the Navier-Stokes equations; the
    velocity is u = X Y', v = -X' Y and vanishes on the unit square's
    boundary."""
    def derivatives(s):
        return (s**2 * (1.0 - s) ** 2, 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s),
                2.0 - 12.0 * s + 12.0 * s**2, 24.0 * s - 12.0)

    def forcing(x, y):
        X, X1, X2, X3 = derivatives(x)
        Y, Y1, Y2, Y3 = derivatives(y)
        u, v = X * Y1, -X1 * Y
        fx = -nu * (X2 * Y1 + X * Y3) + u * X1 * Y1 + v * X * Y2 + 3.0 * x**2
        fy = nu * (X3 * Y + X1 * Y2) - u * X2 * Y - v * X1 * Y1 + 3.0 * y**2
        return fx, fy

    return forcing


# -- flow case registry -------------------------------------------------------------


@dataclass
class CaseBundle:
    """Everything the pipeline needs to pose one flow problem."""

    flow_case: FlowCase
    has_obstacle: bool = False
    reference_velocity: float = None
    reference_length: float = None
    # the closed-form velocity(x, y, t) the run starts from at t = 0
    exact_velocity: object = None


def _zero_bc(x, y, t):
    zero = np.zeros_like(np.asarray(x, dtype=float))
    return zero, zero.copy()


def _check_params(params, allowed, case):
    """The case parameters as floats; an unknown name or a value that is
    not a finite number raises ``case_parameter``."""
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(
            "case_parameter",
            f"case {case!r} does not accept {sorted(unknown)}")
    return {key: _read_value(float, value, f"case.parameters.{key}",
                             "case_parameter")
            for key, value in params.items()}


def _outer_tags(config):
    tags = ["inlet", "outlet", "wall"]
    if config.geometry.hole is not None:
        tags.append("obstacle")
    return tags


def _sine_shape(i, j, component):
    """``sin(i pi x) sin(j pi y)`` in one velocity component, the other
    zero; a zero frequency drops its factor."""
    def shape(x, y):
        value = np.sin(i * np.pi * x) if i else np.ones_like(x)
        if j:
            value = value * np.sin(j * np.pi * y)
        zero = np.zeros_like(value)
        return (value, zero) if component == 0 else (zero, value)

    return shape


# The cavity force, one term per row: the x and y frequencies of its shape,
# the velocity component it drives, and its time factor trig(k w t + phase).
_CAVITY_TERMS = (
    (0, 1, 0, np.cos, 1, 0.0),
    (1, 2, 0, np.sin, 2, 0.3),
    (3, 1, 0, np.cos, 3, -0.5),
    (2, 2, 0, np.sin, 5, 0.0),
    (1, 0, 1, np.sin, 1, 0.7),
    (2, 1, 1, np.cos, 2, 0.0),
    (1, 3, 1, np.sin, 4, -0.2),
    (3, 2, 1, np.cos, 5, 1.1),
)


def _case_cavity(config):
    """Enclosed square cavity driven by a time-periodic multi-harmonic body
    force. Every frequency is a multiple of one base period, so the flow
    (and its kinetic energy) repeats exactly over that period, and the mix
    of spatial shapes keeps the snapshot spectrum rich."""
    params = _check_params(config.case_parameters, ("amplitude", "period"),
                           "cavity")
    amplitude = params.get("amplitude", 1.0)
    period = params.get("period", 0.2)
    if period <= 0.0:
        raise ConfigError("case_parameter", "period must be positive")
    w = 2.0 * np.pi / period

    def coefficients(t):
        return np.array([trig(k * w * t + phase)
                         for _, _, _, trig, k, phase in _CAVITY_TERMS])

    case = FlowCase(
        "cavity",
        dirichlet={tag: _zero_bc for tag in _outer_tags(config)},
        forcing=SeparableForcing(
            tuple(_sine_shape(i, j, c) for i, j, c, _, _, _ in _CAVITY_TERMS),
            coefficients, scale=amplitude),
        zero_mean_pressure=True,
    )
    return CaseBundle(flow_case=case)


def _case_channel(config):
    params = _check_params(config.case_parameters,
                           ("u_max", "pulse_amplitude", "pulse_period"), "channel")
    geometry = config.geometry
    if geometry.hole is None:
        raise ConfigError("case_geometry",
                          "the channel case needs geometry.hole for its obstacle")
    hx0, hy0, hx1, hy1 = geometry.hole
    height = geometry.height
    u_max = params.get("u_max", 0.3)
    amplitude = params.get("pulse_amplitude", 0.0)
    period = params.get("pulse_period", 0.5)
    if period <= 0.0:
        raise ConfigError("case_parameter", "pulse_period must be positive")
    # the pulse sits in the obstacle's wake, as wide as half its height
    x0, y0 = hx1 + 0.75 * (hx1 - hx0), 0.5 * (hy0 + hy1)
    width = 0.5 * (hy1 - hy0)

    def inflow(x, y, t, um=u_max, h=height):
        u = 4.0 * um * y * (h - y) / h**2
        return u, np.zeros_like(u)

    forcing = None
    if amplitude != 0.0:
        def bump(x, y):
            value = np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / width**2)
            return np.zeros_like(value), value

        forcing = SeparableForcing(
            (bump,),
            lambda t: np.array([amplitude * np.sin(2.0 * np.pi * t / period)]))

    case = FlowCase(
        "channel",
        dirichlet={"inlet": inflow, "wall": _zero_bc, "obstacle": _zero_bc},
        forcing=forcing,
        zero_mean_pressure=False,
    )
    return CaseBundle(
        flow_case=case,
        has_obstacle=True,
        reference_velocity=2.0 * u_max / 3.0,
        reference_length=hy1 - hy0,
    )


def _case_taylor_green(config):
    _check_params(config.case_parameters, (), "taylor_green")
    velocity = _taylor_green(config.fom.nu)
    case = FlowCase(
        "taylor_green",
        dirichlet={tag: velocity for tag in _outer_tags(config)},
        forcing=None,
        zero_mean_pressure=True,
    )
    return CaseBundle(flow_case=case, exact_velocity=velocity)


def _case_stokes_poly(config):
    _check_params(config.case_parameters, (), "stokes_poly")
    case = FlowCase(
        "stokes_poly",
        dirichlet={tag: _zero_bc for tag in _outer_tags(config)},
        # the flow is steady: one term with a unit time factor
        forcing=SeparableForcing((_stokes_poly_forcing(config.fom.nu),),
                                 lambda t: np.ones((1,) + np.shape(t))),
        zero_mean_pressure=True,
    )
    return CaseBundle(flow_case=case)


_CASES = {
    "cavity": _case_cavity,
    "channel": _case_channel,
    "taylor_green": _case_taylor_green,
    "stokes_poly": _case_stokes_poly,
}


def build_case(config):
    """Instantiate the configured flow case."""
    return _CASES[config.case_name](config)


# -- CSV artifacts -------------------------------------------------------------------


def _format_value(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows):
    """Write rows with a fixed 17-significant-digit float format."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")
    return path


def read_csv(path):
    """Read a CSV written by :func:`write_csv` into a header and an array."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


# -- pipeline ------------------------------------------------------------------------


@dataclass
class PipelineResult:
    """In-memory handles to everything a pipeline run produced. ``resumed``
    is ``("fom",)`` when the full-order run's snapshots were read back
    (``fom_run`` is then None), else ``()``; the bases are always built."""

    config: ExperimentConfig
    problem: FOMProblem
    fom_run: object
    vel_snapshots: object
    pres_snapshots: object
    vel_basis: object
    pres_basis: object
    operators: object
    rom_run: object
    error_table: list
    resumed: tuple


def _snapshot_energy_table(problem, vel_snapshots, dt):
    """Per-step reference energies over one snapshot period.

    Entry ``n - 1`` holds the full-order kinetic energy one period into the
    window at the ``n``-th step past its start; with a snapshot stride the
    energies between stored snapshots interpolate linearly in time.
    """
    fields = vel_snapshots.fields
    energies = np.array([kinetic_energy(fields[:, j], problem.mass)
                         for j in range(fields.shape[1])])
    times = np.asarray(vel_snapshots.times, dtype=float)
    n_period = max(int(round((times[-1] - times[0]) / dt)), 1)
    step_times = times[0] + dt * np.arange(1, n_period + 1)
    return np.interp(step_times, times, energies)


def _project_columns(basis, mass, fields, r):
    return np.column_stack([
        project_L2(basis, mass, fields[:, j], r=r)
        for j in range(fields.shape[1])
    ])


@dataclass(frozen=True)
class _FullOrder:
    """The posed problem and its full-order run: the first stage."""

    bundle: CaseBundle
    problem: FOMProblem
    probe: object  # the drag/lift probe of a case with an obstacle, else None
    run: object
    vel_snaps: object
    pres_snaps: object


def _full_order(config, saved=None):
    """Pose the configured case on the mesh of ``config.geometry`` and run
    the full-order model, with the snapshots its window records; a case with
    an obstacle gets the drag/lift probe, evaluated at every step. With
    ``saved``, a run directory, its two snapshot containers are read and
    ``run`` is None."""
    mesh = config.geometry.build()
    bundle = build_case(config)
    problem = FOMProblem(mesh, config.fom, bundle.flow_case)
    probe = None
    if bundle.has_obstacle:
        probe = DragLiftProbe(problem, bundle.reference_velocity,
                              bundle.reference_length)
    if saved is not None:
        return _FullOrder(bundle, problem, probe, None, *(
            load_snapshots(saved / f"snapshots_{name}.bin", space.signature())
            for name, space in (("velocity", problem.vel_space),
                                ("pressure", problem.pres_space))))
    initial = None
    if bundle.exact_velocity is not None:
        initial = interpolate(problem.vel_space, bundle.exact_velocity, 0.0)
    run = run_fom(problem, initial_velocity=initial, probe=probe)
    return _FullOrder(bundle, problem, probe, run, *run.snapshots)


def _check_size(key, size, rank, basis="basis"):
    """Reject a configured size above a basis rank, known only after POD."""
    if size > rank:
        raise ConfigError("rom_invalid", f"{key}={size} exceeds the {basis} rank {rank}")


@functools.cache
def _source_sha256():
    """The SHA-256 of the package's modules, each file's name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _record(config):
    """``config`` as the JSON values its run record holds."""
    return json.loads(json.dumps(asdict(config)))


def _resumable(config, out):
    """``out`` when its record lists the fom stage under the same source and
    the same geometry, case and fom entries as ``config``, else None."""
    inputs = lambda r: [r["geometry"], r["case_name"], r["case_parameters"], r["fom"]]
    try:
        meta = json.loads((Path(out) / "run_meta.json").read_text())
        if (meta["source_sha256"] == _source_sha256() and "fom" in meta["stages"]
                and inputs(meta["config"]) == inputs(_record(config))):
            return Path(out)
    except (OSError, ValueError, LookupError, TypeError):
        pass
    return None


def run_pipeline(config, out_dir, stop_after=None):
    """Execute the pipeline and write deterministic artifacts into ``out_dir``.

    Stages: fom (the mesh and the full-order run with QoI and snapshot
    recording), pod (basis extraction, centred with ``pod.center``) and rom
    (the reduced run, with optional adaptation, whose coefficient
    ``rom.csv`` records, and the reduced-size error sweep). ``run_meta.json``
    lists the artifacts, the config, the stages and the source's SHA-256.
    ``stop_after`` ends the run early after ``"fom"`` or ``"pod"``; later
    result fields stay None. A fresh full-order run needs a window of at
    least two snapshots, checked before its first step. Unless it stops
    after fom, the run reads the full-order snapshots back from ``out_dir``
    while the source and the config they depend on are unchanged (see the
    module docstring); the mesh, the bases and every later stage are
    computed, and every artifact is written as a fresh run writes it,
    except that a resumed run leaves the files of the full-order run it
    read (``qoi.csv`` and the snapshots) as they are. Any stage failure is
    re-raised as a :class:`StageError` tagged with the stage name.
    """
    if stop_after not in (None, "fom", "pod"):
        raise ConfigError("stage_unknown", f"unknown stage {stop_after!r}")
    # reject, before any full-order step, a run whose reduction has no snapshots
    if config.fom.snapshot_window is None:
        raise ConfigError("snapshot_window_missing", "the pipeline needs fom.snapshot_window")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages = ("fom", "pod", "rom")[:("fom", "pod", None).index(stop_after) + 1]
    saved = None if stop_after == "fom" else _resumable(config, out)
    # an interrupted run must not leave a record of artifacts it did not write
    (out / "run_meta.json").unlink(missing_ok=True)
    artifacts = {Path(name).stem: name for name in (
        "mesh.txt", "qoi.csv", "snapshots_velocity.bin", "snapshots_pressure.bin",
        *(("basis_velocity.bin", "basis_pressure.bin") if "pod" in stages else ()),
        *(("operators.bin", "rom.csv", "errors.csv") if "rom" in stages else ()))}
    vel_basis = pres_basis = ops = rom_run = error_table = None

    with _stage("fom"):
        if saved is None and len(snapshot_steps(config.fom)) < 2:
            raise ValueError("need at least two snapshots for the reduced run")
        full = _full_order(config, saved)
        problem = full.problem
        save_mesh(problem.mesh, out / "mesh.txt")
        if full.run is not None:
            write_csv(out / "qoi.csv", ("t", "E_kin", "c_D", "c_L", "weak_div"),
                      full.run.qoi)
            save_snapshots(full.vel_snaps, out / "snapshots_velocity.bin")
            save_snapshots(full.pres_snaps, out / "snapshots_pressure.bin")

    if "pod" in stages:
        with _stage("pod"):
            vel_basis = build_basis(full.vel_snaps, problem.mass, center=config.pod.center)
            pres_basis = build_basis(full.pres_snaps, problem.pressure_mass)
            save_basis(vel_basis, out / "basis_velocity.bin")
            save_basis(pres_basis, out / "basis_pressure.bin")

    if stop_after is None:
        with _stage("rom"):
            r = vel_basis.rank if config.rom.r is None else config.rom.r
            _check_size("rom.r", r, vel_basis.rank)
            rp_main, sizes = _pressure_and_table_sizes(config, r, vel_basis, pres_basis)
            # One build at the largest sizes; every smaller model, with its
            # recovery and drag/lift forms, is its leading block, because the
            # modes are nested.
            r_max = max([r] + [n for n, _ in sizes])
            rp_max = max([rp_main] + [rp for _, rp in sizes])
            probe = full.probe
            all_ops = build_rom_operators(
                problem, vel_basis, pres_basis, r=r_max, r_pressure=rp_max,
                drag_lift=None if probe is None else probe.fields)
            ops = truncate_operators(all_ops, r, rp_main)
            save_operators(ops, out / "operators.bin")

            times = full.vel_snaps.times
            n_steps = int(round((config.effective_rom_t_final() - times[0])
                                / config.fom.dt))
            if n_steps < 1:
                raise ValueError("the reduced window allows no steps")
            # the main run starts from the first snapshot's coefficients
            a0 = project_L2(vel_basis, problem.mass, full.vel_snaps.fields[:, 0], r=r)
            adaptive = config.rom.adaptive if config.rom.adaptive.enabled else None
            energies = _snapshot_energy_table(problem, full.vel_snaps, config.fom.dt)
            rom_run = run_rom(ops, n_steps, a0, t_start=times[0], mu=config.effective_rom_mu(),
                              adaptive=adaptive, fom_energy_table=energies)

            # without a probe or a reduced pressure, drag and lift are nan
            cd = cl = np.full(rom_run.times.size, np.nan)
            pressure = None if probe is None else reduced_pressure(
                ops, rom_run, rom_run.mu_traj)
            if pressure is not None:
                tested = step_residuals(ops.drag_lift, rom_run.a_traj, rom_run.mu_traj,
                                        rom_run.times)
                cd, cl = probe.coefficients(
                    tested - probe.divergence_fields.T @ pressure)
            a_norms = np.linalg.norm(rom_run.a_traj, axis=0)
            rom_rows = list(zip(rom_run.times, rom_run.mu_traj,
                                rom_run.energy_traj, rom_run.e_diff_traj,
                                cd, cl, a_norms))
            write_csv(out / "rom.csv", ("t", "mu", "E_kin", "E_diff", "c_D", "c_L", "a_norm"),
                      rom_rows)

            error_table = reduced_error_table(
                config, problem, full.vel_snaps, full.pres_snaps, vel_basis,
                pres_basis, sizes, all_ops)
            write_csv(out / "errors.csv", ("r", "vel_error", "pres_error", "vel_indicator",
                                           "pres_indicator"), error_table)

    meta = {
        "artifacts": artifacts,
        "config": _record(config),
        "source_sha256": _source_sha256(),
        "stages": list(stages),
    }
    with open(out / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return PipelineResult(
        config=config, problem=problem, fom_run=full.run,
        vel_snapshots=full.vel_snaps, pres_snapshots=full.pres_snaps,
        vel_basis=vel_basis, pres_basis=pres_basis, operators=ops,
        rom_run=rom_run, error_table=error_table,
        resumed=() if saved is None else ("fom",))


def _pressure_and_table_sizes(config, r, vel_basis, pres_basis):
    """The main run's pressure size, for velocity size ``r``, and the
    (velocity, pressure) sizes of the error-table rows, ascending. A
    pressure size is min(velocity size, pressure rank), unless
    ``rom.r_pressure`` sets the main run's; ``rom.r_values`` defaults to the
    velocity rank."""
    pressure = lambda n: min(n, pres_basis.rank)
    rp = config.rom.r_pressure
    if rp is None:
        rp = pressure(r)
    _check_size("rom.r_pressure", rp, pres_basis.rank, basis="pressure basis")
    r_values = config.rom.r_values or (vel_basis.rank,)
    _check_size("max(rom.r_values)", max(r_values), vel_basis.rank)
    return rp, [(n, pressure(n)) for n in sorted(set(int(v) for v in r_values))]


def reduced_error_table(config, problem, vel_snaps, pres_snaps, vel_basis,
                        pres_basis, sizes, operators):
    """Measure reduced errors and indicators over a sweep of basis sizes.

    ``sizes`` lists the (velocity, pressure) sizes of the rows, as
    :func:`_pressure_and_table_sizes` gives them. ``operators`` are built at least
    that large, with their pressure recovery, and each row uses their
    leading blocks. Each row holds (r, velocity error,
    pressure error, velocity indicator, pressure indicator). Errors are
    discrete l2-in-time L2-in-space norms against the stored snapshots over
    the snapshot window. With unit snapshot stride and at least three
    snapshots the reduced run starts from the second projected snapshot,
    seeded with the first, so the full-rank limit replays the snapshots to
    rounding; otherwise it starts from the projected window start. Errors
    skip the snapshots before the run's start, and pressure errors its
    start too (the reduced pressure is defined from the first solved step
    onward).
    """
    scheme = config.fom.scheme
    dt = config.fom.dt
    stride = config.fom.snapshot_stride
    times = vel_snaps.times
    m = times.size
    vel_fields, pres_fields = vel_snaps.fields, pres_snaps.fields
    mu_value = config.effective_rom_mu()
    all_coeffs = _project_columns(vel_basis, problem.mass, vel_fields,
                                  max(r for r, _ in sizes))
    s_full, spectral_norm = reduced_stiffness(vel_basis, problem.stiffness)
    pres_eigs = pres_basis.eigenvalues
    if operators.recovery is not None:
        # a row's principal angles take its blocks of one Gram matrix
        basis = np.column_stack([operators.vel_modes, operators.recovery.fields])
        gram = basis.T @ (problem.stiffness @ basis)

    # the snapshot the run starts from, and the run's step at each snapshot from it on
    first = int(stride == 1 and m >= 3)
    total = int(round((times[-1] - times[0]) / dt))
    cols = stride * np.arange(first, m) - first
    weight = dt * stride
    rows = []
    for r, rp in sizes:
        ops_r = truncate_operators(operators, r, rp)
        coeffs = all_coeffs[:r]
        rom = run_rom(ops_r, total - first, coeffs[:, first], a_prev=coeffs[:, 0],
                      t_start=times[first], mu=mu_value)
        recon = ops_r.vel_modes @ rom.a_traj[:, cols]
        if ops_r.mean is not None:
            recon = recon + ops_r.mean[:, None]
        vel_error = discrete_l2_error(recon, vel_fields[:, first:], problem.mass, weight)

        # an unseeded run's first step keeps the backward difference
        rom_pres = reduced_pressure(ops_r, rom, mu_value, coeffs[:, 0] if first else None,
                                    columns=cols[1:])
        pres_error = np.nan
        if rom_pres is not None:
            pres_error = discrete_l2_error(rom_pres[:, cols[1:]], pres_fields[:, first + 1:],
                                           problem.pressure_mass, weight)
        alpha = 1.0
        if ops_r.recovery is not None:
            v, z = slice(0, r), slice(operators.r, operators.r + rp)
            alpha = principal_angle_cosine(gram[v, v], gram[z, z], gram[v, z])

        vel_tail = float(vel_basis.eigenvalues[r:].sum())
        pres_tail = float(pres_eigs[rp:].sum())
        c_r_h1 = float(np.sqrt(max(s_full[:r, :r].sum(), 0.0)))
        vel_ind, pres_ind = error_indicators(
            scheme, spectral_norm, vel_tail, pres_tail, c_r_h1=c_r_h1, alpha=alpha)
        rows.append((r, vel_error, pres_error, vel_ind, pres_ind))
    return rows


# -- studies -------------------------------------------------------------------------


def convergence_study(config, levels=3, out_dir=None):
    """Refine the decaying-vortex experiment ``config`` and return the rows
    (nx, dt, error, order, interp_error, interp_order) of ``convergence.csv``,
    which is written into ``out_dir`` when one is given.

    Level k multiplies ``geometry.nx`` and ``geometry.ny`` by 2^k and divides
    ``fom.dt`` by 4^k, so the spatial error dominates. The error is the
    velocity's L2 error against the exact vortex at ``fom.t_final``; the
    nodal interpolant of the exact velocity is measured on the same meshes
    as a control with a known third-order rate. Each order compares a level
    with the one before, and is nan on level 0. The levels record no
    snapshots, so ``fom.snapshot_window`` may be left out.
    """
    if config.case_name != "taylor_green":
        raise ConfigError("study_invalid", "the convergence study refines the taylor_green "
                          f"case, not {config.case_name!r}")
    if levels < 2:
        raise ConfigError("study_invalid", "need at least two levels")
    geometry, fom = config.geometry, config.fom
    rows = []
    for k in range(levels):
        variant = replace(config, geometry=replace(geometry, nx=geometry.nx * 2**k,
                                                   ny=geometry.ny * 2**k),
                          fom=replace(fom, dt=fom.dt / 4**k, snapshot_window=None))
        full = _full_order(variant)
        exact, space = full.bundle.exact_velocity, full.problem.vel_space
        error = analytic_l2_error(space, full.run.final_state.u, exact, fom.t_final)
        interp_error = analytic_l2_error(space, interpolate(space, exact, fom.t_final),
                                         exact, fom.t_final)
        order = interp_order = np.nan
        if rows:
            order = float(np.log2(rows[-1][2] / error))
            interp_order = float(np.log2(rows[-1][4] / interp_error))
        rows.append((variant.geometry.nx, variant.fom.dt, error, order, interp_error,
                     interp_order))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "convergence.csv",
                  ("nx", "dt", "error", "order", "interp_error", "interp_order"), rows)
    return rows

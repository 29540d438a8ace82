import re

import numpy as np
import pytest

from podflow.container import ContainerError, read_container
from podflow.fe_space import FESpace
from podflow.fom import (
    FlowCase,
    FOMConfig,
    FOMProblem,
    SeparableForcing,
    load_snapshots,
    run_fom,
    save_snapshots,
)
from podflow.mesh import build_rect_mesh
from podflow.pod import build_basis, save_basis
from podflow.rom import build_rom_operators, load_operators, save_operators

ZERO_BC = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One file of each container kind, with the loader that reads it, and
    the space they were written on."""
    directory = tmp_path_factory.mktemp("containers")
    case = FlowCase(
        "enclosed",
        dirichlet={"inlet": ZERO_BC, "outlet": ZERO_BC, "wall": ZERO_BC},
        forcing=SeparableForcing(
            (lambda x, y: (np.sin(np.pi * y), np.zeros_like(x)),
             lambda x, y: (np.zeros_like(x), np.sin(np.pi * x))),
            lambda t: np.array([1.0 + t, 1.0])),
        zero_mean_pressure=True,
    )
    cfg = FOMConfig(scheme="lps", nu=1e-2, dt=1e-2, t_final=0.05,
                    snapshot_window=(0.01, 0.05))
    problem = FOMProblem(build_rect_mesh(1.0, 1.0, 3, 3), cfg, case)
    run = run_fom(problem)
    vel_snaps, pres_snaps = run.snapshots
    vel_basis = build_basis(vel_snaps, problem.mass, center=True)
    pres_basis = build_basis(pres_snaps, problem.pressure_mass)
    space = problem.vel_space
    paths = {kind: directory / f"{kind}.bin"
             for kind in ("snapshots", "basis", "operators")}
    save_snapshots(vel_snaps, paths["snapshots"])
    save_basis(vel_basis, paths["basis"])
    save_operators(build_rom_operators(problem, vel_basis, pres_basis),
                   paths["operators"])
    loaders = {
        "snapshots": lambda path: load_snapshots(path, space.signature()),
        "basis": lambda path: read_container(path, "basis", space.signature()),
        "operators": lambda path: load_operators(path, space.signature()),
    }
    return paths, loaders, space


def _damage(raw, how):
    data_start = 12 + int.from_bytes(raw[4:12], "little")
    if how == "header":
        return raw[: data_start - 5]
    if how == "data":
        return raw[: (data_start + len(raw)) // 2]
    if how == "short":
        return raw[:-1]
    return b"XXXX" + raw[4:]


@pytest.mark.parametrize("kind", ["snapshots", "basis", "operators"])
@pytest.mark.parametrize("how", ["header", "data", "short", "magic"])
def test_damaged_container_names_the_file(saved, tmp_path, kind, how):
    paths, loaders, _ = saved
    loaders[kind](paths[kind])  # the intact file loads
    bad = tmp_path / f"{kind}-{how}.bin"
    bad.write_bytes(_damage(paths[kind].read_bytes(), how))
    with pytest.raises(ContainerError, match=re.escape(str(bad))):
        loaders[kind](bad)


def test_container_kind_is_checked(saved):
    paths, _, _ = saved
    with pytest.raises(ContainerError, match="'basis' container, expected 'operators'"):
        read_container(paths["basis"], "operators")


def test_container_load_rejects_wrong_space(saved):
    paths, _, space = saved
    other = FESpace(build_rect_mesh(1.0, 1.0, 4, 4), 2, components=2).signature()
    message = f"{paths['basis']}: written on space {space.signature()}, expected {other}"
    with pytest.raises(ContainerError, match=re.escape(message)):
        read_container(paths["basis"], "basis", other)

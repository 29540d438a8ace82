import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    modified_gram_schmidt,
    pressure_recovery,
    recovered_pressure,
    separable_swirl,
    solve_stokes,
    steady_forcing,
    strong_swirl,
    supremizer_solutions,
    swirl_forcing,
)

from podflow.assembly import StabilizationConfig, assemble_load, convection_matrix
from podflow.container import ContainerError, read_container, write_container
from podflow.fom import (
    FlowCase,
    FOMConfig,
    FOMProblem,
    NonlinearSolveError,
    SnapshotSet,
    run_fom,
)
from podflow.mesh import build_rect_mesh
from podflow.metrics import discrete_l2_error, kinetic_energy
from podflow.pod import build_basis, project_L2
import podflow.rom
from podflow.rom import (
    _OPERATOR_AXES,
    _project,
    AdaptiveMuConfig,
    ReducedStepper,
    adapt_mu,
    build_rom_operators,
    compute_supremizers,
    energy_mismatch,
    load_operators,
    orthonormalize_gradient,
    principal_angle_cosine,
    reduce_forcing,
    reduced_pressure,
    rom_kinetic_energy,
    run_rom,
    save_operators,
    step_residuals,
    step_rom,
    supremizer_stability,
    truncate_operators,
)

ZERO_BC = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))


def enclosed_case(forcing=None):
    return FlowCase(
        "enclosed",
        dirichlet={"inlet": ZERO_BC, "outlet": ZERO_BC, "wall": ZERO_BC},
        forcing=forcing,
        zero_mean_pressure=True,
    )


def cavity_problem(scheme, nx=6, dt=1e-2, t_final=0.1, nu=5e-3, mu=0.3,
                   window=None, stride=1, forcing=separable_swirl,
                   integrator="bdf2_semi_implicit"):
    mesh = build_rect_mesh(1.0, 1.0, nx, nx)
    cfg = FOMConfig(
        scheme=scheme, nu=nu, dt=dt, t_final=t_final,
        stabilization=StabilizationConfig(grad_div=mu),
        time_integrator=integrator,
        snapshot_window=window, snapshot_stride=stride,
    )
    return FOMProblem(mesh, cfg, enclosed_case(forcing=forcing))


def cavity_setup(scheme, center=False, **kwargs):
    """Run a forced cavity and build full-rank bases from its snapshots."""
    problem = cavity_problem(scheme, **kwargs)
    run = run_fom(problem)
    vel_snaps, pres_snaps = run.snapshots
    vel_basis = build_basis(vel_snaps, problem.mass, center=center)
    pres_basis = build_basis(pres_snaps, problem.pressure_mass)
    return problem, run, vel_snaps, pres_snaps, vel_basis, pres_basis


def unforced(ops, **fom):
    """``ops`` without its load, stepping with ``fom`` changed."""
    return replace(ops, forcing_modes=None, forcing=None, fom=replace(ops.fom, **fom))


# -- reduced operator structure -------------------------------------------------


def test_reduced_mass_is_identity():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    assert np.abs(ops.mass - np.eye(ops.r)).max() <= 1e-10


def test_convection_tensor_is_antisymmetric_for_enclosed_modes():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    t = ops.convection_tensor
    scale = np.abs(t).max()
    assert np.abs(t + np.swapaxes(t, 1, 2)).max() <= 1e-12 * max(scale, 1.0)
    for i in range(ops.r):
        assert np.abs(np.diagonal(t[i])).max() <= 1e-12 * max(scale, 1.0)


def test_reduced_stiffness_matches_full_quadratic_form():
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    rng = np.random.default_rng(0)
    a = rng.normal(size=ops.r)
    full = ops.vel_modes @ a
    reduced_value = a @ (ops.stiffness @ a)
    full_value = full @ (problem.stiffness @ full)
    assert abs(reduced_value - full_value) <= 1e-11 * max(abs(full_value), 1.0)


def test_rom_kinetic_energy_matches_full_order():
    for center in (False, True):
        problem, _, _, _, vel_basis, pres_basis = cavity_setup(
            "lps", center=center, window=(0.02, 0.1))
        ops = build_rom_operators(problem, vel_basis, pres_basis)
        rng = np.random.default_rng(4)
        a = rng.normal(size=ops.r)
        u = ops.vel_modes @ a
        if ops.mean is not None:
            u = u + ops.mean
        expected = kinetic_energy(u, problem.mass)
        assert abs(rom_kinetic_energy(ops, a) - expected) <= 1e-12 * max(expected, 1.0)


def assert_same_arrays(cut, direct):
    """Every array of the axis table agrees to 1e-13 * max(1, |direct|).
    A purely relative check would compare rounding noise: the viscous
    forms tested against supremizers cancel to entries near 1e-15."""
    assert cut.r == direct.r
    for name in _OPERATOR_AXES:
        a, b = getattr(cut, name), getattr(direct, name)
        if b is None:
            assert a is None, name
            continue
        assert a.shape == b.shape, name
        assert np.abs(a - b).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(b).max(initial=0.0)), name


def test_truncation_matches_direct_build():
    for center in (False, True):
        problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", center=center,
                                                               window=(0.02, 0.1))
        full = build_rom_operators(problem, vel_basis, pres_basis)
        assert full.r >= 4 and full.lift == int(center)
        direct = build_rom_operators(problem, vel_basis, pres_basis, r=3, r_pressure=2)
        cut = truncate_operators(full, 3, r_pressure=2)
        assert cut.lift == direct.lift == int(center)
        for name in ("mass", "stiffness", "grad_div", "lps_velocity",
                     "convection_tensor", "divergence", "lps_pressure"):
            a, b = getattr(cut, name), getattr(direct, name)
            assert a.shape == b.shape, (center, name)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-15), (center, name)


def test_separable_forcing_projects_like_its_assembled_load():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=True, window=(0.02, 0.1), forcing=separable_swirl)
    ops = build_rom_operators(problem, vel_basis)
    recovery = pressure_recovery(problem, vel_basis, pres_basis,
                                 compute_supremizers(problem, pres_basis.modes))
    assert ops.forcing_modes.shape == (ops.r, 4)
    for t in (0.0, 0.013, 0.37):
        load = assemble_load(problem.vel_space, swirl_forcing, t)
        for projected, modes in ((reduce_forcing(ops, t), ops.vel_modes),
                                 (reduce_forcing(recovery.operators, t),
                                  recovery.fields)):
            expected = modes.T @ load
            assert np.abs(projected - expected).max() \
                <= 1e-12 * np.abs(expected).max()
    cut = truncate_operators(ops, 3, 3)
    assert np.array_equal(cut.forcing_modes, ops.forcing_modes[:3])
    assert np.array_equal(reduce_forcing(cut, 0.37),
                          ops.forcing_modes[:3] @ separable_swirl.coefficients(0.37))
    assert reduce_forcing(unforced(ops), 0.37) is None


def test_a_flow_case_takes_only_a_separable_forcing():
    # a reduced model projects the shapes of its problem's forcing, so a
    # case is posed with a SeparableForcing or none at all
    assert enclosed_case().forcing is None
    assert enclosed_case(separable_swirl).forcing is separable_swirl
    with pytest.raises(ValueError, match="SeparableForcing"):
        enclosed_case(forcing=swirl_forcing)


def test_truncation_cuts_the_pressure_recovery():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=True, window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis, r_pressure=3)
    assert ops.recovery.operators.r == ops.r and ops.recovery.coupling.shape == (3, 3)
    cut = truncate_operators(ops, 2, 2)
    direct = build_rom_operators(problem, vel_basis, pres_basis, r=2, r_pressure=2)
    assert_same_arrays(cut.recovery.operators, direct.recovery.operators)
    assert np.abs(cut.recovery.coupling - direct.recovery.coupling).max() \
        <= 1e-13 * np.abs(direct.recovery.coupling).max()
    assert truncate_operators(ops, 2, 3).recovery.coupling.shape == (3, 3)
    assert truncate_operators(ops, 2, 4).recovery is None
    assert build_rom_operators(problem, vel_basis).recovery is None


def cut_recovery(recovery, r, rp):
    """``recovery`` cut by :func:`truncate_operators`, which cuts a recovery
    only as part of a set: here its own velocity forms."""
    return truncate_operators(replace(recovery.operators, recovery=recovery), r, rp).recovery


def test_truncated_pressure_recovery_matches_direct_build():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=True, window=(0.02, 0.1), forcing=separable_swirl)
    sup = compute_supremizers(problem, pres_basis.modes)
    assert vel_basis.rank >= 4 and sup.shape[1] >= 3
    full = pressure_recovery(problem, vel_basis, pres_basis, sup, rp=sup.shape[1])
    direct = pressure_recovery(problem, vel_basis, pres_basis, sup[:, :2], r=3, rp=2)
    cut = cut_recovery(full, 3, 2)
    assert cut.operators.r == 3 and cut.fields.shape[1] == 2
    assert_same_arrays(cut.operators, direct.operators)
    assert np.abs(cut.coupling - direct.coupling).max() \
        <= 1e-13 * np.abs(direct.coupling).max()
    a = np.random.default_rng(2).normal(size=3)
    assert np.allclose(cut.recover(a, a, 0.3, None), direct.recover(a, a, 0.3, None),
                       rtol=1e-12, atol=0.0)
    for r, rp in ((0, 2), (3, 0), (vel_basis.rank + 1, 2)):
        with pytest.raises(ValueError):
            cut_recovery(full, r, rp)
    assert cut_recovery(full, 3, sup.shape[1] + 1) is None


@pytest.fixture(scope="module")
def full_builds():
    """(problem, vel_basis, pres_basis, operators at full rank) for an
    uncentred and a centred coupled cavity and a centred velocity-only one,
    plus the latter's supremizers and their recovery."""
    lps = []
    for center in (False, True):
        problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", center=center,
                                                               window=(0.02, 0.1))
        lps.append((problem, vel_basis, pres_basis,
                    build_rom_operators(problem, vel_basis, pres_basis)))
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=True, window=(0.02, 0.1), forcing=separable_swirl)
    sup = compute_supremizers(problem, pres_basis.modes)
    recovery = pressure_recovery(problem, vel_basis, pres_basis, sup, rp=sup.shape[1])
    graddiv = (problem, vel_basis, pres_basis, build_rom_operators(problem, vel_basis))
    return lps, graddiv, sup, recovery


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_builds_match_direct_builds_at_random_sizes(full_builds, data):
    lps, graddiv, sup, recovery = full_builds
    for center, (problem, vel_basis, pres_basis, full) in enumerate(lps):
        r = data.draw(st.integers(1, full.r), label=f"r (coupled, centred {center})")
        rp = data.draw(st.integers(1, full.r_pressure), label=f"rp (centred {center})")
        assert_same_arrays(truncate_operators(full, r, rp),
                           build_rom_operators(problem, vel_basis, pres_basis, r=r,
                                               r_pressure=rp))

    problem, vel_basis, pres_basis, full = graddiv
    r = data.draw(st.integers(1, full.r), label="r (velocity only)")
    rp = data.draw(st.integers(1, sup.shape[1]), label="supremizers")
    assert_same_arrays(truncate_operators(full, r, rp),
                       build_rom_operators(problem, vel_basis, r=r))
    cut = cut_recovery(recovery, r, rp)
    direct = pressure_recovery(problem, vel_basis, pres_basis, sup[:, :rp], r=r, rp=rp)
    assert_same_arrays(cut.operators, direct.operators)
    assert np.abs(cut.coupling - direct.coupling).max() \
        <= 1e-13 * np.abs(direct.coupling).max()


def test_operator_build_validation():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", window=(0.02, 0.1))
    with pytest.raises(ValueError):
        build_rom_operators(problem, vel_basis)  # no pressure basis
    with pytest.raises(ValueError):
        build_rom_operators(problem, vel_basis, pres_basis, r=99)
    other = cavity_problem("lps", nx=4)
    with pytest.raises(ValueError):
        build_rom_operators(other, vel_basis, pres_basis)


# -- single step against a dense full-order projection oracle --------------------


def _check_step_against_the_projected_full_order_system(scheme, center, integrator):
    problem, run, vel_snaps, pres_snaps, vel_basis, pres_basis = cavity_setup(
        scheme, center=center, window=(0.02, 0.1), integrator=integrator)
    ops = build_rom_operators(
        problem, vel_basis, pres_basis if scheme == "lps" else None)
    rng = np.random.default_rng(7)
    a_now = rng.normal(size=ops.r)
    a_prev = rng.normal(size=ops.r)
    dt, nu, mu = problem.config.dt, problem.config.nu, (0.0 if scheme == "lps" else 0.3)
    t = 0.37
    a_new, b_new = step_rom(ReducedStepper(ops, mu), a_now, a_prev, reduce_forcing(ops, t))

    # independent route: assemble the convecting full-order system around the
    # reconstructed extrapolation (BDF2) or each Picard iterate from it
    # (implicit Euler) and project it onto the modes afterwards
    phi = ops.vel_modes
    mean = ops.mean if ops.mean is not None else np.zeros(phi.shape[0])
    u_now = phi @ a_now + mean
    u_prev = phi @ a_prev + mean
    w = 2.0 * u_now - u_prev
    if integrator == "bdf2_semi_implicit":
        alpha, history = 1.5, (4.0 * u_now - u_prev) / (2.0 * dt)
    else:
        alpha, history = 1.0, u_now / dt
    for _ in range(problem.config.nonlinear_max_iterations):
        conv = convection_matrix(problem.vel_space, w)
        k_full = alpha / dt * problem.mass + nu * problem.stiffness + conv
        if problem.velocity_stabilization is not None:
            k_full = k_full + problem.velocity_stabilization
        if mu != 0.0:
            k_full = k_full + mu * problem.grad_div
        rhs_full = problem.mass @ history + problem.load_vector(t)
        k_red = phi.T @ (k_full @ phi)
        rhs_red = phi.T @ (rhs_full - k_full @ mean)
        if scheme == "lps":
            psi = ops.pres_modes
            d_red = psi.T @ (problem.divergence @ phi)
            sp_red = psi.T @ (problem.pressure_stabilization @ psi)
            d_mean = psi.T @ (problem.divergence @ mean)
            system = np.block([[k_red, -d_red.T], [d_red, sp_red]])
            rhs = np.concatenate([rhs_red, -d_mean])
            x = np.linalg.solve(system, rhs)
            a_ref, b_ref = x[:ops.r], x[ops.r:]
        else:
            a_ref = np.linalg.solve(k_red, rhs_red)
        if integrator == "bdf2_semi_implicit":
            break
        # the full-order model's stopping rule on the fluctuation phi a
        change, fluctuation = phi @ a_ref + mean - w, phi @ a_ref
        w = phi @ a_ref + mean
        if np.sqrt(change @ (problem.mass @ change)) <= problem.config.nonlinear_tolerance \
                * np.sqrt(fluctuation @ (problem.mass @ fluctuation)):
            break
    if scheme == "lps":
        assert np.abs(b_new - b_ref).max() <= 1e-10 * max(np.abs(b_ref).max(), 1.0)
    assert np.abs(a_new - a_ref).max() <= 1e-10 * max(np.abs(a_ref).max(), 1.0)


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
@pytest.mark.parametrize("center", [False, True])
def test_step_matches_projected_full_order_system(scheme, center):
    _check_step_against_the_projected_full_order_system(scheme, center,
                                                        "bdf2_semi_implicit")


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
@pytest.mark.parametrize("center", [False, True])
def test_implicit_euler_step_matches_projected_full_order_system(scheme, center):
    _check_step_against_the_projected_full_order_system(scheme, center, "implicit_euler")


@pytest.mark.parametrize("integrator", ["bdf2_semi_implicit", "implicit_euler"])
@pytest.mark.parametrize("center", [False, True])
def test_step_residuals_match_the_full_order_residual_of_the_reconstruction(
        integrator, center):
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", center=center,
                                                  window=(0.02, 0.1), integrator=integrator)
    space = problem.vel_space
    phi, mean = vel_basis.modes, vel_basis.mean
    rng = np.random.default_rng(17)
    test = rng.normal(size=(problem.n_velocity, 3))
    a_traj = rng.normal(size=(phi.shape[1], 4))
    dt, nu = problem.config.dt, problem.config.nu
    mu = np.array([0.3, 0.4, 0.3, 0.5])
    times = 0.37 + dt * np.arange(4)
    got = step_residuals(_project(problem, phi, mean, [test])[0], a_traj, mu, times)

    # independent route: the full-order residual of u = mean + phi a, with the
    # time derivative and convecting field of each step (column 0 at rest)
    u = phi @ a_traj if mean is None else mean[:, None] + phi @ a_traj
    for n in range(4):
        dudt, w = np.zeros(problem.n_velocity), u[:, 0]
        if n > 0:
            prev, prev2 = u[:, n - 1], u[:, max(n - 2, 0)]
            if integrator == "bdf2_semi_implicit":
                dudt = (3.0 * u[:, n] - 4.0 * prev + prev2) / (2.0 * dt)
                w = 2.0 * prev - prev2
            else:
                dudt, w = (u[:, n] - prev) / dt, u[:, n]
        k = nu * problem.stiffness + mu[n] * problem.grad_div \
            + convection_matrix(space, w)
        residual = problem.mass @ dudt + k @ u[:, n] \
            - assemble_load(space, swirl_forcing, times[n])
        expected = test.T @ residual
        assert np.abs(got[:, n] - expected).max() <= 1e-11 * np.abs(expected).max(), n


# -- trajectory behavior ---------------------------------------------------------


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
def test_zero_data_stays_zero(scheme):
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(scheme, window=(0.02, 0.1))
    ops = build_rom_operators(
        problem, vel_basis, pres_basis if scheme == "lps" else None)
    run = run_rom(unforced(ops), 5, np.zeros(ops.r))
    assert np.all(run.a_traj == 0.0)
    assert np.all(run.energy_traj == 0.0)


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
def test_implicit_euler_rom_dissipates_without_forcing(scheme):
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(scheme, window=(0.02, 0.1))
    ops = build_rom_operators(
        problem, vel_basis, pres_basis if scheme == "lps" else None)
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=ops.r)
    run = run_rom(unforced(ops, dt=5e-3, time_integrator="implicit_euler"), 8, a0,
                  mu=(0.0 if scheme == "lps" else 0.3))
    norms = np.sqrt(np.einsum("it,ij,jt->t", run.a_traj, ops.mass, run.a_traj))
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_implicit_euler_rom_reports_nonconvergence():
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    rng = np.random.default_rng(6)
    a0 = 50.0 * rng.normal(size=ops.r)
    ops = replace(ops, fom=replace(ops.fom, dt=0.5, t_final=0.5,
                                   time_integrator="implicit_euler",
                                   nonlinear_tolerance=1e-15, nonlinear_max_iterations=1))
    with pytest.raises(NonlinearSolveError) as info:
        step_rom(ReducedStepper(ops, 0.3), a0, a0)
    assert len(info.value.residual_history) == 1


def test_singular_reduced_system_raises():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    ops.divergence = np.zeros_like(ops.divergence)
    ops.lps_pressure = np.zeros_like(ops.lps_pressure)
    with pytest.raises(RuntimeError, match="singular"):
        step_rom(ReducedStepper(ops), np.zeros(ops.r), np.zeros(ops.r))


def test_run_rom_validation():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    a0 = np.zeros(ops.r)
    with pytest.raises(ValueError):
        run_rom(ops, 0, a0)
    with pytest.raises(ValueError):
        run_rom(ops, 1, a0[:-1])
    with pytest.raises(ValueError):
        run_rom(ops, 1, a0, adaptive=AdaptiveMuConfig())
    with pytest.raises(ValueError):
        run_rom(ops, 1, a0, adaptive=AdaptiveMuConfig(), fom_energy_table=[1.0])


# -- snapshot replay --------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
@pytest.mark.parametrize("center", [False, True])
def test_rom_replays_fom_snapshots(scheme, center):
    # exact replay needs every snapshot direction retained, so the window is
    # kept short (five levels) and the forcing strong enough that all five
    # eigenvalues clear the basis truncation threshold
    dt = 1e-2
    problem, run, vel_snaps, pres_snaps, vel_basis, pres_basis = cavity_setup(
        scheme, center=center, dt=dt, t_final=0.09, window=(0.045, 0.09),
        forcing=strong_swirl)
    times = vel_snaps.times
    assert times.size == 5
    # centering removes one direction: the fluctuations sum to zero
    assert vel_basis.rank == times.size - (1 if center else 0)
    assert abs((times[1] - times[0]) - dt) <= 1e-12
    ops = build_rom_operators(
        problem, vel_basis, pres_basis if scheme == "lps" else None)

    coeffs = np.column_stack([
        project_L2(vel_basis, problem.mass, vel_snaps.fields[:, j],
                   r=vel_basis.rank)
        for j in range(times.size)
    ])
    mu = problem.mu if scheme == "graddiv" else 0.0
    rom = run_rom(ops, times.size - 2, coeffs[:, 1], a_prev=coeffs[:, 0],
                  t_start=times[1], mu=mu)

    recon = ops.vel_modes @ rom.a_traj
    if ops.mean is not None:
        recon = recon + ops.mean[:, None]
    fom_fields = vel_snaps.fields[:, 1:]
    err = discrete_l2_error(recon, fom_fields, problem.mass, dt)
    ref = discrete_l2_error(fom_fields, np.zeros_like(fom_fields), problem.mass, dt)
    assert err <= 1e-6 * ref
    if scheme == "lps":
        pres_fields = pres_snaps.fields[:, 2:]
        rom_pres = ops.pres_modes @ rom.b_traj[:, 1:]
        p_err = discrete_l2_error(rom_pres, pres_fields, problem.pressure_mass, dt)
        p_ref = discrete_l2_error(pres_fields, np.zeros_like(pres_fields),
                                  problem.pressure_mass, dt)
        assert p_err <= 1e-6 * max(p_ref, 1e-300)


# -- adaptive grad-div updates -----------------------------------------------------


def test_adapt_mu_reference_examples():
    cfg = AdaptiveMuConfig(frequency=5, delta=0.1, tolerance=1e-3, mu_min=0.1)
    table = [1.0]
    # too much reduced energy: raise the coefficient and redo the step
    mu, re_step = adapt_mu(2.4, 1.0 + 5e-3, table, cfg, step_index=5)
    assert mu == pytest.approx(2.5) and re_step
    # mismatch inside the tolerance: keep integrating
    mu, re_step = adapt_mu(2.4, 1.0 + 5e-4, table, cfg, step_index=5)
    assert mu == 2.4 and not re_step
    # too little energy near the floor: the floor wins
    mu, re_step = adapt_mu(0.15, 1.0 - 5e-3, table, cfg, step_index=5)
    assert mu == pytest.approx(0.1) and re_step


def test_adapt_mu_only_acts_on_schedule():
    cfg = AdaptiveMuConfig(frequency=5)
    table = [0.0]
    for n in (1, 2, 3, 4, 6, 7, 11, 13):
        mu, re_step = adapt_mu(0.5, 10.0, table, cfg, step_index=n)
        assert mu == 0.5 and not re_step
    mu, re_step = adapt_mu(0.5, 10.0, table, cfg, step_index=10)
    assert mu == pytest.approx(0.6) and re_step


def test_adapt_mu_no_restep_at_floor():
    cfg = AdaptiveMuConfig(frequency=1, mu_min=0.1, delta=0.1)
    mu, re_step = adapt_mu(0.1, -10.0, [0.0], cfg, step_index=1)
    assert mu == 0.1 and not re_step


def test_an_adaptive_run_builds_one_stepper_per_coefficient(monkeypatch):
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    built = []

    class Counting(ReducedStepper):
        def __init__(self, ops, mu=0.0):
            built.append(mu)
            super().__init__(ops, mu)

    monkeypatch.setattr(podflow.rom, "ReducedStepper", Counting)
    a0 = np.random.default_rng(8).normal(size=ops.r)
    cfg = AdaptiveMuConfig(frequency=5, delta=0.1, tolerance=1e-3, mu_min=0.1)
    run = run_rom(unforced(ops, dt=1e-3, time_integrator="implicit_euler"), 17, a0,
                  mu=0.3, adaptive=cfg, fom_energy_table=[0.0])
    assert len(np.unique(run.mu_traj)) == 4
    assert sorted(built) == sorted(np.unique(run.mu_traj))


def test_reduce_forcing_of_several_times_is_a_column_per_time():
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    times = 0.37 + 0.01 * np.arange(5)
    loads = reduce_forcing(ops, times)
    assert loads.shape == (ops.r, times.size)
    for n, t in enumerate(times):
        assert np.abs(loads[:, n] - reduce_forcing(ops, t)).max() \
            <= 1e-14 * np.abs(loads).max()
    # bit for bit the product with the per-time factors stacked a column per
    # time, also for one mode, whose product rounds by the operands' layout
    for cut in (ops, truncate_operators(ops, 1, 1)):
        stacked = np.array([cut.forcing.coefficients(float(t)) for t in times]).T
        got, want = reduce_forcing(cut, times), cut.forcing_modes @ stacked
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), cut.r


def test_energy_mismatch_wraps_periodically():
    table = [10.0, 20.0, 30.0]
    assert energy_mismatch(11.0, table, 1) == pytest.approx(1.0)
    assert energy_mismatch(31.0, table, 3) == pytest.approx(1.0)
    assert energy_mismatch(12.0, table, 4) == pytest.approx(2.0)
    assert energy_mismatch(33.0, table, 6) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        energy_mismatch(1.0, [], 1)


def test_run_rom_updates_mu_only_at_schedule_multiples():
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    rng = np.random.default_rng(8)
    a0 = rng.normal(size=ops.r)
    cfg = AdaptiveMuConfig(frequency=5, delta=0.1, tolerance=1e-3, mu_min=0.1)
    # a zero reference table makes every comparison read "too much energy",
    # so the coefficient must climb by delta exactly at multiples of five
    run = run_rom(unforced(ops, dt=1e-3, time_integrator="implicit_euler"), 17, a0,
                  mu=0.3, adaptive=cfg, fom_energy_table=[0.0])
    changes = np.flatnonzero(np.diff(run.mu_traj) != 0.0) + 1
    assert list(changes) == [5, 10, 15]
    assert np.allclose(run.mu_traj[[0, 5, 10, 15]], [0.3, 0.4, 0.5, 0.6])
    assert np.all(run.mu_traj >= cfg.mu_min)
    recorded = run.e_diff_traj[1:]
    assert np.all(np.isfinite(recorded))
    assert np.all(recorded > 0.0)


# -- supremizers and pressure recovery ----------------------------------------------


def test_supremizers_solve_their_equations():
    problem, _, _, _, _, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    sup = compute_supremizers(problem, pres_basis.modes)
    raw, residuals = supremizer_solutions(problem, pres_basis.modes)
    assert raw.shape[1] == pres_basis.rank
    assert np.all(residuals <= 1e-10)
    # zero values on the constrained boundary
    assert np.abs(raw[problem.constrained_velocity]).max() == 0.0
    gram = sup.T @ (problem.stiffness @ sup)
    assert np.abs(gram - np.eye(sup.shape[1])).max() <= 1e-10
    # the orthonormal fields span the solutions
    coeffs = sup.T @ (problem.stiffness @ raw)
    assert np.abs(sup @ coeffs - raw).max() <= 1e-9 * np.abs(raw).max()
    # and, combined by those coefficients, solve the supremizer equations
    # with zero boundary values
    assert np.abs(sup[problem.constrained_velocity]).max() == 0.0
    free = problem.free_velocity
    rhs = (problem.divergence.T @ pres_basis.modes)[free]
    lhs = (problem.stiffness @ (sup @ coeffs))[free]
    src_residuals = np.linalg.norm(lhs - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert np.all(src_residuals <= 1e-10)


def test_constant_pressure_mode_gives_zero_supremizer():
    problem = cavity_problem("graddiv", nx=4)
    const = np.ones((problem.n_pressure, 1))
    raw, _ = supremizer_solutions(problem, const)
    assert np.abs(raw).max() <= 1e-12
    assert compute_supremizers(problem, const).shape[1] == 0


def test_orthonormalize_gradient_drops_dependent_columns():
    problem = cavity_problem("graddiv", nx=4)
    rng = np.random.default_rng(9)
    space = problem.vel_space
    base = rng.normal(size=(space.n_dofs, 2))
    base[problem.constrained_velocity] = 0.0
    fields = np.column_stack([base[:, 0], base[:, 1],
                              0.7 * base[:, 0] - 0.3 * base[:, 1]])
    ortho = orthonormalize_gradient(fields, problem.stiffness)
    assert ortho.shape[1] == 2
    # the two kept columns span both independent inputs
    coeffs = ortho.T @ (problem.stiffness @ base)
    assert np.abs(ortho @ coeffs - base).max() <= 1e-10 * np.abs(base).max()


class _CountingStiffness:
    """A stiffness matrix that counts the columns it multiplies."""

    def __init__(self, matrix):
        self.matrix, self.columns = matrix, 0

    def __matmul__(self, fields):
        self.columns += 1 if fields.ndim == 1 else fields.shape[1]
        return self.matrix @ fields


def test_orthonormalize_gradient_makes_one_stiffness_product_per_kept_column(desk):
    # pairwise Gram-Schmidt multiplied every column against every kept one:
    # k (k + 1) products for k columns
    result = desk["graddiv"]
    raw, _ = supremizer_solutions(result.problem, result.pres_basis.modes)
    counting = _CountingStiffness(result.problem.stiffness)
    ortho = orthonormalize_gradient(raw, counting)
    assert ortho.shape[1] == raw.shape[1] > 1
    assert counting.columns <= 2 * raw.shape[1]


def test_orthonormalize_gradient_spans_the_pairwise_result_on_the_desk_pressure_modes(desk):
    result = desk["graddiv"]
    stiffness = result.problem.stiffness
    raw, _ = supremizer_solutions(result.problem, result.pres_basis.modes)
    ortho = orthonormalize_gradient(raw, stiffness)
    assert np.abs(ortho.T @ (stiffness @ ortho) - np.eye(ortho.shape[1])).max() <= 1e-12
    # the sine of the largest principal angle to the pairwise result's span
    pairwise = modified_gram_schmidt(raw, stiffness)
    assert pairwise.shape == ortho.shape
    rest = pairwise - ortho @ (ortho.T @ (stiffness @ pairwise))
    assert np.sqrt(max(np.linalg.eigvalsh(rest.T @ (stiffness @ rest)).max(), 0.0)) <= 1e-10
    # a column inside the span of the others adds nothing
    dependent = raw @ np.random.default_rng(12).normal(size=raw.shape[1])
    assert orthonormalize_gradient(np.column_stack([raw, dependent]),
                                   stiffness).shape == ortho.shape


def test_supremizer_stability_is_remix_invariant():
    problem, _, _, _, _, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    sup = compute_supremizers(problem, pres_basis.modes)
    beta = supremizer_stability(sup, pres_basis.modes,
                                problem.divergence, problem.mass, problem.stiffness)
    assert beta > 0.0
    rng = np.random.default_rng(10)
    remix = rng.normal(size=(sup.shape[1],) * 2) \
        + 3.0 * np.eye(sup.shape[1])
    beta_remixed = supremizer_stability(
        sup @ remix, pres_basis.modes,
        problem.divergence, problem.mass, problem.stiffness)
    assert abs(beta - beta_remixed) <= 1e-10 * beta


def test_supremizer_stability_matches_brute_force_for_two_modes():
    problem, _, _, _, _, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    psi = pres_basis.modes[:, :2]
    z = compute_supremizers(problem, psi)
    beta = supremizer_stability(z, psi, problem.divergence, problem.mass,
                                problem.stiffness)
    coupling = (psi.T @ (problem.divergence @ z)).T
    h = z.T @ ((problem.mass + problem.stiffness) @ z)
    h_inv = np.linalg.inv(h)
    worst = np.inf
    for theta in np.linspace(0.0, np.pi, 2001):
        q = np.array([np.cos(theta), np.sin(theta)])
        g = coupling @ q
        worst = min(worst, np.sqrt(g @ (h_inv @ g)))
    assert abs(worst - beta) <= 1e-3 * beta


def stokes_snapshots(problem, forcings):
    """Steady solutions of the problem for a list of body forces, each at
    t = 0."""
    velocities, pressures, loads = [], [], []
    for f in forcings:
        steady_case = FlowCase(problem.case.name, dirichlet=problem.case.dirichlet,
                               forcing=f, zero_mean_pressure=True)
        steady = FOMProblem(problem.mesh, problem.config, steady_case)
        u, p = solve_stokes(steady)
        velocities.append(u)
        pressures.append(p)
        loads.append(steady.load_vector(0.0))
    return np.column_stack(velocities), np.column_stack(pressures), loads


def test_pressure_recovery_is_exact_for_steady_stokes():
    problem = cavity_problem("graddiv", nx=6, mu=0.4)
    forcings = [
        steady_forcing(lambda x, y: (np.sin(np.pi * y), np.sin(np.pi * x))),
        steady_forcing(lambda x, y: (np.cos(np.pi * x) * y, np.zeros_like(x))),
        steady_forcing(lambda x, y: (x * (1 - x), -y * (1 - y))),
    ]
    vels, pres, loads = stokes_snapshots(problem, forcings)
    times = np.zeros(len(forcings))
    vel_basis = build_basis(SnapshotSet("", times, vels), problem.mass)
    pres_basis = build_basis(SnapshotSet("", times, pres), problem.pressure_mass)
    sup = compute_supremizers(problem, pres_basis.modes)
    recovery = pressure_recovery(problem, vel_basis, pres_basis, sup)
    # steady Stokes: no convection (the basis is uncentred) and no time slope
    recovery.operators = replace(recovery.operators, convection_tensor=np.zeros_like(
        recovery.operators.convection_tensor))
    for j, load in enumerate(loads):
        a = project_L2(vel_basis, problem.mass, vels[:, j], r=vel_basis.rank)
        b = recovery.recover(a, np.zeros_like(a), problem.mu, sup.T @ load)
        recovered = pres_basis.modes[:, :pres_basis.rank] @ b
        diff = recovered - pres[:, j]
        err = np.sqrt(diff @ (problem.pressure_mass @ diff))
        ref = np.sqrt(pres[:, j] @ (problem.pressure_mass @ pres[:, j]))
        assert err <= 1e-8 * ref


@pytest.mark.parametrize("center", [False, True])
def test_pressure_recovery_right_hand_side_matches_full_order_residual(center):
    problem, _, _, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=center, window=(0.02, 0.1))
    sup = compute_supremizers(problem, pres_basis.modes)
    recovery = pressure_recovery(problem, vel_basis, pres_basis, sup)
    phi = vel_basis.modes
    rng = np.random.default_rng(13)
    a, dadt = rng.normal(size=(2, phi.shape[1]))
    mu = 0.3
    load = assemble_load(problem.vel_space, swirl_forcing, 0.37)

    # the residual of the full field u = mean + phi a, tested by the supremizers
    u = phi @ a if vel_basis.mean is None else vel_basis.mean + phi @ a
    c_u = convection_matrix(problem.vel_space, u)
    expected = sup.T @ (problem.mass @ (phi @ dadt) + c_u @ u
                        + mu * (problem.grad_div @ u) - load)
    # the recovery solves coupling b = rhs, so coupling b is its right-hand side
    got = recovery.coupling @ recovery.recover(a, dadt, mu, sup.T @ load)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_pressure_recovery_requires_square_system():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    sup = compute_supremizers(problem, pres_basis.modes[:, :-1])
    with pytest.raises(ValueError, match="one supremizer per pressure mode"):
        pressure_recovery(problem, vel_basis, pres_basis, sup)


def test_pressure_recovery_trajectory_is_finite():
    problem, run, vel_snaps, pres_snaps, vel_basis, pres_basis = cavity_setup(
        "graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    rom = run_rom(ops, 6, project_L2(vel_basis, problem.mass, vel_snaps.fields[:, 0]),
                  mu=problem.mu)
    assert ops.recovery.coupling.shape == (pres_basis.rank, pres_basis.rank)
    pressure = reduced_pressure(ops, rom, problem.mu)
    assert pressure.shape == (problem.pres_space.n_dofs, rom.times.size)
    assert np.all(np.isfinite(pressure))


def test_pressure_recovery_trajectory_takes_one_mu_per_step():
    problem, _, vel_snaps, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    recovery = ops.recovery
    a_traj = np.column_stack([project_L2(vel_basis, problem.mass, u)
                              for u in vel_snaps.fields.T])
    run = SimpleNamespace(times=vel_snaps.times, a_traj=a_traj)
    dt, nt = problem.config.dt, a_traj.shape[1]
    mu = 0.3 + 0.1 * np.arange(nt)
    columns = []
    for n in range(nt):
        if n == 0:
            dadt = np.zeros(a_traj.shape[0])
        elif n == 1:
            dadt = (a_traj[:, 1] - a_traj[:, 0]) / dt
        else:
            dadt = (3.0 * a_traj[:, n] - 4.0 * a_traj[:, n - 1]
                    + a_traj[:, n - 2]) / (2.0 * dt)
        columns.append(recovery.recover(a_traj[:, n], dadt, mu[n],
                                        reduce_forcing(recovery.operators, run.times[n])))
    assert np.array_equal(reduced_pressure(ops, run, mu),
                          recovery.operators.pres_modes @ np.column_stack(columns))
    assert np.array_equal(reduced_pressure(ops, run, 0.3),
                          reduced_pressure(ops, run, np.full(nt, 0.3)))


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("forced", [False, True])
def test_reduced_pressure_matches_its_oracle_bit_for_bit(center, forced):
    problem, _, vel_snaps, _, vel_basis, pres_basis = cavity_setup(
        "graddiv", center=center, window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis, pres_basis)
    if not forced:
        recovery = copy.copy(ops.recovery)
        recovery.operators = unforced(recovery.operators)
        ops = replace(unforced(ops), recovery=recovery)
    coeffs = np.column_stack([project_L2(vel_basis, problem.mass, u)
                              for u in vel_snaps.fields.T])
    rom = run_rom(ops, 6, coeffs[:, 1], a_prev=coeffs[:, 0], t_start=vel_snaps.times[1],
                  mu=problem.mu)
    nt = rom.times.size
    # per-column mu starts at 0, where the grad-div term is skipped
    for a_prev in (None, coeffs[:, 0]):
        for columns in (None, [1, 4, 5]):
            for mu in (0.3, 0.1 * np.arange(nt)):
                got = reduced_pressure(ops, rom, mu, a_prev, columns)
                want = recovered_pressure(ops, rom, mu, a_prev, columns)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                    (a_prev is None, columns, np.ndim(mu))


def test_operator_container_round_trip(tmp_path):
    for center in (False, True):
        problem, _, _, _, vel_basis, pres_basis = cavity_setup("lps", center=center,
                                                               window=(0.02, 0.1))
        ops = build_rom_operators(problem, vel_basis, pres_basis)
        path = tmp_path / f"ops_{center}.bin"
        save_operators(ops, path)
        loaded = load_operators(path, expected_signature=problem.vel_space.signature())
        assert loaded.scheme == "lps"
        assert loaded.r == ops.r and loaded.r_pressure == ops.r_pressure
        assert loaded.lift == ops.lift == int(center)
        for name in ("mass", "stiffness", "grad_div", "lps_velocity",
                     "convection_tensor", "divergence", "lps_pressure"):
            assert np.array_equal(getattr(loaded, name), getattr(ops, name)), (center, name)
        assert loaded.mean_energy == ops.mean_energy
        with pytest.raises(ValueError):
            load_operators(path, expected_signature="deadbeef")
        # a loaded container steps the reduced system bit for bit like the built set
        a_now, a_prev = np.random.default_rng(8).normal(size=(2, ops.r))
        for got, want in zip(step_rom(ReducedStepper(loaded), a_now, a_prev),
                             step_rom(ReducedStepper(ops), a_now, a_prev)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), center
        a, b = step_rom(ReducedStepper(loaded), np.zeros(ops.r), np.zeros(ops.r))
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


def test_loaded_operators_keep_their_full_order_configuration(tmp_path):
    problem, _, _, _, vel_basis, _ = cavity_setup(
        "graddiv", center=True, window=(0.02, 0.1), integrator="implicit_euler")
    ops = build_rom_operators(problem, vel_basis)
    path = tmp_path / "ops.bin"
    save_operators(ops, path)
    loaded = load_operators(path)
    assert loaded.fom == problem.config and loaded.scheme == "graddiv"
    assert loaded.fom.snapshot_window == (0.02, 0.1)
    rng = np.random.default_rng(3)
    a_now, a_prev = rng.normal(size=(2, ops.r))
    load = reduce_forcing(ops, 0.37)
    for got, want in zip(step_rom(ReducedStepper(loaded, 0.3), a_now, a_prev, load),
                         step_rom(ReducedStepper(ops, 0.3), a_now, a_prev, load)):
        assert np.array_equal(got, want) or got is want is None


def test_velocity_only_operator_container_round_trip(tmp_path):
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", center=True,
                                                  window=(0.02, 0.1))
    ops = build_rom_operators(problem, vel_basis)
    path = tmp_path / "ops.bin"
    save_operators(ops, path)
    loaded = load_operators(path)
    assert loaded.scheme == "graddiv"
    assert loaded.divergence is None and loaded.r_pressure is None
    assert loaded.lift == ops.lift == 1
    assert np.array_equal(loaded.convection_tensor, ops.convection_tensor)
    assert loaded.mean_energy == ops.mean_energy


def test_an_operator_container_without_its_full_order_configuration_names_the_file(tmp_path):
    # the header an older version wrote: the scheme alone, no "fom"
    path = tmp_path / "old_ops.bin"
    write_container(path, "operators",
                    {"signature": "", "scheme": "graddiv", "r": 1, "mean_energy": 0.0},
                    {"mass": np.eye(1), "stiffness": np.eye(1)})
    with pytest.raises(ContainerError, match="old_ops.bin") as err:
        load_operators(path)
    assert "'fom'" in str(err.value)


def test_an_operator_container_in_an_older_layout_names_the_file_and_the_array(tmp_path):
    # the layout an older version wrote: the mean's lift in arrays of its own
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    path = tmp_path / "old_ops.bin"
    save_operators(build_rom_operators(problem, vel_basis), path)
    meta, arrays = read_container(path, "operators")
    arrays["transport_of_mean"] = np.zeros((vel_basis.rank, vel_basis.rank))
    write_container(path, "operators", meta, arrays)
    with pytest.raises(ContainerError, match="old_ops.bin") as err:
        load_operators(path)
    assert "transport_of_mean" in str(err.value)


def test_loaded_operators_reject_a_forcing(tmp_path):
    problem, _, _, _, vel_basis, _ = cavity_setup("graddiv", window=(0.02, 0.1))
    path = tmp_path / "ops.bin"
    ops = build_rom_operators(problem, vel_basis)
    save_operators(ops, path)
    loaded = load_operators(path)
    assert np.array_equal(loaded.forcing_modes, ops.forcing_modes)
    # its time factors are not saved, so it cannot evaluate its load
    message = (r"this operator set has forcing modes but no time factors \(it was "
               r"loaded from a container\), so its load cannot be evaluated")
    with pytest.raises(ValueError, match=message):
        reduce_forcing(loaded, 0.37)
    with pytest.raises(ValueError, match="no time factors"):
        run_rom(loaded, 1, np.zeros(loaded.r))


def gradient_gram_blocks(phi, z, stiffness):
    """The blocks of the gradient-metric Gram matrix of the spans of the
    columns of ``phi`` and ``z``, as :func:`principal_angle_cosine` takes them."""
    return phi.T @ (stiffness @ phi), z.T @ (stiffness @ z), phi.T @ (stiffness @ z)


def test_principal_angle_cosine_bounds_and_extremes():
    problem, _, _, _, vel_basis, pres_basis = cavity_setup("graddiv", window=(0.02, 0.1))
    sup = compute_supremizers(problem, pres_basis.modes)
    alpha = principal_angle_cosine(*gradient_gram_blocks(vel_basis.modes, sup,
                                                         problem.stiffness))
    assert 0.0 <= alpha <= 1.0
    # a span compared against itself gives cosine one
    self_alpha = principal_angle_cosine(*gradient_gram_blocks(sup, sup, problem.stiffness))
    assert self_alpha == pytest.approx(1.0, abs=1e-10)
    # gradient-orthogonal complement gives cosine zero: gram-schmidt a random
    # field against the supremizers in the gradient metric
    rng = np.random.default_rng(11)
    w = rng.normal(size=problem.n_velocity)
    w[problem.constrained_velocity] = 0.0
    for _ in range(2):
        for k in range(sup.shape[1]):
            q = sup[:, k]
            w -= float(q @ (problem.stiffness @ w)) * q
    ortho_alpha = principal_angle_cosine(*gradient_gram_blocks(w[:, None], sup,
                                                               problem.stiffness))
    assert ortho_alpha <= 1e-8

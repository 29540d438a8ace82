import gc
import re
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lps_oracle import assemble_lps_fluctuation, gradient_sample_matrix
from oracles import saddle_system, separable_swirl, solve_stokes, steady_forcing

import podflow.fom
from podflow.assembly import StabilizationConfig, _ConvectionAction, convection_matrix
from podflow.container import read_container
from podflow.fe_space import interpolate
from podflow.fom import (
    FlowCase,
    FOMConfig,
    FOMProblem,
    NonlinearSolveError,
    SeparableForcing,
    _SaddleLayout,
    load_snapshots,
    run_fom,
    save_snapshots,
    snapshot_steps,
    time_terms,
)
from podflow.harness import _taylor_green
from podflow.mesh import build_rect_mesh
from podflow.metrics import analytic_l2_error, kinetic_energy, weak_divergence
from podflow.pod import build_basis

ZERO_BC = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))


def enclosed_case(forcing=None):
    return FlowCase(
        "enclosed",
        dirichlet={"inlet": ZERO_BC, "outlet": ZERO_BC, "wall": ZERO_BC},
        forcing=forcing,
        zero_mean_pressure=True,
    )


# -- configuration validation --------------------------------------------


def test_config_rejects_bad_values():
    ok = dict(scheme="lps", nu=1e-3, dt=1e-2, t_final=1.0)
    FOMConfig(**ok)
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "scheme": "supg"})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "nu": 0.0})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "dt": -1e-2})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "time_integrator": "rk4"})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "snapshot_window": (0.5, 2.0)})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "snapshot_stride": 0})
    with pytest.raises(ValueError):
        FOMConfig(**{**ok, "nonlinear_max_iterations": 0})


def test_problem_rejects_unknown_boundary_tag():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    cfg = FOMConfig(scheme="lps", nu=1e-2, dt=1e-2, t_final=0.1)
    case = FlowCase("bad", dirichlet={"obstacle": ZERO_BC})
    with pytest.raises(ValueError):
        FOMProblem(mesh, cfg, case)


def test_boundary_values_find_each_tags_dofs_once(monkeypatch):
    inflow = lambda x, y, t: (np.sin(3.0 * y + t), 0.25 * x)
    case = FlowCase("inflow", dirichlet={"inlet": inflow, "wall": ZERO_BC})
    cfg = FOMConfig(scheme="graddiv", nu=1e-2, dt=1e-2, t_final=0.1)
    problem = FOMProblem(build_rect_mesh(1.0, 1.0, 3, 3), cfg, case)
    space = problem.vel_space
    n, lookup, calls = space.n_scalar, space.boundary_scalar_dofs, []
    monkeypatch.setattr(space, "boundary_scalar_dofs",
                        lambda tags=None: calls.append(tags) or lookup(tags))
    for t in (0.0, 0.1, 0.2):
        want = np.zeros(problem.n_velocity)
        for tag, fn in case.dirichlet.items():
            dofs = lookup(tag)
            want[dofs], want[n + dofs] = fn(*space.dof_coords[dofs].T, t)
        assert np.array_equal(problem.boundary_values(t).view(np.int64), want.view(np.int64))
    assert sorted(calls) == ["inlet", "wall"]


# -- time discretization ---------------------------------------------------


def _one_step(integrator, traj, t, dt):
    """(time derivative, convecting value) of ``time_terms`` at ``t + dt``
    for the trajectory ``traj`` sampled at ``t - dt``, ``t`` and ``t + dt``."""
    alpha, history, convecting = time_terms(
        integrator, np.array([traj(t)]), np.array([traj(t - dt)]), dt)
    return alpha / dt * traj(t + dt) - history[0], convecting[0]


def test_bdf2_time_terms_are_exact_on_quadratics_and_extrapolate_linears():
    dt, t = 0.05, 1.3
    quadratic = lambda s: 0.7 * s**2 - 0.4 * s + 2.0
    derivative, convecting = _one_step("bdf2_semi_implicit", quadratic, t, dt)
    assert derivative == pytest.approx(1.4 * (t + dt) - 0.4, rel=1e-12)
    # the extrapolation misses a quadratic by twice its curvature term
    assert quadratic(t + dt) - convecting == pytest.approx(2.0 * 0.7 * dt**2, rel=1e-12)
    linear = lambda s: -0.4 * s + 2.0
    assert _one_step("bdf2_semi_implicit", linear, t, dt)[1] == pytest.approx(
        linear(t + dt), rel=1e-14)


def test_implicit_euler_time_terms_are_exact_on_linears():
    dt, t = 0.05, 1.3
    linear = lambda s: 3.0 * s - 1.0
    derivative, convecting = _one_step("implicit_euler", linear, t, dt)
    assert derivative == pytest.approx(3.0, rel=1e-12)
    # Picard starts from the extrapolation, which a linear trajectory meets
    assert convecting == pytest.approx(linear(t + dt), rel=1e-14)


# -- snapshot window arithmetic -------------------------------------------


def test_snapshot_counts_for_period_window():
    cfg = FOMConfig(
        scheme="graddiv", nu=1e-3, dt=2e-3, t_final=7.0,
        snapshot_window=(5.0, 5.332), snapshot_stride=1,
    )
    assert snapshot_steps(cfg).size == 167
    cfg2 = FOMConfig(
        scheme="graddiv", nu=1e-3, dt=2e-3, t_final=7.0,
        snapshot_window=(5.0, 5.332), snapshot_stride=2,
    )
    assert snapshot_steps(cfg2).size == 84


# -- trivial fixed points ---------------------------------------------------


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
def test_zero_data_stays_zero(scheme):
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    cfg = FOMConfig(scheme=scheme, nu=1e-2, dt=1e-2, t_final=0.1,
                    stabilization=StabilizationConfig(grad_div=0.3))
    problem = FOMProblem(mesh, replace(cfg, t_final=cfg.dt), enclosed_case())
    state = run_fom(problem).final_state
    assert np.abs(state.u).max() == 0.0
    assert np.abs(state.p).max() == 0.0


def test_an_initial_velocity_of_the_wrong_length_is_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    cfg = FOMConfig(scheme="graddiv", nu=1e-2, dt=1e-2, t_final=1e-2)
    problem = FOMProblem(mesh, cfg, enclosed_case())
    with pytest.raises(ValueError, match="wrong length"):
        run_fom(problem, initial_velocity=np.zeros(problem.n_velocity + 1))


# -- one-step dense oracle ---------------------------------------------------


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
@pytest.mark.parametrize("grid", [1, 3])
def test_one_step_matches_dense_row_replacement_solve(scheme, grid):
    # independent route: assemble the same operators into a dense block
    # system, impose boundary values by row replacement instead of
    # elimination, and solve with a dense direct method. On the two-triangle
    # mesh only the velocity is compared: with two free velocity DOFs the
    # enclosed pressure is not determined beyond its gauge, so each direct
    # method may return a different valid representative.
    mesh = build_rect_mesh(1.0, 1.0, grid, grid)
    dt, nu = 0.05, 1e-2
    cfg = FOMConfig(scheme=scheme, nu=nu, dt=dt, t_final=dt,
                    stabilization=StabilizationConfig(grad_div=0.4))
    problem = FOMProblem(mesh, cfg, enclosed_case(forcing=separable_swirl))
    bump = lambda x, y, t: (x * (1 - x) * y * (1 - y), -x * (1 - x) * y * (1 - y))
    u0 = interpolate(problem.vel_space, bump, 0.0)
    state1 = run_fom(problem, initial_velocity=u0).final_state

    n_v, n_p = problem.n_velocity, problem.n_pressure
    u_hat = u0  # extrapolation of equal history levels
    conv = convection_matrix(problem.vel_space, u_hat)
    k_v = 1.5 / dt * problem.mass + problem._static_velocity_block + conv
    system = sp.bmat(
        [[k_v, -problem.divergence.T], [problem.divergence, problem.pressure_stabilization]]
    ).toarray()
    rhs = np.concatenate(
        [problem.mass @ (3.0 * u0 / (2.0 * dt)) + problem.load_vector(dt), np.zeros(n_p)]
    )
    for i in np.concatenate([problem.constrained_velocity, [n_v]]):
        system[i, :] = 0.0
        system[i, i] = 1.0
        rhs[i] = 0.0
    x = np.linalg.solve(system, rhs)
    u_ref, p_ref = x[:n_v], x[n_v:]
    p_ref = p_ref - (np.ones(n_p) @ (problem.pressure_mass @ p_ref)) / mesh.area

    scale = max(np.abs(u_ref).max(), 1.0)
    assert np.abs(state1.u - u_ref).max() <= 1e-10 * scale
    if grid > 1:
        assert np.abs(state1.p - p_ref).max() <= 1e-10 * max(np.abs(p_ref).max(), 1.0)


# -- decaying vortex: quick order check -------------------------------------


@pytest.mark.parametrize("scheme,floor", [("lps", 2.0), ("graddiv", 1.6)])
def test_two_level_velocity_order(scheme, floor):
    nu, t_final = 0.01, 0.1
    exact = _taylor_green(nu)
    bc = {"inlet": exact, "outlet": exact, "wall": exact}
    errs = []
    for level, n in enumerate((4, 8)):
        cfg = FOMConfig(scheme=scheme, nu=nu, dt=0.01 / 4**level, t_final=t_final,
                        stabilization=StabilizationConfig(grad_div=0.3))
        problem = FOMProblem(
            build_rect_mesh(1.0, 1.0, n, n), cfg,
            FlowCase("decay", dirichlet=bc, zero_mean_pressure=True),
        )
        u0 = interpolate(problem.vel_space, exact, 0.0)
        run = run_fom(problem, initial_velocity=u0)
        errs.append(analytic_l2_error(problem.vel_space, run.final_state.u, exact, t_final))
    assert np.log2(errs[0] / errs[1]) >= floor


# -- implicit Euler ----------------------------------------------------------


def test_implicit_euler_energy_dissipates_without_forcing():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    for scheme in ("lps", "graddiv"):
        cfg = FOMConfig(scheme=scheme, nu=5e-3, dt=0.02, t_final=0.1,
                        time_integrator="implicit_euler",
                        stabilization=StabilizationConfig(grad_div=0.3))
        problem = FOMProblem(mesh, replace(cfg, t_final=5 * cfg.dt), enclosed_case())
        bump = lambda x, y, t: (np.sin(np.pi * x) * np.sin(np.pi * y) * y,
                                -np.sin(np.pi * x) * np.sin(np.pi * y) * x)
        u0 = interpolate(problem.vel_space, bump, 0.0)
        run = run_fom(problem, initial_velocity=u0)
        energies = [kinetic_energy(u0, problem.mass), *run.qoi[:, 1]]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9 * max(energies))


def test_implicit_euler_failure_raises_with_diagnostics():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=0.02, t_final=0.1,
                    time_integrator="implicit_euler",
                    nonlinear_max_iterations=1, nonlinear_tolerance=1e-15,
                    stabilization=StabilizationConfig(grad_div=0.3))
    problem = FOMProblem(mesh, replace(cfg, t_final=cfg.dt),
                         enclosed_case(forcing=separable_swirl))
    with pytest.raises(NonlinearSolveError) as info:
        run_fom(problem)
    assert len(info.value.residual_history) == 1


# -- a run's lagged factor --------------------------------------------------


# a strong force that varies slowly, so one factor serves a short run
slow_swirl = SeparableForcing(
    (lambda x, y: (np.sin(np.pi * y), np.zeros_like(x)),
     lambda x, y: (np.zeros_like(x), np.sin(np.pi * x))),
    lambda t: np.array([1.0 + 0.3 * np.cos(t), 1.0 - 0.2 * np.sin(t)]), scale=100.0)


def forced_cavity(integrator="implicit_euler", **fom):
    """A strongly forced cavity problem of three steps."""
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=1e-2, t_final=0.03,
                    time_integrator=integrator, snapshot_window=(0.0, 0.03),
                    stabilization=StabilizationConfig(grad_div=0.3), **fom)
    return FOMProblem(build_rect_mesh(1.0, 1.0, 4, 4), cfg, enclosed_case(slow_swirl))


def euler_cavity():
    """The implicit-Euler :func:`forced_cavity` and its run."""
    problem = forced_cavity()
    return problem, run_fom(problem)


def convected(problem, w):
    """The velocity values of an implicit-Euler sweep convected by ``w``."""
    space = problem.vel_space
    return problem.velocity_values(1.0 / problem.config.dt,
                                   convection_matrix(space, w))


@pytest.fixture
def factored(monkeypatch):
    """The column ordering of each ``splu`` call made while it is active."""
    specs, splu = [], spla.splu

    def recording(a, **kwargs):
        specs.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(a, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return specs


EPS4 = 4.0 * np.finfo(float).eps


def backward_error_bound(a, x, b):
    """4 eps (‖a‖ ‖x‖ + ‖b‖) in the infinity norm."""
    return EPS4 * (spla.norm(a, np.inf) * np.abs(x).max() + np.abs(b).max())


Solve = namedtuple("Solve", "values rhs x specs triangular")
Chord = namedtuple("Chord", "w rhs boundary x triangular action")


def reduced_rhs(problem, values, chord):
    """The free right-hand side of a chord's system, whose velocity block
    has ``values``: its load less the lifting of its boundary values."""
    whole = sp.bmat([[problem.velocity_block(values), -problem.divergence.T],
                     [problem.divergence, problem.pressure_stabilization]], format="csr")
    lifted = np.concatenate([chord.boundary, np.zeros(problem.n_pressure)])
    lifted[problem.free_global] = 0.0
    rhs = np.concatenate([chord.rhs, np.zeros(problem.n_pressure)])
    return (rhs - whole @ lifted)[problem.free_global]


@pytest.fixture
def solves(monkeypatch, factored):
    """In call order, a :class:`Solve` of each assembled saddle-point solve
    made while it is active (its velocity values, right-hand side and
    solution, the orderings of its factors and its count of triangular
    solves) and a :class:`Chord` of each Picard sweep's correction against
    the run's factor (its convecting field, velocity right-hand side,
    boundary values, solution on the free DOFs, None on a miss, its count
    of triangular solves and the convection action it returned)."""
    solves, solve, correct, splu, triangular = (
        [], _SaddleLayout.solve, FOMProblem.correct, spla.splu, [0])

    class Counted:
        def __init__(self, lu):
            self.lu, self.perm_c = lu, lu.perm_c

        def solve(self, b):
            triangular[0] += 1
            return self.lu.solve(b)

    def recording(self, values, rhs, lagged):
        before, count = len(factored), triangular[0]
        x = solve(self, values, rhs, lagged)
        solves.append(Solve(values.copy(), rhs.copy(), x, factored[before:],
                            triangular[0] - count))
        return x

    def correcting(self, w, rhs, boundary, lagged):
        count = triangular[0]
        got = correct(self, w, rhs, boundary, lagged)
        solves.append(Chord(w.copy(), rhs.copy(), boundary.copy(),
                            lagged[1][self._saddle._labels] if lagged else None,
                            triangular[0] - count, got and got[2]))
        return got

    monkeypatch.setattr(spla, "splu", lambda a, **kwargs: Counted(splu(a, **kwargs)))
    monkeypatch.setattr(_SaddleLayout, "solve", recording)
    monkeypatch.setattr(FOMProblem, "correct", correcting)
    return solves


def picard_solves(solves):
    """The implicit-Euler :func:`euler_cavity` run's solves: the first
    step's ordering and factoring sweeps, then each step's corrections
    against that factor, none missing, and its accepted sweep's system
    solved again, to 4 eps."""
    problem, run = euler_cavity()
    kinds = "".join("c" if isinstance(solve, Chord) else "s" for solve in solves)
    assert re.fullmatch(f"ss(cc+s){{{problem.config.n_steps}}}", kinds), kinds
    assert [solve.specs for solve in solves if isinstance(solve, Solve)] == (
        [["COLAMD"], ["MMD_AT_PLUS_A"]] + [[]] * problem.config.n_steps)
    return problem, solves


def test_accepted_picard_sweeps_refine_to_the_backward_error_bound(solves):
    problem, solves = picard_solves(solves)
    accepted = [solve for solve in solves if isinstance(solve, Solve)][2:]
    assert len(accepted) == problem.config.n_steps
    for values, rhs, x, *_ in accepted:
        a = saddle_system(problem, values)
        want = spla.splu(a).solve(rhs)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(rhs - a @ x).max() <= backward_error_bound(a, x, rhs)


def test_intermediate_picard_sweeps_make_one_correction_each(solves):
    problem, solves = picard_solves(solves)
    n_free = problem.free_velocity.size
    contraction = problem.config.nonlinear_tolerance ** (1 / podflow.fom._REFINEMENT_CAP)
    short_of_4_eps = 0
    for last, chord in zip(solves, solves[1:]):
        if not isinstance(chord, Chord):
            continue
        # one triangular solve, from the convecting field and the last
        # pressure, which shrinks the residual of the sweep's assembled
        # system by the contraction at least
        assert chord.triangular == 1
        values = convected(problem, chord.w)
        a, b = saddle_system(problem, values), reduced_rhs(problem, values, chord)
        start = np.concatenate([chord.w[problem.free_velocity], last.x[n_free:]])
        error = np.abs(b - a @ chord.x).max()
        assert error <= contraction * np.abs(b - a @ start).max()
        short_of_4_eps += error > backward_error_bound(a, chord.x, b)
    # the sweeps stop short of what the accepted sweep needs
    assert short_of_4_eps > 0


def test_the_accepted_sweep_solves_the_system_its_last_correction_applied(solves):
    problem, solves = picard_solves(solves)
    space = problem.vel_space
    shape = (len(space.cell_scalar_dofs), space.n_local, space.n_local)
    rows = np.concatenate([np.broadcast_to(space.cell_dofs(c)[:, :, None], shape).ravel()
                           for c in range(2)])
    cols = np.concatenate([np.broadcast_to(space.cell_dofs(c)[:, None, :], shape).ravel()
                           for c in range(2)])
    accepted = 0
    for chord, solve in zip(solves, solves[1:]):
        if isinstance(chord, Chord) and isinstance(solve, Solve):
            # SciPy's sum of the correction's element matrices, the same
            # for both components
            local = chord.action.local.ravel()
            m = sp.coo_matrix((np.tile(local, 2), (rows, cols)),
                              shape=(space.n_dofs, space.n_dofs)).tocsr()
            assert np.array_equal(m.indptr, problem.mass.indptr)
            assert np.array_equal(m.indices, problem.mass.indices)
            want = problem.velocity_values(1.0 / problem.config.dt, m)
            assert np.array_equal(solve.values.view(np.int64), want.view(np.int64))
            accepted += 1
    assert accepted == problem.config.n_steps


def test_a_steps_third_and_later_contracting_corrections_act_with_convection_once(
        monkeypatch, solves):
    acted, counts = [0], []
    action, correct = _ConvectionAction.__call__, FOMProblem.correct

    def acting(self, z):
        acted[0] += 1
        return action(self, z)

    def correcting(self, *args):
        before = acted[0]
        got = correct(self, *args)
        counts.append(acted[0] - before)
        return got

    monkeypatch.setattr(_ConvectionAction, "__call__", acting)
    monkeypatch.setattr(FOMProblem, "correct", correcting)
    problem, solves = picard_solves(solves)
    n_free = problem.free_velocity.size
    contraction = problem.config.nonlinear_tolerance ** (1 / podflow.fom._REFINEMENT_CAP)
    counts, once, since = iter(counts), 0, 0
    for last, chord in zip(solves, solves[1:]):
        if not isinstance(chord, Chord):
            since = 0  # an assembled sweep, or a step's accepted one solved again
            continue
        # the size of the residual the correction starts from, formed as
        # the correction forms it
        zero = np.zeros(problem.n_pressure)
        x = np.concatenate([chord.boundary, zero])
        x[problem.free_global] = np.concatenate(
            [chord.w[problem.free_velocity], last.x[n_free:]])
        r = (np.concatenate([chord.rhs, zero]) - problem._static_saddle @ x
             - np.concatenate([chord.action(x[:problem.n_velocity]), zero]))
        size = np.abs(r[problem.free_global]).max()
        since += 1
        # the first two after a start form the residual after the solve
        # too; a later one only when its start did not contract
        contracted = since > 2 and size <= contraction * previous
        assert next(counts) == (1 if contracted else 2), since
        once += contracted
        previous = size
    assert once > 0


def test_a_far_off_factor_falls_back_to_a_fresh_factor(factored):
    problem, run = euler_cavity()
    layout = problem._saddle
    w = run.snapshots[0].fields[:, -1]
    near, far = convected(problem, w), convected(problem, 1e4 * w)
    rhs = np.random.default_rng(5).standard_normal(problem.free_global.size)
    lagged = []
    layout.solve(far, rhs, lagged)
    far_factor = lagged[0]
    del factored[:]
    got = layout.solve(near, rhs, lagged)
    # refinement with the far factor from the far solution misses the
    # bound, so the system is factored afresh in implicit Euler's symmetric
    # order, and the holder keeps that factor and its solution in the
    # relabelled order
    assert factored == ["MMD_AT_PLUS_A"]
    assert len(lagged) == 2 and lagged[0] is not far_factor
    a = saddle_system(problem, near)
    want = np.linalg.solve(a.toarray(), rhs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(rhs - a @ got).max() <= backward_error_bound(a, got, rhs)
    assert np.array_equal(lagged[1], got[layout._order])
    # the next sweep refines against the new factor from that solution
    del factored[:]
    again = layout.solve(convected(problem, 0.99 * w), rhs, lagged)
    assert factored == []
    assert np.array_equal(lagged[1], again[layout._order])


def test_a_factor_singular_in_the_symmetric_order_is_made_in_the_first_solves(factored):
    # two cells: two free velocity DOFs against three free pressures, a
    # singular system that SuperLU finds exactly singular only in the
    # symmetric order
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=1e-2, t_final=0.03,
                    time_integrator="implicit_euler",
                    stabilization=StabilizationConfig(grad_div=0.3))
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    run = run_fom(FOMProblem(mesh, cfg, enclosed_case(slow_swirl)))
    assert run.times.size == cfg.n_steps
    assert np.all(np.isfinite(run.final_state.u)) and np.all(np.isfinite(run.final_state.p))
    # each symmetric factor falls back to one in the first solve's order
    fallbacks = (len(factored) - 1) // 2
    assert fallbacks > 0
    assert factored == ["COLAMD"] + ["MMD_AT_PLUS_A", "NATURAL"] * fallbacks
    # and the run is bit for bit one whose every factor takes that order
    problem = FOMProblem(mesh, cfg, enclosed_case(slow_swirl))
    problem._saddle._refines = False
    want = run_fom(problem).final_state
    assert np.array_equal(run.final_state.u.view(np.int64), want.u.view(np.int64))
    assert np.array_equal(run.final_state.p.view(np.int64), want.p.view(np.int64))


def test_a_far_off_factor_in_the_holder_makes_a_step_factor_afresh_once(factored):
    problem, run = euler_cavity()
    w = run.snapshots[0].fields[:, -1]
    # a step whose first sweep factors, and the holder it leaves, with the
    # factor swapped for that of a system convected far harder
    lagged = []
    want = podflow.fom._step(problem, run.final_state, lagged, False)
    far = []
    problem._saddle.solve(convected(problem, 1e4 * w), np.ones(problem.free_global.size), far)
    lagged[0] = far[0]
    del factored[:]
    got = podflow.fom._step(problem, run.final_state, lagged, False)
    # the first sweep's correction contracts too little, so it factors
    # afresh, and the later sweeps correct against that factor: the step
    # is bit for bit the one with the empty holder
    assert factored == ["MMD_AT_PLUS_A"]
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.p, want.p)


def test_a_far_off_start_passes_one_poor_correction_and_renews_the_factor_a_sweep_late(
        monkeypatch, factored):
    problem, run = euler_cavity()
    w = run.snapshots[0].fields[:, -1]
    want = podflow.fom._step(problem, run.final_state, [], False)
    # the factor of a system convected far harder, with that system's own
    # solution as the last one, so the first sweep starts far off too
    far = []
    problem._saddle.solve(convected(problem, 1e4 * w), np.ones(problem.free_global.size), far)
    passed, correct = [], FOMProblem.correct

    def recording(self, *args):
        passed.append((got := correct(self, *args)) is not None)
        return got

    monkeypatch.setattr(FOMProblem, "correct", recording)
    del factored[:]
    got = podflow.fom._step(problem, run.final_state, far, False)
    # the rule measures a correction from its own start: the first passes,
    # the second misses and factors, and the step factors no more
    assert passed[:2] == [True, False] and all(passed[2:])
    assert factored == ["MMD_AT_PLUS_A"]
    diff = got.u - want.u
    mass = problem.mass
    assert np.sqrt(diff @ (mass @ diff)) <= (problem.config.nonlinear_tolerance
                                            * np.sqrt(want.u @ (mass @ want.u)))


def test_a_run_matches_picard_with_an_exact_factor_per_sweep(monkeypatch, factored):
    problem, run = euler_cavity()

    def miss(self, w, rhs, boundary, lagged):
        lagged.clear()

    monkeypatch.setattr(FOMProblem, "correct", miss)
    del factored[:]
    want = run_fom(forced_cavity())
    # every sweep but the ordering one factored afresh
    assert len(factored) > problem.config.n_steps + 2
    for got, ref in ((a.fields, b.fields) for a, b in zip(run.snapshots, want.snapshots)):
        for k in range(1, ref.shape[1]):
            assert np.abs(got[:, k] - ref[:, k]).max() <= 1e-9 * np.abs(ref[:, k]).max()


def test_bdf2_solves_stay_bit_for_bit_splu_beside_the_run_holder(monkeypatch, solves):
    def refined(*args):
        raise AssertionError("a BDF2 solve refined")

    monkeypatch.setattr(podflow.fom, "_refined", refined)
    problem = forced_cavity("bdf2_semi_implicit")
    run_fom(problem)
    monkeypatch.undo()
    # the ordering factorization, then one factor per step
    assert [solve.specs for solve in solves] == [["COLAMD"]] + [["NATURAL"]] * 2
    for values, rhs, x, *_ in solves:
        want = spla.splu(saddle_system(problem, values)).solve(rhs)
        assert np.array_equal(x.view(np.int64), want.view(np.int64))


def test_a_bdf2_run_never_acts_with_convection(monkeypatch):
    def action(*args):
        raise AssertionError("a BDF2 sweep corrected against a lagged factor")

    monkeypatch.setattr(podflow.fom, "convection_action", action)
    run_fom(forced_cavity("bdf2_semi_implicit"))


def live_factors():
    """The SuperLU factors held by objects the garbage collector tracks,
    such as a list or the frame of a traceback."""
    gc.collect()
    return sum(isinstance(held, spla.SuperLU)
               for obj in gc.get_objects() for held in gc.get_referents(obj))


def test_no_factor_outlives_the_run(factored):
    before = live_factors()
    euler_cavity()
    assert factored == ["COLAMD", "MMD_AT_PLUS_A"]
    assert live_factors() == before
    # the third sweep corrects, then the error keeps run_fom's frame alive
    del factored[:]
    problem = forced_cavity(nonlinear_max_iterations=3, nonlinear_tolerance=1e-15)
    with pytest.raises(NonlinearSolveError) as info:
        run_fom(problem)
    assert len(info.value.residual_history) == 3
    assert factored == ["COLAMD", "MMD_AT_PLUS_A"]
    assert live_factors() == before


@pytest.mark.parametrize("integrator", ["bdf2_semi_implicit", "implicit_euler"])
def test_only_a_probed_run_forms_the_step_residual(integrator):
    problem = forced_cavity(integrator)
    assert run_fom(problem).final_state.residual is None

    class Probe:
        fields = np.eye(problem.n_velocity)[:, :2]
        coefficients = staticmethod(tuple)

    run = run_fom(problem, probe=Probe())
    residual = run.final_state.residual
    assert np.array_equal(run.qoi[-1, 2:4], Probe.fields.T @ residual)
    # the momentum residual vanishes on the free velocity DOFs
    free = np.abs(residual[problem.free_velocity]).max()
    assert free <= 1e-10 * np.abs(residual).max()


def test_an_exact_zero_stays_a_stored_zero_of_the_one_pattern(factored):
    problem, run = euler_cavity()
    layout = problem._saddle
    space = problem.vel_space
    w = run.snapshots[0].fields[:, -1]
    rhs = np.random.default_rng(6).standard_normal(problem.free_global.size)
    # an exact zero in a free x free velocity entry, which SciPy's sum drops
    conv = convection_matrix(space, 0.99 * w)
    scale = 1.0 / problem.config.dt
    base = scale * problem.mass + problem._static_velocity_block
    coo = conv.tocoo()
    free_v = set(problem.free_velocity.tolist())
    k = next(k for k in range(conv.nnz) if coo.row[k] in free_v and coo.col[k] in free_v)
    conv.data[k] = -base[coo.row[k], coo.col[k]]
    values = problem.velocity_values(scale, conv)
    assert problem.velocity_block(values)[coo.row[k], coo.col[k]] == 0.0
    nnz = layout._system.nnz
    del factored[:]
    x = layout.solve(values, rhs, [])
    # the pattern of the run's first solve serves: one factor of it in
    # implicit Euler's symmetric order, the zero kept in it
    assert layout._system.nnz == nnz
    assert factored == ["MMD_AT_PLUS_A"]
    a = saddle_system(problem, values)
    want = np.linalg.solve(a.toarray(), rhs)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(rhs - a @ x).max() <= backward_error_bound(a, x, rhs)


def test_velocity_values_build_their_fixed_part_once_per_mass_scale():
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=1e-2, t_final=0.03,
                    stabilization=StabilizationConfig(grad_div=0.3))
    problem = FOMProblem(build_rect_mesh(1.0, 1.0, 4, 4), cfg, enclosed_case())
    space = problem.vel_space
    rng = np.random.default_rng(8)
    convections = [convection_matrix(space, rng.standard_normal(space.n_dofs))
                   for _ in range(2)]
    bases = []
    # BDF2's and implicit Euler's scales, then back: a base kept from the
    # last scale would give the wrong values
    for scale in (150.0, 150.0, 100.0, 150.0):
        for conv in convections:
            values = problem.velocity_values(scale, conv)
            want = scale * problem.mass + problem._static_velocity_block + conv
            got = problem.velocity_block(values)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), scale
            bases.append(problem._velocity_base[1])
            assert not np.shares_memory(values, bases[-1])
    # one base per run of equal scales: built anew at the two switches only
    assert [k for k in range(1, 8) if bases[k] is not bases[k - 1]] == [4, 6]


# -- divergence behavior of solved states ------------------------------------


def test_divergence_contrast_between_schemes():
    mesh = build_rect_mesh(1.0, 1.0, 6, 6)
    results = {}
    for scheme in ("lps", "graddiv"):
        cfg = FOMConfig(scheme=scheme, nu=5e-3, dt=0.01, t_final=0.05,
                        stabilization=StabilizationConfig(grad_div=0.3),
                        snapshot_window=(0.01, 0.05))
        problem = FOMProblem(mesh, cfg, enclosed_case(forcing=separable_swirl))
        run = run_fom(problem)
        divs = [
            weak_divergence(run.snapshots[0].fields[:, j], problem.divergence,
                            problem.pressure_mass)
            for j in range(run.snapshots[0].n_snapshots)
        ]
        results[scheme] = divs
    assert max(results["graddiv"]) <= 1e-10
    assert min(results["lps"]) > 1e-6


def test_lps_pressure_form_matches_weighted_fluctuation_norm():
    # evaluate the stabilization quadratic form on a solved pressure through
    # the factored route: sample gradients, project out the element mean,
    # integrate with tau-weighted local mass blocks
    mesh = build_rect_mesh(1.0, 1.0, 5, 5)
    cfg = FOMConfig(scheme="lps", nu=5e-3, dt=0.01, t_final=0.02)
    problem = FOMProblem(mesh, replace(cfg, t_final=cfg.dt),
                         enclosed_case(forcing=separable_swirl))
    p = run_fom(problem).final_state.p

    direct = float(p @ (problem.pressure_stabilization @ p))
    g = gradient_sample_matrix(problem.pres_space)
    f = assemble_lps_fluctuation(problem.pres_space)
    samples = (f @ (g @ p)).reshape(len(mesh.triangles), 2, 3)
    p1_mass = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    areas = 0.5 * mesh.jacobians[2]
    tau = cfg.stabilization.tau_pressure(mesh.h_K)
    factored = float(
        np.einsum("e,ecij,eci,ecj->", tau * areas,
                  np.broadcast_to(p1_mass, (len(mesh.triangles), 2, 3, 3)),
                  samples, samples)
    )
    assert abs(direct - factored) <= 1e-12 * max(direct, 1e-30)
    assert direct > 0.0


# -- snapshots ----------------------------------------------------------------


def make_small_run():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=0.01, t_final=0.04,
                    stabilization=StabilizationConfig(grad_div=0.3),
                    snapshot_window=(0.01, 0.04))
    problem = FOMProblem(mesh, cfg, enclosed_case(forcing=separable_swirl))
    run = run_fom(problem)
    return problem, run, run.snapshots


def test_a_centred_basis_keeps_the_mean_of_the_raw_snapshots():
    problem, run, (vel, pres) = make_small_run()
    assert vel.n_snapshots == pres.n_snapshots == 4
    # the snapshots are the states the run computed
    assert np.array_equal(vel.fields[:, -1], run.final_state.u)
    assert np.array_equal(pres.fields[:, -1], run.final_state.p)
    recorded = vel.fields.copy()
    basis = build_basis(vel, problem.mass, center=True)
    assert np.array_equal(vel.fields, recorded)
    assert np.array_equal(basis.mean, recorded.mean(axis=1))
    # the basis spans the snapshots' fluctuations about that mean
    centred = recorded - basis.mean[:, None]
    assert np.abs(centred.mean(axis=1)).max() < 1e-12
    assert np.abs(basis.modes @ (basis.modes.T @ (problem.mass @ centred)) - centred).max() \
        < 1e-10 * np.abs(centred).max()
    assert build_basis(pres, problem.pressure_mass).mean is None


def test_a_run_without_a_window_records_empty_snapshot_sets():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    cfg = FOMConfig(scheme="lps", nu=1e-2, dt=0.01, t_final=0.02)
    problem = FOMProblem(mesh, cfg, enclosed_case())
    vel, pres = run_fom(problem).snapshots
    assert vel.fields.shape == (problem.n_velocity, 0)
    assert pres.fields.shape == (problem.n_pressure, 0)
    assert vel.space_signature == problem.vel_space.signature()
    with pytest.raises(ValueError, match="empty"):
        build_basis(vel, problem.mass)


def test_snapshot_container_round_trip(tmp_path):
    problem, _, (vel, pres) = make_small_run()
    path = tmp_path / "vel.snap"
    save_snapshots(vel, path)
    back = load_snapshots(path, expected_signature=problem.vel_space.signature())
    assert back.space_signature == vel.space_signature
    assert np.array_equal(back.times, vel.times)
    assert np.array_equal(back.fields, vel.fields)
    # the scheme, step and stride are the run's config; the window is in times
    assert read_container(path)[0] == {"signature": vel.space_signature}
    assert set(read_container(path)[1]) == {"times", "fields"}
    with pytest.raises(ValueError):
        load_snapshots(path, expected_signature=problem.pres_space.signature())
    save_snapshots(pres, tmp_path / "pres.snap")
    back_p = load_snapshots(tmp_path / "pres.snap")
    assert np.array_equal(back_p.fields, pres.fields)


# -- steady solve -------------------------------------------------------------


def test_steady_solve_is_the_time_limit_of_unforced_dynamics():
    # with steady forcing the linear steady solve satisfies the same
    # boundary conditions and divergence structure as the time stepper
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    steady = steady_forcing(lambda x, y: (np.sin(np.pi * y), np.sin(np.pi * x)))
    cfg = FOMConfig(scheme="graddiv", nu=5e-3, dt=0.01, t_final=0.02,
                    stabilization=StabilizationConfig(grad_div=0.3))
    problem = FOMProblem(mesh, cfg, enclosed_case(forcing=steady))
    u, p = solve_stokes(problem)
    assert weak_divergence(u, problem.divergence, problem.pressure_mass) <= 1e-10
    mean = np.ones(problem.n_pressure) @ (problem.pressure_mass @ p)
    assert abs(mean) < 1e-12
    assert np.abs(u[problem.constrained_velocity]).max() == 0.0

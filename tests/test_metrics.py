import numpy as np
import pytest
import sympy as sym

from oracles import eval_field, refine_uniform, solve_stokes, steady_forcing, triple_norm

from podflow.assembly import (
    StabilizationConfig,
    assemble_divergence,
    assemble_load,
    assemble_lps_matrices,
    assemble_mass,
    assemble_stiffness,
)
from podflow.fe_space import FESpace, interpolate
from podflow.fom import FlowCase, FOMConfig, FOMProblem
from podflow.mesh import build_rect_mesh
from podflow.metrics import (
    DragLiftProbe,
    analytic_l2_error,
    discrete_l2_error,
    error_indicators,
    kinetic_energy,
    weak_divergence,
)

ZERO_BC = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))


# -- kinetic energy --------------------------------------------------------


def test_kinetic_energy_of_constant_and_zero_fields():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    space = FESpace(mesh, degree=2, components=2)
    mass = assemble_mass(space)
    const = interpolate(space, lambda x, y, t: (np.ones_like(x), np.zeros_like(x)), 0.0)
    assert abs(kinetic_energy(const, mass) - 0.5) <= 1e-13
    assert kinetic_energy(np.zeros(space.n_dofs), mass) == 0.0


def test_kinetic_energy_matches_closed_form_for_trig_field():
    # u = (sin(pi x) sin(pi y), 0) on the unit square: E = 1/2 * 1/4
    mesh = build_rect_mesh(1.0, 1.0, 16, 16)
    space = FESpace(mesh, degree=2, components=2)
    mass = assemble_mass(space)
    u = interpolate(
        space,
        lambda x, y, t: (np.sin(np.pi * x) * np.sin(np.pi * y), np.zeros_like(x)),
        0.0,
    )
    assert abs(kinetic_energy(u, mass) - 0.125) <= 5e-6


# -- quadrature L2 distance -------------------------------------------------


def test_analytic_l2_error_is_zero_for_representable_field():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    space = FESpace(mesh, degree=2, components=2)
    g = lambda x, y, t: (x**2 + 2.0 * y, x * y - 1.0)
    field = interpolate(space, g, 0.0)
    assert analytic_l2_error(space, field, g, 0.0) <= 1e-12


def test_analytic_l2_error_of_zero_field_is_function_norm():
    mesh = build_rect_mesh(2.0, 1.0, 4, 4)
    space = FESpace(mesh, degree=2, components=2)
    g = lambda x, y, t: (np.ones_like(x), np.zeros_like(x))
    assert abs(analytic_l2_error(space, np.zeros(space.n_dofs), g, 0.0) - np.sqrt(2.0)) <= 1e-12


def test_analytic_l2_error_of_interpolant_decays_at_cubic_order():
    g = lambda x, y, t: (np.sin(2 * x + y), np.cos(x - y))
    errors = []
    for n in (4, 8, 16):
        mesh = build_rect_mesh(1.0, 1.0, n, n)
        space = FESpace(mesh, degree=2, components=2)
        errors.append(analytic_l2_error(space, interpolate(space, g, 0.0), g, 0.0))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 2.8


def test_analytic_l2_error_passes_time_argument():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    space = FESpace(mesh, degree=2, components=1)
    g = lambda x, y, t: x * y * t
    field = interpolate(space, g, 2.5)
    assert analytic_l2_error(space, field, g, 2.5) <= 1e-13
    assert analytic_l2_error(space, field, g, 5.0) > 1e-2


# -- weak divergence --------------------------------------------------------


def test_weak_divergence_vanishes_for_constant_field():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    vel = FESpace(mesh, degree=2, components=2)
    pres = FESpace(mesh, degree=1, components=1)
    div = assemble_divergence(vel, pres)
    pmass = assemble_mass(pres)
    u = interpolate(vel, lambda x, y, t: (np.ones_like(x), -np.ones_like(x) * 2.0), 0.0)
    assert weak_divergence(u, div, pmass) <= 1e-13


def test_weak_divergence_matches_load_vector_route():
    # for u = (x, y), (q, div u) = 2 (q, 1), so the divergence residual can
    # be reproduced independently through the scalar load vector
    mesh = build_rect_mesh(1.5, 1.0, 5, 4)
    vel = FESpace(mesh, degree=2, components=2)
    pres = FESpace(mesh, degree=1, components=1)
    div = assemble_divergence(vel, pres)
    pmass = assemble_mass(pres)
    u = interpolate(vel, lambda x, y, t: (x, y), 0.0)
    ones = assemble_load(pres, lambda x, y: np.ones_like(x))
    expected = np.max(2.0 * np.abs(ones) / np.sqrt(pmass.diagonal()))
    got = weak_divergence(u, div, pmass)
    assert got > 1e-3
    assert abs(got - expected) <= 1e-12 * expected


# -- drag and lift -----------------------------------------------------------


def channel_mesh(nx=32, ny=8, refine=0):
    mesh = build_rect_mesh(1.6, 0.4, nx, ny, hole=(0.2, 0.15, 0.3, 0.25))
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    return mesh


def channel_case(u_max=0.3, height=0.4):
    def inflow(x, y, t):
        return (4.0 * u_max * y * (height - y) / height**2, np.zeros_like(x))

    return FlowCase(
        "channel",
        dirichlet={"inlet": inflow, "wall": ZERO_BC, "obstacle": ZERO_BC},
    )


def test_drag_probe_requires_obstacle_boundary():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    cfg = FOMConfig(scheme="graddiv", nu=1e-3, dt=1e-2, t_final=1e-2)
    problem = FOMProblem(mesh, cfg, FlowCase("box", dirichlet={"wall": ZERO_BC}))
    with pytest.raises(ValueError):
        DragLiftProbe(problem, reference_velocity=1.0, reference_length=1.0)


def _channel_probe(problem):
    return DragLiftProbe(problem, reference_velocity=0.2, reference_length=0.1)


def _stokes_residual(problem, u, p):
    """The steady momentum residual of a Stokes solution."""
    return problem._static_velocity_block @ u - problem.divergence.T @ p \
        - problem.load_vector(0.0)


def test_drag_and_lift_are_zero_for_zero_fields():
    mesh = channel_mesh()
    cfg = FOMConfig(scheme="graddiv", nu=1e-3, dt=1e-2, t_final=1e-2,
                    stabilization=StabilizationConfig(grad_div=0.1))
    problem = FOMProblem(mesh, cfg, channel_case())
    probe = _channel_probe(problem)
    zero_u, zero_p = np.zeros(problem.n_velocity), np.zeros(problem.n_pressure)
    tested = probe.fields.T @ _stokes_residual(problem, zero_u, zero_p)
    c_d, c_l = probe.coefficients(tested)
    assert c_d == 0.0 and c_l == 0.0


def _boundary_traction_force(problem, u, p, nu):
    """Integrate the pseudo-traction nu (grad u) n - p n over the obstacle.

    The normal points out of the fluid (into the obstacle), and fields are
    evaluated from the fluid-side triangle with three-point Gauss per edge.
    """
    mesh = problem.mesh
    owner = {}
    for e, tri in enumerate(mesh.triangles):
        for k in range(3):
            pair = tuple(sorted((tri[(k + 1) % 3], tri[(k + 2) % 3])))
            owner.setdefault(pair, (e, k))
    gauss_t = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
    gauss_w = np.array([5.0, 8.0, 5.0]) / 18.0
    force = np.zeros(2)
    for pair, tag in mesh.boundary_edges.items():
        if tag != "obstacle":
            continue
        e, k = owner[tuple(sorted(pair))]
        tri = mesh.triangles[e]
        a, b = mesh.vertices[pair[0]], mesh.vertices[pair[1]]
        tangent = b - a
        length = np.hypot(*tangent)
        normal = np.array([tangent[1], -tangent[0]]) / length
        opposite = mesh.vertices[tri[k]]
        if normal @ (opposite - a) > 0:  # make it point away from the fluid
            normal = -normal
        loc_a = int(np.where(tri == pair[0])[0][0])
        loc_b = int(np.where(tri == pair[1])[0][0])
        for t, w in zip(gauss_t, gauss_w):
            lam = np.zeros(3)
            lam[loc_a], lam[loc_b] = 1.0 - t, t
            _, grad = eval_field(problem.vel_space, u, e, lam, gradient=True)
            p_val = eval_field(problem.pres_space, p, e, lam)
            force += w * length * (nu * grad @ normal - p_val * normal)
    return force


def _manufactured_stokes_case(nu):
    """Smooth closed-form Stokes data on the holed channel.

    The exact solution is globally smooth, so traction extraction along the
    obstacle converges fast; phases keep both force components order one.
    The viscosity is large and the amplitude small so the convective term
    in the volume functional is negligible against the 2 percent budget.
    """
    width, height, amp = 1.6, 0.4, 1e-3
    xs, ys = sym.symbols("x y")
    stream = amp * sym.sin(sym.pi * xs / width + sym.Rational(2, 5)) \
        * sym.sin(sym.pi * ys / height + sym.Rational(7, 10))
    u0s, u1s = sym.diff(stream, ys), -sym.diff(stream, xs)
    ps = amp * sym.sin(2 * sym.pi * xs / width + 1) \
        * sym.sin(sym.pi * ys / height + sym.Rational(1, 2))
    f0s = -nu * (sym.diff(u0s, xs, 2) + sym.diff(u0s, ys, 2)) + sym.diff(ps, xs)
    f1s = -nu * (sym.diff(u1s, xs, 2) + sym.diff(u1s, ys, 2)) + sym.diff(ps, ys)
    u0, u1, f0, f1 = (sym.lambdify((xs, ys), e, "numpy")
                      for e in (u0s, u1s, f0s, f1s))
    trace = lambda x, y, t: (u0(x, y), u1(x, y))
    forcing = steady_forcing(lambda x, y: (f0(x, y), f1(x, y)))
    case = FlowCase(
        "manufactured_stokes",
        dirichlet={k: trace for k in ("inlet", "outlet", "wall", "obstacle")},
        forcing=forcing,
        zero_mean_pressure=True,
    )
    return case, forcing


def test_stokes_drag_volume_route_matches_boundary_traction():
    nu = 1.0
    case, _ = _manufactured_stokes_case(nu)

    def solve(mesh):
        cfg = FOMConfig(scheme="graddiv", nu=nu, dt=1e-2, t_final=1e-2,
                        stabilization=StabilizationConfig(grad_div=0.1))
        problem = FOMProblem(mesh, cfg, case)
        u, p = solve_stokes(problem)
        return problem, u, p

    base = channel_mesh()
    problem, u, p = solve(base)
    probe = _channel_probe(problem)
    c_d, c_l = probe.coefficients(probe.fields.T @ _stokes_residual(problem, u, p))

    fine_problem, u_fine, p_fine = solve(refine_uniform(base))
    force = _boundary_traction_force(fine_problem, u_fine, p_fine, nu)
    scale = -2.0 / (0.1 * 0.2**2)
    c_d_tr, c_l_tr = scale * force
    assert abs(c_d_tr) > 0.1 and abs(c_l_tr) > 0.1
    assert abs(c_d - c_d_tr) <= 0.02 * abs(c_d_tr)
    assert abs(c_l - c_l_tr) <= 0.02 * abs(c_l_tr)


def test_physical_channel_stokes_drag_is_positive_and_lift_small():
    nu = 1e-3
    mesh = channel_mesh()
    cfg = FOMConfig(scheme="graddiv", nu=nu, dt=1e-2, t_final=1e-2,
                    stabilization=StabilizationConfig(grad_div=0.1))
    problem = FOMProblem(mesh, cfg, channel_case())
    u, p = solve_stokes(problem)
    probe = _channel_probe(problem)
    c_d, c_l = probe.coefficients(probe.fields.T @ _stokes_residual(problem, u, p))
    assert c_d > 0.0
    # the obstacle sits on the channel centerline, so creeping-flow lift is
    # small against the drag
    assert abs(c_l) <= 0.05 * c_d


# -- trajectory distance ------------------------------------------------------


def test_discrete_l2_error_identities():
    rng = np.random.default_rng(3)
    n, steps, dt = 7, 5, 0.25
    gram_root = rng.normal(size=(n, n))
    gram = gram_root @ gram_root.T + n * np.eye(n)
    a = rng.normal(size=(n, steps))
    assert discrete_l2_error(a, a, gram, dt) == 0.0
    # constant per-column offset accumulates as sqrt(steps * dt) * |c|_gram
    c = rng.normal(size=n)
    b = a + c[:, None]
    expected = np.sqrt(steps * dt * c @ (gram @ c))
    assert abs(discrete_l2_error(a, b, gram, dt) - expected) <= 1e-12 * expected


def test_discrete_l2_error_is_a_metric_on_random_trajectories():
    rng = np.random.default_rng(11)
    n, steps, dt = 6, 4, 0.1
    gram_root = rng.normal(size=(n, n))
    gram = gram_root @ gram_root.T + n * np.eye(n)
    a, b, c = (rng.normal(size=(n, steps)) for _ in range(3))
    d_ab = discrete_l2_error(a, b, gram, dt)
    d_ba = discrete_l2_error(b, a, gram, dt)
    d_ac = discrete_l2_error(a, c, gram, dt)
    d_cb = discrete_l2_error(c, b, gram, dt)
    assert abs(d_ab - d_ba) <= 1e-14 * d_ab
    assert d_ab <= d_ac + d_cb + 1e-12


def test_discrete_l2_error_rejects_mismatched_shapes():
    gram = np.eye(3)
    with pytest.raises(ValueError):
        discrete_l2_error(np.zeros((3, 4)), np.zeros((3, 5)), gram, 0.1)


# -- dual pressure norm -------------------------------------------------------


def _cavity_pressure_setup(seed=0, n_modes=4):
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    vel = FESpace(mesh, degree=2, components=2)
    pres = FESpace(mesh, degree=2, components=1, zero_mean=True)
    div = assemble_divergence(vel, pres)
    stiff = assemble_stiffness(vel)
    lps = assemble_lps_matrices(vel, pres, StabilizationConfig())
    modes = rng.normal(size=(vel.n_dofs, n_modes))
    z = rng.normal(size=pres.n_dofs)
    return modes, z, div, stiff, lps.pressure


def test_triple_norm_of_zero_is_zero():
    modes, _, div, stiff, s_pres = _cavity_pressure_setup()
    assert triple_norm(np.zeros(s_pres.shape[0]), modes, div, stiff, s_pres) == 0.0


def test_triple_norm_sup_term_is_attained_and_never_exceeded():
    modes, z, div, stiff, s_pres = _cavity_pressure_setup(seed=5)
    value = triple_norm(z, modes, div, stiff, s_pres)
    fluct = np.sqrt(z @ (s_pres @ z))
    sup = value - fluct

    g = (div @ modes).T @ z
    s_r = modes.T @ (stiff @ modes)
    # the maximizing direction c* = S_r^{-1} g attains the sup exactly
    c_star = np.linalg.solve(s_r, g)
    attained = (g @ c_star) / np.sqrt(c_star @ (s_r @ c_star))
    assert abs(attained - sup) <= 1e-10 * max(sup, 1.0)
    # no sampled direction in the span does better
    rng = np.random.default_rng(7)
    for c in rng.normal(size=(200, modes.shape[1])):
        ratio = abs(g @ c) / np.sqrt(c @ (s_r @ c))
        assert ratio <= sup * (1.0 + 1e-10)


def test_triple_norm_sup_grows_with_the_mode_span():
    modes, z, div, stiff, s_pres = _cavity_pressure_setup(seed=9, n_modes=6)
    fluct = np.sqrt(z @ (s_pres @ z))
    sup2 = triple_norm(z, modes[:, :2], div, stiff, s_pres) - fluct
    sup6 = triple_norm(z, modes, div, stiff, s_pres) - fluct
    assert sup6 >= sup2 - 1e-12


# -- spectral error indicators ------------------------------------------------


def test_error_indicator_formulas_and_validation():
    vel, pres = error_indicators("lps", 3.0, 0.5, 0.25)
    assert vel == pres == 3.0 * 0.5 + 0.25
    vel, pres = error_indicators("graddiv", 3.0, 0.5, 0.25, c_r_h1=2.0, alpha=0.5)
    assert vel == 1.5
    assert pres == 0.5 * 2.0 * 1.5 + 0.25
    with pytest.raises(ValueError):
        error_indicators("graddiv", 3.0, 0.5, 0.25)
    with pytest.raises(ValueError):
        error_indicators("supg", 3.0, 0.5, 0.25)


def test_error_indicators_decrease_with_spectral_tails():
    tails_v = [1e-1, 1e-2, 1e-3]
    tails_p = [1e-2, 1e-3, 1e-4]
    for scheme in ("lps", "graddiv"):
        vals = [
            error_indicators(scheme, 2.0, tv, tp, c_r_h1=1.5)
            for tv, tp in zip(tails_v, tails_p)
        ]
        for (v0, p0), (v1, p1) in zip(vals, vals[1:]):
            assert v1 < v0 and p1 < p0


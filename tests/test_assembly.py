import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lps_oracle import assemble_lps_fluctuation, gradient_sample_matrix
from oracles import apply_convection, einsum_convection_local, refine_uniform

from podflow.assembly import (
    StabilizationConfig,
    assemble_divergence,
    assemble_grad_div,
    assemble_load,
    assemble_lps_matrices,
    assemble_mass,
    assemble_stiffness,
    convection_action,
    convection_matrix,
)
import podflow.assembly
from podflow.fe_space import FESpace, interpolate
from podflow.fom import FlowCase, FOMConfig, FOMProblem, run_fom
from podflow.mesh import Mesh, build_rect_mesh


def reference_triangle_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tags = {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"}
    return Mesh(vertices, np.array([[0, 1, 2]]), tags)


def zero_boundary_field(space, rng):
    """Coefficients of a random vector field vanishing at every boundary DOF."""
    coeffs = rng.standard_normal(space.n_dofs)
    bdofs = space.boundary_scalar_dofs()
    for c in range(space.components):
        coeffs[c * space.n_scalar + bdofs] = 0.0
    return coeffs


# -- mass ---------------------------------------------------------------


def test_p1_mass_reference_triangle():
    space = FESpace(reference_triangle_mesh(), 1)
    m = assemble_mass(space).toarray()
    area = 0.5
    expected = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(m, expected, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("degree,components", [(1, 1), (2, 1), (2, 2)])
def test_mass_constant_integrates_area(degree, components):
    mesh = build_rect_mesh(1.6, 0.4, 8, 4, hole=(0.4, 0.1, 0.6, 0.3))
    space = FESpace(mesh, degree, components=components)
    ones = np.ones(space.n_dofs)
    m = assemble_mass(space)
    assert ones @ m @ ones == pytest.approx(components * mesh.area, rel=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_quadratic_form_converges(degree):
    exact = 0.25  # int sin^2(pi x) sin^2(pi y) over the unit square
    errs = []
    for n in (8, 16):
        space = FESpace(build_rect_mesh(1.0, 1.0, n, n), degree)
        f = interpolate(space, lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y), 0.0)
        val = f @ assemble_mass(space) @ f
        errs.append(abs(val - exact))
    order = np.log2(errs[0] / errs[1])
    assert order >= degree + 0.8


# -- stiffness ----------------------------------------------------------


def test_stiffness_annihilates_constants():
    space = FESpace(build_rect_mesh(1.0, 1.0, 4, 4), 2, components=2)
    a = assemble_stiffness(space)
    const = np.concatenate([np.full(space.n_scalar, 3.0), np.full(space.n_scalar, -2.0)])
    assert np.abs(a @ const).max() < 1e-12


def test_stiffness_exact_energies():
    space = FESpace(build_rect_mesh(1.0, 1.0, 5, 5), 2, components=2)
    a = assemble_stiffness(space)
    u = interpolate(space, lambda x, y, t: (x, np.zeros_like(x)), 0.0)
    assert u @ a @ u == pytest.approx(1.0, rel=1e-13)
    scalar = FESpace(space.mesh, 2)
    q = interpolate(scalar, lambda x, y, t: x**2, 0.0)
    a2 = assemble_stiffness(scalar)
    # int |grad x^2|^2 = int 4 x^2 = 4/3 on the unit square; P2 is exact
    assert q @ a2 @ q == pytest.approx(4.0 / 3.0, rel=1e-13)


# -- divergence ---------------------------------------------------------


def test_divergence_exact_values():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 1)
    b = assemble_divergence(vel, pres)
    u = interpolate(vel, lambda x, y, t: (x, y), 0.0)
    ones = np.ones(pres.n_scalar)
    assert ones @ (b @ u) == pytest.approx(2.0 * mesh.area, rel=1e-13)
    const = interpolate(vel, lambda x, y, t: (np.ones_like(x), np.full_like(x, 2.0)), 0.0)
    assert np.abs(b @ const).max() < 1e-13


def weak_divergence_residual(n, field):
    mesh = build_rect_mesh(1.0, 1.0, n, n)
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 1)
    b = assemble_divergence(vel, pres)
    m_p = assemble_mass(pres)
    u = interpolate(vel, lambda x, y, t: field(x, y), 0.0)
    r = b @ u
    return np.max(np.abs(r) / np.sqrt(m_p.diagonal()))


def test_divergence_residual_order_for_interpolated_solenoidal_field():
    # stream function exp(x) sin(y) gives an exactly solenoidal field with
    # no mesh-aligned symmetry; the interpolant's weak divergence decays
    stream = lambda x, y: (np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y))
    resid = [weak_divergence_residual(n, stream) for n in (8, 16)]
    assert resid[0] > 1e-6
    order = np.log2(resid[0] / resid[1])
    assert order >= 2.5


def test_divergence_residual_vanishes_for_symmetric_field():
    # on the uniform alternating-diagonal grid the trigonometric cellular
    # field interpolates to a discretely divergence-free function
    tg = lambda x, y: (-np.cos(np.pi * x) * np.sin(np.pi * y), np.sin(np.pi * x) * np.cos(np.pi * y))
    assert weak_divergence_residual(8, tg) < 1e-13


# -- grad-div -----------------------------------------------------------


def test_grad_div_rigid_rotation_in_kernel():
    space = FESpace(build_rect_mesh(1.0, 1.0, 4, 4), 2, components=2)
    g = assemble_grad_div(space)
    u = interpolate(space, lambda x, y, t: (-y, x), 0.0)
    assert np.abs(g @ u).max() < 1e-12


def test_grad_div_exact_value():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    space = FESpace(mesh, 2, components=2)
    u = interpolate(space, lambda x, y, t: (x, y), 0.0)
    g = assemble_grad_div(space)
    assert u @ g @ u == pytest.approx(4.0 * mesh.area, rel=1e-13)


# -- convection ---------------------------------------------------------


def test_convection_skew_symmetry_random_triples():
    space = FESpace(build_rect_mesh(1.0, 1.0, 5, 5), 2, components=2)
    m = assemble_mass(space)
    rng = np.random.default_rng(42)
    for _ in range(20):
        u = zero_boundary_field(space, rng)
        v = zero_boundary_field(space, rng)
        w = zero_boundary_field(space, rng)
        norm = lambda f: np.sqrt(f @ m @ f)
        b1 = apply_convection(space, u, v, w)
        b2 = apply_convection(space, u, w, v)
        assert abs(b1 + b2) <= 1e-12 * max(1.0, norm(u) * norm(v) * norm(w))
        assert abs(apply_convection(space, u, v, v)) <= 1e-12 * max(1.0, norm(u) * norm(v) ** 2)


@st.composite
def meshes(draw):
    """Structured meshes of random width, height and resolution, with an
    optional grid-aligned rectangular hole, optionally refined once."""
    # a refined mesh starts from at most 4 x 4 cells, so the dense
    # eigenvalue checks below stay cheap
    refined = draw(st.booleans(), label="refined")
    cells = st.integers(2, 4 if refined else 8)
    nx, ny = draw(cells, label="nx"), draw(cells, label="ny")
    width = draw(st.sampled_from([1.0, 2.2]), label="width")
    height = draw(st.sampled_from([1.0, 0.41]), label="height")
    hole = None
    if nx >= 3 and ny >= 3 and draw(st.booleans(), label="holed"):
        i0 = draw(st.integers(1, nx - 2), label="i0")
        i1 = draw(st.integers(i0 + 1, nx - 1), label="i1")
        j0 = draw(st.integers(1, ny - 2), label="j0")
        j1 = draw(st.integers(j0 + 1, ny - 1), label="j1")
        dx, dy = width / nx, height / ny
        hole = (i0 * dx, j0 * dy, i1 * dx, j1 * dy)
    mesh = build_rect_mesh(width, height, nx, ny, hole=hole)
    return refine_uniform(mesh) if refined else mesh


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_convection_matrix_is_skew_for_random_fields_on_random_meshes(mesh, seed):
    # c(u, v, v) = 1/2 of the boundary flux of u |v|^2, so it vanishes for
    # any convecting u once v is zero on every boundary, the hole's included
    space = FESpace(mesh, 2, components=2)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.n_dofs)
    v = zero_boundary_field(space, rng)
    w = zero_boundary_field(space, rng)
    c = convection_matrix(space, u)
    scale = max(np.abs(v) @ (abs(c) @ np.abs(v)), np.abs(w) @ (abs(c) @ np.abs(v)))
    assert abs(v @ (c @ v)) <= 1e-12 * scale
    assert abs(w @ (c @ v) + v @ (c @ w)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_convection_action_is_the_matrix_product_on_random_meshes(mesh, seed):
    space = FESpace(mesh, 2, components=2)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(space.n_dofs)
    assert np.all(z[space.boundary_scalar_dofs()] != 0.0)  # boundary entries act too
    for kind in ("zero", "random", "mixed", "signed"):
        w = _field_values(kind, space.n_dofs, rng)
        c = convection_matrix(space, w)
        action = convection_action(space, w)
        got = action(z)
        # to rounding of the terms' magnitudes; exactly zero for w = 0
        assert np.abs(got - c @ z).max() <= 1e-13 * (abs(c) @ np.abs(z)).max(), kind
        # its element matrices, summed, are the matrix on the same pattern
        m = action.matrix()
        assert np.array_equal(m.indptr, c.indptr) and np.array_equal(m.indices, c.indices)
        assert np.abs(m.data - c.data).max() <= 1e-13 * np.abs(c.data).max(), kind


def test_convection_exact_value():
    space = FESpace(build_rect_mesh(1.0, 1.0, 4, 4), 2, components=2)
    u = interpolate(space, lambda x, y, t: (np.ones_like(x), np.zeros_like(x)), 0.0)
    v = interpolate(space, lambda x, y, t: (x, np.zeros_like(x)), 0.0)
    # ((1,0).grad)(x,0) = (1,0); inner product with (x,0) integrates x over the square
    assert apply_convection(space, u, v, v) == pytest.approx(0.5, rel=1e-13)


def test_convection_matrix_matches_direct_evaluation():
    space = FESpace(build_rect_mesh(1.0, 1.0, 4, 4), 2, components=2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(space.n_dofs)
    v = rng.standard_normal(space.n_dofs)
    w = rng.standard_normal(space.n_dofs)
    c = convection_matrix(space, u)
    direct = apply_convection(space, u, v, w)
    assert w @ c @ v == pytest.approx(direct, rel=1e-12, abs=1e-13)


# -- LPS stabilization --------------------------------------------------


def test_lps_config_validation():
    with pytest.raises(ValueError):
        StabilizationConfig(c_velocity=0.0)
    with pytest.raises(ValueError):
        StabilizationConfig(grad_div=0.0)
    cfg = StabilizationConfig(c_velocity=1e-2, c_pressure=1e-2)
    assert cfg.tau_velocity(np.array([2.76e-2]))[0] == pytest.approx(2.76e-4)
    assert cfg.tau_velocity(np.array([2.76e-2]))[0] <= 2.76e-4 + 1e-18
    assert cfg.tau_pressure(np.array([0.1]))[0] == pytest.approx(1e-3)


def test_lps_annihilates_linear_fields():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 2)
    mats = assemble_lps_matrices(vel, pres, StabilizationConfig())
    u = interpolate(vel, lambda x, y, t: (1.0 + 2.0 * x - y, 3.0 * x + 4.0 * y), 0.0)
    p = interpolate(pres, lambda x, y, t: 2.0 - x + 5.0 * y, 0.0)
    assert np.abs(mats.velocity @ u).max() < 1e-13
    assert np.abs(mats.pressure @ p).max() < 1e-13


def test_fluctuation_projector_idempotent_and_local():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    pres = FESpace(mesh, 2)
    f = assemble_lps_fluctuation(pres)
    d = (f @ f - f).toarray()
    assert np.abs(d).max() < 1e-13
    # annihilates gradients of piecewise (here globally) linear fields
    g = gradient_sample_matrix(pres)
    lin = interpolate(pres, lambda x, y, t: 1.0 + 4.0 * x - 2.0 * y, 0.0)
    assert np.abs(f @ (g @ lin)).max() < 1e-12


def test_gradient_samples_match_analytic_gradient():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    pres = FESpace(mesh, 2)
    g = gradient_sample_matrix(pres)
    q = interpolate(pres, lambda x, y, t: x**2, 0.0)
    samples = (g @ q).reshape(len(mesh.triangles), 2, 3)
    corners = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    assert np.allclose(samples[:, 0, :], 2.0 * corners[:, :, 0], atol=1e-12)
    assert np.allclose(samples[:, 1, :], 0.0, atol=1e-12)


def test_fluctuation_of_quadratic_nonzero_with_exact_scaling():
    # the fluctuation energy of grad(x^2) scales as h^3; halving h divides
    # the LPS quadratic form by exactly 8 on similar elements
    values = []
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    for _ in range(2):
        vel = FESpace(mesh, 2, components=2)
        pres = FESpace(mesh, 2)
        mats = assemble_lps_matrices(vel, pres, StabilizationConfig())
        q = interpolate(pres, lambda x, y, t: x**2, 0.0)
        values.append(q @ mats.pressure @ q)
        mesh = refine_uniform(mesh)
    assert values[0] > 1e-8
    assert values[0] / values[1] == pytest.approx(8.0, rel=1e-10)


def test_lps_scales_linearly_in_constants():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 2)
    m1 = assemble_lps_matrices(vel, pres, StabilizationConfig(c_velocity=1e-2, c_pressure=1e-2))
    m2 = assemble_lps_matrices(vel, pres, StabilizationConfig(c_velocity=2e-2, c_pressure=4e-2))
    assert np.allclose(2.0 * m1.velocity.toarray(), m2.velocity.toarray(), rtol=1e-13)
    assert np.allclose(4.0 * m1.pressure.toarray(), m2.pressure.toarray(), rtol=1e-13)


def test_lps_matches_factored_fluctuation_oracle():
    # independent route: sample gradients, apply the fluctuation projector,
    # integrate with per-element P1 mass blocks weighted by tau
    mesh = build_rect_mesh(1.3, 0.9, 4, 3)
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 2)
    cfg = StabilizationConfig(c_velocity=3e-2, c_pressure=5e-2)
    mats = assemble_lps_matrices(vel, pres, cfg)

    g = gradient_sample_matrix(pres)
    f = assemble_lps_fluctuation(pres)
    p1_mass = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    areas = 0.5 * mesh.jacobians[2]
    tau = cfg.tau_pressure(mesh.h_K)
    blocks = [sp.csr_matrix(tau[e] * areas[e] * p1_mass) for e in range(len(mesh.triangles)) for _ in range(2)]
    w = sp.block_diag(blocks, format="csr")
    oracle = (g.T @ f.T @ w @ f @ g).toarray()
    built = mats.pressure.toarray()
    assert np.abs(built - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    # the velocity matrix is the two-component block version with tau_velocity
    tau_v = cfg.tau_velocity(mesh.h_K)
    blocks_v = [sp.csr_matrix(tau_v[e] * areas[e] * p1_mass) for e in range(len(mesh.triangles)) for _ in range(2)]
    w_v = sp.block_diag(blocks_v, format="csr")
    oracle_v = (g.T @ f.T @ w_v @ f @ g).toarray()
    built_v = mats.velocity.toarray()
    n = pres.n_scalar
    assert np.abs(built_v[:n, :n] - oracle_v).max() <= 1e-12 * max(1.0, np.abs(oracle_v).max())
    assert np.abs(built_v[n:, n:] - oracle_v).max() <= 1e-12 * max(1.0, np.abs(oracle_v).max())
    assert np.abs(built_v[:n, n:]).max() == 0.0


@pytest.mark.parametrize(
    "builder",
    [
        lambda s: assemble_mass(s),
        lambda s: assemble_stiffness(s),
        lambda s: assemble_grad_div(s),
    ],
)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(mesh=meshes())
def test_symmetric_positive_semidefinite(builder, mesh):
    space = FESpace(mesh, 2, components=2)
    a = builder(space).toarray()
    assert np.abs(a - a.T).max() < 1e-13
    eigs = np.linalg.eigvalsh(a)
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(mesh=meshes())
def test_lps_matrices_positive_semidefinite(mesh):
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 2)
    mats = assemble_lps_matrices(vel, pres, StabilizationConfig())
    for a in (mats.velocity.toarray(), mats.pressure.toarray()):
        assert np.abs(a - a.T).max() < 1e-14
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def _annihilates(matrix, coefficients):
    """Whether ``matrix @ coefficients`` vanishes to rounding, relative to
    the size of the terms summed."""
    residual = np.abs(matrix @ coefficients).max()
    return residual <= 1e-13 * (abs(matrix) @ np.abs(coefficients)).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_operator_kernels_on_random_meshes(mesh, seed):
    vel = FESpace(mesh, 2, components=2)
    pres = FESpace(mesh, 2)
    c = np.random.default_rng(seed).standard_normal(9)
    constant = interpolate(vel, lambda x, y, t: (np.full_like(x, c[0]), np.full_like(x, c[1])),
                           0.0)
    rotation = interpolate(vel, lambda x, y, t: (-c[2] * y, c[2] * x), 0.0)
    linear = interpolate(vel, lambda x, y, t: (c[0] + c[3] * x + c[4] * y,
                                               c[1] + c[5] * x + c[6] * y), 0.0)
    linear_p = interpolate(pres, lambda x, y, t: c[2] + c[7] * x + c[8] * y, 0.0)
    assert _annihilates(assemble_stiffness(vel), constant)
    grad_div = assemble_grad_div(vel)
    assert _annihilates(grad_div, constant)
    assert _annihilates(grad_div, rotation)
    lps = assemble_lps_matrices(vel, pres, StabilizationConfig())
    assert _annihilates(lps.velocity, linear)
    assert _annihilates(lps.pressure, linear_p)


# -- loads, quadrature sufficiency, export ------------------------------


def test_load_constant_and_polynomial_consistency():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    space = FESpace(mesh, 2, components=2)
    load = assemble_load(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert load.sum() == pytest.approx(mesh.area, rel=1e-13)
    # for polynomial data inside the space, (f, v) == (M f_I, v) exactly
    f = lambda x, y: (x * y, x - y**2)
    load2 = assemble_load(space, f)
    fi = interpolate(space, lambda x, y, t: f(x, y), 0.0)
    m = assemble_mass(space)
    assert np.allclose(load2, m @ fi, atol=1e-13)


def test_quadrature_degree_sufficiency():
    mesh = build_rect_mesh(1.0, 0.5, 4, 2)
    vel = FESpace(mesh, 2, components=2)
    pres2 = FESpace(mesh, 2)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(vel.n_dofs)
    pairs = [
        (assemble_mass(vel), assemble_mass(vel, qdegree=6)),
        (assemble_stiffness(vel), assemble_stiffness(vel, qdegree=6)),
        (assemble_grad_div(vel), assemble_grad_div(vel, qdegree=6)),
        (assemble_divergence(vel, pres2), assemble_divergence(vel, pres2, qdegree=6)),
        (convection_matrix(vel, w), convection_matrix(vel, w, qdegree=8)),
    ]
    for base, refined in pairs:
        scale = np.abs(base.toarray()).max()
        assert np.abs((base - refined).toarray()).max() <= 1e-12 * scale


# -- fixed scatter and saddle layout against SciPy's own sparse paths -----


def coo_reference(space, blocks, local, row_space=None):
    """The reference for the fixed scatter: SciPy's own COO -> CSR
    conversion of the per-element local blocks."""
    row_sp = space if row_space is None else row_space
    rows, cols = [], []
    for (r, c), a in zip(blocks, local):
        rows.append(np.broadcast_to(row_sp.cell_dofs(r)[:, :, None], a.shape).ravel())
        cols.append(np.broadcast_to(space.cell_dofs(c)[:, None, :], a.shape).ravel())
    values = np.concatenate([a.ravel() for a in local])
    return sp.coo_matrix((values, (np.concatenate(rows), np.concatenate(cols))),
                         shape=(row_sp.n_dofs, space.n_dofs)).tocsr()


def assert_bitwise_equal(got, want):
    assert got.format == want.format and got.shape == want.shape
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # bit patterns, so that -0.0 and 0.0 differ
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_every_assembler_matches_scipy_coo_to_csr_bit_for_bit(mesh, seed):
    vel = FESpace(mesh, 2, components=2)
    p1, p2 = FESpace(mesh, 1), FESpace(mesh, 2)
    rng = np.random.default_rng(seed)
    calls = []
    scatter = podflow.assembly._assemble

    def recording(space, blocks, local, row_space=None):
        out = scatter(space, blocks, local, row_space)
        calls.append((out, coo_reference(space, blocks, local, row_space)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(podflow.assembly, "_assemble", recording)
        for space in (vel, p1, p2):
            assemble_mass(space)
            assemble_stiffness(space)
        assemble_divergence(vel, p1)
        assemble_divergence(vel, p2)
        assemble_grad_div(vel)
        assemble_lps_matrices(vel, p2, StabilizationConfig())
        # convection gathers the first component's entries without
        # _assemble; its matrix is checked against _assemble's of the einsum
        # kernel in test_convection_loops_equal_the_einsum_kernel_bit_for_bit
        # duplicates of mixed magnitude, exact cancellations and signed
        # zeros: the sum order and the sign of zero must both match
        blocks = [(0, 0), (1, 1)]
        shape = (len(mesh.triangles), vel.n_local, vel.n_local)
        wild = rng.standard_normal(shape) * 10.0 ** rng.integers(-16, 17, shape)
        signs = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
        podflow.assembly._assemble(vel, blocks, [wild, signs])
        podflow.assembly._assemble(vel, blocks, [signs, np.negative(signs)])
    assert len(calls) == 13
    for got, want in calls:
        assert_bitwise_equal(got, want)


def _saddle_problem(mesh, scheme, enclosed):
    inflow = lambda x, y, t: (np.sin(3.0 * y + t), 0.25 * x)
    zero = lambda x, y, t: (0.0 * x, 0.0 * x)
    dirichlet = {"wall": zero, "inlet": inflow}
    if enclosed:
        dirichlet["outlet"] = zero
    if "obstacle" in set(mesh.boundary_edges.values()):
        dirichlet["obstacle"] = zero
    cfg = FOMConfig(scheme=scheme, nu=1e-2, dt=0.1, t_final=0.1,
                    stabilization=StabilizationConfig(grad_div=0.4))
    case = FlowCase("saddle", dirichlet=dirichlet, zero_mean_pressure=enclosed)
    return FOMProblem(mesh, cfg, case)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), scheme=st.sampled_from(["lps", "graddiv"]),
       enclosed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_saddle_layout_matches_the_block_system_cut_by_scipy(mesh, scheme, enclosed, seed):
    problem = _saddle_problem(mesh, scheme, enclosed)
    rng = np.random.default_rng(seed)
    space = problem.vel_space
    conv = convection_matrix(space, rng.standard_normal(space.n_dofs))
    scale = 1.5 / problem.config.dt
    block = scale * problem.mass + problem._static_velocity_block + conv

    values = problem.velocity_values(scale, conv)
    system = sp.bmat([[block, -problem.divergence.T],
                      [problem.divergence, problem.pressure_stabilization]], format="csr")
    free, fixed = problem.free_global, problem.constrained_global
    layout = problem._saddle
    # the system before the first solve relabels it, the values written
    # into its places as a solve writes them
    got = layout._system.copy()
    got.data[layout.system_slots] = values[layout.system_source]
    assert_bitwise_equal(got, sp.csc_matrix(system[free][:, free]))
    boundary = np.concatenate([problem.boundary_values(0.3), np.zeros(problem.n_pressure)])
    assert np.array_equal(layout.lifting(values) @ boundary[fixed],
                          system[free][:, fixed] @ boundary[fixed])
    u = rng.standard_normal(space.n_dofs)
    assert np.array_equal(problem.velocity_block(values) @ u, block @ u)


def _field_values(kind, n, rng):
    if kind == "zero":
        return np.zeros(n)
    if kind == "random":
        return rng.standard_normal(n)
    if kind == "mixed":  # magnitudes 1e-3 ... 1e3
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    return rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)  # signed zeros


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1), qdegree=st.sampled_from([None, 8]))
@example(mesh=refine_uniform(build_rect_mesh(2.2, 0.41, 4, 4, hole=(0.55, 0.1025, 1.1, 0.205))),
         seed=7, qdegree=None)
def test_convection_loops_equal_the_einsum_kernel_bit_for_bit(mesh, seed, qdegree):
    space = FESpace(mesh, 2, components=2)
    rng = np.random.default_rng(seed)
    blocks = [(0, 0), (1, 1)]
    for kind in ("zero", "random", "mixed", "signed"):
        w = _field_values(kind, space.n_dofs, rng)
        local = einsum_convection_local(space, w, qdegree)
        want = podflow.assembly._assemble(space, blocks, [local, local])
        got = convection_matrix(space, w, qdegree)
        assert np.array_equal(got.indices, want.indices), kind
        assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), kind


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(mesh=meshes(), scheme=st.sampled_from(["lps", "graddiv"]),
       enclosed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_layout_solves_equal_splu_of_the_scipy_system_bit_for_bit(mesh, scheme, enclosed, seed):
    problem = _saddle_problem(mesh, scheme, enclosed)
    rng = np.random.default_rng(seed)
    space = problem.vel_space
    free = problem.free_global
    layout = problem._saddle
    scale = 1.5 / problem.config.dt

    def scipy_system(block):
        system = sp.bmat([[block, -problem.divergence.T],
                          [problem.divergence, problem.pressure_stabilization]], format="csr")
        return sp.csc_matrix(system[free][:, free])

    factors = []
    with pytest.MonkeyPatch.context() as mp:
        def recording(a, **kwargs):
            lu = splu(a, **kwargs)
            factors.append((kwargs.get("permc_spec", "COLAMD"), lu))
            return lu
        splu = spla.splu
        mp.setattr(spla, "splu", recording)
        base = scale * problem.mass + problem._static_velocity_block
        for k in range(4):
            conv = convection_matrix(space, rng.standard_normal(space.n_dofs))
            values = problem.velocity_values(scale, conv)
            want_system = scipy_system(base + conv)
            rhs = rng.standard_normal(free.size)
            want = splu(want_system).solve(rhs)
            got = layout.solve(values, rhs, [])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), k
    # COLAMD once, then NATURAL on the relabelled system
    specs = [spec for spec, _ in factors]
    assert specs == ["COLAMD", "NATURAL", "NATURAL", "NATURAL"]
    assert all(np.array_equal(lu.perm_c, np.arange(free.size)) for _, lu in factors[1:])


@pytest.mark.parametrize("scheme", ["lps", "graddiv"])
def test_a_problem_keeps_only_the_caches_its_steps_use(scheme):
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    problem = _saddle_problem(mesh, scheme, enclosed=True)
    vel, pres = problem.vel_space, problem.pres_space
    # the degree-4 tables and the divergence and grad-div scatters served
    # the static operators alone; convection reuses the mass scatter
    key = ("scatter", None, ((0, 0), (1, 1)))
    scatter = vel.assembly_cache[key]
    assert list(vel.assembly_cache) == [key] and pres.assembly_cache == {}
    run_fom(problem)
    assert vel.assembly_cache[key] is scatter
    assert set(vel.assembly_cache) == {key, ("tables", 6)} and pres.assembly_cache == {}
    # what a later call needs is rebuilt, with the same bits
    fresh = FESpace(mesh, 2, components=2)
    assert_bitwise_equal(problem.grad_div, assemble_grad_div(fresh))
    assert_bitwise_equal(assemble_divergence(vel, pres),
                         assemble_divergence(fresh, FESpace(mesh, pres.degree)))


def test_caches_are_freed_with_their_space_and_problem():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    problem = _saddle_problem(mesh, "graddiv", enclosed=True)
    run_fom(problem)
    space = problem.vel_space
    cached = [weakref.ref(problem._saddle), weakref.ref(problem._saddle.indices)]
    cached += [weakref.ref(entry) for entry in space.assembly_cache.values()]
    cached.append(weakref.ref(podflow.assembly._tables(space, 6).grads))
    assert len(cached) >= 5
    del problem, space
    gc.collect()
    assert [ref() for ref in cached] == [None] * len(cached)

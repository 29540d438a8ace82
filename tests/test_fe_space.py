import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import eval_field

from podflow import fe_space
from podflow.fe_space import (
    FESpace,
    interpolate,
    reference_basis,
    triangle_quadrature,
)
from podflow.mesh import build_rect_mesh


def exact_monomial(a, b):
    # int_T x^a y^b over the reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
def test_quadrature_exactness(degree):
    rule = triangle_quadrature(degree)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x**a * y**b)
            assert val == pytest.approx(exact_monomial(a, b), rel=1e-13, abs=1e-16)


def test_quadrature_stops_at_degree_15():
    with pytest.raises(ValueError, match="0..15"):
        triangle_quadrature(16)
    with pytest.raises(ValueError, match="0..15"):
        triangle_quadrature(-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_gauss_jacobi_table_is_scipys_rule(n):
    from scipy.special import roots_jacobi

    nodes, weights = (np.array(v) for v in fe_space._GAUSS_JACOBI[n])
    want_nodes, want_weights = roots_jacobi(n, 1.0, 0.0)
    # each entry to 1e-15 relative: the table holds today's doubles, and a
    # SciPy that rounds the last bits differently still passes
    assert np.all(np.abs(nodes - want_nodes) <= 1e-15 * np.abs(want_nodes))
    assert np.all(np.abs(weights - want_weights) <= 1e-15 * np.abs(want_weights))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(corners=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                        min_size=3, max_size=3))
def test_quadrature_is_exact_on_random_affine_triangles(corners):
    # int_T l1^a l2^b l3^c = 2 |T| a! b! c! / (a + b + c + 2)! for the
    # barycentric coordinates of any triangle T; since l1 + l2 + l3 = 1,
    # the monomials of degree d span every lower degree too
    v = np.array(corners)
    edges = v[[1, 2, 0]] - v
    area = 0.5 * abs(edges[0, 0] * edges[1, 1] - edges[0, 1] * edges[1, 0])
    longest = (edges**2).sum(axis=1).max()
    assume(longest > 1e-2 and area > 0.05 * longest)
    barycentric = np.vstack([np.ones(3), v.T])
    f = [math.factorial(k) for k in range(12)]
    for degree in range(10):
        powers = np.array([(a, b, degree - a - b) for a in range(degree + 1)
                           for b in range(degree + 1 - a)])
        exact = np.array([2.0 * area * f[a] * f[b] * f[c] / f[degree + 2]
                          for a, b, c in powers])
        rule = triangle_quadrature(degree)
        x = rule.points @ v
        lam = np.linalg.solve(barycentric, np.vstack([np.ones(len(x)), x.T]))
        values = 2.0 * area * rule.weights @ np.prod(lam.T[:, None, :] ** powers, axis=2)
        assert np.all(np.abs(values - exact) <= 1e-13 * exact), degree


def test_quadrature_points_inside():
    rule = triangle_quadrature(6)
    assert rule.points.min() > 0.0
    assert rule.points.max() < 1.0
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    rng = np.random.default_rng(7)
    pts = rng.dirichlet([1.0, 1.0, 1.0], size=40)
    values, grads = reference_basis(degree, pts)
    assert np.all(np.abs(values.sum(axis=1) - 1.0) < 1e-13)
    assert np.all(np.abs(grads.sum(axis=1)) < 1e-12)


def test_p1_reproduces_linears():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    space = FESpace(mesh, 1)
    f = interpolate(space, lambda x, y, t: 2.0 * x - 3.0 * y + 0.5, 0.0)
    rng = np.random.default_rng(3)
    for tri in rng.integers(0, len(mesh.triangles), size=10):
        lam = rng.dirichlet([1, 1, 1])
        val, grad = eval_field(space, f, int(tri), lam, gradient=True)
        p = lam @ mesh.vertices[mesh.triangles[tri]]
        assert val == pytest.approx(2.0 * p[0] - 3.0 * p[1] + 0.5, abs=1e-13)
        assert np.allclose(grad, [2.0, -3.0], atol=1e-12)


def test_p2_reproduces_quadratics_exactly():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    space = FESpace(mesh, 2)
    f = interpolate(space, lambda x, y, t: x**2, 0.0)
    rng = np.random.default_rng(11)
    # exact at edge midpoints and at arbitrary interior points
    pts = [np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.0, 0.5])]
    pts += [rng.dirichlet([1, 1, 1]) for _ in range(10)]
    for tri in range(len(mesh.triangles)):
        for lam in pts:
            p = lam @ mesh.vertices[mesh.triangles[tri]]
            val, grad = eval_field(space, f, tri, lam, gradient=True)
            assert val == pytest.approx(p[0] ** 2, abs=1e-13)
            assert np.allclose(grad, [2.0 * p[0], 0.0], atol=1e-12)


def test_vertex_evaluation_picks_coefficient():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    space = FESpace(mesh, 2)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(space.n_dofs)
    tri = 3
    for k, lam in enumerate(np.eye(3)):
        dof = space.cell_scalar_dofs[tri, k]
        assert eval_field(space, f, tri, lam) == pytest.approx(f[dof], abs=1e-14)


def test_vector_interpolation_blocks():
    mesh = build_rect_mesh(2.0, 1.0, 4, 2)
    space = FESpace(mesh, 2, components=2)
    f = interpolate(space, lambda x, y, t: (x + y, x - y), 0.0)
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    assert np.allclose(f[: space.n_scalar], x + y, atol=1e-14)
    assert np.allclose(f[space.n_scalar :], x - y, atol=1e-14)
    val = eval_field(space, f, 0, np.array([1 / 3, 1 / 3, 1 / 3]))
    p = mesh.vertices[mesh.triangles[0]].mean(axis=0)
    assert np.allclose(val, [p[0] + p[1], p[0] - p[1]], atol=1e-13)


def test_dof_counts():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    nv = len(mesh.vertices)
    ne = len(mesh.edges)
    assert FESpace(mesh, 1).n_scalar == nv
    assert FESpace(mesh, 2).n_scalar == nv + ne
    assert FESpace(mesh, 2, components=2).n_dofs == 2 * (nv + ne)


def test_boundary_dofs_by_tag():
    mesh = build_rect_mesh(1.6, 0.4, 16, 4, hole=(0.4, 0.1, 0.6, 0.3))
    space = FESpace(mesh, 2)
    inlet = space.boundary_scalar_dofs("inlet")
    # 4 inlet edges: 5 vertices + 4 midpoints
    assert len(inlet) == 9
    assert np.all(np.abs(space.dof_coords[inlet, 0]) < 1e-12)
    obstacle = space.boundary_scalar_dofs("obstacle")
    assert len(obstacle) == 8 + 8  # 8 perimeter vertices + 8 midpoints
    everything = space.boundary_scalar_dofs()
    union = set(space.boundary_scalar_dofs(("inlet", "outlet", "wall", "obstacle")))
    assert set(everything) == union


def test_inflow_profile_values_on_inlet():
    height = 0.41
    u_max = 1.5
    mesh = build_rect_mesh(2.2, height, 22, 4)
    space = FESpace(mesh, 2, components=2)
    profile = lambda y: 4.0 * u_max * y * (height - y) / height**2
    f = interpolate(space, lambda x, y, t: (profile(y), np.zeros_like(y)), 0.0)
    inlet = space.boundary_scalar_dofs("inlet")
    y = space.dof_coords[inlet, 1]
    assert np.allclose(f[inlet], profile(y), atol=1e-14)
    assert np.allclose(f[space.n_scalar + inlet], 0.0)
    # mid-channel value equals the analytic peak
    mid = np.argmin(np.abs(space.dof_coords[inlet, 1] - height / 2))
    assert f[inlet[mid]] == pytest.approx(u_max, rel=1e-12)


def test_signature_stability_and_sensitivity():
    mesh = build_rect_mesh(1.0, 1.0, 3, 3)
    a = FESpace(mesh, 2, components=2).signature()
    b = FESpace(mesh, 2, components=2).signature()
    assert a == b
    assert a != FESpace(mesh, 1, components=2).signature()
    assert a != FESpace(mesh, 2, components=1).signature()
    other = build_rect_mesh(1.0, 1.0, 4, 3)
    assert a != FESpace(other, 2, components=2).signature()


def test_interpolation_samples_g_at_its_time_and_broadcasts_constants():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2)
    scalar, vector = FESpace(mesh, 2), FESpace(mesh, 2, components=2)
    x = scalar.dof_coords[:, 0]
    got = interpolate(scalar, lambda x, y, t: t, 2.5)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.full(scalar.n_dofs, 2.5))
    got = interpolate(vector, lambda x, y, t: (x * t, 1), 2.0)
    assert got.dtype == np.float64 and got.shape == (vector.n_dofs,)
    assert np.array_equal(got, np.concatenate([2.0 * x, np.ones_like(x)]))

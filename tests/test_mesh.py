import math

import numpy as np
import pytest

from oracles import mesh_stats, read_mesh, refine_uniform

from podflow.mesh import (
    Mesh,
    MeshError,
    build_rect_mesh,
    save_mesh,
)


def test_unit_square_single_cell():
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    assert len(mesh.triangles) == 2
    assert len(mesh.vertices) == 4
    assert mesh.h_K.max() == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert mesh_stats(mesh)["min_angle"] == pytest.approx(45.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_structured_counts(n):
    mesh = build_rect_mesh(1.0, 1.0, n, n)
    assert len(mesh.triangles) == 2 * n * n
    assert len(mesh.vertices) == (n + 1) ** 2
    assert mesh.area == pytest.approx(1.0, rel=1e-14)


def test_anisotropic_grid_counts_and_area():
    mesh = build_rect_mesh(2.0, 0.5, 8, 2)
    assert len(mesh.triangles) == 32
    assert mesh.area == pytest.approx(1.0, rel=1e-14)


def test_boundary_tags_channel_with_hole():
    mesh = build_rect_mesh(1.6, 0.4, 16, 4, hole=(0.4, 0.1, 0.6, 0.3))
    tags = set(mesh.boundary_edges.values())
    assert tags == {"inlet", "outlet", "wall", "obstacle"}
    # the hole removes 2x2 cells: 8 triangles gone
    assert len(mesh.triangles) == 2 * 16 * 4 - 8
    # obstacle edges form the hole perimeter: 8 half-cell edges
    n_obstacle = sum(1 for t in mesh.boundary_edges.values() if t == "obstacle")
    assert n_obstacle == 8
    # every obstacle edge lies on the hole rectangle
    for (a, b), tag in mesh.boundary_edges.items():
        if tag != "obstacle":
            continue
        for v in (a, b):
            x, y = mesh.vertices[v]
            assert 0.4 - 1e-12 <= x <= 0.6 + 1e-12
            assert 0.1 - 1e-12 <= y <= 0.3 + 1e-12


def test_hole_area_removed():
    mesh = build_rect_mesh(1.6, 0.4, 16, 4, hole=(0.4, 0.1, 0.6, 0.3))
    assert mesh.area == pytest.approx(1.6 * 0.4 - 0.2 * 0.2, rel=1e-13)


def test_misaligned_hole_rejected():
    with pytest.raises(MeshError):
        build_rect_mesh(1.6, 0.4, 16, 4, hole=(0.41, 0.1, 0.6, 0.3))


def test_hole_touching_boundary_rejected():
    with pytest.raises(MeshError):
        build_rect_mesh(1.6, 0.4, 16, 4, hole=(0.0, 0.1, 0.2, 0.3))


def test_degenerate_requests_rejected():
    with pytest.raises(MeshError):
        build_rect_mesh(0.0, 1.0, 2, 2)
    with pytest.raises(MeshError):
        build_rect_mesh(1.0, 1.0, 0, 2)


def test_orientation_validation():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(vertices, np.array([[0, 2, 1]]), {(0, 1): "wall", (1, 2): "wall", (0, 2): "wall"})


def test_boundary_edge_bookkeeping_validation():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(vertices, np.array([[0, 1, 2]]), {(0, 1): "wall"})  # missing tagged edges
    with pytest.raises(MeshError):
        Mesh(
            vertices,
            np.array([[0, 1, 2]]),
            {(0, 1): "wall", (1, 2): "wall", (0, 2): "lid"},  # unknown tag
        )


def test_edge_sharing_counts():
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    counts = mesh.edge_counts
    assert set(np.unique(counts)) == {1, 2}
    boundary = (counts == 1).sum()
    assert boundary == len(mesh.boundary_edges) == 16


def test_refine_uniform_halves_diameters():
    mesh = build_rect_mesh(1.3, 0.7, 3, 2)
    fine = refine_uniform(mesh)
    assert len(fine.triangles) == 4 * len(mesh.triangles)
    # child k of parent i sits at index k * nt + i
    parent = np.tile(mesh.h_K, 4)
    assert np.allclose(fine.h_K / parent, 0.5, rtol=1e-14, atol=0.0)
    assert fine.area == pytest.approx(mesh.area, rel=1e-14)


def test_refine_preserves_tags_and_validity():
    mesh = build_rect_mesh(1.6, 0.4, 8, 4, hole=(0.4, 0.1, 0.6, 0.3))
    fine = refine_uniform(mesh)
    # refinement doubles the number of boundary edges, preserving each tag
    from collections import Counter

    coarse_tags = Counter(mesh.boundary_edges.values())
    fine_tags = Counter(fine.boundary_edges.values())
    assert fine_tags == {tag: 2 * n for tag, n in coarse_tags.items()}
    stats_c = mesh_stats(mesh)
    stats_f = mesh_stats(fine)
    assert stats_f["h"] == pytest.approx(0.5 * stats_c["h"], rel=1e-14)
    assert stats_f["min_angle"] == pytest.approx(stats_c["min_angle"], abs=1e-9)


def test_quasi_uniformity_guard():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [50.0, 0.0], [0.0, 50.0]])
    triangles = np.array([[0, 1, 2], [1, 3, 4], [1, 4, 2]])
    tags = {}
    pairs = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]])
    pairs = np.sort(pairs, axis=1)
    edges, counts = np.unique(pairs, axis=0, return_counts=True)
    for a, b in edges[counts == 1]:
        tags[(int(a), int(b))] = "wall"
    with pytest.raises(MeshError):
        Mesh(vertices, triangles, tags)


def test_save_load_round_trip(tmp_path):
    mesh = build_rect_mesh(1.6, 0.4, 8, 4, hole=(0.4, 0.1, 0.6, 0.3))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.boundary_edges == mesh.boundary_edges


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n")
    with pytest.raises(MeshError):
        read_mesh(path)

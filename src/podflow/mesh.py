"""Structured triangulations of rectangular domains, optionally with one
rectangular hole acting as an internal obstacle.

Triangles are produced by splitting each grid cell along a diagonal whose
direction alternates in a criss-cross pattern, so all elements are congruent
right triangles and the family is quasi-uniform by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "build_rect_mesh",
    "save_mesh",
]

BOUNDARY_TAGS = ("inlet", "outlet", "wall", "obstacle")

_ALIGN_TOL = 1e-9
_QUASI_UNIFORMITY_BOUND = 4.0  # the admissible max h_K / min h_K


class MeshError(ValueError):
    """Inconsistent mesh data or an unrealizable mesh request."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh.

    Parameters
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    triangles : (nt, 3) int array of vertex indices, counterclockwise.
    boundary_edges : dict mapping a sorted vertex pair ``(a, b)`` to one of
        the tags ``inlet``, ``outlet``, ``wall``, ``obstacle``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        self._validate()

    # -- derived geometry -------------------------------------------------

    @cached_property
    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def h_K(self):
        """Diameter (longest edge) of each triangle."""
        p = self.vertices[self.triangles]
        e0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        e1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        e2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        return np.maximum(e0, np.maximum(e1, e2))

    @cached_property
    def edges(self):
        """Unique mesh edges as a sorted (ne, 2) int array."""
        return self._edge_tables[0]

    @cached_property
    def triangle_edges(self):
        """(nt, 3) indices into ``edges``; local edge k is opposite vertex k."""
        return self._edge_tables[1]

    @cached_property
    def _edge_tables(self):
        t = self.triangles
        pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        pairs = np.sort(pairs, axis=1)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        return edges, inverse.reshape(3, -1).T

    @cached_property
    def edge_counts(self):
        """Number of adjacent triangles per edge (1 on the boundary, 2 inside)."""
        return np.bincount(self.triangle_edges.ravel(), minlength=len(self.edges))

    @cached_property
    def jacobians(self):
        """Per-triangle affine map data: (J, inv(J)^T, det J)."""
        p = self.vertices[self.triangles]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv_t = np.empty_like(jac)
        inv_t[:, 0, 0] = jac[:, 1, 1] / det
        inv_t[:, 0, 1] = -jac[:, 1, 0] / det
        inv_t[:, 1, 0] = -jac[:, 0, 1] / det
        inv_t[:, 1, 1] = jac[:, 0, 0] / det
        return jac, inv_t, det

    @property
    def area(self):
        return float(self.signed_areas.sum())

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= len(self.vertices):
            raise MeshError("triangle vertex index out of range")
        if np.any(self.signed_areas <= 0.0):
            raise MeshError("every triangle must be counterclockwise with positive area")

        counts = self.edge_counts
        if counts.max(initial=0) > 2:
            raise MeshError("an edge is shared by more than two triangles")
        boundary = {tuple(e) for e in self.edges[counts == 1]}
        tagged = {tuple(sorted(k)) for k in self.boundary_edges}
        if boundary != tagged:
            raise MeshError("boundary_edges must tag exactly the edges adjacent to one triangle")
        bad = set(self.boundary_edges.values()) - set(BOUNDARY_TAGS)
        if bad:
            raise MeshError(f"unknown boundary tags: {sorted(bad)}")

        hk = self.h_K
        if hk.max() / hk.min() > _QUASI_UNIFORMITY_BOUND + _ALIGN_TOL:
            raise MeshError("mesh violates the quasi-uniformity bound")


def build_rect_mesh(width, height, nx, ny, hole=None):
    """Triangulate ``(0, width) x (0, height)`` on an ``nx x ny`` grid.

    Parameters
    ----------
    hole : optional ``(x0, y0, x1, y1)`` rectangle, strictly inside the domain
        and aligned with the grid; its cells are removed and the resulting
        internal boundary is tagged ``obstacle``.

    Outer boundary tags: left ``inlet``, right ``outlet``, bottom and top
    ``wall``.
    """
    if width <= 0 or height <= 0:
        raise MeshError("domain dimensions must be positive")
    if nx < 1 or ny < 1:
        raise MeshError("grid resolution must be at least 1x1")
    dx, dy = width / nx, height / ny

    removed = np.zeros((nx, ny), dtype=bool)
    if hole is not None:
        x0, y0, x1, y1 = hole
        scale = max(width, height)
        ij = []
        for value, step, name in ((x0, dx, "x0"), (x1, dx, "x1"), (y0, dy, "y0"), (y1, dy, "y1")):
            k = round(value / step)
            if abs(value - k * step) > _ALIGN_TOL * scale:
                raise MeshError(f"hole coordinate {name}={value} is not aligned with the grid")
            ij.append(k)
        i0, i1, j0, j1 = ij
        if not (0 < i0 < i1 < nx and 0 < j0 < j1 < ny):
            raise MeshError("hole must be strictly inside the domain with positive extent")
        removed[i0:i1, j0:j1] = True

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            if removed[ix, iy]:
                continue
            a, b = vid(ix, iy), vid(ix + 1, iy)
            c, d = vid(ix + 1, iy + 1), vid(ix, iy + 1)
            if (ix + iy) % 2 == 0:
                triangles.extend([(a, b, c), (a, c, d)])
            else:
                triangles.extend([(a, b, d), (b, c, d)])
    triangles = np.array(triangles, dtype=np.int64)

    xs = np.arange(nx + 1) * dx
    ys = np.arange(ny + 1) * dy
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    used = np.zeros(len(vertices), dtype=bool)
    used[triangles.ravel()] = True
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(used.sum())
    vertices = vertices[used]
    triangles = remap[triangles]

    pairs = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]])
    pairs = np.sort(pairs, axis=1)
    edges, counts = np.unique(pairs, axis=0, return_counts=True)
    tol = _ALIGN_TOL * max(width, height)
    boundary_edges = {}
    for a, b in edges[counts == 1]:
        pa, pb = vertices[a], vertices[b]
        if abs(pa[0]) < tol and abs(pb[0]) < tol:
            tag = "inlet"
        elif abs(pa[0] - width) < tol and abs(pb[0] - width) < tol:
            tag = "outlet"
        elif (abs(pa[1]) < tol and abs(pb[1]) < tol) or (
            abs(pa[1] - height) < tol and abs(pb[1] - height) < tol
        ):
            tag = "wall"
        else:
            tag = "obstacle"
        boundary_edges[(int(a), int(b))] = tag

    return Mesh(vertices, triangles, boundary_edges)


def save_mesh(mesh, path):
    """Write a mesh as plain text: counts, vertices, triangles, tagged edges."""
    lines = [f"{len(mesh.vertices)} {len(mesh.triangles)} {len(mesh.boundary_edges)}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    for (a, b), tag in sorted(mesh.boundary_edges.items()):
        lines.append(f"{a} {b} {tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


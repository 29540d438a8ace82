"""Lagrange finite element spaces (P1, P2; scalar or 2-vector) on triangle
meshes, reference-element quadrature and nodal interpolation.

Vector spaces use a component-blocked layout: the global DOF of scalar DOF
``i`` in component ``c`` is ``c * n_scalar + i``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "reference_basis",
    "FESpace",
    "FEField",
    "interpolate",
]

# gradients of the barycentric coordinates on the reference triangle
# with vertices (0,0), (1,0), (0,1)
_BARY_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

_QUAD_CACHE = {}


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle, exact for the declared degree.

    ``points`` are barycentric coordinates ``(nq, 3)``; ``weights`` sum to the
    reference area 1/2.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


def triangle_quadrature(degree):
    """Conical-product Gauss rule exact for polynomials of total ``degree``.

    Tensorizes a Gauss-Jacobi rule (weight ``1 - x``) with a Gauss-Legendre
    rule through the Duffy map ``(x, y) = (s, t (1 - s))``, which integrates
    any polynomial of the requested total degree exactly with
    ``ceil((degree + 1) / 2)`` nodes per direction.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if degree in _QUAD_CACHE:
        return _QUAD_CACHE[degree]
    n = (degree + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = leggauss(n)
    s = 0.5 * (xj + 1.0)  # nodes for int_0^1 f(s) (1 - s) ds, weights wj / 4
    t = 0.5 * (xl + 1.0)  # nodes for int_0^1 f(t) dt, weights wl / 2
    x = np.repeat(s, n)
    y = np.tile(t, n) * (1.0 - x)
    w = np.repeat(wj / 4.0, n) * np.tile(wl / 2.0, n)
    points = np.column_stack([1.0 - x - y, x, y])
    rule = QuadratureRule(degree, points, w)
    _QUAD_CACHE[degree] = rule
    return rule


def reference_basis(degree, points):
    """Evaluate the scalar reference basis at barycentric ``points``.

    Returns ``(values, gradients)`` with shapes ``(nq, nloc)`` and
    ``(nq, nloc, 2)``; gradients are with respect to the reference
    coordinates. Local ordering: vertices 0..2, then (for P2) the midpoint
    of the edge opposite each vertex.
    """
    lam = np.atleast_2d(np.asarray(points, dtype=np.float64))
    nq = lam.shape[0]
    if degree == 1:
        values = lam.copy()
        grads = np.broadcast_to(_BARY_GRADS, (nq, 3, 2)).copy()
        return values, grads
    if degree == 2:
        values = np.empty((nq, 6))
        grads = np.empty((nq, 6, 2))
        for i in range(3):
            values[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[:, i] = (4.0 * lam[:, i] - 1.0)[:, None] * _BARY_GRADS[i]
        for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            values[:, 3 + k] = 4.0 * lam[:, a] * lam[:, b]
            grads[:, 3 + k] = 4.0 * (
                lam[:, a][:, None] * _BARY_GRADS[b] + lam[:, b][:, None] * _BARY_GRADS[a]
            )
        return values, grads
    raise ValueError(f"unsupported polynomial degree {degree}")


class FESpace:
    """Continuous Lagrange space of the given degree on a mesh.

    Parameters
    ----------
    mesh : Mesh
    degree : 1 or 2
    components : 1 (scalar) or 2 (velocity-like)
    zero_mean : flag marking a pressure space realized in L2_0; solvers pin
        one DOF and subtract the discrete mean after each solve.
    """

    def __init__(self, mesh, degree, components=1, zero_mean=False):
        if degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        self.mesh = mesh
        self.degree = degree
        self.components = components
        self.zero_mean = bool(zero_mean)

        nv = len(mesh.vertices)
        if degree == 1:
            self.cell_scalar_dofs = mesh.triangles.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            self.cell_scalar_dofs = np.hstack([mesh.triangles, nv + mesh.triangle_edges])
            mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
            self.dof_coords = np.vstack([mesh.vertices, mids])
        self.n_scalar = len(self.dof_coords)
        self.n_dofs = self.components * self.n_scalar
        self.n_local = self.cell_scalar_dofs.shape[1]
        self._edge_lookup = None
        # what assembly needs of the space alone (element geometry per
        # quadrature degree, scatter patterns), built there on first use
        # and freed with the space
        self.assembly_cache = {}

    def __repr__(self):
        kind = "vector" if self.components == 2 else "scalar"
        return f"FESpace(P{self.degree} {kind}, {self.n_dofs} dofs)"

    def cell_dofs(self, component):
        """Per-triangle global DOFs of one component, ``(nt, n_local)``."""
        return component * self.n_scalar + self.cell_scalar_dofs

    def boundary_scalar_dofs(self, tags=None):
        """Sorted scalar DOFs lying on boundary edges with the given tags.

        ``tags=None`` selects the whole boundary. For P2 this includes the
        midpoint DOFs of the tagged edges.
        """
        if tags is None:
            wanted = set(self.mesh.boundary_edges.items())
        else:
            tagset = {tags} if isinstance(tags, str) else set(tags)
            wanted = {(e, t) for e, t in self.mesh.boundary_edges.items() if t in tagset}
        dofs = set()
        nv = len(self.mesh.vertices)
        for (a, b), _tag in wanted:
            dofs.add(a)
            dofs.add(b)
            if self.degree == 2:
                dofs.add(nv + self._edge_index(a, b))
        return np.array(sorted(dofs), dtype=np.int64)

    def _edge_index(self, a, b):
        if self._edge_lookup is None:
            self._edge_lookup = {tuple(e): i for i, e in enumerate(self.mesh.edges)}
        return self._edge_lookup[tuple(sorted((a, b)))]

    def signature(self):
        """Stable hash of the space: mesh content, degree, components, flags."""
        h = hashlib.sha256()
        h.update(f"P{self.degree};c{self.components};z{int(self.zero_mean)};".encode())
        h.update(self.mesh.vertices.tobytes())
        h.update(self.mesh.triangles.tobytes())
        for edge, tag in sorted(self.mesh.boundary_edges.items()):
            h.update(f"{edge[0]},{edge[1]},{tag};".encode())
        return h.hexdigest()[:16]


@dataclass
class FEField:
    """Coefficient vector on a space, stamped with a solution time."""

    space: FESpace
    coefficients: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (self.space.n_dofs,):
            raise ValueError(
                f"expected {self.space.n_dofs} coefficients, got {self.coefficients.shape}"
            )


def _coefficients(u):
    """Accept an FEField or a bare coefficient array."""
    if isinstance(u, FEField):
        return u.coefficients
    return np.asarray(u, dtype=float)


def interpolate(space, g, t=None):
    """Nodal interpolant of a callable.

    ``g(x, y)`` (or ``g(x, y, t)`` when ``t`` is given) must broadcast over
    coordinate arrays and return one array for scalar spaces or a pair of
    arrays for vector spaces.
    """
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    values = g(x, y) if t is None else g(x, y, t)
    if space.components == 1:
        coeffs = np.broadcast_to(np.asarray(values, dtype=np.float64), x.shape).copy()
    else:
        u, v = values
        coeffs = np.concatenate(
            [
                np.broadcast_to(np.asarray(u, dtype=np.float64), x.shape),
                np.broadcast_to(np.asarray(v, dtype=np.float64), x.shape),
            ]
        )
    return FEField(space, coeffs, 0.0 if t is None else t)


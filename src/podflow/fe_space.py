"""Lagrange finite element spaces (P1, P2; scalar or 2-vector) on triangle
meshes, reference-element quadrature and nodal interpolation.

A field on a space is its coefficient array, of length ``n_dofs``. Vector
spaces use a component-blocked layout: the global DOF of scalar DOF ``i``
in component ``c`` is ``c * n_scalar + i``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "reference_basis",
    "FESpace",
    "interpolate",
]

# gradients of the barycentric coordinates on the reference triangle
# with vertices (0,0), (1,0), (0,1)
_BARY_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# n: the nodes and weights of the n-point Gauss-Jacobi rule for the weight
# 1 - x on [-1, 1], each the double SciPy's ``roots_jacobi(n, 1, 0)`` gives
_GAUSS_JACOBI = {
    1: ([-0.3333333333333333], [2.0]),
    2: ([-0.6898979485566357, 0.2898979485566358], [1.2721655269759087, 0.7278344730240913]),
    3: ([-0.8228240809745921, -0.1810662711185305, 0.5753189235216941],
        [0.8037276549558384, 0.9169644254383448, 0.2793079196058167]),
    4: ([-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389],
        [0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234]),
    5: ([-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
         0.8029298284023472],
        [0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
         0.0629916580867692]),
    6: ([-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
         0.538467724060109, 0.8538913426394822],
        [0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
         0.17582066220203585, 0.034953207254438116]),
    7: ([-0.955041227122575, -0.7706418936781917, -0.4684203544308209, -0.09430725266111074,
         0.2947505657736607, 0.6395186165262152, 0.8874748789261557],
        [0.22386945369396347, 0.4420370327634976, 0.5095635891983541, 0.42850026278349523,
         0.2655387858619663, 0.10963342688749395, 0.020857448811229563]),
    8: ([-0.9644401697052731, -0.817352784200412, -0.5713830412087385, -0.2561356708334554,
         0.09037336960685335, 0.4263504857111389, 0.7112674859157089, 0.9107320894200603],
        [0.17820321744622417, 0.3644760945454951, 0.4500231978835482, 0.42418943774372003,
         0.31679839796927683, 0.18175727801879568, 0.0713716106239449, 0.013180765768995064]),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle, exact for the declared degree.

    ``points`` are barycentric coordinates ``(nq, 3)``; ``weights`` sum to the
    reference area 1/2.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


@functools.cache
def triangle_quadrature(degree):
    """Conical-product Gauss rule exact for polynomials of total ``degree``.

    Tensorizes a Gauss-Jacobi rule (weight ``1 - x``) with a Gauss-Legendre
    rule through the Duffy map ``(x, y) = (s, t (1 - s))``, which integrates
    any polynomial of the requested total degree exactly with
    ``ceil((degree + 1) / 2)`` nodes per direction. The Gauss-Jacobi nodes
    and weights come from a fixed table, so the rule does not depend on the
    installed SciPy; it stops at 8 nodes, degree 15.
    """
    if not 0 <= degree <= 15:
        raise ValueError(f"quadrature degree must be in 0..15, got {degree}")
    n = (degree + 2) // 2
    xj, wj = (np.array(v) for v in _GAUSS_JACOBI[n])
    xl, wl = leggauss(n)
    s = 0.5 * (xj + 1.0)  # nodes for int_0^1 f(s) (1 - s) ds, weights wj / 4
    t = 0.5 * (xl + 1.0)  # nodes for int_0^1 f(t) dt, weights wl / 2
    x = np.repeat(s, n)
    y = np.tile(t, n) * (1.0 - x)
    w = np.repeat(wj / 4.0, n) * np.tile(wl / 2.0, n)
    points = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(degree, points, w)


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
        tagset = None if tags is None else {tags} if isinstance(tags, str) else set(tags)
        ends = np.array([e for e, t in self.mesh.boundary_edges.items()
                         if tagset is None or t in tagset], dtype=np.int64).reshape(-1, 2)
        dofs = [ends.ravel()]
        if self.degree == 2:
            # mesh.edges is sorted, so its keys a * nv + b are too
            nv, edges = len(self.mesh.vertices), self.mesh.edges
            keys = ends.min(axis=1) * nv + ends.max(axis=1)
            dofs.append(nv + np.searchsorted(edges[:, 0] * nv + edges[:, 1], keys))
        return np.unique(np.concatenate(dofs))

    def signature(self):
        """Stable hash of the space: mesh content, degree, components, flags."""
        h = hashlib.sha256()
        h.update(f"P{self.degree};c{self.components};z{int(self.zero_mean)};".encode())
        h.update(self.mesh.vertices.tobytes())
        h.update(self.mesh.triangles.tobytes())
        for edge, tag in sorted(self.mesh.boundary_edges.items()):
            h.update(f"{edge[0]},{edge[1]},{tag};".encode())
        return h.hexdigest()[:16]


def interpolate(space, g, t):
    """Coefficients of the nodal interpolant of ``g`` at time ``t``.

    ``g(x, y, t)`` must broadcast over coordinate arrays and return one
    array for scalar spaces or a pair of arrays for vector spaces.
    """
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    values = g(x, y, t)
    if space.components == 1:
        return np.broadcast_to(np.asarray(values, dtype=np.float64), x.shape).copy()
    return np.concatenate([np.broadcast_to(np.asarray(v, dtype=np.float64), x.shape)
                           for v in values])

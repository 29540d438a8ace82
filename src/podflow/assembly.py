"""Sparse operators for the stabilized solvers: mass, stiffness, divergence
coupling, grad-div, the skew-symmetrized trilinear convection form, and the
local-projection (fluctuation-based) stabilization matrices.

All assembly is vectorized over elements and returns CSR matrices. Quadrature
is exact: degree ``2 l`` for bilinear forms and ``3 l`` for the trilinear
form, where ``l`` is the polynomial degree of the space.

What depends only on the space is built once, on first use, and kept in
its ``assembly_cache``: per quadrature degree the element geometry, the
element stiffness (shared by the stiffness matrix and both LPS forms) and
the convection kernel's tables, and per block layout the CSR pattern with
the gather that sums each entry's element contributions, which equals
SciPy's COO -> CSR conversion bit for bit. :func:`_release_static_caches`
frees what only a problem's static operators use.

Convection has two kernels. :func:`convection_action`, three matrix
products on the affine elements, serves the full-order implicit-Euler
Picard sweeps and the reduced builds. :func:`convection_matrix` replays
NumPy's unoptimized ``einsum`` term by term, bit for bit, only for the
full-order sweeps that factor (all of BDF2's), until the gate can take
their rounding (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fe_space import reference_basis, triangle_quadrature

__all__ = [
    "StabilizationConfig",
    "LPSMatrices",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_divergence",
    "assemble_grad_div",
    "assemble_lps_matrices",
    "convection_matrix",
    "convection_action",
    "assemble_load",
]


@dataclass(frozen=True)
class StabilizationConfig:
    """Stabilization parameters.

    ``c_velocity`` and ``c_pressure`` scale the per-element LPS weights
    ``tau = c * h_K``; ``grad_div`` is the grad-div coefficient ``mu``.
    """

    c_velocity: float = 1e-2
    c_pressure: float = 1e-2
    grad_div: float = 1.0

    def __post_init__(self):
        if self.c_velocity <= 0.0 or self.c_pressure <= 0.0:
            raise ValueError("LPS constants must be positive")
        if self.grad_div <= 0.0:
            raise ValueError("grad-div coefficient must be positive")

    def tau_velocity(self, h_K):
        return self.c_velocity * h_K

    def tau_pressure(self, h_K):
        return self.c_pressure * h_K


@dataclass(frozen=True)
class LPSMatrices:
    """Assembled LPS forms: ``velocity`` for the momentum equation,
    ``pressure`` for the pressure gradient stabilization."""

    velocity: sp.csr_matrix
    pressure: sp.csr_matrix


class _ElementTables:
    """Quadrature on every element of a space at one degree: the rule, the
    reference basis values ``(nq, nloc)``, the physical basis gradients
    ``(nt, nq, nloc, 2)``, the physical quadrature points ``(nt, nq, 2)``,
    the Jacobian determinants and the scalar element stiffness
    ``(nt, nloc, nloc)``. The tables' own arrays are read-only; the
    gradients, points and stiffness are computed on first use."""

    def __init__(self, space, qdegree):
        self.rule = triangle_quadrature(qdegree)
        values, self._ref_grads = reference_basis(space.degree, self.rule.points)
        self.values = _frozen(values)
        self._mesh = space.mesh
        self._dofs = space.cell_scalar_dofs, space.n_scalar
        self.det = space.mesh.jacobians[2]

    @cached_property
    def grads(self):
        _, inv_t, _ = self._mesh.jacobians
        return _frozen(np.einsum("qib,eab->eqia", self._ref_grads, inv_t))

    @cached_property
    def stiffness(self):
        return _frozen(np.einsum("q,e,eqia,eqja->eij", self.rule.weights, self.det,
                                 self.grads, self.grads))

    @cached_property
    def convection(self):
        """:func:`convection_action`'s tables: each element's DOFs of both
        components ``(nt, nloc, 2)``; the reference values and xi, eta
        derivatives stacked ``(nloc, 3 nq)``; the map of w's stacked rows to
        ``det`` (1/2 div w, w's xi and eta parts) ``(nt, 3, 6)``; and each
        stacked row's weighted products with the values ``(3 nq, nloc**2)``."""
        _, inv_t, det = self._mesh.jacobians
        dofs, n_scalar = self._dofs
        stack = np.concatenate([self.values, self._ref_grads[..., 0], self._ref_grads[..., 1]])
        scaled = det[:, None, None] * inv_t  # (nt, component, reference axis)
        to_terms = np.zeros((det.size, 3, 2, 3))  # (nt, term, component, stacked row)
        to_terms[:, 0, :, 1:] = 0.5 * scaled
        to_terms[:, 1:, :, 0] = scaled.transpose(0, 2, 1)
        products = np.einsum("q,qi,kqj->kqij", self.rule.weights, self.values,
                             stack.reshape(3, *self.values.shape))
        return tuple(map(_frozen, (dofs[..., None] + [0, n_scalar], stack.T.copy(),
                                   to_terms.reshape(det.size, 3, 6),
                                   products.reshape(len(stack), -1))))

    @cached_property
    def points(self):
        mesh = self._mesh
        return _frozen(np.einsum("qk,ekd->eqd", self.rule.points,
                                 mesh.vertices[mesh.triangles]))


def _frozen(a):
    a.flags.writeable = False
    return a


def _tables(space, qdegree):
    """The :class:`_ElementTables` of ``space`` at ``qdegree``, built once
    per space and degree."""
    key = ("tables", qdegree)
    if key not in space.assembly_cache:
        space.assembly_cache[key] = _ElementTables(space, qdegree)
    return space.assembly_cache[key]


class _Scatter:
    """The CSR pattern of one block layout and the gather that sums local
    element values into it.

    The values come flat, block after block, each block's local arrays in
    C order, as ``(rows, cols)`` lists them. The result equals SciPy's
    ``coo_matrix((values, (rows, cols))).tocsr()`` bit for bit: the entries
    are ordered by SciPy's own row sort and column sort, run once on the
    entry positions, and each CSR entry sums its duplicates one after the
    other in that order, as ``csr_sum_duplicates`` does. Explicit zeros are
    kept. ``entry[k]`` is the entry of the k-th term in that order and
    ``perm[k]`` its place in the values; ``entry`` ascends.
    """

    def __init__(self, rows, cols, shape):
        n = rows.size
        counts = np.bincount(rows, minlength=shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        order = np.argsort(rows, kind="stable")  # coo_tocsr's counting sort
        labelled = sp.csr_matrix((order.astype(np.float64), cols[order], indptr),
                                 shape=shape)
        labelled.sort_indices()
        perm = labelled.data.astype(np.int64)
        sorted_cols = labelled.indices
        sorted_rows = np.repeat(np.arange(shape[0]), counts)
        new = np.ones(n, dtype=bool)
        new[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (sorted_cols[1:] != sorted_cols[:-1])
        index = np.int32 if max(n, *shape) < np.iinfo(np.int32).max else np.int64
        self.shape = shape
        # shared by every matrix of the layout, so read-only
        self.indices = _frozen(sorted_cols[new].astype(index))
        self.indptr = _frozen(np.concatenate(
            [[0], np.cumsum(np.bincount(sorted_rows[new], minlength=shape[0]))]).astype(index))
        self.entry = np.cumsum(new, dtype=np.intp) - 1  # np.add.at is fastest on intp
        self.perm = perm.astype(index)

    def sums(self, values, n=None):
        """The entries' sums, or the first ``n`` entries'. Each starts from
        -0.0, the identity of IEEE addition, so even a zero keeps its sign."""
        k = None if n is None else np.searchsorted(self.entry, n)
        data = np.full(self.indices.size if n is None else n, -0.0)
        np.add.at(data, self.entry[:k], values[self.perm[:k]])
        return data

    def matrix(self, values):
        return sp.csr_matrix((self.sums(values), self.indices, self.indptr), shape=self.shape)


def _scatter(space, blocks, row_space=None):
    """The :class:`_Scatter` of ``blocks``, the (row component, column
    component) of each local array, rows from ``row_space`` (default
    ``space``), built once per layout and kept on ``space``."""
    key = ("scatter", row_space, tuple(blocks))
    if key not in space.assembly_cache:
        row_sp = space if row_space is None else row_space
        shape = (len(row_sp.cell_scalar_dofs), row_sp.n_local, space.n_local)
        rows, cols = [], []
        for r, c in blocks:
            rows.append(np.broadcast_to(row_sp.cell_dofs(r)[:, :, None], shape).ravel())
            cols.append(np.broadcast_to(space.cell_dofs(c)[:, None, :], shape).ravel())
        space.assembly_cache[key] = _Scatter(np.concatenate(rows), np.concatenate(cols),
                                             (row_sp.n_dofs, space.n_dofs))
    return space.assembly_cache[key]


def _assemble(space, blocks, local, row_space=None):
    """CSR matrix of per-element local blocks, one per entry of ``blocks``."""
    return _scatter(space, blocks, row_space).matrix(np.concatenate([a.ravel() for a in local]))


def _diagonal_blocks(space):
    return [(c, c) for c in range(space.components)]


def _release_static_caches(vel_space, pres_space):
    """Drop what the spaces cached for a problem's static operators alone:
    all but the velocity mass scatter, which each convection reuses."""
    key = ("scatter", None, tuple(_diagonal_blocks(vel_space)))
    vel_space.assembly_cache = {k: v for k, v in vel_space.assembly_cache.items() if k == key}
    pres_space.assembly_cache.clear()


def assemble_mass(space, qdegree=None):
    """L2 mass matrix; block-diagonal over components for vector spaces."""
    tab = _tables(space, qdegree or 2 * space.degree)
    ref_local = np.einsum("q,qi,qj->ij", tab.rule.weights, tab.values, tab.values)
    local = tab.det[:, None, None] * ref_local
    blocks = _diagonal_blocks(space)
    return _assemble(space, blocks, [local] * len(blocks))


def assemble_stiffness(space, qdegree=None):
    """Gradient-gradient matrix; block-diagonal over components."""
    local = _tables(space, qdegree or 2 * space.degree).stiffness
    blocks = _diagonal_blocks(space)
    return _assemble(space, blocks, [local] * len(blocks))


def assemble_divergence(vel_space, pres_space, qdegree=None):
    """Pressure-velocity coupling ``B[i, j] = (q_i, div v_j)``.

    Rows are scalar pressure DOFs, columns are vector velocity DOFs.
    """
    if vel_space.mesh is not pres_space.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    if vel_space.components != 2 or pres_space.components != 1:
        raise ValueError("expected a 2-vector velocity space and scalar pressure space")
    qdeg = qdegree or 2 * max(vel_space.degree, pres_space.degree)
    pres_values = _tables(pres_space, qdeg).values
    tab = _tables(vel_space, qdeg)
    local = [np.einsum("q,e,qi,eqj->eij", tab.rule.weights, tab.det, pres_values,
                       tab.grads[..., c]) for c in range(2)]
    return _assemble(vel_space, [(0, 0), (0, 1)], local, row_space=pres_space)


def assemble_grad_div(space, qdegree=None):
    """Unit grad-div matrix ``(div u, div v)`` on a vector space."""
    if space.components != 2:
        raise ValueError("grad-div requires a vector space")
    tab = _tables(space, qdegree or 2 * space.degree)
    grads = tab.grads
    blocks = [(a, b) for a in range(2) for b in range(2)]
    local = [np.einsum("q,e,eqi,eqj->eij", tab.rule.weights, tab.det,
                       grads[..., a], grads[..., b]) for a, b in blocks]
    return _assemble(space, blocks, local)


def assemble_lps_matrices(vel_space, pres_space, config):
    """Velocity and pressure LPS matrices for the equal-order pair.

    Both are symmetric positive semidefinite; the quadratic form equals the
    ``tau``-weighted L2 norm of the gradient fluctuation. With the
    elementwise-constant projection target, the local form of one scalar
    component is ``tau_K [ (grad u, grad v)_K - |K|^{-1} (int_K grad u) .
    (int_K grad v) ]``; both spaces are P2 on one mesh, so the fluctuation
    is formed once, on the velocity space's tables.
    """
    if vel_space.degree != 2 or pres_space.degree != 2:
        raise ValueError("LPS stabilization is set up for the equal-order P2/P2 pair")
    tab = _tables(vel_space, 2 * vel_space.degree)
    h_K = vel_space.mesh.h_K
    mean_g = np.einsum("q,e,eqia->eia", tab.rule.weights, tab.det, tab.grads)  # int_K grad phi_i
    areas = 0.5 * tab.det
    fluctuation = tab.stiffness - np.einsum("eia,eja->eij", mean_g, mean_g) / areas[:, None, None]

    local_v = config.tau_velocity(h_K)[:, None, None] * fluctuation
    blocks = _diagonal_blocks(vel_space)
    velocity = _assemble(vel_space, blocks, [local_v] * len(blocks))

    local_p = config.tau_pressure(h_K)[:, None, None] * fluctuation
    pressure = _assemble(pres_space, [(0, 0)], [local_p])
    return LPSMatrices(velocity=velocity, pressure=pressure)


def convection_matrix(space, w, qdegree=None):
    """Matrix of the skew-symmetrized convection form with frozen first slot.

    Entries are ``C[i, j] = ((w . grad) v_j, v_i) + 1/2 ((div w) v_j, v_i)``
    for the convecting field of coefficients ``w``; the block is identical
    for both velocity components, so the first component's entries are
    gathered and repeated, and the pattern is that of :func:`assemble_mass`.
    """
    if space.components != 2:
        raise ValueError("convection requires a vector space")
    tab = _tables(space, qdegree or 3 * space.degree)
    weights, values, det = tab.rule.weights, tab.values, tab.det
    comp = [w[c * space.n_scalar + space.cell_scalar_dofs] for c in range(2)]
    w_vals = np.stack([np.einsum("ei,qi->eq", comp[c], values) for c in range(2)], axis=-1)
    transport = np.einsum("eqc,eqjc->eqj", w_vals, tab.grads)
    # d w_c / d x_c at the points, summed over i as einsum sums
    parts = [np.zeros(transport.shape[:2]) for _ in range(2)]
    for c, part in enumerate(parts):
        for i in range(space.n_local):
            part += comp[c][:, i, None] * tab.grads[:, :, i, c]
    # sum_q w_q det_e transport_eqj v_qi and sum_q w_q det_e div_eq v_qj v_qi
    # as einsum sums them, over (i, e, j) arrays one point at a time
    wd = weights[:, None] * det
    scaled_div = wd * (parts[0] + parts[1]).T
    shape = (space.n_local, det.size, space.n_local)
    first, second, term = np.zeros(shape), np.zeros(shape), np.empty(shape)
    row = np.empty(shape[1:])
    for q in range(weights.size):
        v = values[q, :, None, None]
        np.multiply(wd[q, :, None], transport[:, q], out=row)
        first += np.multiply(v, row, out=term)
        np.multiply(scaled_div[q, :, None], values[q], out=row)
        second += np.multiply(v, row, out=term)
    second *= 0.5
    first += second
    return _ConvectionAction(space, None, first.transpose(1, 0, 2)).matrix()


class _ConvectionAction:
    """``z -> C z`` of the element matrices ``local`` on the DOFs ``index``."""

    def __init__(self, space, index, local):
        self.space, self.index, self.local = space, index, local

    def __call__(self, z):
        out = np.matmul(self.local, z[self.index])
        return np.bincount(self.index.ravel(), out.ravel(), self.space.n_dofs)

    def matrix(self):
        """``C``, the element matrices summed on :func:`assemble_mass`'s pattern."""
        both = _scatter(self.space, _diagonal_blocks(self.space))
        block = both.sums(self.local.ravel(), both.indptr[self.space.n_scalar])
        return sp.csr_matrix((np.tile(block, 2), both.indices, both.indptr), shape=both.shape)


def convection_action(space, w):
    """:func:`convection_matrix`'s ``C`` unassembled, up to rounding: three
    products with :attr:`_ElementTables.convection` give its element matrices
    (w at the points, 1/2 div w and w in reference axes, their contraction)."""
    index, stack, to_terms, products = _tables(space, 3 * space.degree).convection
    nt, nloc, _ = index.shape
    at_points = (w[index.transpose(0, 2, 1)].reshape(2 * nt, nloc) @ stack).reshape(nt, 6, -1)
    local = np.matmul(to_terms, at_points).reshape(nt, -1) @ products
    return _ConvectionAction(space, index, local.reshape(nt, nloc, nloc))


def _load_points(space):
    """The ``(nt, nq)`` x and y of the points :func:`assemble_load` samples."""
    points = _tables(space, 3 * space.degree).points
    return points[..., 0], points[..., 1]


def _integrate_load(space, data):
    """Load vector ``(g, v)`` from ``data``, the values of ``g`` at
    :func:`_load_points`: one array (or scalar) per component."""
    tab = _tables(space, 3 * space.degree)
    if space.components == 1:
        data = (data,)
    out = []
    for c in range(space.components):
        gc = np.broadcast_to(np.asarray(data[c], dtype=np.float64), tab.points.shape[:2])
        local = np.einsum("q,e,eq,qi->ei", tab.rule.weights, tab.det, gc, tab.values)
        # bincount adds each DOF's terms in element order, as np.add.at did
        out.append(np.bincount(space.cell_scalar_dofs.ravel(), weights=local.ravel(),
                               minlength=space.n_scalar))
    return np.concatenate(out)


def assemble_load(space, g, t=None):
    """Load vector ``(g, v)`` for an analytic source ``g(x, y)`` (or
    ``g(x, y, t)``), which must broadcast over arrays and return one array
    per component."""
    x, y = _load_points(space)
    return _integrate_load(space, g(x, y) if t is None else g(x, y, t))

"""Sparse operators for the stabilized solvers: mass, stiffness, divergence
coupling, grad-div, the skew-symmetrized trilinear convection form, and the
local-projection (fluctuation-based) stabilization matrices.

All assembly is vectorized over elements and returns CSR matrices. Quadrature
is exact: degree ``2 l`` for bilinear forms and ``3 l`` for the trilinear
form, where ``l`` is the polynomial degree of the space.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "apply_convection",
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


def _tables(space, qdegree):
    rule = triangle_quadrature(qdegree)
    values, ref_grads = reference_basis(space.degree, rule.points)
    return rule, values, ref_grads


def _phys_grads(space, ref_grads):
    """Physical basis gradients, shape (nt, nq, nloc, 2)."""
    _, inv_t, _ = space.mesh.jacobians
    return np.einsum("qib,eab->eqia", ref_grads, inv_t)


def _scatter(space, local, row_comp, col_comp, row_space=None):
    """Accumulate per-element local blocks into COO triplets."""
    row_sp = row_space if row_space is not None else space
    rows = row_sp.cell_dofs(row_comp)[:, :, None]
    cols = space.cell_dofs(col_comp)[:, None, :]
    rows = np.broadcast_to(rows, local.shape).ravel()
    cols = np.broadcast_to(cols, local.shape).ravel()
    return rows, cols, local.ravel()


def _blocks_to_csr(entries, shape):
    rows = np.concatenate([e[0] for e in entries])
    cols = np.concatenate([e[1] for e in entries])
    vals = np.concatenate([e[2] for e in entries])
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def assemble_mass(space, qdegree=None):
    """L2 mass matrix; block-diagonal over components for vector spaces."""
    rule, values, _ = _tables(space, qdegree or 2 * space.degree)
    _, _, det = space.mesh.jacobians
    ref_local = np.einsum("q,qi,qj->ij", rule.weights, values, values)
    local = det[:, None, None] * ref_local
    n = space.n_dofs
    entries = [_scatter(space, local, c, c) for c in range(space.components)]
    return _blocks_to_csr(entries, (n, n))


def assemble_stiffness(space, qdegree=None):
    """Gradient-gradient matrix; block-diagonal over components."""
    rule, _, ref_grads = _tables(space, qdegree or 2 * space.degree)
    _, _, det = space.mesh.jacobians
    grads = _phys_grads(space, ref_grads)
    local = np.einsum("q,e,eqia,eqja->eij", rule.weights, det, grads, grads)
    n = space.n_dofs
    entries = [_scatter(space, local, c, c) for c in range(space.components)]
    return _blocks_to_csr(entries, (n, n))


def assemble_divergence(vel_space, pres_space, qdegree=None):
    """Pressure-velocity coupling ``B[i, j] = (q_i, div v_j)``.

    Rows are scalar pressure DOFs, columns are vector velocity DOFs.
    """
    if vel_space.mesh is not pres_space.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    if vel_space.components != 2 or pres_space.components != 1:
        raise ValueError("expected a 2-vector velocity space and scalar pressure space")
    qdeg = qdegree or 2 * max(vel_space.degree, pres_space.degree)
    rule = triangle_quadrature(qdeg)
    pres_values, _ = reference_basis(pres_space.degree, rule.points)
    _, vel_ref_grads = reference_basis(vel_space.degree, rule.points)
    grads = _phys_grads(vel_space, vel_ref_grads)
    _, _, det = vel_space.mesh.jacobians
    shape = (pres_space.n_scalar, vel_space.n_dofs)
    entries = []
    for c in range(2):
        local = np.einsum("q,e,qi,eqj->eij", rule.weights, det, pres_values, grads[..., c])
        entries.append(_scatter(vel_space, local, 0, c, row_space=pres_space))
    return _blocks_to_csr(entries, shape)


def assemble_grad_div(space, mu, qdegree=None):
    """Grad-div matrix ``mu * (div u, div v)`` on a vector space."""
    if mu <= 0.0:
        raise ValueError("grad-div coefficient must be positive")
    if space.components != 2:
        raise ValueError("grad-div requires a vector space")
    rule, _, ref_grads = _tables(space, qdegree or 2 * space.degree)
    _, _, det = space.mesh.jacobians
    grads = _phys_grads(space, ref_grads)
    n = space.n_dofs
    entries = []
    for a in range(2):
        for b in range(2):
            local = mu * np.einsum(
                "q,e,eqi,eqj->eij", rule.weights, det, grads[..., a], grads[..., b]
            )
            entries.append(_scatter(space, local, a, b))
    return _blocks_to_csr(entries, (n, n))


def _scalar_lps(space, tau, rule, ref_grads):
    """Fluctuation stabilization of one scalar component.

    With the elementwise-constant projection target, the local form reduces to
    ``tau_K [ (grad u, grad v)_K - |K|^{-1} (int_K grad u) . (int_K grad v) ]``.
    """
    _, _, det = space.mesh.jacobians
    grads = _phys_grads(space, ref_grads)
    stiff = np.einsum("q,e,eqia,eqja->eij", rule.weights, det, grads, grads)
    mean_g = np.einsum("q,e,eqia->eia", rule.weights, det, grads)  # int_K grad phi_i
    areas = 0.5 * det
    local = tau[:, None, None] * (stiff - np.einsum("eia,eja->eij", mean_g, mean_g) / areas[:, None, None])
    return local


def assemble_lps_matrices(vel_space, pres_space, config):
    """Velocity and pressure LPS matrices for the equal-order pair.

    Both are symmetric positive semidefinite; the quadratic form equals the
    ``tau``-weighted L2 norm of the gradient fluctuation.
    """
    if vel_space.degree != 2 or pres_space.degree != 2:
        raise ValueError("LPS stabilization is set up for the equal-order P2/P2 pair")
    rule, values, ref_grads = _tables(pres_space, 2 * pres_space.degree)
    h_K = vel_space.mesh.h_K

    local_v = _scalar_lps(pres_space, config.tau_velocity(h_K), rule, ref_grads)
    n = vel_space.n_dofs
    entries = [_scatter(vel_space, local_v, c, c) for c in range(vel_space.components)]
    velocity = _blocks_to_csr(entries, (n, n))

    local_p = _scalar_lps(pres_space, config.tau_pressure(h_K), rule, ref_grads)
    m = pres_space.n_dofs
    pressure = _blocks_to_csr([_scatter(pres_space, local_p, 0, 0)], (m, m))
    return LPSMatrices(velocity=velocity, pressure=pressure)


def _field_at_quadrature(field, rule, values, grads):
    """Values, gradients and divergence of a vector field at quadrature points."""
    space = field.space
    cells = space.cell_scalar_dofs
    comp = [field.coefficients[c * space.n_scalar + cells] for c in range(2)]
    w_vals = np.stack([np.einsum("ei,qi->eq", comp[c], values) for c in range(2)], axis=-1)
    w_grads = np.stack([np.einsum("ei,eqia->eqa", comp[c], grads) for c in range(2)], axis=-2)
    div = w_grads[..., 0, 0] + w_grads[..., 1, 1]
    return w_vals, w_grads, div


def convection_matrix(space, convecting, qdegree=None):
    """Matrix of the skew-symmetrized convection form with frozen first slot.

    Entries are ``C[i, j] = ((w . grad) v_j, v_i) + 1/2 ((div w) v_j, v_i)``
    for the given convecting field ``w``; the block is identical for both
    velocity components.
    """
    if space.components != 2:
        raise ValueError("convection requires a vector space")
    rule, values, ref_grads = _tables(space, qdegree or 3 * space.degree)
    grads = _phys_grads(space, ref_grads)
    _, _, det = space.mesh.jacobians
    w_vals, _, w_div = _field_at_quadrature(convecting, rule, values, grads)
    transport = np.einsum("eqc,eqjc->eqj", w_vals, grads)
    local = np.einsum("q,e,eqj,qi->eij", rule.weights, det, transport, values)
    local += 0.5 * np.einsum("q,e,eq,qj,qi->eij", rule.weights, det, w_div, values, values)
    n = space.n_dofs
    entries = [_scatter(space, local, c, c) for c in range(2)]
    return _blocks_to_csr(entries, (n, n))


def apply_convection(u, v, w, qdegree=None):
    """Evaluate the trilinear form ``((u . grad) v, w) + 1/2 ((div u) v, w)``.

    Direct quadrature evaluation; does not assemble a matrix.
    """
    space = u.space
    if not (space is v.space is w.space):
        raise ValueError("all three fields must share one space")
    rule, values, ref_grads = _tables(space, qdegree or 3 * space.degree)
    grads = _phys_grads(space, ref_grads)
    _, _, det = space.mesh.jacobians
    u_vals, _, u_div = _field_at_quadrature(u, rule, values, grads)
    v_vals, v_grads, _ = _field_at_quadrature(v, rule, values, grads)
    w_vals, _, _ = _field_at_quadrature(w, rule, values, grads)
    transport = np.einsum("eqa,eqca->eqc", u_vals, v_grads)
    integrand = np.einsum("eqc,eqc->eq", transport, w_vals)
    integrand += 0.5 * u_div * np.einsum("eqc,eqc->eq", v_vals, w_vals)
    return float(np.einsum("q,e,eq->", rule.weights, det, integrand))


def assemble_load(space, g, t=None, qdegree=None):
    """Load vector ``(g, v)`` for an analytic source.

    ``g(x, y)`` (or ``g(x, y, t)``) must broadcast over arrays and return one
    array per component.
    """
    rule, values, _ = _tables(space, qdegree or 3 * space.degree)
    mesh = space.mesh
    _, _, det = mesh.jacobians
    pts = np.einsum("qk,ekd->eqd", rule.points, mesh.vertices[mesh.triangles])
    x, y = pts[..., 0], pts[..., 1]
    data = g(x, y) if t is None else g(x, y, t)
    if space.components == 1:
        data = (data,)
    out = np.zeros(space.n_dofs)
    for c in range(space.components):
        gc = np.broadcast_to(np.asarray(data[c], dtype=np.float64), x.shape)
        local = np.einsum("q,e,eq,qi->ei", rule.weights, det, gc, values)
        np.add.at(out, space.cell_dofs(c), local)
    return out


"""Independent checks of the LPS matrices: gradient samples at element
vertices and the element-local fluctuation projector.

The LPS forms can be written as ``G^T F^T W F G``, where ``G`` samples the
(elementwise linear) gradient of a P2 field at the vertices, ``F`` removes
each element's mean, and ``W`` holds tau-weighted P1 mass blocks. The tests
build that product and compare it with the assembled matrices.
"""

import numpy as np
import scipy.sparse as sp

from podflow.fe_space import reference_basis


def gradient_sample_matrix(space):
    """Map scalar-field coefficients to broken-P1 nodal gradient values.

    For a P2 space the gradient is elementwise linear, so it is determined by
    its values at the element vertices. Row layout: element, then gradient
    component, then local vertex, i.e. row ``(e * 2 + a) * 3 + k``.
    """
    if space.degree != 2 or space.components != 1:
        raise ValueError("gradient sampling is set up for scalar P2 spaces")
    corners = np.eye(3)
    _, ref_grads = reference_basis(space.degree, corners)  # (3 corners, nloc, 2)
    _, inv_t, _ = space.mesh.jacobians
    grad_phys = np.einsum("kib,eab->ekia", ref_grads, inv_t)  # (nt, corner, nloc, comp)
    vals = np.transpose(grad_phys, (0, 3, 1, 2))  # (nt, comp, corner, nloc)
    nt = len(space.mesh.triangles)
    row_ids = (
        (np.arange(nt)[:, None, None] * 2 + np.arange(2)[None, :, None]) * 3
        + np.arange(3)[None, None, :]
    )
    rows = np.broadcast_to(row_ids[..., None], vals.shape)
    cols = np.broadcast_to(space.cell_scalar_dofs[:, None, None, :], vals.shape)
    return sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(6 * nt, space.n_scalar)
    ).tocsr()


def assemble_lps_fluctuation(space):
    """Block-diagonal fluctuation operator on broken-P1 gradient samples.

    Each ``(element, component)`` block subtracts the element-local constant
    projection: ``I - ones(3,3)/3`` in the vertex-value representation. The
    operator is an orthogonal projector (idempotent) and annihilates exactly
    the gradients of piecewise-linear fields.
    """
    if space.degree != 2:
        raise ValueError("the fluctuation operator is set up for P2 spaces")
    nt = len(space.mesh.triangles)
    block = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    return sp.block_diag([sp.csr_matrix(block)] * (2 * nt), format="csr")

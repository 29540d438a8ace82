"""Flow diagnostics: energies, forces, divergence residuals, and error norms.

Everything here is a pure function of assembled operators and coefficient
data, so values are reproducible bit for bit given the same inputs. Drag
and lift test the momentum residual of the step that produced the fields.
"""

from __future__ import annotations

import numpy as np

from .assembly import _tables


def kinetic_energy(u, mass):
    """Half the squared mass-weighted norm of the velocity coefficients ``u``."""
    return 0.5 * float(u @ (mass @ u))


def analytic_l2_error(space, u, g, t):
    """Quadrature-evaluated L2 distance between the field of coefficients
    ``u`` on ``space`` and ``g(x, y, t)``, which returns one array per
    component.
    """
    tab = _tables(space, 2 * space.degree + 2)
    x, y = tab.points[..., 0], tab.points[..., 1]
    data = g(x, y, t)
    if space.components == 1:
        data = (data,)
    total = 0.0
    for c in range(space.components):
        local = u[space.cell_dofs(c)]
        fem = np.einsum("ei,qi->eq", local, tab.values)
        exact = np.broadcast_to(np.asarray(data[c], dtype=float), x.shape)
        diff = fem - exact
        total += float(np.einsum("q,e,eq->", tab.rule.weights, tab.det, diff * diff))
    return float(np.sqrt(total))


def weak_divergence(u, divergence, pressure_mass):
    """Largest divergence pairing against normalized nodal pressure functions.

    Returns max_i |(q_i, div u)| / ||q_i|| over the nodal pressure basis.
    """
    r = divergence @ u
    return float(np.max(np.abs(r) / np.sqrt(pressure_mass.diagonal())))


class DragLiftProbe:
    """Drag and lift as phi^T R, the probe fields phi tested by the momentum
    residual R of the step that produced the flow. The columns of ``fields``
    are (1, 0) and (0, 1) on the obstacle, zero on the other boundaries and
    discretely harmonic inside; R vanishes on the free DOFs, so the interior
    values do not matter. A reduced run tests :func:`~podflow.rom.step_residuals`
    of its build's ``drag_lift`` forms, which
    :func:`~podflow.rom.build_rom_operators` projects onto ``fields`` in the
    reduced model's own pass, minus ``divergence_fields.T @ p``; its first
    row holds the start at rest.
    """

    def __init__(self, problem, reference_velocity, reference_length):
        import scipy.sparse.linalg as spla  # slow to import, and set-up never calls this
        space = problem.vel_space
        if "obstacle" not in set(space.mesh.boundary_edges.values()):
            raise ValueError("drag/lift probe requires an obstacle boundary")
        n = space.n_scalar
        obstacle = space.boundary_scalar_dofs("obstacle")
        boundary = space.boundary_scalar_dofs()
        fields = np.zeros((space.n_dofs, 2))
        fields[obstacle, 0] = fields[n + obstacle, 1] = 1.0
        constrained = np.concatenate([boundary, n + boundary])
        free = np.setdiff1d(np.arange(space.n_dofs), constrained)
        a = problem.stiffness.tocsr()
        rhs = -(a[free][:, constrained] @ fields[constrained])
        fields[free] = spla.splu(a[free][:, free].tocsc()).solve(rhs)
        self.fields = fields
        self.divergence_fields = problem.divergence @ fields
        self.scale = -2.0 / (float(reference_length) * float(reference_velocity)**2)

    def coefficients(self, tested):
        """Drag and lift coefficients from the momentum residual tested by
        ``fields``: a (2,) array for one step or (2, nt) for a trajectory."""
        return tuple(self.scale * np.asarray(tested, dtype=float))


def discrete_l2_error(traj_a, traj_b, gram, dt):
    """Time-accumulated mass-weighted distance between two trajectories.

    Computes sqrt(sum_j dt * ||a_j - b_j||^2) for column-aligned snapshot
    arrays of identical shape.
    """
    a = np.asarray(traj_a, dtype=float)
    b = np.asarray(traj_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    diff = a - b
    total = float(np.sum(diff * (gram @ diff)))
    return float(np.sqrt(dt * total))


def error_indicators(scheme, sv_norm, velocity_tail, pressure_tail,
                     c_r_h1=None, alpha=1.0):
    """Spectral-tail error indicators for the velocity and the pressure.

    The velocity indicator is sv_norm * velocity_tail, plus the pressure
    tail for the equal-order scheme whose pressure enters the velocity
    system. The pressure indicator adds the pressure tail in both schemes;
    the divergence-stable scheme weights the velocity part by the
    recoverability factor alpha * c_r_h1.
    """
    if scheme == "lps":
        vel = pres = sv_norm * velocity_tail + pressure_tail
    elif scheme == "graddiv":
        vel = sv_norm * velocity_tail
        if c_r_h1 is None:
            raise ValueError("graddiv pressure indicator needs c_r_h1")
        pres = alpha * c_r_h1 * sv_norm * velocity_tail + pressure_tail
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(vel), float(pres)


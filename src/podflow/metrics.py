"""Flow diagnostics: energies, forces, divergence residuals, and error norms.

Everything here is a pure function of assembled operators and coefficient
data, so values are reproducible bit for bit given the same inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import _tables, apply_convection
from .fe_space import FEField, _coefficients


def kinetic_energy(u, mass):
    """Half the squared mass-weighted norm of a velocity field."""
    c = _coefficients(u)
    return 0.5 * float(c @ (mass @ c))


def analytic_l2_error(field, g, t=None, qdegree=None):
    """Quadrature-evaluated L2 distance between a field and a callable.

    ``g`` follows the load-vector convention: ``g(x, y)`` or ``g(x, y, t)``,
    returning one array per component.
    """
    space = field.space
    rule, values, _ = _tables(space, qdegree or 2 * space.degree + 2)
    mesh = space.mesh
    _, _, det = mesh.jacobians
    pts = np.einsum("qk,ekd->eqd", rule.points, mesh.vertices[mesh.triangles])
    x, y = pts[..., 0], pts[..., 1]
    data = g(x, y) if t is None else g(x, y, t)
    if space.components == 1:
        data = (data,)
    total = 0.0
    for c in range(space.components):
        local = field.coefficients[space.cell_dofs(c)]
        fem = np.einsum("ei,qi->eq", local, values)
        exact = np.broadcast_to(np.asarray(data[c], dtype=float), x.shape)
        diff = fem - exact
        total += float(np.einsum("q,e,eq->", rule.weights, det, diff * diff))
    return float(np.sqrt(total))


def weak_divergence(u, divergence, pressure_mass):
    """Largest divergence pairing against normalized nodal pressure functions.

    Returns max_i |(q_i, div u)| / ||q_i|| over the nodal pressure basis.
    """
    r = divergence @ _coefficients(u)
    return float(np.max(np.abs(r) / np.sqrt(pressure_mass.diagonal())))


class DragLiftProbe:
    """Volume-integral evaluation of drag and lift around the obstacle.

    The probe fields equal (1, 0) and (0, 1) on the obstacle boundary, are
    zero on every other boundary, and are discretely harmonic inside the
    domain, which makes them canonical and mesh-reproducible.
    """

    def __init__(self, vel_space, pres_space, mass, stiffness, divergence,
                 nu, reference_velocity, reference_length):
        tags = set(vel_space.mesh.boundary_edges.values())
        if "obstacle" not in tags:
            raise ValueError("drag/lift probe requires an obstacle boundary")
        if vel_space.components != 2:
            raise ValueError("probe needs a two-component velocity space")
        self.vel_space = vel_space
        self.pres_space = pres_space
        self.mass = mass
        self.stiffness = stiffness
        self.divergence = divergence
        self.nu = float(nu)
        self.reference_velocity = float(reference_velocity)
        self.reference_length = float(reference_length)
        self.drag_field = self._harmonic_probe(component=0)
        self.lift_field = self._harmonic_probe(component=1)

    def _harmonic_probe(self, component):
        space = self.vel_space
        n = space.n_scalar
        obstacle = space.boundary_scalar_dofs("obstacle")
        boundary = space.boundary_scalar_dofs()
        g = np.zeros(space.n_dofs)
        g[component * n + obstacle] = 1.0
        constrained = np.concatenate([boundary, n + boundary])
        free = np.setdiff1d(np.arange(space.n_dofs), constrained)
        a = self.stiffness.tocsr()
        rhs = -(a[free][:, constrained] @ g[constrained])
        sol = spla.spsolve(a[free][:, free].tocsc(), rhs)
        g[free] = sol
        return g

    def _functional(self, probe, u, du_dt, p, load):
        space = self.vel_space
        val = float(probe @ (self.mass @ du_dt))
        u_field = FEField(space, u)
        val += apply_convection(u_field, u_field, FEField(space, probe))
        val += self.nu * float(probe @ (self.stiffness @ u))
        val -= float(p @ (self.divergence @ probe))
        if load is not None:
            val -= float(probe @ load)
        return val

    def coefficients(self, u, u_prev, p, dt, load=None):
        """Drag and lift coefficients from one velocity step and a pressure.

        ``load`` is the assembled body-force load vector at the step's time,
        or None for an unforced flow.
        """
        u = _coefficients(u)
        du_dt = (u - _coefficients(u_prev)) / float(dt)
        p = _coefficients(p)
        scale = -2.0 / (self.reference_length * self.reference_velocity**2)
        c_d = scale * self._functional(self.drag_field, u, du_dt, p, load)
        c_l = scale * self._functional(self.lift_field, u, du_dt, p, load)
        return c_d, c_l


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


def triple_norm(z, vel_modes, divergence, stiffness, s_pres):
    """Dual-type pressure norm combining a reduced sup and a fluctuation term.

    For a pressure coefficient vector z this returns
    sup_{v in span(modes)} (z, div v)/||grad v|| + sqrt(s_pres(z, z)),
    with the sup evaluated exactly through the reduced gradient Gram matrix.
    """
    z = _coefficients(z)
    modes = np.asarray(vel_modes, dtype=float)
    if modes.ndim == 1:
        modes = modes[:, None]
    g = (divergence @ modes).T @ z
    s_r = modes.T @ (stiffness @ modes)
    sup_term = float(np.sqrt(max(g @ np.linalg.solve(s_r, g), 0.0)))
    fluct_term = float(np.sqrt(max(z @ (s_pres @ z), 0.0)))
    return sup_term + fluct_term


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
        vel = sv_norm * velocity_tail + pressure_tail
        pres = sv_norm * velocity_tail + pressure_tail
    elif scheme == "graddiv":
        vel = sv_norm * velocity_tail
        if c_r_h1 is None:
            raise ValueError("graddiv pressure indicator needs c_r_h1")
        pres = alpha * c_r_h1 * sv_norm * velocity_tail + pressure_tail
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(vel), float(pres)


def rank_correlation(values_a, values_b):
    """Kendall tau between two equally long sequences."""
    from scipy.stats import kendalltau  # slow to import; only this needs it

    tau = kendalltau(values_a, values_b).statistic
    return float(tau)

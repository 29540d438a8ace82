"""Reference computations the tests check the package against, the
forcings several test modules share, the uniform mesh refinement of their
refinement checks, and a reader of the ``mesh.txt`` a run writes.

None of these is part of a run: each evaluates a quantity directly (by
quadrature at a point, by summation over snapshots, by a dense solve) that
the package obtains another way, states one of the paper's identities as
an executable check, or builds a test's input.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import podflow.assembly
from podflow.fe_space import reference_basis, triangle_quadrature
from podflow.fom import SeparableForcing
from podflow.mesh import Mesh, MeshError
from podflow.pod import reduced_stiffness
from podflow.rom import PressureRecovery, _project


def mesh_stats(mesh):
    """Return ``{"h", "min_angle", "quasi_uniformity_ratio"}`` (angle in degrees)."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    hk = mesh.h_K
    return {
        "h": float(hk.max()),
        "min_angle": float(np.min(angles)),
        "quasi_uniformity_ratio": float(hk.max() / hk.min()),
    }


def refine_uniform(mesh):
    """Red refinement: each triangle is split into four via edge midpoints.

    Children are similar to the parent, so every local diameter is halved and
    the triangle count grows by a factor of four. Boundary tags are inherited
    by the two half-edges of each tagged edge.
    """
    nv = len(mesh.vertices)
    edges = mesh.edges
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    mid = nv + mesh.triangle_edges  # (nt, 3), midpoint of edge opposite vertex k
    t = mesh.triangles
    children = np.concatenate(
        [
            np.stack([t[:, 0], mid[:, 2], mid[:, 1]], axis=1),
            np.stack([t[:, 1], mid[:, 0], mid[:, 2]], axis=1),
            np.stack([t[:, 2], mid[:, 1], mid[:, 0]], axis=1),
            np.stack([mid[:, 0], mid[:, 1], mid[:, 2]], axis=1),
        ]
    )

    edge_index = {tuple(e): i for i, e in enumerate(edges)}
    boundary_edges = {}
    for (a, b), tag in mesh.boundary_edges.items():
        m = nv + edge_index[tuple(sorted((a, b)))]
        boundary_edges[tuple(sorted((a, m)))] = tag
        boundary_edges[tuple(sorted((m, b)))] = tag

    return Mesh(vertices, children, boundary_edges)


def read_mesh(path):
    """The mesh of a file :func:`podflow.mesh.save_mesh` wrote, validated on
    construction; a file that ends before its counts say raises
    :class:`MeshError`."""
    lines = iter(Path(path).read_text().split("\n"))
    try:
        nv, nt, nb = (int(s) for s in next(lines).split())
        vertices = [[float(v) for v in next(lines).split()] for _ in range(nv)]
        triangles = [[int(v) for v in next(lines).split()] for _ in range(nt)]
        boundary_edges = {}
        for _ in range(nb):
            a, b, tag = next(lines).split()
            boundary_edges[(int(a), int(b))] = tag
    except (StopIteration, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from None
    return Mesh(np.array(vertices), np.array(triangles, dtype=np.int64), boundary_edges)


def eval_field(space, field, triangle, point, gradient=False):
    """Evaluate the field of coefficients ``field`` on ``space`` (and
    optionally its gradient) inside one triangle.

    ``point`` is barycentric. Scalar spaces return a float (and a length-2
    gradient); vector spaces return a length-2 value (and a 2x2 gradient with
    ``grad[i, j] = d u_i / d x_j``).
    """
    lam = np.asarray(point, dtype=np.float64)
    if lam.shape != (3,) or abs(lam.sum() - 1.0) > 1e-10 or lam.min() < -1e-12:
        raise ValueError("point must be barycentric coordinates inside the triangle")
    values, ref_grads = reference_basis(space.degree, lam[None, :])
    _, inv_t, _ = space.mesh.jacobians
    phys_grads = ref_grads[0] @ inv_t[triangle].T  # (nloc, 2)
    dofs = space.cell_scalar_dofs[triangle]
    comps = []
    grads = []
    for c in range(space.components):
        coeffs = field[c * space.n_scalar + dofs]
        comps.append(float(values[0] @ coeffs))
        grads.append(coeffs @ phys_grads)
    if space.components == 1:
        return (comps[0], grads[0]) if gradient else comps[0]
    value = np.array(comps)
    return (value, np.vstack(grads)) if gradient else value


def apply_convection(space, u, v, w, qdegree=None):
    """Evaluate the trilinear form ``((u . grad) v, w) + 1/2 ((div u) v, w)``
    of three coefficient arrays on ``space`` by quadrature on every
    element, without assembling a matrix."""
    rule = triangle_quadrature(qdegree or 3 * space.degree)
    values, ref_grads = reference_basis(space.degree, rule.points)
    _, inv_t, det = space.mesh.jacobians
    grads = np.einsum("qib,eab->eqia", ref_grads, inv_t)

    def at_points(field):
        """Values (e, q, c) and gradients (e, q, c, a) = d f_c / d x_a."""
        comp = [field[c * space.n_scalar + space.cell_scalar_dofs] for c in range(2)]
        vals = np.stack([np.einsum("ei,qi->eq", a, values) for a in comp], axis=-1)
        grad = np.stack([np.einsum("ei,eqia->eqa", a, grads) for a in comp], axis=-2)
        return vals, grad

    u_vals, u_grads = at_points(u)
    v_vals, v_grads = at_points(v)
    w_vals, _ = at_points(w)
    u_div = u_grads[..., 0, 0] + u_grads[..., 1, 1]
    transport = np.einsum("eqa,eqca->eqc", u_vals, v_grads)
    integrand = np.einsum("eqc,eqc->eq", transport, w_vals)
    integrand += 0.5 * u_div * np.einsum("eqc,eqc->eq", v_vals, w_vals)
    return float(np.einsum("q,e,eq->", rule.weights, det, integrand))


def einsum_convection_local(space, convecting, qdegree=None):
    """The element matrices ``(e, i, j)`` of the convection matrix as
    NumPy's unoptimized ``einsum`` contracts them: the reference for the
    bit-for-bit loops of :func:`podflow.assembly.convection_matrix`."""
    tab = podflow.assembly._tables(space, qdegree or 3 * space.degree)
    weights, values, grads, det = tab.rule.weights, tab.values, tab.grads, tab.det
    comp = [convecting[c * space.n_scalar + space.cell_scalar_dofs] for c in range(2)]
    w_vals = np.stack([np.einsum("ei,qi->eq", comp[c], values) for c in range(2)], axis=-1)
    w_grads = np.stack([np.einsum("ei,eqia->eqa", comp[c], grads) for c in range(2)], axis=-2)
    w_div = w_grads[..., 0, 0] + w_grads[..., 1, 1]
    transport = np.einsum("eqc,eqjc->eqj", w_vals, grads)
    local = np.einsum("q,e,eqj,qi->eij", weights, det, transport, values)
    local += 0.5 * np.einsum("q,e,eq,qj,qi->eij", weights, det, w_div, values, values)
    return local


def supremizer_solutions(problem, psi):
    """Each pressure mode's supremizer before orthonormalization, by a
    dense solve of (grad s, grad v) = (psi, div v) on the free velocity
    DOFs, and the relative algebraic residual of each solve."""
    free = problem.free_velocity
    a_ff = problem.stiffness.toarray()[np.ix_(free, free)]
    rhs = (problem.divergence.T @ psi)[free]
    raw = np.zeros((problem.n_velocity, psi.shape[1]))
    raw[free] = np.linalg.solve(a_ff, rhs)
    residuals = (np.linalg.norm(a_ff @ raw[free] - rhs, axis=0)
                 / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
    return raw, residuals


def modified_gram_schmidt(fields, stiffness, drop=1e-10):
    """Pairwise modified Gram-Schmidt in the gradient inner product, each
    column swept twice against the kept ones, with the two drop rules of
    :func:`~podflow.rom.orthonormalize_gradient`: a column negligible against
    the largest, or one whose remainder is negligible against itself."""
    norms = np.sqrt(np.maximum(np.einsum("ik,ik->k", fields, stiffness @ fields), 0.0))
    kept = []
    for k in np.flatnonzero(norms > drop * norms.max()):
        v = fields[:, k].copy()
        for _ in range(2):
            for q in kept:
                v -= float(q @ (stiffness @ v)) * q
        norm = np.sqrt(max(float(v @ (stiffness @ v)), 0.0))
        if norm > drop * norms[k]:
            kept.append(v / norm)
    return np.column_stack(kept)


def solve_stokes(problem, t=0.0):
    """Steady linear solve with the problem's viscous and stabilized forms:
    the velocity and pressure coefficients."""
    rhs = problem.load_vector(t)
    return problem.solve_coupled(problem.velocity_values(0.0), rhs,
                                 problem.boundary_values(t), [])


def saddle_system(problem, values):
    """The free x free saddle-point system in CSC, in the original DOF
    order, with the velocity block of ``values`` (see
    :meth:`~podflow.fom.FOMProblem.velocity_values`): the whole system by
    ``bmat``, cut to the free DOFs by fancy indexing."""
    system = sp.bmat([[problem.velocity_block(values), -problem.divergence.T],
                      [problem.divergence, problem.pressure_stabilization]], format="csr")
    free = problem.free_global
    return sp.csc_matrix(system[free][:, free])


def triple_norm(z, vel_modes, divergence, stiffness, s_pres):
    """Dual-type pressure norm combining a reduced sup and a fluctuation term.

    For a pressure coefficient vector z this returns
    sup_{v in span(modes)} (z, div v)/||grad v|| + sqrt(s_pres(z, z)),
    with the sup evaluated exactly through the reduced gradient Gram matrix.
    """
    g = (divergence @ vel_modes).T @ z
    s_r = vel_modes.T @ (stiffness @ vel_modes)
    sup_term = float(np.sqrt(max(g @ np.linalg.solve(s_r, g), 0.0)))
    fluct_term = float(np.sqrt(max(z @ (s_pres @ z), 0.0)))
    return sup_term + fluct_term


def verify_spectral_identities(basis, snapshots, mass, stiffness, r=None,
                               n_samples=100, seed=0):
    """Check the POD tail identities and the inverse inequality.

    Returns a report with the relative residuals of the mean squared
    reconstruction error identities (mass norm and gradient seminorm
    versions, Kunisch & Volkwein 2002) and the violation count of
    ||grad v|| <= sqrt(s2) ||v|| over random members of the mode span,
    where s2 is the spectral norm of the full-rank reduced stiffness matrix.
    ``snapshots`` is a snapshot set or a bare (n, M) array.
    """
    fields = np.asarray(getattr(snapshots, "fields", snapshots), dtype=float)
    m = fields.shape[1]
    r = basis.rank if r is None else int(r)
    modes = basis.modes
    coeffs = modes.T @ (mass @ fields)  # (d, M)
    residual = fields - modes[:, :r] @ coeffs[:r]

    total_l2 = float(np.sum(fields * (mass @ fields))) / m
    lhs_l2 = float(np.sum(residual * (mass @ residual))) / m
    rhs_l2 = float(np.sum(basis.eigenvalues[r:]))
    l2_residual = abs(lhs_l2 - rhs_l2) / max(total_l2, 1e-300)

    grad_norms_sq = np.einsum("ik,ik->k", modes, stiffness @ modes)
    lhs_h1 = float(np.sum(residual * (stiffness @ residual))) / m
    rhs_h1 = float(np.sum(basis.eigenvalues[r:] * grad_norms_sq[r:]))
    total_h1 = float(np.sum(basis.eigenvalues * grad_norms_sq))
    h1_residual = abs(lhs_h1 - rhs_h1) / max(total_h1, 1e-300)

    s2 = reduced_stiffness(basis, stiffness)[1]
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = -np.inf
    for _ in range(n_samples):
        c = rng.standard_normal(basis.rank)
        v = modes @ c
        grad = np.sqrt(max(float(v @ (stiffness @ v)), 0.0))
        bound = np.sqrt(s2) * np.sqrt(max(float(v @ (mass @ v)), 0.0))
        margin = grad - bound
        worst_margin = max(worst_margin, margin)
        if margin > 1e-12 * max(bound, 1.0):
            violations += 1

    return {
        "r": r,
        "l2_tail_residual": l2_residual,
        "h1_tail_residual": h1_residual,
        "inverse_violations": violations,
        "inverse_worst_margin": worst_margin,
        "stiffness_norm": s2,
    }


def pressure_recovery(problem, vel_basis, pres_basis, z, r=None, rp=None):
    """The :class:`~podflow.rom.PressureRecovery` of the first ``r``
    velocity modes and ``rp`` pressure modes (every mode of a basis for
    None) against the supremizers ``z``, one column per pressure mode, made
    as :func:`~podflow.rom.build_rom_operators` makes its own: the forms of
    a projection onto ``z`` and the divergence coupling."""
    psi = pres_basis.modes[:, :rp]
    operators, = _project(problem, vel_basis.modes[:, :r], vel_basis.mean, [z])
    return PressureRecovery(replace(operators, pres_modes=psi),
                            (psi.T @ (problem.divergence @ z)).T)


def recovered_pressure(ops, run, mu, a_prev=None, columns=None):
    """Reference for :func:`podflow.rom.reduced_pressure` on the
    velocity-only scheme, each floating-point operation in the same order:
    the projected loads of the wanted columns in one table, the time slopes
    of the whole trajectory, then per column its own right-hand side and
    dense solve. Column ``n >= 1`` takes the three-level difference once
    two history levels exist and the backward difference on the very first
    step; column 0 the backward difference against ``a_prev`` when given
    and a zero slope otherwise. Columns not in ``columns`` are NaN."""
    recovery = ops.recovery
    rec_ops = recovery.operators
    dt = rec_ops.fom.dt
    a_traj = np.asarray(run.a_traj, dtype=float)
    nt = a_traj.shape[1]
    wanted = range(nt) if columns is None else columns
    forcing_values = None
    if rec_ops.forcing_modes is not None:
        forcing_values = np.full((recovery.coupling.shape[0], nt), np.nan)
        for n in wanted:
            forcing_values[:, n] = rec_ops.forcing_modes @ rec_ops.forcing.coefficients(
                run.times[n])
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (nt,))
    b_traj = np.full((recovery.coupling.shape[0], nt), np.nan)
    for n in wanted:
        if n == 0:
            if a_prev is not None:
                dadt = (a_traj[:, 0] - np.asarray(a_prev, dtype=float)) / dt
            else:
                dadt = np.zeros(a_traj.shape[0])
        elif n == 1 and a_prev is None:
            dadt = (a_traj[:, 1] - a_traj[:, 0]) / dt
        else:
            back2 = np.asarray(a_prev, dtype=float) if n == 1 else a_traj[:, n - 2]
            dadt = (3.0 * a_traj[:, n] - 4.0 * a_traj[:, n - 1] + back2) / (2.0 * dt)
        f_n = None if forcing_values is None else forcing_values[:, n]
        rhs = _recovery_right_hand_side(rec_ops, a_traj[:, n], dadt, float(mu[n]), f_n)
        b_traj[:, n] = np.linalg.solve(recovery.coupling, rhs)
    return rec_ops.pres_modes @ b_traj


def _recovery_right_hand_side(ops, a, dadt, mu, forcing):
    """The supremizer-tested momentum terms of one level: time slope on the
    modes, convection and grad-div (skipped for mu = 0) of the lifted state
    (the mean's coefficient 1 first for a centred basis, then ``a``) and
    load."""
    lift = ops.lift
    u = np.concatenate([np.ones(lift), a])
    rhs = np.zeros(ops.mass.shape[0])
    rhs = rhs + ops.mass[:, lift:] @ dadt
    rhs = rhs + np.einsum("i,ijk,j->k", u, ops.convection_tensor, u)
    if mu != 0.0:
        rhs = rhs + mu * (ops.grad_div @ u)
    if forcing is not None:
        rhs = rhs - forcing
    return rhs


# -- forcings -------------------------------------------------------------------


def summed_forcing(forcing):
    """``f(x, y, t)`` of a :class:`~podflow.fom.SeparableForcing`, its
    shapes evaluated afresh and summed term by term with their time
    factors, then scaled: the reference for the full-order load."""
    def f(x, y, t):
        fx = fy = 0.0
        for theta, shape in zip(forcing.coefficients(t), forcing.shapes):
            gx, gy = shape(x, y)
            fx = fx + theta * gx
            fy = fy + theta * gy
        return forcing.scale * fx, forcing.scale * fy

    return f


def steady_forcing(shape):
    """The time-independent forcing of one shape ``(x, y) -> (fx, fy)``."""
    return SeparableForcing((shape,), lambda t: np.ones(1))


# the closed form of separable_swirl, for the full-order oracles
def swirl_forcing(x, y, t):
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    fx = sy * (1.0 + 0.4 * np.cos(20.0 * t)) + sx * sy * np.sin(35.0 * t + 0.3)
    fy = sx * (1.0 - 0.3 * np.sin(25.0 * t)) \
        + np.sin(2.0 * np.pi * x) * sy * np.cos(50.0 * t - 0.7)
    return (fx, fy)


def _in_x(value):
    return lambda x, y: (value(x, y), np.zeros_like(x))


def _in_y(value):
    return lambda x, y: (np.zeros_like(x), value(x, y))


# swirl_forcing written as its four space-time terms
separable_swirl = SeparableForcing(
    (_in_x(lambda x, y: np.sin(np.pi * y)),
     _in_x(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)),
     _in_y(lambda x, y: np.sin(np.pi * x)),
     _in_y(lambda x, y: np.sin(2.0 * np.pi * x) * np.sin(np.pi * y))),
    lambda t: np.array([1.0 + 0.4 * np.cos(20.0 * t), np.sin(35.0 * t + 0.3),
                        1.0 - 0.3 * np.sin(25.0 * t), np.cos(50.0 * t - 0.7)]))

# a strong swirl, so every snapshot direction of a short run clears the
# basis truncation threshold
strong_swirl = replace(separable_swirl, scale=100.0)

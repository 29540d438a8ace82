"""Full-order incompressible flow solvers on stabilized finite elements.

Two spatial discretizations are provided. The equal-order scheme uses
quadratic velocity and quadratic pressure with local-projection penalties
on both gradient fluctuations. The divergence-stable scheme uses the
quadratic/linear pair with a grad-div penalty. Time stepping is either
semi-implicit two-step backward differentiation (extrapolated convecting
field, one linear solve per step) or implicit Euler with fixed-point
resolution of the convection nonlinearity, started from the same
extrapolation. :func:`time_terms` holds the coefficients of both and
:func:`solve_step` their sweeps, for the full-order and the reduced models
alike. A run with a drag/lift probe keeps each step's momentum residual,
zero on the free velocity DOFs, for the probe to test. A state's velocity
and pressure are coefficient arrays, and a body force is a
:class:`SeparableForcing`.

A problem builds once what its steps do not change: the forcing's shape
values at the load's quadrature points, the velocity block's part
without convection per mass scale, and on first solve that block's pattern,
the free x free system in CSC with the divergence and pressure
stabilization blocks in place and the free x fixed lifting of the boundary
values. A step sums the shapes with its time factors; an assembled sweep
adds its convection and factors. All is bit for bit what assembling
afresh, SciPy's sparse sums, ``bmat`` and fancy indexing give, but an
exactly-zero velocity entry, which those sums drop, stays a stored zero.

SuperLU's column ordering (COLAMD) depends on the pattern alone, which the
free x free system keeps, so it is computed once: the system is relabelled
by the first factorization's order and later ones factor it as stored,
with the same pivots and solutions, bit for bit.

Two kinds of solve are bit for bit ``splu`` of the stored system: every
BDF2 solve and a problem's first (ordering) solve. Every other
implicit-Euler Picard sweep makes one unassembled chord correction against
the run's one lagged factor (:meth:`FOMProblem.correct`); each step refines
its accepted sweep's solution to a backward error of 4 eps in the system
that sweep assembled or corrected with. A correction that would need more
than ``_REFINEMENT_CAP`` of its kind to reach ``nonlinear_tolerance``, or a
refinement that misses 4 eps within as many, falls back to a fresh factor,
which becomes the run's. As every solution implicit Euler keeps is refined,
its factor need not be ``splu``'s: it takes a symmetric fill-reducing order,
multiple minimum degree of A + Aᵀ with diagonal pivots preferred. On the
holed channel's system that has three quarters of COLAMD's fill, and the
triangular solves, most of a run's solver work, cost a quarter less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import (
    StabilizationConfig,
    _integrate_load,
    _load_points,
    _release_static_caches,
    assemble_divergence,
    assemble_grad_div,
    assemble_lps_matrices,
    assemble_mass,
    assemble_stiffness,
    convection_action,
    convection_matrix,
)
from .container import read_container, write_container
from .fe_space import FESpace
from .metrics import kinetic_energy, weak_divergence

SCHEMES = ("lps", "graddiv")
TIME_INTEGRATORS = ("bdf2_semi_implicit", "implicit_euler")

_TIME_TOL = 1e-9
_REFINEMENT_CAP = 10  # corrections a lagged factor may need for a solve before it is renewed
_BACKWARD_ERROR = 4.0 * np.finfo(float).eps  # the target of a solve whose result is kept


class NonlinearSolveError(RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


def time_terms(integrator, now, prev, dt):
    """The time discretization of one step from the levels ``now`` and
    ``prev``: ``(alpha, history, convecting)`` such that the time
    derivative at the new level is ``alpha / dt * u_new - history``, and
    ``convecting`` is the field of the first convection sweep: for both
    integrators the extrapolation ``2 now - prev``, exact on a linear
    trajectory, which BDF2 sweeps with once and implicit Euler starts its
    Picard iteration from."""
    extrapolated = 2.0 * now - prev
    if integrator == "bdf2_semi_implicit":
        return 1.5, (4.0 * now - prev) / (2.0 * dt), extrapolated
    return 1.0, now / dt, extrapolated


def solve_step(integrator, sweep, convecting, mass, tolerance, max_iterations):
    """Solve one step of ``integrator``: ``sweep(w)`` returns the new level
    solved with convection by ``w``, and what else the model solves for.
    BDF2 sweeps once with the extrapolated ``convecting`` field; implicit
    Euler starts from it and repeats the sweep, each convected by the last,
    until the relative change in the ``mass`` norm reaches ``tolerance``;
    the module docstring says how the full-order model solves a sweep."""
    residuals = []
    while True:
        new, other = sweep(convecting)
        if integrator == "bdf2_semi_implicit":
            return new, other
        diff = new - convecting
        residuals.append(np.sqrt(max(float(diff @ (mass @ diff)), 0.0))
                         / np.sqrt(max(float(new @ (mass @ new)), 1e-300)))
        if residuals[-1] <= tolerance:
            return new, other
        if len(residuals) == max_iterations:
            raise NonlinearSolveError(
                f"Picard iteration did not reach {tolerance:.1e} in {max_iterations} "
                f"sweeps: last residuals [{', '.join(f'{v:.3e}' for v in residuals[-3:])}]",
                residuals)
        convecting = new


@dataclass(frozen=True)
class FlowCase:
    """Physical problem data: boundary values, forcing, pressure gauge.

    ``dirichlet`` maps boundary tag names to callables ``g(x, y, t)``
    returning the two velocity components; tags absent from the map keep
    their natural (do-nothing) condition. ``forcing`` is a
    :class:`SeparableForcing`, whose shapes the problem evaluates and
    assembles once, so that a reduced model projects its load at any time
    with one (r, Q) product, or ``None`` for an unforced flow; any other
    forcing is rejected. ``zero_mean_pressure`` selects the enclosed-flow
    pressure gauge (one pinned value during the solve, mean removed
    afterwards).
    """

    name: str
    dirichlet: dict = field(default_factory=dict)
    forcing: SeparableForcing = None
    zero_mean_pressure: bool = False

    def __post_init__(self):
        if not isinstance(self.forcing, (SeparableForcing, type(None))):
            raise ValueError("a flow case's forcing is a SeparableForcing or None, "
                             f"not a {type(self.forcing).__name__}")


@dataclass(frozen=True, eq=False)
class SeparableForcing:
    """Body force ``f(x, y, t) = scale * sum_q theta_q(t) g_q(x, y)``.

    ``shapes`` are the callables ``g_q(x, y)`` returning two components,
    ``coefficients(t)`` returns the Q time factors ``theta(t)``, of shape
    ``(Q,) + np.shape(t)`` for a time or an array of times, and ``scale``
    is a constant amplitude.
    """

    shapes: tuple
    coefficients: object
    scale: float = 1.0

    def combine(self, values, t):
        """The force at time t from the shapes' ``(gx, gy)`` ``values``."""
        fx = fy = 0.0
        for theta, (gx, gy) in zip(self.coefficients(t), values):
            fx = fx + theta * gx
            fy = fy + theta * gy
        return self.scale * fx, self.scale * fy


def _whole_steps(t, dt):
    """Whether ``t`` is a whole number of steps ``dt``, within ``_TIME_TOL``."""
    return abs(round(t / dt) * dt - t) <= _TIME_TOL


@dataclass(frozen=True)
class FOMConfig:
    """Numerical parameters of a full-order run.

    ``nonlinear_tolerance``, at least 4 eps, is the relative change between
    implicit-Euler Picard sweeps at which a step is accepted; the full-order
    model factors afresh when its factor would need more than
    ``_REFINEMENT_CAP`` corrections to reach it, as a correction's linear
    contraction shows (checked as :meth:`FOMProblem.correct` says).
    """

    scheme: str
    nu: float
    dt: float
    t_final: float
    stabilization: StabilizationConfig = StabilizationConfig()
    time_integrator: str = "bdf2_semi_implicit"
    nonlinear_tolerance: float = 1e-10
    nonlinear_max_iterations: int = 50
    snapshot_window: tuple[float, ...] = None
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.time_integrator not in TIME_INTEGRATORS:
            raise ValueError(
                f"unknown time integrator {self.time_integrator!r}; "
                f"expected one of {TIME_INTEGRATORS}"
            )
        if self.nu <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.t_final < self.dt - _TIME_TOL:
            raise ValueError("final time must allow at least one step")
        if not _whole_steps(self.t_final, self.dt):
            raise ValueError(f"final time {self.t_final} is not a whole number of "
                             f"steps of {self.dt}")
        if self.nonlinear_tolerance < _BACKWARD_ERROR or self.nonlinear_max_iterations < 1:
            raise ValueError("nonlinear solver parameters must be positive, tolerance >= 4 eps")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be at least 1")
        if self.snapshot_window is not None:
            if len(self.snapshot_window) != 2:
                raise ValueError("snapshot_window needs (t0, t1)")
            t0, t1 = self.snapshot_window
            if not (-_TIME_TOL <= t0 <= t1 <= self.t_final + _TIME_TOL):
                raise ValueError("snapshot window must lie inside [0, t_final]")

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


@dataclass
class FOMState:
    """One time level of a run, velocity and pressure coefficients, plus the
    history the integrator needs."""

    u: np.ndarray
    p: np.ndarray
    u_prev: np.ndarray
    t: float
    n: int
    residual: np.ndarray = None  # the step's momentum residual; None at t = 0 or unprobed


class FOMProblem:
    """Assembled operators and boundary bookkeeping for one mesh and case."""

    def __init__(self, mesh, config, case):
        self.mesh = mesh
        self.config = config
        self.case = case
        mesh_tags = set(mesh.boundary_edges.values())
        unknown = set(case.dirichlet) - mesh_tags
        if unknown:
            raise ValueError(f"dirichlet tags {sorted(unknown)} not present on this mesh")

        self.vel_space = FESpace(mesh, 2, components=2)
        pres_degree = 2 if config.scheme == "lps" else 1
        self.pres_space = FESpace(mesh, pres_degree, zero_mean=case.zero_mean_pressure)

        self.mass = assemble_mass(self.vel_space)
        self.stiffness = assemble_stiffness(self.vel_space)
        self.divergence = assemble_divergence(self.vel_space, self.pres_space)
        self.pressure_mass = assemble_mass(self.pres_space)
        # the stabilization and the static part of the velocity block
        # (everything but mass and convection)
        if config.scheme == "lps":
            lps = assemble_lps_matrices(self.vel_space, self.pres_space, config.stabilization)
            self.velocity_stabilization = lps.velocity
            self.pressure_stabilization = lps.pressure
            self.mu = 0.0
            self._static_velocity_block = config.nu * self.stiffness + lps.velocity
        else:
            self.velocity_stabilization = self.pressure_stabilization = None
            self.mu = config.stabilization.grad_div
            self._static_velocity_block = config.nu * self.stiffness + self.mu * self.grad_div

        n_scalar = self.vel_space.n_scalar
        constrained_scalar = (
            self.vel_space.boundary_scalar_dofs(sorted(case.dirichlet))
            if case.dirichlet
            else np.empty(0, dtype=np.int64)
        )
        self.constrained_velocity = np.concatenate(
            [constrained_scalar, n_scalar + constrained_scalar]
        ).astype(np.int64)
        self.free_velocity = np.setdiff1d(
            np.arange(self.vel_space.n_dofs), self.constrained_velocity
        )
        n_v = self.vel_space.n_dofs
        if case.zero_mean_pressure:
            pres_free = np.arange(1, self.pres_space.n_dofs)
            pres_pinned = np.array([0], dtype=np.int64)
        else:
            pres_free = np.arange(self.pres_space.n_dofs)
            pres_pinned = np.empty(0, dtype=np.int64)
        self.free_global = np.concatenate([self.free_velocity, n_v + pres_free])
        self.constrained_global = np.concatenate([self.constrained_velocity, n_v + pres_pinned])
        _release_static_caches(self.vel_space, self.pres_space)
        self._velocity_base = None, None  # (mass scale, values), see velocity_values

    @property
    def n_velocity(self):
        return self.vel_space.n_dofs

    @property
    def n_pressure(self):
        return self.pres_space.n_dofs

    @cached_property
    def _dirichlet_dofs(self):
        """{tag: (scalar DOFs, their x, their y)} of each Dirichlet tag."""
        coords, out = self.vel_space.dof_coords, {}
        for tag in self.case.dirichlet:
            dofs = self.vel_space.boundary_scalar_dofs(tag)
            out[tag] = dofs, coords[dofs, 0], coords[dofs, 1]
        return out

    def boundary_values(self, t):
        """Full-length velocity vector holding the prescribed boundary data."""
        g = np.zeros(self.n_velocity)
        n_scalar = self.vel_space.n_scalar
        for tag, fn in self.case.dirichlet.items():
            dofs, x, y = self._dirichlet_dofs[tag]
            gx, gy = fn(x, y, t)
            g[dofs] = np.broadcast_to(np.asarray(gx, dtype=float), x.shape)
            g[n_scalar + dofs] = np.broadcast_to(np.asarray(gy, dtype=float), x.shape)
        return g

    @cached_property
    def grad_div(self):
        """The unit grad-div matrix, ``mu`` times which the grad-div scheme
        adds to its velocity block; for the equal-order scheme it is
        assembled on first use, by the reduced models."""
        return assemble_grad_div(self.vel_space)

    @cached_property
    def divergence_t(self):
        """``divergence.T`` (CSC), the pressure gradient's -1 times."""
        return self.divergence.T

    @cached_property
    def _static_saddle(self):
        """The saddle matrix without convection at implicit Euler's mass scale."""
        return sp.bmat([[self.velocity_block(self.velocity_values(1.0 / self.config.dt)),
                         -self.divergence_t], [self.divergence, self.pressure_stabilization]],
                       format="csr")

    @cached_property
    def _shape_values(self):
        """Each forcing shape's ``(gx, gy)`` at the load's quadrature points."""
        x, y = _load_points(self.vel_space)
        return [shape(x, y) for shape in self.case.forcing.shapes]

    @cached_property
    def load_shapes(self):
        """(n, Q) loads of ``scale * g_q`` of the separable forcing, so that
        ``load_shapes @ coefficients(t)`` is its load at time t; None for an
        unforced problem. Assembled on first use, by the reduced models."""
        forcing = self.case.forcing
        if forcing is None:
            return None
        return forcing.scale * np.column_stack(
            [_integrate_load(self.vel_space, g) for g in self._shape_values])

    def load_vector(self, t):
        """Full-order load at time t: the kept shape values summed term by
        term with their time factors, then integrated, bit for bit
        ``assemble_load`` of that sum (``load_shapes @ coefficients(t)``
        would round differently)."""
        forcing = self.case.forcing
        if forcing is None:
            return np.zeros(self.n_velocity)
        return _integrate_load(self.vel_space, forcing.combine(self._shape_values, t))

    def remove_pressure_mean(self, p):
        mean = float(np.ones(self.n_pressure) @ (self.pressure_mass @ p)) / self.mesh.area
        return p - mean

    @cached_property
    def _saddle(self):
        return _SaddleLayout(self)

    def velocity_values(self, mass_scale, convection=None):
        """Values of the velocity block ``mass_scale * mass + static +
        convection`` on :meth:`velocity_block`'s pattern, where ``static``
        is the viscous and stabilization part and ``convection`` a matrix on
        the mass pattern, as :mod:`~podflow.assembly`'s convection kernels give.
        Each entry equals the one SciPy's sparse sum of the same matrices gives,
        bit for bit; an entry that sum drops is a stored zero here, and in the
        system. The part without convection is kept for the last mass scale."""
        layout = self._saddle
        if self._velocity_base[0] != mass_scale:
            base = np.zeros(layout.indices.size)
            base[layout.static_slots] = self._static_velocity_block.data
            base[layout.mass_slots] += mass_scale * self.mass.data
            self._velocity_base = mass_scale, base
        values = self._velocity_base[1].copy()
        if convection is not None:
            values[layout.mass_slots] += convection.data
        return values

    def velocity_block(self, values):
        """The velocity block with the given :meth:`velocity_values`."""
        layout = self._saddle
        return sp.csr_matrix((values, layout.indices, layout.indptr), shape=layout.shape)

    def solve_coupled(self, velocity_values, rhs_velocity, boundary, lagged):
        """Solve one saddle-point system with boundary elimination: the
        velocity block has :meth:`velocity_values`, and ``boundary`` is
        :meth:`boundary_values` at the new time. ``lagged`` is a run's
        holder of its factor and last solution, which
        :meth:`_SaddleLayout.solve` solves from and renews."""
        layout = self._saddle
        rhs = np.concatenate([rhs_velocity, np.zeros(self.n_pressure)])
        values = np.concatenate([boundary, np.zeros(self.n_pressure)])
        free, fixed = self.free_global, self.constrained_global
        reduced_rhs = rhs[free]
        if fixed.size:
            reduced_rhs = reduced_rhs - layout.lifting(velocity_values) @ values[fixed]
        solution = layout.solve(velocity_values, reduced_rhs, lagged)
        if not np.all(np.isfinite(solution)):
            raise RuntimeError("singular or badly scaled coupled system")
        values[free] = solution
        return self._split(values)

    def correct(self, w, rhs_velocity, boundary, lagged):
        """One chord correction x += lu⁻¹ r of the Picard sweep convected by
        ``w`` against ``lagged``'s factor, from x = (``w`` free, ``boundary``,
        the last pressure), r = rhs - S x - [C(w) u; 0] on the free DOFs.
        Returns u, p and the action C(w), or None and empties ``lagged`` when r
        shrinks by less than a rate that reaches ``nonlinear_tolerance`` in
        ``_REFINEMENT_CAP``, measured from the sweep's own start: a far-off
        start may pass one poor correction and renew the factor a sweep late.

        The check forms r again after the solve. It is made on the first two
        corrections after a step's start, a renewal or an assembled sweep,
        and on a later one only when r did not shrink by that rate since the
        last correction's r; ``lagged`` keeps the sizes of the last two r
        after its factor and solution."""
        rate = self.config.nonlinear_tolerance ** (1.0 / _REFINEMENT_CAP)
        static, convect = self._static_saddle, convection_action(self.vel_space, w)
        pick, zero = self._saddle.pick, np.zeros(self.n_pressure)
        rhs, x = np.concatenate([rhs_velocity, zero]), np.concatenate([boundary, zero])
        x[pick] = lagged[1]
        x[self.free_velocity] = w[self.free_velocity]

        def residual():
            return (rhs - static @ x - np.concatenate([convect(x[:w.size]), zero]))[pick]
        r = residual()
        size = np.abs(r).max()
        x[pick] += lagged[0].solve(r)
        if ((len(lagged) < 4 or not size <= rate * lagged[3])
                and not np.abs(residual()).max() <= rate * size):
            lagged.clear()  # a miss, or a result that is not finite
            return None
        lagged[1:] = [x[pick], *lagged[2:][-1:], size]
        return *self._split(x), convect

    def _split(self, x):
        """Velocity and (gauged) pressure of a full solution vector."""
        p = x[self.n_velocity :]
        if self.case.zero_mean_pressure:
            p = self.remove_pressure_mean(p)
        return x[: self.n_velocity], p


def _pattern(matrix):
    """``matrix``'s pattern with unit values, which no sum cancels."""
    return sp.csr_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr),
                         shape=matrix.shape)


def _slots(pattern, matrix):
    """Positions of ``matrix``'s entries in the canonical CSR ``pattern``,
    which holds them all."""
    def keys(a):
        rows = np.repeat(np.arange(a.shape[0], dtype=np.int64), np.diff(a.indptr))
        return rows * a.shape[1] + a.indices
    return np.searchsorted(keys(pattern), keys(matrix)).astype(np.int32)


def _take_positions(matrix, n_outer, n_inner):
    """Where the leading ``n_outer`` x ``n_inner`` block of the compressed
    ``matrix`` stores its entries, which hold velocity pattern positions
    + 1: returns those places and positions, and zeroes the entries."""
    slots = np.flatnonzero(matrix.indices[:matrix.indptr[n_outer]] < n_inner).astype(np.int32)
    source = (matrix.data[slots] - 1.0).astype(np.int32)
    matrix.data[slots] = 0.0
    return slots, source


class _SaddleLayout:
    """The structures of one problem's saddle-point solves that only the
    velocity block's values change, built once.

    The velocity block's CSR pattern (``indices``, ``indptr``) is the union
    of the mass and the static (viscous and stabilization) blocks, and
    convection shares the mass pattern; ``mass_slots`` and ``static_slots``
    place those blocks' values in it. The free x free system in CSC and the
    free x fixed lifting in CSR hold -Bᵀ, B and the pressure stabilization
    in place; ``*_slots`` are the places of their velocity entries,
    ``*_source`` those entries' positions in the velocity pattern. Both are
    stacked from the blocks cut to the free and fixed DOFs, with the
    positions + 1 as the velocity values, so their entries are ordered as
    ``sp.bmat`` of the whole system cut by fancy indexing orders them.
    """

    def __init__(self, problem):
        static = problem._static_velocity_block
        pattern = _pattern(problem.mass) + _pattern(static)
        self.shape, self.indices, self.indptr = pattern.shape, pattern.indices, pattern.indptr
        self.mass_slots = _slots(pattern, problem.mass)
        self.static_slots = _slots(pattern, static)
        pattern.data = np.arange(1.0, pattern.nnz + 1.0)

        n_v = problem.n_velocity
        free_v, fixed_v = problem.free_velocity, problem.constrained_velocity
        free_p = problem.free_global[free_v.size:] - n_v
        fixed_p = problem.constrained_global[fixed_v.size:] - n_v
        div, stab = problem.divergence, problem.pressure_stabilization

        def cut(cols_v, cols_p, fmt):
            return sp.bmat([[pattern[free_v][:, cols_v], -div[cols_p][:, free_v].T],
                            [div[free_p][:, cols_v],
                             None if stab is None else stab[free_p][:, cols_p]]], format=fmt)

        self._system = cut(free_v, free_p, "csc")
        self.system_slots, self.system_source = _take_positions(
            self._system, free_v.size, free_v.size)
        self._lifting = cut(fixed_v, fixed_p, "csr")
        self.lifting_slots, self.lifting_source = _take_positions(
            self._lifting, free_v.size, fixed_v.size)
        self._order, self.pick = None, problem.free_global  # both set by the first solve
        self._refines = problem.config.time_integrator == "implicit_euler"  # see _factor

    def lifting(self, values):
        """The free x fixed block with the velocity ``values``; an entry that
        is zero adds nothing to a product with finite boundary data."""
        self._lifting.data[self.lifting_slots] = values[self.lifting_source]
        return self._lifting

    def solve(self, values, rhs, lagged):
        """Solve the system with the velocity ``values`` for ``rhs``. The
        first solve is bit for bit ``splu`` of the stored system in the
        original order: it factors with COLAMD and relabels the system by
        that order, and later factors (:meth:`_factor`) take it as stored.
        An exactly-zero velocity entry stays in the pattern, so the factor is
        of that same matrix.

        ``lagged`` holds a run's one factor and the last solution, in the
        relabelled order, then the sizes of the last corrections' residuals
        (:meth:`FOMProblem.correct`), or is empty. The solve refines from
        them to 4 eps (:func:`_refined`); if the holder is empty or
        refinement misses, it factors afresh and keeps that factor. Either
        way it keeps its solution and drops the residual sizes, so the next
        two corrections check their contraction. The first (ordering) solve
        stores nothing."""
        import scipy.sparse.linalg as spla  # slow to import, and set-up never calls this
        self._system.data[self.system_slots] = values[self.system_source]
        if self._order is None:
            # not kept: it factors step 1's first sweep, whose extrapolated
            # start is zero from rest (a Stokes system); as the run's lagged
            # factor it raised the holed channel's Picard sweeps 207 -> 286
            lu = spla.splu(self._system)
            x, perm_c = lu.solve(rhs), lu.perm_c.copy()
            del lu  # free the factor before the relabelled copy is made
            self._relabel(perm_c)
            return x
        b = rhs[self._order]
        y = _refined(self._system, lagged[0], lagged[1], b) if lagged else None
        if y is None:
            lagged.clear()  # one factor at a time
            lagged.append(self._factor(spla))
            y = lagged[0].solve(b)
        lagged[1:] = [y]
        return y[self._labels]

    def _factor(self, spla):
        """A fresh factor of the stored system: ``splu``'s in the first
        solve's order for BDF2, which keeps each solution as solved, and
        for implicit Euler, whose solutions are refined, the module
        docstring's symmetric one, or BDF2's if SuperLU finds it singular."""
        if self._refines:
            try:
                return spla.splu(self._system, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.01, options={"SymmetricMode": True})
            except RuntimeError:  # "Factor is exactly singular"
                pass
        return spla.splu(self._system, permc_spec="NATURAL")

    def _relabel(self, perm_c):
        """Rename row and column i of the system ``perm_c[i]``: the natural
        order is then SuperLU's, the diagonal its pivoting prefers is kept,
        and so is each column's entry sequence, which its pivot search also
        follows and which the canonical flag keeps ``splu`` from sorting."""
        a = self._system
        order = np.argsort(perm_c).astype(perm_c.dtype)
        counts = np.diff(a.indptr)[order]
        indptr = np.zeros_like(a.indptr)
        np.cumsum(counts, out=indptr[1:])
        # the old position of each entry, columns in ``order``
        moved = (np.repeat(a.indptr[order] - indptr[:-1], counts)
                 + np.arange(indptr[-1], dtype=indptr.dtype))
        place = np.empty_like(moved)
        place[moved] = np.arange(moved.size, dtype=moved.dtype)
        self.system_slots = place[self.system_slots]
        self._system = sp.csc_matrix((a.data[moved], perm_c[a.indices[moved]], indptr),
                                     shape=a.shape)
        self._system.has_canonical_format = True
        self._order, self._labels = order, perm_c
        self.pick = self.pick[order]  # each relabelled DOF's place in a whole vector


def _refined(a, lu, x, b):
    """The solution of ``a x = b`` by iterative refinement with ``lu``, the
    factor of a nearby system, from the guess ``x``: x += lu⁻¹ (b - a x)
    until the residual's infinity norm is at most 4 eps (‖a‖ ‖x‖ + ‖b‖),
    or None when ``_REFINEMENT_CAP`` corrections do not get there."""
    a_norm = np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max()
    b_norm = np.abs(b).max()
    x = x + lu.solve(b - a @ x)
    for _ in range(_REFINEMENT_CAP):
        r = b - a @ x
        if np.abs(r).max() <= _BACKWARD_ERROR * (a_norm * np.abs(x).max() + b_norm):
            return x
        x += lu.solve(r)
    return None


def _step(problem, state, lagged, with_residual):
    """One step of the configured integrator (see :func:`solve_step`), whose
    sweeps solve with the run's holder ``lagged``; implicit Euler solves the
    accepted sweep's system, assembled or its correction's, again to 4 eps.
    The momentum residual is formed only ``with_residual``."""
    cfg = problem.config
    t_new = state.t + cfg.dt
    alpha, history, convecting = time_terms(cfg.time_integrator, state.u, state.u_prev, cfg.dt)
    rhs = problem.mass @ history + problem.load_vector(t_new)
    boundary = problem.boundary_values(t_new)
    implicit = cfg.time_integrator != "bdf2_semi_implicit"
    if not implicit:
        lagged.clear()  # bit for bit splu: a lagged factor moves cavity's indicators by 3e-8

    def sweep(w):  # BDF2 cleared ``lagged``: it never corrects; each returns its system
        if lagged and (solved := problem.correct(w, rhs, boundary, lagged)):
            u, p, action = solved
            return u, (p, lambda: problem.velocity_values(alpha / cfg.dt, action.matrix()))
        values = problem.velocity_values(alpha / cfg.dt, convection_matrix(problem.vel_space, w))
        u, p = problem.solve_coupled(values, rhs, boundary, lagged)
        return u, (p, lambda: values)

    try:
        u, (p, system) = solve_step(cfg.time_integrator, sweep, convecting, problem.mass,
                                    cfg.nonlinear_tolerance, cfg.nonlinear_max_iterations)
    except NonlinearSolveError as exc:
        raise NonlinearSolveError(f"at t={t_new:.6g}: {exc}", exc.residual_history) from exc
    values = system()
    if implicit:
        u, p = problem.solve_coupled(values, rhs, boundary, lagged)
    residual = None
    if with_residual:
        residual = problem.velocity_block(values) @ u - problem.divergence_t @ p - rhs
    return FOMState(u=u, p=p, u_prev=state.u.copy(), t=t_new, n=state.n + 1,
                    residual=residual)


def initial_state(problem, initial_velocity=None):
    """State at t = 0 from the coefficients ``initial_velocity``; the
    default is the impulsive (zero-velocity) start."""
    if initial_velocity is None:
        u0 = np.zeros(problem.n_velocity)
    else:
        u0 = np.array(initial_velocity, dtype=float)
        if u0.shape != (problem.n_velocity,):
            raise ValueError("initial velocity has the wrong length")
    return FOMState(u=u0, p=np.zeros(problem.n_pressure), u_prev=u0.copy(), t=0.0, n=0)


@dataclass
class FOMRun:
    """Recorded output of a full-order integration. ``snapshots`` holds the
    velocity and pressure states the snapshot window records, as computed;
    both sets are empty without a window."""

    problem: FOMProblem
    times: np.ndarray
    qoi: np.ndarray  # columns: t, E_kin, c_D, c_L, weak_div
    snapshots: tuple[SnapshotSet, SnapshotSet]
    final_state: FOMState = None


def snapshot_steps(config):
    """Step indices (0 = initial state) recorded by the snapshot window.

    Eligible indices are those whose time k*dt lies inside the window; the
    stride then keeps every stride-th eligible index starting from the
    first, so the count is the ceiling of eligible/stride.
    """
    if config.snapshot_window is None:
        return np.empty(0, dtype=np.int64)
    t0, t1 = config.snapshot_window
    k = np.arange(config.n_steps + 1)
    times = k * config.dt
    eligible = k[(times >= t0 - _TIME_TOL) & (times <= t1 + _TIME_TOL)]
    return eligible[:: config.snapshot_stride]


def run_fom(problem, initial_velocity=None, probe=None):
    """Integrate the configured scheme and record QoIs and snapshots; a
    :class:`~podflow.metrics.DragLiftProbe` tests each step's residual.
    The steps share one holder of a lagged factor (see
    :meth:`_SaddleLayout.solve`), emptied on return, so no factor outlives
    the run."""
    cfg = problem.config
    state = initial_state(problem, initial_velocity)
    recorded = set(snapshot_steps(cfg).tolist())

    times = []
    qoi_rows = []
    snap_times, snap_u, snap_p = [], [], []

    def maybe_snapshot(st):
        if st.n in recorded:
            snap_times.append(st.t)
            snap_u.append(st.u.copy())
            snap_p.append(st.p.copy())

    maybe_snapshot(state)
    lagged = []
    try:
        for _ in range(cfg.n_steps):
            state = _step(problem, state, lagged, probe is not None)
            times.append(state.t)
            c_d = c_l = np.nan
            if probe is not None:
                c_d, c_l = probe.coefficients(probe.fields.T @ state.residual)
            qoi_rows.append(
                (
                    state.t,
                    kinetic_energy(state.u, problem.mass),
                    c_d,
                    c_l,
                    weak_divergence(state.u, problem.divergence, problem.pressure_mass),
                )
            )
            maybe_snapshot(state)
    finally:
        lagged.clear()

    snapshots = tuple(
        SnapshotSet(space.signature(), np.array(snap_times),
                    np.array(states).T if states else np.empty((space.n_dofs, 0)))
        for space, states in ((problem.vel_space, snap_u), (problem.pres_space, snap_p)))
    return FOMRun(
        problem=problem,
        times=np.array(times),
        qoi=np.array(qoi_rows),
        snapshots=snapshots,
        final_state=state,
    )


@dataclass
class SnapshotSet:
    """A time-stamped collection of coefficient fields from one space."""

    space_signature: str
    times: np.ndarray
    fields: np.ndarray  # (n_dofs, M)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.ndim != 2 or self.fields.shape[1] != self.times.size:
            raise ValueError("snapshot array must be (n_dofs, M) matching the times")

    @property
    def n_snapshots(self):
        return int(self.times.size)


def save_snapshots(snapshots, path):
    """Write a snapshot set and its space signature as a binary container."""
    write_container(path, "snapshots", {"signature": snapshots.space_signature},
                    {"times": snapshots.times, "fields": snapshots.fields})


def load_snapshots(path, expected_signature=None):
    """Read a :func:`save_snapshots` container, fields column-major as recorded."""
    meta, arrays = read_container(path, "snapshots", expected_signature)
    return SnapshotSet(meta["signature"], arrays["times"], np.asfortranarray(arrays["fields"]))

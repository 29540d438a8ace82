"""Reduced-order flow models built by Galerkin projection onto POD modes.

The equal-order scheme keeps a coupled reduced velocity-pressure system with
its fluctuation stabilization; the divergence-stable scheme integrates a
velocity-only system with a grad-div term whose coefficient can adapt in
time against a reference energy table, and recovers pressure afterwards
through supremizer test functions.

A :class:`ROMOperators` set is the whole reduced model: it carries the
full-order configuration it was built from, its projected load and, for the
divergence-stable scheme, its supremizer :class:`PressureRecovery`, so a
run takes only the start state, the time origin and the grad-div coefficient.
The model's forms, the recovery's and those a drag/lift probe tests are
projections of the same trial functions against different test functions,
made in one pass over the trial functions: the POD modes, preceded for a
centred basis by the snapshot mean, whose coefficient is fixed at 1.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .assembly import StabilizationConfig, convection_action
from .container import ContainerError, read_container, write_container
from .fom import FOMConfig, solve_step, time_terms


@dataclass(frozen=True)
class AdaptiveMuConfig:
    """Update rule parameters for the in-time grad-div coefficient.

    Every ``frequency`` steps the reduced kinetic energy is compared with a
    periodic reference table; a mismatch beyond ``tolerance`` moves the
    coefficient by ``delta`` toward the reference, never below ``mu_min``.
    """

    frequency: int = 5
    delta: float = 0.1
    tolerance: float = 1e-3
    mu_min: float = 0.1

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("update frequency must be a positive step count")
        if self.delta <= 0.0:
            raise ValueError("coefficient increment must be positive")
        if self.tolerance <= 0.0:
            raise ValueError("energy tolerance must be positive")
        if self.mu_min <= 0.0:
            raise ValueError("coefficient floor must be positive")


@dataclass
class ROMOperators:
    """Assembled operators projected onto the leading modes, stepped with
    the viscosity, step, integrator and Picard settings of ``fom``.

    The velocity forms test the momentum residual against the columns of
    ``test``: the modes themselves for the reduced model, the supremizers
    for :class:`PressureRecovery`, the probe fields for ``drag_lift``.
    Their trial axis runs over the trial set: the mean first for a centred
    basis (``lift`` 1), then the ``r`` modes of ``vel_modes``.
    ``convection_tensor[i, j, k]`` is the trilinear form with trial
    function ``i`` convecting trial function ``j``, tested by test function
    ``k``. Pressure-side blocks are ``None`` for the velocity-only scheme.
    ``forcing_modes`` holds the projected loads of the shapes of
    ``forcing``, the problem's :class:`SeparableForcing`; both are ``None``
    for an unforced problem, and a loaded set keeps only the former.
    ``recovery`` is the velocity-only scheme's supremizer
    :class:`PressureRecovery` at the same sizes, or ``None``; ``drag_lift``
    holds the same velocity forms tested by the fields of a drag/lift
    probe, or ``None``. Neither is saved.
    """

    fom: FOMConfig
    r: int
    mass: np.ndarray
    stiffness: np.ndarray
    grad_div: np.ndarray
    lps_velocity: np.ndarray
    convection_tensor: np.ndarray
    mean_energy: float
    vel_modes: np.ndarray
    mean: np.ndarray = None
    divergence: np.ndarray = None
    lps_pressure: np.ndarray = None
    pres_modes: np.ndarray = None
    vel_space: object = None
    forcing_modes: np.ndarray = None
    forcing: object = None
    test: np.ndarray = None
    recovery: object = None
    drag_lift: object = None

    @property
    def scheme(self):
        return self.fom.scheme

    @property
    def r_pressure(self):
        return None if self.divergence is None else int(self.divergence.shape[0])

    @property
    def lift(self):
        """1 when the trial set starts with the mean of a centred basis, else 0."""
        return self.stiffness.shape[1] - self.r


# Axes of each array field of ROMOperators: r = trial set (the mean of a
# centred basis, then the velocity modes), m = velocity modes, t = test
# functions, p = pressure modes, n = full-order DOFs, q = separable forcing
# terms. Truncation slices the r, m, t and p axes; only arrays without an n
# axis are saved, so a loaded set has no modes, mean or test functions.
_OPERATOR_AXES = {
    "mass": "tr",
    "stiffness": "tr",
    "grad_div": "tr",
    "lps_velocity": "tr",
    "convection_tensor": "rrt",
    "vel_modes": "nm",
    "mean": "n",
    "test": "nt",
    "divergence": "pr",
    "lps_pressure": "pp",
    "pres_modes": "np",
    "forcing_modes": "tq",
}


def _leading_blocks(ops, r, t, p):
    """``ops`` cut to the mean and its leading ``r`` modes, ``t`` test
    functions and ``p`` pressure modes (all for None), without reassembly."""
    sizes = {"r": r + ops.lift, "m": r, "t": t, "p": p}
    cut = {}
    for name, axes in _OPERATOR_AXES.items():
        a = getattr(ops, name)
        cut[name] = None if a is None else a[tuple(slice(sizes.get(x)) for x in axes)]
    return replace(ops, r=r, **cut)


def _trial_set(phi, mean):
    """The trial functions as columns: ``mean`` (None for an uncentred
    basis) first, then the modes ``phi``."""
    return phi if mean is None else np.column_stack([mean, phi])


def _project(problem, phi, mean, tests):
    """Galerkin projection of the momentum residual's velocity forms.

    The trial functions are those of :func:`_trial_set`: the modes
    ``phi``, preceded by the mean of a centred basis (None for an
    uncentred one). Each entry of ``tests`` is a matrix whose columns are
    test functions. One pass over the trial functions makes each operator
    product and convection matrix and tests it against every matrix before
    the next. Returns one ROMOperators without pressure blocks per test
    matrix; a form whose operator the problem lacks is zero.
    """
    shapes = problem.load_shapes
    space = problem.vel_space
    trial = _trial_set(phi, mean)
    n = trial.shape[1]
    forms = [{"convection_tensor": np.empty((n, n, test.shape[1]))} for test in tests]
    for name, matrix in (("mass", problem.mass), ("stiffness", problem.stiffness),
                         ("grad_div", problem.grad_div),
                         ("lps_velocity", problem.velocity_stabilization)):
        if matrix is not None:
            product = matrix @ trial
            for f, test in zip(forms, tests):
                f[name] = test.T @ product
    for i, w in enumerate(trial.T):
        by_trial = convection_action(space, w).matrix() @ trial
        for f, test in zip(forms, tests):
            f["convection_tensor"][i] = (test.T @ by_trial).T

    mean_energy = 0.0 if mean is None else float(mean @ (problem.mass @ mean))
    out = []
    for f, test in zip(forms, tests):
        sizes = {"r": n, "t": test.shape[1]}
        f.update({name: np.zeros([sizes[x] for x in axes])
                  for name, axes in _OPERATOR_AXES.items()
                  if name not in f and set(axes) <= set(sizes)})
        out.append(ROMOperators(
            fom=problem.config,
            r=phi.shape[1],
            mean_energy=mean_energy,
            vel_modes=phi,
            mean=None if mean is None else np.asarray(mean, dtype=float),
            test=test,
            vel_space=space,
            forcing_modes=None if shapes is None else test.T @ shapes,
            forcing=problem.case.forcing,
            **f,
        ))
    return out


def build_rom_operators(problem, vel_basis, pres_basis=None, r=None,
                        r_pressure=None, drag_lift=None):
    """Project the problem's operators onto the first ``r`` velocity modes
    and ``r_pressure`` pressure modes (every mode of a basis for None).

    The equal-order scheme requires a pressure basis for its coupled
    system. The velocity-only scheme recovers pressure through supremizers
    instead: with a pressure basis, its ``recovery`` tests against the
    supremizers of the first ``r_pressure`` pressure modes (None when none
    survive). ``drag_lift`` is the fields of a
    :class:`~podflow.metrics.DragLiftProbe`, or None; the set's
    ``drag_lift`` then holds the forms they test. One :func:`_project` pass
    builds the model's forms, the recovery's and the drag/lift forms.
    """
    if vel_basis.space_signature != problem.vel_space.signature():
        raise ValueError("velocity basis was built on a different space")
    r = vel_basis.rank if r is None else int(r)
    if not 1 <= r <= vel_basis.rank:
        raise ValueError(f"requested r={r} outside 1..{vel_basis.rank}")
    phi, mean = vel_basis.modes[:, :r], vel_basis.mean
    psi = z = None
    if pres_basis is not None:
        if pres_basis.space_signature != problem.pres_space.signature():
            raise ValueError("pressure basis was built on a different space")
        rp = pres_basis.rank if r_pressure is None else int(r_pressure)
        if not 1 <= rp <= pres_basis.rank:
            raise ValueError(f"requested pressure size {rp} outside 1..{pres_basis.rank}")
        psi = pres_basis.modes[:, :rp]
        if problem.config.scheme != "lps":
            z = compute_supremizers(problem, psi)
    elif problem.config.scheme == "lps":
        raise ValueError("the equal-order reduced system needs a pressure basis")

    tests = {"model": phi, "recovery": z, "drag_lift": drag_lift}
    tests = {k: v for k, v in tests.items() if v is not None and v.shape[1]}
    forms = dict(zip(tests, _project(problem, phi, mean, list(tests.values()))))
    ops = forms["model"]
    ops.drag_lift = forms.get("drag_lift")
    if problem.config.scheme == "lps":
        ops.divergence = psi.T @ (problem.divergence @ _trial_set(phi, mean))
        ops.lps_pressure = psi.T @ (problem.pressure_stabilization @ psi)
        ops.pres_modes = psi
    elif "recovery" in forms:
        psi = psi[:, :z.shape[1]]
        ops.recovery = PressureRecovery(replace(forms["recovery"], pres_modes=psi),
                                        (psi.T @ (problem.divergence @ z)).T)
    return ops


def truncate_operators(ops, r, r_pressure):
    """Restrict operators to a smaller leading block without reassembly.

    ``r_pressure`` cuts the coupled scheme's pressure modes, or the
    recovery's pressure modes and supremizers; a recovery with fewer
    supremizers than ``r_pressure`` becomes None. The drag/lift forms keep
    both probe fields.
    """
    if not 1 <= r <= ops.r:
        raise ValueError(f"truncation size {r} outside 1..{ops.r}")
    r, rp = int(r), int(r_pressure)
    if rp < 1:
        raise ValueError(f"pressure truncation {rp} is below 1")
    if ops.divergence is not None and rp > ops.r_pressure:
        raise ValueError(f"pressure truncation {rp} outside 1..{ops.r_pressure}")
    recovery, drag_lift = ops.recovery, ops.drag_lift
    if recovery is not None:
        recovery = None if rp > recovery.coupling.shape[0] else PressureRecovery(
            _leading_blocks(recovery.operators, r, rp, rp), recovery.coupling[:rp, :rp])
    if drag_lift is not None:
        drag_lift = _leading_blocks(drag_lift, r, None, None)
    return replace(_leading_blocks(ops, r, r, rp), recovery=recovery, drag_lift=drag_lift)


def rom_kinetic_energy(ops, a, factor=None):
    """Kinetic energy of the reconstructed field, per column of a 2-D ``a``;
    for a centred set ½‖R u‖² of the lifted u, R its :func:`_energy_factor` or ``factor``."""
    a = np.asarray(a, dtype=float)
    if not ops.lift:
        return 0.5 * np.einsum("i...,i...->...", a, ops.mass @ a)
    y = (_energy_factor(ops) if factor is None else factor) @ _lifted(ops, a)
    return 0.5 * np.einsum("i...,i...->...", y, y)


def _energy_factor(ops):
    """R with RᵀR the Gram matrix [mean | φ]ᵀ M [mean | φ] of a centred set,
    an eigenvalue that rounding puts below zero taken as zero: ‖R u‖² ≥ 0."""
    mass, lift = _split(ops, ops.mass)
    values, vectors = np.linalg.eigh(np.block([[ops.mean_energy, lift], [lift[:, None], mass]]))
    return np.sqrt(np.maximum(values, 0.0))[:, None] * vectors.T


def reduce_forcing(ops, t):
    """The problem's load at time ``t`` tested by the test functions of
    ``ops`` (the velocity modes, or the supremizers of a recovery): one
    (t, Q) product of the projected shapes and the time factors, a column per
    time of an array ``t``; None for an unforced problem."""
    if ops.forcing_modes is None:
        return None
    if ops.forcing is None:
        raise ValueError(
            "this operator set has forcing modes but no time factors (it was "
            "loaded from a container), so its load cannot be evaluated")
    # column-major, as per-time factors stacked a column per time are: with
    # one mode the product's rounding follows the operands' layout
    return ops.forcing_modes @ np.asfortranarray(ops.forcing.coefficients(t))


def _lifted(ops, a):
    """The trial coefficients of ``a``: the mean's fixed 1 first, if any."""
    return np.concatenate((np.ones((1,) + a.shape[1:]), a)) if ops.lift else a


def _split(ops, form):
    """``form``'s columns of the modes, and its column of the mean (or zeros)."""
    return (form[:, 1:], form[:, 0]) if ops.lift else (form, np.zeros(len(form)))


class ReducedStepper:
    """What the steps of a run of ``ops`` at the grad-div coefficient ``mu``
    share (see :func:`step_rom`): the velocity forms without convection,
    summed once per time-term coefficient, and the convection tensor as a
    (trial, trial · test) matrix, both transposed so one product adds a
    sweep's convection; and the system, whose coupled pressure blocks are
    placed once, so a sweep writes only its velocity block."""

    def __init__(self, ops, mu=0.0):
        from scipy.linalg.lapack import dgesv  # slow to import, and set-up never calls this
        self.ops, self.mu, self._gesv = ops, float(mu), dgesv
        self.mass = _split(ops, ops.mass)[0]
        self._convection = ops.convection_tensor.reshape(len(ops.convection_tensor), -1)
        self._static = {}
        if ops.divergence is not None:
            divergence, lift = _split(ops, ops.divergence)
            r, size = ops.r, ops.r + ops.r_pressure
            self._system, self._rhs = np.zeros((size, size), order="F"), np.zeros(size)
            self._system[:r, r:], self._system[r:, :r] = -divergence.T, divergence
            self._system[r:, r:], self._rhs[r:] = ops.lps_pressure, -lift

    def forms(self, alpha, w):
        """The velocity forms of a step, transposed: the time term ``alpha /
        dt`` on the modes (the mean's cancels against its history),
        viscosity, stabilization, grad-div and convection by the modes ``w``."""
        static = self._static.get(alpha)
        if static is None:
            ops = self.ops
            time_term = (alpha / ops.fom.dt) * ops.mass
            time_term[:, :ops.lift] = 0.0
            static = (time_term + ops.fom.nu * ops.stiffness + ops.lps_velocity
                      + self.mu * ops.grad_div)
            static = self._static[alpha] = np.ascontiguousarray(static.T)
        return static + (_lifted(self.ops, w) @ self._convection).reshape(static.shape)

    def solve(self, forms, rhs):
        """The velocity coefficients, and the coupled scheme's pressure ones,
        of a sweep with the transposed ``forms`` and velocity load ``rhs``."""
        r, lift = self.ops.r, self.ops.lift
        system = forms[lift:].T
        if lift:
            rhs = rhs - forms[0]
        if self.ops.divergence is not None:
            self._system[:r, :r], self._rhs[:r] = system, rhs
            system, rhs = self._system, self._rhs
        x, info = self._gesv(system, rhs)[2:]
        if info > 0:
            raise RuntimeError(f"reduced system of {r} velocity and {self.ops.r_pressure or 0}"
                               " pressure modes is singular")
        if not np.isfinite(x).all():
            raise RuntimeError("reduced solve produced non-finite values")
        return x[:r], None if self.ops.divergence is None else x[r:]


def step_rom(stepper, a_now, a_prev, forcing=None):
    """One step of the full-order integrator with its time terms and sweeps
    (:func:`~podflow.fom.solve_step`) on the :class:`ReducedStepper`
    ``stepper``; ``forcing`` is the reduced load of the new level.

    Returns the new velocity coefficients and, for the coupled scheme, the
    pressure coefficients of the same time level.
    """
    fom = stepper.ops.fom
    alpha, history, convecting = time_terms(fom.time_integrator, np.asarray(a_now, dtype=float),
                                            np.asarray(a_prev, dtype=float), fom.dt)
    rhs = stepper.mass @ history
    if forcing is not None:
        rhs = rhs + forcing
    return solve_step(fom.time_integrator, lambda w: stepper.solve(stepper.forms(alpha, w), rhs),
                      convecting, stepper.mass, fom.nonlinear_tolerance,
                      fom.nonlinear_max_iterations)


def step_residuals(ops, a_traj, mu, times):
    """Pressure-free momentum residuals, tested by ``ops.test``, of the steps
    that produced the columns of ``a_traj`` at ``times`` (the first on equal
    levels, as in :func:`run_rom`); column 0 is the start at rest. ``mu`` is
    one value or one per column."""
    integrator, dt = ops.fom.time_integrator, ops.fom.dt
    a_traj = np.asarray(a_traj, dtype=float)
    mu = np.broadcast_to(mu, a_traj.shape[1:])
    mass, _ = _split(ops, ops.mass)
    steppers = functools.cache(functools.partial(ReducedStepper, ops))  # one per μ
    out = np.empty((mass.shape[0], a_traj.shape[1]))
    for n, a in enumerate(a_traj.T):
        alpha, history, convecting = 0.0, np.zeros_like(a), a
        if n > 0:
            alpha, history, convecting = time_terms(
                integrator, a_traj[:, n - 1], a_traj[:, max(n - 2, 0)], dt)
        if integrator != "bdf2_semi_implicit":  # Picard converged on the new level
            convecting = a
        out[:, n] = steppers(mu[n]).forms(alpha, convecting).T @ _lifted(ops, a) - mass @ history
    return out if ops.forcing_modes is None else out - reduce_forcing(ops, times)


def energy_mismatch(rom_energy, fom_energy_table, step_index):
    """Energy difference against the periodic reference at this step.

    The table holds one period of full-order energies at steps ``1..M``;
    step ``n`` compares against entry ``n mod M`` with ``0`` meaning ``M``,
    elementwise for arrays of energies and steps.
    """
    table = np.asarray(fom_energy_table, dtype=float)
    if table.size == 0:
        raise ValueError("reference energy table is empty")
    return rom_energy - table[(step_index - 1) % table.size]


def adapt_mu(mu, rom_energy, fom_energy_table, config, step_index):
    """Grad-div coefficient update at one step of the reduced integration.

    Returns the (possibly unchanged) coefficient and whether the step must
    be recomputed with it. Updates happen only at multiples of the
    configured frequency: too much reduced energy raises the coefficient by
    ``delta``, too little lowers it, and the floor ``mu_min`` always wins.
    """
    mu = float(mu)
    if step_index % config.frequency != 0:
        return mu, False
    e_diff = energy_mismatch(rom_energy, fom_energy_table, step_index)
    if e_diff > config.tolerance:
        mu_new = max(config.mu_min, mu + config.delta)
    elif e_diff < -config.tolerance:
        mu_new = max(config.mu_min, mu - config.delta)
    else:
        mu_new = mu
    return mu_new, mu_new != mu


@dataclass
class ROMRun:
    """Trajectory of one reduced integration."""

    times: np.ndarray
    a_traj: np.ndarray
    b_traj: np.ndarray  # None for the velocity-only scheme
    mu_traj: np.ndarray
    e_diff_traj: np.ndarray  # nan where no reference table applies
    energy_traj: np.ndarray


def run_rom(ops, n_steps, a0, *, a_prev=None, t_start=0.0, mu=0.0, adaptive=None,
            fom_energy_table=None):
    """Integrate the reduced model over ``n_steps`` steps of :func:`step_rom`,
    forced by the problem's load, with one :class:`ReducedStepper` per
    grad-div coefficient the run takes.

    ``a0`` is the state at ``t_start``; ``a_prev`` optionally supplies the
    previous level so the two-step formula starts from genuine history.
    Without it the first BDF2 step runs on equal history levels: its time
    derivative is ``1.5 (a_1 - a_0) / dt`` and its convecting field ``a_0``.
    With ``adaptive`` and ``fom_energy_table`` given, the grad-div
    coefficient follows the update rule, re-stepping once whenever it
    changes; each accepted step records the energy mismatch.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if adaptive is not None:
        if fom_energy_table is None:
            raise ValueError("adaptive updates need a reference energy table")
        if ops.scheme != "graddiv":
            raise ValueError("adaptive grad-div updates apply to the divergence-stable scheme")

    r = ops.r
    a = np.array(a0, dtype=float)
    if a.shape != (r,):
        raise ValueError(f"initial state must have shape ({r},)")
    previous = a.copy() if a_prev is None else np.array(a_prev, dtype=float)
    if previous.shape != (r,):
        raise ValueError(f"history state must have shape ({r},)")
    mu = float(mu)

    nt = n_steps + 1
    times = t_start + ops.fom.dt * np.arange(nt)
    a_traj = np.empty((r, nt))
    a_traj[:, 0] = a
    b_traj = None
    if ops.divergence is not None:
        b_traj = np.zeros((ops.r_pressure, nt))
    mu_traj = np.full(nt, mu)
    factor = _energy_factor(ops) if ops.lift else None
    steppers = functools.cache(functools.partial(ReducedStepper, ops))  # one per μ
    loads = reduce_forcing(ops, times)

    for n in range(1, nt):
        f_r = None if loads is None else loads[:, n]
        try:
            a_new, b_new = step_rom(steppers(mu), a, previous, f_r)
            if adaptive is not None:
                trial_energy = rom_kinetic_energy(ops, a_new, factor)
                mu, re_step = adapt_mu(mu, trial_energy, fom_energy_table, adaptive, n)
                if re_step:
                    a_new, b_new = step_rom(steppers(mu), a, previous, f_r)
        except RuntimeError as exc:
            raise RuntimeError(f"reduced step {n} at t={times[n]:.6g} failed: {exc}") from exc
        a_traj[:, n] = a_new
        if b_traj is not None:
            b_traj[:, n] = b_new
        mu_traj[n] = mu
        previous, a = a, a_new

    energy_traj = rom_kinetic_energy(ops, a_traj, factor)
    e_diff_traj = np.full(nt, np.nan)
    if fom_energy_table is not None:
        e_diff_traj[1:] = energy_mismatch(energy_traj[1:], fom_energy_table, np.arange(1, nt))
    return ROMRun(
        times=times,
        a_traj=a_traj,
        b_traj=b_traj,
        mu_traj=mu_traj,
        e_diff_traj=e_diff_traj,
        energy_traj=energy_traj,
    )


# -- supremizer enrichment and pressure recovery -------------------------------

# relative size below which a supremizer carries no divergence coupling, or
# below which a column adds no direction to the span before it
_DROP_TOLERANCE = 1e-10


def compute_supremizers(problem, psi):
    """Solve (grad s, grad v) = (psi, div v) for each pressure mode, a
    column of ``psi``, and return the solutions' gradient-orthonormal span
    (columns).

    The test space carries the problem's velocity Dirichlet constraints, so
    each supremizer has zero boundary values. A solution whose gradient
    norm is negligible against its pressure mode's norm carries no
    divergence coupling (a constant mode, for instance) and is dropped
    before orthonormalization, as are dependent ones.
    """
    import scipy.sparse.linalg as spla  # slow to import, and set-up never calls this
    free = problem.free_velocity
    lu = spla.splu(problem.stiffness.tocsr()[free][:, free].tocsc())
    raw = np.zeros((problem.n_velocity, psi.shape[1]))
    raw[free] = lu.solve((problem.divergence.T @ psi)[free])
    sup_norms = np.sqrt(np.maximum(
        np.einsum("ik,ik->k", raw, problem.stiffness @ raw), 0.0))
    psi_norms = np.sqrt(np.maximum(
        np.einsum("ik,ik->k", psi, problem.pressure_mass @ psi), 0.0))
    eligible = [k for k in range(psi.shape[1])
                if sup_norms[k] > _DROP_TOLERANCE * max(psi_norms[k], 1e-300)]
    return orthonormalize_gradient(raw[:, eligible], problem.stiffness)


def orthonormalize_gradient(fields, stiffness):
    """Classical Gram-Schmidt run twice in the gradient inner product, as
    orthonormal to rounding as the modified form (Giraud, Langou &
    Rozložník, Comput. Math. Appl. 50, 2005). S q is kept beside each
    orthonormal column q, so each kept column costs one stiffness product.

    A column is dropped when its gradient norm is negligible against the
    largest column (a roundoff-sized field would otherwise be normalized
    into noise) or when its projected remainder falls below
    ``_DROP_TOLERANCE`` times its original norm. Returns the orthonormal
    columns.
    """
    fields = np.asarray(fields, dtype=float)
    norms = np.sqrt(np.maximum(np.einsum("ik,ik->k", fields, stiffness @ fields), 0.0))
    scale = norms.max() if norms.size else 0.0
    kept = s_kept = np.zeros((fields.shape[0], 0))
    for k in np.flatnonzero(norms > _DROP_TOLERANCE * scale):
        v = fields[:, k]
        for _ in range(2):
            v = v - kept @ (s_kept.T @ v)
        s_v = stiffness @ v
        norm = np.sqrt(max(float(v @ s_v), 0.0))
        if norm > _DROP_TOLERANCE * norms[k]:
            kept = np.column_stack([kept, v / norm])
            s_kept = np.column_stack([s_kept, s_v / norm])
    return kept


def supremizer_stability(z, psi, divergence, mass, stiffness):
    """Discrete inf-sup constant of the pressure modes (the columns of
    ``psi``) over the enrichment (the supremizers, the columns of ``z``).

    Computes the smallest singular value of the divergence coupling
    whitened by the Cholesky factor of the supremizers' Gram matrix in the
    full velocity norm (mass plus gradient).
    """
    if z.shape[1] == 0:
        return 0.0
    coupling = (psi.T @ (divergence @ z)).T
    h = z.T @ ((mass + stiffness) @ z)
    chol = np.linalg.cholesky(0.5 * (h + h.T))
    return float(np.linalg.svd(np.linalg.solve(chol, coupling),
                               compute_uv=False).min())


@dataclass
class PressureRecovery:
    """Reduced pressure reconstruction tested against supremizers.

    For a reduced velocity state ``a`` (the field u = mean + phi a on the
    trial set, whose mean is fixed at 1, or absent for an uncentred basis),
    its time slope ``dadt``, a grad-div coefficient ``mu`` and the
    projected load ``forcing``, the pressure coefficients b solve
    ``sum_j b_j (psi_j, div z_k) = (phi dadt, z_k) + conv(u, u, z_k)
    + mu (div u, div z_k) - (f, z_k)`` over the supremizers z_k, one per
    pressure mode, so the system is square. This is not the reduced step's
    own residual: the viscous term is left out (it vanishes against the
    supremizers only for a discretely divergence-free u with zero boundary
    values), the convection is C(u) u rather than the step's convecting
    field, and :func:`reduced_pressure` passes the three-level difference
    as the slope under either integrator. The ROADMAP item "Pressure
    recovery on the integrator's own reduced system" replaces this
    right-hand side with :func:`step_residuals`.
    ``operators`` holds the velocity forms with the supremizers as test
    functions, projected in the reduced model's own pass (see
    :func:`build_rom_operators`), and the pressure modes; ``coupling`` is
    the divergence block. :func:`truncate_operators` cuts both.
    """

    operators: ROMOperators
    coupling: np.ndarray

    def __post_init__(self):
        if self.coupling.shape[0] != self.coupling.shape[1]:
            raise ValueError(
                f"need one supremizer per pressure mode: got {self.coupling.shape[0]} "
                f"for {self.coupling.shape[1]} modes")

    @property
    def fields(self):
        """The supremizers, one column per pressure mode."""
        return self.operators.test

    def recover(self, a, dadt, mu, forcing):
        """Pressure coefficients of one reduced velocity state; ``forcing``
        is None for an unforced problem."""
        ops = self.operators
        u = _lifted(ops, a)
        rhs = _split(ops, ops.mass)[0] @ dadt
        rhs = rhs + np.einsum("i,ijk,j->k", u, ops.convection_tensor, u)
        if mu != 0.0:
            rhs = rhs + mu * (ops.grad_div @ u)
        if forcing is not None:
            rhs = rhs - forcing
        try:
            b = np.linalg.solve(self.coupling, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("supremizer pressure system is singular") from exc
        if not np.all(np.isfinite(b)):
            raise RuntimeError("pressure recovery produced non-finite values")
        return b


def reduced_pressure(ops, run, mu, a_prev=None, columns=None):
    """Full-order pressure fields of the reduced run ``run`` of ``ops``, one
    column per time level.

    The coupled scheme solved for its pressure coefficients. The
    velocity-only scheme recovers them through ``ops.recovery`` (None when
    there is none, and then so is the result), one
    :meth:`PressureRecovery.recover` per level with the load at its time,
    only at ``columns`` when given (the other columns are NaN). Column
    ``n >= 1`` takes the three-level difference of the velocity once two
    history levels exist and the backward difference on the very first
    step; column 0 takes the backward difference against ``a_prev`` when
    given and a zero slope otherwise. ``mu`` is one grad-div coefficient
    or one per column.
    """
    if ops.pres_modes is not None:
        return ops.pres_modes @ run.b_traj
    recovery = ops.recovery
    if recovery is None:
        return None
    dt = recovery.operators.fom.dt
    a_traj = run.a_traj
    nt = a_traj.shape[1]
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (nt,))
    b_traj = np.full((recovery.coupling.shape[0], nt), np.nan)
    for n in range(nt) if columns is None else columns:
        if n == 0:
            if a_prev is not None:
                dadt = (a_traj[:, 0] - a_prev) / dt
            else:
                dadt = np.zeros(a_traj.shape[0])
        elif n == 1 and a_prev is None:
            dadt = (a_traj[:, 1] - a_traj[:, 0]) / dt
        else:
            back2 = a_prev if n == 1 else a_traj[:, n - 2]
            dadt = (3.0 * a_traj[:, n] - 4.0 * a_traj[:, n - 1] + back2) / (2.0 * dt)
        b_traj[:, n] = recovery.recover(a_traj[:, n], dadt, float(mu[n]),
                                        reduce_forcing(recovery.operators, run.times[n]))
    # every column is lifted, so the product is the one of the full trajectory
    return recovery.operators.pres_modes @ b_traj


def principal_angle_cosine(g_vv, g_zz, g_vz):
    """Largest principal-angle cosine between two spans in the gradient
    metric, from the blocks of their Gram matrix: ``g_vv`` and ``g_zz`` of
    each span with itself, ``g_vz`` of the first with the second.

    Measures how close the supremizer span comes to the reduced velocity
    span: 0 for gradient-orthogonal spaces, approaching 1 when they share a
    direction. Used as the coupling constant of the reduced pressure error
    indicator.
    """
    import scipy.linalg as sla  # slow to import, and set-up never calls this
    l_v = sla.cholesky(g_vv, lower=True)
    l_z = sla.cholesky(g_zz, lower=True)
    w = sla.solve_triangular(l_v, g_vz, lower=True)
    w = sla.solve_triangular(l_z, w.T, lower=True).T
    return float(min(sla.svdvals(w).max(), 1.0))


def save_operators(ops, path):
    """Write the reduced arrays and the full-order configuration as a binary
    container keyed by the space.

    Stores every array needed to step the reduced system (not the modes or
    the mean field, which live with the basis container, nor the forcing's
    time factors or the pressure recovery); a loaded set can be integrated
    unforced but not reconstructed to full-order fields.
    """
    signature = "" if ops.vel_space is None else ops.vel_space.signature()
    meta = {"signature": signature, "fom": asdict(ops.fom), "r": int(ops.r),
            "mean_energy": float(ops.mean_energy)}
    arrays = {name: getattr(ops, name) for name, axes in _OPERATOR_AXES.items()
              if "n" not in axes and getattr(ops, name) is not None}
    write_container(path, "operators", meta, arrays)


def load_operators(path, expected_signature=None):
    """Read a reduced-operator container written by :func:`save_operators`."""
    meta, arrays = read_container(path, "operators", expected_signature)
    unread = ", ".join(sorted(arrays.keys() - _OPERATOR_AXES.keys()))
    if "fom" not in meta or unread:
        held = f"arrays this version does not read ({unread})" if unread \
            else "no full-order configuration ('fom')"
        raise ContainerError(path, f"holds {held}; it was written by an older version, "
                                   "rebuild the operators")
    fom = meta["fom"]
    window = fom["snapshot_window"]
    return ROMOperators(
        fom=FOMConfig(**{**fom, "stabilization": StabilizationConfig(**fom["stabilization"]),
                         "snapshot_window": None if window is None else tuple(window)}),
        r=meta["r"],
        mean_energy=meta["mean_energy"],
        vel_space=None,
        **{name: arrays.get(name) for name in _OPERATOR_AXES},
    )
